"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q
"""

import itertools
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import qfun  # noqa: E402
import qfun.roots  # noqa: E402
import qfun.theorems  # noqa: E402
import calibrate  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def first(workload, seed, n, stream="measure"):
    return list(itertools.islice(workload.inputs(seed, stream), n))


@pytest.mark.parametrize("name", ["certify-draws", "near-one"])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    w = workloads.WORKLOADS[name]()
    a = first(w, 7, 64)
    assert a == first(w, 7, 64)
    assert all(x != y for x, y in zip(a, first(w, 8, 64)))
    assert a != first(w, 7, 64, "warmup")
    assert {op.kind for op in a} == set(w.block)


def test_all_sweep_inputs_are_fixed():
    w = workloads.AllSweep()
    assert first(w, 1, 3) == first(w, 2, 3) == [Op("all", workloads.CSV_ARGV)] * 3


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(25, 0, -1)]
    value, pct, n = run.tail_stat(values)
    assert (value, pct, n) == (15.0, 60.0, 25)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert run.tail_stat([float(v) for v in range(11)]) == (0.0, 100.0 * 1 / 11, 11)
    with pytest.raises(ValueError):
        run.tail_stat([1.0] * 10)


class _Capped(workloads.Workload):
    """Every fourth op hits the 64-term cap near q = 1; the rest are plain."""

    name = "capped"

    def ops(self, rng):
        for k in itertools.count():
            yield Op("capped" if k % 4 == 0 else "plain", (k,))

    def run(self, op, call=workloads._direct):
        if op.kind == "capped":
            p = qfun.QParam(0.9999, allow_near_one=True)
            return qfun.q_digamma(p, 0.05, qfun.Truncation(max_terms=64))
        return qfun.q_digamma(qfun.QParam(0.5), 2.5)

    def check(self, op, out, deep):
        return None


def test_nonconvergent_counts_as_failed_and_is_reported():
    w = _Capped()
    results, elapsed = run.measure(w, first(w, 0, 40))
    out = run.summarize(results, elapsed, run.check(w, results, 0))
    assert (out["attempted"], out["failed"]) == (40, 10)
    assert out["metrics"]["ops_per_s"] == 30 / elapsed
    assert sum(p.startswith("op ") and "NonConvergent" in p for p in out["problems"]) == 10


def test_speed_factor_is_the_window_median_around_a_batch():
    speed = calibrate.Speed(warmup=0)
    speed.slices = [1.0, 2.0, 4.0, 8.0, 100.0]
    ref = calibrate.KERNELS[64][1]
    assert calibrate.WINDOW == 2
    assert speed.factor(0) == ref / statistics.median([1.0, 2.0, 4.0])
    assert speed.factor(1) == ref / statistics.median([1.0, 2.0, 4.0, 8.0])
    assert speed.factor(3) == ref / statistics.median([4.0, 8.0, 100.0])


def test_measure_brackets_each_batch_with_speed_slices():
    w = _Capped()
    speed = calibrate.Speed(warmup=0)
    results, _ = run.measure(w, first(w, 0, 8), speed=speed)
    # ops are far shorter than BATCH_SECONDS: one batch, a slice on each side
    assert len(speed.slices) == 2 and {r.batch for r in results} == {0}


def test_an_error_outside_qfun_propagates():
    class Broken(_Capped):
        def run(self, op, call=workloads._direct):
            raise RuntimeError("harness bug")

    with pytest.raises(RuntimeError):
        run.measure(Broken(), first(Broken(), 0, 3))


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        spans.Span("root", -1, 0, 0.0, 10.0),
        spans.Span("a", 0, 0, 1.0, 4.0),
        spans.Span("b", 0, 0, 3.0, 5.0),  # overlaps a: the union counts once
        spans.Span("c", 0, 0, 9.0, 12.0),  # runs past root: clipped at 10
        spans.Span("a1", 1, 0, 2.0, 3.0),
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 2.0, 3.0, 1.0]


@pytest.fixture(scope="module")
def traced_all_sweep():
    w = workloads.AllSweep()
    tracer = spans.Tracer()
    with tracer:
        results, _ = run.measure(w, first(w, 0, 1), tracer=tracer)
    return w, tracer, results[0].out


def test_traced_all_sweep_makes_481_zero_solves_on_5_distinct_q(traced_all_sweep):
    _, tracer, _ = traced_all_sweep
    m = spans.layer_metrics(tracer.spans, qfun.theorems.CLAIM_IDS)
    assert m["roots.digamma_zero.calls"] == 481
    assert round(m["roots.digamma_zero.distinct_frac"] * 481) == 5
    assert m["cli.main.calls"] == 1
    assert m["theorems.run_claim.calls"] == 45
    assert qfun.theorems.digamma_zero is qfun.roots.digamma_zero  # wrappers removed


def test_all_sweep_check_fails_a_wrong_verdict_or_exit_code(traced_all_sweep):
    w, _, (rc, text, err) = traced_all_sweep
    assert w.check(None, (rc, text, err), True) is None
    assert w.layer_extras([(rc, text, err)]) == {"cli.bytes_identical": 2}
    assert w.check(None, (0, text, err), True) is not None
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("c-666,0.5,"))
    lines[row] = lines[row].rsplit(",", 1)[0] + ",false"
    assert w.check(None, (rc, "\n".join(lines) + "\n", err), True) is not None


def test_traced_counts_repeat_for_a_seed():
    w = workloads.NearOne()
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        with tracer:
            run.measure(w, first(w, 3, 24), tracer=tracer)
        m = spans.layer_metrics(tracer.spans, qfun.theorems.CLAIM_IDS)
        counts.append({k: v for k, v in m.items() if not k.endswith(("_ms", "us_per_call"))})
    assert counts[0] == counts[1]


def test_references_reject_a_perturbed_value():
    p = qfun.QParam(0.999)
    r = qfun.q_polygamma(p, 0.3, 3)
    assert reference.psi_error(p.q, 0.3, 3, r.value, r.err_bound) is None
    assert reference.psi_error(p.q, 0.3, 3, r.value * (1 + 1e-9), r.err_bound) is not None
    r0, r1 = qfun.ln_q_gamma(p, 2.5), qfun.ln_q_gamma(p, 3.5)
    assert reference.recurrence_error(p, 2.5, r0, r1, log_scale=True) is None
    bumped = qfun.EvalResult(r1.value + 1e-9, r1.err_bound, r1.terms)
    assert reference.recurrence_error(p, 2.5, r0, bumped, log_scale=True) is not None
