#!/usr/bin/env python3
"""qfun benchmark: one workload, one closed-loop client, one thread.

    python3 bench/run.py --workload all-sweep --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: a closed loop of ops for
--seconds seconds, and set-up time over fresh interpreters launched before
and after it.  Its times are scaled to a reference machine speed, measured
by a fixed kernel run between batches of ops (calibrate.py).  --trace 1
runs a fixed seeded list of ops untraced until --seconds have passed, then
once under the span tracer, and reports the per-layer metrics and the
tracing overhead.  Outputs are checked outside the timed region.  A wrong
output or a raised qfun error counts as a failed op.

The metric names and units come from BENCHMARK.json at the repository
root.  The last line of stdout is one JSON object with correct, attempted,
failed and metrics.  A result file with the environment record goes to
bench/results/.  qfun is imported from this checkout's src/; without it the
run exits 2 and prints no result.
"""

import os

# BLAS and OpenMP threads are pinned before numpy is first imported, and
# inherited by the set-up launches.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

from calibrate import LAUNCH_CODE, LAUNCH_REF_SECONDS, Speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# set-up launches before and after the timed loop, so they meet more than
# one phase of the machine's load; each is paired with a reference launch
SETUP_LAUNCHES = (6, 6)
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import qfun
qfun.q_digamma(qfun.QParam(0.5), 2.5)
t1 = time.perf_counter()
print(qfun.__file__)
print(repr(t1 - t0))
"""
TAIL_BEYOND = 10
WARMUP_SECONDS = 1.0
# ops between two speed slices take at least this long
BATCH_SECONDS = 0.4


@dataclass
class Result:
    op: Any
    out: Any
    seconds: float
    error: str | None
    batch: int = 0


def tail_stat(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) for the highest percentile that still has
    TAIL_BEYOND samples above it; raises ValueError on too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples; the tail needs more than {TAIL_BEYOND}")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure(workload, ops, seconds: float = math.inf, tracer=None,
            speed: Speed | None = None) -> tuple[list[Result], float]:
    """Closed loop over ops until they run out or seconds have passed: the
    next op starts when the previous one has returned.

    An op that raises one of the workload's errors is recorded as failed;
    anything else propagates.  With a tracer, the op's own calls into qfun
    become spans.  With a speed, a kernel slice runs before the first op,
    after each BATCH_SECONDS of ops and after the last op, and each result
    records its batch.
    """
    results = []
    start = batch_start = time.perf_counter()
    if speed is not None:
        speed.sample()
    for i, op in enumerate(ops):
        now = time.perf_counter()
        if now - start >= seconds:
            break
        if speed is not None and now - batch_start >= BATCH_SECONDS:
            speed.sample()
            batch_start = time.perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.run(op) if tracer is None else workload.run(op, tracer.call)
            error = None
        except workload.errors as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        batch = speed.batch if speed is not None else 0
        results.append(Result(op, out, time.perf_counter() - t0, error, batch))
    if speed is not None:
        speed.sample()
    return results, time.perf_counter() - start


def check(workload, results: list[Result], seed: int) -> list[str]:
    """Wrong outputs among results; deep checks on a seeded subsample."""
    done = [i for i, r in enumerate(results) if r.error is None]
    deep = set(done)
    if workload.deep_checks is not None and len(done) > workload.deep_checks:
        deep = set(random.Random(f"check:{seed}").sample(done, workload.deep_checks))
    wrong = []
    for i in done:
        msg = workload.check(results[i].op, results[i].out, i in deep)
        if msg is not None:
            wrong.append(f"op {i}: {msg}")
    return wrong


def launch(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.split()


def setup_times(launches: int) -> list[float]:
    """Fresh-interpreter `import qfun` plus a first evaluation, per launch,
    at the reference speed.  Each launch follows a reference launch, and is
    scaled by LAUNCH_REF_SECONDS over the median of the reference launches
    next to it and on either side."""
    times, refs = [], []
    for _ in range(launches):
        refs.append(float(launch(LAUNCH_CODE)[0]))
        where, secs = launch(SETUP_CODE)
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up launch imported qfun from {where}, not {SRC}")
        times.append(float(secs))
    return [t * LAUNCH_REF_SECONDS / statistics.median(refs[max(0, i - 1):i + 2])
            for i, t in enumerate(times)]


def env_record(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_digest = hashlib.sha256()
    for f in sorted((SRC / "qfun").glob("*.py")):
        src_digest.update(f.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def summarize(results: list[Result], elapsed: float, wrong: list[str]) -> dict:
    """Throughput of the ops that returned over elapsed seconds; failures
    are the ops that raised plus the wrong outputs."""
    ok = sum(r.error is None for r in results)
    return {
        "metrics": {"ops_per_s": ok / elapsed},
        "samples": {"ops_per_s": f"{ok} ops in {elapsed:.3f} reference s"},
        "attempted": len(results),
        "failed": len(results) - ok + len(wrong),
        "correct": not wrong,
        "problems": [f"op {i}: {r.error}" for i, r in enumerate(results) if r.error] + wrong,
    }


def untraced_run(workload, seed: int, seconds: float) -> dict:
    setup = setup_times(SETUP_LAUNCHES[0])
    measure(workload, workload.inputs(seed, "warmup"), WARMUP_SECONDS)
    loop = Speed(workload.kernel_chunks)
    results, _ = measure(workload, workload.inputs(seed), seconds, speed=loop)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_times(SETUP_LAUNCHES[1])
    # op times at the reference speed; the loop's own time is the ops' sum
    ref_s = [r.seconds * loop.factor(r.batch) for r in results]
    out = summarize(results, sum(ref_s), check(workload, results, seed))
    lat_ms = [1e3 * s for s, r in zip(ref_s, results) if r.error is None]
    tail, pct, n = tail_stat(lat_ms)
    out["metrics"].update(setup_s=statistics.median(setup), op_ms_p50=statistics.median(lat_ms),
                          op_ms_tail=tail, peak_rss_mb=peak_rss_mb)
    raw_s = [r.seconds for r in results]
    raw_ms = [1e3 * r.seconds for r in results if r.error is None]
    factors = [loop.factor(b) for b in range(loop.batch)]
    out["samples"].update(setup_s=f"median of {len(setup)} launches", op_ms_p50=f"n={n}",
                          op_ms_tail=f"p{pct:.2f}, n={n}, {TAIL_BEYOND} beyond",
                          peak_rss_mb="n=1",
                          wall_ops_per_s=len(raw_ms) / sum(raw_s), wall_op_ms_p50=statistics.median(raw_ms),
                          speed_factor=f"median {statistics.median(factors):.4f} over "
                                       f"{len(loop.slices)} slices, "
                                       f"range {min(factors):.4f}-{max(factors):.4f}")
    out["extras"] = workload.layer_extras([r.out for r in results])
    return out


def traced_run(workload, seed: int, seconds: float, spans_path: Path) -> dict:
    from qfun.theorems import CLAIM_IDS
    from spans import Tracer, layer_metrics

    op_list = [op for op, _ in zip(workload.inputs(seed), range(workload.trace_ops))]
    untraced, attempted, raised = [], 0, 0
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        results, elapsed = measure(workload, op_list)
        untraced.append(len(results) / elapsed)
        attempted += len(results)
        raised += sum(r.error is not None for r in results)
    tracer = Tracer()
    with tracer:
        results, elapsed = measure(workload, op_list, tracer=tracer)
    tracer.write(spans_path)
    out = summarize(results, elapsed, check(workload, results, seed))
    traced_ops_per_s = out["metrics"]["ops_per_s"]
    metrics = layer_metrics(tracer.spans, CLAIM_IDS)
    metrics.update({"cli.bytes_identical": 0, **workload.layer_extras([r.out for r in results])})
    metrics["trace_overhead_frac"] = 1.0 - traced_ops_per_s / statistics.median(untraced)
    out["samples"] = {
        "ops": f"{len(op_list)} ops traced once after {len(untraced)} untraced passes",
        "untraced_ops_per_s": statistics.median(untraced),
        "traced_ops_per_s": traced_ops_per_s,
    }
    out.update(metrics=metrics, attempted=out["attempted"] + attempted,
               failed=out["failed"] + raised)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (SRC / "qfun" / "__init__.py").is_file():
        print(f"error: no qfun sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    # qfun is imported from this checkout only, so only after the check above
    sys.path.insert(0, str(SRC))
    import qfun
    import workloads

    if not Path(qfun.__file__).resolve().is_relative_to(SRC):
        print(f"error: qfun imported from {qfun.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        out = traced_run(workload, args.seed, args.seconds, RESULTS / f"{stem}-spans.csv")
        listed = spec["per_layer"]
    else:
        out = untraced_run(workload, args.seed, args.seconds)
        listed = spec["end_to_end"]
    if set(out["metrics"]) != {m["name"] for m in listed}:
        raise RuntimeError(f"metrics {sorted(set(out['metrics']) ^ {m['name'] for m in listed})} "
                           "do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in listed}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env_record(args.seed),
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "fail_frac": out["failed"] / out["attempted"],
        "metrics": metrics,
        "samples": out["samples"],
        "extras": out.get("extras", {}),
        "problems": out["problems"][:50],
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={out['attempted']} failed={out['failed']} "
          f"fail_frac={record['fail_frac']:.6g} correct={out['correct']}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:<14.6g} {m['unit']:8s} {out['samples'].get(name, '')}")
    for key, value in {**out.get("extras", {}), **out["samples"]}.items():
        if key not in metrics:
            print(f"  {key}: {value}")
    for line in out["problems"][:10]:
        print(f"  problem: {line}")
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
