"""The benchmark's workloads: seeded inputs, the timed op, the untimed check.

Each op is one call into qfun's public API, made through call(name, fn,
*args), which is a plain call in untraced runs and a span in traced ones.
run() is timed; check() is not, and returns None or what was wrong.  Cheap
checks run on every op.  Deep checks, which need mpmath references, run
on a seeded subsample of deep_checks ops.  The checks import reference.py
(and with it mpmath) only when they first run, after peak memory is read.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

from qfun import (
    BracketError,
    DomainError,
    NonConvergent,
    QParam,
    RatioSpec,
    Truncation,
    UnsupportedOrder,
    beta_star,
    digamma_zero,
    ln_q_gamma,
    q_digamma,
    q_gamma,
    q_polygamma,
    verify_g_beta_lcm,
    verify_theorem_ratio_lcm,
)
from qfun.cli import main as cli_main

ALL_SWEEP_REFERENCE = Path(__file__).resolve().parent / "all_sweep_reference.json"
CSV_ARGV = ("all", "--format", "csv")
JSON_ARGV = ("all", "--format", "json")

# golden-ratio and silver-ratio steps for the two Kronecker coordinates
_STEPS = (0.6180339887498949, 0.41421356237309515)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple = ()


def _direct(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


class _Kronecker:
    """Points (s1 + k phi, s2 + k (sqrt 2 - 1)) mod 1 with seeded shifts.

    Each coordinate is uniform on [0, 1), and every prefix covers [0, 1)
    evenly.  So the share of rare, expensive inputs in a run depends little
    on the seed, which keeps throughput steady across seeds.
    """

    def __init__(self, rng: random.Random) -> None:
        self.shift = (rng.random(), rng.random())
        self.k = 0

    def __call__(self) -> tuple[float, float]:
        self.k += 1
        return tuple((s + self.k * step) % 1.0 for s, step in zip(self.shift, _STEPS))


def _blocks(rng: random.Random, block: list) -> Iterator:
    """Endless draws from block: each pass over it in a fresh seeded order,
    so every share is exact after each pass."""
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order


class Workload:
    name = ""
    trace_ops = 1
    deep_checks: int | None = None
    # chunk lengths of the speed kernel the op times are scaled by (calibrate.py)
    kernel_chunks = (64,)
    # qfun's own errors: an op that raises one of them counts as failed
    errors = (NonConvergent, OverflowError, BracketError, DomainError, UnsupportedOrder)

    def ops(self, rng: random.Random) -> Iterator[Op]:
        raise NotImplementedError

    def inputs(self, seed: int, stream: str = "measure") -> Iterator[Op]:
        return self.ops(random.Random(f"{self.name}:{stream}:{seed}"))

    def run(self, op: Op, call: Callable = _direct) -> Any:
        raise NotImplementedError

    def check(self, op: Op, out: Any, deep: bool) -> str | None:
        raise NotImplementedError

    def layer_extras(self, outputs: list) -> dict[str, float]:
        return {}


class AllSweep(Workload):
    """One in-process `qfun all --format csv`: 45 claim runs at the CLI's
    fixed q set, through every layer.  Inputs are fixed; the seed is unused."""

    name = "all-sweep"

    def __init__(self) -> None:
        self.ref = json.loads(ALL_SWEEP_REFERENCE.read_text(encoding="utf-8"))

    def ops(self, rng: random.Random) -> Iterator[Op]:
        while True:
            yield Op("all", CSV_ARGV)

    def run(self, op: Op, call: Callable = _direct) -> tuple[int, str, str]:
        return cli_run(op.args, call)

    def check(self, op: Op, out: tuple[int, str, str], deep: bool) -> str | None:
        rc, text, err = out
        if rc != self.ref["exit_code"]:
            return f"exit code {rc}, expected {self.ref['exit_code']}"
        got = verdicts(text)
        if got != [tuple(v) for v in self.ref["verdicts"]]:
            wrong = sorted(set(got) ^ {tuple(v) for v in self.ref["verdicts"]})
            return f"verdict table differs from the reference: {wrong[:6]}"
        ces = counterexamples(err)
        if ces != [tuple(c) for c in self.ref["counterexamples"]]:
            return f"counterexamples {ces}, expected {self.ref['counterexamples']}"
        return None

    def layer_extras(self, outputs: list) -> dict[str, float]:
        same = sum(sha256(o[1]) == self.ref["csv_sha256"] for o in outputs if o is not None)
        same += sha256(cli_run(JSON_ARGV)[1]) == self.ref["json_sha256"]
        return {"cli.bytes_identical": same}


def cli_run(argv: tuple, call: Callable = _direct) -> tuple[int, str, str]:
    """One in-process qfun command line: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = call("cli.main", cli_main, list(argv))
    return rc, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdicts(csv_text: str) -> list[tuple[str, str, bool]]:
    """(claim_id, q, passed) per claim run, in report order; a run passes
    when all of its rows pass."""
    table: dict[tuple[str, str], bool] = {}
    for row in csv.DictReader(io.StringIO(csv_text)):
        key = (row["claim_id"], row["q"])
        table[key] = table.get(key, True) and row["passed"] == "true"
    return [(c, q, ok) for (c, q), ok in table.items()]


def counterexamples(stderr_text: str) -> list[tuple[str, str]]:
    """(claim_id, q) of each re-run line the CLI printed, sorted."""
    found = []
    for line in stderr_text.splitlines():
        if line.startswith("re-run: "):
            words = line.split()
            found.append((words[words.index("--claim") + 1], words[words.index("--q") + 1]))
    return sorted(found)


class CertifyDraws(Workload):
    """Sub-unit certifications on seeded specs.

    Three in eight ops check verify_theorem_ratio_lcm on a balanced spec,
    three on an unbalanced one (the spec family of acceptance criterion 7),
    and two check verify_g_beta_lcm at beta in [beta*(q), beta*(q) + 1].
    The theorems give every verdict: balanced passes, unbalanced fails and
    g-beta passes.  A deep check recomputes the reported worst margin from
    mpmath references.
    """

    name = "certify-draws"
    trace_ops = 32
    deep_checks = 16
    block = ["balanced"] * 3 + ["unbalanced"] * 3 + ["g-beta"] * 2
    q_range = (0.15, 0.85)

    def ops(self, rng: random.Random) -> Iterator[Op]:
        seqs = {kind: _Kronecker(rng) for kind in set(self.block)}
        lo, hi = self.q_range
        for kind in _blocks(rng, self.block):
            u_q, u_b = seqs[kind]()
            q = lo + (hi - lo) * u_q
            if kind == "g-beta":
                yield Op(kind, (q, beta_star(QParam(q)) + u_b))
                continue
            a = rng.uniform(0.5, 1.5)
            if kind == "balanced":
                b = a * rng.uniform(1.5, 3.0)
                alpha = rng.uniform(0.3, 2.0)
                yield Op(kind, (q, a, b, alpha, alpha * a / b))
                continue
            b = a * rng.choice([1.5, 2.0, 2.5, 3.0])
            if rng.random() < 0.5:
                beta = rng.uniform(0.3, 2.0)
                alpha = rng.uniform(1.3, 2.5) * beta * b / a
            else:
                alpha = rng.uniform(0.3, 1.2)
                beta = alpha * rng.uniform(1.3, 2.5)
            yield Op(kind, (q, a, b, alpha, beta))

    def run(self, op: Op, call: Callable = _direct):
        q, *rest = op.args
        if op.kind == "g-beta":
            return call("theorems.verify", verify_g_beta_lcm, QParam(q), beta=rest[0])
        return call("theorems.verify", verify_theorem_ratio_lcm, RatioSpec(*rest), QParam(q))

    def check(self, op: Op, out, deep: bool) -> str | None:
        if out.passed != (op.kind != "unbalanced"):
            return f"{op.kind} spec {op.args}: passed={out.passed}, the theorem says otherwise"
        if not deep:
            return None
        from reference import g_beta_margin_ref, ratio_margin_ref

        wp = out.worst_point
        n, x = wp["n_order"], wp["x"]
        if op.kind == "g-beta":
            ref, budget = g_beta_margin_ref(op.args[0], op.args[1], n, x)
        else:
            ref, budget = ratio_margin_ref(*op.args, n, x)
        if abs(ref - out.worst_margin) > budget:
            return (f"{op.kind} spec {op.args}: worst margin {out.worst_margin!r} at n={n}, "
                    f"x={x!r}; reference {ref!r}, budget {budget:.3e}")
        return None


class NearOne(Workload):
    """Single evaluations with |q - 1| log-uniform in [1e-4, 1e-2] on both
    sides of 1 and x log-uniform in [0.05, 20].

    The term cap is raised to 1e8, the QParam docstring's advice for
    near-one work.  Under the default 1e7 cap, order >= 4 polygammas with
    |q - 1| x below 5.2e-6 to 6.2e-6 raise NonConvergent, about 9 in
    100,000 of these ops.
    """

    name = "near-one"
    trace_ops = 256
    deep_checks = 96
    block = ["digamma", "polygamma", "polygamma", "polygamma", "polygamma",
             "ln_gamma", "gamma", "zero"]
    trunc = Truncation(max_terms=100_000_000)
    kernel_chunks = (64, 65536)
    ln_d = (math.log(1e-4), math.log(1e-2))
    ln_x = (math.log(0.05), math.log(20.0))

    def ops(self, rng: random.Random) -> Iterator[Op]:
        seqs = {kind: _Kronecker(rng) for kind in set(self.block)}
        sides = _blocks(rng, [-1.0, 1.0])
        orders = _blocks(rng, list(range(1, 9)))
        for kind in _blocks(rng, self.block):
            u_d, u_x = seqs[kind]()
            q = 1.0 + next(sides) * math.exp(self.ln_d[0] + (self.ln_d[1] - self.ln_d[0]) * u_d)
            x = math.exp(self.ln_x[0] + (self.ln_x[1] - self.ln_x[0]) * u_x)
            if kind == "polygamma":
                yield Op(kind, (q, x, next(orders)))
            elif kind == "zero":
                yield Op(kind, (q,))
            else:
                yield Op(kind, (q, x))

    def run(self, op: Op, call: Callable = _direct):
        p = QParam(op.args[0], allow_near_one=True)
        t = self.trunc
        if op.kind == "digamma":
            return call("core.q_digamma", q_digamma, p, op.args[1], t)
        if op.kind == "polygamma":
            return call("core.q_polygamma", q_polygamma, p, op.args[1], op.args[2], t)
        if op.kind == "ln_gamma":
            return call("core.ln_q_gamma", ln_q_gamma, p, op.args[1], t)
        if op.kind == "gamma":
            return call("core.q_gamma", q_gamma, p, op.args[1], t)
        return call("roots.digamma_zero", digamma_zero, p, trunc=t)

    def check(self, op: Op, out, deep: bool) -> str | None:
        from reference import psi_error, recurrence_error

        p = QParam(op.args[0], allow_near_one=True)
        t = self.trunc
        if op.kind in ("digamma", "polygamma"):
            n = op.args[2] if op.kind == "polygamma" else 0
            return psi_error(p.q, op.args[1], n, out.value, out.err_bound) if deep else None
        if op.kind in ("ln_gamma", "gamma"):
            fn = ln_q_gamma if op.kind == "ln_gamma" else q_gamma
            x = op.args[1]
            return recurrence_error(p, x, out, fn(p, x + 1.0, t), op.kind == "ln_gamma")
        tol = 1e-12  # digamma_zero's default residual bound
        lo, hi = out.bracket
        res = abs(q_digamma(p, out.x0, t).value)
        if not (lo <= out.x0 <= hi and res <= tol):
            return f"zero at q={p.q!r}: x0={out.x0!r}, |psi(x0)|={res:.3e}, bracket {out.bracket}"
        if lo < hi and not q_digamma(p, lo, t).value <= 0.0 <= q_digamma(p, hi, t).value:
            return f"zero at q={p.q!r}: no sign change on the bracket {out.bracket}"
        return None


WORKLOADS = {w.name: w for w in (AllSweep, CertifyDraws, NearOne)}
