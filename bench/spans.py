"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps qfun's public functions where qfun's own layer modules
look them up (qfun.roots, qfun.deriv, qfun.theorems, qfun.cli), never in
the module that defines them, so a function's internal recursion (the
q > 1 route of q_polygamma inside qfun.core, for one) stays one call.
Nothing in qfun is edited: install() swaps module attributes and
uninstall() puts the originals back.

Each span records (name, parent, op, start, end) plus the call's arguments
and result, so counts and distinct-argument ratios are derived after the
run from what the layer actually received and returned.
"""

from __future__ import annotations

import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import qfun.cli
import qfun.core
import qfun.deriv
import qfun.roots
import qfun.theorems

CORE_FNS = ("q_digamma", "q_polygamma", "ln_q_gamma", "q_gamma")

# public function -> (defining module, span name)
TRACED = {
    **{fn: (qfun.core, f"core.{fn}") for fn in CORE_FNS},
    "digamma_zero": (qfun.roots, "roots.digamma_zero"),
    "certify_lcm": (qfun.deriv, "deriv.certify_lcm"),
    "run_claim": (qfun.theorems, "theorems.run_claim"),
}

# the modules whose lookups are wrapped, in layer order
CALLER_MODULES = (qfun.roots, qfun.deriv, qfun.theorems, qfun.cli)


@dataclass
class Span:
    name: str
    parent: int
    op: int
    start: float
    end: float = math.nan
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    result: Any = None
    raised: str | None = None


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.op = -1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named name."""
        sid = len(self.spans)
        span = Span(name, self._stack[-1] if self._stack else -1, self.op, 0.0,
                    args=args, kwargs=kwargs)
        self.spans.append(span)
        self._stack.append(sid)
        span.start = time.perf_counter()
        try:
            span.result = fn(*args, **kwargs)
        except BaseException as exc:
            span.raised = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        return span.result

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod in CALLER_MODULES:
            for fn_name, (home, span_name) in TRACED.items():
                original = getattr(home, fn_name)
                if mod is home or getattr(mod, fn_name, None) is not original:
                    continue
                self._saved.append((mod, fn_name, original))
                setattr(mod, fn_name, self._wrap(span_name, original))

    def uninstall(self) -> None:
        while self._saved:
            mod, fn_name, original = self._saved.pop()
            setattr(mod, fn_name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        """Dump the spans as CSV: id, parent, op, name, start and end in
        microseconds from the first span, and the exception type if any."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_us,end_us,raised\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s.parent},{s.op},{s.name},{(s.start - t0) * 1e6:.3f},"
                         f"{(s.end - t0) * 1e6:.3f},{s.raised or ''}\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover, in seconds."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _arguments(sig: inspect.Signature, span: Span) -> dict:
    bound = sig.bind(*span.args, **span.kwargs)
    bound.apply_defaults()
    return bound.arguments


def _arg_key(sig: inspect.Signature, span: Span) -> tuple:
    """The call's arguments with defaults applied; a missing truncation is
    the default truncation, so both spellings count as one argument."""
    args = _arguments(sig, span)
    if args.get("trunc", 0) is None:
        args["trunc"] = qfun.core.DEFAULT_TRUNCATION
    return tuple(args.items())


def layer_metrics(spans: list[Span], claim_ids: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by the names BENCHMARK.json lists."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    m: dict[str, float] = {}

    def total_ms(idx):
        return 1e3 * math.fsum(spans[i].end - spans[i].start for i in idx)

    def timing(name, with_total=True):
        idx = by_name.get(name, [])
        m[name + ".calls"] = len(idx)
        if with_total:
            m[name + ".total_ms"] = total_ms(idx)
        m[name + ".self_ms"] = 1e3 * math.fsum(selfs[i] for i in idx)
        return idx, [spans[i].result for i in idx if spans[i].raised is None]

    def distinct_frac(fn, idx):
        sig = inspect.signature(fn)
        return len({_arg_key(sig, spans[i]) for i in idx}) / len(idx) if idx else 0.0

    for fn in CORE_FNS:
        pre = f"core.{fn}"
        idx, ok = timing(pre, with_total=False)
        terms = sum(r.terms for r in ok)
        m[pre + ".us_per_call"] = 1e3 * m[pre + ".self_ms"] / len(idx) if idx else 0.0
        m[pre + ".terms"] = terms
        m[pre + ".terms_per_call"] = terms / len(ok) if ok else 0.0
        m[pre + ".max_terms"] = max((r.terms for r in ok), default=0)
        m[pre + ".max_err_bound"] = max((r.err_bound for r in ok), default=0.0)
        m[pre + ".distinct_frac"] = distinct_frac(getattr(qfun.core, fn), idx)
        m[pre + ".fail"] = len(idx) - len(ok)

    idx, ok = timing("roots.digamma_zero")
    m["roots.digamma_zero.evals_per_call"] = sum(r.iterations for r in ok) / len(ok) if ok else 0.0
    m["roots.digamma_zero.distinct_frac"] = distinct_frac(qfun.roots.digamma_zero, idx)

    idx, _ = timing("deriv.certify_lcm")
    sig = inspect.signature(qfun.deriv.certify_lcm)
    points = 0
    for i in idx:
        args = _arguments(sig, spans[i])
        points += args["n_orders"] * len(args["grid"])
    m["deriv.certify_lcm.points"] = points
    m["deriv.certify_lcm.us_per_point"] = 1e3 * m["deriv.certify_lcm.total_ms"] / points if points else 0.0

    run_idx, _ = timing("theorems.run_claim")
    verify_idx, _ = timing("theorems.verify", with_total=False)
    for cid in claim_ids:
        m[f"theorems.{cid}.ms"] = total_ms(
            i for i in run_idx + verify_idx
            if spans[i].raised is None and spans[i].result.claim_id == cid
        )

    timing("cli.main")
    return m
