"""Command-line front end.

Commands: eval (one function at one point), scan (one function over an x
grid), zero (locate the digamma zero), verify (run chosen claims), all
(full default sweep over both regimes).  Reports render as text, csv, or
json; csv columns are exactly
claim_id,q,param_summary,n_order,x,value,margin,passed.  Output is
deterministic: identical configuration yields byte-identical bytes.

Exit codes: 0 all requested checks passed, 1 at least one violation found,
2 usage or evaluation error.  The environment variable QFUN_CONFIG may
name a key=value file supplying defaults for any long flag; explicit flags
win.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import asdict, fields
from typing import Callable

from .core import (
    DomainError,
    NonConvergent,
    QParam,
    Truncation,
    UnsupportedOrder,
    digamma_inversion_residual,
    gamma_inversion_residual,
    ln_q_gamma,
    q_bracket,
    q_digamma,
    q_gamma,
    q_polygamma,
)
from .deriv import EvalContext, VerifyReport
from .roots import DEFAULT_ZERO_TOL, BracketError, digamma_zero
from .theorems import (
    CLAIM_IDS,
    CLAIMS,
    DEFAULT_TOL,
    ClaimArgs,
    rerun_kwargs,
    run_claim,
)

__all__ = ["main", "run"]

CSV_HEADER = "claim_id,q,param_summary,n_order,x,value,margin,passed"

DEFAULT_ALL_QS = (0.2, 0.5, 0.8, 2.0, 5.0)


def _num(v) -> str:
    """Cell rendering: repr for floats (round-trip exact), str otherwise,
    empty for missing."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _param_summary(params: dict, extra: dict | None = None) -> str:
    items = dict(params)
    items.pop("q", None)
    if extra:
        items.update(extra)
    return ";".join(f"{k}={_num(v)}" for k, v in sorted(items.items()))


def _point_row(rep: VerifyReport, point: dict, passed: bool) -> dict:
    return {
        "claim_id": rep.claim_id,
        "q": rep.params.get("q"),
        "param_summary": _param_summary(rep.params, point.get("extra")),
        "n_order": point.get("n_order"),
        "x": point.get("x"),
        "value": point.get("value"),
        "margin": point.get("margin"),
        "passed": passed,
    }


def _report_rows(rep: VerifyReport) -> list[dict]:
    """Summary row at the worst point, empty when no point was examined,
    plus the counterexample row when it is a different point; ordered by x
    then order for stable output."""
    rows = [_point_row(rep, rep.worst_point or {}, rep.passed)]
    if rep.counterexample is not None and rep.counterexample != rep.worst_point:
        rows.append(_point_row(rep, rep.counterexample, False))
    rows.sort(
        key=lambda r: (
            r["x"] is None,
            r["x"] if r["x"] is not None else 0.0,
            r["n_order"] is None,
            r["n_order"] if r["n_order"] is not None else 0,
        )
    )
    return rows


def _rerun_flags(rep: VerifyReport, args: argparse.Namespace) -> str:
    """Flag string that reproduces the counterexample row as a single-point
    run of the same claim, with the invocation's run-wide flags."""
    kwargs = {**rerun_kwargs(rep, rep.counterexample), "tol": args.tol, "rel_tol": args.rel_tol}
    parts = [f"--claim {rep.claim_id}", f"--q {_num(rep.params.get('q'))}"]
    parts += [f"--{k.replace('_', '-')} {_num(v)}" for k, v in kwargs.items() if v is not None]
    if args.allow_near_one:
        parts.append("--allow-near-one")
    return "qfun verify " + " ".join(parts)


def _render_csv(rows: list[dict]) -> str:
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(
            ",".join(
                [
                    r["claim_id"],
                    _num(r["q"]),
                    r["param_summary"],
                    _num(r["n_order"]),
                    _num(r["x"]),
                    _num(r["value"]),
                    _num(r["margin"]),
                    "true" if r["passed"] else "false",
                ]
            )
            + "\n"
        )
    return out.getvalue()


def _render_json_reports(reports: list[VerifyReport]) -> str:
    payload = {
        "reports": [asdict(rep) for rep in reports],
        "all_passed": all(rep.passed for rep in reports),
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_json_rows(rows: list[dict]) -> str:
    return json.dumps({"rows": rows}, indent=2) + "\n"


def _render_text_reports(reports: list[VerifyReport], args: argparse.Namespace) -> str:
    out = io.StringIO()
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        out.write(
            f"{status} {rep.claim_id} q={_num(rep.params.get('q'))} "
            f"worst_margin={_num(rep.worst_margin)}\n"
        )
        if rep.worst_point is not None:
            wp = rep.worst_point
            out.write(
                f"  worst point: n={_num(wp.get('n_order'))} x={_num(wp.get('x'))} "
                f"value={_num(wp.get('value'))}\n"
            )
        if rep.counterexample is not None:
            ce = rep.counterexample
            out.write(
                f"  counterexample: n={_num(ce.get('n_order'))} x={_num(ce.get('x'))} "
                f"value={_num(ce.get('value'))} margin={_num(ce.get('margin'))}\n"
            )
            out.write(f"  re-run: {_rerun_flags(rep, args)}\n")
        for note in rep.notes:
            out.write(f"  note: {note}\n")
    passed = sum(1 for r in reports if r.passed)
    out.write(f"summary: {passed}/{len(reports)} claim runs passed\n")
    return out.getvalue()


def _margin_label(claim_id: str) -> str:
    """Text label of an eval, scan or zero row's margin column."""
    if claim_id == "zero":
        return "residual"
    return "budget" if claim_id.endswith("-inversion") else "err_bound"


def _render_text_rows(rows: list[dict]) -> str:
    out = io.StringIO()
    for r in rows:
        bits = [r["claim_id"], f"q={_num(r['q'])}"]
        if r["param_summary"]:
            bits.append(r["param_summary"])
        if r["n_order"] is not None:
            bits.append(f"n={_num(r['n_order'])}")
        if r["x"] is not None:
            bits.append(f"x={_num(r['x'])}")
        bits.append(f"value={_num(r['value'])}")
        if r["margin"] is not None:
            bits.append(f"{_margin_label(r['claim_id'])}={_num(r['margin'])}")
        out.write(" ".join(bits) + "\n")
    return out.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _qparams(args: argparse.Namespace, default: tuple[float, ...] = ()) -> list[QParam]:
    qs = args.q or default
    if not qs:
        raise DomainError("at least one --q is required")
    return [QParam(q, allow_near_one=bool(args.allow_near_one)) for q in sorted(set(qs))]


def _trunc(args: argparse.Namespace) -> Truncation | None:
    if args.rel_tol is None:
        return None
    return Truncation(rel_tol=args.rel_tol)


def _bounded(r, order: int | None = None) -> tuple:
    return order, r.value, r.err_bound


def _residual(rc) -> tuple:
    return None, rc.residual, rc.budget


# --fn name -> its evaluation at (p, x, order, trunc), as (n_order, value,
# margin); the margin column carries the error bound, or a residual's budget
_EVALUATIONS: dict[str, Callable[..., tuple]] = {
    "gamma": lambda p, x, n, t: _bounded(q_gamma(p, x, t)),
    "ln-gamma": lambda p, x, n, t: _bounded(ln_q_gamma(p, x, t)),
    "digamma": lambda p, x, n, t: _bounded(q_digamma(p, x, t)),
    "polygamma": lambda p, x, n, t: _bounded(q_polygamma(p, x, n, t), n),
    "bracket": lambda p, x, n, t: (None, q_bracket(p, x), 0.0),
    "gamma-inversion": lambda p, x, n, t: _residual(gamma_inversion_residual(p, x, t)),
    "digamma-inversion": lambda p, x, n, t: _residual(digamma_inversion_residual(p, x, t)),
}


def _eval_one(args: argparse.Namespace, p: QParam, x: float, kind: str) -> dict:
    t = _trunc(args)
    evaluate = _EVALUATIONS.get(args.fn)
    if evaluate is None:
        raise DomainError(f"--fn is required for {kind}; choose from {', '.join(_EVALUATIONS)}")
    order, value, err = evaluate(p, x, 1 if args.orders is None else args.orders, t)
    return {
        "claim_id": f"{kind}-{args.fn}",
        "q": p.q,
        "param_summary": f"fn={args.fn}",
        "n_order": order,
        "x": x,
        "value": value,
        "margin": err,
        "passed": True,
    }


def _run_eval(args: argparse.Namespace) -> tuple[list[dict], bool]:
    if args.x is None:
        raise DomainError("eval needs --x; use scan for a range")
    rows = [_eval_one(args, p, args.x, "eval") for p in _qparams(args)]
    return rows, True


def _run_scan(args: argparse.Namespace) -> tuple[list[dict], bool]:
    # the claim sweeps' grid defaults
    given = {k: getattr(args, k) for k in ("x_min", "x_max", "points", "spacing")}
    grid = ClaimArgs(**{k: v for k, v in given.items() if v is not None}).grid()
    rows = []
    for p in _qparams(args):
        for x in grid:
            rows.append(_eval_one(args, p, float(x), "scan"))
    return rows, True


def _run_zero(args: argparse.Namespace) -> tuple[list[dict], bool]:
    tol = DEFAULT_ZERO_TOL if args.tol is None else args.tol
    rows = []
    for p in _qparams(args):
        z = digamma_zero(p, tol=tol, trunc=_trunc(args))
        rows.append(
            {
                "claim_id": "zero",
                "q": p.q,
                "param_summary": f"iterations={z.iterations};tol={_num(tol)}",
                "n_order": None,
                "x": z.x0,
                "value": z.x0,
                "margin": z.residual,
                "passed": True,
            }
        )
    return rows, True


def _run_verify(args: argparse.Namespace) -> list[VerifyReport]:
    if not args.claim:
        raise DomainError("verify needs at least one --claim")
    unknown = [c for c in args.claim if c not in CLAIM_IDS]
    if unknown:
        raise DomainError(f"unknown claim ids: {', '.join(unknown)}")
    # the verify flags name each ClaimArgs field alike
    kwargs = {f.name: getattr(args, f.name) for f in fields(ClaimArgs)}
    params = _qparams(args)
    runs = [(claim, p) for claim in sorted(set(args.claim)) for p in params]
    return _run_claims(runs, _trunc(args), kwargs)


def _run_all(args: argparse.Namespace) -> list[VerifyReport]:
    params = _qparams(args, DEFAULT_ALL_QS)
    runs = [(claim, p) for claim in sorted(CLAIM_IDS) for p in params if CLAIMS[claim].supports(p)]
    return _run_claims(runs, _trunc(args), {"tol": args.tol})


def _run_claims(
    runs: list[tuple[str, QParam]], trunc: Truncation | None, kwargs: dict
) -> list[VerifyReport]:
    """run_claim(claim, p, **kwargs) for each (claim, p) of runs, reported
    in that order but evaluated one q at a time: the runs at one q share
    one EvalContext, so they solve for the digamma zero once, and it is
    dropped before the next q starts."""
    reports = {}
    for p in dict.fromkeys(p for _, p in runs):
        ctx = EvalContext(p, trunc)
        for claim, q_of_run in runs:
            if q_of_run == p:
                reports[claim, p] = run_claim(claim, ctx, **kwargs)
        del ctx
    return [reports[run] for run in runs]


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation, config-file values merged in; returns
    the process exit code."""
    fmt = args.format or "text"
    if args.command in ("eval", "scan", "zero"):
        if args.command == "eval":
            rows, ok = _run_eval(args)
        elif args.command == "scan":
            rows, ok = _run_scan(args)
        else:
            rows, ok = _run_zero(args)
        if fmt == "csv":
            _emit(_render_csv(rows), args.out)
        elif fmt == "json":
            _emit(_render_json_rows(rows), args.out)
        else:
            _emit(_render_text_rows(rows), args.out)
        return 0 if ok else 1

    reports = _run_verify(args) if args.command == "verify" else _run_all(args)
    rows = [row for rep in reports for row in _report_rows(rep)]
    if fmt == "csv":
        _emit(_render_csv(rows), args.out)
    elif fmt == "json":
        _emit(_render_json_reports(reports), args.out)
    else:
        _emit(_render_text_reports(reports, args), args.out)
    if fmt != "text":
        for rep in reports:
            if not rep.passed and rep.counterexample is not None:
                sys.stderr.write(f"re-run: {_rerun_flags(rep, args)}\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _add_common(add: Callable[..., None]) -> None:
    add("--q", action="append", type=float, help="deformation parameter; repeatable")
    add("--rel-tol", type=float, help="series truncation target (relative)")
    add("--format", choices=("text", "csv", "json"), help="output format (default text)")
    add("--out", help="write the report to this path")
    add("--allow-near-one", action="store_true", help="permit q inside the near-one guard band")


def _add_grid(add: Callable[..., None]) -> None:
    add("--x-min", type=float)
    add("--x-max", type=float)
    add("--points", type=int)
    add("--spacing", choices=("linear", "geometric"))


# subcommand -> long flag -> (the Action add_argument returned, whether it appends)
_FlagTable = dict[str, dict[str, tuple[argparse.Action, bool]]]


def _build_parser() -> tuple[argparse.ArgumentParser, _FlagTable]:
    """The parser, and the flags of each subcommand."""
    ap = argparse.ArgumentParser(
        prog="qfun",
        description="q-gamma family evaluation and claim verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    flags: _FlagTable = {}

    def command(name: str, help: str) -> Callable[..., None]:
        sp = sub.add_parser(name, help=help)
        own = flags[name] = {}

        def add(flag: str, **kw) -> None:
            # None marks a flag the command line left unset
            own[flag] = (sp.add_argument(flag, default=None, **kw), kw.get("action") == "append")

        return add

    add = command("eval", "evaluate one function at one point")
    add("--fn", choices=tuple(_EVALUATIONS))
    add("--x", type=float)
    add("--orders", type=int, help="polygamma derivative order (default 1)")
    _add_common(add)

    add = command("scan", "evaluate one function over an x grid")
    add("--fn", choices=tuple(_EVALUATIONS))
    _add_grid(add)
    add("--orders", type=int)
    _add_common(add)

    add = command("zero", "locate the positive zero of the q-digamma")
    add("--tol", type=float, help=f"residual tolerance (default {DEFAULT_ZERO_TOL:g})")
    _add_common(add)

    add = command("verify", "verify chosen claims")
    add("--claim", action="append", help=f"claim id; repeatable; one of {', '.join(CLAIM_IDS)}")
    add("--x", type=float, help="single-point mode (claim dependent)")
    _add_grid(add)
    add("--a", type=float, help="ratio scale a, or the exponent a of the mean inequalities")
    add("--b", type=float,
        help="ratio scale b; doubles as the second coordinate y for paired-point re-runs")
    add("--alpha", type=float)
    add("--beta", type=float, help="ratio exponent beta, or the g-beta correction weight")
    add("--n-max", type=int, help="upper index for integer-indexed claims")
    add("--orders", type=int, help="derivative order cap for monotonicity sweeps")
    add("--tol", type=float, help=f"margin slack (default {DEFAULT_TOL:g})")
    _add_common(add)

    add = command("all", "run every claim over the default q sweep")
    add("--tol", type=float, help=f"margin slack (default {DEFAULT_TOL:g})")
    _add_common(add)

    return ap, flags


def _config_value(action: argparse.Action, appends: bool, text: str):
    """text converted and checked as the flag's own value would be; an
    appending flag takes a comma-separated list."""
    if action.nargs == 0:  # store_true
        if text.lower() not in ("true", "false", "1", "0"):
            raise ValueError(f"must be true/false, got {text!r}")
        return text.lower() in ("true", "1")
    items = [v.strip() for v in text.split(",") if v.strip()] if appends else [text]
    values = [action.type(v) if action.type else v for v in items]
    for v in values:
        if action.choices is not None and v not in action.choices:
            raise ValueError(f"invalid choice {v!r} (choose from {', '.join(action.choices)})")
    return values if appends else values[0]


def _parse_config_file(path: str, flags: _FlagTable) -> dict:
    """dest -> value for each key=value line; a key is a long flag of any
    subcommand, without its dashes."""
    union = {flag: f for own in flags.values() for flag, f in own.items()}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            flag = union.get("--" + key.replace("_", "-"))
            if flag is None:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            action, appends = flag
            try:
                values[action.dest] = _config_value(action, appends, val.strip())
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def main(argv: list[str] | None = None) -> int:
    parser, flags = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg_path = os.environ.get("QFUN_CONFIG")
        if cfg_path:
            for dest, value in _parse_config_file(cfg_path, flags).items():
                # only a dest this subcommand has, and the command line left unset
                if getattr(args, dest, False) is None:
                    setattr(args, dest, value)
        return run(args)
    except (DomainError, UnsupportedOrder, NonConvergent, BracketError,
            OverflowError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
