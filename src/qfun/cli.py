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
from dataclasses import asdict, dataclass, fields, replace

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
from .deriv import make_grid
from .roots import BracketError, digamma_zero
from .theorems import CLAIM_IDS, CLAIMS, ClaimArgs, VerifyReport, rerun_kwargs, run_claim

__all__ = ["RunConfig", "main", "run"]

CSV_HEADER = "claim_id,q,param_summary,n_order,x,value,margin,passed"

DEFAULT_ALL_QS = (0.2, 0.5, 0.8, 2.0, 5.0)

_EVAL_FNS = (
    "gamma",
    "ln-gamma",
    "digamma",
    "polygamma",
    "bracket",
    "gamma-inversion",
    "digamma-inversion",
)

_CONFIG_KEYS = {
    "fn": str,
    "q": "float_list",
    "x": float,
    "x_min": float,
    "x_max": float,
    "points": int,
    "spacing": str,
    "claim": "str_list",
    "a": float,
    "b": float,
    "alpha": float,
    "beta": float,
    "n_max": int,
    "orders": int,
    "tol": float,
    "rel_tol": float,
    "format": str,
    "out": str,
    "allow_near_one": "flag",
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: command plus every flag, post config-file merge."""

    command: str
    fn: str | None = None
    qs: tuple[float, ...] = ()
    x: float | None = None
    x_min: float | None = None
    x_max: float | None = None
    points: int | None = None
    spacing: str | None = None
    claims: tuple[str, ...] = ()
    a: float | None = None
    b: float | None = None
    alpha: float | None = None
    beta: float | None = None
    n_max: int | None = None
    orders: int | None = None
    tol: float | None = None
    rel_tol: float | None = None
    fmt: str = "text"
    out: str | None = None
    allow_near_one: bool = False


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
    """Summary row at the worst point, plus the counterexample row when it
    is a different point; ordered by x then order for stable output."""
    if rep.worst_point is None:
        return [
            {
                "claim_id": rep.claim_id,
                "q": rep.params.get("q"),
                "param_summary": _param_summary(rep.params),
                "n_order": None,
                "x": None,
                "value": None,
                "margin": None,
                "passed": rep.passed,
            }
        ]
    rows = [_point_row(rep, rep.worst_point, rep.passed)]
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


def _rerun_flags(rep: VerifyReport, cfg: RunConfig) -> str:
    """Flag string that reproduces the counterexample row as a single-point
    run of the same claim, with the invocation's run-wide flags."""
    kwargs = {**rerun_kwargs(rep, rep.counterexample), "tol": cfg.tol, "rel_tol": cfg.rel_tol}
    parts = [f"--claim {rep.claim_id}", f"--q {_num(rep.params.get('q'))}"]
    parts += [f"--{k.replace('_', '-')} {_num(v)}" for k, v in kwargs.items() if v is not None]
    if cfg.allow_near_one:
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


def _render_text_reports(reports: list[VerifyReport], cfg: RunConfig) -> str:
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
            out.write(f"  re-run: {_rerun_flags(rep, cfg)}\n")
        for note in rep.notes:
            out.write(f"  note: {note}\n")
    passed = sum(1 for r in reports if r.passed)
    out.write(f"summary: {passed}/{len(reports)} claim runs passed\n")
    return out.getvalue()


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
            bits.append(f"err_bound={_num(r['margin'])}")
        out.write(" ".join(bits) + "\n")
    return out.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _qparams(cfg: RunConfig) -> list[QParam]:
    if not cfg.qs:
        raise DomainError("at least one --q is required")
    return [QParam(q, allow_near_one=cfg.allow_near_one) for q in sorted(set(cfg.qs))]


def _trunc(cfg: RunConfig) -> Truncation | None:
    if cfg.rel_tol is None:
        return None
    return Truncation(rel_tol=cfg.rel_tol)


def _eval_one(cfg: RunConfig, p: QParam, x: float, kind: str) -> dict:
    t = _trunc(cfg)
    fn = cfg.fn
    order = None
    if fn == "gamma":
        r = q_gamma(p, x, t)
        value, err = r.value, r.err_bound
    elif fn == "ln-gamma":
        r = ln_q_gamma(p, x, t)
        value, err = r.value, r.err_bound
    elif fn == "digamma":
        r = q_digamma(p, x, t)
        value, err = r.value, r.err_bound
    elif fn == "polygamma":
        order = 1 if cfg.orders is None else cfg.orders
        r = q_polygamma(p, x, order, t)
        value, err = r.value, r.err_bound
    elif fn == "bracket":
        value, err = q_bracket(p, x), 0.0
    elif fn == "gamma-inversion":
        rc = gamma_inversion_residual(p, x, t)
        value, err = rc.residual, rc.budget
    elif fn == "digamma-inversion":
        rc = digamma_inversion_residual(p, x, t)
        value, err = rc.residual, rc.budget
    else:
        raise DomainError(f"--fn is required for {kind}; choose from {', '.join(_EVAL_FNS)}")
    summary = f"fn={fn}"
    return {
        "claim_id": f"{kind}-{fn}",
        "q": p.q,
        "param_summary": summary,
        "n_order": order,
        "x": x,
        "value": value,
        "margin": err,
        "passed": True,
    }


def _run_eval(cfg: RunConfig) -> tuple[list[dict], bool]:
    if cfg.x is None:
        raise DomainError("eval needs --x; use scan for a range")
    rows = [_eval_one(cfg, p, cfg.x, "eval") for p in _qparams(cfg)]
    return rows, True


def _run_scan(cfg: RunConfig) -> tuple[list[dict], bool]:
    lo = 0.05 if cfg.x_min is None else cfg.x_min
    hi = 20.0 if cfg.x_max is None else cfg.x_max
    pts = 64 if cfg.points is None else cfg.points
    sp = "geometric" if cfg.spacing is None else cfg.spacing
    grid = make_grid(lo, hi, pts, sp)
    rows = []
    for p in _qparams(cfg):
        for x in grid:
            rows.append(_eval_one(cfg, p, float(x), "scan"))
    return rows, True


def _run_zero(cfg: RunConfig) -> tuple[list[dict], bool]:
    tol = 1e-12 if cfg.tol is None else cfg.tol
    rows = []
    for p in _qparams(cfg):
        z = digamma_zero(p, tol=tol, trunc=_trunc(cfg))
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


def _run_verify(cfg: RunConfig) -> list[VerifyReport]:
    if not cfg.claims:
        raise DomainError("verify needs at least one --claim")
    unknown = [c for c in cfg.claims if c not in CLAIM_IDS]
    if unknown:
        raise DomainError(f"unknown claim ids: {', '.join(unknown)}")
    # RunConfig names each run_claim argument alike, save trunc
    kwargs = {f.name: getattr(cfg, f.name) for f in fields(ClaimArgs) if f.name != "trunc"}
    kwargs["trunc"] = _trunc(cfg)
    reports = []
    for claim in sorted(set(cfg.claims)):
        for p in _qparams(cfg):
            reports.append(run_claim(claim, p, **kwargs))
    return reports


def _run_all(cfg: RunConfig) -> list[VerifyReport]:
    params = _qparams(replace(cfg, qs=cfg.qs or DEFAULT_ALL_QS))
    reports = []
    for claim in sorted(CLAIM_IDS):
        for p in params:
            if CLAIMS[claim].supports(p):
                reports.append(run_claim(claim, p, tol=cfg.tol, trunc=_trunc(cfg)))
    return reports


def run(cfg: RunConfig) -> int:
    """Execute one resolved configuration; returns the process exit code."""
    if cfg.command in ("eval", "scan", "zero"):
        if cfg.command == "eval":
            rows, ok = _run_eval(cfg)
        elif cfg.command == "scan":
            rows, ok = _run_scan(cfg)
        else:
            rows, ok = _run_zero(cfg)
        if cfg.fmt == "csv":
            _emit(_render_csv(rows), cfg.out)
        elif cfg.fmt == "json":
            _emit(_render_json_rows(rows), cfg.out)
        else:
            _emit(_render_text_rows(rows), cfg.out)
        return 0 if ok else 1

    reports = _run_verify(cfg) if cfg.command == "verify" else _run_all(cfg)
    rows = [row for rep in reports for row in _report_rows(rep)]
    if cfg.fmt == "csv":
        _emit(_render_csv(rows), cfg.out)
    elif cfg.fmt == "json":
        _emit(_render_json_reports(reports), cfg.out)
    else:
        _emit(_render_text_reports(reports, cfg), cfg.out)
    if cfg.fmt != "text":
        for rep in reports:
            if not rep.passed and rep.counterexample is not None:
                sys.stderr.write(f"re-run: {_rerun_flags(rep, cfg)}\n")
    return 0 if all(rep.passed for rep in reports) else 1


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--q", action="append", type=float, default=None,
                    help="deformation parameter; repeatable")
    sp.add_argument("--rel-tol", type=float, default=None,
                    help="series truncation target (relative)")
    sp.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                    default=None, help="output format (default text)")
    sp.add_argument("--out", default=None, help="write the report to this path")
    sp.add_argument("--allow-near-one", action="store_true", default=None,
                    help="permit q inside the near-one guard band")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfun",
        description="q-gamma family evaluation and claim verification",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--fn", choices=_EVAL_FNS, default=None)
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--orders", type=int, default=None,
                        help="polygamma derivative order (default 1)")
    _add_common(p_eval)

    p_scan = sub.add_parser("scan", help="evaluate one function over an x grid")
    p_scan.add_argument("--fn", choices=_EVAL_FNS, default=None)
    p_scan.add_argument("--x-min", type=float, default=None)
    p_scan.add_argument("--x-max", type=float, default=None)
    p_scan.add_argument("--points", type=int, default=None)
    p_scan.add_argument("--spacing", choices=("linear", "geometric"), default=None)
    p_scan.add_argument("--orders", type=int, default=None)
    _add_common(p_scan)

    p_zero = sub.add_parser("zero", help="locate the positive zero of the q-digamma")
    p_zero.add_argument("--tol", type=float, default=None,
                        help="residual tolerance (default 1e-12)")
    _add_common(p_zero)

    p_verify = sub.add_parser("verify", help="verify chosen claims")
    p_verify.add_argument("--claim", action="append", default=None,
                          help=f"claim id; repeatable; one of {', '.join(CLAIM_IDS)}")
    p_verify.add_argument("--x", type=float, default=None,
                          help="single-point mode (claim dependent)")
    p_verify.add_argument("--x-min", type=float, default=None)
    p_verify.add_argument("--x-max", type=float, default=None)
    p_verify.add_argument("--points", type=int, default=None)
    p_verify.add_argument("--spacing", choices=("linear", "geometric"), default=None)
    p_verify.add_argument("--a", type=float, default=None,
                          help="ratio scale a, or the exponent a of the mean inequalities")
    p_verify.add_argument("--b", type=float, default=None,
                          help="ratio scale b; doubles as the second coordinate y "
                               "for paired-point re-runs")
    p_verify.add_argument("--alpha", type=float, default=None)
    p_verify.add_argument("--beta", type=float, default=None,
                          help="ratio exponent beta, or the g-beta correction weight")
    p_verify.add_argument("--n-max", type=int, default=None,
                          help="upper index for integer-indexed claims")
    p_verify.add_argument("--orders", type=int, default=None,
                          help="derivative order cap for monotonicity sweeps")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="margin slack (default 1e-9)")
    _add_common(p_verify)

    p_all = sub.add_parser("all", help="run every claim over the default q sweep")
    p_all.add_argument("--tol", type=float, default=None)
    _add_common(p_all)

    return ap


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in _CONFIG_KEYS:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = _CONFIG_KEYS[key]
            if key == "format":
                key = "fmt"
            if kind == "float_list":
                values[key] = tuple(float(v) for v in val.split(",") if v.strip())
            elif kind == "str_list":
                values[key] = tuple(v.strip() for v in val.split(",") if v.strip())
            elif kind == "flag":
                if val.lower() not in ("true", "false", "1", "0"):
                    raise DomainError(f"{path}:{lineno}: {key} must be true/false")
                values[key] = val.lower() in ("true", "1")
            else:
                values[key] = kind(val)
    return values


def _config_from_args(args: argparse.Namespace, file_values: dict) -> RunConfig:
    def pick(name, default=None):
        v = getattr(args, name, None)
        if v is None:
            v = file_values.get(name, default)
        return v

    qs = pick("q") or ()
    claims = pick("claim") or ()
    return RunConfig(
        command=args.command,
        fn=pick("fn"),
        qs=tuple(float(q) for q in qs),
        x=pick("x"),
        x_min=pick("x_min"),
        x_max=pick("x_max"),
        points=pick("points"),
        spacing=pick("spacing"),
        claims=tuple(claims),
        a=pick("a"),
        b=pick("b"),
        alpha=pick("alpha"),
        beta=pick("beta"),
        n_max=pick("n_max"),
        orders=pick("orders"),
        tol=pick("tol"),
        rel_tol=pick("rel_tol"),
        fmt=pick("fmt", "text") or "text",
        out=pick("out"),
        allow_near_one=bool(pick("allow_near_one", False)),
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        file_values = {}
        cfg_path = os.environ.get("QFUN_CONFIG")
        if cfg_path:
            file_values = _parse_config_file(cfg_path)
        cfg = _config_from_args(args, file_values)
        return run(cfg)
    except (DomainError, UnsupportedOrder, NonConvergent, BracketError,
            OverflowError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
