"""Command-line contract: exit codes, formats, config file, re-run lines."""

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import qfun.cli
import qfun.deriv
from qfun import EvalContext, QParam, run_claim
from qfun.cli import CSV_HEADER, DEFAULT_ALL_QS, _build_parser, _render_csv, main
from qfun.theorems import CLAIM_IDS, CLAIMS

# subcommand -> long flag -> (its argparse Action, whether it appends)
FLAGS = _build_parser()[1]

# the invocations whose exit code and stdout and stderr digests
# cli_reference.json pins, captured at the commit it names; the q = 2 run of
# the unbalanced ratio claim examines no point
PINNED_RUNS = [
    ["all", "--format", "text"],
    [
        "verify", "--claim", "t34-inv-psi", "--claim", "c-ineq-1",
        "--q", "2", "--q", "0.5", "--format", "json",
    ],
    ["all", "--format", "csv"],
    ["all", "--format", "json"],
    *(
        [
            "verify", "--claim", "t31-ratio-lcm", "--q", "2", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1", "--format", fmt,
        ]
        for fmt in ("text", "csv", "json")
    ),
]
CLI_REFERENCE_PATH = Path(__file__).with_name("cli_reference.json")
CLI_REFERENCE = json.loads(CLI_REFERENCE_PATH.read_text("utf-8"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_eval_ok(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "digamma", "--q", "0.5", "--x", "1")
        assert code == 0
        assert "-0.42052903" in out

    def test_passing_claim(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "c-666", "--q", "0.5", "--n-max", "20"
        )
        assert code == 0
        assert "PASS c-666" in out

    def test_violation_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1",
        )
        assert code == 1
        assert "FAIL" in out
        assert "counterexample" in out
        assert "re-run: qfun verify" in out

    def test_unknown_claim_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "bogus", "--q", "0.5")
        assert code == 2
        assert "unknown claim" in err

    def test_missing_x_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "digamma", "--q", "0.5")
        assert code == 2
        assert "needs --x" in err

    def test_missing_q_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "c-666")
        assert code == 2

    def test_bad_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--no-such-flag", "1")
        assert code == 2

    def test_regime_violation_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--claim", "c-666", "--q", "2")
        assert code == 2
        assert "0 < q < 1" in err

    @pytest.mark.parametrize("claim", ["phi-coeff", "g-beta-lcm"])
    def test_regime_violation_with_explicit_beta_exits_two(self, capsys, claim):
        # phi-coeff once checked its regime only while taking the default beta
        code, out, err = run_cli(capsys, "verify", "--claim", claim, "--q", "2", "--beta", "1")
        assert code == 2
        assert out == ""
        assert "0 < q < 1" in err

    @pytest.mark.parametrize("tol", ["nan", "-10", "inf"])
    def test_bad_tol_exits_two(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "tol must be finite and >= 0" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_zero_bad_tol_exits_two(self, capsys, tol):
        code, out, err = run_cli(capsys, "zero", "--q", "0.5", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite and > 0" in err

    @pytest.mark.parametrize("point", [[], ["--x", "2"]])
    @pytest.mark.parametrize("a", ["0", "-1", "1"])
    def test_mean_exponent_not_above_one_exits_two(self, capsys, a, point):
        # a = 0 used to divide by zero, a = -1 to pass with no points examined
        code, out, err = run_cli(
            capsys, "verify", "--claim", "c-ineq-010", "--q", "0.5", "--a", a, *point
        )
        assert code == 2
        assert out == ""
        assert "a must exceed 1" in err

    def test_sweep_with_every_point_excluded_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "c-ineq-010", "--q", "0.5",
            "--x-min", "0.01", "--x-max", "0.02", "--points", "3",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no grid point in [0.01, 0.02]")

    @pytest.mark.parametrize("points", ["0", "1", "-3"])
    @pytest.mark.parametrize("claim", ["c-555", "t31-ratio-lcm"])
    def test_too_few_points_exits_two(self, capsys, claim, points):
        # c-555 builds its own grid, and said numpy's words about it
        code, out, err = run_cli(
            capsys, "verify", "--claim", claim, "--q", "0.5", "--points", points
        )
        assert code == 2
        assert out == ""
        assert err == f"error: points must be an int >= 2, got {points}\n"

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("claim", ["phi-coeff", "g-beta-lcm"])
    def test_non_finite_beta_exits_two(self, capsys, claim, beta):
        code, out, err = run_cli(capsys, "verify", "--claim", claim, "--q", "0.5", f"--beta={beta}")
        assert code == 2
        assert out == ""
        assert "beta must be a finite real" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--fn", "ln-gamma", "--q", "2", "--x", "1e160"),
            ("verify", "--claim", "c-555", "--q", "2", "--x", "1e160"),
        ],
        ids=["eval", "c-555"],
    )
    def test_ln_gamma_overflow_exits_two(self, capsys, argv):
        # q^{x(x-1)/2} leaves the double range past x = 1.9e154 at q = 2
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: ln_q_gamma overflows the double range at x = 1e+160\n"

    @pytest.mark.parametrize("cmd", FLAGS)
    def test_help_lists_every_flag(self, capsys, cmd):
        # argparse formats help strings only when --help runs
        code, out, _ = run_cli(capsys, cmd, "--help")
        assert code == 0
        for flag in FLAGS[cmd]:
            assert re.search(re.escape(flag) + r"(?![\w-])", out), flag


class TestCsvFormat:
    def test_header_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "psi-duplication", "--q", "0.5",
            "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "claim_id,q,param_summary,n_order,x,value,margin,passed"

    def test_empty_report_set_is_header_only(self):
        assert _render_csv([]) == CSV_HEADER + "\n"

    def test_row_shape(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--fn", "gamma", "--q", "0.5", "--x", "3",
            "--format", "csv",
        )
        lines = out.splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == 8
        assert cells[0] == "eval-gamma"
        assert float(cells[5]) == pytest.approx(1.5, rel=1e-12)
        assert cells[7] == "true"

    def test_float_cells_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "zero", "--q", "0.5", "--format", "csv"
        )
        x_cell = out.splitlines()[1].split(",")[4]
        assert float(x_cell) == pytest.approx(1.4463627156098169, abs=1e-10)


class TestTextRows:
    @pytest.mark.parametrize(
        "argv, label",
        [
            (["zero", "--q", "0.5", "--q", "2"], "residual"),
            (["eval", "--fn", "digamma-inversion", "--q", "2", "--x", "1.5"], "budget"),
            (["scan", "--fn", "gamma-inversion", "--q", "2", "--points", "3"], "budget"),
            (["eval", "--fn", "digamma", "--q", "0.5", "--x", "1"], "err_bound"),
        ],
    )
    def test_margin_is_labelled_by_what_it_holds(self, capsys, argv, label):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert re.search(r" (\w+)=\S+$", line).group(1) == label

    def test_zero_residual_is_the_csv_margin(self, capsys):
        _, text, _ = run_cli(capsys, "zero", "--q", "0.5")
        _, csv, _ = run_cli(capsys, "zero", "--q", "0.5", "--format", "csv")
        residual = text.split("residual=")[1].strip()
        assert residual == csv.splitlines()[1].split(",")[6]


class TestJsonFormat:
    def test_verify_payload_mirrors_report(self, capsys):
        _, out, _ = run_cli(
            capsys, "verify", "--claim", "g-beta-lcm", "--q", "0.5",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["all_passed"] is True
        rep = payload["reports"][0]
        assert rep["claim_id"] == "g-beta-lcm"
        assert set(rep) >= {
            "claim_id", "params", "grid_summary", "passed",
            "worst_margin", "worst_point", "counterexample", "notes", "tol",
        }

    def test_eval_rows_payload(self, capsys):
        _, out, _ = run_cli(
            capsys, "eval", "--fn", "digamma", "--q", "0.5", "--x", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["rows"][0]["value"] == pytest.approx(0.2726181462038995)


class TestScan:
    def test_row_count_and_monotone_x(self, capsys):
        _, out, _ = run_cli(
            capsys, "scan", "--fn", "bracket", "--q", "0.5",
            "--x-min", "1", "--x-max", "4", "--points", "6", "--format", "csv",
        )
        lines = out.splitlines()
        assert len(lines) == 1 + 6
        xs = [float(l.split(",")[4]) for l in lines[1:]]
        assert xs == sorted(xs)


class TestOutFile:
    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "phi-coeff", "--q", "0.5",
            "--format", "csv", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith(CSV_HEADER)

    def test_unwritable_path_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "zero", "--q", "0.5", "--out", "/no/such/dir/x.csv"
        )
        assert code == 2


class TestConfigFile:
    def test_supplies_defaults(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text("q=0.5\nformat=csv\n# comment line\n\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        code, out, _ = run_cli(capsys, "verify", "--claim", "psi-duplication")
        assert code == 0
        assert out.startswith(CSV_HEADER)

    def test_flags_override_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text("q=0.5\nformat=csv\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "psi-duplication", "--format", "json"
        )
        assert code == 0
        json.loads(out)

    def test_unknown_key_exits_two(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text("qq=0.5\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, "zero", "--q", "0.5")
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_line_exits_two(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text("just words\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        code, _, err = run_cli(capsys, "zero", "--q", "0.5")
        assert code == 2
        assert "key=value" in err

    def test_missing_file_exits_two(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("QFUN_CONFIG", str(tmp_path / "absent.cfg"))
        code, _, _ = run_cli(capsys, "zero", "--q", "0.5")
        assert code == 2

    # a cheap invocation of each subcommand in which every one of its flags,
    # set to its SAMPLE value, changes the outcome
    BASE = {
        "eval": {"--fn": "polygamma", "--q": ["0.5"], "--x": "1"},
        "scan": {"--fn": "polygamma", "--q": ["0.5"], "--x-min": "0.5", "--points": "3"},
        # below the residual the bisection reaches, so the Newton steps run
        "zero": {"--q": ["0.5"], "--tol": "1e-15"},
        "verify": {
            "--claim": ["t31-ratio-lcm", "c-666"], "--q": ["0.5"], "--x-max": "3",
            "--points": "4", "--orders": "2", "--format": "json",
        },
        "all": {"--q": ["0.5"], "--format": "json"},
    }
    SAMPLE = {
        "--fn": "gamma", "--q": ["0.2", "0.8"], "--x": "1.5", "--x-min": "1", "--x-max": "4",
        "--points": "5", "--spacing": "linear", "--claim": ["c-666", "phi-coeff"], "--a": "0.5",
        "--b": "3", "--alpha": "1", "--beta": "2", "--n-max": "5", "--orders": "3",
        "--tol": "1e-6", "--rel-tol": "0.5", "--format": "csv", "--out": "report.txt",
        "--allow-near-one": True,
    }
    # flags that show only at some q: inside the near-one guard band, or
    # where the series needs more than one chunk of terms
    Q_FOR = {"--allow-near-one": ["0.99995"], "--rel-tol": ["0.9"]}

    @staticmethod
    def _argv(cmd, opts):
        argv = [cmd]
        for flag, value in opts.items():
            if value is True:
                argv.append(flag)
            else:
                for v in value if isinstance(value, list) else [value]:
                    argv += [flag, v]
        return argv

    @pytest.mark.parametrize("cmd, flag", [(c, f) for c, own in FLAGS.items() for f in own])
    def test_key_equals_flag(self, capsys, tmp_path, monkeypatch, cmd, flag):
        assert flag in self.SAMPLE, f"give {flag} a sample value"
        value = self.SAMPLE[flag]
        if flag == "--out":
            value = str(tmp_path / value)
        base = {k: v for k, v in self.BASE[cmd].items() if k != flag}
        if flag in self.Q_FOR:
            base["--q"] = self.Q_FOR[flag]
        without = run_cli(capsys, *self._argv(cmd, base))
        with_flag = run_cli(capsys, *self._argv(cmd, {**base, flag: value}))
        text = "true" if value is True else ",".join(value) if isinstance(value, list) else value
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text(f"{flag[2:]}={text}\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        from_file = run_cli(capsys, *self._argv(cmd, base))
        assert from_file == with_flag
        assert from_file != without

    @pytest.mark.parametrize(
        "line, argv",
        [
            ("format=xml", ["zero", "--q", "0.5"]),
            ("fn=nope", ["eval", "--q", "0.5", "--x", "1"]),
            ("spacing=zig", ["scan", "--fn", "digamma", "--q", "0.5"]),
        ],
    )
    def test_value_outside_choices_exits_two(self, capsys, tmp_path, monkeypatch, line, argv):
        cfg = tmp_path / "qfun.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("QFUN_CONFIG", str(cfg))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f": {line.split('=')[0]}: invalid choice" in err


class TestDeterminism:
    def test_verify_json_byte_identical(self, capsys):
        argv = (
            "verify", "--claim", "t31-ratio-lcm", "--claim", "c-555",
            "--q", "0.5", "--q", "0.8", "--format", "json",
        )
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_q_order_does_not_matter(self, capsys):
        _, out1, _ = run_cli(
            capsys, "zero", "--q", "0.5", "--q", "0.2", "--format", "csv"
        )
        _, out2, _ = run_cli(
            capsys, "zero", "--q", "0.2", "--q", "0.5", "--format", "csv"
        )
        assert out1 == out2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_all_matches_reference_digest(self, capsys, fmt):
        # the bytes of `qfun all` are pinned across commits, not only across runs
        ref_path = Path(__file__).resolve().parents[1] / "bench" / "all_sweep_reference.json"
        ref = json.loads(ref_path.read_text(encoding="utf-8"))
        code, out, err = run_cli(capsys, "all", "--format", fmt)
        assert code == ref["exit_code"] == 1
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref[f"{fmt}_sha256"]
        reruns = [l.split() for l in err.splitlines() if l.startswith("re-run: ")]
        found = sorted([w[w.index("--claim") + 1], w[w.index("--q") + 1]] for w in reruns)
        assert found == ref["counterexamples"]
        assert all(float(q) > 1.0 for _, q in found)

    def test_reference_pins_every_run(self):
        assert [ref["argv"] for ref in CLI_REFERENCE["runs"]] == PINNED_RUNS

    @pytest.mark.parametrize("ref", CLI_REFERENCE["runs"], ids=lambda ref: " ".join(ref["argv"]))
    def test_matches_pinned_digests(self, capsys, ref):
        code, out, err = run_cli(capsys, *ref["argv"])
        assert code == ref["exit_code"]
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == ref["stdout_sha256"]
        assert hashlib.sha256(err.encode("utf-8")).hexdigest() == ref["stderr_sha256"]


def test_python_m_qfun_runs_from_a_checkout(tmp_path):
    # the package's __main__, found through PYTHONPATH alone
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QFUN_CONFIG")}
    env["PYTHONPATH"] = str(src)
    argv = ["all", "--format", "text"]
    run = subprocess.run(
        [sys.executable, "-m", "qfun", *argv], cwd=tmp_path, env=env, capture_output=True
    )
    (ref,) = [r for r in CLI_REFERENCE["runs"] if r["argv"] == argv]
    assert run.returncode == ref["exit_code"] == 1
    assert hashlib.sha256(run.stdout).hexdigest() == ref["stdout_sha256"]
    assert hashlib.sha256(run.stderr).hexdigest() == ref["stderr_sha256"]


class TestOneContextPerQ:
    """qfun all and a multi-claim verify evaluate one q at a time, the claim
    runs at that q sharing one EvalContext."""

    def test_all_solves_one_zero_per_q(self, capsys, monkeypatch):
        solves = []

        def counting(p, *args, _solve=qfun.deriv.digamma_zero, **kwargs):
            solves.append(p.q)
            return _solve(p, *args, **kwargs)

        monkeypatch.setattr(qfun.deriv, "digamma_zero", counting)
        assert run_cli(capsys, "all", "--format", "csv")[0] == 1
        assert sorted(solves) == sorted(DEFAULT_ALL_QS)

    def test_all_reports_equal_per_claim_runs(self):
        args = _build_parser()[0].parse_args(["all"])
        want = [
            run_claim(c, QParam(q)) for c in sorted(CLAIM_IDS) for q in DEFAULT_ALL_QS
            if CLAIMS[c].supports(QParam(q))
        ]
        assert qfun.cli._run_all(args) == want

    def test_earlier_q_contexts_are_released(self, capsys, monkeypatch):
        made = []
        init = EvalContext.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(weakref.ref(self))

        def checking_run_claim(claim_id, ctx, **kwargs):
            # only this q's context and its base-q^2 context may be alive
            alive = {r().p.q for r in made if r() is not None}
            assert alive <= {ctx.p.q, ctx.p.q * ctx.p.q}, (claim_id, ctx.p.q, alive)
            return run_claim(claim_id, ctx, **kwargs)

        monkeypatch.setattr(EvalContext, "__init__", recording_init)
        monkeypatch.setattr(qfun.cli, "run_claim", checking_run_claim)
        # a reference cycle would keep a context until a collection runs
        gc.disable()
        try:
            code, out, err = run_cli(capsys, "all", "--format", "csv")
        finally:
            gc.enable()
        assert code == 1, err
        assert len(made) == 8  # one per q, and one at q^2 for each q < 1
        assert all(r() is None for r in made)


class TestRerunRoundTrip:
    def test_counterexample_line_reproduces_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1",
        )
        assert code == 1
        rerun_line = next(l for l in out.splitlines() if "re-run:" in l)
        margin_line = next(l for l in out.splitlines() if "counterexample" in l)
        want_margin = float(margin_line.split("margin=")[1])
        argv = rerun_line.split("re-run: qfun ")[1].split()
        code2, out2, _ = run_cli(capsys, *argv)
        assert code2 == 1
        got_margin = float(
            next(l for l in out2.splitlines() if "counterexample" in l)
            .split("margin=")[1]
        )
        assert got_margin == pytest.approx(want_margin, abs=1e-12)

    def test_csv_format_emits_rerun_on_stderr(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1",
            "--format", "csv",
        )
        assert code == 1
        assert "re-run: qfun verify" in err

    @staticmethod
    def _margins(capsys, *argv):
        """Counterexample margins of argv, which must fail, and of the
        re-run line it prints."""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 1
        rerun_line = next(l for l in out.splitlines() if "re-run:" in l)
        code2, out2, err2 = run_cli(capsys, *rerun_line.split("re-run: qfun ")[1].split())
        assert code2 == 1, err2
        return [
            float(next(l for l in text.splitlines() if "counterexample" in l).split("margin=")[1])
            for text in (out, out2)
        ]

    def test_rerun_line_repeats_tol(self, capsys):
        # the margin -8.97e-10 clears the default tol 1e-9, so only --tol 0 fails it
        want, got = self._margins(capsys, "verify", "--claim", "c-555", "--q", "2", "--tol", "0")
        assert got == want

    def test_rerun_line_repeats_allow_near_one(self, capsys):
        want, got = self._margins(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.99995", "--allow-near-one",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1",
            "--x-min", "1", "--x-max", "3", "--points", "4", "--orders", "3",
        )
        assert got == want

    def test_rerun_line_repeats_rel_tol(self, capsys):
        want, got = self._margins(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1", "--rel-tol", "1e-3",
        )
        assert got == want


class TestEvalVariants:
    def test_polygamma_order_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "polygamma", "--orders", "2",
            "--q", "0.5", "--x", "1", "--format", "csv",
        )
        assert code == 0
        cells = out.splitlines()[1].split(",")
        assert cells[3] == "2"
        assert float(cells[5]) == pytest.approx(-2.3642369760703093, rel=1e-12)

    def test_inversion_residual_fns(self, capsys):
        for fn in ("gamma-inversion", "digamma-inversion"):
            code, out, _ = run_cli(
                capsys, "eval", "--fn", fn, "--q", "2", "--x", "1.7",
                "--format", "csv",
            )
            assert code == 0
            cells = out.splitlines()[1].split(",")
            # residual in the value column, its budget in the margin column
            assert abs(float(cells[5])) <= float(cells[6])

    def test_near_one_guard_respected(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--fn", "digamma", "--q", "0.99999", "--x", "1"
        )
        assert code == 2
        code, out, _ = run_cli(
            capsys, "eval", "--fn", "digamma", "--q", "0.99999", "--x", "1",
            "--allow-near-one",
        )
        assert code == 0
        # creeping toward the classical digamma value at 1
        assert "-0.577" in out


def _pinned_run(argv: list[str]) -> dict:
    """argv's exit code and the sha256 of its stdout and stderr, from main
    run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {
        "argv": argv,
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
        "stderr_sha256": hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest(),
    }


if __name__ == "__main__":
    # re-capture cli_reference.json after an intended change of output:
    # python tests/test_cli.py <commit>, and say why the bytes changed
    os.environ.pop("QFUN_CONFIG", None)
    captured_at = sys.argv[1] if len(sys.argv) > 1 else ""
    ref = {"captured_at": captured_at, "runs": [_pinned_run(argv) for argv in PINNED_RUNS]}
    CLI_REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", "utf-8")
    for run in ref["runs"]:
        print(run["exit_code"], run["stdout_sha256"], " ".join(run["argv"]))
