"""Command-line contract: exit codes, formats, config file, re-run lines."""

import hashlib
import json
from pathlib import Path

import pytest

from qfun.cli import CSV_HEADER, _render_csv, main


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

    @pytest.mark.parametrize("tol", ["nan", "-10", "inf"])
    def test_bad_tol_exits_two(self, capsys, tol):
        code, out, err = run_cli(
            capsys, "verify", "--claim", "t31-ratio-lcm", "--q", "0.5",
            "--a", "1", "--b", "2", "--alpha", "1", "--beta", "1", "--tol", tol,
        )
        assert code == 2
        assert out == ""
        assert "tol must be finite and >= 0" in err


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
