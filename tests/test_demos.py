"""Smoke test: every demo script runs to completion in-process."""

import runpy
from pathlib import Path

import pytest

from qfun.theorems import CLAIMS

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


def test_demo_set():
    assert [p.stem for p in DEMOS] == [
        "certify_theorems", "evaluate_functions", "g_beta_threshold", "locate_zero",
    ]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(capsys, path):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_certify_demo_skips_by_registry_regime(capsys):
    runpy.run_path(str(DEMO_DIR / "certify_theorems.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "[skip]" not in out.split("== q = 2.0 ==")[0]
    skipped = out.count("[skip]")
    assert skipped == sum(claim.sub_unit_only for claim in CLAIMS.values()) == 5
