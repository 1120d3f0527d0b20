"""What `import qfun` loads: the one-point evaluators of qfun.core at once,
the Euler-Maclaurin sums of qfun.em inside the first evaluation that needs
one, and each other layer on the first access to one of its public names."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qfun

COLD_START = """
import sys
import qfun

def loaded():
    return " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "qfun"))

qfun.q_digamma(qfun.QParam(0.5), 2.5)
print(loaded())
# 21 Euler-Maclaurin terms: past the psi switch
qfun.q_polygamma(qfun.QParam(0.9999, allow_near_one=True), 0.05, 6)
print(loaded())
qfun.q_psi_grid
print(loaded())
qfun.EvalContext
print(loaded())
"""
LAYERS = ("core", "rows", "em", "roots", "deriv", "theorems")


def test_a_core_evaluation_loads_only_core():
    # without a bytecode cache, as the benchmark's set-up launches run:
    # each launch compiles every module it loads
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-c", COLD_START], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    # deriv imports roots and rows, and roots imports em
    assert run.stdout.splitlines() == [
        "qfun qfun.core",
        "qfun qfun.core qfun.em",
        "qfun qfun.core qfun.em qfun.rows",
        "qfun qfun.core qfun.deriv qfun.em qfun.roots qfun.rows",
    ]


def test_every_public_name_is_its_home_modules_object():
    layers = [importlib.import_module(f"qfun.{layer}") for layer in LAYERS]
    for name in qfun.__all__:
        if name != "__version__":
            (home,) = [m for m in layers if name in m.__all__]
            assert getattr(qfun, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(qfun.__all__) <= set(dir(qfun))


def test_star_import_binds_every_public_name():
    names: dict = {}
    exec("from qfun import *", names)
    assert set(qfun.__all__) <= set(names)
    assert all(names[name] is getattr(qfun, name) for name in qfun.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qfun.no_such_name  # noqa: B018
    assert not hasattr(qfun, "no_such_name")
