"""The series kernels past core._LN_NEGLIGIBLE: a block whose every k ln p
is at or below it takes 1 - p^k as exactly 1.0 without computing it.

The premise is checked on the numpy build at hand, since a build whose
expm1 missed -1.0 there would move bits silently.  Each of the four
kernels (core._lambert_block, rows._lambert_rows, core._logprod_block,
rows._logprod_rows) is checked bit for bit against the unshortened
formula on a block before the threshold, one across it and one past it.
"""

import math

import numpy as np
import pytest

import qfun.core
import qfun.rows
from qfun import Truncation
from qfun.core import _BLOCK_TERMS, _LN_NEGLIGIBLE

QS = [0.2, 0.8, 0.999, 1.001, 5.0]
ORDERS = [0, 1, 3, 8]
PRODUCT_XS = [0.5, 1.0, 2.0, 3.7]
# beyond |ln q| = 2.6 some (j + x) ln q is above -37.43, where expm1 is not
# -1.0, while k ln q is past: there a product block that skipped on k
# alone, or on the wrong x, would move bits
PRODUCT_QS = QS + [0.01, 100.0]


def bits(v: float) -> str:
    """v's exact bits, sign of zero included."""
    return float(v).hex()


def test_expm1_is_minus_one_past_the_threshold():
    # densely just below the threshold, then log-spaced down to k ln p at
    # k = 1e9 and the smallest positive double q (ln q = -744.4), beyond
    # every block of a sum capped at 1e9 terms
    dense = _LN_NEGLIGIBLE - np.linspace(0.0, 1.0, 100_001)
    far = -np.logspace(math.log10(-_LN_NEGLIGIBLE), math.log10(1e9 * 744.5), 100_001)
    for y in (dense, far, far[1:]):  # far[1:] starts off the array's alignment
        e = np.expm1(y)
        assert (e == -1.0).all()
        u = y.copy()
        np.expm1(u, out=u)  # in place, as the kernels take it
        assert (u == -1.0).all()
        np.negative(u, out=u)
        np.log(u, out=u)
        assert (u == 0.0).all() and not np.signbit(u).any()
    for y in (-40.0, -40.5, -1e3, -7.445e11):
        assert math.expm1(y) == -1.0 and np.expm1(np.float64(y)) == -1.0


def ln_p(q: float) -> float:
    """The ln p of the kernels at q: ln q below 1, -ln q above (taken from q)."""
    return -abs(math.log(q))


def first_past(lnp: float, x: float) -> int:
    """The first k at which k ln p and (k - 1 + x) ln p are both at or
    below _LN_NEGLIGIBLE."""
    k = max(1, math.floor(_LN_NEGLIGIBLE / lnp) - 2)
    while not (k * lnp <= _LN_NEGLIGIBLE and (k - 1.0 + x) * lnp <= _LN_NEGLIGIBLE):
        k += 1
    return k


def seam_blocks(lnp: float, x: float = 1.0) -> dict[str, np.ndarray]:
    """Index blocks before, across and past first_past(lnp, x), each at
    most _BLOCK_TERMS long, and one from where k ln p alone is past, if
    that comes earlier (at some x < 1)."""
    k_star = first_past(lnp, x)
    m = min(_BLOCK_TERMS, k_star // 2)
    start = {"before": 1, "across": k_star - m // 2, "past": k_star}
    if first_past(lnp, 1.0) < k_star:
        start["k past"] = first_past(lnp, 1.0)
    return {name: np.arange(k0, k0 + m, dtype=np.float64) for name, k0 in start.items()}


@pytest.fixture
def expm1_calls(monkeypatch):
    """A list that gains an entry at each np.expm1 call."""
    calls = []
    expm1 = np.expm1
    monkeypatch.setattr(np, "expm1", lambda *a, **kw: calls.append(1) or expm1(*a, **kw))
    return calls


def took(name: str, calls: list) -> None:
    """Assert that a block named name computed expm1 unless it is past."""
    assert (len(calls) == 0) == (name == "past"), name
    calls.clear()


def lambert_terms(k: np.ndarray, lnp: float, x: float, n: int) -> np.ndarray:
    """The unshortened terms k^n p^{kx} / (p^k - 1), in core's order."""
    return np.exp(k * qfun.core._x_ln(x, lnp)) * np.power(k, n) / np.expm1(k * lnp)


def product_terms(k: np.ndarray, lnp: float, x: float) -> np.ndarray:
    """The unshortened terms ln(1 - p^{j+1}) - ln(1 - p^{j+x}), j = k - 1."""
    return np.log(-np.expm1(k * lnp)) - np.log(-np.expm1((k - 1.0 + x) * lnp))


def grid_chunk(monkeypatch, pass_fn, *args):
    """The chunk function that a grid pass hands _chunk_rows, the pass
    itself not run."""
    chunks = []
    monkeypatch.setattr(
        qfun.rows, "_chunk_rows", lambda *a: chunks.append(a[4]) or (np.zeros(a[0]),) * 3
    )
    pass_fn(*args)
    return chunks[0]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", ORDERS)
# at x = 1e3, q = 0.2 or 5 every term is 0.0, so the sum keeps a sign of zero
@pytest.mark.parametrize("x", [0.3, 1e3], ids=["x=0.3", "x=1e3"])
def test_lambert_block_keeps_its_bits(q, n, x, expm1_calls):
    lnp = ln_p(q)
    block = qfun.core._lambert_block(lnp, x, n)
    for name, k in seam_blocks(lnp).items():
        want = -float(np.add.reduce(lambert_terms(k, lnp, x, n)))
        expm1_calls.clear()
        got = block(k, np.empty(k.size), np.empty(k.size))
        took(name, expm1_calls)
        assert bits(got) == bits(want), name


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("x", [0.3, 1e3], ids=["x=0.3", "x=1e3"])
def test_lambert_rows_keep_their_bits(q, x, monkeypatch, expm1_calls):
    lnp = ln_p(q)
    ns = np.array(ORDERS)
    xs = np.full(ns.size, x)
    chunk = grid_chunk(
        monkeypatch, qfun.rows._lambert_rows, lnp, math.exp(lnp), ns, xs, Truncation(),
        np.zeros(ns.size), np.ones(ns.size), q,
    )
    for name, k in seam_blocks(lnp).items():
        # the rows divide by 1 - p^k: sums of one sign, +0.0 where all terms are
        want = [bits(np.add.reduce(-lambert_terms(k, lnp, x, n))) for n in ORDERS]
        expm1_calls.clear()
        got = np.add.reduce(chunk(k)(np.arange(ns.size)), 1)
        took(name, expm1_calls)
        assert [bits(v) for v in got.tolist()] == want, name


@pytest.mark.parametrize("q", PRODUCT_QS)
@pytest.mark.parametrize("x", PRODUCT_XS)
def test_logprod_block_keeps_its_bits(q, x, expm1_calls):
    lnp = ln_p(q)
    block = qfun.core._logprod_block(lnp, x)
    for name, k in seam_blocks(lnp, x).items():
        want = float(np.add.reduce(product_terms(k, lnp, x)))
        expm1_calls.clear()
        got = block(k, np.empty(k.size), np.empty(k.size))
        took(name, expm1_calls)
        assert bits(got) == bits(want), name


@pytest.mark.parametrize("q", PRODUCT_QS)
@pytest.mark.parametrize("x", PRODUCT_XS)
def test_logprod_rows_keep_their_bits(q, x, monkeypatch, expm1_calls):
    lnp = ln_p(q)
    chunk = grid_chunk(
        monkeypatch, qfun.rows._logprod_rows, lnp, math.exp(lnp), [x], Truncation(), [0.0], q
    )
    for name, k in seam_blocks(lnp, x).items():
        want = float(np.add.reduce(product_terms(k, lnp, x)))
        expm1_calls.clear()
        got = np.add.reduce(chunk(k)(np.arange(1)), 1)
        took(name, expm1_calls)
        assert [bits(v) for v in got.tolist()] == [bits(want)], name


@pytest.mark.parametrize("q", PRODUCT_QS)
def test_logprod_rows_of_mixed_xs_keep_their_bits(q, monkeypatch):
    # a block past the threshold at x >= 1 but not at x = 0.01: the group
    # of the four rows is summed
    lnp = ln_p(q)
    xs = [0.01, 1.0, 2.0, 3.7]
    chunk = grid_chunk(
        monkeypatch, qfun.rows._logprod_rows, lnp, math.exp(lnp), xs, Truncation(), [0.0] * 4, q
    )
    k = seam_blocks(lnp, xs[0])["k past"]
    got = np.add.reduce(chunk(k)(np.arange(4)), 1)
    want = [bits(np.add.reduce(product_terms(k, lnp, x))) for x in xs]
    assert [bits(v) for v in got.tolist()] == want
