"""Central finite differences, the tests' independent check on each
analytic log-derivative at matched accuracy."""

import math
from typing import Callable

from qfun import DomainError, UnsupportedOrder

# central stencils, O(h^2); keys are multiples of h
_STENCILS: dict[int, dict[int, float]] = {
    1: {-1: -0.5, 1: 0.5},
    2: {-1: 1.0, 0: -2.0, 1: 1.0},
    3: {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5},
    4: {-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0},
}


def default_step(x: float, n: int) -> float:
    """Step size for the order-n stencil at x; grows with the order since
    higher stencils divide by h^n."""
    return max(1e-5, 1e-5 * abs(x)) * 10.0 ** (n - 1)


def finite_diff(
    f: Callable[[float], float],
    x: float,
    n: int = 1,
    h: float | None = None,
    lo: float = -math.inf,
    hi: float = math.inf,
) -> float:
    """Central O(h^2) approximation to f^(n)(x), n in 1..4.

    Raises DomainError if a stencil point would leave (lo, hi).
    """
    if not isinstance(n, int) or isinstance(n, bool) or n not in _STENCILS:
        raise UnsupportedOrder(f"finite_diff supports orders {sorted(_STENCILS)}, got {n!r}")
    step = default_step(x, n) if h is None else h
    if step <= 0.0:
        raise DomainError(f"step must be positive, got {step}")
    stencil = _STENCILS[n]
    for k in stencil:
        if not lo < x + k * step < hi:
            raise DomainError(
                f"stencil point {x + k * step!r} outside ({lo}, {hi}) for order {n} at x={x}"
            )
    acc = math.fsum(w * f(x + k * step) for k, w in stencil.items())
    return acc / step**n
