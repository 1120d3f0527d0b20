"""q-gamma and q-digamma family with certified truncation bounds.

Evaluators for the q-deformed gamma, digamma, and polygamma functions in
both regimes (0 < q < 1 and q > 1), a locator for the unique positive zero
of the q-digamma, and numerical certifiers for a family of logarithmic
complete-monotonicity claims about ratios and products of these functions.

`import qfun` loads the one-point evaluators of `qfun.core` only.  The
other public names below load their layer (`qfun.rows`, `qfun.roots`,
`qfun.deriv` or `qfun.theorems`) on first access, and core loads the
Euler-Maclaurin sums of `qfun.em` inside the first evaluation that needs
one, so a script that evaluates single points never compiles the grid
passes, the zero locator or the certifiers.
"""

import importlib

from .core import (
    DEFAULT_TRUNCATION,
    DomainError,
    EvalResult,
    MAX_DERIV_ORDER,
    NonConvergent,
    QParam,
    Regime,
    ResidualCheck,
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

__version__ = "0.1.0"

# every public name outside core, with the layer that defines it
_HOME = {"q_psi_grid": "rows"} | dict.fromkeys(
    ("BracketError", "ZeroResult", "digamma_zero", "q_euler_mascheroni", "q_harmonic"),
    "roots",
) | dict.fromkeys(
    (
        "EvalContext",
        "LogDerivProvider",
        "N_MAX",
        "VerifyReport",
        "certify_lcm",
        "ln_gamma_provider",
        "log_derivatives",
        "make_grid",
        "ratio_provider",
    ),
    "deriv",
) | dict.fromkeys(
    (
        "CLAIM_IDS",
        "RatioSpec",
        "beta_star",
        "g_beta_log_deriv",
        "g_beta_provider",
        "inv_digamma_provider",
        "ln_g_beta",
        "phi_series_coefficient",
        "psi_duplication_residual",
        "ratio_log_middle",
        "run_claim",
        "verify_g_beta_lcm",
        "verify_gamma_lcm_and_superadd",
        "verify_ineq_1",
        "verify_ineq_010",
        "verify_ineq_555",
        "verify_ineq_666",
        "verify_inv_digamma_lcm",
        "verify_phi_coeff",
        "verify_psi_duplication",
        "verify_remark_ineq",
        "verify_theorem_ratio_lcm",
    ),
    "theorems",
)

__all__ = [
    "DEFAULT_TRUNCATION",
    "DomainError",
    "EvalResult",
    "MAX_DERIV_ORDER",
    "NonConvergent",
    "QParam",
    "Regime",
    "ResidualCheck",
    "Truncation",
    "UnsupportedOrder",
    "digamma_inversion_residual",
    "gamma_inversion_residual",
    "ln_q_gamma",
    "q_bracket",
    "q_digamma",
    "q_gamma",
    "q_polygamma",
    *_HOME,
    "__version__",
]


def __getattr__(name: str) -> object:
    """A name of _HOME, its layer imported on first access (PEP 562) and
    the name then kept in the package globals, so later reads skip this."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
