"""Shared default tolerances.

The validity tolerance can be overridden through the environment
variable ``HERMLIE_TOL`` (a decimal value, e.g. ``1e-10``).  All other
tolerances are fixed module constants.
"""

import os

# ~1000x accumulated double-precision rounding at n <= 6
VALIDITY_TOL = 1e-9
FLATNESS_TOL = 1e-8

TOL_ENV_VAR = "HERMLIE_TOL"


def default_tol() -> float:
    """Validity tolerance, honouring the HERMLIE_TOL override."""
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return VALIDITY_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{TOL_ENV_VAR} must be a decimal number, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{TOL_ENV_VAR} must be positive, got {value}")
    return value
