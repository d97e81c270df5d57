"""Shared default tolerances and the Kahler verdict threshold.

The validity tolerance can be overridden through the environment
variable ``HERMLIE_TOL`` (a decimal value, e.g. ``1e-10``).  All other
tolerances are fixed module constants.
"""

import math
import os

from .exceptions import ValidationError

# ~1000x accumulated double-precision rounding at n <= 6
VALIDITY_TOL = 1e-9
FLATNESS_TOL = 1e-8
# Non-Kahler iff rho = residual / |T|^2 <= RHO_MAX, in the search and the parallel battery.
# Measured: rho <= 3.2e-8 at the hunts' finds, >= 0.43 at rigid-s points, >= 0.1 on battery draws.
RHO_MAX = 1e-4

TOL_ENV_VAR = "HERMLIE_TOL"


def validity_tol(tol: float | None = None) -> float:
    """tol, or the validity tolerance honouring the HERMLIE_TOL override.

    Raises ValidationError unless the result is positive and finite.
    """
    name = "tolerance"
    if tol is None:
        name, raw = TOL_ENV_VAR, os.environ.get(TOL_ENV_VAR, VALIDITY_TOL)
        try:
            tol = float(raw)
        except ValueError:
            raise ValidationError(f"{name} must be a decimal number, got {raw!r}") from None
    return positive_finite(name, tol)


def positive_finite(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value
