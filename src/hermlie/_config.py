"""Shared default tolerances and the Kahler verdict threshold.

Every tolerance is a fixed module constant; a caller that wants another
validity tolerance passes it as tol= (on the command line, --tol).
"""

import math

import numpy as np

from .exceptions import ValidationError

# ~1000x accumulated double-precision rounding at n <= 6
VALIDITY_TOL = 1e-9
# Non-Kahler iff kahler_ratio <= RHO_MAX, in the search and the parallel battery.
# Measured: rho <= 3.2e-8 at the hunts' finds, >= 0.57 on battery draws and, at rigid-s points,
# >= 0.18 |s(s-2)| (0.29 for n = 2 at s = 0.3): the gap narrows as s nears 0 or 2 (README).
RHO_MAX = 1e-4


def kahler_ratio(residual, torsion):
    """rho = residual / |T|^2 elementwise, inf where |T| = 0; scale-free, as the residuals are
    quadratic and T is linear.  Divided twice: |T|^2 overflows at |T| ~ 1e160, rho need not."""
    with np.errstate(all="ignore"):
        return np.where(torsion == 0, np.inf, np.divide(residual, torsion) / torsion)


def validity_tol(tol: float | None = None) -> float:
    """tol, or VALIDITY_TOL when tol is None.

    Raises ValidationError unless the result is positive and finite.
    """
    return positive_finite("tolerance", VALIDITY_TOL if tol is None else tol)


def positive_finite(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value}")
    return value


def finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    return value
