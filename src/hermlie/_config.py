"""Shared default tolerances and the Kahler verdict threshold.

Every tolerance is a fixed module constant; a caller that wants another
validity tolerance passes it as tol= (on the command line, --tol).
"""

import math

from .exceptions import ValidationError

# ~1000x accumulated double-precision rounding at n <= 6
VALIDITY_TOL = 1e-9
FLATNESS_TOL = 1e-8
# Non-Kahler iff rho = residual / |T|^2 <= RHO_MAX, in the search and the parallel battery.
# Measured: rho <= 3.2e-8 at the hunts' finds, >= 0.43 at rigid-s points, >= 0.1 on battery draws.
RHO_MAX = 1e-4


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
