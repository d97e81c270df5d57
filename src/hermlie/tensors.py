"""Dense complex tensor helpers and the seeded Gaussian generator, shared by the whole package.

Index convention, used everywhere: a rank-3 coefficient tensor is a
dense complex array ``X[j, i, k]`` holding the coefficient X^j_{ik},
upper index first, then the two lower indices.  Formulas in docstrings
are written 1-based; storage is 0-based.  Dimensions stay small
(n <= ~8), so everything is dense and copies are cheap.
"""

from __future__ import annotations

import random

import numpy as np

from .exceptions import DimensionMismatchError, ValidationError


def as_coefficient_tensor(entries, n: int, name: str = "tensor") -> np.ndarray:
    """Validate and return a complex n x n x n coefficient array.

    Raises DimensionMismatchError on wrong shape, ValidationError on
    non-finite entries.
    """
    arr = np.asarray(entries, dtype=complex)
    if arr.shape != (n, n, n):
        raise DimensionMismatchError(
            f"{name}: expected shape {(n, n, n)}, got {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name}: entries must be finite")
    return arr


def antisymmetrize_lower(X: np.ndarray) -> np.ndarray:
    """Project onto the part antisymmetric in the two lower indices, the last two axes,
    over any leading axes of X."""
    return 0.5 * (X - X.swapaxes(-1, -2))


def frobenius_rows(X: np.ndarray) -> np.ndarray:
    """Frobenius norms of X[0], X[1], ...  Each row is divided by the power of two of
    its largest entry before it is squared and multiplied back after the square root;
    both steps are exact, so no square overflows or underflows before the norm does."""
    A = np.abs(np.reshape(X, (len(X), -1)))
    _, e = np.frexp(A.max(axis=1, initial=0.0))
    return np.ldexp(np.sqrt(np.square(np.ldexp(A, -e[:, None])).sum(axis=1)), e)


def frobenius(X: np.ndarray) -> float:
    return float(frobenius_rows(np.reshape(X, (1, -1)))[0])


def max_abs(X: np.ndarray) -> float:
    return float(np.abs(X).max()) if X.size else 0.0


def frozen(arr: np.ndarray) -> np.ndarray:
    """Own a read-only copy of ``arr`` (values are immutable after construction)."""
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def standard_normal(seed: int, shape) -> np.ndarray:
    """Seeded standard Gaussian draws of the given shape, in float64.

    Box-Muller on the uniforms u of the stdlib random.Random(seed), whose
    stream Python keeps fixed for integer seeds: the pair (u, v) gives
    r cos(2 pi v) and r sin(2 pi v) with r = sqrt(-2 log(1 - u)), in that
    order, so a smaller count draws a prefix of a larger one.  Every random
    number of the package comes from here, and loads no generator module.
    """
    count = int(np.prod(shape))
    u, v = np.fromiter(iter(random.Random(seed).random, None), float,
                       count=2 * ((count + 1) // 2)).reshape(-1, 2).T
    r, angle = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
    return np.stack((r * np.cos(angle), r * np.sin(angle)), axis=1).ravel()[:count].reshape(shape)
