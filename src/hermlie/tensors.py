"""Dense complex tensor helpers shared by the whole package.

Index convention, used everywhere: a rank-3 coefficient tensor is a
dense complex array ``X[j, i, k]`` holding the coefficient X^j_{ik},
upper index first, then the two lower indices.  Formulas in docstrings
are written 1-based; storage is 0-based.  Dimensions stay small
(n <= ~8), so everything is dense and copies are cheap.
"""

from __future__ import annotations

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


def frobenius(X: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(X) ** 2)))


def max_abs(X: np.ndarray) -> float:
    return float(np.abs(X).max()) if X.size else 0.0


def frozen(arr: np.ndarray) -> np.ndarray:
    """Own a read-only copy of ``arr`` (values are immutable after construction)."""
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


def transform_frame(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Coefficient tensor after the unitary frame change e'_a = sum_i V[i,a] e_i.

    X'[c,a,b] = sum conj(V[u,c]) V[i,a] V[j,b] X[u,i,j]; valid for any
    tensor with one conjugate-contracted upper slot and two plain lower
    slots (C, D, T and connection coefficients all transform this way).
    """
    return np.einsum("uij,uc,ia,jb->cab", X, np.conj(V), V, V, optimize=True)
