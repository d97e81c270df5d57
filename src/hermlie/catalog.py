"""Ground-truth example structures used by every verification suite.

Constructors return a UnitaryStructure where the calculus is naturally
complex (abelian, complex Lie groups, the su(2) x R model) and a
RealPresentation where the data is naturally real (the flat Kahler
families); the realform module bridges the two and is imported to build these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UnitaryStructure, validate_structure
from .exceptions import DegenerateParameterError, ValidationError
from .tensors import antisymmetrize_lower, standard_normal

_SQRT2 = np.sqrt(2.0)


def _zeros(n: int) -> np.ndarray:
    """An n x n x n complex zero tensor; an error naming n when it cannot be allocated."""
    try:
        return np.zeros((n, n, n), dtype=complex)
    except MemoryError as exc:
        raise DegenerateParameterError(f"n={n} is too large to fit in memory") from exc


def abelian(n: int) -> UnitaryStructure:
    """The Kahler flat baseline: C = D = 0 on C^n."""
    if n < 1:
        raise DegenerateParameterError(f"n must be >= 1, got {n}")
    return UnitaryStructure(n=n, C=_zeros(n), D=_zeros(n))


def complex_group(C) -> UnitaryStructure:
    """Left-invariant frame on a complex Lie group: given C, D = 0.

    The holomorphic and antiholomorphic left-invariant fields commute,
    so D vanishes and the s=0 connection coefficients vanish with it:
    every structure built here is flat at s = 0.  C must satisfy the
    purely holomorphic Jacobi identity, judged as validate_structure judges
    it (with D = 0 the other two families vanish) at tolerance 1e-12.
    """
    U = UnitaryStructure(n=len(C), C=C, D=_zeros(len(C)))
    report = validate_structure(U, 1e-12)
    if not report.valid:
        raise ValidationError(f"C violates the holomorphic Jacobi identity (residual "
                              f"{report.max_abs:.3e} > {report.threshold:.3e})")
    return U


def affine_complex_group(c: float = 1.0, n: int = 2) -> UnitaryStructure:
    """The n=2 staple [e_1, e_2] = c e_2, embedded in dimension n >= 2."""
    if n < 2:
        raise DegenerateParameterError("affine example needs n >= 2")
    C = _zeros(n)
    C[1, 0, 1] = c
    C[1, 1, 0] = -c
    return complex_group(C)


def samelson_su2_r(c: float) -> UnitaryStructure:
    """Bi-invariant metric on su(2) x R with a compatible left-invariant J.

    In the adapted frame e_1 = (X_1 - i X_0)/sqrt2, e_2 = (X_2 - i X_3)/sqrt2
    of the cyclic algebra [X_1, X_2] = c X_3 (X_0 central, J X_1 = X_0,
    J X_2 = X_3) the constants are C^2_{12} = i c / sqrt2 and D = -C, so
    T = C/2 and the parameter-2 coefficients D + 2T vanish: the frame is
    parallel for the Bismut connection and the structure is flat exactly
    at s = 2.  The frame choice is one gauge representative; flat-at-2
    is the gauge-invariant statement.
    """
    if c == 0:
        raise DegenerateParameterError("c = 0 degenerates to the abelian algebra")
    C = np.zeros((2, 2, 2), dtype=complex)
    C[1, 0, 1] = 1j * c / _SQRT2
    C[1, 1, 0] = -C[1, 0, 1]
    return UnitaryStructure(n=2, C=C, D=-C)


def bdf_flat_kahler_4d(q: float) -> RealPresentation:
    """The 4-dimensional flat Kahler algebra with rotation weight q: the
    (p, h_dim, c_dim) = (1, 1, 1) case of bdf_general.

    Orthonormal basis (X, Y, Z, W): [X, Y] = q Z, [X, Z] = -q Y, W
    central, J X = W and J Y = Z.  The J signs are the ones that pass
    integrability (J X = W rather than J W = X matters).
    """
    if q == 0:
        raise DegenerateParameterError("q = 0 is the abelian case; use abelian(2)")
    return bdf_general(BdfSpec(p=1, h_dim=1, c_dim=1, q=[q]))


@dataclass(frozen=True)
class BdfSpec:
    """Parameters of the general flat Kahler family.

    p rotating planes span the derived algebra (dimension 2p); an
    h_dim-dimensional abelian subalgebra acts on plane i through the
    rotation weight q[:, i], given as the h_dim x p matrix or its
    entries row by row; c_dim central directions complete the space.
    J pairs the first 2*h_internal_pairs directions of h internally,
    the first 2*c_internal_pairs of the centre internally, and matches
    the leftovers of h with the leftovers of the centre in order (their
    counts must agree).  Every count must be nonnegative.
    """

    p: int
    h_dim: int
    c_dim: int
    q: np.ndarray | None = None
    h_internal_pairs: int = 0
    c_internal_pairs: int = 0

    def __post_init__(self):
        counts = ("p", "h_dim", "c_dim", "h_internal_pairs", "c_internal_pairs")
        negative = [name for name in counts if getattr(self, name) < 0]
        if negative:
            raise ValidationError(f"{', '.join(negative)} must be nonnegative")
        q = np.asarray(self.q if self.q is not None else [], dtype=float)
        if q.ndim < 2 and q.size == self.h_dim * self.p:
            q = q.reshape(self.h_dim, self.p)  # the weights given flat, row by row
        q = np.atleast_2d(q)
        if not np.isfinite(q).all():
            raise ValidationError("q must be finite")
        if self.h_dim == 0 and self.p > 0:
            raise ValidationError("rotating planes need a nonzero h to act")
        if self.h_dim > 0:
            if q.shape != (self.h_dim, self.p):
                raise ValidationError(f"q must be {self.h_dim}x{self.p} "
                                      f"({self.h_dim * self.p} values), got shape {q.shape}")
            if self.p > 0:
                # both rules are relative to the size of q, so no scale of q changes the verdict
                if np.linalg.matrix_rank(q) < self.h_dim:
                    raise ValidationError("q must be injective on h")
                if np.any(np.all(np.abs(q) <= 1e-12 * np.abs(q).max(), axis=0)):
                    raise ValidationError(
                        "q has an all-zero column: that plane would be central"
                    )
            elif self.p == 0:
                raise ValidationError("h without planes to act on cannot be flat Kahler")
        object.__setattr__(self, "q", q if self.h_dim else np.zeros((0, self.p)))

        h1 = self.h_dim - 2 * self.h_internal_pairs
        c1 = self.c_dim - 2 * self.c_internal_pairs
        if h1 < 0 or c1 < 0 or h1 != c1:
            raise ValidationError(
                "pairing mismatch: leftover h and centre directions must match "
                f"(got {h1} and {c1})"
            )


def bdf_general(spec: BdfSpec) -> RealPresentation:
    """Assemble the flat Kahler algebra h + centre + derived planes.

    [X, F_{2i-1}] = q_i(X) F_{2i}, [X, F_{2i}] = -q_i(X) F_{2i-1} for X
    in h; everything else commutes; the metric is orthonormal and J
    follows the spec pairing with J F_{2i-1} = F_{2i} on the planes.
    Every output is Kahler (zero torsion) and flat at all parameters.  The
    basis is h, the centre's internal pairs, the planes, the rest of the centre:
    J-pair blocks in the adapted frame's order, and bdf_flat_kahler_4d's order.
    """
    from .realform import RealPresentation
    h, c, p = spec.h_dim, spec.c_dim, spec.p
    d = h + c + 2 * p
    if d == 0 or d % 2 != 0:
        raise ValidationError(f"total dimension {d} is not a positive even number")

    try:
        f = np.zeros((d, d, d))
    except MemoryError as exc:
        raise ValidationError(f"total dimension {d} is too large to fit in memory") from exc
    hp, cp = 2 * spec.h_internal_pairs, 2 * spec.c_internal_pairs
    plane0, rest = h + cp, h + cp + 2 * p  # where the planes and the rest of the centre start
    for a in range(h):
        for i in range(p):
            w = spec.q[a, i]
            e1 = plane0 + 2 * i
            e2 = plane0 + 2 * i + 1
            f[e2, a, e1] = f[e1, e2, a] = w
            f[e2, e1, a] = f[e1, a, e2] = -w

    # J a = b over the pairs (a, b): those inside h, those inside the centre, the leftovers
    # of h with the leftovers of the centre in order, and the two directions of each plane
    a = np.r_[0:hp:2, h:plane0:2, hp:h, plane0:rest:2]
    b = np.r_[1:hp:2, h + 1:plane0:2, rest:d, plane0 + 1:rest:2]
    J = np.zeros((d, d))
    J[b, a], J[a, b] = 1.0, -1.0

    return RealPresentation(dim=d, f=f, G=np.eye(d), J=J)


def perturb(U: UnitaryStructure, eps: float, seed: int) -> UnitaryStructure:
    """Add seeded complex Gaussian noise of size eps to C and D.

    The noise is tensors.standard_normal at seed, read as the real and then
    the imaginary part of C, then of D; the C noise is antisymmetrized.
    Output generally violates the Jacobi identities; this is the
    negative-control generator for the residual detectors.
    """
    if eps < 0:
        raise DegenerateParameterError("eps must be nonnegative")
    if seed < 0:
        raise DegenerateParameterError(f"seed must be nonnegative, got {seed}")
    if eps == 0:
        return U
    n = U.n
    X = standard_normal(seed, (2, 2, n, n, n))  # C, then D: re, im parts
    with np.errstate(over="ignore", invalid="ignore"):
        noise = eps * (X[:, 0] + 1j * X[:, 1])
        C = U.C + antisymmetrize_lower(noise[0])
        D = U.D + noise[1]
    return UnitaryStructure(n=n, C=C, D=D)
