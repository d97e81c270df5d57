"""Bridge between real presentations and unitary-frame structure constants.

A real presentation is a Lie algebra on R^{2n} given by real structure
constants f^c_{ab}, an inner product G and an almost complex structure
J.  The compatible integrable case is characterised by

    [x,y] - [Jx,Jy] + J[Jx,y] + J[x,Jy] = 0   for all basis pairs,

and converts to a UnitaryStructure through an adapted unitary frame
e_i = (u_i - i J u_i)/sqrt(2) built from a G-orthonormal, J-adapted
real basis.  The frame carries a U(n) gauge freedom, so the derived
(C, D) are one gauge representative; every scalar reported downstream
(torsion norm, flatness residuals, Kahler flags) is gauge invariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import validity_tol
from .core import ResidualReport, UnitaryStructure, bracket_tables
from .exceptions import (
    DimensionMismatchError,
    FrameConstructionError,
    IntegrabilityError,
    ValidationError,
)
from .tensors import frozen, max_abs

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RealPresentation:
    """Real structure constants f^c_{ab}, inner product G, complex structure J.

    f is antisymmetrized exactly in its lower index pair at construction.
    Well-formedness beyond shapes (Jacobi, J^2 = -I, compatibility,
    integrability, SPD-ness of G) is reported by validate_real, not
    enforced here.
    """

    dim: int
    f: np.ndarray
    G: np.ndarray
    J: np.ndarray

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise DimensionMismatchError(
                f"real dimension must be even and positive, got {self.dim}"
            )
        d = self.dim
        f = np.asarray(self.f, dtype=float)
        if f.shape != (d, d, d):
            raise DimensionMismatchError(f"f: expected {(d, d, d)}, got {f.shape}")
        G = np.asarray(self.G, dtype=float)
        J = np.asarray(self.J, dtype=float)
        for name, M in (("G", G), ("J", J)):
            if M.shape != (d, d):
                raise DimensionMismatchError(f"{name}: expected {(d, d)}, got {M.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            f = 0.5 * (f - f.transpose(0, 2, 1))
            G = 0.5 * (G + G.T)
        if not (np.isfinite(f).all() and np.isfinite(G).all() and np.isfinite(J).all()):
            raise ValidationError(
                "real presentation entries must be finite, and so must their (anti)symmetric parts"
            )
        object.__setattr__(self, "f", frozen(f))
        object.__setattr__(self, "G", frozen(G))
        object.__setattr__(self, "J", frozen(J))

    @property
    def n(self) -> int:
        return self.dim // 2


def validate_real(P: RealPresentation, tol: float | None = None) -> ResidualReport:
    """Residuals of every real-side axiom, evaluated on all basis pairs.

    Families: lower-index antisymmetry of f, real Jacobi, J^2 + I,
    J^T G J - G, SPD-ness of G (residual max(0, -lambda_min), flagged
    rather than raised), and the integrability expression
    [x,y] - [Jx,Jy] + J[Jx,y] + J[x,Jy] on all basis pairs.
    """
    tol = validity_tol(tol)
    d, f, G, J = P.dim, P.f, P.G, P.J
    per = {}

    anti = f + f.transpose(0, 2, 1)
    per[("antisymmetry",)] = max_abs(anti)

    jac = (
        np.einsum("dab,edc->abce", f, f, optimize=True)
        + np.einsum("dbc,eda->abce", f, f, optimize=True)
        + np.einsum("dca,edb->abce", f, f, optimize=True)
    )
    per[("jacobi",)] = max_abs(jac)

    per[("j_squared",)] = max_abs(J @ J + np.eye(d))
    per[("compatibility",)] = max_abs(J.T @ G @ J - G)

    # SPD failure is flagged through the residual, never raised
    min_eig = float(np.linalg.eigvalsh(G).min())
    per[("spd_violation",)] = 0.0 if min_eig > 0 else abs(min_eig) + 2 * tol

    bJxJy = np.einsum("cab,ax,by->cxy", f, J, J, optimize=True)
    JbJxy = np.einsum("cd,dab,ax->cxb", J, f, J, optimize=True)
    JbxJy = np.einsum("cd,dab,by->cay", J, f, J, optimize=True)
    nij = f - bJxJy + JbJxy + JbxJy
    for a in range(d):
        for b in range(a + 1, d):
            per[("integrability", a + 1, b + 1)] = float(np.abs(nij[:, a, b]).max())

    worst = max(per.values())
    return ResidualReport(name="real-presentation", max_abs=worst, per_identity=per, tol=tol)


def adapted_unitary_frame(P: RealPresentation) -> np.ndarray:
    """A G-orthonormal J-adapted frame, returned as a 2n x n complex matrix.

    Columns are e_i = (u_i - i J u_i)/sqrt(2) where the real pairs
    (u_i, J u_i) come from modified Gram-Schmidt over the input basis
    in order: take the next basis vector, orthonormalize against the
    accepted span, adjoin its J image, repeat.  Deterministic for a
    fixed presentation.
    """
    d, G, J = P.dim, P.G, P.J
    accepted: list[np.ndarray] = []

    def g(u, v):
        return float(u @ G @ v)

    def orthonormalize(v):
        """Remainder of v against the accepted span, or None if dependent."""
        w = v.astype(float).copy()
        for _ in range(2):  # second pass stabilises near-dependent candidates
            for u in accepted:
                w -= g(u, w) * u
        norm = np.sqrt(max(g(w, w), 0.0))
        if norm <= _RANK_TOL:
            return None
        return w / norm

    for a in range(d):
        if len(accepted) == d:
            break
        cand = np.zeros(d)
        cand[a] = 1.0
        u = orthonormalize(cand)
        if u is None:
            continue  # dependent candidates are skipped, not fatal
        accepted.append(u)
        ju = orthonormalize(J @ u)
        if ju is None:
            _rank_fail(f"J-image of accepted vector {len(accepted)}")
        accepted.append(ju)

    if len(accepted) != d:
        _rank_fail("exhausted candidates before completing the frame")

    n = P.n
    E = np.zeros((d, n), dtype=complex)
    for i in range(n):
        u = accepted[2 * i]
        E[:, i] = (u - 1j * (J @ u)) / np.sqrt(2.0)
    return frozen(E)


def _rank_fail(step: str):
    raise FrameConstructionError(f"adapted frame lost rank at: {step}")


def frame_gram_residual(P: RealPresentation, E: np.ndarray) -> float:
    """Max deviation of <e_i, ebar_j> from delta and <e_i, e_j> from zero."""
    G = P.G.astype(complex)
    herm = E.T @ G @ np.conj(E) - np.eye(P.n)
    null = E.T @ G @ E
    return max(max_abs(herm), max_abs(null))


def complex_structure_constants(P: RealPresentation):
    """Project the complexified bracket onto the adapted frame.

    Returns (C, D, offdiag) where offdiag is the largest (0,1)-component
    of any [e_i, e_k]; integrability makes it vanish.
    """
    E = adapted_unitary_frame(P)
    n = P.n
    G = P.G.astype(complex)
    fC = P.f.astype(complex)
    Ebar = np.conj(E)

    def brack(x, y):
        return np.einsum("cab,a,b->c", fC, x, y)

    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    offdiag = 0.0
    for i in range(n):
        for k in range(n):
            v = brack(E[:, i], E[:, k])
            C[:, i, k] = v @ G @ Ebar  # <[e_i,e_k], ebar_j>
            offdiag = max(offdiag, float(np.abs(v @ G @ E).max()))
    for j in range(n):
        for k in range(n):
            w = brack(Ebar[:, j], E[:, k])
            D[j, :, k] = w @ G @ E  # <[ebar_j,e_k], e_i>
    return C, D, offdiag


def to_unitary_structure(P: RealPresentation, tol: float | None = None) -> UnitaryStructure:
    """UnitaryStructure of a valid real presentation in its adapted frame.

    Raises IntegrabilityError (carrying the largest offending component)
    when [e_i, e_k] has a (0,1) part above tol.
    """
    tol = validity_tol(tol)
    C, D, offdiag = complex_structure_constants(P)
    if offdiag > tol:
        raise IntegrabilityError(
            f"(0,1) part of a holomorphic bracket is {offdiag:.3e} > {tol:.1e}",
            residual=offdiag,
        )
    return UnitaryStructure(n=P.n, C=C, D=D)


def from_unitary_structure(U: UnitaryStructure) -> RealPresentation:
    """Realify on the basis x_{2i-1} = (e_i + ebar_i)/sqrt2, x_{2i} = i(e_i - ebar_i)/sqrt2.

    The basis is G-orthonormal with block-standard J (J x_{2i-1} = x_{2i});
    converting back reproduces (C, D) exactly up to rounding.
    """
    n = U.n
    d = 2 * n
    brk = bracket_tables(U)

    # coordinates of the real basis vectors on (e, ebar)
    X = np.zeros((2 * n, d), dtype=complex)
    for i in range(n):
        X[i, 2 * i] = 1 / np.sqrt(2.0)
        X[n + i, 2 * i] = 1 / np.sqrt(2.0)
        X[i, 2 * i + 1] = 1j / np.sqrt(2.0)
        X[n + i, 2 * i + 1] = -1j / np.sqrt(2.0)

    # inverse map from (e, ebar) coordinates back to the real basis
    M = np.zeros((d, 2 * n), dtype=complex)
    for i in range(n):
        M[2 * i, i] = 1 / np.sqrt(2.0)
        M[2 * i + 1, i] = -1j / np.sqrt(2.0)
        M[2 * i, n + i] = 1 / np.sqrt(2.0)
        M[2 * i + 1, n + i] = 1j / np.sqrt(2.0)

    f = np.zeros((d, d, d))
    for a in range(d):
        for b in range(a + 1, d):
            v = np.einsum("cde,c,d->e", brk, X[:, a], X[:, b])
            coords = M @ v  # imaginary parts vanish up to rounding
            f[:, a, b] = coords.real
            f[:, b, a] = -coords.real

    J = np.zeros((d, d))
    for i in range(n):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    return RealPresentation(dim=d, f=f, G=np.eye(d), J=J)
