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

from ._config import VALIDITY_TOL
from .core import UnitaryStructure
from .exceptions import (
    DimensionMismatchError,
    FrameConstructionError,
    IntegrabilityError,
    ValidationError,
)
from .tensors import antisymmetrize_lower, frozen

_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RealPresentation:
    """Real structure constants f^c_{ab}, inner product G, complex structure J.

    f is antisymmetrized exactly in its lower index pair at construction.
    Well-formedness beyond shapes and finiteness (Jacobi, J^2 = -I,
    compatibility, SPD-ness of G) is not checked; to_unitary_structure
    checks integrability.
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
            f = antisymmetrize_lower(f)
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


def complex_structure_constants(P: RealPresentation):
    """Project the complexified bracket onto the adapted frame.

    Returns (C, D, offdiag) where offdiag is the largest (0,1)-component
    of any [e_i, e_k]; integrability makes it vanish.
    """
    E = adapted_unitary_frame(P)
    n = P.n
    G = P.G.astype(complex)
    Ebar = np.conj(E)
    # brk[x, k] = [v_x, e_k] for v = (e_1..e_n, ebar_1..ebar_n)
    brk = np.einsum("cab,ax,bk->xkc", P.f.astype(complex), np.concatenate([E, Ebar], axis=1), E)
    C = np.einsum("ikc,cd,dj->jik", brk[:n], G, Ebar)  # <[e_i,e_k], ebar_j>
    D = np.einsum("jkc,cd,di->jik", brk[n:], G, E)  # <[ebar_j,e_k], e_i>
    offdiag = float(np.abs(np.einsum("ikc,cd,dl->ikl", brk[:n], G, E)).max())
    return C, D, offdiag


def to_unitary_structure(P: RealPresentation) -> UnitaryStructure:
    """UnitaryStructure of a valid real presentation in its adapted frame.

    Raises IntegrabilityError (carrying the largest offending component)
    when [e_i, e_k] has a (0,1) part above VALIDITY_TOL.
    """
    C, D, offdiag = complex_structure_constants(P)
    if offdiag > VALIDITY_TOL:
        raise IntegrabilityError(
            f"(0,1) part of a holomorphic bracket is {offdiag:.3e} > {VALIDITY_TOL:.1e}",
            residual=offdiag,
        )
    return UnitaryStructure(n=P.n, C=C, D=D)
