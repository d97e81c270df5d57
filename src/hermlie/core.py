"""Frame-level calculus for left-invariant Hermitian structures.

A unitary (1,0)-frame e_1..e_n of the complexified Lie algebra carries
two structure-constant tensors,

    C^j_{ik} = <[e_i, e_k], ebar_j>,    D^j_{ik} = <[ebar_j, e_k], e_i>,

where <.,.> is the complex-bilinear extension of the metric, so
<e_i, ebar_j> = delta_ij and <e_i, e_j> = <ebar_i, ebar_j> = 0.  The
pairing convention is adopted here once and used everywhere.  C has no
(0,1) part by integrability, so integrability is built into the data
model; the real-side check lives in hermlie.realform.

Everything downstream is polynomial in (C, D):

    2 T^j_{ik}   = -D^j_{ik} + D^j_{ki} - C^j_{ik}        (Chern torsion)
    Gamma^j_{ik} = D^j_{ik} + s T^j_{ik}                  (connection family)
    Gamma^j_{i kbar} = -conj(Gamma^i_{jk})                (metric compatibility)

The family interpolates the Chern connection (s=0), the complexified
Levi-Civita projection (s=1) and the Bismut connection (s=2).

Complexified directions are indexed 0..2n-1: the first n are e_1..e_n,
the last n their conjugates.  Curvature of a left-invariant connection
is R(a,b) = A_a A_b - A_b A_a - A_{[a,b]} with constant endomorphisms
A; its vanishing at parameter s is what "flat" means throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import validity_tol
from .exceptions import DimensionMismatchError, ValidationError
from .tensors import (
    antisymmetrize_lower,
    as_coefficient_tensor,
    frobenius,
    frozen,
    max_abs,
)


@dataclass(frozen=True)
class UnitaryStructure:
    """Structure constants (C, D) of a left-invariant Hermitian structure.

    C is antisymmetrized exactly in its lower indices at construction;
    C, D and the antisymmetric part of C must be finite.
    Instances are immutable and safe to share across threads.
    """

    n: int
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatchError(f"n must be positive, got {self.n}")
        C = as_coefficient_tensor(self.C, self.n, "C")
        D = as_coefficient_tensor(self.D, self.n, "D")
        with np.errstate(over="ignore", invalid="ignore"):
            C = antisymmetrize_lower(C)
        if not np.isfinite(C).all():
            raise ValidationError("C: the antisymmetric part of its entries must be finite")
        object.__setattr__(self, "C", frozen(C))
        object.__setattr__(self, "D", frozen(D))


@dataclass(frozen=True)
class TorsionData:
    """Chern torsion T^j_{ik} (antisymmetric in i,k) and its trace eta_r = sum_k T^k_{kr}."""

    T: np.ndarray
    eta: np.ndarray

    @property
    def norm(self) -> float:
        return frobenius(self.T)

    @property
    def eta_norm(self) -> float:
        return frobenius(self.eta)


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature of the parameter-s connection on the (1,0) frame.

    R[a, b, x, y] is entry (x, y) of R(dir_a, dir_b) restricted to the
    (1,0) frame (x = output index), with directions 0..n-1 = e_1..e_n
    and n..2n-1 = ebar_1..ebar_n; shape (2n, 2n, n, n), read-only.
    max_abs is the flatness residual: the largest entry modulus of R.
    """

    s: float
    R: np.ndarray
    max_abs: float

    @property
    def frobenius(self) -> float:
        """Frame-change invariant size of the whole curvature tensor."""
        return frobenius(self.R)


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of an identity family, keyed by index tuple or by sub-family.

    When the producing operation was given a tolerance it is recorded
    here with the threshold it sets, and ``valid`` reports the
    max_abs <= threshold judgment.
    """

    name: str
    max_abs: float
    per_identity: dict
    tol: float | None = None
    threshold: float | None = None

    @property
    def valid(self) -> bool | None:
        return None if self.threshold is None else self.max_abs <= self.threshold


@dataclass(frozen=True)
class FlatnessSummary:
    """Gauge-invariant scalars driving the flat-or-not experiments.

    flatness residuals are Frobenius norms of the curvature tensor
    (frame-change invariant); kahler means torsion_norm <= tol * hypot(|C|, |D|)
    with Frobenius norms, which does not depend on the scale of (C, D).
    """

    torsion_norm: float
    eta_norm: float
    rows: tuple  # of (s, flatness_residual)
    kahler: bool


def chern_torsion(U: UnitaryStructure) -> TorsionData:
    """Chern torsion T^j_{ik} = (-D^j_{ik} + D^j_{ki} - C^j_{ik}) / 2 and its trace."""
    T = _torsion(U.C, U.D)
    eta = np.einsum("kkr->r", T)
    return TorsionData(T=frozen(T), eta=frozen(eta))


def _torsion(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The T of chern_torsion for (C, D) over any leading axes."""
    return 0.5 * (-D + D.swapaxes(-1, -2) - C)


def _parallel_frame(T: np.ndarray, s: float):
    """(C, D) = (2(s-1) T, -s T) forced by a parallel frame, over any leading axes of T."""
    return 2 * (s - 1) * T, -s * T


def gauduchon_connection(U: UnitaryStructure, s: float) -> np.ndarray:
    """The read-only connection coefficients gamma = D + s*T at parameter s.

    gamma[j,i,k] = <nabla^s_{e_k} e_i, ebar_j>; the conjugate-direction
    coefficients -conj(gamma^i_{jk}) (metric compatibility in a unitary
    frame) are the blocks A[n + k][:n, :n] of connection_endomorphisms.
    """
    return frozen(U.D + s * chern_torsion(U).T)


def bracket_tables(U: UnitaryStructure) -> np.ndarray:
    """Complexified bracket coefficients on the 2n frame directions.

    The read-only array table[a, b, c] is the coefficient of direction c
    in [dir_a, dir_b], with directions 0..n-1 = e_1..e_n and
    n..2n-1 = ebar_1..ebar_n:

        [e_i, e_k]       = sum_j C^j_{ik} e_j
        [ebar_j, e_i]    = sum_k ( D^j_{ki} ebar_k - conj(D^i_{kj}) e_k )
        [ebar_j, ebar_k] = conj of [e_j, e_k]

    Conjugation equivariance holds by construction.
    """
    return frozen(_brackets(U.C, U.D))


def _brackets(C: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The table of bracket_tables for (C, D) over any leading axes."""
    n = C.shape[-1]
    table = np.zeros(C.shape[:-3] + (2 * n, 2 * n, 2 * n), dtype=complex)
    # [e_i, e_k] = C^j_{ik} e_j
    table[..., :n, :n, :n] = np.einsum("...jik->...ikj", C)
    # [ebar_j, e_i] = D^j_{ki} ebar_k - conj(D^i_{kj}) e_k
    table[..., n:, :n, n:] = np.einsum("...jki->...jik", D)
    table[..., n:, :n, :n] = -np.einsum("...ikj->...jik", np.conj(D))
    table[..., :n, n:, :] = -table[..., n:, :n, :].swapaxes(-3, -2)
    # [ebar_j, ebar_k] = conj(C^i_{jk}) ebar_i
    table[..., n:, n:, n:] = np.einsum("...ijk->...jki", np.conj(C))
    return table


def connection_endomorphisms(U: UnitaryStructure, s: float) -> np.ndarray:
    """The 2n constant endomorphisms A_a of the complexified algebra.

    A[a][out, in] acts on coordinates ordered (e_1..e_n, ebar_1..ebar_n);
    the (0,1) blocks are the conjugates of the (1,0) blocks of the
    conjugate direction, so each A_a is metric compatible by construction.
    """
    return _endomorphisms(gauduchon_connection(U, s))


def _endomorphisms(gamma: np.ndarray) -> np.ndarray:
    """The endomorphisms of connection_endomorphisms for any coefficients gamma,
    over any leading axes of gamma.
    """
    n = gamma.shape[-1]
    gamma_bar = -np.conj(gamma.swapaxes(-3, -2))
    A = np.zeros(gamma.shape[:-3] + (2 * n, 2 * n, 2 * n), dtype=complex)
    # A[k][x, y] = gamma[x, y, k]: the coefficients of direction k
    A[..., :n, :n, :n] = np.moveaxis(gamma, -1, -3)
    A[..., :n, n:, n:] = np.moveaxis(np.conj(gamma_bar), -1, -3)
    A[..., n:, :n, :n] = np.moveaxis(gamma_bar, -1, -3)
    A[..., n:, n:, n:] = np.moveaxis(np.conj(gamma), -1, -3)
    return A


# R[a, b] = A_a A_b - A_b A_a - A_{[a,b]} as bilinear terms (sign, left factor and its
# labels, right factor and its labels) over R[a, b, x, z], in the order they are added
# up; the left factors belong to the first operand, the right factor A to the second.
_CURVATURE_TERMS = (
    (+1, "A", "axy", "A", "byz"),
    (-1, "A", "bxy", "A", "ayz"),
    (-1, "brk", "abc", "A", "cxz"),
)


def _curvature_tensor(A: np.ndarray, brk: np.ndarray, A2=None) -> np.ndarray:
    """R[a,b] = A_a A_b - A_b A_a - A_{[a,b]} for every ordered pair, over any leading
    axes of (A, brk, A2), which are paired.

    With a second operand A2 this is the bilinear form of _CURVATURE_TERMS,
    whose value on (A, A) is R: A_a A2_b - A_b A2_a - brk[a,b,c] A2_c, where
    brk is the bracket table belonging to A.  The first two terms share one
    matmul; the bracket sum is added up on its own and subtracted last.
    """
    A2 = A if A2 is None else A2
    # unplanned einsum is slower than matmul at n >= 3
    prod = np.matmul(A[..., :, None, :, :], A2[..., None, :, :, :])
    comm = prod - prod.swapaxes(-4, -3)
    lin = np.einsum("...abc,...cxy->...abxy", brk, A2)
    return comm - lin


def curvature(U: UnitaryStructure, s: float) -> CurvatureReport:
    """Curvature tensor R[a, b] of the parameter-s connection on the (1,0) frame."""
    n = U.n
    R = _curvature_tensor(connection_endomorphisms(U, s), bracket_tables(U))[:, :, :n, :n]
    return CurvatureReport(s=float(s), R=frozen(R), max_abs=max_abs(R))


def validate_structure(U: UnitaryStructure, tol: float | None = None) -> ResidualReport:
    """Evaluate the three Jacobi identity families for all index tuples.

    family 1:  sum_r ( C^r_{ij} C^l_{rk} + C^r_{jk} C^l_{ri} + C^r_{ki} C^l_{rj} )
    family 2:  sum_r ( C^r_{ik} D^l_{jr} + D^r_{ji} D^l_{rk} - D^r_{jk} D^l_{ri} )
    family 3:  sum_r ( C^r_{ik} conj(D^r_{jl}) - C^j_{rk} conj(D^i_{rl})
                       + C^j_{ri} conj(D^k_{rl}) - D^l_{ri} conj(D^k_{jr})
                       + D^l_{rk} conj(D^i_{jr}) )

    per_identity maps ("ccc",), ("cdd",) and ("cdbar",) to the largest
    residual modulus of each family.  The structure is declared valid
    iff max_abs <= tol * (|C|^2 + |D|^2), Frobenius norms (tol defaults to
    the package validity tolerance).  The residuals are quadratic in (C, D),
    so scaling the structure leaves the verdict unchanged, and the abelian
    structure (all zero) is valid.  No separate integrability check exists
    here: C carries no (0,1) part by construction.  Raises ValidationError
    when a residual or |C|^2 + |D|^2 overflows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        res = jacobi_residual_tensors(U.C, U.D)
        per = {(fam,): max_abs(arr) for fam, arr in zip(("ccc", "cdd", "cdbar"), res)}
        size = float(np.square(frobenius(U.C)) + np.square(frobenius(U.D)))
    if not all(map(math.isfinite, (*per.values(), size))):
        raise ValidationError("the Jacobi residuals of the structure overflow")
    tol = validity_tol(tol)
    return ResidualReport(name="jacobi", max_abs=max(per.values()), per_identity=per, tol=tol,
                          threshold=tol * size)


# The Jacobi identities of validate_structure as bilinear terms (family, sign, left
# factor and its labels, right factor and its labels) over [i, j, k, l], in the order
# each family adds them up; Dbar is conj(D).
_JACOBI_TERMS = (
    (0, +1, "C", "rij", "C", "lrk"),
    (0, +1, "C", "rjk", "C", "lri"),
    (0, +1, "C", "rki", "C", "lrj"),
    (1, +1, "C", "rik", "D", "ljr"),
    (1, +1, "D", "rji", "D", "lrk"),
    (1, -1, "D", "rjk", "D", "lri"),
    (2, +1, "C", "rik", "Dbar", "rjl"),
    (2, -1, "C", "jrk", "Dbar", "irl"),
    (2, +1, "C", "jri", "Dbar", "krl"),
    (2, -1, "D", "lri", "Dbar", "kjr"),
    (2, +1, "D", "lrk", "Dbar", "ijr"),
)


def jacobi_residual_tensors(C: np.ndarray, D: np.ndarray):
    """The three Jacobi residual arrays, indexed [..., i, j, k, l] (0-based), of
    _JACOBI_TERMS over any leading axes of (C, D), which are paired."""
    factors = {"C": C, "D": D, "Dbar": np.conj(D)}
    families = [None, None, None]
    for family, sign, left, left_labels, right, right_labels in _JACOBI_TERMS:
        term = np.einsum(f"...{left_labels},...{right_labels}->...ijkl",
                         factors[left], factors[right])
        total = families[family]
        families[family] = term if total is None else total + term if sign > 0 else total - term
    return tuple(families)


def covariant_torsion_derivatives(U: UnitaryStructure, s: float):
    """Covariant derivatives of the torsion along the parameter-s connection.

    Td[j,i,k,l]    = T^j_{ik,l}    = sum_r ( -T^j_{rk} G^r_{il} - T^j_{ir} G^r_{kl}
                                             + T^r_{ik} G^j_{rl} )
    Tdbar[j,i,k,l] = T^j_{ik,lbar} = sum_r (  T^j_{rk} conj(G^i_{rl})
                                             + T^j_{ir} conj(G^k_{rl})
                                             - T^r_{ik} conj(G^r_{jl}) )
    """
    T = chern_torsion(U).T
    G = gauduchon_connection(U, s)
    cG = np.conj(G)
    Td = (
        -np.einsum("jrk,ril->jikl", T, G)
        - np.einsum("jir,rkl->jikl", T, G)
        + np.einsum("rik,jrl->jikl", T, G)
    )
    Tdbar = (
        np.einsum("jrk,irl->jikl", T, cG)
        + np.einsum("jir,krl->jikl", T, cG)
        - np.einsum("rik,rjl->jikl", T, cG)
    )
    return frozen(Td), frozen(Tdbar)


def kahler_flatness_summary(
    U: UnitaryStructure, s_grid, tol: float | None = None
) -> FlatnessSummary:
    """Torsion size, trace size and flatness residual over an s grid.

    All reported scalars are invariant under constant unitary frame
    changes; the flatness residual is the Frobenius norm of the full
    curvature tensor.  Kahler iff the torsion norm is at or below
    tol * hypot(|C|, |D|): T is linear in (C, D), so scaling the structure
    leaves the flag unchanged, and the abelian structure (all zero) is Kahler.

    The connection is affine in s, so its curvature is exactly the
    quadratic R(s) = R0 + s R1 + s^2 R2; each row costs one
    frobenius(R0 + s (R1 + s R2)) and agrees with curvature(U, s).frobenius
    within 1e-13 (|C| + |D| + |A0| + |s| |T|)^2, A0 the Chern endomorphisms;
    when T = 0, R1 = R2 = 0 exactly and the two agree bitwise.
    Raises ValidationError when a flatness residual overflows.
    """
    tol = validity_tol(tol)
    tor = chern_torsion(U)
    n, brk = U.n, bracket_tables(U)
    A0, A1, zero = _endomorphisms(U.D), _endomorphisms(tor.T), np.zeros_like(brk)
    # R(s) = Q(A0 + s A1, A0 + s A1) for the bilinear form Q of _curvature_tensor,
    # whose bracket term belongs to the first operand: brk to A0, none to A1
    R0 = _curvature_tensor(A0, brk, A0)[:, :, :n, :n]
    R1 = (_curvature_tensor(A0, brk, A1) + _curvature_tensor(A1, zero, A0))[:, :, :n, :n]
    R2 = _curvature_tensor(A1, zero, A1)[:, :, :n, :n]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = tuple((float(s), frobenius(R0 + s * (R1 + s * R2))) for s in s_grid)
    for s, flat in rows:
        if not math.isfinite(flat):
            raise ValidationError(f"flatness residual at s={s!r} is not finite")
    return FlatnessSummary(
        torsion_norm=tor.norm, eta_norm=tor.eta_norm, rows=rows,
        kahler=tor.norm <= tol * math.hypot(frobenius(U.C), frobenius(U.D)),
    )
