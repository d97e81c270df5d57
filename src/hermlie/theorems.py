"""Executable forms of the flat-case identities and rigidity arguments.

Operations here replay, numerically, the mechanisms that force a flat
structure (at parameter s outside {0, 2}) to be Kahler: identity
families satisfied by the torsion of flat structures, the surface
(n = 2) obstruction chain, the parallel-frame reduction in general
dimension, and the kernel-peeling descent of the torsion operators,
which works in the frame of right singular vectors of their stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._config import FLATNESS_TOL, finite
from .core import (
    TorsionData,
    UnitaryStructure,
    _parallel_frame,
    chern_torsion,
    covariant_torsion_derivatives,
    validate_structure,
)
from .exceptions import HypothesisError, ValidationError
from .tensors import antisymmetrize_lower, frobenius, max_abs, transform_frame

_SPECIAL_RADIUS = 1e-9  # neighbourhood radius around excluded parameter values
_QUADRATIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# identities satisfied by the torsion of flat structures


@dataclass(frozen=True)
class TorsionIdentitySuite:
    """Four residual families, with per-family applicability status.

    statuses: "evaluated", "vacuous" (identically-zero prefactor) or
    "reduced-form-only" notes; out_of_hypothesis flags s = 0, where the
    identities carry no content.
    """

    s: float
    n: int
    out_of_hypothesis: bool
    residuals: dict  # family -> max |residual|
    statuses: dict

    @property
    def max_abs(self) -> float:
        return max(self.residuals.values())


def flat_torsion_identities(U: UnitaryStructure, s: float) -> TorsionIdentitySuite:
    """Residuals of the four flat-structure torsion identities.

    With T the Chern torsion, its covariant derivatives taken along the
    parameter-s connection and sums over r implicit:

      exchange:  T^l_{ij,k} - T^l_{ik,j}
                   - [ 2(1-s) T^l_{ir} T^r_{jk} + s T^l_{jr} T^r_{ik}
                       - s T^l_{kr} T^r_{ij} ]
      cyclic:    (n-2)(s-1) ( T^l_{ir} T^r_{jk} + T^l_{jr} T^r_{ki}
                              + T^l_{kr} T^r_{ij} )
      exchange_reduced:  T^l_{ij,k} - T^l_{ik,j} - (2-s) T^l_{ir} T^r_{jk}
                         (content only when n >= 3 and s != 1)
      conjugate (cleared-denominator form, kept finite at s in {1/2, 1}):
                 4(s-1)(2s-1) T^k_{ij,lbar}
                   - [ -4s(s-1)^2 T^r_{ij} conj(T^r_{kl})
                       - s(5s^2-10s+4) ( T^k_{ir} conj(T^j_{lr})
                                         - T^k_{jr} conj(T^i_{lr}) )
                       + s^3 ( T^l_{ir} conj(T^j_{kr})
                               - T^l_{jr} conj(T^i_{kr}) ) ]

    All residuals are expected to be ~0 only on structures flat at s
    with s != 0; the suite evaluates everything regardless and lets the
    caller interpret applicability.  The cyclic family is reported
    "vacuous" (not "passed") whenever its prefactor vanishes.  Raises
    ValidationError when s is not finite or a residual overflows.
    """
    finite("s", s)
    try:
        residuals = _identity_residuals(U, s)
    except OverflowError:  # a power of s past the float range
        residuals = None
    if residuals is None or not all(map(math.isfinite, residuals.values())):
        raise ValidationError(f"a torsion identity residual overflows at s={s!r}")
    n = U.n
    statuses = {
        "exchange": "evaluated",
        "cyclic": "vacuous" if (n - 2) * (s - 1) == 0 else "evaluated",
        "exchange_reduced": "evaluated" if (n >= 3 and s != 1) else "not_applicable",
        "conjugate": "evaluated (cleared-denominator form)"
        if s not in (0.5, 1)
        else "evaluated (cleared-denominator form; prefactor zero)",
    }
    return TorsionIdentitySuite(s=float(s), n=n, out_of_hypothesis=(s == 0),
                                residuals=residuals, statuses=statuses)


@np.errstate(over="ignore", invalid="ignore")
def _identity_residuals(U: UnitaryStructure, s: float) -> dict:
    """The four residuals of flat_torsion_identities, by family."""
    n = U.n
    T = chern_torsion(U).T
    cT = np.conj(T)
    Td, Tdbar = covariant_torsion_derivatives(U, s)

    # Td[j,i,k,l] = T^j_{ik,l}, so viewed as [l,i,j,k] arrays:
    # T^l_{ij,k} is Td itself and T^l_{ik,j} swaps the last two axes
    exchange_lhs = Td - Td.transpose(0, 1, 3, 2)

    tt_i_jk = np.einsum("lir,rjk->lijk", T, T)
    tt_j_ik = np.einsum("ljr,rik->lijk", T, T)
    tt_k_ij = np.einsum("lkr,rij->lijk", T, T)
    exchange = exchange_lhs - (2 * (1 - s) * tt_i_jk + s * tt_j_ik - s * tt_k_ij)

    tt_j_ki = np.einsum("ljr,rki->lijk", T, T)
    cyclic = (n - 2) * (s - 1) * (tt_i_jk + tt_j_ki + tt_k_ij)

    exchange_reduced = exchange_lhs - (2 - s) * tt_i_jk

    factor = 4 * (s - 1) * (2 * s - 1)
    conj_lhs = factor * np.einsum("kijl->ijkl", Tdbar)
    rhs = (
        -4 * s * (s - 1) ** 2 * np.einsum("rij,rkl->ijkl", T, cT)
        - s * (5 * s**2 - 10 * s + 4)
        * (np.einsum("kir,jlr->ijkl", T, cT) - np.einsum("kjr,ilr->ijkl", T, cT))
        + s**3 * (np.einsum("lir,jkr->ijkl", T, cT) - np.einsum("ljr,ikr->ijkl", T, cT))
    )
    conjugate = conj_lhs - rhs

    return {
        "exchange": max_abs(exchange),
        "cyclic": max_abs(cyclic),
        "exchange_reduced": max_abs(exchange_reduced),
        "conjugate": max_abs(conjugate),
    }


# ---------------------------------------------------------------------------
# the n = 2 obstruction chain


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the surface obstruction chain at one parameter value.

    The forced constants are ratios to lam (or |lam|^2), the standing
    torsion scalar lam != 0, so no lam value is ever needed.
    """

    s: float
    forced_constants: dict
    excluded_by: str


OUT_OF_SCOPE = "out_of_scope"
DENOMINATOR_EXCLUSION = "denominator_exclusion"
QUADRATIC_MISMATCH = "quadratic_mismatch"
JACOBI_CONTRADICTION = "jacobi_contradiction"
NO_OBSTRUCTION = "no_obstruction"


def surface_obstruction(s: float) -> ObstructionReport:
    """Replay the n = 2 rigidity chain for a non-Kahler flat surface ansatz.

    In an adapted frame (T^2_{12} = 0, T^1_{12} = lam) flatness forces
    the conjugate derivative 4(s-1)(2s-1) T^1_{12,bar2} = s^2 (s-2) |lam|^2.
    Stages: (i) s in {0, 2} is out of theorem scope; (ii) at s in {1/2, 1}
    the cleared factor 4(s-1)(2s-1) vanishes while s^2 (s-2) does not;
    (iii) the two routes to Gamma^2_22/lam, namely (s-2) and
    s^2 (s-2) / (4 (s-1)(2s-1)), must agree, i.e. 7s^2 - 12s + 4 = 0;
    (iv) at the two roots of that quadratic the remaining Jacobi
    consequence (5s-6)(5s-4) = (5s-4)(s-2) fails.  For every s outside
    {0, 2} some stage obstructs, so no non-Kahler flat surface structure
    exists there.  Raises ValidationError when s is not finite or a
    forced constant overflows.
    """
    s = finite("s", float(s))
    if min(abs(s), abs(s - 2)) <= _SPECIAL_RADIUS:
        return ObstructionReport(s=s, forced_constants={}, excluded_by=OUT_OF_SCOPE)
    denom = 4 * (s - 1) * (2 * s - 1)
    if min(abs(s - 0.5), abs(s - 1)) <= _SPECIAL_RADIUS:
        forced = {"cleared_factor": denom, "cleared_t1_12_bar2_over_lam2": s**2 * (s - 2)}
        return ObstructionReport(s=s, forced_constants=forced, excluded_by=DENOMINATOR_EXCLUSION)

    try:
        forced = {
            "Gamma2_22_over_lambda": s - 2,
            "Gamma2_22_over_lambda_conjugate_route": s**2 * (s - 2) / denom,
            "Gamma1_21_over_lambda": -s * (3 * s**2 - 8 * s + 4) / denom,
            "quadratic_7s2_12s_4": 7 * s**2 - 12 * s + 4,
        }
    except OverflowError:  # a power of s past the float range
        forced = None
    if forced is None or not all(map(math.isfinite, forced.values())):
        raise ValidationError(f"the surface obstruction chain overflows at s={s!r}")
    quadratic = forced["quadratic_7s2_12s_4"]
    if abs(quadratic) > _QUADRATIC_TOL * max(1.0, s**2):
        return ObstructionReport(s=s, forced_constants=forced, excluded_by=QUADRATIC_MISMATCH)

    # the two quadratic roots survive to the Jacobi stage
    d1_21 = 5 * s - 4
    forced["D1_21_over_lambda"] = d1_21
    forced["D2_22_over_lambda"] = s - 2
    forced["C1_12_plus_D1_12_over_lambda"] = 5 * s - 6
    lhs = (5 * s - 6) * d1_21
    rhs = d1_21 * (s - 2)
    forced["jacobi_lhs_coefficient"] = lhs
    forced["jacobi_rhs_coefficient"] = rhs
    if abs(lhs - rhs) > _QUADRATIC_TOL:
        return ObstructionReport(s=s, forced_constants=forced, excluded_by=JACOBI_CONTRADICTION)
    return ObstructionReport(s=s, forced_constants=forced, excluded_by=NO_OBSTRUCTION)


# ---------------------------------------------------------------------------
# parallel-frame reduction and the descent


def parallel_frame_reduction(T: TorsionData, s: float):
    """Structure with identically-zero connection coefficients at parameter s.

    A parallel left-invariant frame forces D = -s T and C = 2(s-1) T.
    Returns that structure U and its Jacobi report, the only genuine
    constraint left: the coefficients D + sT of U cancel, so its
    curvature vanishes up to rounding (exactly 0.0 at s in {0, 1/2, 1, 2}).
    """
    Tm = antisymmetrize_lower(np.asarray(T.T, dtype=complex))
    U = UnitaryStructure(Tm.shape[0], *_parallel_frame(Tm, s))
    return U, validate_structure(U)


def _kernel_frame(Tm: np.ndarray):
    """The operator stack's right singular vectors as a frame, and its smallest singular value.

    The frame's columns are conj(Vh).T, so it is unitary and its last
    column, the smallest right singular vector, spans the stack's kernel
    when it has one.  For T = 0 the frame is the identity, with value 0.
    """
    n = Tm.shape[0]
    stack = Tm.transpose(1, 0, 2).reshape(n * n, n)
    if not stack.any():
        return np.eye(n, dtype=complex), 0.0
    _, sing, Vh = np.linalg.svd(stack)
    return np.conj(Vh).T, float(sing[-1])


@dataclass(frozen=True)
class DescentStep:
    dim: int
    kernel_singular_value: float
    peel_residual: float


@dataclass(frozen=True)
class DescentResult:
    residual_norm: float
    skipped: bool
    status: str
    steps: tuple


def torsion_descent(T: TorsionData, s: float, tol: float = FLATNESS_TOL) -> DescentResult:
    """Iterated kernel-splitting of the torsion in the parallel-frame ansatz.

    Precondition: the induced structure (C, D) = (2(s-1)T, -sT) must be
    Jacobi-valid to tolerance, else HypothesisError.  Its flatness is
    not checked: its connection coefficients D + sT cancel, so its
    curvature is rounding, far below the tolerance wherever Jacobi
    holds.  For s within 1e-9 of {0, 2} the argument does not apply and
    the descent is skipped.  Otherwise the torsion is rewritten in the
    frame of right singular vectors of its operator stack, whose last
    column is a common-kernel direction of the operators; the entries
    forced to vanish along that direction are measured, the last
    coordinate is dropped, and the process repeats.  The returned
    residual is the torsion norm left when the peeling terminates
    (zero, if the rigidity prediction holds).
    """
    jacobi = parallel_frame_reduction(T, s)[1].max_abs
    if jacobi > tol:
        raise HypothesisError(
            f"induced parallel-frame structure is not Jacobi-valid: jacobi {jacobi:.3e}"
        )
    if min(abs(s), abs(s - 2)) <= _SPECIAL_RADIUS:
        return DescentResult(
            residual_norm=frobenius(T.T), skipped=True, status="skipped", steps=()
        )

    Tm = np.asarray(T.T, dtype=complex).copy()
    steps = []
    while Tm.shape[0] > 1:
        norm = frobenius(Tm)
        if norm <= tol:
            return DescentResult(0.0, False, "completed", tuple(steps))
        V, smallest = _kernel_frame(Tm)
        if smallest > 1e-8 * norm:
            return DescentResult(norm, False, "stuck", tuple(steps))
        Tm = transform_frame(Tm, V)
        m = Tm.shape[0]
        # kernel direction as a lower index, plus the forced upper-index slice
        slices = (Tm[:, m - 1], Tm[:, :, m - 1], Tm[m - 1])
        peel = float(np.sqrt(sum(np.sum(np.abs(X) ** 2) for X in slices)))
        steps.append(DescentStep(dim=m, kernel_singular_value=smallest, peel_residual=peel))
        if peel > max(tol, 1e-9 * max(1.0, norm)):
            return DescentResult(norm, False, "stuck", tuple(steps))
        Tm = np.ascontiguousarray(Tm[: m - 1, : m - 1, : m - 1])

    return DescentResult(frobenius(Tm), False, "completed", tuple(steps))
