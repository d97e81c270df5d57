"""Executable forms of the flat-case identities and rigidity arguments.

Operations here replay, numerically, the mechanisms that force a flat
structure (at parameter s outside {0, 2}) to be Kahler: identity
families satisfied by the torsion of flat structures, the surface
(n = 2) obstruction chain, the parallel-frame reduction in general
dimension, and the kernel-peeling descent of the torsion operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._config import FLATNESS_TOL
from .core import (
    ResidualReport,
    TorsionData,
    UnitaryStructure,
    chern_torsion,
    covariant_torsion_derivatives,
    curvature,
    validate_structure,
)
from .exceptions import HypothesisError
from .tensors import antisymmetrize_lower, frobenius, frozen, max_abs, transform_frame

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
    "vacuous" (not "passed") whenever its prefactor vanishes.
    """
    n = U.n
    T = chern_torsion(U).T
    cT = np.conj(T)
    Td, Tdbar = covariant_torsion_derivatives(U, s)

    # Td[j,i,k,l] = T^j_{ik,l}, so viewed as [l,i,j,k] arrays:
    # T^l_{ij,k} is Td itself and T^l_{ik,j} swaps the last two axes
    exchange_lhs = Td - Td.transpose(0, 1, 3, 2)

    tt_i_jk = np.einsum("lir,rjk->lijk", T, T, optimize=True)
    tt_j_ik = np.einsum("ljr,rik->lijk", T, T, optimize=True)
    tt_k_ij = np.einsum("lkr,rij->lijk", T, T, optimize=True)
    exchange = exchange_lhs - (2 * (1 - s) * tt_i_jk + s * tt_j_ik - s * tt_k_ij)

    tt_j_ki = np.einsum("ljr,rki->lijk", T, T, optimize=True)
    cyclic = (n - 2) * (s - 1) * (tt_i_jk + tt_j_ki + tt_k_ij)

    exchange_reduced = exchange_lhs - (2 - s) * tt_i_jk

    factor = 4 * (s - 1) * (2 * s - 1)
    conj_lhs = factor * np.einsum("kijl->ijkl", Tdbar)
    rhs = (
        -4 * s * (s - 1) ** 2 * np.einsum("rij,rkl->ijkl", T, cT, optimize=True)
        - s
        * (5 * s**2 - 10 * s + 4)
        * (
            np.einsum("kir,jlr->ijkl", T, cT, optimize=True)
            - np.einsum("kjr,ilr->ijkl", T, cT, optimize=True)
        )
        + s**3
        * (
            np.einsum("lir,jkr->ijkl", T, cT, optimize=True)
            - np.einsum("ljr,ikr->ijkl", T, cT, optimize=True)
        )
    )
    conjugate = conj_lhs - rhs

    residuals = {
        "exchange": max_abs(exchange),
        "cyclic": max_abs(cyclic),
        "exchange_reduced": max_abs(exchange_reduced),
        "conjugate": max_abs(conjugate),
    }
    statuses = {
        "exchange": "evaluated",
        "cyclic": "vacuous" if (n - 2) * (s - 1) == 0 else "evaluated",
        "exchange_reduced": "evaluated" if (n >= 3 and s != 1) else "not_applicable",
        "conjugate": "evaluated (cleared-denominator form)"
        if factor != 0
        else "evaluated (cleared-denominator form; prefactor zero)",
    }
    return TorsionIdentitySuite(
        s=float(s),
        n=n,
        out_of_hypothesis=(s == 0),
        residuals=residuals,
        statuses=statuses,
    )


def half_flat_trace(T: TorsionData) -> float:
    """The quantity (1/4) sum |T^j_{ir}|^2 + (1/4) sum |eta_r|^2.

    On a structure flat at s = 1/2 this vanishes, which forces T = 0:
    flatness at the half parameter implies Kahler.  Always nonnegative,
    zero iff T = 0.
    """
    return 0.25 * float(np.sum(np.abs(T.T) ** 2)) + 0.25 * float(
        np.sum(np.abs(T.eta) ** 2)
    )


# ---------------------------------------------------------------------------
# the n = 2 obstruction chain


@dataclass(frozen=True)
class SurfaceDerivativeTable:
    """Expected covariant torsion derivatives on an adapted surface frame.

    Frame convention: T^2_{12} = 0, T^1_{12} = lam != 0.  Plain entries
    are exact; the conjugate-direction entries are stated in cleared
    form: cleared_factor * T^{.}_{..,bar} = value.  consistent is False
    exactly when the cleared factor vanishes while a right side does
    not, which forces lam = 0 at that parameter.
    """

    s: float
    lam: complex
    t1_12_1: complex
    t2_12_1: complex
    t2_12_2: complex
    t1_12_2: complex
    cleared_factor: float
    cleared_t1_12_bar1: complex
    cleared_t2_12_bar2: complex
    cleared_t1_12_bar2: complex
    cleared_t2_12_bar1: complex
    consistent: bool


def surface_derivative_table(lam: complex, s: float) -> SurfaceDerivativeTable:
    """Right-hand sides the obstruction checker consumes.

    t1_12_2 = (2-s) lam^2; with factor = 4(s-1)(2s-1):
    factor * T^1_{12,bar2} = s^2 (s-2) |lam|^2 and
    factor * T^2_{12,bar1} = s (3s^2 - 8s + 4) |lam|^2; the remaining
    tabulated entries vanish.
    """
    lam = complex(lam)
    a2 = abs(lam) ** 2
    factor = 4 * (s - 1) * (2 * s - 1)
    rhs_12bar2 = s**2 * (s - 2) * a2
    rhs_21bar1 = s * (3 * s**2 - 8 * s + 4) * a2
    degenerate = abs(factor) <= _QUADRATIC_TOL
    inconsistent = degenerate and (
        abs(rhs_12bar2) > _QUADRATIC_TOL or abs(rhs_21bar1) > _QUADRATIC_TOL
    )
    return SurfaceDerivativeTable(
        s=float(s),
        lam=lam,
        t1_12_1=0j,
        t2_12_1=0j,
        t2_12_2=0j,
        t1_12_2=(2 - s) * lam**2,
        cleared_factor=factor,
        cleared_t1_12_bar1=0j,
        cleared_t2_12_bar2=0j,
        cleared_t1_12_bar2=complex(rhs_12bar2),
        cleared_t2_12_bar1=complex(rhs_21bar1),
        consistent=not inconsistent,
    )


@dataclass(frozen=True)
class ObstructionReport:
    """Outcome of the surface obstruction chain at one parameter value.

    All derived quantities are coefficient ratios (multiples of lam or
    |lam|^2, with lam != 0 the standing torsion scalar), so no lam value
    is ever needed; lambda_symbolic records that convention.
    """

    s: float
    lambda_symbolic: bool
    forced_constants: dict
    excluded_by: str


OUT_OF_SCOPE = "out_of_scope"
DENOMINATOR_EXCLUSION = "denominator_exclusion"
QUADRATIC_MISMATCH = "quadratic_mismatch"
JACOBI_CONTRADICTION = "jacobi_contradiction"
NO_OBSTRUCTION = "no_obstruction"


def surface_obstruction(s: float) -> ObstructionReport:
    """Replay the n = 2 rigidity chain for a non-Kahler flat surface ansatz.

    Stages: (i) s in {0, 2} is out of theorem scope; (ii) s in {1/2, 1}
    is excluded because the cleared-denominator derivative table is
    inconsistent there; (iii) the two routes to Gamma^2_22/lam, namely
    (s-2) and s^2 (s-2) / (4 (s-1)(2s-1)), must agree, i.e.
    7s^2 - 12s + 4 = 0; (iv) at the two roots of that quadratic the
    remaining Jacobi consequence (5s-6)(5s-4) = (5s-4)(s-2) fails.  For
    every s outside {0, 2} some stage obstructs, so no non-Kahler flat
    surface structure exists there.
    """
    s = float(s)
    forced: dict = {}
    if min(abs(s), abs(s - 2)) <= _SPECIAL_RADIUS:
        return ObstructionReport(
            s=s, lambda_symbolic=True, forced_constants=forced, excluded_by=OUT_OF_SCOPE
        )
    if min(abs(s - 0.5), abs(s - 1)) <= _SPECIAL_RADIUS:
        table = surface_derivative_table(1.0, s)
        forced["cleared_factor"] = table.cleared_factor
        forced["cleared_t1_12_bar2_over_lam2"] = table.cleared_t1_12_bar2.real
        return ObstructionReport(
            s=s,
            lambda_symbolic=True,
            forced_constants=forced,
            excluded_by=DENOMINATOR_EXCLUSION,
        )

    quadratic = 7 * s**2 - 12 * s + 4
    denom = 4 * (s - 1) * (2 * s - 1)
    forced["Gamma2_22_over_lambda"] = s - 2
    forced["Gamma2_22_over_lambda_conjugate_route"] = s**2 * (s - 2) / denom
    forced["Gamma1_21_over_lambda"] = -s * (3 * s**2 - 8 * s + 4) / denom
    forced["quadratic_7s2_12s_4"] = quadratic
    if abs(quadratic) > _QUADRATIC_TOL * max(1.0, s**2):
        return ObstructionReport(
            s=s,
            lambda_symbolic=True,
            forced_constants=forced,
            excluded_by=QUADRATIC_MISMATCH,
        )

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
        return ObstructionReport(
            s=s,
            lambda_symbolic=True,
            forced_constants=forced,
            excluded_by=JACOBI_CONTRADICTION,
        )
    return ObstructionReport(
        s=s, lambda_symbolic=True, forced_constants=forced, excluded_by=NO_OBSTRUCTION
    )


# ---------------------------------------------------------------------------
# torsion operators, parallel-frame reduction and the descent


@dataclass(frozen=True)
class TorsionOperator:
    """A_X on the (1,0) space: matrix[k, j] = sum_i X_i T^k_{ij}; linear in X."""

    X: np.ndarray
    matrix: np.ndarray


def torsion_operator(T: TorsionData, X) -> TorsionOperator:
    X = np.asarray(X, dtype=complex)
    M = np.einsum("i,kij->kj", X, T.T)
    return TorsionOperator(X=frozen(X), matrix=frozen(M))


def torsion_operator_family(T: TorsionData) -> np.ndarray:
    """Stack of the frame operators A_{e_1}..A_{e_n}: fam[i][k, j] = T^k_{ij}."""
    return np.ascontiguousarray(T.T.transpose(1, 0, 2))


@dataclass(frozen=True)
class ParallelFrameDiagnostics:
    """Everything the parallel-frame ansatz must satisfy to support descent."""

    jacobi: ResidualReport
    flatness_max: float
    nilpotency_max: float
    quadratic_norm_max: float
    anticommutator_max: float
    norm_balance_max: float


def parallel_frame_reduction(T: TorsionData, s: float):
    """Structure with identically-zero connection coefficients at parameter s.

    A parallel left-invariant frame forces D = -s T and C = 2(s-1) T;
    the induced coefficients D + sT vanish identically, so curvature
    vanishes by construction and the only genuine constraint left is
    the Jacobi identity of (C, D).  Diagnostics bundle the Jacobi
    report, the (identically zero) flatness residual, the two-step
    nilpotency residual sum_r T^l_{ir} T^r_{jk} (relevant for s != 1),
    the quadratic norm identity

      sum_r [ 4(s-1)^2 |T^r_{ij}|^2
              + (5s^2-10s+4) ( T^i_{ir} conj(T^j_{jr}) - |T^i_{jr}|^2 )
              - s^2 ( |T^j_{ir}|^2 - T^j_{jr} conj(T^i_{ir}) ) ]

    for every (i, j), and the s = 1 operator diagnostics: pairwise
    anticommutators of the A_X family and the norm balance
    sum_r ( |T^j_{ri}|^2 - |T^i_{rj}|^2 ).
    """
    Tm = antisymmetrize_lower(np.asarray(T.T, dtype=complex))
    n = Tm.shape[0]
    U = UnitaryStructure(n=n, C=2 * (s - 1) * Tm, D=-s * Tm)
    jac = validate_structure(U)
    flat = curvature(U, s).max_abs

    nil = np.einsum("lir,rjk->lijk", Tm, Tm, optimize=True)
    quad = quadratic_norm_identity(Tm, s)

    fam = np.einsum("kij->ikj", Tm)  # fam[i] = A_{e_i}
    prod = np.einsum("axy,byz->abxz", fam, fam, optimize=True)
    anti = prod + prod.transpose(1, 0, 2, 3)
    absT2 = np.abs(Tm) ** 2
    # balance[i,j] = sum_r ( |T^j_{ri}|^2 - |T^i_{rj}|^2 )
    balance = np.einsum("jri->ij", absT2) - np.einsum("irj->ij", absT2)

    diag = ParallelFrameDiagnostics(
        jacobi=jac,
        flatness_max=flat,
        nilpotency_max=max_abs(nil),
        quadratic_norm_max=max_abs(quad),
        anticommutator_max=max_abs(anti),
        norm_balance_max=max_abs(balance),
    )
    return U, diag


def quadratic_norm_identity(Tm: np.ndarray, s: float) -> np.ndarray:
    """The (i, j)-indexed quadratic norm combination described above."""
    absT2 = np.abs(Tm) ** 2
    term1 = 4 * (s - 1) ** 2 * np.einsum("rij->ij", absT2)
    tr_i = np.einsum("iir->ir", Tm)  # T^i_{ir}
    term2a = np.einsum("ir,jr->ij", tr_i, np.conj(tr_i))
    term2b = np.einsum("ijr->ij", absT2)
    term3a = np.einsum("jir->ij", absT2)
    term3b = np.einsum("jr,ir->ij", tr_i, np.conj(tr_i))
    return (
        term1
        + (5 * s**2 - 10 * s + 4) * (term2a - term2b)
        - s**2 * (term3a - term3b)
    )


def common_kernel(T: TorsionData, tol: float | None = None):
    """Unit vector annihilated by every frame torsion operator, if one exists.

    Stacks A_{e_1}..A_{e_n} into an n^2 x n system; returns the
    smallest right singular vector when the smallest singular value is
    at or below tol (default 1e-8 times the stack norm), else None.
    For T = 0 the first basis vector is returned by convention.
    """
    w, smallest = _kernel_candidate(T.T)
    if tol is None:
        tol = 1e-8 * frobenius(T.T)
    return w if smallest <= tol else None


def _kernel_candidate(Tm: np.ndarray):
    """Smallest right singular vector of the operator stack and its singular value.

    For T = 0 the vector is the first basis vector, with value 0.
    """
    n = Tm.shape[0]
    stack = Tm.transpose(1, 0, 2).reshape(n * n, n)
    if not stack.any():
        return np.eye(n, dtype=complex)[0], 0.0
    _, sing, Vh = np.linalg.svd(stack)
    return np.conj(Vh[-1]), float(sing[-1])


def _householder_to_last(w: np.ndarray) -> np.ndarray:
    """Unitary reflection V (columns = new frame) with last column parallel to w."""
    n = w.shape[0]
    w = w / np.linalg.norm(w)
    beta = w[-1] / abs(w[-1]) if abs(w[-1]) > 1e-14 else 1.0
    e_last = np.zeros(n, dtype=complex)
    e_last[-1] = beta
    v = w - e_last
    vv = float(np.real(np.vdot(v, v)))
    H = np.eye(n, dtype=complex)
    if vv > 1e-28:
        H -= 2.0 * np.outer(v, np.conj(v)) / vv
    # H (unitary, Hermitian) maps w to beta * e_n, so its last column spans w
    return H


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
    Jacobi-valid and flat at s to tolerance, else HypothesisError.  For
    s within 1e-9 of {0, 2} the argument does not apply and the descent
    is skipped.  Otherwise a common-kernel direction of the torsion
    operators is rotated into the last coordinate by a Householder
    reflection, the entries forced to vanish there are measured, the
    last coordinate is dropped, and the process repeats; the returned
    residual is the torsion norm left when the peeling terminates
    (zero, if the rigidity prediction holds).
    """
    U, diag = parallel_frame_reduction(T, s)
    if diag.jacobi.max_abs > tol or diag.flatness_max > tol:
        raise HypothesisError(
            "induced parallel-frame structure is not valid/flat: "
            f"jacobi {diag.jacobi.max_abs:.3e}, flatness {diag.flatness_max:.3e}"
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
        w, smallest = _kernel_candidate(Tm)
        if smallest > 1e-8 * norm:
            return DescentResult(norm, False, "stuck", tuple(steps))
        V = _householder_to_last(w)
        Tm = transform_frame(Tm, V)
        m = Tm.shape[0]
        # kernel direction as a lower index, plus the forced upper-index slice
        peel = float(
            np.sqrt(
                np.sum(np.abs(Tm[:, m - 1, :]) ** 2)
                + np.sum(np.abs(Tm[:, :, m - 1]) ** 2)
                + np.sum(np.abs(Tm[m - 1, :, :]) ** 2)
            )
        )
        steps.append(
            DescentStep(dim=m, kernel_singular_value=smallest, peel_residual=peel)
        )
        if peel > max(tol, 1e-9 * max(1.0, norm)):
            return DescentResult(norm, False, "stuck", tuple(steps))
        Tm = np.ascontiguousarray(Tm[: m - 1, : m - 1, : m - 1])

    return DescentResult(frobenius(Tm), False, "completed", tuple(steps))
