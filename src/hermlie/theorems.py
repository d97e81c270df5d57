"""Executable forms of the flat-case identities and rigidity arguments, and their check suites.

Operations here replay, numerically, the mechanisms that force a flat
structure (at parameter s outside {0, 2}) to be Kahler: identity
families satisfied by the torsion of flat structures, the surface
(n = 2) obstruction chain, the parallel-frame reduction in general
dimension, and the descent's verdict on its torsion: zero (Kahler) or not.

Each suite returns a tuple of Check records built from fixed fixtures,
grids and seeds; `hermlie verify-theorems` prints them and the
acceptance tests assert on them.  lemma31: flat-case torsion identities
on bdf4 (q = 1, 5) over S_GRID_SIX, su(2) x R at s = 2 and the complex
group at s = 0.  surface: the n = 2 obstruction chain on 1000 points of
[-3, 5], at s = 0, 2 and at the quadratic roots.  parallel: 1600 random
parallel-frame draws, the su(2) x R torsion at s = 2 and the descent;
the draws are evaluated as stacks, one batched Jacobi residual per (n, s)
and chunk of draws, and judged by the search's Kahler ratio rule (RHO_MAX).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import catalog
from ._config import RHO_MAX, finite, kahler_ratio
from .core import (
    UnitaryStructure,
    _parallel_frame,
    _torsion_derivatives,
    chern_torsion,
    curvature,
    jacobi_residual_tensors,
    validate_structure,
)
from .exceptions import HypothesisError, ValidationError
from .realform import to_unitary_structure
from .tensors import (
    antisymmetrize_lower,
    as_coefficient_tensor,
    frobenius_rows,
    max_abs,
    standard_normal,
)

_SPECIAL_RADIUS = 1e-9  # neighbourhood radius around excluded parameter values
_QUADRATIC_TOL = 1e-12


# ---------------------------------------------------------------------------
# identities satisfied by the torsion of flat structures


def flat_torsion_identities(U: UnitaryStructure, s: float) -> dict:
    """Residuals of the four flat-structure torsion identities: family -> max |residual|.

    With T the Chern torsion, its covariant derivatives taken along the
    parameter-s connection (covariant_torsion_derivatives) and sums over r implicit:

      exchange:  T^l_{ij,k} - T^l_{ik,j}
                   - [ 2(1-s) T^l_{ir} T^r_{jk} + s T^l_{jr} T^r_{ik}
                       - s T^l_{kr} T^r_{ij} ]
      cyclic:    (n-2)(s-1) ( T^l_{ir} T^r_{jk} + T^l_{jr} T^r_{ki}
                              + T^l_{kr} T^r_{ij} )
                 (vacuous, exactly 0.0, when (n-2)(s-1) = 0)
      exchange_reduced:  T^l_{ij,k} - T^l_{ik,j} - (2-s) T^l_{ir} T^r_{jk}
                         (content only when n >= 3 and s != 1)
      conjugate (cleared-denominator form, kept finite where its prefactor
                 4(s-1)(2s-1) is zero, at s in {1/2, 1}):
                 4(s-1)(2s-1) T^k_{ij,lbar}
                   - [ -4s(s-1)^2 T^r_{ij} conj(T^r_{kl})
                       - s(5s^2-10s+4) ( T^k_{ir} conj(T^j_{lr})
                                         - T^k_{jr} conj(T^i_{lr}) )
                       + s^3 ( T^l_{ir} conj(T^j_{kr})
                               - T^l_{jr} conj(T^i_{kr}) ) ]

    All residuals are expected to be ~0 only on structures flat at s
    with s != 0; at s = 0 the identities carry no content.  Every family
    is evaluated regardless and the caller judges applicability.  Raises
    ValidationError when s is not finite or a residual overflows.
    """
    finite("s", s)
    try:
        residuals = _identity_residuals(U, s)
    except OverflowError:  # a power of s past the float range
        residuals = None
    if residuals is None or not all(map(math.isfinite, residuals.values())):
        raise ValidationError(f"a torsion identity residual overflows at s={s!r}")
    return residuals


@np.errstate(over="ignore", invalid="ignore")
def _identity_residuals(U: UnitaryStructure, s: float) -> dict:
    """The four residuals of flat_torsion_identities, by family."""
    n = U.n
    T = chern_torsion(U)
    cT = np.conj(T)
    Td, Tdbar = _torsion_derivatives(T, U.D + s * T)

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


def parallel_frame_reduction(T: np.ndarray, s: float):
    """Structure with identically-zero connection coefficients at parameter s.

    A parallel left-invariant frame forces D = -s T and C = 2(s-1) T on the torsion T[j, i, k].
    Returns that structure U and its Jacobi report, the only
    genuine constraint left: the coefficients D + sT of U cancel, so its
    curvature vanishes up to rounding (exactly 0.0 at s in {0, 1/2, 1, 2}).
    """
    Tm = antisymmetrize_lower(np.asarray(T, dtype=complex))
    U = UnitaryStructure(Tm.shape[0], *_parallel_frame(Tm, s))
    return U, validate_structure(U)


def torsion_descent(T: np.ndarray, s: float) -> str:
    """The parallel-frame verdict on the torsion T[j, i, k], whose rigidity prediction is
    T = 0: "completed" when T = 0, else "stuck".

    Precondition: the induced structure (C, D) = (2(s-1)T, -sT) is valid by the scale-free
    verdict of validate_structure, else HypothesisError; its connection coefficients D + sT
    cancel, so it is flat up to rounding.  Within 1e-9 of s in {0, 2} the argument does not
    apply: the verdict is "skipped", before the precondition is tested.  Raises
    DimensionMismatchError or ValidationError, whatever s, unless T is a finite n x n x n array.
    """
    T = as_coefficient_tensor(T, np.shape(T)[0], "torsion")
    if min(abs(s), abs(s - 2)) <= _SPECIAL_RADIUS:
        return "skipped"
    jacobi = parallel_frame_reduction(T, s)[1]
    if not jacobi.valid:
        raise HypothesisError("induced parallel-frame structure is not Jacobi-valid: "
                              f"jacobi {jacobi.max_abs:.3e} > {jacobi.threshold:.3e}")
    return "stuck" if T.any() else "completed"


# ---------------------------------------------------------------------------
# the verification suites


RESIDUAL_TOL = 1e-10
S_GRID_SIX = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)
QUADRATIC_ROOTS = (2.0 / 7.0 * (3.0 - np.sqrt(2.0)), 2.0 / 7.0 * (3.0 + np.sqrt(2.0)))
_CHUNK_BYTES = 100_000  # working-set budget of the Jacobi residuals of one chunk of draws


@dataclass(frozen=True)
class Check:
    """One verdict: ok, the measured value and that value as printed."""

    label: str
    ok: bool
    value: object = None
    detail: str = ""


def lemma31() -> tuple:
    """Identity residuals; an s = 0 fixture that fails them must be out of hypothesis."""
    fixtures = [(f"bdf4(q={q:g})", to_unitary_structure(catalog.bdf_flat_kahler_4d(q)), S_GRID_SIX)
                for q in (1.0, 5.0)]
    fixtures += [("samelson(1)", catalog.samelson_su2_r(1.0), (2.0,)),
                 ("complex-group", catalog.affine_complex_group(1.0), (0.0,))]
    checks = []
    for label, U, grid in fixtures:
        for s in grid:
            residuals = flat_torsion_identities(U, s)
            where, worst = f"on {label} at s={s}", max(residuals.values())
            if s == 0 and worst > RESIDUAL_TOL:
                checks.append(Check(f"torsion identities {where} flagged out of hypothesis",
                                    True, worst, f"max {worst:.2e}"))
                continue
            checks.append(Check(f"torsion identities {where}", worst <= RESIDUAL_TOL, worst,
                                f"max {worst:.2e}"))
            if U.n == 2:
                cyc = residuals["cyclic"]
                checks.append(Check(f"cyclic identity vacuous {where}", cyc == 0.0, cyc))
    return tuple(checks)


def surface() -> tuple:
    """Obstruction stages; the first record's value lists those seen on the dense grid."""
    stages = sorted({surface_obstruction(float(s)).excluded_by
                     for s in np.linspace(-3.0, 5.0, 1000)} - {OUT_OF_SCOPE})
    checks = [Check("dense grid: every admissible s is obstructed",
                    NO_OBSTRUCTION not in stages, stages, f"stages seen: {stages}")]
    for s in (0.0, 2.0):
        stage = surface_obstruction(s).excluded_by
        checks.append(Check(f"s={s} out of scope", stage == OUT_OF_SCOPE, stage))
    for root in QUADRATIC_ROOTS:
        stage = surface_obstruction(root).excluded_by
        checks.append(Check(f"quadratic root s={root:.6f} obstructed at the Jacobi stage",
                            stage == JACOBI_CONTRADICTION, stage))
    return tuple(checks)


def parallel() -> tuple:
    """Parallel-frame rigidity; the first record's value counts the valid non-Kahler draws:
    those whose Kahler ratio is at most RHO_MAX.  Its detail prints the smallest ratio
    over the draws."""
    hits = draws = 0
    smallest = np.inf
    for T in _draws():  # Gaussian draws, so every |T| > 0
        for s in (0.5, 1.0, 1.5, 3.0):
            rho = _ratios(T, s)
            hits += int(np.count_nonzero(rho <= RHO_MAX))
            smallest = min(smallest, float(rho.min()))
            draws += len(T)
    tor = chern_torsion(catalog.samelson_su2_r(1.0))
    U, jacobi = parallel_frame_reduction(tor, 2.0)
    flatness = max_abs(curvature(U, 2.0))
    return (
        Check("random parallel-frame draws: no valid non-Kahler structure at s outside {0,2}",
              hits == 0, hits, f"{draws} draws, smallest ratio {smallest:.3g}"),
        Check("samelson torsion regenerates a valid flat structure at s=2",
              jacobi.valid and flatness <= RESIDUAL_TOL, flatness),
        Check("descent skips the out-of-scope parameter s=2",
              torsion_descent(tor, 2.0) == "skipped"),
    )


def _draws():
    """The battery's random torsions: a stack of 200 antisymmetric draws at n = 2, then n = 3,
    cut in that order from one call of tensors.standard_normal at seed 20240811."""
    sizes = [200 * 2 * n**3 for n in (2, 3)]
    X = standard_normal(20240811, sum(sizes))
    for n, part in zip((2, 3), np.split(X, [sizes[0]])):
        T = part.reshape(200, 2, n, n, n)  # draw z is T[z, 0] + i T[z, 1]
        yield antisymmetrize_lower(T[:, 0] + 1j * T[:, 1])  # the real draws are not kept


def _ratios(T: np.ndarray, s: float) -> np.ndarray:
    """The Kahler ratio of the parallel-frame structure of every T[z] at s: the Frobenius
    norm of its three Jacobi families, in chunks of draws whose families fit in _CHUNK_BYTES,
    over |T[z]|^2.  A parallel frame is flat up to rounding: the curvature adds nothing."""
    width = max(1, _CHUNK_BYTES // (3 * 16 * T.shape[-1] ** 4))
    jacobi = np.empty(len(T))
    for start in range(0, len(T), width):
        families = jacobi_residual_tensors(*_parallel_frame(T[start:start + width], s))
        jacobi[start:start + width] = frobenius_rows(np.stack(families, axis=1))
    return kahler_ratio(jacobi, frobenius_rows(T))


SUITES = {"lemma31": lemma31, "surface": surface, "parallel": parallel}
