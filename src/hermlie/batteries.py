"""The rigidity verification batteries, one function per suite.

Each suite returns a tuple of Check records built from fixed fixtures,
grids and seeds; `hermlie verify-theorems` prints them and the
acceptance tests assert on them.  lemma31: flat-case torsion identities
on bdf4 (q = 1, 5) over S_GRID_SIX, su(2) x R at s = 2 and the complex
group at s = 0.  surface: the n = 2 obstruction chain on 1000 points of
[-3, 5], at s = 0, 2 and at the quadratic roots.  parallel: 1600 random
parallel-frame draws, the su(2) x R torsion at s = 2 and the descent;
the draws are evaluated as stacks, one batched Jacobi residual of the
parallel-frame structures per (n, s) and chunk of draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import catalog, theorems
from .core import _parallel_frame, chern_torsion, curvature, jacobi_residual_tensors
from .realform import to_unitary_structure

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
            suite = theorems.flat_torsion_identities(U, s)
            where, worst = f"on {label} at s={s}", suite.max_abs
            if suite.out_of_hypothesis and worst > RESIDUAL_TOL:
                checks.append(Check(f"torsion identities {where} flagged out of hypothesis",
                                    s == 0.0, worst, f"max {worst:.2e}"))
                continue
            checks.append(Check(f"torsion identities {where}", worst <= RESIDUAL_TOL, worst,
                                f"max {worst:.2e}"))
            if U.n == 2:
                cyc = suite.statuses["cyclic"]
                checks.append(Check(f"cyclic identity vacuous {where}", cyc == "vacuous", cyc))
    return tuple(checks)


def surface() -> tuple:
    """Obstruction stages; the first record's value lists those seen on the dense grid."""
    stages = sorted({theorems.surface_obstruction(float(s)).excluded_by
                     for s in np.linspace(-3.0, 5.0, 1000)} - {theorems.OUT_OF_SCOPE})
    checks = [Check("dense grid: every admissible s is obstructed",
                    theorems.NO_OBSTRUCTION not in stages, stages, f"stages seen: {stages}")]
    for s in (0.0, 2.0):
        stage = theorems.surface_obstruction(s).excluded_by
        checks.append(Check(f"s={s} out of scope", stage == theorems.OUT_OF_SCOPE, stage))
    for root in QUADRATIC_ROOTS:
        stage = theorems.surface_obstruction(root).excluded_by
        checks.append(Check(f"quadratic root s={root:.6f} obstructed at the Jacobi stage",
                            stage == theorems.JACOBI_CONTRADICTION, stage))
    return tuple(checks)


def parallel() -> tuple:
    """Parallel-frame rigidity; the first record's value counts valid non-Kahler draws."""
    hits = draws = 0
    for T in _draws():
        big = np.linalg.norm(T.reshape(len(T), -1), axis=1) > 1e-4
        for s in (0.5, 1.0, 1.5, 3.0):
            hits += int(np.count_nonzero((_worst_jacobi(T, s) <= 1e-8) & big))
            draws += len(T)
    tor = chern_torsion(catalog.samelson_su2_r(1.0))
    U, jacobi = theorems.parallel_frame_reduction(tor, 2.0)
    regenerated = max(jacobi.max_abs, curvature(U, 2.0).max_abs)
    return (
        Check("random parallel-frame draws: no valid non-Kahler structure at s outside {0,2}",
              hits == 0, hits, f"{draws} draws"),
        Check("samelson torsion regenerates a valid flat structure at s=2",
              regenerated <= RESIDUAL_TOL, regenerated),
        Check("descent skips the out-of-scope parameter s=2",
              theorems.torsion_descent(tor, 2.0).skipped),
    )


def _draws():
    """The battery's random torsions: a stack of 200 antisymmetric draws at n = 2, then n = 3."""
    rng = np.random.default_rng(20240811)
    for n in (2, 3):
        T = np.empty((200, n, n, n), dtype=complex)
        for z in range(len(T)):
            X = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            T[z] = 0.5 * (X - X.transpose(0, 2, 1))
        yield T


def _worst_jacobi(T: np.ndarray, s: float) -> np.ndarray:
    """Largest Jacobi residual of the parallel-frame structure of every T[z] at s.

    This is parallel_frame_reduction(T[z], s)[1].max_abs for each z,
    computed in chunks whose three residual families fit in _CHUNK_BYTES.
    """
    width = max(1, _CHUNK_BYTES // (3 * 16 * T.shape[-1] ** 4))
    worst = np.empty(len(T))
    for start in range(0, len(T), width):
        C, D = _parallel_frame(T[start:start + width], s)
        families = jacobi_residual_tensors(C, D)
        worst[start:start + width] = np.max(
            [np.abs(f).reshape(len(f), -1).max(axis=1) for f in families], axis=0)
    return worst


SUITES = {"lemma31": lemma31, "surface": surface, "parallel": parallel}
