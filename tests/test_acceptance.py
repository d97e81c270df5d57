"""Acceptance criteria: one test per criterion, one printed verdict line each.

The whole module is designed to finish in well under five minutes on a
laptop; the search-based criteria dominate the runtime.
"""

import numpy as np

import hermlie as hl
from hermlie import search as S
from hermlie import structio, theorems
from hermlie.tensors import frobenius, max_abs

from conftest import (
    connection_flatness_residuals, curvature_as_flatness_families, from_unitary_structure,
    full_rows, levi_civita, point_from_torsion, random_structure, residual_vector,
)

SEED = 20240810
ROOT_MINUS, ROOT_PLUS = theorems.QUADRATIC_ROOTS
S_GRID_SIX = theorems.S_GRID_SIX


def verdict(num: int, label: str, ok: bool, detail: str = ""):
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num}: {label}{tail}")
    assert ok, f"criterion {num} failed: {label} {tail}"


def test_criterion_01_flat_kahler_fixture():
    ok = True
    worst = 0.0
    for q in (1.0, 5.0):
        P = hl.bdf_flat_kahler_4d(q)
        U = hl.to_unitary_structure(P)
        ok &= frobenius(hl.chern_torsion(U)) <= 1e-12
        ok &= levi_civita(U).curvature_residual <= 1e-12
        for s in S_GRID_SIX:
            res = max_abs(hl.curvature(U, s))
            worst = max(worst, res)
            ok &= res <= 1e-12
    verdict(1, "flat Kahler family is torsion-free and flat at every parameter",
            ok, f"worst flatness {worst:.1e}")


def test_criterion_02_bismut_flat_fixture():
    U = hl.samelson_su2_r(1.0)
    tnorm = frobenius(hl.chern_torsion(U))
    at2 = max_abs(hl.curvature(U, 2.0))
    at0 = max_abs(hl.curvature(U, 0.0))
    at1 = max_abs(hl.curvature(U, 1.0))
    # torsion norm recorded by the contraction oracle at first implementation
    ok = at2 <= 1e-12 and at0 >= 0.1 and at1 >= 0.1 and tnorm > 0.3
    ok &= abs(tnorm - 0.5) <= 1e-12
    verdict(2, "su(2) x R model is flat exactly at the Bismut parameter",
            ok, f"|T|={tnorm:.3f}, residuals s=2:{at2:.1e} s=0:{at0:.2f} s=1:{at1:.2f}")


def test_criterion_03_chern_flat_fixture():
    U = hl.affine_complex_group(1.0)
    at0 = max_abs(hl.curvature(U, 0.0))
    others = {s: max_abs(hl.curvature(U, s)) for s in (0.5, 1.0, 2.0)}
    tnorm = frobenius(hl.chern_torsion(U))
    ok = at0 <= 1e-12 and all(v >= 0.1 for v in others.values()) and tnorm > 0
    verdict(3, "complex-group frame is flat exactly at the Chern parameter",
            ok, f"s=0:{at0:.1e}, min other residual {min(others.values()):.2f}")


def test_criterion_04_torsion_identity_suite():
    checks = theorems.lemma31()
    ok = all(c.ok for c in checks)
    # in-hypothesis residuals; the non-Kahler Chern-flat pair at s = 0 must
    # only be flagged out of hypothesis
    worst = max(
        c.value for c in checks
        if c.label.startswith("torsion identities") and not c.label.endswith("hypothesis")
    )
    verdict(4, "flat-case torsion identities hold on every in-hypothesis flat fixture",
            ok, f"worst residual {worst:.1e}; cyclic family vacuous at n=2")


def test_criterion_05_identity_curvature_oracle():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    count = 0
    for trial in range(200):
        n = 2 + trial % 2
        U = random_structure(n, int(rng.integers(2**31)))
        for s in (0.0, 0.5, 1.0, 2.0, 3.0):
            holo, mixed = connection_flatness_residuals(U, s)
            R = hl.curvature(U, s)
            want_holo, want_mixed = curvature_as_flatness_families(R)
            scale = max(1.0, max_abs(R))
            worst = max(
                worst,
                np.abs(holo - want_holo).max() / scale,
                np.abs(mixed - want_mixed).max() / scale,
            )
            count += 1
    ok = worst <= 1e-12
    verdict(5, "flat-connection identities equal curvature blocks under the fixed map",
            ok, f"{count} structure/parameter pairs, worst rel dev {worst:.1e}")


def test_criterion_06_surface_rigidity_search():
    ok = True
    details = []
    for s in (0.3, ROOT_MINUS, 1.5, ROOT_PLUS, 3.0):
        prob = S.SearchProblem(
            n=2, s=float(s), restarts=100, seed=SEED, hunt=True,
            tol=1e-8, max_iters=400,
        )
        summ = S.multistart_search(prob)
        bad = summ.count(S.CONVERGED_NONKAHLER)
        details.append(f"s={s:.3f}:{bad}")
        ok &= bad == 0
    for s in (0.0, 2.0):
        prob = S.SearchProblem(
            n=2, s=s, restarts=100, seed=SEED, hunt=True,
            tol=1e-8, max_iters=400,
        )
        summ = S.multistart_search(prob)
        found = summ.count(S.CONVERGED_NONKAHLER)
        details.append(f"s={s:.0f}:{found}")
        ok &= found >= 1
    verdict(6, "hunt finds non-Kahler flat structures only at the endpoint parameters",
            ok, "nonkahler counts " + " ".join(details))


def test_criterion_07_parallel_frame_search():
    ok = True
    details = []
    for n in (2, 3):
        for s in (0.5, 1.0, 1.5):
            prob = S.SearchProblem(
                n=n, s=s, mode=S.PARALLEL_FRAME, restarts=100, seed=SEED,
                tol=1e-13, max_iters=400,
            )
            summ = S.multistart_search(prob)
            bad = summ.count(S.CONVERGED_NONKAHLER)
            details.append(f"n={n},s={s}:{bad}")
            ok &= bad == 0
    prob2 = S.SearchProblem(n=2, s=2.0, mode=S.PARALLEL_FRAME, tol=1e-13)
    T = hl.chern_torsion(hl.samelson_su2_r(1.0))
    res = S.lm_minimize(prob2, point_from_torsion(prob2, T))
    ok &= res.classification == S.CONVERGED_NONKAHLER
    details.append(f"s=2 seeded:{res.classification}")
    verdict(7, "parallel-frame search finds no non-Kahler structure off the endpoints",
            ok, " ".join(details))


def test_criterion_08_obstruction_grid():
    checks = theorems.surface()
    ok = all(c.ok for c in checks)
    stages = checks[0].value  # the dense-grid check comes first
    verdict(8, "every admissible parameter on the dense grid is obstructed",
            ok, f"stages seen {stages}; roots end at the Jacobi stage")


def test_criterion_09_half_parameter_rigidity():
    prob = S.SearchProblem(n=2, s=0.5, restarts=50, seed=SEED, tol=1e-13, max_iters=600)
    summ = S.multistart_search(prob)
    tight = [
        r for r in summ.results if max(r.final_jacobi, r.final_flatness) <= 1e-8
    ]
    worst_torsion = max((r.torsion_norm for r in tight), default=0.0)
    ok = all(r.torsion_norm <= 1e-6 for r in tight)
    verdict(9, "every tight half-parameter solution is Kahler",
            ok, f"{len(tight)} tight results, worst |T| {worst_torsion:.1e}")


def test_criterion_10_jacobian_correctness():
    problems = [
        S.SearchProblem(n=2, s=0.7),
        S.SearchProblem(n=3, s=1.0),
        S.SearchProblem(n=2, s=0.5, mode=S.PARALLEL_FRAME),
        S.SearchProblem(n=3, s=2.0, mode=S.PARALLEL_FRAME),
        S.SearchProblem(n=2, s=2.0, hunt=True),
    ]
    rng = np.random.default_rng(SEED)
    worst = 0.0
    points = 0
    for prob in problems:
        for _ in range(10):
            x = rng.standard_normal(S.unknown_count(prob))
            J = full_rows(x, prob)
            h = 1e-6
            scale = max(1.0, float(np.abs(J).max()))
            for col in rng.choice(S.unknown_count(prob), size=4, replace=False):
                e = np.zeros_like(x)
                e[col] = h
                fd = (residual_vector(x + e, prob) - residual_vector(x - e, prob)) / (2 * h)
                worst = max(worst, float(np.abs(J[:, col] - fd).max()) / scale)
            points += 1
    ok = worst <= 1e-6 and points == 50
    verdict(10, "analytic Jacobian matches central finite differences",
            ok, f"{points} points, worst rel dev {worst:.1e}")


def test_criterion_11_round_trips():
    fixtures = {
        "abelian3": hl.abelian(3),
        "affine": hl.affine_complex_group(1.0),
        "samelson": hl.samelson_su2_r(1.0),
        "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0)),
        "bdf6": hl.to_unitary_structure(
            hl.bdf_general(hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[[1.0, 2.0]]))
        ),
    }
    ok = True
    worst = 0.0
    for name, U in fixtures.items():
        back = hl.to_unitary_structure(from_unitary_structure(U))
        drift = max(
            float(np.abs(back.C - U.C).max()), float(np.abs(back.D - U.D).max())
        )
        worst = max(worst, drift)
        ok &= drift <= 1e-12
        payload = structio.emit_structure(U, name=name)
        ok &= structio.emit_structure(structio.parse_structure(payload), name=name) == payload
    verdict(11, "real-bridge and file round trips are exact",
            ok, f"worst conversion drift {worst:.1e}; file round trip bitwise")
