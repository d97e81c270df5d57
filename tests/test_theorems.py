"""Flat-case identity suites, the surface obstruction chain, and the descent."""

import numpy as np
import pytest

import hermlie as hl
from hermlie import batteries, theorems
from hermlie.tensors import transform_frame

from conftest import random_structure, random_unitary

ROOT_MINUS = 2.0 / 7.0 * (3.0 - np.sqrt(2.0))
ROOT_PLUS = 2.0 / 7.0 * (3.0 + np.sqrt(2.0))


def antisym_random(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    T = 0.5 * scale * (T - T.transpose(0, 2, 1))
    return hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))


class TestTorsionIdentities:
    def test_kahler_trivially_zero(self, bdf4_structure):
        for s in (-1.0, 0.5, 1.0, 2.0, 3.0):
            suite = hl.flat_torsion_identities(bdf4_structure, s)
            assert suite.max_abs <= 1e-12

    def test_samelson_flat_case(self, samelson):
        suite = hl.flat_torsion_identities(samelson, 2.0)
        assert suite.max_abs <= 1e-12
        assert suite.statuses["cyclic"] == "vacuous"
        assert not suite.out_of_hypothesis

    def test_out_of_hypothesis_flag(self, affine):
        suite = hl.flat_torsion_identities(affine, 0.0)
        assert suite.out_of_hypothesis

    def test_cyclic_not_vacuous_in_higher_dim(self):
        U = random_structure(3, 9)
        suite = hl.flat_torsion_identities(U, 0.5)
        assert suite.statuses["cyclic"] == "evaluated"
        suite1 = hl.flat_torsion_identities(U, 1.0)
        assert suite1.statuses["cyclic"] == "vacuous"
        assert suite1.statuses["exchange_reduced"] == "not_applicable"


class TestHalfFlatTrace:
    def test_zero_iff_kahler(self):
        assert hl.half_flat_trace(hl.chern_torsion(hl.abelian(3))) == 0.0
        for seed in range(10):
            tor = hl.chern_torsion(random_structure(2, 50 + seed))
            value = hl.half_flat_trace(tor)
            assert value >= 0
            assert (value == 0) == (tor.norm == 0)

    def test_samelson_value(self, samelson):
        # sum |T|^2 = 2 * (1/8), |eta|^2 = 1/8 -> (1/4)(1/4 + 1/8) = 3/32
        assert hl.half_flat_trace(hl.chern_torsion(samelson)) == pytest.approx(3 / 32)

    def test_quadratic_scaling(self):
        t1 = hl.half_flat_trace(hl.chern_torsion(hl.samelson_su2_r(1.0)))
        t3 = hl.half_flat_trace(hl.chern_torsion(hl.samelson_su2_r(3.0)))
        assert t3 == pytest.approx(9 * t1)


class TestSurfaceDerivativeTable:
    def test_endpoint_values(self):
        assert hl.surface_derivative_table(1.0, 2.0).t1_12_2 == 0
        assert hl.surface_derivative_table(1.0, 0.0).t1_12_2 == pytest.approx(2.0)

    def test_half_parameter_inconsistency(self):
        table = hl.surface_derivative_table(1.0, 0.5)
        assert table.cleared_factor == pytest.approx(0.0)
        assert table.cleared_t1_12_bar2 == pytest.approx(-3 / 8)
        assert not table.consistent

    def test_generic_consistent(self):
        assert hl.surface_derivative_table(2.0 - 1.0j, 0.8).consistent


class TestSurfaceObstruction:
    def test_roots_fail_at_jacobi_stage(self):
        for root in (ROOT_MINUS, ROOT_PLUS):
            rep = hl.surface_obstruction(root)
            assert abs(rep.forced_constants["quadratic_7s2_12s_4"]) <= 1e-12
            assert rep.excluded_by == theorems.JACOBI_CONTRADICTION

    def test_generic_quadratic_mismatch(self):
        rep = hl.surface_obstruction(1.5)
        assert rep.excluded_by == theorems.QUADRATIC_MISMATCH
        assert rep.forced_constants["quadratic_7s2_12s_4"] == pytest.approx(1.75)

    def test_scope_and_denominator(self):
        for s in (0.0, 2.0):
            assert hl.surface_obstruction(s).excluded_by == theorems.OUT_OF_SCOPE
        for s in (0.5, 1.0):
            assert hl.surface_obstruction(s).excluded_by == theorems.DENOMINATOR_EXCLUSION

    def test_forced_constants_at_roots(self):
        rep = hl.surface_obstruction(ROOT_PLUS)
        s = ROOT_PLUS
        assert rep.forced_constants["D1_21_over_lambda"] == pytest.approx(5 * s - 4)
        assert rep.forced_constants["C1_12_plus_D1_12_over_lambda"] == pytest.approx(5 * s - 6)


class TestTorsionOperators:
    def test_linearity(self):
        tor = hl.chern_torsion(random_structure(3, 60))
        rng = np.random.default_rng(0)
        X = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        Y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a, b = 1.3 - 0.2j, 0.4 + 2.0j
        lhs = hl.torsion_operator(tor, a * X + b * Y).matrix
        rhs = a * hl.torsion_operator(tor, X).matrix + b * hl.torsion_operator(tor, Y).matrix
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_matrix_convention(self):
        tor = antisym_random(3, 1)
        op = hl.torsion_operator(tor, [1.0, 0.0, 0.0])
        assert np.allclose(op.matrix, tor.T[:, 0, :])  # (k, j) entry = T^k_{1j}


class TestParallelFrameReduction:
    def test_zero_torsion(self):
        z = hl.TorsionData(T=np.zeros((3, 3, 3), complex), eta=np.zeros(3, complex))
        U, diag = hl.parallel_frame_reduction(z, 1.5)
        assert np.abs(U.C).max() == 0.0
        assert diag.jacobi.max_abs == 0.0
        assert diag.nilpotency_max == 0.0
        assert diag.anticommutator_max == 0.0

    def test_samelson_at_two(self, samelson):
        tor = hl.chern_torsion(samelson)
        U, diag = hl.parallel_frame_reduction(tor, 2.0)
        assert np.abs(U.C - samelson.C).max() <= 1e-14
        assert np.abs(U.D - samelson.D).max() <= 1e-14
        assert diag.jacobi.max_abs <= 1e-14
        assert diag.flatness_max <= 1e-14
        assert diag.quadratic_norm_max <= 1e-13

    def test_single_entry_s1_anticommutes(self):
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 0.7, -0.7
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        U, diag = hl.parallel_frame_reduction(tor, 1.0)
        assert np.abs(U.C).max() == 0.0  # C = 2(s-1)T = 0 at s=1
        assert np.abs(U.D + T).max() == 0.0  # D = -T
        assert diag.anticommutator_max == 0.0
        assert diag.jacobi.max_abs == pytest.approx(0.49)  # |lam|^2 from the mixed family

    def test_flatness_identically_zero(self):
        # connection coefficients vanish by construction: curvature must too
        for seed in range(5):
            tor = antisym_random(2 + seed % 2, 80 + seed)
            _, diag = hl.parallel_frame_reduction(tor, 0.7)
            assert diag.flatness_max <= 1e-14

    def test_quadratic_norm_matches_conjugate_identity_contraction(self):
        # the (i,j) quadratic norm identity is the conjugate-family identity
        # contracted at k=i, l=j and divided by -s
        for seed in range(5):
            tor = antisym_random(3, 90 + seed)
            T = tor.T
            cT = np.conj(T)
            for s in (0.5, 1.2, 3.0):
                quad = theorems.quadratic_norm_identity(T, s)
                rhs = (
                    -4 * s * (s - 1) ** 2 * np.einsum("rij,rkl->ijkl", T, cT)
                    - s * (5 * s**2 - 10 * s + 4)
                    * (np.einsum("kir,jlr->ijkl", T, cT) - np.einsum("kjr,ilr->ijkl", T, cT))
                    + s**3
                    * (np.einsum("lir,jkr->ijkl", T, cT) - np.einsum("ljr,ikr->ijkl", T, cT))
                )
                contracted = np.einsum("ijij->ij", rhs)
                assert np.abs(quad - (-contracted / s)).max() <= 1e-12


class TestCommonKernel:
    def test_zero_torsion_convention(self):
        z = hl.TorsionData(T=np.zeros((3, 3, 3), complex), eta=np.zeros(3, complex))
        w = hl.common_kernel(z)
        assert np.allclose(w, [1.0, 0.0, 0.0])

    def test_single_entry_kernel_direction(self):
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 0.7, -0.7
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        w = hl.common_kernel(tor)
        assert abs(abs(w[2]) - 1.0) <= 1e-12

    def test_full_rank_returns_none(self):
        lam = 0.6
        T = np.zeros((2, 2, 2), complex)
        T[0, 0, 1], T[0, 1, 0] = lam, -lam
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        assert hl.common_kernel(tor) is None
        # both singular values equal |lam| by hand: columns are orthogonal
        fam = theorems.torsion_operator_family(tor)
        sing = np.linalg.svd(fam.reshape(4, 2), compute_uv=False)
        assert np.allclose(sing, [lam, lam])

    def test_anticommuting_family_has_kernel(self):
        # rotate the single-entry anticommuting family through random gauges
        base = np.zeros((3, 3, 3), complex)
        base[2, 0, 1], base[2, 1, 0] = 1.1, -1.1
        for seed in range(20):
            V = random_unitary(3, 1300 + seed)
            T = transform_frame(base, V)
            tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
            fam = theorems.torsion_operator_family(tor)
            prod = np.einsum("axy,byz->abxz", fam, fam)
            assert np.abs(prod + prod.transpose(1, 0, 2, 3)).max() <= 1e-12
            w = hl.common_kernel(tor)
            assert w is not None
            worst = max(
                np.abs(hl.torsion_operator(tor, np.eye(3)[i]).matrix @ w).max()
                for i in range(3)
            )
            assert worst <= 1e-10


class TestTorsionDescent:
    def test_zero_torsion(self):
        z = hl.TorsionData(T=np.zeros((3, 3, 3), complex), eta=np.zeros(3, complex))
        for s in (0.5, 1.0, 1.5):
            assert hl.torsion_descent(z, s).residual_norm == 0.0

    def test_single_entry_s1_fails_hypothesis(self):
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 0.7, -0.7
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        with pytest.raises(hl.exceptions.HypothesisError):
            hl.torsion_descent(tor, 1.0)

    def test_samelson_out_of_scope(self, samelson):
        res = hl.torsion_descent(hl.chern_torsion(samelson), 2.0)
        assert res.skipped
        assert res.status == "skipped"

    def test_near_zero_passes(self):
        tor = antisym_random(3, 5, scale=1e-10)
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.residual_norm == 0.0

    def test_near_hypothesis_torsion_reported_not_zeroed(self):
        # |lam|^2 below the tolerance lets the precondition pass while the
        # torsion itself is ~sqrt(tol); the peel must refuse to zero it
        lam = 5e-5
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = lam, -lam
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.status == "stuck"
        assert res.residual_norm == pytest.approx(lam * np.sqrt(2), rel=1e-6)

    def test_peel_step_reduces_embedded_torsion(self):
        # torsion supported on the first two coordinates of a 3-space:
        # one kernel direction peels cleanly, then the full-rank core sticks
        lam = 5e-5
        T = np.zeros((3, 3, 3), complex)
        T[0, 0, 1], T[0, 1, 0] = lam, -lam
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.status == "stuck"
        assert len(res.steps) == 1
        assert res.steps[0].peel_residual <= 1e-12
        assert res.residual_norm == pytest.approx(lam * np.sqrt(2), rel=1e-6)


def test_parallel_battery_passes():
    # random parallel-frame torsion never induces a Jacobi-valid non-Kahler
    # structure at s outside {0, 2}; the su(2) x R torsion does at s = 2
    failed = [c.label for c in batteries.parallel() if not c.ok]
    assert not failed
