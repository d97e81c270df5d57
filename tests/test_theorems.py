"""Flat-case identity suites, the surface obstruction chain, and the descent."""

import re

import numpy as np
import pytest

import hermlie as hl
from hermlie import batteries, core, theorems

from conftest import random_structure

ROOT_MINUS = 2.0 / 7.0 * (3.0 - np.sqrt(2.0))
ROOT_PLUS = 2.0 / 7.0 * (3.0 + np.sqrt(2.0))


def antisym_random(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    T = 0.5 * scale * (T - T.transpose(0, 2, 1))
    return hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))


@pytest.mark.parametrize("s, message", [
    (np.nan, "s must be finite, got nan"), (np.inf, "s must be finite, got inf"),
    (-np.inf, "s must be finite, got -inf"), (1e200, "overflows at s=1e+200"),
], ids=["nan", "inf", "-inf", "1e200"])
@pytest.mark.parametrize("check", ["surface_obstruction", "flat_torsion_identities"])
def test_non_finite_or_overflowing_s_raises(check, s, message, samelson):
    # no verdict at an s that is not finite or whose powers leave the float range
    args = (samelson, s) if check == "flat_torsion_identities" else (s,)
    with pytest.raises(hl.exceptions.ValidationError, match=re.escape(message)):
        getattr(hl, check)(*args)


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


class TestSurfaceDerivativeTable:
    """The entry 4(s-1)(2s-1) T^1_{12,bar2} = s^2 (s-2) |lam|^2 that surface_obstruction reads."""

    def test_half_parameter_inconsistency(self):
        rep = hl.surface_obstruction(0.5)
        assert rep.excluded_by == theorems.DENOMINATOR_EXCLUSION
        assert rep.forced_constants["cleared_factor"] == pytest.approx(0.0)
        assert rep.forced_constants["cleared_t1_12_bar2_over_lam2"] == pytest.approx(-3 / 8)

    def test_generic_consistent(self):
        # the cleared factor is -0.48, so the entry is divided through: -0.768 / -0.48
        rep = hl.surface_obstruction(0.8)
        assert rep.excluded_by == theorems.QUADRATIC_MISMATCH
        assert rep.forced_constants["Gamma2_22_over_lambda_conjugate_route"] == pytest.approx(1.6)


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


class TestParallelFrameReduction:
    def test_zero_torsion(self):
        z = hl.TorsionData(T=np.zeros((3, 3, 3), complex), eta=np.zeros(3, complex))
        U, jacobi = hl.parallel_frame_reduction(z, 1.5)
        assert np.abs(U.C).max() == 0.0
        assert jacobi.max_abs == 0.0
        assert hl.curvature(U, 1.5).max_abs == 0.0

    def test_samelson_at_two(self, samelson):
        tor = hl.chern_torsion(samelson)
        U, jacobi = hl.parallel_frame_reduction(tor, 2.0)
        assert np.abs(U.C - samelson.C).max() <= 1e-14
        assert np.abs(U.D - samelson.D).max() <= 1e-14
        assert jacobi.max_abs <= 1e-14
        assert hl.curvature(U, 2.0).max_abs <= 1e-14

    def test_single_entry_s1_anticommutes(self):
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 0.7, -0.7
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        U, jacobi = hl.parallel_frame_reduction(tor, 1.0)
        assert np.abs(U.C).max() == 0.0  # C = 2(s-1)T = 0 at s=1
        assert np.abs(U.D + T).max() == 0.0  # D = -T
        fam = T.transpose(1, 0, 2)  # fam[i][k, j] = T^k_{ij}, the operator A_{e_i}
        prod = np.einsum("axy,byz->abxz", fam, fam)
        assert np.abs(prod + prod.transpose(1, 0, 2, 3)).max() == 0.0
        assert jacobi.max_abs == pytest.approx(0.49)  # |lam|^2 from the mixed family

    def test_flatness_identically_zero(self):
        # connection coefficients vanish by construction: curvature must too,
        # exactly where the parameter-s scalings of T round exactly
        for seed in range(5):
            tor = antisym_random(2 + seed % 2, 80 + seed)
            for s in (0.0, 0.5, 1.0, 2.0):
                U, _ = hl.parallel_frame_reduction(tor, s)
                assert hl.curvature(U, s).max_abs == 0.0
            U, _ = hl.parallel_frame_reduction(tor, 0.7)
            assert hl.curvature(U, 0.7).max_abs <= 1e-14


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
        assert res.status == "skipped"

    def test_near_zero_passes(self):
        tor = antisym_random(3, 5, scale=1e-10)
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.residual_norm == 0.0

    def test_near_hypothesis_torsion_reported_not_zeroed(self):
        # |lam|^2 below the tolerance lets the precondition pass while the
        # torsion itself is ~sqrt(tol); the descent must refuse to zero it
        lam = 5e-5
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = lam, -lam
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.status == "stuck"
        assert res.residual_norm == pytest.approx(lam * np.sqrt(2), rel=1e-6)

    def test_torsion_above_tol_is_stuck_though_each_piece_is_below(self):
        # |T| = 1.2e-8 in two orthogonal pieces of 0.85e-8 each, one along a common-kernel
        # direction: the verdict reads |T| itself, not the pieces
        a = 0.6e-8
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0], T[0, 0, 1], T[0, 1, 0] = a, -a, a, -a
        tor = hl.TorsionData(T=T, eta=np.einsum("kkr->r", T))
        res = hl.torsion_descent(tor, 1.0, tol=1e-8)
        assert res.status == "stuck"
        assert res.residual_norm == pytest.approx(2 * a, rel=1e-12)


class TestParallelBattery:
    def test_per_draw_worst_matches_the_reduction(self):
        # every 37th draw of each stack against its own parallel_frame_reduction
        for T in batteries._draws():
            for s in (0.5, 1.0, 1.5, 3.0):
                worst = batteries._worst_jacobi(T, s)
                for z in range(0, len(T), 37):
                    tor = hl.TorsionData(T=T[z], eta=np.einsum("kkr->r", T[z]))
                    _, jacobi = hl.parallel_frame_reduction(tor, s)
                    assert worst[z] == pytest.approx(jacobi.max_abs, rel=1e-13, abs=0.0)

    def test_samelson_slot_reads_zero_at_two(self, samelson):
        T = next(batteries._draws())[:7].copy()
        T[3] = hl.chern_torsion(samelson).T
        assert batteries._worst_jacobi(T, 2.0)[3] <= 1e-10
        assert batteries._worst_jacobi(T, 1.5)[3] > 1e-3  # s = 2 is what makes it valid

    def test_chunk_width_does_not_change_the_residuals(self, monkeypatch):
        T = list(batteries._draws())[1]  # n = 3, several chunks at the default width
        wide = batteries._worst_jacobi(T, 1.5)
        monkeypatch.setattr(batteries, "_CHUNK_BYTES", 1)  # chunks of one draw
        assert np.array_equal(batteries._worst_jacobi(T, 1.5), wide)

    def test_reduction_runs_only_for_the_fixed_checks(self, monkeypatch):
        calls = []
        reduction = theorems.parallel_frame_reduction

        def counted(*args, **kwargs):
            calls.append(1)
            return reduction(*args, **kwargs)

        monkeypatch.setattr(theorems, "parallel_frame_reduction", counted)
        checks = batteries.parallel()
        assert [c.ok for c in checks] == [True] * 3
        assert checks[0].value == 0
        assert checks[0].detail.startswith("1600 draws, smallest ratio ")
        assert 0 < len(calls) <= 2

    def test_detail_prints_the_smallest_ratio(self):
        # worst Jacobi / |T|^2, each draw against its own parallel_frame_reduction
        ratios = []
        for T in batteries._draws():
            for s in (0.5, 1.0, 1.5, 3.0):
                for z in range(len(T)):
                    tor = hl.TorsionData(T=T[z], eta=np.einsum("kkr->r", T[z]))
                    ratios.append(hl.parallel_frame_reduction(tor, s)[1].max_abs / tor.norm**2)
        assert len(ratios) == 1600
        detail = batteries.parallel()[0].detail
        assert detail == f"1600 draws, smallest ratio {min(ratios):.3g}" == (
            "1600 draws, smallest ratio 0.106")

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.0, 0.3, 2.7, -1.0])
    def test_n2_draws_sit_at_the_exact_gap(self, s):
        # at n = 2 the parallel-frame Jacobi residuals are s(s-2) times quadratics in T
        # (tests/test_exact.py), and ||residuals||_F / |T|^2 = |s(s-2)| on every draw
        T = next(batteries._draws())
        assert T.shape[1:] == (2, 2, 2)
        residuals = core.jacobi_residual_tensors(*core._parallel_frame(T, s))
        frob = np.sqrt(sum(np.square(np.abs(f)).reshape(len(T), -1).sum(axis=1)
                           for f in residuals))
        ratio = frob / np.square(np.abs(T)).reshape(len(T), -1).sum(axis=1)
        assert np.abs(ratio / abs(s * (s - 2)) - 1).max() <= 1e-14

    def test_n3_draws_stay_far_above_the_kahler_ratio(self):
        # the battery's ratio worst Jacobi / |T|^2 against RHO_MAX = 1e-4
        T = list(batteries._draws())[1]
        assert T.shape[1:] == (3, 3, 3)
        size = np.square(np.abs(T)).reshape(len(T), -1).sum(axis=1)
        for s in (0.5, 1.0, 1.5, 3.0):
            assert (batteries._worst_jacobi(T, s) / size).min() > 0.1


def test_parallel_battery_passes():
    # random parallel-frame torsion never induces a Jacobi-valid non-Kahler
    # structure at s outside {0, 2}; the su(2) x R torsion does at s = 2
    failed = [c.label for c in batteries.parallel() if not c.ok]
    assert not failed
