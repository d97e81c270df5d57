"""Flat-case identity suites, the surface obstruction chain, and the descent."""

import re

import numpy as np
import pytest

import hermlie as hl
from hermlie import core, theorems
from hermlie.tensors import frobenius, max_abs

from conftest import random_structure

ROOT_MINUS = 2.0 / 7.0 * (3.0 - np.sqrt(2.0))
ROOT_PLUS = 2.0 / 7.0 * (3.0 + np.sqrt(2.0))


def antisym_random(n, seed):
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    return 0.5 * (T - T.transpose(0, 2, 1))


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
            residuals = hl.flat_torsion_identities(bdf4_structure, s)
            assert max(residuals.values()) <= 1e-12

    def test_samelson_flat_case(self, samelson):
        residuals = hl.flat_torsion_identities(samelson, 2.0)
        assert list(residuals) == ["exchange", "cyclic", "exchange_reduced", "conjugate"]
        assert all(type(v) is float for v in residuals.values())
        assert max(residuals.values()) <= 1e-12
        assert residuals["cyclic"] == 0.0  # prefactor (n-2)(s-1) = 0 at n = 2

    def test_out_of_hypothesis_flag(self, affine):
        # flat at s = 0 and not Kahler, yet not a counterexample: at s = 0 the
        # identities carry no content, which is why lemma31 flags it
        assert max(hl.flat_torsion_identities(affine, 0.0).values()) > 1e-10

    def test_cyclic_not_vacuous_in_higher_dim(self):
        # the residual itself reads the prefactor (n-2)(s-1): 0.0 at s = 1, not at s = 0.5
        U = random_structure(3, 9)
        assert hl.flat_torsion_identities(U, 0.5)["cyclic"] > 1.0
        assert hl.flat_torsion_identities(U, 1.0)["cyclic"] == 0.0


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
        U, jacobi = hl.parallel_frame_reduction(np.zeros((3, 3, 3), complex), 1.5)
        assert np.abs(U.C).max() == 0.0
        assert jacobi.max_abs == 0.0
        assert max_abs(hl.curvature(U, 1.5)) == 0.0

    def test_samelson_at_two(self, samelson):
        U, jacobi = hl.parallel_frame_reduction(hl.chern_torsion(samelson), 2.0)
        assert np.abs(U.C - samelson.C).max() <= 1e-14
        assert np.abs(U.D - samelson.D).max() <= 1e-14
        assert jacobi.max_abs <= 1e-14
        assert max_abs(hl.curvature(U, 2.0)) <= 1e-14

    def test_single_entry_s1_anticommutes(self):
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 0.7, -0.7
        U, jacobi = hl.parallel_frame_reduction(T, 1.0)
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
            T = antisym_random(2 + seed % 2, 80 + seed)
            for s in (0.0, 0.5, 1.0, 2.0):
                U, _ = hl.parallel_frame_reduction(T, s)
                assert max_abs(hl.curvature(U, s)) == 0.0
            U, _ = hl.parallel_frame_reduction(T, 0.7)
            assert max_abs(hl.curvature(U, 0.7)) <= 1e-14


NEAR_TWO = 2.0 + 2e-9  # just outside the radius 1e-9 around s = 2 where the descent skips


class TestTorsionDescent:
    def test_zero_torsion(self):
        for s in (0.5, 1.0, 1.5):
            assert hl.torsion_descent(np.zeros((3, 3, 3), complex), s) == "completed"

    def test_single_entry_s1_fails_hypothesis(self):
        # invalid at every scale; at lam = 5e-5 the Jacobi residual is 2.5e-9, but the
        # precondition is validate_structure's relative verdict
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0] = 1.0, -1.0
        for lam in (0.7, 5e-5):
            with pytest.raises(hl.exceptions.HypothesisError):
                hl.torsion_descent(lam * T, 1.0)

    def test_samelson_out_of_scope(self, samelson):
        assert hl.torsion_descent(hl.chern_torsion(samelson), 2.0) == "skipped"

    @pytest.mark.parametrize("s", [0.0, 2.0, 2.0 + 5e-10])
    def test_scope_is_tested_before_the_precondition(self, s):
        # a random n = 3 torsion induces an invalid structure at s = 1, and at s = 0 and 2 too,
        # but there the argument does not apply: skipped, not HypothesisError
        T = antisym_random(3, 1)
        with pytest.raises(hl.exceptions.HypothesisError):
            hl.torsion_descent(T, 1.0)
        assert not hl.parallel_frame_reduction(T, s)[1].valid
        assert hl.torsion_descent(T, s) == "skipped"

    @pytest.mark.parametrize("s", [1.0, 2.0])
    @pytest.mark.parametrize("T, error", [
        (np.full((3, 3, 3), np.nan), hl.exceptions.ValidationError),
        (np.zeros((3, 3, 2)), hl.exceptions.DimensionMismatchError),
    ], ids=["nan", "shape"])
    def test_a_bad_torsion_raises_in_and_out_of_scope(self, T, error, s):
        with pytest.raises(error, match="torsion"):
            hl.torsion_descent(T, s)

    def test_near_zero_passes(self, samelson):
        # a valid torsion just outside s = 2 is nonzero at every scale, so it is stuck at
        # every scale (once read as completed at 1e-10, where |T| fell below a fixed 1e-8)
        T = hl.chern_torsion(samelson)
        for k in (1.0, 1e-10, 2.0**-100, 2.0**100):
            assert hl.torsion_descent(k * T, NEAR_TWO) == "stuck"

    def test_near_hypothesis_torsion_reported_not_zeroed(self, samelson):
        # just outside s = 2 the samelson torsion barely passes the precondition
        # (5.0e-10 <= 2.0e-9), and |T| = 0.5: the descent reports it rather than zero it
        T = hl.chern_torsion(samelson)
        _, jacobi = hl.parallel_frame_reduction(T, NEAR_TWO)
        assert jacobi.valid
        assert jacobi.max_abs == pytest.approx(5.0e-10, rel=1e-6)
        assert jacobi.threshold == pytest.approx(2.0e-9, rel=1e-6)
        assert hl.torsion_descent(T, NEAR_TWO) == "stuck"

    def test_torsion_above_tol_is_stuck_though_each_piece_is_below(self, samelson):
        # |T| = 1.2e-8 with every entry below 1e-8: the verdict reads T itself
        T = hl.chern_torsion(samelson)
        T = T * (1.2e-8 / frobenius(T))
        assert np.abs(T).max() < 1e-8 < frobenius(T)
        assert hl.torsion_descent(T, NEAR_TWO) == "stuck"
        # two pieces of 0.85e-8 at s = 1 induce a structure that is invalid at every scale
        a = 0.6e-8
        T = np.zeros((3, 3, 3), complex)
        T[2, 0, 1], T[2, 1, 0], T[0, 0, 1], T[0, 1, 0] = a, -a, a, -a
        with pytest.raises(hl.exceptions.HypothesisError):
            hl.torsion_descent(T, 1.0)


def test_verdicts_do_not_depend_on_the_scale_of_the_torsion(samelson):
    # the samelson torsion at s = 1.5 induces an invalid structure at every scale (once read
    # as HypothesisError at scale 1, stuck at 1e-6 and completed at 1e-9)
    T = hl.chern_torsion(samelson)
    for k in (1.0, 1e-6, 1e-9, 1e6):
        with pytest.raises(hl.exceptions.HypothesisError):
            hl.torsion_descent(k * T, 1.5)
    # the battery's ratio: its Jacobi norms are quadratic in T, |T| is linear, and every
    # step scales exactly by powers of two
    for T in theorems._draws():
        for s in (0.5, 3.0):
            ratios = theorems._ratios(T, s)
            for k in (-100, 100):
                assert np.array_equal(theorems._ratios(T * 2.0**k, s), ratios)


def oracle_ratio(T, s):
    """Frobenius norm of the Jacobi residuals of parallel_frame_reduction(T, s) over |T|^2,
    summed entry by entry from core.jacobi_residual_tensors."""
    U, _ = hl.parallel_frame_reduction(T, s)
    squares = sum(np.sum(np.square(np.abs(f))) for f in core.jacobi_residual_tensors(U.C, U.D))
    return np.sqrt(squares) / frobenius(T)**2


class TestParallelBattery:
    def test_per_draw_worst_matches_the_reduction(self):
        # every 37th draw of each stack against the oracle on its own parallel_frame_reduction
        for T in theorems._draws():
            for s in (0.5, 1.0, 1.5, 3.0):
                ratios = theorems._ratios(T, s)
                for z in range(0, len(T), 37):
                    assert ratios[z] == pytest.approx(oracle_ratio(T[z], s), rel=1e-13, abs=0.0)

    def test_samelson_slot_reads_zero_at_two(self, samelson):
        T = next(theorems._draws())[:7].copy()
        T[3] = hl.chern_torsion(samelson)
        assert theorems._ratios(T, 2.0)[3] <= 1e-10
        assert theorems._ratios(T, 1.5)[3] > 1e-3  # s = 2 is what makes it valid

    def test_chunk_width_does_not_change_the_residuals(self, monkeypatch):
        T = list(theorems._draws())[1]  # n = 3, several chunks at the default width
        wide = theorems._ratios(T, 1.5)
        monkeypatch.setattr(theorems, "_CHUNK_BYTES", 1)  # chunks of one draw
        assert np.array_equal(theorems._ratios(T, 1.5), wide)

    def test_reduction_runs_only_for_the_fixed_checks(self, monkeypatch):
        calls = []
        reduction = theorems.parallel_frame_reduction

        def counted(T, s):
            calls.append(T)
            return reduction(T, s)

        monkeypatch.setattr(theorems, "parallel_frame_reduction", counted)
        checks = theorems.parallel()
        assert [c.ok for c in checks] == [True] * 3
        assert checks[0].value == 0
        assert checks[0].detail.startswith("1600 draws, smallest ratio ")
        assert 0 < len(calls) <= 2
        # the samelson torsion in its own orientation: its axis reversal, antisymmetrized,
        # is half of it and still regenerates a valid flat structure at s = 2
        want = hl.chern_torsion(hl.samelson_su2_r(1.0))
        assert all(T.shape == want.shape and T.tobytes() == want.tobytes() for T in calls)

    def test_detail_prints_the_smallest_ratio(self):
        # the oracle over every draw; the smallest is n = 3 at s = 0.5
        ratios = [oracle_ratio(T[z], s) for T in theorems._draws()
                  for s in (0.5, 1.0, 1.5, 3.0) for z in range(len(T))]
        assert len(ratios) == 1600
        detail = theorems.parallel()[0].detail
        assert detail == f"1600 draws, smallest ratio {min(ratios):.3g}" == (
            "1600 draws, smallest ratio 0.578")

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5, 3.0, 0.3, 2.7, -1.0])
    def test_n2_draws_sit_at_the_exact_gap(self, s):
        # at n = 2 the parallel-frame Jacobi residuals are s(s-2) times quadratics in T
        # (tests/test_exact.py), and the battery's ratio is |s(s-2)| on every draw
        T = next(theorems._draws())
        assert T.shape[1:] == (2, 2, 2)
        assert np.abs(theorems._ratios(T, s) / abs(s * (s - 2)) - 1).max() <= 1e-14

    def test_n3_draws_stay_far_above_the_kahler_ratio(self):
        # no n = 3 draw beats the infimum kappa of the ratio that the parallel-frame hunts
        # polish to (kappa^2 is rational), which stands far above RHO_MAX = 1e-4
        T = list(theorems._draws())[1]
        assert T.shape[1:] == (3, 3, 3)
        for s, kappa_squared in ((0.5, 5 / 24), (1.0, 2 / 3), (1.5, 27 / 64), (3.0, 27 / 4)):
            assert theorems._ratios(T, s).min() >= np.sqrt(kappa_squared) * (1 - 1e-12)


def test_parallel_battery_passes():
    # random parallel-frame torsion never induces a Jacobi-valid non-Kahler
    # structure at s outside {0, 2}; the su(2) x R torsion does at s = 2
    failed = [c.label for c in theorems.parallel() if not c.ok]
    assert not failed
