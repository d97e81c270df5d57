"""Catalog fixtures: values, flags, scaling, and the noise generator."""

import numpy as np
import pytest

import hermlie as hl

from conftest import levi_civita, validate_real

SQ2 = np.sqrt(2.0)


class TestAbelian:
    def test_zero_tensors(self):
        for n in (1, 3):
            U = hl.abelian(n)
            assert np.abs(U.C).max() == 0.0 and np.abs(U.D).max() == 0.0
        assert hl.chern_torsion(hl.abelian(4)).norm == 0.0

    def test_bad_n(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.abelian(0)


class TestComplexGroup:
    def test_zero_is_abelian(self):
        U = hl.complex_group(np.zeros((2, 2, 2)))
        assert np.abs(U.C).max() == 0.0

    def test_affine_flags(self):
        U = hl.affine_complex_group(1.0)
        assert hl.validate_structure(U).valid
        assert hl.curvature(U, 0.0).max_abs <= 1e-14
        assert hl.chern_torsion(U).norm > 0
        assert hl.curvature(U, 2.0).max_abs > 0.1

    def test_jacobi_failure_rejected(self):
        C = np.zeros((3, 3, 3), complex)
        # [e1,e2]=e3 with [e2,e3]=e2 leaves [[e3,e1],e2] cyclic sum = -e3
        C[2, 0, 1], C[2, 1, 0] = 1, -1
        C[1, 1, 2], C[1, 2, 1] = 1, -1
        with pytest.raises(hl.exceptions.ValidationError):
            hl.complex_group(C)


class TestSamelson:
    def test_structure_relations(self):
        U = hl.samelson_su2_r(1.0)
        T = hl.chern_torsion(U).T
        assert np.abs(U.D + U.C).max() == 0.0  # D = -C
        assert np.abs(T - U.C / 2).max() <= 1e-15  # T = C/2
        assert np.abs(U.C - 2 * T).max() <= 1e-15  # C = 2(s-1)T at s=2
        assert np.abs(U.D + 2 * T).max() <= 1e-15  # D = -sT at s=2

    def test_flat_only_at_two(self):
        U = hl.samelson_su2_r(1.0)
        assert hl.curvature(U, 2.0).max_abs <= 1e-12
        assert hl.curvature(U, 0.0).max_abs > 0.1
        assert hl.curvature(U, 1.0).max_abs > 0.1
        assert np.abs(hl.gauduchon_connection(U, 2.0)).max() == 0.0

    def test_torsion_scales_linearly(self):
        t1 = hl.chern_torsion(hl.samelson_su2_r(1.0)).norm
        t2 = hl.chern_torsion(hl.samelson_su2_r(2.0)).norm
        assert t2 == pytest.approx(2 * t1)

    def test_degenerate(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.samelson_su2_r(0.0)


class TestBdf:
    def test_4d_flags(self):
        for q in (1.0, 5.0):
            P = hl.bdf_flat_kahler_4d(q)
            assert validate_real(P).max_abs <= 1e-12
            U = hl.to_unitary_structure(P)
            assert hl.chern_torsion(U).norm <= 1e-12
            assert levi_civita(U).curvature_residual <= 1e-12
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
                assert hl.curvature(U, s).max_abs <= 1e-12

    def test_degenerate_q(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.bdf_flat_kahler_4d(0.0)

    def test_general_reproduces_4d(self):
        spec = hl.BdfSpec(p=1, h_dim=1, c_dim=1, q=[[1.0]])
        U1 = hl.to_unitary_structure(hl.bdf_general(spec))
        U2 = hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))
        assert np.abs(U1.C - U2.C).max() <= 1e-14
        assert np.abs(U1.D - U2.D).max() <= 1e-14

    def test_general_abelian_case(self):
        spec = hl.BdfSpec(p=0, h_dim=0, c_dim=4, c_internal_pairs=2)
        U = hl.to_unitary_structure(hl.bdf_general(spec))
        assert np.abs(U.C).max() == 0.0 and np.abs(U.D).max() == 0.0

    def test_general_6d(self):
        spec = hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[[1.0, 2.0]])
        P = hl.bdf_general(spec)
        assert validate_real(P).max_abs <= 1e-12
        U = hl.to_unitary_structure(P)
        assert U.n == 3
        assert hl.chern_torsion(U).norm <= 1e-12
        assert levi_civita(U).curvature_residual <= 1e-12
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            assert hl.curvature(U, s).max_abs <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=1, h_dim=2, c_dim=2, q=[[1.0], [2.0]])  # rank < h_dim
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[[1.0, 0.0]])  # dead plane
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=1, h_dim=1, c_dim=2, q=[[1.0]])  # pairing mismatch


def test_every_catalog_output_is_valid():
    complex_fixtures = [
        hl.abelian(1),
        hl.abelian(3),
        hl.affine_complex_group(1.0),
        hl.samelson_su2_r(1.0),
        hl.samelson_su2_r(-2.0),
    ]
    for U in complex_fixtures:
        assert hl.validate_structure(U, 1e-12).max_abs <= 1e-12
    real_fixtures = [
        hl.bdf_flat_kahler_4d(1.0),
        hl.bdf_flat_kahler_4d(-3.0),
        hl.bdf_general(hl.BdfSpec(p=2, h_dim=2, c_dim=2, q=[[1.0, 0.5], [0.0, 2.0]])),
        hl.bdf_general(hl.BdfSpec(p=2, h_dim=2, c_dim=2, q=[[1.0, 0.0], [0.5, 2.0]],
                                  h_internal_pairs=1, c_internal_pairs=1)),
    ]
    for P in real_fixtures:
        assert validate_real(P, 1e-12).max_abs <= 1e-12
        U = hl.to_unitary_structure(P)
        assert hl.validate_structure(U, 1e-12).max_abs <= 1e-12


class TestPerturb:
    def test_eps_zero_is_identity(self):
        U = hl.samelson_su2_r(1.0)
        assert hl.perturb(U, 0.0, 5) is U

    def test_detector_calibration(self):
        # noise on the abelian structure at n >= 2 should trip the validator
        fired = 0
        for seed in range(100):
            U = hl.perturb(hl.abelian(2), 0.1, seed)
            if hl.validate_structure(U, 1e-9).max_abs > 1e-9:
                fired += 1
        assert fired >= 95

    def test_n1_noise_stays_valid(self):
        # at n = 1 the identities cancel identically, whatever D is
        for seed in range(20):
            U = hl.perturb(hl.abelian(1), 0.5, seed)
            assert hl.validate_structure(U, 1e-12).max_abs <= 1e-15

    def test_flatness_sensitivity(self):
        U = hl.perturb(hl.samelson_su2_r(1.0), 1e-6, 3)
        assert hl.curvature(U, 2.0).max_abs > 1e-8

    def test_deterministic(self):
        a = hl.perturb(hl.abelian(2), 0.1, 9)
        b = hl.perturb(hl.abelian(2), 0.1, 9)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D)
