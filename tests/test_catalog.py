"""Catalog fixtures: values, flags, scaling, and the noise generator."""

import hashlib

import numpy as np
import pytest

import hermlie as hl
from hermlie.cli import main
from hermlie.tensors import frobenius, max_abs

from conftest import levi_civita, random_unitary, transform_frame, validate_real

SQ2 = np.sqrt(2.0)


class TestAbelian:
    def test_zero_tensors(self):
        for n in (1, 3):
            U = hl.abelian(n)
            assert np.abs(U.C).max() == 0.0 and np.abs(U.D).max() == 0.0
        assert frobenius(hl.chern_torsion(hl.abelian(4))) == 0.0

    def test_bad_n(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.abelian(0)


def test_too_large_n_is_named():
    # NumPy refuses 14 PiB before touching memory
    for build in (hl.abelian, lambda n: hl.affine_complex_group(1.0, n)):
        with pytest.raises(hl.exceptions.DegenerateParameterError, match="^n=100000 is too large"):
            build(100000)


def test_too_large_bdf_dimension_is_named():
    # the bracket table of dimension 40002 takes 466 TiB: NumPy refuses it untouched
    spec = hl.BdfSpec(p=20000, h_dim=1, c_dim=1, q=np.ones(20000))
    with pytest.raises(hl.exceptions.ValidationError, match="^total dimension 40002 is too large"):
        hl.bdf_general(spec)


class TestComplexGroup:
    def test_zero_is_abelian(self):
        U = hl.complex_group(np.zeros((2, 2, 2)))
        assert np.abs(U.C).max() == 0.0

    def test_affine_flags(self):
        U = hl.affine_complex_group(1.0)
        assert hl.validate_structure(U).valid
        assert max_abs(hl.curvature(U, 0.0)) <= 1e-14
        assert frobenius(hl.chern_torsion(U)) > 0
        assert max_abs(hl.curvature(U, 2.0)) > 0.1

    def test_jacobi_failure_rejected(self):
        C = np.zeros((3, 3, 3), complex)
        # [e1,e2]=e3 with [e2,e3]=e2 leaves [[e3,e1],e2] cyclic sum = -e3
        C[2, 0, 1], C[2, 1, 0] = 1, -1
        C[1, 1, 2], C[1, 2, 1] = 1, -1
        for k in (-20, 0, 20, 40):
            with pytest.raises(hl.exceptions.ValidationError, match="violates"):
                hl.complex_group(C * 2.0**k)

    def test_jacobi_is_judged_relative_to_the_size_of_C(self):
        # sl(2, C): [h, e] = 2 e, [h, f] = -2 f, [e, f] = h, in a random unitary frame; its
        # family-1 residual at scale 1e3 is 7.7e-10, below 1e-12 (|C|^2 + |D|^2) = 0.018
        C = np.zeros((3, 3, 3), complex)
        for j, i, k, c in ((1, 0, 1, 2.0), (2, 0, 2, -2.0), (0, 1, 2, 1.0)):
            C[j, i, k], C[j, k, i] = c, -c
        C = transform_frame(C, random_unitary(3, 11))
        for scale in (1e3, *(2.0**k for k in (-20, 0, 20, 40))):
            U = hl.complex_group(C * scale)
            assert hl.validate_structure(U).valid and not U.D.any()


class TestSamelson:
    def test_structure_relations(self):
        U = hl.samelson_su2_r(1.0)
        T = hl.chern_torsion(U)
        assert np.abs(U.D + U.C).max() == 0.0  # D = -C
        assert np.abs(T - U.C / 2).max() <= 1e-15  # T = C/2
        assert np.abs(U.C - 2 * T).max() <= 1e-15  # C = 2(s-1)T at s=2
        assert np.abs(U.D + 2 * T).max() <= 1e-15  # D = -sT at s=2

    def test_flat_only_at_two(self):
        U = hl.samelson_su2_r(1.0)
        assert max_abs(hl.curvature(U, 2.0)) <= 1e-12
        assert max_abs(hl.curvature(U, 0.0)) > 0.1
        assert max_abs(hl.curvature(U, 1.0)) > 0.1
        assert np.abs(hl.gauduchon_connection(U, 2.0)).max() == 0.0

    def test_torsion_scales_linearly(self):
        t1 = frobenius(hl.chern_torsion(hl.samelson_su2_r(1.0)))
        t2 = frobenius(hl.chern_torsion(hl.samelson_su2_r(2.0)))
        assert t2 == pytest.approx(2 * t1)

    def test_degenerate(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.samelson_su2_r(0.0)


def bdf4_presentation(q):
    """The 4-dimensional flat Kahler algebra, written out: orthonormal (X, Y, Z, W) with
    [X, Y] = q Z, [X, Z] = -q Y, W central, J X = W and J Y = Z."""
    f = np.zeros((4, 4, 4))
    X, Y, Z, W = 0, 1, 2, 3
    f[Z, X, Y] = q
    f[Z, Y, X] = -q
    f[Y, X, Z] = -q
    f[Y, Z, X] = q
    J = np.zeros((4, 4))
    J[W, X] = 1.0
    J[X, W] = -1.0
    J[Z, Y] = 1.0
    J[Y, Z] = -1.0
    return hl.RealPresentation(dim=4, f=f, G=np.eye(4), J=J)


class TestBdf:
    def test_4d_flags(self):
        for q in (1.0, 5.0):
            P = hl.bdf_flat_kahler_4d(q)
            assert validate_real(P).max_abs <= 1e-12
            U = hl.to_unitary_structure(P)
            assert frobenius(hl.chern_torsion(U)) <= 1e-12
            assert levi_civita(U).curvature_residual <= 1e-12
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
                assert max_abs(hl.curvature(U, s)) <= 1e-12

    def test_degenerate_q(self):
        with pytest.raises(hl.exceptions.DegenerateParameterError):
            hl.bdf_flat_kahler_4d(0.0)

    def test_general_reproduces_4d(self):
        # both are the hand-written presentation, entry for entry
        for q in (1.0, -3.0, 0.37, 5.0, 1e-6, 2.5e7):
            want = bdf4_presentation(q)
            for P in (hl.bdf_flat_kahler_4d(q),
                      hl.bdf_general(hl.BdfSpec(p=1, h_dim=1, c_dim=1, q=[q]))):
                assert all(np.array_equal(getattr(P, name), getattr(want, name))
                           for name in ("f", "G", "J")), q

    def test_frame_follows_the_blocks_of_j_pairs(self, capsys):
        # h, then the centre pair, then the plane: the plane is the third frame vector
        argv = ["catalog", "bdf-general", "--p", "1", "--h-dim", "1", "--c-dim", "3",
                "--c-pairs", "1", "--q", "1.5"]
        assert main(argv) == 0
        assert hashlib.md5(capsys.readouterr().out.encode()).hexdigest() == (
            "23d8cc5b874aaa3eb0c78a3008bdae5b")
        spec = hl.BdfSpec(p=1, h_dim=1, c_dim=3, c_internal_pairs=1, q=[1.5])
        U = hl.to_unitary_structure(hl.bdf_general(spec))
        j, i, k = np.nonzero(U.C)
        assert [(j, i, k) for j, i, k in zip(j, i, k) if i < k] == [(2, 0, 2)]

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
        assert frobenius(hl.chern_torsion(U)) <= 1e-12
        assert levi_civita(U).curvature_residual <= 1e-12
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            assert max_abs(hl.curvature(U, s)) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=1, h_dim=2, c_dim=2, q=[[1.0], [2.0]])  # rank < h_dim
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[[1.0, 0.0]])  # dead plane
        with pytest.raises(hl.exceptions.ValidationError):
            hl.BdfSpec(p=1, h_dim=1, c_dim=2, q=[[1.0]])  # pairing mismatch
        with pytest.raises(hl.exceptions.ValidationError, match=r"^q must be 1x2 \(2 values\)"):
            hl.BdfSpec(p=2, h_dim=1, c_dim=1, q=[1.0, 2.0, 3.0])

    def test_spec_verdict_is_free_of_the_scale_of_q(self):
        # (p, h_dim, c_dim, q, accepted); at 2^-40 the 1x1 q is below 1e-12, and at 2^40 the
        # weight 1e-13 of the second plane is above it, yet neither plane changes its role
        specs = [(1, 1, 1, [[1.0]], True), (2, 1, 1, [[1.0, 2.0]], True),
                 (2, 2, 2, [[1.0, 0.5], [0.0, 2.0]], True), (1, 2, 2, [[1.0], [2.0]], False),
                 (2, 2, 2, [[1.0, 2.0], [2.0, 4.0]], False), (2, 1, 1, [[1.0, 0.0]], False),
                 (2, 1, 1, [[1.0, 1e-13]], False), (1, 1, 2, [[1.0]], False)]

        def accepted(p, h_dim, c_dim, q):
            try:
                hl.BdfSpec(p=p, h_dim=h_dim, c_dim=c_dim, q=q)
            except hl.exceptions.ValidationError:
                return False
            return True

        for k in (-40, 0, 40):
            got = [accepted(p, h, c, np.ldexp(q, k)) for p, h, c, q, _ in specs]
            assert got == [want for *_, want in specs], k

    def test_tiny_q_emits_a_structure(self, capsys):
        assert main(["catalog", "bdf4", "--q", "1e-13"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and '"name": "bdf4(q=1e-13)"' in out

    def test_negative_counts_are_named(self):
        with pytest.raises(hl.exceptions.ValidationError,
                           match="^h_internal_pairs, c_internal_pairs must be nonnegative$"):
            hl.BdfSpec(p=1, h_dim=1, c_dim=1, q=[[1.0]], h_internal_pairs=-1, c_internal_pairs=-1)
        with pytest.raises(hl.exceptions.ValidationError, match="^p must be nonnegative$"):
            hl.BdfSpec(p=-1, h_dim=1, c_dim=1, q=[1.0])

    def test_flat_weights_fill_the_matrix_row_by_row(self):
        flat = hl.BdfSpec(p=2, h_dim=2, c_dim=2, q=[1.0, 0.5, 0.0, 2.0])
        assert np.array_equal(flat.q, [[1.0, 0.5], [0.0, 2.0]])


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: hl.BdfSpec(p=1, h_dim=1, c_dim=1, q=[np.nan]), hl.exceptions.ValidationError,
     "q must be finite"),
    (lambda: hl.BdfSpec(p=1, h_dim=0, c_dim=0), hl.exceptions.ValidationError,
     "rotating planes need a nonzero h to act"),
    (lambda: hl.BdfSpec(p=0, h_dim=1, c_dim=1), hl.exceptions.ValidationError,
     "h without planes to act on cannot be flat Kahler"),
    (lambda: hl.bdf_general(hl.BdfSpec(p=0, h_dim=0, c_dim=0)), hl.exceptions.ValidationError,
     "total dimension 0 is not a positive even number"),
    (lambda: hl.perturb(hl.abelian(2), -0.1, 0), hl.exceptions.DegenerateParameterError,
     "eps must be nonnegative"),
], ids=["nan-q", "planes-without-h", "h-without-planes", "dimension-0", "negative-eps"])
def test_rejections_name_the_fault(call, error, message):
    # an odd total dimension cannot pass BdfSpec: its pairing makes h + c even
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


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
        assert max_abs(hl.curvature(U, 2.0)) > 1e-8

    def test_deterministic(self):
        a = hl.perturb(hl.abelian(2), 0.1, 9)
        b = hl.perturb(hl.abelian(2), 0.1, 9)
        assert np.array_equal(a.C, b.C) and np.array_equal(a.D, b.D)
