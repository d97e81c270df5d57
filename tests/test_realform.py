"""Real presentations, adapted frames, and the conversion round trip."""

import numpy as np
import pytest

import hermlie as hl
from hermlie.realform import complex_structure_constants
from hermlie.tensors import frobenius

from conftest import frame_gram_residual, from_unitary_structure, random_structure, validate_real


def standard_j(dim):
    J = np.zeros((dim, dim))
    for i in range(dim // 2):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    return J


def abelian_presentation(dim):
    return hl.RealPresentation(
        dim=dim, f=np.zeros((dim, dim, dim)), G=np.eye(dim), J=standard_j(dim)
    )


def su2_r_presentation(c=1.0):
    # basis order (X1, X0, X2, X3) so Gram-Schmidt lands on the catalog gauge
    f = np.zeros((4, 4, 4))
    X1, X0, X2, X3 = 0, 1, 2, 3
    for (a, b, out) in [(X1, X2, X3), (X2, X3, X1), (X3, X1, X2)]:
        f[out, a, b] = c
        f[out, b, a] = -c
    J = np.zeros((4, 4))
    J[X0, X1] = 1.0
    J[X1, X0] = -1.0
    J[X3, X2] = 1.0
    J[X2, X3] = -1.0
    return hl.RealPresentation(dim=4, f=f, G=np.eye(4), J=J)


def random_compatible_presentation(n, seed):
    """Random SPD metric with a compatible J, abelian bracket."""
    rng = np.random.default_rng(seed)
    dim = 2 * n
    J0 = standard_j(dim)
    A = rng.standard_normal((dim, dim))
    G0 = A @ A.T + dim * np.eye(dim)
    # average over the J action to force compatibility
    G = 0.5 * (G0 + J0.T @ G0 @ J0)
    return hl.RealPresentation(dim=dim, f=np.zeros((dim, dim, dim)), G=G, J=J0)


class TestValidateReal:
    def test_abelian_standard(self):
        rep = validate_real(abelian_presentation(4))
        assert rep.max_abs == 0.0

    def test_bdf_reference_data(self):
        rep = validate_real(hl.bdf_flat_kahler_4d(1.0))
        assert rep.max_abs == 0.0

    def test_wrong_pairing_breaks_integrability(self):
        base = hl.bdf_flat_kahler_4d(1.0)
        # JX=Y, JZ=W instead of JX=W, JY=Z
        J = np.zeros((4, 4))
        X, Y, Z, W = 0, 1, 2, 3
        J[Y, X] = 1.0
        J[X, Y] = -1.0
        J[W, Z] = 1.0
        J[Z, W] = -1.0
        P = hl.RealPresentation(dim=4, f=base.f, G=np.eye(4), J=J)
        rep = validate_real(P)
        assert rep.max_abs > 0.5
        # the (X, Z) pair is where the bracket terms fail to cancel
        assert rep.per_identity[("integrability", 1, 3)] == pytest.approx(1.0)

    def test_odd_dimension_rejected(self):
        with pytest.raises(hl.exceptions.DimensionMismatchError):
            hl.RealPresentation(dim=3, f=np.zeros((3, 3, 3)), G=np.eye(3), J=np.eye(3))

    @pytest.mark.parametrize("f, G, J, message", [
        (np.zeros((2, 2)), np.eye(2), np.eye(2), "f: expected (2, 2, 2), got (2, 2)"),
        (np.zeros((2, 2, 2)), np.eye(3), np.eye(2), "G: expected (2, 2), got (3, 3)"),
        (np.zeros((2, 2, 2)), np.eye(2), np.zeros(2), "J: expected (2, 2), got (2,)"),
    ], ids=["f", "G", "J"])
    def test_wrong_shape_is_named(self, f, G, J, message):
        with pytest.raises(hl.exceptions.DimensionMismatchError) as err:
            hl.RealPresentation(dim=2, f=f, G=G, J=J)
        assert str(err.value) == message

    def test_non_spd_flagged_not_raised(self):
        P = hl.RealPresentation(
            dim=2, f=np.zeros((2, 2, 2)), G=np.diag([1.0, -1.0]), J=standard_j(2)
        )
        rep = validate_real(P)
        assert rep.per_identity[("spd_violation",)] > 0
        assert not rep.valid


class TestAdaptedFrame:
    def test_standard_data(self):
        P = abelian_presentation(4)
        E = hl.adapted_unitary_frame(P)
        expected = np.zeros((4, 2), complex)
        expected[0, 0] = 1 / np.sqrt(2)
        expected[1, 0] = -1j / np.sqrt(2)
        expected[2, 1] = 1 / np.sqrt(2)
        expected[3, 1] = -1j / np.sqrt(2)
        assert np.allclose(E, expected, atol=1e-14)

    def test_bdf_frame(self):
        P = hl.bdf_flat_kahler_4d(1.0)
        E = hl.adapted_unitary_frame(P)
        expected = np.zeros((4, 2), complex)
        expected[0, 0] = 1 / np.sqrt(2)  # (X - i W)/sqrt2
        expected[3, 0] = -1j / np.sqrt(2)
        expected[1, 1] = 1 / np.sqrt(2)  # (Y - i Z)/sqrt2
        expected[2, 1] = -1j / np.sqrt(2)
        assert np.allclose(E, expected, atol=1e-14)

    def test_random_metric_unitarity(self):
        for seed in range(10):
            P = random_compatible_presentation(2 + seed % 2, seed)
            assert validate_real(P).max_abs <= 1e-12
            E = hl.adapted_unitary_frame(P)
            assert frame_gram_residual(P, E) <= 1e-12

    def test_rank_loss_names_the_step(self):
        # J = 0 is no complex structure at all; its image collapses the frame
        P = hl.RealPresentation(
            dim=4, f=np.zeros((4, 4, 4)), G=np.eye(4), J=np.zeros((4, 4))
        )
        with pytest.raises(hl.exceptions.FrameConstructionError) as err:
            hl.adapted_unitary_frame(P)
        assert "J-image" in str(err.value)


class TestConversion:
    def test_abelian(self):
        U = hl.to_unitary_structure(abelian_presentation(6))
        assert np.abs(U.C).max() == 0.0
        assert np.abs(U.D).max() == 0.0

    def test_bdf_constants_and_kahlerness(self):
        for q in (1.0, 5.0):
            U = hl.to_unitary_structure(hl.bdf_flat_kahler_4d(q))
            assert U.C[1, 0, 1] == pytest.approx(1j * q / np.sqrt(2))
            assert U.D[1, 1, 0] == pytest.approx(1j * q / np.sqrt(2))
            mask = np.ones((2, 2, 2), bool)
            mask[1, 0, 1] = mask[1, 1, 0] = False
            assert np.abs(U.C[mask]).max() <= 1e-14
            maskd = np.ones((2, 2, 2), bool)
            maskd[1, 1, 0] = False
            assert np.abs(U.D[maskd]).max() <= 1e-14
            assert frobenius(hl.chern_torsion(U)) <= 1e-14

    def test_su2_r_gives_catalog_gauge(self):
        U = hl.to_unitary_structure(su2_r_presentation(1.0))
        sam = hl.samelson_su2_r(1.0)
        assert np.abs(U.C - sam.C).max() <= 1e-14
        assert np.abs(U.D - sam.D).max() <= 1e-14
        assert np.abs(U.D + U.C).max() <= 1e-14  # bi-invariance forces D = -C

    def test_integrability_error_carries_residual(self):
        base = hl.bdf_flat_kahler_4d(1.0)
        J = np.zeros((4, 4))
        J[1, 0] = 1.0
        J[0, 1] = -1.0
        J[3, 2] = 1.0
        J[2, 3] = -1.0
        P = hl.RealPresentation(dim=4, f=base.f, G=np.eye(4), J=J)
        with pytest.raises(hl.exceptions.IntegrabilityError) as err:
            hl.to_unitary_structure(P)
        assert err.value.residual > 0.1

    def test_integrability_iff_no_antiholomorphic_part(self):
        # both directions of the equivalence, on valid and broken data
        good = hl.bdf_flat_kahler_4d(2.0)
        _, _, offdiag = complex_structure_constants(good)
        assert validate_real(good).max_abs <= 1e-10 and offdiag <= 1e-10

        base = hl.bdf_flat_kahler_4d(2.0)
        J = np.zeros((4, 4))
        J[1, 0] = 1.0
        J[0, 1] = -1.0
        J[3, 2] = 1.0
        J[2, 3] = -1.0
        bad = hl.RealPresentation(dim=4, f=base.f, G=np.eye(4), J=J)
        rep = validate_real(bad)
        int_res = max(
            v for k, v in rep.per_identity.items() if k[0] == "integrability"
        )
        _, _, offdiag = complex_structure_constants(bad)
        assert int_res > 1e-10 and offdiag > 1e-10

    def test_integrability_equivalence_under_bracket_noise(self):
        # sweep noise sizes: the two residuals cross the threshold together
        base = hl.bdf_flat_kahler_4d(1.0)
        rng = np.random.default_rng(8)
        noise = rng.standard_normal((4, 4, 4))
        noise = 0.5 * (noise - noise.transpose(0, 2, 1))
        for eps in (0.0, 1e-12, 1e-6, 0.1):
            P = hl.RealPresentation(
                dim=4, f=base.f + eps * noise, G=np.eye(4), J=base.J
            )
            rep = validate_real(P)
            int_res = max(
                v for k, v in rep.per_identity.items() if k[0] == "integrability"
            )
            _, _, offdiag = complex_structure_constants(P)
            assert (int_res <= 1e-10) == (offdiag <= 1e-10), eps


class TestRoundTrip:
    def test_round_trip_on_catalog(self):
        sam = hl.samelson_su2_r(1.0)
        bdf = hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))
        affine = hl.affine_complex_group(1.0)
        for U in (hl.abelian(3), sam, bdf, affine):
            P = from_unitary_structure(U)
            assert validate_real(P).max_abs <= 1e-12
            back = hl.to_unitary_structure(P)
            assert np.abs(back.C - U.C).max() <= 1e-12
            assert np.abs(back.D - U.D).max() <= 1e-12

    def test_round_trip_on_random(self):
        # round trip is linear algebra; Jacobi validity is not needed
        for seed in range(8):
            U = random_structure(2 + seed % 2, 1000 + seed)
            back = hl.to_unitary_structure(from_unitary_structure(U))
            assert np.abs(back.C - U.C).max() <= 1e-12
            assert np.abs(back.D - U.D).max() <= 1e-12

    def test_affine_realification_is_a_lie_algebra(self, ):
        P = from_unitary_structure(hl.affine_complex_group(1.0))
        rep = validate_real(P)
        assert rep.per_identity[("jacobi",)] <= 1e-13
