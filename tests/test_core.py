"""Tensor kernel: torsion, connection family, brackets, curvature, identities."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hermlie as hl
from hermlie import core
from hermlie.core import connection_endomorphisms
from hermlie.tensors import frobenius, standard_normal

from conftest import (
    connection_flatness_residuals, curvature_as_flatness_families, levi_civita,
    random_structure, random_unitary, realify, unitary_change,
)

SQ2 = np.sqrt(2.0)


def torsion_by_loops(C, D):
    """Independent elementwise oracle for the torsion formula and trace."""
    n = C.shape[0]
    T = np.zeros_like(C)
    for j in range(n):
        for i in range(n):
            for k in range(n):
                T[j, i, k] = 0.5 * (-D[j, i, k] + D[j, k, i] - C[j, i, k])
    eta = np.array([sum(T[k, k, r] for k in range(n)) for r in range(n)])
    return T, eta


class TestChernTorsion:
    def test_abelian_zero(self):
        tor = hl.chern_torsion(hl.abelian(2))
        assert tor.norm == 0.0
        assert tor.eta_norm == 0.0

    def test_affine_values(self, affine):
        tor = hl.chern_torsion(affine)
        assert tor.T[1, 0, 1] == pytest.approx(-0.5)
        assert tor.T[1, 1, 0] == pytest.approx(0.5)
        # trace over the upper/first-lower pair: eta_r = sum_k T^k_{kr}
        assert tor.eta == pytest.approx(np.array([0.5, 0.0]))
        assert tor.eta_norm == pytest.approx(0.5)

    def test_samelson_component(self, samelson):
        tor = hl.chern_torsion(samelson)
        assert tor.T[1, 0, 1] == pytest.approx(1j / (2 * SQ2))
        mask = np.ones((2, 2, 2), bool)
        mask[1, 0, 1] = mask[1, 1, 0] = False
        assert np.abs(tor.T[mask]).max() == 0.0

    def test_matches_loop_oracle(self):
        for seed in range(5):
            U = random_structure(3, seed)
            tor = hl.chern_torsion(U)
            T, eta = torsion_by_loops(U.C, U.D)
            assert np.allclose(tor.T, T, atol=0, rtol=0)
            assert np.allclose(tor.eta, eta, atol=1e-15)

    def test_antisymmetry_exact(self):
        for seed in range(10):
            T = hl.chern_torsion(random_structure(3, 100 + seed)).T
            assert np.all(T + T.transpose(0, 2, 1) == 0)

    @pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
    def test_norms_scale_exactly(self, samelson, affine, k):
        # the squares of these norms overflow or underflow; the norms do not
        for U in (samelson, affine, random_structure(3, 7)):
            scaled = hl.UnitaryStructure(n=U.n, C=U.C * 2.0**k, D=U.D * 2.0**k)
            a, b = hl.chern_torsion(U), hl.chern_torsion(scaled)
            assert b.norm == np.ldexp(a.norm, k) and b.eta_norm == np.ldexp(a.eta_norm, k)
            if abs(k) < 500:  # the curvature is quadratic in (C, D)
                assert hl.curvature(scaled, 1.5).frobenius == np.ldexp(
                    hl.curvature(U, 1.5).frobenius, 2 * k)

    def test_frobenius_keeps_the_bytes(self):
        # dividing by a power of two before squaring is exact: the unscaled sum in range
        rng = np.random.default_rng(5)
        for shape in [(3,), (2, 2, 2), (4, 4, 2, 2), (0,)]:
            X = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 1e3
            assert frobenius(X) == float(np.sqrt(np.sum(np.abs(X) ** 2)))
        assert frobenius(np.array([3.0, 4.0])) == 5.0


def conjugate_direction_coefficients(U, s):
    """gamma_bar[j, i, k], read from the blocks A[n + k][:n, :n] of the endomorphisms."""
    return np.moveaxis(connection_endomorphisms(U, s)[U.n:, :U.n, :U.n], 0, -1)


class TestConnectionFamily:
    def test_kahler_gamma_is_d(self, bdf4_structure):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            gamma = hl.gauduchon_connection(bdf4_structure, s)
            assert np.allclose(gamma, bdf4_structure.D, atol=1e-15)

    def test_samelson_parallel_at_two(self, samelson):
        assert np.abs(hl.gauduchon_connection(samelson, 2.0)).max() == 0.0
        assert np.abs(connection_endomorphisms(samelson, 2.0)).max() == 0.0

    def test_affine_chern_vanishes(self, affine):
        assert np.abs(hl.gauduchon_connection(affine, 0.0)).max() == 0.0

    def test_metric_compatibility_exact(self):
        for seed in range(8):
            U = random_structure(2, 200 + seed)
            gamma = hl.gauduchon_connection(U, 1.3)
            gamma_bar = conjugate_direction_coefficients(U, 1.3)
            assert np.all(gamma_bar + np.conj(gamma.transpose(1, 0, 2)) == 0)

    def test_affine_in_s_and_endpoints(self):
        U = random_structure(3, 17)
        chern = hl.gauduchon_connection(U, 0.0)
        bismut = hl.gauduchon_connection(U, 2.0)
        # endpoint formulas expanded in C, D
        assert np.abs(chern - U.D).max() <= 1e-13
        assert np.abs(bismut - (U.D.transpose(0, 2, 1) - U.C)).max() <= 1e-13
        for s in (-0.7, 0.25, 1.6):
            gamma = hl.gauduchon_connection(U, s)
            interp = (1 - s / 2) * chern + (s / 2) * bismut
            assert np.abs(gamma - interp).max() <= 1e-13

    def test_matches_expanded_formula(self):
        # gamma = (1-s/2) D^j_{ik} + (s/2) D^j_{ki} - (s/2) C^j_{ik}, and the
        # matching expansion of gamma_bar, agree with gamma = D + s T
        rng = np.random.default_rng(5)
        for seed in range(12):
            U = random_structure(1 + seed % 4, 300 + seed)
            s = rng.uniform(-2.0, 4.0)
            gamma = hl.gauduchon_connection(U, s)
            direct = (1 - s / 2) * U.D + (s / 2) * U.D.transpose(0, 2, 1) - (s / 2) * U.C
            cD, cC = np.conj(U.D), np.conj(U.C)
            direct_bar = (
                -(1 - s / 2) * cD.transpose(1, 0, 2)
                - (s / 2) * cD.transpose(2, 0, 1)
                + (s / 2) * cC.transpose(1, 0, 2)
            )
            scale = 1.0 + np.abs(gamma).max()
            assert np.abs(gamma - direct).max() <= 1e-12 * scale
            gamma_bar = conjugate_direction_coefficients(U, s)
            assert np.abs(gamma_bar - direct_bar).max() <= 1e-12 * scale


class TestBracketTables:
    def test_abelian_zero(self):
        assert np.abs(hl.bracket_tables(hl.abelian(3))).max() == 0.0

    def test_bdf_values(self, bdf4_structure):
        n = 2
        tab = hl.bracket_tables(bdf4_structure)
        # [ebar_2, e_1] = (i/sqrt2) ebar_2
        expected = np.zeros(2 * n, complex)
        expected[n + 1] = 1j / SQ2
        assert np.allclose(tab[n + 1, 0], expected, atol=1e-14)
        assert np.abs(tab[n + 1, 1]).max() <= 1e-14  # [ebar_2, e_2] = 0
        assert np.abs(tab[n + 0, 0]).max() <= 1e-14  # [ebar_1, e_1] = 0

    def test_samelson_mixed_bracket(self, samelson):
        n = 2
        tab = hl.bracket_tables(samelson)
        # [ebar_2, e_2] = -(i/sqrt2)(e_1 + ebar_1)
        expected = np.zeros(2 * n, complex)
        expected[0] = -1j / SQ2
        expected[n] = -1j / SQ2
        assert np.allclose(tab[n + 1, 1], expected, atol=1e-14)

    def test_conjugation_equivariance(self):
        U = random_structure(3, 31)
        n = U.n
        tab = hl.bracket_tables(U)
        swap = np.concatenate([np.arange(n, 2 * n), np.arange(n)])
        conj_table = np.conj(tab[np.ix_(swap, swap, swap)])
        assert np.all(tab == conj_table)

    def test_antisymmetry(self):
        tab = hl.bracket_tables(random_structure(2, 32))
        assert np.abs(tab + tab.transpose(1, 0, 2)).max() == 0.0


def curvature_by_realification(U, s):
    """Independent flatness oracle: commutators of realified endomorphisms.

    All matrix algebra runs on real 4n x 4n matrices; entry moduli are
    reassembled from the realified (re, im) blocks at the end.
    """
    A = connection_endomorphisms(U, s)
    brk = hl.bracket_tables(U)
    two_n = A.shape[1]
    worst = 0.0
    for a in range(two_n):
        for b in range(two_n):
            Ra = realify(A[a])
            Rb = realify(A[b])
            lin = sum(brk[a, b, c] * A[c] for c in range(two_n))
            R = Ra @ Rb - Rb @ Ra - realify(lin)
            re = R[:two_n, :two_n]
            im = R[two_n:, :two_n]
            worst = max(worst, float(np.sqrt(re**2 + im**2).max()))
    return worst


class TestCurvature:
    def test_abelian_flat_everywhere(self):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
            assert hl.curvature(hl.abelian(3), s).max_abs == 0.0

    def test_bdf_flat_all_s(self, bdf4_structure):
        for s in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0):
            assert hl.curvature(bdf4_structure, s).max_abs <= 1e-14

    def test_samelson_flat_exactly_at_two(self, samelson):
        assert hl.curvature(samelson, 2.0).max_abs <= 1e-14
        assert hl.curvature(samelson, 0.0).max_abs > 0.1
        assert hl.curvature(samelson, 1.0).max_abs > 0.1
        # frozen from the realified commutator oracle
        assert hl.curvature(samelson, 0.0).max_abs == pytest.approx(0.5)
        assert curvature_by_realification(samelson, 0.0) == pytest.approx(0.5)

    def test_matches_realified_oracle(self):
        for seed in range(6):
            U = random_structure(2, 300 + seed)
            for s in (0.0, 1.0, 2.7):
                rep = hl.curvature(U, s)
                assert rep.max_abs == pytest.approx(
                    curvature_by_realification(U, s), rel=1e-12
                )

    def test_block_antisymmetry_and_conjugate_relation(self):
        U = random_structure(3, 41)
        R = hl.curvature(U, 1.4).R
        n = U.n
        assert R.shape == (2 * n, 2 * n, n, n)
        # R(a, b) = -R(b, a) and R(ebar_i, ebar_k) = -R(e_i, e_k)^H
        assert np.allclose(R, -R.swapaxes(0, 1), atol=1e-13)
        assert np.allclose(R[n:, n:], -np.conj(R[:n, :n]).swapaxes(2, 3), atol=1e-13)

    def test_tensor_is_read_only(self, samelson):
        with pytest.raises(ValueError):
            hl.curvature(samelson, 1.0).R[0, 0, 0, 0] = 1.0


class TestFlatConnectionIdentities:
    def test_abelian_zero(self):
        holo, mixed = connection_flatness_residuals(hl.abelian(2), 1.0)
        assert np.abs(holo).max() == 0.0
        assert np.abs(mixed).max() == 0.0

    def test_samelson_flat_case(self, samelson):
        holo, mixed = connection_flatness_residuals(samelson, 2.0)
        assert np.abs(holo).max() <= 1e-14
        assert np.abs(mixed).max() <= 1e-14

    def test_identification_with_curvature_blocks(self):
        # fixed index identification, asserted forever (0-based):
        #   holo[i,j,k,l] = -R[i, k, l, j]
        #   mixed[i,j,k,l] = -R[i, n+j, l, k]
        for seed in range(100):
            n = 2 + seed % 2
            U = random_structure(n, 500 + seed)
            s = (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)[seed % 6]
            holo, mixed = connection_flatness_residuals(U, s)
            rep = hl.curvature(U, s)
            want_holo, want_mixed = curvature_as_flatness_families(rep.R)
            scale = max(1.0, rep.max_abs)
            assert np.abs(holo - want_holo).max() <= 1e-12 * scale
            assert np.abs(mixed - want_mixed).max() <= 1e-12 * scale


class TestValidateStructure:
    def test_abelian_valid(self):
        rep = hl.validate_structure(hl.abelian(2), 1e-9)
        assert rep.max_abs == 0.0
        assert rep.valid

    def test_affine_valid(self, affine):
        assert hl.validate_structure(affine, 1e-9).max_abs == 0.0

    def test_perturbed_entry_detected(self):
        U = hl.affine_complex_group(1.0)
        D = np.array(U.D)
        D[0, 0, 0] = 0.1
        bad = hl.UnitaryStructure(n=2, C=U.C, D=D)
        rep = hl.validate_structure(bad, 1e-9)
        assert rep.max_abs > 0.0
        assert not rep.valid
        # the mixed family sees the bad entry as a fixed polynomial in 0.1:
        # sum_r C^r_{ik} D^l_{jr} with the single C and single D entry -> 0.1
        assert rep.max_abs == pytest.approx(0.1)

    def test_overflowing_residuals_raise(self):
        U = hl.affine_complex_group(1.0)
        D = np.array(U.D)
        D[0, 0, 0] = 0.1
        for size in (1e160, 1e200):  # its residual and |C|^2 + |D|^2 overflow
            huge = hl.UnitaryStructure(n=2, C=U.C * size, D=D * size)
            with pytest.raises(hl.exceptions.ValidationError, match="overflow"):
                hl.validate_structure(huge, 1e-9)

    def test_threshold_is_relative_to_the_structure(self, samelson):
        rep = hl.validate_structure(samelson, 1e-9)
        assert rep.threshold == 1e-9 * (frobenius(samelson.C) ** 2 + frobenius(samelson.D) ** 2)
        assert rep.valid == (rep.max_abs <= rep.threshold)
        abelian = hl.validate_structure(hl.abelian(3), 1e-9)
        assert abelian.threshold == 0.0 and abelian.valid  # 0 <= 0

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(which=st.sampled_from(["abelian", "affine", "samelson", "bdf4"]),
           eps=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1]), seed=st.integers(0, 2**16),
           k=st.integers(-600, 500))
    def test_verdict_does_not_depend_on_scale(self, which, eps, seed, k):
        # scaling by 2^k multiplies the residuals and |C|^2 + |D|^2 by exactly 4^k, and the
        # verdict holds where they underflow
        base = {"abelian": hl.abelian(2), "affine": hl.affine_complex_group(1.0),
                "samelson": hl.samelson_su2_r(1.0),
                "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))}[which]
        U = hl.perturb(base, eps, seed) if eps else base
        scaled = hl.UnitaryStructure(n=2, C=U.C * 2.0**k, D=U.D * 2.0**k)
        a, b = hl.validate_structure(U), hl.validate_structure(scaled)
        assert b.max_abs == np.ldexp(a.max_abs, 2 * k)
        assert b.threshold == np.ldexp(a.threshold, 2 * k)
        assert a.valid == b.valid
        if not eps:
            assert a.valid
        elif which == "abelian":  # noise alone fails the identities at every size
            assert not a.valid

    def test_shape_error(self):
        with pytest.raises(hl.exceptions.DimensionMismatchError):
            hl.UnitaryStructure(n=2, C=np.zeros((2, 2, 2)), D=np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("n", [0, -1])
    def test_nonpositive_n_is_named(self, n):
        with pytest.raises(hl.exceptions.DimensionMismatchError) as err:
            hl.UnitaryStructure(n=n, C=np.zeros((0, 0, 0)), D=np.zeros((0, 0, 0)))
        assert str(err.value) == f"n must be positive, got {n}"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_paired_batch_label_matches_each_structure(self, n):
        # the leading axes of C and D are paired: slice z is (C[z], D[z]) alone
        stack = [random_structure(n, 600 + 10 * n + z) for z in range(5)]
        C, D = np.stack([U.C for U in stack]), np.stack([U.D for U in stack])
        families = core.jacobi_residual_tensors(C, D)
        for z, U in enumerate(stack):
            scale = (frobenius(U.C) + frobenius(U.D)) ** 2
            for got, want in zip(families, core.jacobi_residual_tensors(U.C, U.D)):
                assert got.shape == (len(stack),) + (n,) * 4
                assert np.abs(got[z] - want).max() <= 1e-14 * scale


def unitary_representation(U, s):
    """Matrices of the frame monodromy map, its homomorphism defect and skew defect.

    p[k][i, j] = -gamma^j_{ik} for e_k and p[n + k][i, j] = -gamma_bar^j_{ik}
    for ebar_k (row convention: the frame column transforms by the
    matrix acting on the right).  defect[a, b] = p([a, b]) - [p(a), p(b)]
    over all frame pairs; on flat structures it vanishes, and in general
    it equals the transposed curvature blocks entrywise.  skew holds
    p(X) + p(X)^H for the realified directions e_k + ebar_k and
    i(e_k - ebar_k), which vanishes on any structure.
    """
    n = U.n
    gamma, gamma_bar = hl.gauduchon_connection(U, s), conjugate_direction_coefficients(U, s)
    p = np.zeros((2 * n, n, n), dtype=complex)
    for k in range(n):
        p[k] = -gamma[:, :, k].T
        p[n + k] = -gamma_bar[:, :, k].T
    brk = hl.bracket_tables(U)
    defect = np.zeros((2 * n, 2 * n, n, n), dtype=complex)
    for a in range(2 * n):
        for b in range(2 * n):
            defect[a, b] = np.einsum("c,cxy->xy", brk[a, b], p) - (p[a] @ p[b] - p[b] @ p[a])
    skew = []
    for k in range(n):
        for X in (p[k] + p[n + k], 1j * (p[k] - p[n + k])):
            skew.append(X + X.conj().T)
    return p, defect, np.array(skew)


class TestRepresentation:
    def test_abelian_trivial(self):
        p, defect, skew = unitary_representation(hl.abelian(2), 1.0)
        assert np.abs(p).max() == 0.0
        assert np.abs(defect).max() == 0.0
        assert np.abs(skew).max() == 0.0

    def test_bdf_flat_is_homomorphism(self, bdf4_structure):
        _, defect, skew = unitary_representation(bdf4_structure, 1.0)
        assert np.abs(defect).max() <= 1e-14
        assert np.abs(skew).max() <= 1e-14

    def test_defect_equals_curvature(self):
        for seed in range(40):
            n = 2 + seed % 2
            U = random_structure(n, 700 + seed)
            s = (0.0, 0.5, 1.0, 2.0)[seed % 4]
            _, defect, skew = unitary_representation(U, s)
            curv = hl.curvature(U, s)
            assert np.abs(defect).max() == pytest.approx(curv.max_abs, rel=1e-12)
            scale = max(1.0, curv.max_abs)
            assert np.abs(defect - curv.R.swapaxes(2, 3)).max() <= 1e-12 * scale
            assert np.abs(skew).max() <= 1e-13 * scale


class TestCovariantDerivatives:
    def test_zero_for_parallel_frames(self, samelson):
        Td, Tdbar = hl.covariant_torsion_derivatives(samelson, 2.0)
        assert np.abs(Td).max() == 0.0
        assert np.abs(Tdbar).max() == 0.0
        Td, Tdbar = hl.covariant_torsion_derivatives(hl.abelian(3), 1.0)
        assert np.abs(Td).max() == 0.0

    def test_surface_frame_relations(self):
        # adapted frame with T^2_{12} = 0 and T^1_{12} = lam forces
        # T^1_{12,l} = -lam G^2_{2l} and T^2_{12,l} = lam G^2_{1l},
        # with the conjugate companions lam conj(G^2_{2l}), -lam conj(G^1_{2l})
        lam = 0.4 - 1.1j
        rng = np.random.default_rng(11)
        T = np.zeros((2, 2, 2), complex)
        T[0, 0, 1] = lam
        T[0, 1, 0] = -lam
        D = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        C = D.transpose(0, 2, 1) - D - 2 * T
        U = hl.UnitaryStructure(n=2, C=C, D=D)
        assert np.abs(hl.chern_torsion(U).T - T).max() <= 1e-14
        for s in (0.3, 1.0, 2.0):
            G = hl.gauduchon_connection(U, s)
            Td, Tdbar = hl.covariant_torsion_derivatives(U, s)
            for l in range(2):
                assert Td[0, 0, 1, l] == pytest.approx(-lam * G[1, 1, l])
                assert Td[1, 0, 1, l] == pytest.approx(lam * G[1, 0, l])
                assert Tdbar[0, 0, 1, l] == pytest.approx(lam * np.conj(G[1, 1, l]))
                assert Tdbar[1, 0, 1, l] == pytest.approx(-lam * np.conj(G[0, 1, l]))


def levi_civita_splitting(U):
    """The torsion-built pieces of the splitting nabla^LC = chern + gamma + beta,

        gamma(e_k) e_i = T^j_{ik} e_j,   gamma(ebar_k) e_i = -conj(T^i_{jk}) e_j,
        beta(ebar_k) e_i = T^k_{ij} ebar_j,   beta(e_k) e_i = 0,

    extended to the conjugate frame by conjugation, as 2n x 2n
    endomorphisms [a][out, in] in the layout of levi_civita().endo.
    """
    n = U.n
    T = hl.chern_torsion(U).T
    gamma_ops = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    beta_ops = np.zeros_like(gamma_ops)
    for k in range(n):
        g_h = T[:, :, k]  # gamma(e_k) e_i = T^j_{ik} e_j
        g_c = -np.conj(T).transpose(1, 0, 2)[:, :, k]  # gamma(ebar_k) e_i
        gamma_ops[k, :n, :n] = g_h
        gamma_ops[k, n:, n:] = np.conj(g_c)
        gamma_ops[n + k, :n, :n] = g_c
        gamma_ops[n + k, n:, n:] = np.conj(g_h)
        b_c = T[k, :, :].T  # beta(ebar_k) e_i = T^k_{ij} ebar_j -> [j, i]
        beta_ops[n + k, n:, :n] = b_c
        beta_ops[k, :n, n:] = np.conj(b_c)
    return gamma_ops, beta_ops


class TestLeviCivita:
    def test_abelian(self):
        rep = levi_civita(hl.abelian(2))
        assert np.abs(rep.endo).max() == 0.0
        assert rep.curvature_residual == 0.0

    def test_bdf_levi_civita_is_chern(self, bdf4_structure):
        rep = levi_civita(bdf4_structure)
        gamma_ops, beta_ops = levi_civita_splitting(bdf4_structure)
        assert np.abs(gamma_ops).max() <= 1e-14
        assert np.abs(beta_ops).max() <= 1e-14
        chern = connection_endomorphisms(bdf4_structure, 0.0)
        assert np.abs(rep.endo - chern).max() <= 1e-13
        assert rep.curvature_residual <= 1e-13

    def test_samelson_biinvariant(self, samelson):
        rep = levi_civita(samelson)
        # bi-invariant metric: nabla_a b = [a, b] / 2
        half_ad = 0.5 * hl.bracket_tables(samelson).transpose(0, 2, 1)
        assert np.abs(rep.endo - half_ad).max() <= 1e-13
        assert rep.curvature_residual > 0.1
        assert hl.curvature(samelson, 2.0).max_abs <= 1e-14

    def test_decomposition_on_random(self):
        for seed in range(6):
            U = random_structure(3, 900 + seed)
            gamma_ops, beta_ops = levi_civita_splitting(U)
            chern = connection_endomorphisms(U, 0.0)
            rep = levi_civita(U)
            assert np.abs(rep.endo - (chern + gamma_ops + beta_ops)).max() <= 1e-12


class TestSummaryAndGauge:
    def test_abelian_summary(self):
        summary = hl.kahler_flatness_summary(hl.abelian(2), [0.0, 1.0, 2.0])
        assert summary.kahler
        assert all(res == 0.0 for _, res in summary.rows)

    def test_affine_summary(self, affine):
        summary = hl.kahler_flatness_summary(affine, [0.0, 0.5, 1.0, 2.0])
        assert not summary.kahler
        assert summary.torsion_norm == pytest.approx(1 / SQ2)
        flat = dict(summary.rows)
        assert flat[0.0] <= 1e-14
        assert min(flat[0.5], flat[1.0], flat[2.0]) > 0.1

    def test_samelson_summary(self, samelson):
        summary = hl.kahler_flatness_summary(samelson, [0.0, 1.0, 2.0])
        assert not summary.kahler
        flat = dict(summary.rows)
        assert flat[2.0] <= 1e-14 and flat[0.0] > 0.1 and flat[1.0] > 0.1

    ORACLE_GRID = [0.0, 1.0, 2.0, -1.0, 0.5, 1.5, 3.0, 4.0, -37.5, 1e3, -1e4, 1e6, -1e6]

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 3.0, 30.0])
    def test_rows_match_per_parameter_curvature(self, eps, samelson, bdf4_structure, affine):
        # every row against a fresh curvature(U, s), on perturbed catalog fixtures
        for seed, base in enumerate((samelson, bdf4_structure, affine, hl.abelian(3))):
            U = hl.perturb(base, eps, 500 + seed) if eps else base
            tor = hl.chern_torsion(U)
            size = sum(map(frobenius, (U.C, U.D, connection_endomorphisms(U, 0.0))))
            summary = hl.kahler_flatness_summary(U, self.ORACLE_GRID)
            assert [s for s, _ in summary.rows] == self.ORACLE_GRID
            for s, flat in summary.rows:
                bound = 1e-13 * (size + abs(s) * tor.norm) ** 2
                assert abs(flat - hl.curvature(U, s).frobenius) <= bound, (eps, seed, s)

    def test_torsion_free_rows_are_exact(self, bdf4_structure):
        # D symmetric in its lower indices with C = D^T - D gives T = 0 exactly
        D = random_structure(3, 31).D
        U = hl.UnitaryStructure(n=3, C=D.transpose(0, 2, 1) - D, D=D)
        assert not hl.chern_torsion(U).T.any()
        summary = hl.kahler_flatness_summary(U, self.ORACLE_GRID)
        assert all(flat == hl.curvature(U, s).frobenius for s, flat in summary.rows)
        assert min(flat for _, flat in summary.rows) > 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            flat_kahler = hl.kahler_flatness_summary(bdf4_structure, [0.0, 1e200, -1e200])
        assert not hl.chern_torsion(bdf4_structure).T.any()
        assert flat_kahler.rows == ((0.0, 0.0), (1e200, 0.0), (-1e200, 0.0))

    def test_curvature_kernel_calls_do_not_grow_with_the_grid(self, samelson, monkeypatch):
        calls = []
        kernel = core._curvature_tensor

        def counted(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(core, "_curvature_tensor", counted)
        counts = []
        for points in (3, 2000):
            calls.clear()
            hl.kahler_flatness_summary(samelson, np.linspace(-1.0, 4.0, points))
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(which=st.sampled_from(["abelian", "samelson", "bdf4"]),
           eps=st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]), seed=st.integers(0, 2**16),
           k=st.integers(-30, 30))
    def test_kahler_flag_does_not_depend_on_scale(self, which, eps, seed, k):
        # scaling by 2^k multiplies |T|, |C| and |D| exactly; eps puts |T| near the threshold
        base = {"abelian": hl.abelian(2), "samelson": hl.samelson_su2_r(1.0),
                "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))}[which]
        noise = random_structure(2, seed)
        U = hl.UnitaryStructure(n=2, C=base.C + eps * noise.C, D=base.D + eps * noise.D)
        scaled = hl.UnitaryStructure(n=2, C=U.C * 2.0**k, D=U.D * 2.0**k)
        a = hl.kahler_flatness_summary(U, [0.0])
        b = hl.kahler_flatness_summary(scaled, [0.0])
        assert b.torsion_norm == a.torsion_norm * 2.0**k
        assert a.kahler == b.kahler == (a.torsion_norm <= 1e-9 * np.hypot(
            frobenius(U.C), frobenius(U.D)))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(which=st.sampled_from(["abelian", "samelson", "bdf4"]),
           eps=st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]), seed=st.integers(0, 2**16),
           k=st.integers(-600, 500))
    @example(which="samelson", eps=0.0, seed=0, k=-600)  # |T|^2, |C|^2, |D|^2 all underflow
    @example(which="bdf4", eps=1e-7, seed=1, k=-560)  # |T|^2 underflows, |C|^2 does not
    def test_kahler_flag_holds_where_the_norms_underflow(self, which, eps, seed, k):
        # the flag is judged on the structure times a power of two, so it is the unscaled
        # flag at every 2^k, also where |T|, |C| and |D| underflow; the rows over the
        # same range are test_rows_scale_exactly's
        base = {"abelian": hl.abelian(2), "samelson": hl.samelson_su2_r(1.0),
                "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))}[which]
        noise = random_structure(2, seed)
        U = hl.UnitaryStructure(n=2, C=base.C + eps * noise.C, D=base.D + eps * noise.D)
        scaled = hl.UnitaryStructure(n=2, C=U.C * 2.0**k, D=U.D * 2.0**k)
        a = hl.kahler_flatness_summary(U, [])
        assert hl.kahler_flatness_summary(scaled, []).kahler == a.kahler
        if which == "samelson":
            assert not a.kahler

    @pytest.mark.parametrize("size", [1e-150, 1e-165, 1e-170])
    def test_tiny_samelson_is_not_kahler(self, samelson, size):
        # below about 1e-160 the squares of |T| underflow; neither the flag nor |T| does
        tiny = hl.UnitaryStructure(n=2, C=samelson.C * size, D=samelson.D * size)
        summary = hl.kahler_flatness_summary(tiny, [])
        assert not summary.kahler
        assert summary.torsion_norm == pytest.approx(0.5 * size, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("size", [1e140, 1e152])
    def test_huge_samelson_reads_finite_rows(self, samelson, size):
        # the squares of these rows overflow; the rows (up to 1.4e304) do not
        huge = hl.UnitaryStructure(n=2, C=samelson.C * size, D=samelson.D * size)
        grid = [0.0, 1.0, 2.0, 3.0]
        got, want = hl.kahler_flatness_summary(huge, grid), hl.kahler_flatness_summary(samelson, grid)
        assert got.torsion_norm == pytest.approx(want.torsion_norm * size, rel=1e-15)
        assert got.eta_norm == pytest.approx(want.eta_norm * size, rel=1e-15)
        assert [s for s, _ in got.rows] == grid
        for (_, row), (_, base) in zip(got.rows, want.rows):
            assert np.isfinite(row) and row == pytest.approx(base * size**2, rel=1e-14)
        assert got.rows[2][1] == 0.0 and not got.kahler

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(which=st.sampled_from(["abelian", "samelson", "bdf4"]),
           eps=st.sampled_from([0.0, 1e-11, 1e-9, 1e-7]), seed=st.integers(0, 2**16),
           k=st.integers(-600, 500))
    @example(which="samelson", eps=1e-7, seed=0, k=500)  # the squares of the rows overflow
    def test_rows_scale_exactly(self, which, eps, seed, k):
        # the summary is computed on the structure times a power of two, so 2^k U reads
        # the norms of U times 2^k and its rows times 4^k, bitwise
        base = {"abelian": hl.abelian(2), "samelson": hl.samelson_su2_r(1.0),
                "bdf4": hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))}[which]
        noise = random_structure(2, seed)
        U = hl.UnitaryStructure(n=2, C=base.C + eps * noise.C, D=base.D + eps * noise.D)
        scaled = hl.UnitaryStructure(n=2, C=U.C * 2.0**k, D=U.D * 2.0**k)
        grid = [-1.0, 0.0, 0.5, 2.0, 3.0]
        a, b = hl.kahler_flatness_summary(U, grid), hl.kahler_flatness_summary(scaled, grid)
        assert b.torsion_norm == np.ldexp(a.torsion_norm, k)
        assert b.eta_norm == np.ldexp(a.eta_norm, k)
        rows = np.array([row for _, row in a.rows])
        assert np.array_equal([row for _, row in b.rows], np.ldexp(rows, 2 * k))
        assert a.kahler == b.kahler

    def test_chunks_do_not_change_the_rows(self, samelson, monkeypatch):
        grid = np.linspace(-1.0, 4.0, 150)  # three chunks, the last one short
        rows = hl.kahler_flatness_summary(samelson, grid).rows
        assert [s for s, _ in rows] == grid.tolist()
        for chunk in (1, 7, 150):
            monkeypatch.setattr(core, "_CURVE_CHUNK", chunk)
            assert hl.kahler_flatness_summary(samelson, grid).rows == rows

    def test_first_non_finite_row_is_named(self, samelson):
        grid = np.linspace(-1.0, 4.0, 150)
        grid[[100, 120]] = -1e300, 1e308
        with pytest.raises(hl.exceptions.ValidationError,
                           match=r"flatness residual at s=-1e\+300 is not finite"):
            hl.kahler_flatness_summary(samelson, grid)

    def test_gauge_invariance_of_reported_scalars(self, samelson, bdf4_structure, affine):
        for U in (samelson, bdf4_structure, affine):
            for seed in range(3):
                V = random_unitary(U.n, 40 + seed)
                W = unitary_change(U, V)
                s_grid = [0.0, 0.5, 1.0, 2.0]
                a = hl.kahler_flatness_summary(U, s_grid)
                b = hl.kahler_flatness_summary(W, s_grid)
                assert b.torsion_norm == pytest.approx(a.torsion_norm, abs=1e-10)
                assert b.eta_norm == pytest.approx(a.eta_norm, abs=1e-10)
                assert a.kahler == b.kahler
                for (s1, r1), (s2, r2) in zip(a.rows, b.rows):
                    assert r2 == pytest.approx(r1, abs=1e-10)

    def test_unitary_change_roundtrip(self):
        U = random_structure(3, 77)
        V = random_unitary(3, 78)
        back = unitary_change(unitary_change(U, V), np.conj(V).T)
        assert np.abs(back.C - U.C).max() <= 1e-13
        assert np.abs(back.D - U.D).max() <= 1e-13


class TestStandardNormal:
    # odd and even sizes, then the shapes that the search (unknown_count at n = 2, 3, 4 in
    # both modes), perturb at n = 1 to 4 and the parallel battery draw
    SHAPES = [1, 2, 7, (3, 5), 20, 4, 72, 18, 176, 48,
              *((2, 2, n, n, n) for n in (1, 2, 3, 4)), 14_000]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    def test_a_seed_gives_the_same_bits(self, shape):
        x = standard_normal(20240811, shape)
        assert x.shape == np.empty(shape).shape and x.dtype == np.float64
        assert np.isfinite(x).all()
        assert x.tobytes() == standard_normal(20240811, shape).tobytes()
        # a smaller count draws a prefix of a larger one
        assert np.array_equal(x.ravel(), standard_normal(20240811, x.size + 3)[:x.size])

    def test_distinct_seeds_draw_distinct_numbers(self):
        draws = [standard_normal(seed, 7) for seed in (0, 1, 2, 3, 2**40, 20240811)]
        assert len({x.tobytes() for x in draws}) == len(draws)
        assert all(len(np.intersect1d(a, b)) == 0 for i, a in enumerate(draws)
                   for b in draws[i + 1:])

    def test_the_draws_are_standard_normal(self):
        stats = pytest.importorskip("scipy.stats")
        x = standard_normal(7, 100_000)
        assert stats.kstest(x, "norm").pvalue > 1e-3
        # five standard errors of the sample mean and of the sample variance
        assert abs(x.mean()) <= 5 / np.sqrt(x.size)
        assert abs(x.var() - 1) <= 5 * np.sqrt(2 / x.size)
