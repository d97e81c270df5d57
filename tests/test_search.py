"""Least-squares search: residuals, exact Jacobian, LM behaviour, multistart."""

import dataclasses
import functools
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hermlie as hl
from hermlie import core
from hermlie import search as S
from hermlie._config import RHO_MAX, kahler_ratio
from hermlie.cli import main
from hermlie.tensors import frobenius, max_abs

from conftest import (
    class_weights, full_form, full_row_jacobian, full_rows, point_from_structure,
    point_from_torsion, quadratic_part, random_structure, random_unitary, residual_vector,
    row_by_row_model, transform_frame, unitary_change,
)


def fd_jacobian(x, problem, h=1e-6):
    d = x.shape[0]
    J = np.zeros((residual_vector(x, problem).shape[0], d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        J[:, i] = (residual_vector(x + e, problem) - residual_vector(x - e, problem)) / (2 * h)
    return J


class TestResidualVector:
    def test_abelian_zero(self):
        prob = S.SearchProblem(n=2, s=1.0)
        x = point_from_structure(prob, hl.abelian(2))
        assert np.linalg.norm(residual_vector(x, prob)) == 0.0

    def test_samelson_zero_at_two(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        x = point_from_structure(prob, samelson)
        assert np.linalg.norm(residual_vector(x, prob)) <= 1e-14

    def test_samelson_nonzero_entries_match_curvature(self, samelson):
        prob = S.SearchProblem(n=2, s=0.0)
        x = point_from_structure(prob, samelson)
        r = residual_vector(x, prob)
        # Jacobi part vanishes (valid algebra); the rest is curvature entries
        n4 = 2**4
        jacobi_part = r[: 3 * 2 * n4]
        assert np.abs(jacobi_part).max() <= 1e-14
        assert np.abs(r).max() == pytest.approx(max_abs(hl.curvature(samelson, 0.0)))

    @pytest.mark.parametrize("mode", [S.FULL, S.PARALLEL_FRAME])
    @pytest.mark.parametrize("n", [2, 3])
    def test_curvature_rows_are_R_in_index_order(self, n, mode):
        # after the 6 n^4 Jacobi rows: re then im of each R[a, b], a-major
        prob = S.SearchProblem(n=n, s=1.3, mode=mode)
        x = np.random.default_rng(n).standard_normal(S.unknown_count(prob))
        r = residual_vector(x, prob)
        R = hl.curvature(S.structure_from_point(prob, x), prob.s).reshape(4 * n * n, n * n)
        want = np.stack([R.real, R.imag], axis=1).ravel()
        assert r.shape == (6 * n**4 + want.size,)
        assert np.array_equal(r[6 * n**4 :], want)

    def test_point_encoding_roundtrip(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        x = point_from_structure(prob, samelson)
        U = S.structure_from_point(prob, x)
        assert np.abs(U.C - samelson.C).max() == 0.0
        assert np.abs(U.D - samelson.D).max() == 0.0

    def test_parallel_mode_induces_relations(self):
        prob = S.SearchProblem(n=2, s=1.5, mode=S.PARALLEL_FRAME)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(S.unknown_count(prob))
        U = S.structure_from_point(prob, x)
        T = hl.chern_torsion(U)
        assert np.abs(U.C - 2 * (1.5 - 1) * T).max() <= 1e-13
        assert np.abs(U.D + 1.5 * T).max() <= 1e-13

    def test_hunt_appends_slice_row(self):
        prob = S.SearchProblem(n=2, s=1.0, hunt=True)
        x = point_from_structure(prob, hl.abelian(2))
        slice_row = -S._SLICE_WEIGHT * S._SLICE  # w (|T|^2 - c) with T = 0
        assert residual_vector(x, prob)[-1] == slice_row
        assert S._evaluate(x[None], prob)[1][0, -1] == slice_row
        for problem in (prob, S.SearchProblem(n=3, s=0.0, hunt=True),
                        S.SearchProblem(n=3, s=1.0, mode=S.PARALLEL_FRAME, hunt=True)):
            rng = np.random.default_rng(problem.n)
            for x in rng.standard_normal((4, S.unknown_count(problem))):
                want = residual_vector(x, problem)[-1]
                got = S._evaluate(x[None], problem)[1][0, -1]
                assert abs(got - want) <= 1e-14 * abs(want)


MODEL_PROBLEMS = [
    S.SearchProblem(n=2, s=0.7),
    S.SearchProblem(n=3, s=1.0),
    S.SearchProblem(n=2, s=0.5, mode=S.PARALLEL_FRAME),
    S.SearchProblem(n=3, s=1.5, mode=S.PARALLEL_FRAME),
    S.SearchProblem(n=2, s=2.0, hunt=True),
]
MODEL_IDS = ["full-2", "full-3", "par-2", "par-3", "hunt"]
# the model tests that need no dense oracle also run at n = 4 full mode
ALL_MODEL_PROBLEMS = MODEL_PROBLEMS + [S.SearchProblem(n=4, s=1.3)]
ALL_MODEL_IDS = MODEL_IDS + ["full-4"]


class TestJacobian:
    def test_zero_point_linear_term_only(self):
        # all residuals are homogeneous quadratics: J(0) = 0
        prob = S.SearchProblem(n=2, s=0.7)
        J = S.jacobian(np.zeros(S.unknown_count(prob)), prob)
        assert np.abs(J).max() <= 1e-14

    @pytest.mark.parametrize("problem", ALL_MODEL_PROBLEMS, ids=ALL_MODEL_IDS)
    def test_is_the_jacobian_of_the_model_rows(self, problem):
        # bitwise _evaluate's J, and J x / 2 - const is bitwise its r
        model = S._polynomial_model(problem)
        for x in np.random.default_rng(23).standard_normal((3, model.d)):
            J, r, _ = S._evaluate(x[None], problem)
            got = S.jacobian(x, problem)
            assert got.shape == (len(model.const), model.d)
            assert got.tobytes() == J[0].tobytes()
            assert (0.5 * (got @ x) - model.const).tobytes() == r[0].tobytes()

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_matches_finite_differences_of_the_model_residual(self, problem):
        d, h = S.unknown_count(problem), 1e-6
        x = np.random.default_rng(29).standard_normal(d)
        steps = np.concatenate([x + h * np.eye(d), x - h * np.eye(d)])
        r = S._evaluate(steps, problem)[1]
        FD = (r[:d] - r[d:]).T / (2 * h)
        J = S.jacobian(x, problem)
        assert np.abs(J - FD).max() / max(1.0, np.abs(J).max()) <= 1e-6

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_matches_finite_differences(self, problem):
        # over the full row layout: the model rows scattered by the class map (full_rows)
        rng = np.random.default_rng(hash(problem.mode) % 2**32)
        for trial in range(4):
            x = rng.standard_normal(S.unknown_count(problem))
            J = full_rows(x, problem)
            FD = fd_jacobian(x, problem)
            scale = max(1.0, np.abs(J).max())
            assert np.abs(J - FD).max() / scale <= 1e-6


def polarization_model(problem):
    """(r0, L, B) of the residual polynomial from about d^2/2 evaluations of it."""
    d = S.unknown_count(problem)

    def fn(x):
        return quadratic_part(x, problem)

    r0 = fn(np.zeros(d))
    L = np.zeros((r0.shape[0], d))
    Q = np.zeros((d, r0.shape[0]))  # pure quadratic values on basis vectors
    for i, e in enumerate(np.eye(d)):
        plus, minus = fn(e), fn(-e)
        L[:, i] = 0.5 * (plus - minus)
        Q[i] = 0.5 * (plus + minus) - r0
    B = np.zeros((r0.shape[0], d, d))
    for i in range(d):
        B[:, i, i] = Q[i]
        for j in range(i + 1, d):
            e = np.zeros(d)
            e[[i, j]] = 1.0
            B[:, i, j] = B[:, j, i] = 0.5 * (fn(e) - r0 - L @ e - Q[i] - Q[j])
    return r0, L, B


def model_form(model):
    """B of the model's own rows (weighted class rows, then a hunt's slice row), shape
    (rows, d, d)."""
    B = np.zeros((len(model.const) * model.d, model.d))
    B[model.flat, model.cols] = model.vals
    return B.reshape(-1, model.d, model.d)


SQ2 = np.sqrt(2.0)
# (n, s, mode) of the bitwise comparison with the row-by-row build, covering both modes,
# n = 1..4 and the endpoints, rigid values and the roots (6 +- 2 sqrt 2) / 7; n = 4 full
# mode is left out, since its row-by-row build takes seconds
ROW_BY_ROW_CASES = [
    (1, 0.7, S.FULL), (2, 0.0, S.FULL), (2, 0.37, S.FULL), (2, 1.5, S.FULL), (2, 2.0, S.FULL),
    (2, (6 - 2 * SQ2) / 7, S.FULL), (3, 1.0, S.FULL), (3, 3.0, S.FULL),
    (2, SQ2, S.PARALLEL_FRAME), (2, 0.61, S.PARALLEL_FRAME),
    (2, (6 + 2 * SQ2) / 7, S.PARALLEL_FRAME), (3, 1.0, S.PARALLEL_FRAME),
    (3, 1.3, S.PARALLEL_FRAME), (4, 1.0, S.PARALLEL_FRAME), (4, 0.37, S.PARALLEL_FRAME),
]


def assert_same_model(n, s, mode):
    """The unweighted representative rows equal those rows of the row-by-row build of
    every row, bit for bit, in its emission order; the model weights them after the
    sums and loses no row that build keeps."""
    (row, left, right, vals), M = S._representative_entries(n, s, mode)
    m, d, live, flat, cols, want_vals, want_M, _ = row_by_row_model(n, s, mode)
    rep, factor = S._class_map(n)
    want_row = live[flat // d]
    keep = (rep[want_row] == want_row) & (factor[want_row] != 0)
    want = (want_row[keep], (flat % d)[keep], cols[keep], want_vals[keep], want_M)
    for got, ref in zip((row, left, right, vals, M), want):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    model = S._quadratic_model(n, s, mode, False)
    assert (m, model.d) == (14 * n**4, d) and model.torsion.tobytes() == M.tobytes()
    assert np.array_equal(model.rows, np.unique(row))
    assert (factor[live] != 0).all() and np.isin(rep[live], model.rows).all()
    at = np.searchsorted(model.rows, row)
    assert model.vals.tobytes() == (vals * class_weights(model, n)[at]).tobytes()
    assert np.array_equal(model.flat, at * d + left) and np.array_equal(model.cols, right)


class TestQuadraticModel:
    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_matches_polarization_oracle(self, problem):
        r0, L, B = polarization_model(problem)
        assert np.abs(r0).max() == 0.0 and np.abs(L).max() == 0.0  # homogeneous quadratics
        model = S._polynomial_model(problem)
        assert np.abs(full_form(model, problem.n) - B).max() <= 1e-14 * np.abs(B).max()

    @pytest.mark.parametrize("n, s, mode", ROW_BY_ROW_CASES)
    def test_equals_the_row_by_row_build_bitwise(self, n, s, mode):
        assert_same_model(n, s, mode)

    @settings(derandomize=True, max_examples=15, deadline=None, database=None)
    @given(case=st.sampled_from([(2, S.FULL), (3, S.PARALLEL_FRAME)]),
           s=st.floats(-4.0, 5.0, allow_nan=False))
    def test_equals_the_row_by_row_build_at_any_parameter(self, case, s):
        assert_same_model(case[0], s, case[1])

    def test_non_finite_basis_images_are_an_error(self):
        # at s = 1e308, 2 (s - 1) T overflows and every entry of C is inf or nan
        with pytest.raises(hl.exceptions.ValidationError, match="overflows at s=1e\\+308"):
            S._quadratic_model(4, 1e308, S.PARALLEL_FRAME, False)

    @pytest.mark.parametrize("problem", ALL_MODEL_PROBLEMS, ids=ALL_MODEL_IDS)
    def test_half_jacobian_times_point_is_residual(self, problem):
        rng = np.random.default_rng(17)
        m = 14 * problem.n**4
        for trial in range(3):
            x = rng.standard_normal(S.unknown_count(problem))
            r = residual_vector(x, problem)[:m]
            model_r = 0.5 * full_rows(x, problem)[:m] @ x
            assert np.abs(model_r - r).max() <= 1e-13 * max(1.0, np.abs(r).max())

    def test_torsion_map_matches_chern_torsion(self):
        for problem in ALL_MODEL_PROBLEMS:
            x = np.random.default_rng(3).standard_normal(S.unknown_count(problem))
            T = hl.chern_torsion(S.structure_from_point(problem, x)).ravel()
            t = S._polynomial_model(problem).torsion @ x
            assert np.abs(t[0::2] + 1j * t[1::2] - T).max() <= 1e-14 * max(1.0, np.abs(T).max())

    @pytest.mark.parametrize("problem", ALL_MODEL_PROBLEMS, ids=ALL_MODEL_IDS)
    def test_keeps_only_rows_that_can_be_nonzero(self, problem):
        # with the oracle test: the dropped rows of B are zero, the kept ones are not; a
        # hunt's slice row comes after the class rows
        model = S._polynomial_model(problem)
        assert np.array_equal(np.unique(model.flat // model.d), np.arange(len(model.const)))
        assert len(model.const) == len(model.rows) + problem.hunt
        assert len(model.rows) < 14 * problem.n**4

    def test_stored_size_is_bounded(self):
        # the dense (m, d, d) form at n = 3 full mode takes 47 MB
        model = S._polynomial_model(S.SearchProblem(n=3, s=1.0))
        assert model.flat.nbytes + model.cols.nbytes + model.vals.nbytes < 5e6

    def test_cached_on_what_defines_the_model(self):
        a = S.SearchProblem(n=2, s=0.7, seed=1, restarts=3, tol=1e-8)
        b = S.SearchProblem(n=2, s=0.7, seed=2, max_iters=10, restarts=5)
        assert S._polynomial_model(a) is S._polynomial_model(b)
        hunt = dataclasses.replace(a, hunt=True)
        assert S._polynomial_model(hunt) is S._polynomial_model(dataclasses.replace(b, hunt=True))
        for c in (S.SearchProblem(n=2, s=0.8), S.SearchProblem(n=2, s=0.7, mode=S.PARALLEL_FRAME),
                  hunt):
            assert S._polynomial_model(c) is not S._polynomial_model(a)
        # the hunt model is the plain model, bitwise, followed by the slice row B = w M^T M
        plain, hunt = S._polynomial_model(a), S._polynomial_model(hunt)
        for name in ("rows", "torsion", "flat", "cols", "vals", "dense"):
            got, want = getattr(hunt, name), getattr(plain, name)
            assert got[..., : want.shape[-1]].tobytes() == want.tobytes()
        assert hunt.const.tobytes() == np.append(plain.const, S._SLICE_WEIGHT * S._SLICE).tobytes()
        assert not plain.const.any() and len(hunt.flat) > len(plain.flat)
        M = plain.torsion
        assert np.array_equal(model_form(hunt)[-1], S._SLICE_WEIGHT * (M.T @ M))


CLASS_CASES = [(n, mode) for mode in (S.FULL, S.PARALLEL_FRAME) for n in (2, 3, 4)]
# representative rows of the model at s = 1.3, and the rows of the full-row model in brackets
REPRESENTATIVE_ROWS = {(2, S.FULL): 40, (3, S.FULL): 249, (4, S.FULL): 864,  # 120, 774, 2720
                       (2, S.PARALLEL_FRAME): 14, (3, S.PARALLEL_FRAME): 114,  # 28, 252
                       (4, S.PARALLEL_FRAME): 416}  # 960


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max() if np.abs(want).max() else np.abs(got).max()


class TestClassMap:
    @pytest.mark.parametrize("n, mode", CLASS_CASES)
    def test_is_the_same_at_every_parameter(self, n, mode):
        rep, factor = S._class_map(n)
        assert not rep.flags.writeable and not factor.flags.writeable
        assert np.array_equal(rep[rep], rep) and set(np.unique(factor)) <= {-1.0, 0.0, 1.0}
        for s in (0.0, 0.37, 1.0, 1.3, 2.0, 3.0, -2.5):
            model = S._quadratic_model(n, s, mode, False)
            assert (rep[model.rows] == model.rows).all() and (factor[model.rows] == 1).all()
            # each weight is the root of its class's size, the factors being +-1
            members = np.bincount(rep[factor != 0], minlength=14 * n**4)[model.rows]
            assert np.array_equal(class_weights(model, n), np.sqrt(members))
        assert len(S._quadratic_model(n, 1.3, mode, False).rows) == REPRESENTATIVE_ROWS[n, mode]

    @pytest.mark.parametrize("n, mode", [c for c in CLASS_CASES if c != (4, S.FULL)])
    @pytest.mark.parametrize("s", [0.37, 1.3, 3.0])
    def test_each_row_is_its_factor_times_its_representative(self, n, mode, s):
        # B of every row from the row-by-row build (n = 4 full mode takes seconds there and
        # is covered by the normal-equation test below)
        m, d, live, flat, cols, vals, _, _ = row_by_row_model(n, s, mode)
        B = np.zeros((m, d * d))
        B[live[flat // d], flat % d * d + cols] = vals
        rep, factor = S._class_map(n)
        assert relative_gap(B, factor[:, None] * B[rep]) <= 1e-15
        assert not B[factor == 0].any()

    @pytest.mark.parametrize("n, mode", CLASS_CASES)
    @pytest.mark.parametrize("s", [0.0, 0.37, 1.0, 1.3, 2.0, 3.0])
    def test_normal_equations_equal_the_full_row_model(self, n, mode, s):
        problem = S.SearchProblem(n=n, s=s, mode=mode)
        rng = np.random.default_rng(7 * n + len(mode))
        for x in rng.standard_normal((2, S.unknown_count(problem))):
            full_J = full_row_jacobian(x, problem)
            full_r = 0.5 * full_J @ x
            J, r, _ = S._evaluate(x[None], problem)
            J, r = J[0], r[0]
            assert relative_gap(r @ r, full_r @ full_r) <= 1e-13
            assert relative_gap(J.T @ J, full_J.T @ full_J) <= 1e-13
            assert relative_gap(J.T @ r, full_J.T @ full_r) <= 1e-13

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS[:3], ids=MODEL_IDS[:3])
    def test_full_row_jacobian_is_twice_the_full_row_form_times_the_point(self, problem):
        m, d, live, flat, cols, vals, _, _ = row_by_row_model(problem.n, problem.s, problem.mode)
        B = np.zeros((m * d, d))
        B[live[flat // d] * d + flat % d, cols] = vals
        x = np.random.default_rng(5).standard_normal(d)
        want = 2.0 * (B @ x).reshape(m, d)
        assert relative_gap(full_row_jacobian(x, problem), want) <= 1e-14


CODEC_CASES = [(n, S.FULL) for n in (1, 2, 3, 4)] + [(n, S.PARALLEL_FRAME) for n in (2, 3, 4)]


class TestCodec:
    @pytest.mark.parametrize("n, mode", CODEC_CASES)
    def test_round_trips_are_exact(self, n, mode):
        # at s = 2 parallel-frame decoding scales T by powers of 2, so chern_torsion
        # recovers T bitwise
        prob = S.SearchProblem(n=n, s=2.0, mode=mode)
        rng = np.random.default_rng(40 + n)
        x = rng.standard_normal(S.unknown_count(prob))
        U = S.structure_from_point(prob, x)
        if mode == S.FULL:
            assert np.array_equal(point_from_structure(prob, U), x)
            V = random_structure(n, 60 + n)
            W = S.structure_from_point(prob, point_from_structure(prob, V))
            assert np.array_equal(W.C, V.C) and np.array_equal(W.D, V.D)
        else:
            assert np.array_equal(point_from_torsion(prob, hl.chern_torsion(U)), x)
            T = hl.chern_torsion(random_structure(n, 60 + n))
            prob = S.SearchProblem(n=n, s=1.3, mode=mode)
            W = S.structure_from_point(prob, point_from_torsion(prob, T))
            assert np.array_equal(W.C, 2 * (1.3 - 1) * T) and np.array_equal(W.D, -1.3 * T)

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_batched_decode_and_kernels_match_each_point(self, problem):
        d = S.unknown_count(problem)
        x = np.concatenate([np.eye(d), np.random.default_rng(d).standard_normal((2, d))])
        C, D = S._decode(x.reshape(-1, 1, d), problem)  # two leading axes
        C, D = C[:, 0], D[:, 0]
        T = core._torsion(C, D)
        A = core._endomorphisms(D + problem.s * T)
        brk = core._brackets(C, D)
        for a, point in enumerate(x):
            U = S.structure_from_point(problem, point)
            assert np.array_equal(C[a], U.C) and np.array_equal(D[a], U.D)
            assert np.array_equal(T[a], hl.chern_torsion(U))
            assert np.array_equal(A[a], core.connection_endomorphisms(U, problem.s))
            assert np.array_equal(brk[a], hl.bracket_tables(U))

    def test_index_table_is_cached_read_only(self):
        first, again = S._index_table(3), S._index_table(3)
        assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[0][0] = 1

    def test_index_table_too_large_is_named(self):
        # the first allocation, n x n booleans, is about 1 TB: NumPy refuses it untouched
        with pytest.raises(hl.exceptions.ValidationError, match=r"n=1000000 is too large"):
            S.random_start(S.SearchProblem(n=10**6, s=1.0), 0)

    def test_model_too_large_is_named(self):
        # the first allocation, the d x d basis of the unknowns, is 743 TiB: NumPy refuses it
        with pytest.raises(hl.exceptions.ValidationError, match=r"^n=150 is too large"):
            S._quadratic_model(150, 1.0, S.FULL, False)


@pytest.mark.parametrize("call, error, message", [
    (lambda: S.SearchProblem(n=2, s=1.0, mode="diagonal"), hl.exceptions.ValidationError,
     "unknown mode 'diagonal'"),
    (lambda: S.structure_from_point(S.SearchProblem(n=2, s=1.0), np.zeros(3)),
     hl.exceptions.DimensionMismatchError, "point has (3,), problem wants (20,)"),
], ids=["unknown-mode", "point-length"])
def test_rejections_name_the_fault(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


class TestLmMinimize:
    def test_zero_iterations_on_solution(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        res = S.lm_minimize(prob, point_from_structure(prob, samelson))
        assert res.iterations == 0
        assert res.classification == S.CONVERGED_NONKAHLER
        assert res.torsion_norm == pytest.approx(0.5)

    def test_abelian_start(self):
        prob = S.SearchProblem(n=2, s=1.3)
        res = S.lm_minimize(prob, np.zeros(S.unknown_count(prob)))
        assert res.classification == S.CONVERGED_KAHLER
        assert res.iterations == 0

    def test_perturbed_samelson_reconverges(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0, tol=1e-10, max_iters=200)
        noisy = hl.perturb(samelson, 1e-3, 12)
        res = S.lm_minimize(prob, point_from_structure(prob, noisy))
        assert res.classification == S.CONVERGED_NONKAHLER
        assert res.residual_history[-1] <= 1e-10
        assert res.torsion_norm == pytest.approx(0.5, abs=1e-2)

    def test_descent_property(self, samelson):
        # accepted steps never increase the residual norm
        prob = S.SearchProblem(n=2, s=2.0, tol=1e-12, max_iters=60)
        noisy = hl.perturb(samelson, 0.05, 3)
        res = S.lm_minimize(prob, point_from_structure(prob, noisy))
        assert len(res.residual_history) >= 2
        assert all(
            b <= a for a, b in zip(res.residual_history, res.residual_history[1:])
        )

    def test_soundness_revalidation(self):
        prob = S.SearchProblem(n=2, s=0.0, restarts=5, seed=7, tol=1e-10, max_iters=200)
        summ = S.multistart_search(prob)
        for res in summ.results:
            if res.classification == S.NOT_CONVERGED:
                continue
            rep = hl.validate_structure(res.best_point, prob.tol)
            assert rep.max_abs <= 2 * prob.tol
            assert max_abs(hl.curvature(res.best_point, prob.s)) <= 2 * prob.tol


class TestStopReason:
    def test_tol_on_perturbed_samelson(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0, tol=1e-10, max_iters=200)
        res = S.lm_minimize(prob, point_from_structure(prob, hl.perturb(samelson, 1e-3, 12)))
        assert res.stop_reason == "tol"
        assert res.residual_history[-1] <= prob.tol

    def test_max_iters(self):
        prob = S.SearchProblem(n=2, s=1.5, max_iters=5)
        res = S.lm_minimize(prob, S.random_start(prob, 3))
        assert res.stop_reason == "max_iters"
        assert res.iterations == 5

    def test_stagnation_at_rigid_parameter(self):
        prob = S.SearchProblem(
            n=2, s=1.5, restarts=4, seed=20240810, hunt=True,
            tol=1e-8, max_iters=300,
        )
        summ = S.multistart_search(prob)
        assert summ.stop_reasons == {"stagnation": 4}
        for res in summ.results:
            assert res.iterations < prob.max_iters
            assert res.classification == S.NOT_CONVERGED
            # over the last window of accepted steps the norm fell by at most the fraction
            window = res.residual_history[-1 - S._STAGNATION_STEPS :]
            assert window[0] - window[-1] <= S._STAGNATION_DECREASE * window[0]

    def test_summary_counts_stop_reasons(self):
        prob = S.SearchProblem(n=2, s=1.0, restarts=6, seed=99, max_iters=60)
        summ = S.multistart_search(prob)
        assert sum(summ.stop_reasons.values()) == prob.restarts
        assert set(summ.stop_reasons) <= {
            "tol", "step_floor", "damping_ceiling", "stagnation", "max_iters"
        }
        for reason, count in summ.stop_reasons.items():
            assert count == sum(res.stop_reason == reason for res in summ.results)

    def test_failed_solve_falls_back_to_gradient_step(self, monkeypatch):
        solve = np.linalg.solve
        calls = []

        def failing_first(H, g):
            calls.append(1)
            if len(calls) <= 3:
                raise np.linalg.LinAlgError("singular")
            return solve(H, g)

        monkeypatch.setattr(np.linalg, "solve", failing_first)
        prob = S.SearchProblem(n=2, s=1.5, max_iters=40)
        res = S.lm_minimize(prob, S.random_start(prob, 3))
        assert res.iterations > 3 and len(calls) == res.iterations
        assert res.stop_reason in {"tol", "step_floor", "damping_ceiling", "stagnation", "max_iters"}
        assert len(res.residual_history) >= 2
        assert all(b <= a for a, b in zip(res.residual_history, res.residual_history[1:]))

    @pytest.mark.parametrize("hunt", [False, True], ids=["plain", "hunt"])
    def test_one_model_evaluation_per_iteration(self, hunt, monkeypatch):
        calls = []
        evaluate = S._evaluate

        def counting(x, problem):
            calls.append(1)
            return evaluate(x, problem)

        monkeypatch.setattr(S, "_evaluate", counting)
        prob = S.SearchProblem(n=2, s=1.5, hunt=hunt, max_iters=80)
        for seed in range(3):
            calls.clear()
            res = S.lm_minimize(prob, S.random_start(prob, seed))
            assert res.iterations > 0
            assert len(calls) == res.iterations + 1


class TestMultistart:
    def test_determinism(self):
        prob = S.SearchProblem(n=2, s=1.0, restarts=8, seed=99, max_iters=60)
        a = S.multistart_search(prob)
        b = S.multistart_search(prob)
        assert a.counts == b.counts
        for ra, rb in zip(a.results, b.results):
            assert ra.residual_history == rb.residual_history
            assert ra.iterations == rb.iterations
            assert np.array_equal(ra.best_point.C, rb.best_point.C)

    def test_n1_all_kahler(self):
        for s in (0.0, 1.0, 2.0):
            prob = S.SearchProblem(n=1, s=s, restarts=10, seed=1, tol=1e-12, max_iters=200)
            summ = S.multistart_search(prob)
            assert summ.count(S.CONVERGED_KAHLER) == 10

    def test_gauge_sanity_on_converged_points(self):
        prob = S.SearchProblem(n=2, s=0.0, restarts=3, seed=21, tol=1e-11, max_iters=300,
                               hunt=True)
        summ = S.multistart_search(prob)
        converged = [r for r in summ.results if r.classification != S.NOT_CONVERGED]
        assert converged
        for res in converged:
            V = random_unitary(2, 5)
            W = unitary_change(res.best_point, V)
            jac = float(np.sqrt(sum(
                np.sum(np.abs(f) ** 2)
                for f in hl.core.jacobi_residual_tensors(W.C, W.D)
            )))
            assert jac == pytest.approx(res.final_jacobi, abs=1e-10)
            assert frobenius(hl.curvature(W, prob.s)) == pytest.approx(
                res.final_flatness, abs=1e-10
            )
            assert frobenius(hl.chern_torsion(W)) == pytest.approx(res.torsion_norm, abs=1e-10)

    def test_counterexample_hunt_finds_nonkahler_at_endpoints(self):
        for s in (0.0, 2.0):
            prob = S.SearchProblem(
                n=2, s=s, restarts=12, seed=20240810, hunt=True,
                tol=1e-8, max_iters=300,
            )
            summ = S.multistart_search(prob)
            assert summ.count(S.CONVERGED_NONKAHLER) >= 1

    def test_slice_hunt_converges_at_n3_chern_parameter(self):
        prob = S.SearchProblem(n=3, s=0.0, restarts=6, seed=7, hunt=True, max_iters=400)
        summ = S.multistart_search(prob)
        assert summ.count(S.CONVERGED_NONKAHLER) == 6
        for res in summ.results:
            assert res.torsion_norm == pytest.approx(0.5, abs=1e-6)

    def test_rigid_parameter_yields_none(self):
        prob = S.SearchProblem(
            n=2, s=1.5, restarts=12, seed=20240810, hunt=True,
            tol=1e-8, max_iters=300,
        )
        summ = S.multistart_search(prob)
        assert summ.count(S.CONVERGED_NONKAHLER) == 0

    @pytest.mark.parametrize("s, message", [
        (1e200, "the search model overflows at s=1e+200"),
        (1e100, "the search residuals overflow at s=1e+100"),
        (-1e120, "the search residuals overflow at s=-1e+120"),
    ], ids=["model", "residuals", "residuals-hunt"])
    def test_overflowing_parameter_is_an_error(self, s, message):
        # a finite model can still overflow in the LM and in the residuals at the end point
        prob = S.SearchProblem(n=2, s=s, restarts=2, hunt=s < 0)
        with pytest.raises(hl.exceptions.ValidationError, match=re.escape(message)):
            S.multistart_search(prob)


LOCKSTEP_PROBLEMS = [
    S.SearchProblem(n=2, s=0.0, restarts=12, seed=5, hunt=True, tol=1e-8),
    S.SearchProblem(n=2, s=1.5, restarts=12, seed=5, hunt=True, tol=1e-8, max_iters=200),
    S.SearchProblem(n=2, s=1.0, mode=S.PARALLEL_FRAME, restarts=24, seed=5, tol=1e-13),
    S.SearchProblem(n=3, s=0.5, mode=S.PARALLEL_FRAME, restarts=12, seed=5, tol=1e-13),
]
LOCKSTEP_IDS = ["hunt-0", "hunt-1.5", "par-2", "par-3"]


def outcomes(summary):
    return [(r.classification, r.stop_reason) for r in summary.results]


class TestLockstep:
    @pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS, ids=LOCKSTEP_IDS)
    def test_block_size_does_not_change_verdicts(self, problem, monkeypatch):
        monkeypatch.setattr(S, "_BLOCK_BYTES", 1)  # blocks of one restart
        alone = S.multistart_search(problem)
        monkeypatch.setattr(S, "_BLOCK_BYTES", 10**12)  # every restart in one block
        together = S.multistart_search(problem)
        assert alone.counts == together.counts
        assert alone.stop_reasons == together.stop_reasons
        assert outcomes(alone) == outcomes(together)
        # every product of a step runs point by point, so the paths are bitwise the same
        assert [r.residual_history for r in alone.results] == [
            r.residual_history for r in together.results]
        assert list(map(norms, alone.results)) == list(map(norms, together.results))

    @pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS[1:], ids=LOCKSTEP_IDS[1:])
    def test_dense_and_sparse_jacobians_agree(self, problem, monkeypatch):
        model = S._polynomial_model(problem)
        x = np.random.default_rng(8).standard_normal((5, model.d))
        dense_J, dense_r, _ = S._evaluate(x, problem)
        sparse = dataclasses.replace(model, dense=None)
        monkeypatch.setattr(S, "_polynomial_model", lambda problem: sparse)
        sparse_J, sparse_r, _ = S._evaluate(x, problem)
        scale = np.abs(model.vals).max()
        assert np.abs(dense_J - sparse_J).max() / 2 <= 1e-14 * scale
        assert np.abs(dense_r - sparse_r).max() <= 1e-13 * scale

    def test_only_small_models_keep_a_dense_form(self):
        for problem in MODEL_PROBLEMS:
            model = S._polynomial_model(problem)
            assert (model.dense is None) == (problem.n == 3 and problem.mode == S.FULL)
            if model.dense is not None:
                # column i * d + a of dense.T holds 2 B[i, a, :], a hunt's slice row included
                assert np.array_equal(model.dense.T.reshape(len(model.const), model.d, model.d),
                                      2 * model_form(model))

    def test_failed_batched_solve_falls_back_for_that_restart_only(self, monkeypatch):
        prob = S.SearchProblem(n=2, s=1.5, restarts=4, seed=3, max_iters=40)
        plain = S.multistart_search(prob)
        solve = np.linalg.solve
        calls, failing = [], [2]

        def fail_first_calls(H, g):
            calls.append(H.shape)
            if failing[0]:
                failing[0] -= 1
                raise np.linalg.LinAlgError("singular")
            return solve(H, g)

        monkeypatch.setattr(np.linalg, "solve", fail_first_calls)
        # the batched solve fails, then restart 0's own system; restarts 1-3 solve theirs
        patched = S.multistart_search(prob)
        assert calls[:5] == [(4, 20, 20)] + [(20, 20)] * 4
        for before, after in list(zip(plain.results, patched.results))[1:]:
            assert after.residual_history == before.residual_history
        assert patched.results[0].residual_history != plain.results[0].residual_history
        # alone, restart 0 takes the same gradient step when its first solve fails
        calls.clear()
        failing[0] = 1
        alone = S.lm_minimize(prob, S.random_start(prob, prob.seed), seed_used=prob.seed)
        assert calls[:2] == [(1, 20, 20)] * 2  # a block of one does not solve twice
        # and every later one, since a step's kernels do not depend on the block
        assert alone.residual_history == patched.results[0].residual_history

    @pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS, ids=LOCKSTEP_IDS)
    def test_multistart_matches_lm_minimize(self, problem):
        summary = S.multistart_search(problem)
        for k, res in enumerate(summary.results):
            seed = problem.seed + k
            alone = S.lm_minimize(problem, S.random_start(problem, seed), seed_used=seed)
            assert alone.classification == res.classification
            assert alone.stop_reason == res.stop_reason
            assert alone.seed_used == res.seed_used == seed
            assert alone.iterations == res.iterations
            assert alone.residual_history == res.residual_history
            assert norms(alone) == norms(res) and alone.rho == res.rho


def count_draws(monkeypatch, limit):
    """Patch search.random_start to record each seed it draws and to raise past limit draws."""
    drawn, draw = [], S.random_start

    def counting(problem, seed):
        drawn.append(seed)
        if len(drawn) > limit:
            raise RuntimeError(f"start {len(drawn)} drawn, more than {limit}")
        return draw(problem, seed)

    monkeypatch.setattr(S, "random_start", counting)
    return drawn


class TestLazyStarts:
    def test_the_model_is_built_before_any_start(self, monkeypatch):
        count_draws(monkeypatch, 0)
        with pytest.raises(hl.exceptions.ValidationError, match=r"^n=150 is too large"):
            S.multistart_search(S.SearchProblem(n=150, s=1.0))

    def test_a_start_is_drawn_when_its_restart_enters_a_block(self, monkeypatch):
        problem = S.SearchProblem(n=2, s=1.5, restarts=10, seed=3, max_iters=30)
        model = S._polynomial_model(problem)
        monkeypatch.setattr(S, "_BLOCK_BYTES", 4 * 32 * len(model.const) * model.d)  # width 4
        drawn, seen, step = count_draws(monkeypatch, 10), [], S._lm_step

        def counting_step(J, r, mu):
            seen.append(len(drawn))
            return step(J, r, mu)

        monkeypatch.setattr(S, "_lm_step", counting_step)
        summary = S.multistart_search(problem)
        assert seen[0] == 4  # the first step has seen the starts of the first block only
        assert drawn == list(range(3, 13)) and len(summary.results) == 10

    # 30 restarts fill one block at n = 2 full mode; the end points of 10^15 take 142 PiB
    def test_too_many_restarts_is_named(self, monkeypatch):
        count_draws(monkeypatch, 30)
        with pytest.raises(hl.exceptions.ValidationError,
                           match=r"^restarts=1000000000000000 is too large"):
            S.multistart_search(S.SearchProblem(n=2, s=1.0, restarts=10**15))

    def test_too_many_restarts_is_one_error_line(self, monkeypatch, capsys):
        count_draws(monkeypatch, 30)
        assert main(["search", "--n", "2", "--s", "1", "--restarts", "1000000000000000"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: restarts=1000000000000000 is too large to fit in memory\n"


def revalidate(problem, x):
    """_classify of the point x, as at the end of a restart."""
    return S._classify(problem, x[None], S._evaluate(x[None], problem)[1], [(0, "tol")], [-1],
                       [()])[0]


def norms(result):
    return result.final_jacobi, result.final_flatness, result.torsion_norm


class TestVerdictNorms:
    """_classify reads the Jacobi, flatness and torsion norms from the model the LM
    minimised; the class weights make them the norms the dense kernels give."""

    @pytest.mark.parametrize("hunt", [False, True], ids=["plain", "hunt"])
    @pytest.mark.parametrize("s", [0.0, 0.37, 1.5, 2.0, -3.0])
    @pytest.mark.parametrize("n, mode", CODEC_CASES)
    def test_match_the_dense_kernels(self, n, mode, s, hunt):
        problem = S.SearchProblem(n=n, s=s, mode=mode, hunt=hunt)
        rng = np.random.default_rng(n + 10 * len(mode))
        x = rng.standard_normal((8, S.unknown_count(problem)))
        x *= 10.0 ** np.linspace(-6, 3, 8)[:, None]
        for point in x:
            got = revalidate(problem, point)
            U = S.structure_from_point(problem, point)
            torsion = frobenius(hl.chern_torsion(U))
            jacobi = np.sqrt(sum(np.sum(np.abs(f) ** 2)
                                 for f in core.jacobi_residual_tensors(U.C, U.D)))
            want = jacobi, frobenius(hl.curvature(U, s)), torsion
            # the residuals are quadratic in the point and the torsion is linear
            size = frobenius(U.C) + frobenius(U.D) + abs(s) * torsion
            gaps = np.abs(np.subtract(norms(got), want))
            assert (gaps <= 1e-14 * np.array([size**2, size**2, size])).all()

    @pytest.mark.parametrize("n, mode", CODEC_CASES)
    def test_jacobi_rows_are_a_prefix_of_the_model(self, n, mode):
        model = S._polynomial_model(S.SearchProblem(n=n, s=0.37, mode=mode))
        layout = S._layout(n)
        # the Jacobi entries o < 3 n^4 own exactly the full-layout rows below 6 n^4
        assert np.array_equal(np.sort(layout[:, : 3 * n**4], axis=None), np.arange(6 * n**4))
        assert (np.diff(model.rows) > 0).all()
        split = np.searchsorted(model.rows, 6 * n**4)
        assert (model.rows[:split] < 6 * n**4).all() and (model.rows[split:] >= 6 * n**4).all()

    @pytest.mark.parametrize("n, mode", CODEC_CASES)
    def test_slice_row_is_left_out(self, n, mode):
        plain = S.SearchProblem(n=n, s=2.0, mode=mode)
        hunt = dataclasses.replace(plain, hunt=True)
        for point in np.random.default_rng(n).standard_normal((4, S.unknown_count(plain))):
            got, want = norms(revalidate(hunt, point)), norms(revalidate(plain, point))
            if n > 1:
                assert got == want
            else:  # numpy takes r = J x / 2 of the plain model's single row by a dot product,
                # which rounds otherwise than the matrix-vector product of two rows
                assert got == pytest.approx(want, rel=1e-15, abs=0)

    def test_a_stop_on_tol_has_converged(self):
        # the residual norm bounds the Jacobi and the flatness norm, its parts
        stopped = [r for problem in LOCKSTEP_PROBLEMS
                   for r in S.multistart_search(problem).results if r.stop_reason == "tol"]
        assert stopped
        assert all(r.classification != S.NOT_CONVERGED for r in stopped)


def frame_changed(problem, x, V):
    """The point of the structure of x written in the frame V."""
    U = S.structure_from_point(problem, x)
    if problem.mode == S.FULL:
        return point_from_structure(problem, unitary_change(U, V))
    return point_from_torsion(problem, transform_frame(hl.chern_torsion(U), V))


@functools.lru_cache(maxsize=1)
def converged_finds():
    """(problem, point) of a converged result of each kind: the Samelson structure at its
    Bismut parameter, an endpoint hunt find and a rigid-s find, where LM shrank the point."""
    samelson = S.SearchProblem(n=2, s=2.0)
    hunt = S.SearchProblem(n=2, s=2.0, restarts=2, seed=7, hunt=True)
    rigid = S.SearchProblem(n=2, s=1.5)
    found = next(r for r in S.multistart_search(hunt).results
                 if r.classification == S.CONVERGED_NONKAHLER)
    shrunk = S.lm_minimize(rigid, S.random_start(rigid, 42))
    assert shrunk.classification == S.CONVERGED_KAHLER
    return [(samelson, point_from_structure(samelson, hl.samelson_su2_r(1.0))),
            (hunt, point_from_structure(hunt, found.best_point)),
            (rigid, point_from_structure(rigid, shrunk.best_point))]


class TestScaleFreeVerdict:
    """The Kahler verdict reads rho = max(jacobi, flatness) / |T|^2, which does not depend on
    scale: the residuals are quadratic in the point and T is linear.

    Scaling is by powers of 2, which multiply every product and sum of the kernels exactly,
    so rho must come out bitwise equal.  The residuals of a converged point are cancellations
    down to tol, so scaling by an arbitrary factor would add rounding noise of their own size.
    """

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(n=st.sampled_from([2, 3]), mode=st.sampled_from([S.FULL, S.PARALLEL_FRAME]),
           s=st.sampled_from([0.0, 0.5, 1.3, 2.0]), seed=st.integers(0, 2**16),
           k=st.integers(-10, 10))
    def test_rho_of_random_points_is_scale_and_frame_free(self, n, mode, s, seed, k):
        problem = S.SearchProblem(n=n, s=s, mode=mode)
        x = np.random.default_rng(seed).standard_normal(S.unknown_count(problem))
        rho = revalidate(problem, x).rho
        assert revalidate(problem, x * 2.0**k).rho == rho
        moved = revalidate(problem, frame_changed(problem, x, random_unitary(n, seed))).rho
        assert moved == pytest.approx(rho, rel=1e-9)

    def test_ratio_is_inf_at_zero_torsion_and_divides_twice(self):
        # |T|^2 = 1e320 overflows, so the ratio divides by |T| twice
        rho = kahler_ratio(np.array([1.0, 0.0, 1e300, 4.0]), np.array([0.0, 0.0, 1e160, 2.0]))
        assert rho.tolist() == [np.inf, np.inf, 1e300 / 1e160 / 1e160, 1.0]
        assert kahler_ratio(2.0, 0.0) == np.inf and kahler_ratio(2.0, 4.0) == 0.125

    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(which=st.integers(0, 2), k=st.integers(-10, 10), seed=st.integers(0, 2**16))
    def test_converged_verdicts_are_scale_and_frame_free(self, which, k, seed):
        problem, x = converged_finds()[which]
        before = revalidate(problem, x)
        assert before.classification != S.NOT_CONVERGED
        # the residuals scale by exactly 4^k, so a tol scaled alike keeps the point converged
        scaled = revalidate(dataclasses.replace(problem, tol=problem.tol * 4.0**k), x * 2.0**k)
        assert scaled.rho == before.rho
        assert scaled.classification == before.classification
        moved = revalidate(problem, frame_changed(problem, x, random_unitary(2, seed)))
        assert moved.classification == before.classification


class TestRigidParameterVerdicts:
    """Searches at parameters outside {0, 2} converge only near the Kahler locus, where
    rho stays above RHO_MAX however small the point shrinks."""

    def test_baseline_command_reports_no_nonkahler(self, capsys):
        assert main(["search", "--n", "2", "--s", "1.5", "--restarts", "20", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "converged_nonkahler: 0" in out
        assert "converged_kahler: 20" in out

    @pytest.mark.parametrize("problem", [
        S.SearchProblem(n=3, s=1.0, restarts=4, seed=11),
        S.SearchProblem(n=4, s=1.0, mode=S.PARALLEL_FRAME, restarts=4, seed=13),
    ], ids=["n3-full", "n4-parallel"])
    def test_converged_restarts_are_kahler(self, problem):
        summary = S.multistart_search(problem)
        assert summary.count(S.CONVERGED_NONKAHLER) == 0
        for res in summary.results:
            if res.classification != S.NOT_CONVERGED:
                assert res.rho > RHO_MAX
