"""Least-squares search: residuals, exact Jacobian, LM behaviour, multistart."""

import dataclasses
import re

import numpy as np
import pytest

import hermlie as hl
from hermlie import core
from hermlie import search as S

from conftest import (
    quadratic_part, random_structure, random_unitary, residual_vector, unitary_change,
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
        x = S.point_from_structure(prob, hl.abelian(2))
        assert np.linalg.norm(residual_vector(x, prob)) == 0.0

    def test_samelson_zero_at_two(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        x = S.point_from_structure(prob, samelson)
        assert np.linalg.norm(residual_vector(x, prob)) <= 1e-14

    def test_samelson_nonzero_entries_match_curvature(self, samelson):
        prob = S.SearchProblem(n=2, s=0.0)
        x = S.point_from_structure(prob, samelson)
        r = residual_vector(x, prob)
        # Jacobi part vanishes (valid algebra); the rest is curvature entries
        n4 = 2**4
        jacobi_part = r[: 3 * 2 * n4]
        assert np.abs(jacobi_part).max() <= 1e-14
        assert np.abs(r).max() == pytest.approx(hl.curvature(samelson, 0.0).max_abs)

    @pytest.mark.parametrize("mode", [S.FULL, S.PARALLEL_FRAME])
    @pytest.mark.parametrize("n", [2, 3])
    def test_curvature_rows_are_R_in_index_order(self, n, mode):
        # after the 6 n^4 Jacobi rows: re then im of each R[a, b], a-major
        prob = S.SearchProblem(n=n, s=1.3, mode=mode)
        x = np.random.default_rng(n).standard_normal(S.unknown_count(prob))
        r = residual_vector(x, prob)
        R = hl.curvature(S.structure_from_point(prob, x), prob.s).R.reshape(4 * n * n, n * n)
        want = np.stack([R.real, R.imag], axis=1).ravel()
        assert r.shape == (6 * n**4 + want.size,)
        assert np.array_equal(r[6 * n**4 :], want)

    def test_point_encoding_roundtrip(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        x = S.point_from_structure(prob, samelson)
        U = S.structure_from_point(prob, x)
        assert np.abs(U.C - samelson.C).max() == 0.0
        assert np.abs(U.D - samelson.D).max() == 0.0

    def test_parallel_mode_induces_relations(self):
        prob = S.SearchProblem(n=2, s=1.5, mode=S.PARALLEL_FRAME)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(S.unknown_count(prob))
        U = S.structure_from_point(prob, x)
        T = hl.chern_torsion(U).T
        assert np.abs(U.C - 2 * (1.5 - 1) * T).max() <= 1e-13
        assert np.abs(U.D + 1.5 * T).max() <= 1e-13

    def test_hunt_appends_hinge(self):
        prob = S.SearchProblem(n=2, s=1.0, hunt=True)
        x = S.point_from_structure(prob, hl.abelian(2))
        r = residual_vector(x, prob)
        assert r[-1] == 0.5  # 0.5 - |T| with T = 0


class TestJacobian:
    def test_zero_point_linear_term_only(self):
        # all residuals are homogeneous quadratics: J(0) = 0
        prob = S.SearchProblem(n=2, s=0.7)
        J = S.jacobian(np.zeros(S.unknown_count(prob)), prob)
        assert np.abs(J).max() <= 1e-14

    @pytest.mark.parametrize(
        "problem",
        [
            S.SearchProblem(n=2, s=0.7),
            S.SearchProblem(n=3, s=1.0),
            S.SearchProblem(n=2, s=0.5, mode=S.PARALLEL_FRAME),
            S.SearchProblem(n=3, s=1.5, mode=S.PARALLEL_FRAME),
            S.SearchProblem(n=2, s=2.0, hunt=True),
        ],
        ids=["full-2", "full-3", "par-2", "par-3", "hunt"],
    )
    def test_matches_finite_differences(self, problem):
        rng = np.random.default_rng(hash(problem.mode) % 2**32)
        for trial in range(4):
            x = rng.standard_normal(S.unknown_count(problem))
            J = S.jacobian(x, problem)
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


def dense_form(model):
    """B of shape (m, d, d) in the full row layout; dropped rows are zero."""
    B = np.zeros((len(model.rows) * model.d, model.d))
    B[model.flat, model.cols] = model.vals
    full = np.zeros((model.m, model.d, model.d))
    full[model.rows] = B.reshape(-1, model.d, model.d)
    return full


MODEL_PROBLEMS = [
    S.SearchProblem(n=2, s=0.7),
    S.SearchProblem(n=3, s=1.0),
    S.SearchProblem(n=2, s=0.5, mode=S.PARALLEL_FRAME),
    S.SearchProblem(n=3, s=1.5, mode=S.PARALLEL_FRAME),
    S.SearchProblem(n=2, s=2.0, hunt=True),
]
MODEL_IDS = ["full-2", "full-3", "par-2", "par-3", "hunt"]


class TestQuadraticModel:
    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_matches_polarization_oracle(self, problem):
        r0, L, B = polarization_model(problem)
        assert np.abs(r0).max() == 0.0 and np.abs(L).max() == 0.0  # homogeneous quadratics
        model = S._polynomial_model(problem)
        assert np.abs(dense_form(model) - B).max() <= 1e-14 * np.abs(B).max()

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_half_jacobian_times_point_is_residual(self, problem):
        rng = np.random.default_rng(17)
        m = S._polynomial_model(problem).m
        for trial in range(3):
            x = rng.standard_normal(S.unknown_count(problem))
            r = residual_vector(x, problem)[:m]
            model_r = 0.5 * S.jacobian(x, problem)[:m] @ x
            assert np.abs(model_r - r).max() <= 1e-13 * max(1.0, np.abs(r).max())

    def test_torsion_map_matches_chern_torsion(self):
        for problem in MODEL_PROBLEMS:
            x = np.random.default_rng(3).standard_normal(S.unknown_count(problem))
            T = hl.chern_torsion(S.structure_from_point(problem, x)).T.ravel()
            t = S._polynomial_model(problem).torsion @ x
            assert np.abs(t[0::2] + 1j * t[1::2] - T).max() <= 1e-14 * max(1.0, np.abs(T).max())

    @pytest.mark.parametrize("problem", MODEL_PROBLEMS, ids=MODEL_IDS)
    def test_keeps_only_rows_that_can_be_nonzero(self, problem):
        # with the oracle test: the dropped rows of B are zero, the kept ones are not
        model = S._polynomial_model(problem)
        assert np.array_equal(np.unique(model.flat // model.d), np.arange(len(model.rows)))
        assert len(model.rows) < model.m

    def test_stored_size_is_bounded(self):
        # the dense (m, d, d) form at n = 3 full mode takes 47 MB
        model = S._polynomial_model(S.SearchProblem(n=3, s=1.0))
        assert model.flat.nbytes + model.cols.nbytes + model.vals.nbytes < 5e6

    def test_cached_on_what_defines_the_model(self):
        a = S.SearchProblem(n=2, s=0.7, seed=1, restarts=3, tol=1e-8, hunt=True)
        b = S.SearchProblem(n=2, s=0.7, seed=2, max_iters=10, kahler_tol=1e-3)
        assert S._polynomial_model(a) is S._polynomial_model(b)
        for c in (S.SearchProblem(n=2, s=0.8), S.SearchProblem(n=2, s=0.7, mode=S.PARALLEL_FRAME)):
            assert S._polynomial_model(c) is not S._polynomial_model(a)


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
            assert np.array_equal(S.point_from_structure(prob, U), x)
            V = random_structure(n, 60 + n)
            W = S.structure_from_point(prob, S.point_from_structure(prob, V))
            assert np.array_equal(W.C, V.C) and np.array_equal(W.D, V.D)
        else:
            assert np.array_equal(S.point_from_torsion(prob, hl.chern_torsion(U).T), x)
            T = hl.chern_torsion(random_structure(n, 60 + n)).T
            prob = S.SearchProblem(n=n, s=1.3, mode=mode)
            W = S.structure_from_point(prob, S.point_from_torsion(prob, T))
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
            assert np.array_equal(T[a], hl.chern_torsion(U).T)
            assert np.array_equal(A[a], core.connection_endomorphisms(U, problem.s))
            assert np.array_equal(brk[a], hl.bracket_tables(U))

    def test_index_table_is_cached_read_only(self):
        first, again = S._index_table(3), S._index_table(3)
        assert all(a is b and not a.flags.writeable for a, b in zip(first, again))
        with pytest.raises(ValueError):
            first[0][0] = 1


class TestLmMinimize:
    def test_zero_iterations_on_solution(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        res = S.lm_minimize(prob, S.point_from_structure(prob, samelson))
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
        res = S.lm_minimize(prob, S.point_from_structure(prob, noisy))
        assert res.classification == S.CONVERGED_NONKAHLER
        assert res.residual_norm <= 1e-10
        assert res.torsion_norm == pytest.approx(0.5, abs=1e-2)

    def test_descent_property(self, samelson):
        # accepted steps never increase the residual norm
        prob = S.SearchProblem(n=2, s=2.0, tol=1e-12, max_iters=60)
        noisy = hl.perturb(samelson, 0.05, 3)
        res = S.lm_minimize(prob, S.point_from_structure(prob, noisy))
        assert len(res.residual_history) >= 2
        assert all(
            b <= a for a, b in zip(res.residual_history, res.residual_history[1:])
        )
        assert res.residual_norm == res.residual_history[-1]

    def test_soundness_revalidation(self):
        prob = S.SearchProblem(n=2, s=0.0, restarts=5, seed=7, tol=1e-10, max_iters=200)
        summ = S.multistart_search(prob)
        for res in summ.results:
            if res.classification == S.NOT_CONVERGED:
                continue
            rep = hl.validate_structure(res.best_point, prob.tol)
            assert rep.max_abs <= 2 * prob.tol
            assert hl.curvature(res.best_point, prob.s).max_abs <= 2 * prob.tol


class TestStopReason:
    def test_tol_on_perturbed_samelson(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0, tol=1e-10, max_iters=200)
        res = S.lm_minimize(prob, S.point_from_structure(prob, hl.perturb(samelson, 1e-3, 12)))
        assert res.stop_reason == "tol"
        assert res.residual_norm <= prob.tol

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
            assert ra.residual_norm == rb.residual_norm
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
            assert hl.curvature(W, prob.s).frobenius == pytest.approx(
                res.final_flatness, abs=1e-10
            )
            assert hl.chern_torsion(W).norm == pytest.approx(res.torsion_norm, abs=1e-10)

    def test_counterexample_hunt_finds_nonkahler_at_endpoints(self):
        for s in (0.0, 2.0):
            prob = S.SearchProblem(
                n=2, s=s, restarts=12, seed=20240810, hunt=True,
                tol=1e-8, max_iters=300,
            )
            summ = S.multistart_search(prob)
            assert summ.count(S.CONVERGED_NONKAHLER) >= 1

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
        # a finite model can still overflow in the LM and the re-validation
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
                # column i * d + a of dense.T holds 2 B[i, a, :]
                assert np.array_equal(model.dense.T.reshape(len(model.rows), model.d, model.d),
                                      2 * dense_form(model)[model.rows])

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
        # (the later steps agree up to rounding: a block of one takes other BLAS kernels)
        assert alone.residual_history[:2] == patched.results[0].residual_history[:2]

    @pytest.mark.parametrize("problem", LOCKSTEP_PROBLEMS, ids=LOCKSTEP_IDS)
    def test_multistart_matches_lm_minimize(self, problem):
        summary = S.multistart_search(problem)
        for k, res in enumerate(summary.results):
            seed = problem.seed + k
            alone = S.lm_minimize(problem, S.random_start(problem, seed), seed_used=seed)
            assert alone.classification == res.classification
            assert alone.stop_reason == res.stop_reason
            assert alone.seed_used == res.seed_used == seed
