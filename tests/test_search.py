"""Least-squares search: residuals, exact Jacobian, LM behaviour, multistart."""

import numpy as np
import pytest

import hermlie as hl
from hermlie import search as S

from conftest import random_unitary


def fd_jacobian(x, problem, h=1e-6):
    d = x.shape[0]
    J = np.zeros((S.residual_vector(x, problem).shape[0], d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        J[:, i] = (S.residual_vector(x + e, problem) - S.residual_vector(x - e, problem)) / (2 * h)
    return J


class TestResidualVector:
    def test_abelian_zero(self):
        prob = S.SearchProblem(n=2, s=1.0)
        x = S.point_from_structure(prob, hl.abelian(2))
        assert np.linalg.norm(S.residual_vector(x, prob)) == 0.0

    def test_samelson_zero_at_two(self, samelson):
        prob = S.SearchProblem(n=2, s=2.0)
        x = S.point_from_structure(prob, samelson)
        assert np.linalg.norm(S.residual_vector(x, prob)) <= 1e-14

    def test_samelson_nonzero_entries_match_curvature(self, samelson):
        prob = S.SearchProblem(n=2, s=0.0)
        x = S.point_from_structure(prob, samelson)
        r = S.residual_vector(x, prob)
        # Jacobi part vanishes (valid algebra); the rest is curvature entries
        n4 = 2**4
        jacobi_part = r[: 3 * 2 * n4]
        assert np.abs(jacobi_part).max() <= 1e-14
        assert np.abs(r).max() == pytest.approx(hl.curvature(samelson, 0.0).max_abs)

    @pytest.mark.parametrize("mode", [S.FULL, S.PARALLEL_FRAME])
    @pytest.mark.parametrize("n", [2, 3])
    def test_curvature_rows_are_R_in_index_order(self, n, mode):
        # after the 6 n^4 Jacobi rows: re then im of each R[a, b], a-major
        prob = S.SearchProblem(n=n, s=1.3, mode=mode, flatness_weight=2.5)
        x = np.random.default_rng(n).standard_normal(S.unknown_count(prob))
        r = S.residual_vector(x, prob)
        R = hl.curvature(S.structure_from_point(prob, x), prob.s).R.reshape(4 * n * n, n * n)
        want = np.sqrt(prob.flatness_weight) * np.stack([R.real, R.imag], axis=1).ravel()
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
        prob = S.SearchProblem(n=2, s=1.0, torsion_reward=4.0, torsion_target=0.5)
        x = S.point_from_structure(prob, hl.abelian(2))
        r = S.residual_vector(x, prob)
        assert r[-1] == pytest.approx(2.0 * 0.5)  # sqrt(4) * (tau - 0)


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
            S.SearchProblem(n=2, s=2.0, torsion_reward=1.0),
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
        return S._quadratic_part(x, problem)

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
    S.SearchProblem(n=2, s=2.0, torsion_reward=1.0),
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
            r = S.residual_vector(x, problem)[:m]
            model_r = 0.5 * S.jacobian(x, problem)[:m] @ x
            assert np.abs(model_r - r).max() <= 1e-13 * max(1.0, np.abs(r).max())

    def test_torsion_map_matches_chern_torsion(self):
        for problem in MODEL_PROBLEMS:
            x = np.random.default_rng(3).standard_normal(S.unknown_count(problem))
            T = hl.chern_torsion(S.structure_from_point(problem, x)).T.ravel()
            t = S._torsion_model(problem.n, problem.s, problem.mode) @ x
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
        a = S.SearchProblem(n=2, s=0.7, seed=1, restarts=3, tol=1e-8, torsion_reward=1.0)
        b = S.SearchProblem(n=2, s=0.7, seed=2, max_iters=10, kahler_tol=1e-3)
        assert S._polynomial_model(a) is S._polynomial_model(b)
        c = S.SearchProblem(n=2, s=0.7, flatness_weight=2.0)
        assert S._polynomial_model(c) is not S._polynomial_model(a)


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
            n=2, s=1.5, restarts=4, seed=20240810, torsion_reward=1.0,
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

    @pytest.mark.parametrize("hunt", [0.0, 1.0], ids=["plain", "hunt"])
    def test_one_model_evaluation_per_iteration(self, hunt, monkeypatch):
        calls = []
        evaluate = S._evaluate

        def counting(x, problem):
            calls.append(1)
            return evaluate(x, problem)

        monkeypatch.setattr(S, "_evaluate", counting)
        prob = S.SearchProblem(n=2, s=1.5, torsion_reward=hunt, max_iters=80)
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
                               torsion_reward=1.0)
        summ = S.multistart_search(prob)
        converged = [r for r in summ.results if r.classification != S.NOT_CONVERGED]
        assert converged
        for res in converged:
            V = random_unitary(2, 5)
            W = hl.unitary_change(res.best_point, V)
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
                n=2, s=s, restarts=12, seed=20240810, torsion_reward=1.0,
                tol=1e-8, max_iters=300,
            )
            summ = S.multistart_search(prob)
            assert summ.count(S.CONVERGED_NONKAHLER) >= 1

    def test_rigid_parameter_yields_none(self):
        prob = S.SearchProblem(
            n=2, s=1.5, restarts=12, seed=20240810, torsion_reward=1.0,
            tol=1e-8, max_iters=300,
        )
        summ = S.multistart_search(prob)
        assert summ.count(S.CONVERGED_NONKAHLER) == 0
