"""Nonlinear least-squares search for flat structures.

The unknowns are structure constants (full mode: independent entries of
C plus all of D; parallel-frame mode: independent torsion entries, with
C = 2(s-1) T and D = -s T induced).  The residual stacks the real and
imaginary parts of every Jacobi identity and every curvature entry at
the chosen parameter, optionally extended by a soft hinge
sqrt(w) * max(0, tau - |T|) that pushes the torsion norm up when
hunting for non-Kahler candidates.

Apart from the hinge, every residual entry is a homogeneous quadratic
x^T B x in the unknowns.  The symmetric bilinear form B is assembled
once per (n, s, mode, weights) from the bilinear Jacobi and curvature
kernels evaluated on the basis vectors, one basis row at a time and
only for b >= a, and only its nonzero entries are kept.  Residual rows
that vanish for every x are dropped from the model (104 of 224 at n = 2);
jacobian() scatters the others back into the documented layout.  The
Jacobian is J(x) = 2 B x and the residual is J(x) x / 2.

Levenberg-Marquardt runs with the fixed damping schedule (reject
doubles the damping, accept halves it) and evaluates the model once
per iteration, at the candidate point.  Each restart records why it
stopped: tol, step_floor, damping_ceiling, stagnation or max_iters.

Restart seeds are preassigned (problem.seed + restart index), so the
summary of a multistart run is deterministic no matter how restarts
would be scheduled.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._config import positive_finite
from .core import (
    UnitaryStructure,
    _curvature_tensor,
    _jacobi_bilinear,
    bracket_tables,
    chern_torsion,
    connection_endomorphisms,
    curvature,
    jacobi_residual_tensors,
)
from .exceptions import DimensionMismatchError, ValidationError
from .tensors import antisymmetrize_lower

FULL = "full"
PARALLEL_FRAME = "parallel_frame"

CONVERGED_KAHLER = "converged_kahler"
CONVERGED_NONKAHLER = "converged_nonkahler"
NOT_CONVERGED = "not_converged"

_INITIAL_DAMPING = 1e-3
_DAMPING_CEILING = 1e12
_STEP_FLOOR = 1e-15
# stop when the residual norm fell by at most this fraction over this many accepted steps
_STAGNATION_DECREASE = 1e-6
_STAGNATION_STEPS = 10


@dataclass(frozen=True)
class SearchProblem:
    """Least-squares formulation of "find a flat structure at parameter s".

    torsion_reward > 0 turns on the counterexample hunt: the residual
    gains the hinge sqrt(torsion_reward) * max(0, torsion_target - |T|).
    tol is the convergence threshold on the residual 2-norm and also
    the classification threshold on the re-validated residuals;
    kahler_tol classifies the torsion norm.
    """

    n: int
    s: float
    mode: str = FULL
    jacobi_weight: float = 1.0
    flatness_weight: float = 1.0
    torsion_reward: float = 0.0
    torsion_target: float = 0.5
    restarts: int = 1
    seed: int = 0
    max_iters: int = 300
    tol: float = 1e-10
    kahler_tol: float = 1e-6

    def __post_init__(self):
        if self.mode not in (FULL, PARALLEL_FRAME):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.n < 1 or self.restarts < 1 or self.max_iters < 1:
            raise ValidationError("n, restarts and max_iters must be positive")
        if not math.isfinite(self.s):
            raise ValidationError(f"s must be finite, got {self.s}")
        if not min(self.jacobi_weight, self.flatness_weight, self.torsion_reward) >= 0:
            raise ValidationError("weights must be nonnegative")
        positive_finite("tol", self.tol)
        positive_finite("kahler_tol", self.kahler_tol)


@dataclass(frozen=True)
class SearchResult:
    best_point: UnitaryStructure
    final_jacobi: float
    final_flatness: float
    torsion_norm: float
    classification: str
    iterations: int
    seed_used: int
    residual_norm: float
    stop_reason: str
    used_gradient_fallback: bool = False
    residual_history: tuple = ()  # norm after each accepted step, start included


@dataclass(frozen=True)
class MultistartSummary:
    problem: SearchProblem
    results: tuple
    counts: dict
    stop_reasons: dict  # stop reason -> number of restarts

    def count(self, classification: str) -> int:
        return self.counts.get(classification, 0)


# ---------------------------------------------------------------------------
# unknown vector layout


def _independent_pairs(n: int):
    return [(i, k) for i in range(n) for k in range(i + 1, n)]


def unknown_count(problem: SearchProblem) -> int:
    n = problem.n
    m = n * len(_independent_pairs(n))  # complex freedoms of an antisymmetric tensor
    if problem.mode == FULL:
        return 2 * m + 2 * n**3
    return 2 * m


def _antisym_from_vector(x, n: int) -> np.ndarray:
    out = np.zeros((n, n, n), dtype=complex)
    pos = 0
    for j in range(n):
        for (i, k) in _independent_pairs(n):
            out[j, i, k] = x[pos] + 1j * x[pos + 1]
            out[j, k, i] = -out[j, i, k]
            pos += 2
    return out


def _antisym_to_vector(X: np.ndarray, x, n: int) -> None:
    pos = 0
    for j in range(n):
        for (i, k) in _independent_pairs(n):
            x[pos] = X[j, i, k].real
            x[pos + 1] = X[j, i, k].imag
            pos += 2


def structure_from_point(problem: SearchProblem, x: np.ndarray) -> UnitaryStructure:
    """Decode an unknown vector into the structure it describes."""
    n = problem.n
    x = np.asarray(x, dtype=float)
    if x.shape != (unknown_count(problem),):
        raise DimensionMismatchError(
            f"point has {x.shape}, problem wants ({unknown_count(problem)},)"
        )
    m = 2 * n * len(_independent_pairs(n))
    if problem.mode == FULL:
        C = _antisym_from_vector(x[:m], n)
        D = x[m::2].reshape(n, n, n) + 1j * x[m + 1 :: 2].reshape(n, n, n)
        return UnitaryStructure(n=n, C=C, D=D)
    T = _antisym_from_vector(x, n)
    return UnitaryStructure(n=n, C=2 * (problem.s - 1) * T, D=-problem.s * T)


def point_from_structure(problem: SearchProblem, U: UnitaryStructure) -> np.ndarray:
    """Encode a structure as an unknown vector (full mode) exactly."""
    if problem.mode != FULL:
        raise ValueError("only full mode can encode an arbitrary structure")
    n = problem.n
    x = np.zeros(unknown_count(problem))
    m = 2 * n * len(_independent_pairs(n))
    _antisym_to_vector(U.C, x[:m], n)
    x[m::2] = U.D.real.ravel()
    x[m + 1 :: 2] = U.D.imag.ravel()
    return x


def point_from_torsion(problem: SearchProblem, T: np.ndarray) -> np.ndarray:
    """Encode a torsion tensor as a parallel-frame unknown vector."""
    if problem.mode != PARALLEL_FRAME:
        raise ValueError("torsion points belong to parallel_frame mode")
    n = problem.n
    x = np.zeros(unknown_count(problem))
    _antisym_to_vector(antisymmetrize_lower(np.asarray(T, complex)), x, n)
    return x


# ---------------------------------------------------------------------------
# residuals


def _quadratic_part(x: np.ndarray, problem: SearchProblem) -> np.ndarray:
    """All polynomial residual entries (Jacobi then curvature), weighted."""
    U = structure_from_point(problem, x)
    wj = np.sqrt(problem.jacobi_weight)
    wf = np.sqrt(problem.flatness_weight)
    parts = []
    for fam in jacobi_residual_tensors(U.C, U.D):
        flat = fam.ravel()
        parts.append(wj * flat.real)
        parts.append(wj * flat.imag)
    R = curvature(U, problem.s).R.reshape(-1, 1, problem.n**2)
    parts.append(wf * np.concatenate([R.real, R.imag], axis=1).ravel())
    return np.concatenate(parts)


def _hinge(x: np.ndarray, problem: SearchProblem):
    """Hinge value and its gradient row (zero when inactive)."""
    w = np.sqrt(problem.torsion_reward)
    M = _torsion_model(problem.n, problem.s, problem.mode)
    t = M @ x
    norm = float(np.linalg.norm(t))
    if norm >= problem.torsion_target:
        return 0.0, np.zeros_like(x)
    if norm == 0.0:
        return w * problem.torsion_target, np.zeros_like(x)
    grad = -w * (M.T @ t) / norm
    return w * (problem.torsion_target - norm), grad


def residual_vector(x, problem: SearchProblem) -> np.ndarray:
    """Weighted residual entries at the point x (definition, not the model).

    Layout: re/im of the three Jacobi families (all index tuples), then
    re/im of the curvature R[a, b, x, y] at parameter s in index order
    (re then im of each n x n block R[a, b]), then the torsion hinge when
    torsion_reward > 0.
    """
    x = np.asarray(x, dtype=float)
    r = _quadratic_part(x, problem)
    if problem.torsion_reward > 0:
        value, _ = _hinge(x, problem)
        r = np.append(r, value)
    return r


@dataclass(frozen=True, eq=False)
class _QuadraticModel:
    """Sparse symmetric bilinear form B of the residual rows that can be nonzero.

    Model row i is row rows[i] of the m-row layout of _quadratic_part,
    which equals x^T B[i] x there; the other rows vanish for every x and
    are not stored.  Entry k is B[i, a, cols[k]] = vals[k] with
    flat[k] = i * d + a, so one bincount over flat gives B x.  Zeros of
    B are not stored either.
    """

    m: int
    d: int
    rows: np.ndarray
    flat: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


@functools.lru_cache(maxsize=8)
def _basis(n: int, s: float, mode: str) -> tuple:
    """The structures decoded from the unit vectors of the unknown layout."""
    problem = SearchProblem(n=n, s=s, mode=mode)
    return tuple(structure_from_point(problem, e) for e in np.eye(unknown_count(problem)))


@functools.lru_cache(maxsize=8)
def _quadratic_model(
    n: int, s: float, mode: str, jacobi_weight: float, flatness_weight: float
) -> _QuadraticModel:
    """Assemble B[:, a, b] = (q(e_a, e_b) + q(e_b, e_a)) / 2 from the bilinear
    forms q of the Jacobi and curvature kernels, one basis row a at a time.

    Only b >= a is computed; B[:, b, a] is emitted from the same values.
    """
    basis = _basis(n, s, mode)
    d = len(basis)
    Cb = np.array([U.C for U in basis]).reshape(d, n, n, n)
    Db = np.array([U.D for U in basis]).reshape(d, n, n, n)
    shape = (d, 2 * n, 2 * n, 2 * n)
    A = np.array([connection_endomorphisms(U, s) for U in basis]).reshape(shape)
    brk = np.array([bracket_tables(U) for U in basis]).reshape(shape)
    wj = np.sqrt(jacobi_weight)
    wf = np.sqrt(flatness_weight)

    def rows(jacobi, curv):
        # residual rows of q over the b axis, laid out as _quadratic_part
        k = len(curv)
        jac = np.stack(jacobi, axis=1).reshape(k, 3, 1, n**4)
        cur = curv.reshape(k, 4 * n * n, 1, n * n)
        return np.concatenate(
            [
                wj * np.concatenate([jac.real, jac.imag], axis=2).reshape(k, -1),
                wf * np.concatenate([cur.real, cur.imag], axis=2).reshape(k, -1),
            ],
            axis=1,
        )

    m = 14 * n**4  # re and im of 3 Jacobi families of n^4 and 4n^2 curvature blocks of n^2
    block = slice(0, n)  # the curvature rows are the (1,0) blocks R[a, b, :n, :n]
    row, left, right, vals = [], [], [], []
    for a in range(d):
        tail = slice(a, d)
        ab = rows(
            _jacobi_bilinear(Cb[a], Db[a], Cb[tail], Db[tail], ("", "Z")),
            _curvature_tensor(A[a], brk[a], A[tail], ("", "Z"), block),
        )
        ba = rows(
            _jacobi_bilinear(Cb[tail], Db[tail], Cb[a], Db[a], ("Z", "")),
            _curvature_tensor(A[tail], brk[tail], A[a], ("Z", ""), block),
        )
        sym = 0.5 * (ab + ba)  # sym[b - a, r] = B[r, a, b] = B[r, b, a]
        b_idx, row_idx = np.nonzero(sym)
        v = sym[b_idx, row_idx]
        b_idx += a
        mirror = b_idx > a
        # within every (r, a) bin of B x the b values come in ascending order
        row += [row_idx, row_idx[mirror]]
        left += [np.full(len(b_idx), a), b_idx[mirror]]
        right += [b_idx, np.full(int(mirror.sum()), a)]
        vals += [v, v[mirror]]
    row = np.concatenate(row)
    live = np.flatnonzero(np.bincount(row, minlength=m))
    compact = np.zeros(m, np.intp)
    compact[live] = np.arange(len(live))
    return _QuadraticModel(
        m, d, live, compact[row] * d + np.concatenate(left), np.concatenate(right),
        np.concatenate(vals),
    )


def _polynomial_model(problem: SearchProblem) -> _QuadraticModel:
    """The quadratic model of the problem, cached on what defines it."""
    return _quadratic_model(
        problem.n, problem.s, problem.mode, problem.jacobi_weight, problem.flatness_weight
    )


@functools.lru_cache(maxsize=8)
def _torsion_model(n: int, s: float, mode: str) -> np.ndarray:
    """Real matrix M with (T entries as interleaved re/im) = M @ x."""
    T = np.array([chern_torsion(U).T for U in _basis(n, s, mode)]).reshape(-1, n**3)
    M = np.zeros((2 * n**3, T.shape[0]))
    M[0::2] = T.real.T
    M[1::2] = T.imag.T
    return M


def _evaluate(x: np.ndarray, problem: SearchProblem):
    """(J, r, ||r||) at x over the model rows, then the hinge row when hunting.

    J = 2 B x is one bincount and r = J x / 2; the hinge costs one M @ x.
    """
    model = _polynomial_model(problem)
    hunt = problem.torsion_reward > 0
    k = len(model.rows) + hunt
    Bx = np.bincount(model.flat, weights=model.vals * x[model.cols], minlength=k * model.d)
    J = 2.0 * Bx.reshape(k, model.d)
    r = 0.5 * (J @ x)
    if hunt:
        r[-1], J[-1] = _hinge(x, problem)
    return J, r, float(np.linalg.norm(r))


def jacobian(x, problem: SearchProblem) -> np.ndarray:
    """Exact derivative of residual_vector at x, in its full row layout.

    Every polynomial entry is a homogeneous quadratic x^T B x, so the
    derivative is 2 B x, evaluated from the sparse B of the cached
    model; the rows the model drops are zero.  The hinge row is
    differentiated analytically.  Central finite differences of
    residual_vector reproduce this to rounding.
    """
    x = np.asarray(x, dtype=float)
    J, _, _ = _evaluate(x, problem)
    model = _polynomial_model(problem)
    live = len(model.rows)
    full = np.zeros((model.m + len(J) - live, model.d))
    full[model.rows] = J[:live]
    full[model.m :] = J[live:]
    return full


# ---------------------------------------------------------------------------
# Levenberg-Marquardt


def lm_minimize(problem: SearchProblem, start, seed_used: int = -1) -> SearchResult:
    """Damped least squares from one start point.

    Damping doubles on a rejected step and halves on an accepted one,
    starting from 1e-3.  The model is evaluated once per iteration, at
    the candidate; an accepted candidate's J and r serve the next
    iteration and a rejected step reuses the current ones.  Iteration
    stops, with that stop_reason on the result, when
      tol              the residual 2-norm reaches problem.tol,
      step_floor       an accepted step is below 1e-15 (1 + |x|),
      damping_ceiling  the damping reaches 1e12,
      stagnation       the residual norm fell by at most a 1e-6 fraction
                       over the last 10 accepted steps,
      max_iters        problem.max_iters iterations have run.
    Accepted steps never increase the residual norm.  Singular or
    non-finite normal equations fall back to a small gradient step and
    are flagged on the result.
    """
    x = np.asarray(start, dtype=float).copy()
    J, r, norm = _evaluate(x, problem)
    mu = _INITIAL_DAMPING
    iterations = 0
    fallback = False
    history = [norm]

    while True:
        if norm <= problem.tol:
            stop = "tol"
            break
        if mu >= _DAMPING_CEILING:
            stop = "damping_ceiling"
            break
        if iterations >= problem.max_iters:
            stop = "max_iters"
            break
        iterations += 1
        g = J.T @ r
        H = J.T @ J
        H.flat[:: H.shape[0] + 1] += mu
        try:
            step = np.linalg.solve(H, -g)
            if not np.all(np.isfinite(step)):
                raise np.linalg.LinAlgError("non-finite step")
        except np.linalg.LinAlgError:
            fallback = True
            gn = float(np.linalg.norm(g))
            step = -g * (1e-3 / (1.0 + gn))
        cand = x + step
        cand_J, cand_r, cand_norm = _evaluate(cand, problem)
        if cand_norm <= norm:
            x, J, r, norm = cand, cand_J, cand_r, cand_norm
            history.append(norm)
            mu *= 0.5
            if float(np.linalg.norm(step)) <= _STEP_FLOOR * (1.0 + float(np.linalg.norm(x))):
                stop = "step_floor"
                break
            if norm > problem.tol and len(history) > _STAGNATION_STEPS:
                before = history[-1 - _STAGNATION_STEPS]
                if before - norm <= _STAGNATION_DECREASE * before:
                    stop = "stagnation"
                    break
        else:
            mu *= 2.0

    return _classify(problem, x, iterations, seed_used, norm, stop, fallback, tuple(history))


def _classify(
    problem: SearchProblem,
    x: np.ndarray,
    iterations: int,
    seed_used: int,
    residual_norm: float,
    stop_reason: str,
    fallback: bool,
    history: tuple = (),
) -> SearchResult:
    # hinge-free re-validation: reported residuals are pure Jacobi + flatness
    U = structure_from_point(problem, x)
    jac = float(
        np.sqrt(sum(np.sum(np.abs(f) ** 2) for f in jacobi_residual_tensors(U.C, U.D)))
    )
    flat = curvature(U, problem.s).frobenius
    torsion = chern_torsion(U).norm
    if max(jac, flat) <= problem.tol:
        cls = CONVERGED_KAHLER if torsion <= problem.kahler_tol else CONVERGED_NONKAHLER
    else:
        cls = NOT_CONVERGED
    return SearchResult(
        best_point=U,
        final_jacobi=jac,
        final_flatness=flat,
        torsion_norm=torsion,
        classification=cls,
        iterations=iterations,
        seed_used=seed_used,
        residual_norm=residual_norm,
        stop_reason=stop_reason,
        used_gradient_fallback=fallback,
        residual_history=history,
    )


def random_start(problem: SearchProblem, seed: int) -> np.ndarray:
    """Unit complex-Gaussian start (antisymmetrized through the layout)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(unknown_count(problem))


def multistart_search(problem: SearchProblem) -> MultistartSummary:
    """Run lm_minimize from `restarts` seeded random starts serially.

    Restart k draws its start from seed problem.seed + k; the summary
    counts classifications and stop reasons.  Non-convergence is
    counted, never dropped: absence of non-Kahler solutions is evidence
    about this search, not a proof, and the bookkeeping keeps that
    explicit.
    """
    results = tuple(
        lm_minimize(problem, random_start(problem, problem.seed + k), seed_used=problem.seed + k)
        for k in range(problem.restarts)
    )
    return MultistartSummary(
        problem=problem,
        results=results,
        counts=dict(Counter(res.classification for res in results)),
        stop_reasons=dict(Counter(res.stop_reason for res in results)),
    )
