"""Nonlinear least-squares search for flat structures.

The unknowns are structure constants (full mode: independent entries of
C plus all of D; parallel-frame mode: independent torsion entries, with
C = 2(s-1) T and D = -s T induced).  A point decodes linearly through
one index table of the independent antisymmetric entries (j, i, k),
i < k.  The residual stacks the real and imaginary parts of every
Jacobi identity and every curvature entry at the chosen parameter,
optionally extended by a soft hinge max(0, 0.5 - |T|) that pushes the
torsion norm up when hunting for non-Kahler candidates.

Apart from the hinge, every residual entry is a homogeneous quadratic
x^T B x in the unknowns.  The symmetric bilinear form B is assembled
once per (n, s, mode) from the bilinear Jacobi and curvature
kernels evaluated on the basis vectors, one basis row at a time and
only for b >= a, and only its nonzero entries are kept.  Residual rows
that vanish for every x are dropped from the model (104 of 224 at n = 2);
jacobian() scatters the others back into the documented layout.  The
Jacobian is J(x) = 2 B x and the residual is J(x) x / 2.

Levenberg-Marquardt runs with the fixed damping schedule (reject
doubles the damping, accept halves it) and evaluates the model once
per iteration, at the candidate point.  Each restart records why it
stopped: tol, step_floor, damping_ceiling, stagnation or max_iters.

Restarts run in lockstep blocks: per iteration one model evaluation on
the stack of points and one batched solve serve the whole block, and a
restart leaves it when it stops.  A small model (n = 2 full mode,
parallel-frame mode up to n = 3) also keeps B dense, so B x of a block
is one GEMM; a larger one applies its sparse B one point at a time.
Restart seeds are preassigned (problem.seed + restart index) and every
restart keeps its own state, so the results do not depend on the blocks.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._config import finite, positive_finite
from .core import (
    UnitaryStructure,
    _brackets,
    _curvature_tensor,
    _endomorphisms,
    _jacobi_bilinear,
    _parallel_frame,
    _torsion,
    chern_torsion,
    curvature,
    jacobi_residual_tensors,
)
from .exceptions import DimensionMismatchError, ValidationError
from .tensors import antisymmetrize_lower, frozen

FULL = "full"
PARALLEL_FRAME = "parallel_frame"

CONVERGED_KAHLER = "converged_kahler"
CONVERGED_NONKAHLER = "converged_nonkahler"
NOT_CONVERGED = "not_converged"

_INITIAL_DAMPING = 1e-3
_DAMPING_CEILING = 1e12
_STEP_FLOOR = 1e-15
_TORSION_TARGET = 0.5  # the hunt's hinge pushes |T| up to this
# stop when the residual norm fell by at most this fraction over this many accepted steps
_STAGNATION_DECREASE = 1e-6
_STAGNATION_STEPS = 10
_DENSE_BYTES = 1 << 20  # models whose dense B fits in this many bytes also keep it dense
_BLOCK_BYTES = 800_000  # working-set budget of one lockstep block of restarts


@dataclass(frozen=True)
class SearchProblem:
    """Least-squares formulation of "find a flat structure at parameter s".

    hunt turns on the counterexample hunt: the residual gains the
    hinge max(0, 0.5 - |T|).  tol is the convergence threshold on the
    residual 2-norm and also the classification threshold on the
    re-validated residuals; kahler_tol classifies the torsion norm.
    """

    n: int
    s: float
    mode: str = FULL
    hunt: bool = False
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
        if self.mode == PARALLEL_FRAME and self.n < 2:
            raise ValidationError("parallel_frame mode needs n >= 2: at n = 1 the torsion is zero")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        finite("s", self.s)
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


@functools.lru_cache(maxsize=8)
def _index_table(n: int):
    """(j, i, k) of the independent entries X^j_{ik}, i < k, of an antisymmetric X,
    in point order: j-major, then (i, k) row-major.  The arrays are read-only."""
    i, k = np.triu_indices(n, 1)
    return tuple(map(frozen, (np.repeat(np.arange(n), len(i)), np.tile(i, n), np.tile(k, n))))


def unknown_count(problem: SearchProblem) -> int:
    n = problem.n
    return 2 * (len(_index_table(n)[0]) + (n**3 if problem.mode == FULL else 0))


def _decode(x: np.ndarray, problem: SearchProblem):
    """(C, D) of the points x[..., :], over any leading axes of x.

    x holds (re, im) pairs: the index table entries of X (full mode: C,
    parallel-frame mode: T), then in full mode all entries of D."""
    n = problem.n
    j, i, k = _index_table(n)
    z = np.ascontiguousarray(x, dtype=float).view(complex)
    X = np.zeros(z.shape[:-1] + (n, n, n), dtype=complex)
    X[..., j, i, k] = z[..., : len(j)]
    X[..., j, k, i] = -z[..., : len(j)]
    if problem.mode == FULL:
        return X, z[..., len(j) :].reshape(X.shape)
    return _parallel_frame(X, problem.s)


def _encode(problem: SearchProblem, X: np.ndarray, D=()) -> np.ndarray:
    """The point of the antisymmetric tensor X, and of D in full mode."""
    return np.concatenate([X[_index_table(problem.n)], np.ravel(D)]).view(float)


def structure_from_point(problem: SearchProblem, x: np.ndarray) -> UnitaryStructure:
    """Decode an unknown vector into the structure it describes."""
    if np.shape(x) != (unknown_count(problem),):
        raise DimensionMismatchError(
            f"point has {np.shape(x)}, problem wants ({unknown_count(problem)},)"
        )
    C, D = _decode(x, problem)
    return UnitaryStructure(n=problem.n, C=C, D=D)


def point_from_structure(problem: SearchProblem, U: UnitaryStructure) -> np.ndarray:
    """Encode a structure as an unknown vector (full mode) exactly."""
    if problem.mode != FULL:
        raise ValueError("only full mode can encode an arbitrary structure")
    if U.n != problem.n:
        raise DimensionMismatchError(f"structure has n={U.n}, problem wants n={problem.n}")
    return _encode(problem, U.C, U.D)


def point_from_torsion(problem: SearchProblem, T: np.ndarray) -> np.ndarray:
    """Encode a torsion tensor as a parallel-frame unknown vector."""
    if problem.mode != PARALLEL_FRAME:
        raise ValueError("torsion points belong to parallel_frame mode")
    return _encode(problem, antisymmetrize_lower(np.asarray(T, complex)))


# ---------------------------------------------------------------------------
# residuals


def _hinge(x: np.ndarray, problem: SearchProblem):
    """Hinge value and gradient row at each point x[..., :] (gradient zero when inactive)."""
    M = _polynomial_model(problem).torsion
    t = x @ M.T
    norm = _norms(t)[..., None]
    pushing = (norm > 0.0) & (norm < _TORSION_TARGET)
    grad = np.divide(-(t @ M), norm, out=np.zeros_like(x), where=pushing)
    return np.maximum(_TORSION_TARGET - norm[..., 0], 0.0), grad


@dataclass(frozen=True, eq=False)
class _QuadraticModel:
    """Sparse symmetric bilinear form B of the residual rows that can be nonzero,
    and the linear torsion map.

    Model row i is row rows[i] of the m-row residual layout (see
    jacobian), which equals x^T B[i] x there; the other rows vanish for
    every x and are not stored.  Entry k is B[i, a, cols[k]] = vals[k] with
    flat[k] = i * d + a, so one bincount over flat gives B x.  Zeros of
    B are not stored either.  A small model also keeps 2 B densely as the
    (d, rows * d) matrix dense, so x @ dense holds the Jacobian rows 2 B x
    at every point of a stack x; dense is None otherwise.  torsion is the
    real matrix M with (T entries as interleaved re/im) = M @ x.
    """

    m: int
    d: int
    rows: np.ndarray
    flat: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    torsion: np.ndarray
    dense: np.ndarray | None


@functools.lru_cache(maxsize=8)
@np.errstate(over="ignore", invalid="ignore")
def _quadratic_model(n: int, s: float, mode: str) -> _QuadraticModel:
    """Assemble B[:, a, b] = (q(e_a, e_b) + q(e_b, e_a)) / 2 from the bilinear
    forms q of the Jacobi and curvature kernels, one basis row a at a time.

    The basis vectors are decoded in one call and their torsion,
    connection and bracket tables built batched.  Only b >= a is
    computed; B[:, b, a] is emitted from the same values.  Raises
    ValidationError when an entry of B overflows.
    """
    problem = SearchProblem(n=n, s=s, mode=mode)
    d = unknown_count(problem)
    Cb, Db = _decode(np.eye(d), problem)  # (C, D) of every basis vector
    T = _torsion(Cb, Db)
    A = _endomorphisms(Db + s * T)
    brk = _brackets(Cb, Db)
    M = np.ascontiguousarray(T.reshape(d, -1).view(float).T)  # column a: T of basis vector a

    def rows(jacobi, curv):
        # residual rows of q over the b axis, in the residual layout
        k = len(curv)
        jac = np.stack(jacobi, axis=1).reshape(k, 3, 1, n**4)
        cur = curv.reshape(k, 4 * n * n, 1, n * n)
        return np.concatenate([np.concatenate([jac.real, jac.imag], axis=2).reshape(k, -1),
                               np.concatenate([cur.real, cur.imag], axis=2).reshape(k, -1)], axis=1)

    m = 14 * n**4  # re and im of 3 Jacobi families of n^4 and 4n^2 curvature blocks of n^2
    block = slice(0, n)  # the curvature rows are the (1,0) blocks R[a, b, :n, :n]
    row, left, right, vals = [], [], [], []
    for a in range(d):
        tail = slice(a, d)
        ab = rows(_jacobi_bilinear(Cb[a], Db[a], Cb[tail], Db[tail], ("", "Z")),
                  _curvature_tensor(A[a], brk[a], A[tail], ("", "Z"), block))
        ba = rows(_jacobi_bilinear(Cb[tail], Db[tail], Cb[a], Db[a], ("Z", "")),
                  _curvature_tensor(A[tail], brk[tail], A[a], ("Z", ""), block))
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
    vals = np.concatenate(vals)
    if not np.isfinite(vals).all():
        raise ValidationError(f"the search model overflows at s={s!r}")
    row = np.concatenate(row)
    live = np.flatnonzero(np.bincount(row, minlength=m))
    compact = np.zeros(m, np.intp)
    compact[live] = np.arange(len(live))
    flat, cols = compact[row] * d + np.concatenate(left), np.concatenate(right)
    dense = None
    if 8 * len(live) * d * d <= _DENSE_BYTES:
        dense = np.zeros((d, len(live) * d))
        dense[cols, flat] = 2.0 * vals
        dense.flags.writeable = False
    return _QuadraticModel(m, d, live, flat, cols, vals, M, dense)


def _polynomial_model(problem: SearchProblem) -> _QuadraticModel:
    """The model of the problem, cached on what defines it: (n, s, mode)."""
    return _quadratic_model(problem.n, problem.s, problem.mode)


def _evaluate(x: np.ndarray, problem: SearchProblem):
    """(J, r, ||r||) at each point of the stack x (k, d): J (k, rows, d) over
    the model rows, then the hinge row when hunting, r (k, rows) and ||r|| (k,).

    J = 2 B x is one GEMM with the dense 2 B of a small model and one
    bincount per point otherwise; r = J x / 2.
    """
    model = _polynomial_model(problem)
    live = len(model.rows)
    J = np.empty((len(x), live + problem.hunt, model.d))
    rows = J.reshape(len(x), -1)[:, : live * model.d]  # a view of the model rows of J
    if model.dense is not None:
        np.matmul(x, model.dense, out=rows)
    else:  # one bincount per point
        for p, row in zip(x, rows):
            np.multiply(np.bincount(model.flat, model.vals * p[model.cols], len(row)), 2.0, out=row)
    if problem.hunt:
        value, J[:, live] = _hinge(x, problem)
    r = 0.5 * (J @ x[..., None])[..., 0]
    if problem.hunt:
        r[:, live] = value
    return J, r, _norms(r)


def _norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the rows a[..., :]."""
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def jacobian(x, problem: SearchProblem) -> np.ndarray:
    """Exact derivative of the residual at x, in its full row layout.

    Layout: re/im of the three Jacobi families (all index tuples), then
    re then im of each n x n curvature block R[a, b] at parameter s, a-major,
    then the torsion hinge when hunting.  Every polynomial entry is a
    homogeneous quadratic x^T B x, so its derivative is 2 B x, from the
    cached model; the rows the model drops are zero.
    The hinge row is differentiated analytically.
    """
    J = _evaluate(np.asarray(x, dtype=float)[None], problem)[0][0]
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
    non-finite normal equations fall back to a small gradient step.
    Raises ValidationError when the re-validated residuals overflow.
    """
    return _lm_batch(problem, np.asarray(start, dtype=float)[None], [seed_used])[0]


@np.errstate(over="ignore", invalid="ignore")
def _lm_batch(problem: SearchProblem, starts: np.ndarray, seeds) -> list:
    """lm_minimize from every row of the (k, d) stack starts, one result per row.

    A block of `width` restarts runs in lockstep, with one _evaluate and one batched
    solve per iteration; width is _BLOCK_BYTES over four float arrays of J's size
    (J, its candidate and temporaries).  A restart that stops leaves the block and
    the next start takes its place.  Each restart keeps its own damping, iteration
    count, history and stop reason, so its result does not depend on the schedule.
    """
    model = _polynomial_model(problem)
    width = max(1, _BLOCK_BYTES // max(1, 32 * (len(model.rows) + problem.hunt) * model.d))
    starts, admitted = np.asarray(starts, dtype=float), 0
    results, history = [None] * len(starts), [None] * len(starts)
    state = None  # live (the restart of each row), x, J, r, norm, mu, iterations
    ended = {}  # row -> step_floor or stagnation, from the last accepted step
    while True:
        room = width - (0 if state is None else len(state[0]))
        if room > 0 and admitted < len(starts):
            new = np.arange(admitted, min(len(starts), admitted + room))
            admitted += len(new)
            fresh = (new, starts[new], *_evaluate(starts[new], problem),
                     np.full(len(new), _INITIAL_DAMPING), np.zeros(len(new), dtype=int))
            state = fresh if state is None else tuple(map(np.concatenate, zip(state, fresh)))
            history[new[0] : admitted] = ([v] for v in fresh[4].tolist())
        live, x, J, r, norm, mu, iterations = state
        done = (norm <= problem.tol) | (mu >= _DAMPING_CEILING) | (iterations >= problem.max_iters)
        done[list(ended)] = True
        for row in done.nonzero()[0]:
            i, reason = live[row], ended.get(row) or (
                "tol" if norm[row] <= problem.tol
                else "damping_ceiling" if mu[row] >= _DAMPING_CEILING else "max_iters")
            results[i] = _classify(problem, x[row], int(iterations[row]), seeds[i],
                                   float(norm[row]), reason, tuple(history[i]))
        ended = {}
        if done.any():
            state = tuple(a[~done] for a in state)
            continue
        if not len(live):
            return results
        iterations += 1
        step = _lm_step(J, r, mu)
        cand = x + step
        cand_J, cand_r, cand_norm = _evaluate(cand, problem)
        accept = cand_norm <= norm
        if accept.all():  # take the candidates over instead of copying them
            state = live, cand, cand_J, cand_r, cand_norm, mu, iterations
        else:
            for old, new in zip(state[1:5], (cand, cand_J, cand_r, cand_norm)):
                np.copyto(old, new, where=accept.reshape((-1,) + (1,) * (old.ndim - 1)))
        del cand_J  # only J and the next candidate's J are held per restart
        live, x, J, r, norm, mu, iterations = state
        mu *= np.where(accept, 0.5, 2.0)
        floor = _norms(step) <= _STEP_FLOOR * (1.0 + _norms(x))
        take = accept.nonzero()[0]
        for row, value in zip(take.tolist(), norm[take].tolist()):
            h = history[live[row]]
            h.append(value)
            if floor[row]:
                ended[row] = "step_floor"
            elif value > problem.tol and len(h) > _STAGNATION_STEPS:
                before = h[-1 - _STAGNATION_STEPS]
                if before - value <= _STAGNATION_DECREASE * before:
                    ended[row] = "stagnation"


def _lm_step(J: np.ndarray, r: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Damped Gauss-Newton step (J^T J + mu I) step = -J^T r of each restart.

    When the batched solve fails, each restart of the block solves on
    its own.  Restarts whose own solve fails or is not finite take a
    small gradient step instead; a block of one does not solve twice.
    """
    Jt = J.transpose(0, 2, 1)
    g = Jt @ r[..., None]
    H = Jt @ J
    H.reshape(len(H), -1)[:, :: H.shape[-1] + 1] += mu[:, None]
    try:
        step = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        step = np.full(g.shape, np.nan)
        if len(H) > 1:  # solve restart by restart to find the singular systems
            for i in range(len(H)):
                with contextlib.suppress(np.linalg.LinAlgError):
                    step[i] = np.linalg.solve(H[i], -g[i])
    step, g = step[..., 0], g[..., 0]
    failed = ~np.isfinite(step).all(axis=1)
    if failed.any():
        gn = np.linalg.norm(g[failed], axis=1, keepdims=True)
        step[failed] = -g[failed] * (1e-3 / (1.0 + gn))
    return step


def _classify(problem: SearchProblem, x, iterations, seed_used, residual_norm, stop_reason,
              history) -> SearchResult:
    # hinge-free re-validation: reported residuals are pure Jacobi + flatness
    U = structure_from_point(problem, x)
    jac = float(np.sqrt(sum(np.sum(np.abs(f) ** 2) for f in jacobi_residual_tensors(U.C, U.D))))
    flat = curvature(U, problem.s).frobenius
    torsion = chern_torsion(U).norm
    if not all(map(math.isfinite, (jac, flat, torsion))):
        raise ValidationError(f"the search residuals overflow at s={problem.s!r}")
    cls = NOT_CONVERGED
    if max(jac, flat) <= problem.tol:
        cls = CONVERGED_KAHLER if torsion <= problem.kahler_tol else CONVERGED_NONKAHLER
    return SearchResult(
        best_point=U, final_jacobi=jac, final_flatness=flat, torsion_norm=torsion,
        classification=cls, iterations=iterations, seed_used=seed_used,
        residual_norm=residual_norm, stop_reason=stop_reason, residual_history=history,
    )


def random_start(problem: SearchProblem, seed: int) -> np.ndarray:
    """Unit complex-Gaussian start (antisymmetrized through the layout)."""
    return np.random.default_rng(seed).standard_normal(unknown_count(problem))


def multistart_search(problem: SearchProblem) -> MultistartSummary:
    """Run lm_minimize from `restarts` seeded random starts, in lockstep blocks.

    Restart k draws its start from seed problem.seed + k.  The restarts
    run in lockstep blocks (see _lm_batch) whose size is the budget
    _BLOCK_BYTES over the working set of one restart: about ten at n = 2
    full mode, five at n = 3 parallel-frame mode and one at n = 3 full
    mode.  Each restart's result does not depend on its block.  The
    summary counts classifications and stop reasons.  Non-convergence is
    counted, never dropped: absence of non-Kahler solutions is evidence
    about this search, not a proof, and the bookkeeping keeps that
    explicit.
    """
    seeds = range(problem.seed, problem.seed + problem.restarts)
    results = tuple(_lm_batch(problem, np.stack([random_start(problem, k) for k in seeds]), seeds))
    return MultistartSummary(problem, results, dict(Counter(r.classification for r in results)),
                             dict(Counter(r.stop_reason for r in results)))
