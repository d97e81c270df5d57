"""Nonlinear least-squares search for flat structures.

The unknowns are structure constants (full mode: independent entries of
C plus all of D; parallel-frame mode: independent torsion entries, with
C = 2(s-1) T and D = -s T induced).  A point decodes linearly through
one index table of the independent antisymmetric entries (j, i, k),
i < k.  The residual stacks the real and imaginary parts of every
Jacobi identity and every curvature entry at the chosen parameter; a hunt
for non-Kahler candidates appends the torsion slice row w (|T|^2 - c).

Every residual entry is x^T B x - c, with c zero but on the slice row.
The symmetric bilinear form B is assembled once per (n, s, mode, hunt)
from the bilinear terms of the Jacobi and curvature identities
(core._JACOBI_TERMS, core._CURVATURE_TERMS), and is w M^T M on the slice
row, M the linear torsion map.  A basis vector has only a few nonzero
entries in C, D, the connection endomorphisms and the bracket table, so
each term on a pair of basis vectors is a join of their nonzero entries
on the contracted index; the sums follow the order of the dense kernels,
so B is bitwise the one they give.  Only the nonzero entries of B are
kept.  The index symmetries of the identities (R[a, b] = -R[b, a], its
conjugate, the antisymmetries of the Jacobi families) make most rows +-1
times another row for every x and s, and some rows vanish identically
(_class_map).  The model keeps one row per class, weighted so that the
residual norm and the normal equations are those of every row: 40 of 224
rows at n = 2 full mode, 249 of 1134 at n = 3.  The search forms no other
residual: J(x) = 2 B x (jacobian) and r = J(x) x / 2 - c.

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
restart keeps its own state, so the results do not depend on the blocks,
to the last digit (see _gemm).

The verdict of a restart is read from the model residual r at its end
point: the Jacobi and flatness norms are those of its Jacobi rows and of
its other class rows (a hunt's slice row left out), which the class
weights make the Frobenius norms of the full tensors, and |T| = ||M x||.
tol decides convergence only (Jacobi and flatness residuals <= tol); a converged restart is
non-Kahler iff rho = _config.kahler_ratio(max(jacobi, flatness), |T|) is <= RHO_MAX.
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ._config import RHO_MAX, finite, kahler_ratio, positive_finite
from .core import (
    UnitaryStructure,
    _CURVATURE_TERMS,
    _JACOBI_TERMS,
    _brackets,
    _endomorphisms,
    _parallel_frame,
    _torsion,
)
from .exceptions import DimensionMismatchError, ValidationError
from .tensors import frozen

FULL = "full"
PARALLEL_FRAME = "parallel_frame"

CONVERGED_KAHLER = "converged_kahler"
CONVERGED_NONKAHLER = "converged_nonkahler"
NOT_CONVERGED = "not_converged"

_INITIAL_DAMPING = 1e-3
_DAMPING_CEILING = 1e12
_STEP_FLOOR = 1e-15
_SLICE = 0.25  # the hunt's slice row w (|T|^2 - _SLICE) holds |T| at 0.5
# w of the slice row.  Measured on the endpoint hunts (n = 2 at s = 0 and 2: 100 restarts at seed
# 20240810, 40 at seeds 7 and 42; n = 3 at s = 0 and 2: 20 at seed 7): every w in [0.01, 0.3]
# ends every restart non-Kahler, w = 1 loses 3 of the 180 at n = 2, s = 0.
_SLICE_WEIGHT = 0.1
# stop when the residual norm fell by at most this fraction over this many accepted steps
_STAGNATION_DECREASE = 1e-6
_STAGNATION_STEPS = 10
_DENSE_BYTES = 1 << 20  # models whose dense B fits in this many bytes also keep it dense
_BLOCK_BYTES = 800_000  # working-set budget of one lockstep block of restarts
_CHUNK_ROWS = 12  # basis rows a per pass of the model build, which bounds its working set


@dataclass(frozen=True)
class SearchProblem:
    """Least-squares formulation of "find a flat structure at parameter s".

    hunt turns on the counterexample hunt: the residual gains the slice row
    w (|T|^2 - 0.25), which holds |T| at 0.5.  tol is the convergence threshold on the
    residual 2-norm and on the Jacobi and flatness norms at the end point: it decides
    convergence only, and the scale-free rho decides Kahler (see _classify).
    """

    n: int
    s: float
    mode: str = FULL
    hunt: bool = False
    restarts: int = 1
    seed: int = 0
    max_iters: int = 300
    tol: float = 1e-10

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


@dataclass(frozen=True)
class SearchResult:
    best_point: UnitaryStructure
    final_jacobi: float
    final_flatness: float
    torsion_norm: float
    rho: float  # max(final_jacobi, final_flatness) / torsion_norm^2, inf when torsion_norm = 0
    classification: str
    iterations: int
    seed_used: int
    stop_reason: str
    residual_history: tuple = ()  # norm at the start, then after each accepted step


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
    in point order: j-major, then (i, k) row-major.  The arrays are read-only.
    Raises ValidationError naming n when the table does not fit in memory."""
    try:
        i, k = np.triu_indices(n, 1)
        return tuple(map(frozen, (np.repeat(np.arange(n), len(i)), np.tile(i, n), np.tile(k, n))))
    except MemoryError as exc:
        raise ValidationError(f"n={n} is too large: its unknowns do not fit in memory") from exc


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


def structure_from_point(problem: SearchProblem, x: np.ndarray) -> UnitaryStructure:
    """Decode an unknown vector into the structure it describes."""
    if np.shape(x) != (unknown_count(problem),):
        raise DimensionMismatchError(
            f"point has {np.shape(x)}, problem wants ({unknown_count(problem)},)"
        )
    C, D = _decode(x, problem)
    return UnitaryStructure(n=problem.n, C=C, D=D)


# ---------------------------------------------------------------------------
# residuals


def _gemm(x: np.ndarray, A: np.ndarray, out=None) -> np.ndarray:
    """x @ A for the stack x (k, p), by GEMM whatever k, into out when given.

    numpy hands a product with one row to GEMV, which rounds otherwise, so one
    row is padded to two; a row's product is then the same in a stack of any size,
    as GEMM computes each row alike whatever the number of rows (TestLockstep
    checks the paths this gives bitwise).
    """
    if len(x) > 1:
        return np.matmul(x, A, out=out)
    pair = np.matmul(np.concatenate([x, x]), A)
    if out is None:
        return pair[:1]
    out[...] = pair[:1]
    return out


@dataclass(frozen=True, eq=False)
class _QuadraticModel:
    """Rows x^T B[i] x - const[i]: a sparse symmetric bilinear form B of one weighted
    representative row per class of residual rows (see _class_map), then a hunt's slice
    row, and the linear torsion map.

    Row i < len(rows) stands for the class of residual row rows[i], times the root
    of the sum of the squared factors over the class, so ||r||^2, J^T J and J^T r
    are those of all 14 n^4 residual rows; classes that vanish for every x are not
    stored.  The slice row w (|T|^2 - c) has B = w M^T M and const w c; const is 0
    on the other rows.  Entry k is B[i, a, cols[k]] = vals[k] with flat[k] = i * d + a,
    so one bincount over flat gives B x.  Zeros of B are not stored either.  A small
    model also keeps 2 B densely as the (d, len(const) * d) matrix dense, so x @ dense
    holds the Jacobian rows 2 B x at every point of a stack x; dense is None otherwise.
    torsion is the real matrix M with (T entries as interleaved re/im) = M @ x.
    """

    d: int
    rows: np.ndarray
    flat: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    torsion: np.ndarray
    dense: np.ndarray | None
    const: np.ndarray


def _layout(n: int) -> np.ndarray:
    """(2, 7 n^4) rows of the re and im parts of each complex residual entry o: the
    Jacobi families [f, i, j, k, l], then R[a, b, x, z] on the (1,0) blocks."""
    o = np.arange(7 * n**4)
    first, g = np.where(o < 3 * n**4, 0, 3 * n**4), np.where(o < 3 * n**4, n**4, n**2)
    re = o + first + (o - first) // g * g
    return np.stack([re, re + g])


@functools.lru_cache(maxsize=8)
def _class_map(n: int):
    """(rep, factor) over the m = 14 n^4 residual rows: row r equals factor[r] times
    row rep[r] at every point, parameter and mode, and rep[rep[r]] = rep[r].

    The classes are the orbits of the index symmetries of each family: the
    first Jacobi family is alternating in (i, j, k), the other two are
    antisymmetric in (i, k), and R[a, b] = -R[b, a] = -conj(R[abar, bbar])^T
    on the (1,0) blocks (R(X, Y) is skew-Hermitian for real X, Y).  The
    representative of an orbit is its entry of least index; a row that an
    orbit maps to minus itself vanishes identically and gets factor 0 and
    rep[r] = r.  The factors are +-1 or 0.  The arrays are read-only.
    """
    N = 2 * n
    bar = (np.arange(N) + n) % N  # the conjugate direction
    parity = ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1), (1, 0, 2, -1), (0, 2, 1, -1), (2, 1, 0, -1))
    # per block of complex entries: its index shape, then each group element as the
    # image of the index tuple t and the factors of its re and im parts there
    blocks = [((n,) * 4, [(lambda t, p=p: (t[p[0]], t[p[1]], t[p[2]], t[3]), p[3], p[3])
                          for p in parity])]
    blocks += [((n,) * 4, [(lambda t: t, 1, 1), (lambda t: (t[2], t[1], t[0], t[3]), -1, -1)])] * 2
    blocks.append(((N, N, n, n), [
        (lambda t: t, 1, 1), (lambda t: (t[1], t[0], t[2], t[3]), -1, -1),
        (lambda t: (bar[t[0]], bar[t[1]], t[3], t[2]), -1, 1),
        (lambda t: (bar[t[1]], bar[t[0]], t[3], t[2]), 1, -1)]))
    layout = _layout(n)
    rep, factor = np.empty(14 * n**4, np.intp), np.empty(14 * n**4)
    offset = 0
    for shape, group in blocks:
        t = tuple(np.indices(shape).reshape(4, -1))
        o = np.arange(len(t[0]))
        image = np.stack([np.ravel_multi_index(g(t), shape) for g, _, _ in group])
        signs = np.array([(re, im) for _, re, im in group], float)
        best = image.argmin(axis=0)
        for part in (0, 1):
            f = signs[best, part]
            # an element fixing the entry with factor -1 makes this part vanish
            f[((image == o) & (signs[:, part, None] < 0)).any(axis=0)] = 0.0
            rows = layout[part, offset + o]
            rep[rows] = np.where(f != 0, layout[part, offset + image[best, o]], rows)
            factor[rows] = f
        offset += len(o)
    return frozen(rep), frozen(factor)


@functools.lru_cache(maxsize=8)
@np.errstate(over="ignore", invalid="ignore")
def _quadratic_model(n: int, s: float, mode: str, hunt: bool) -> _QuadraticModel:
    """The model of _representative_entries, each row weighted by the root of the
    sum of the squared factors of its class; with hunt, that model's arrays
    followed by the slice row.  Raises ValidationError naming n when the model
    does not fit in memory, and one naming s when an entry of B overflows."""
    if hunt:
        plain = _quadratic_model(n, s, mode, False)
        B = _SLICE_WEIGHT * (plain.torsion.T @ plain.torsion)
        a, b = np.nonzero(B)
        dense = plain.dense if plain.dense is None else frozen(np.hstack([plain.dense, 2.0 * B]))
        return replace(plain, flat=np.append(plain.flat, len(plain.rows) * plain.d + a),
                       cols=np.append(plain.cols, b), vals=np.append(plain.vals, B[a, b]),
                       dense=dense, const=np.append(plain.const, _SLICE_WEIGHT * _SLICE))
    try:
        (row, left, right, vals), M = _representative_entries(n, s, mode)
    except MemoryError as exc:  # the first allocation, the d x d basis, is 743 TiB at n = 150
        raise ValidationError(f"n={n} is too large: its model does not fit in memory") from exc
    rep, factor = _class_map(n)
    vals *= np.sqrt(np.bincount(rep, factor * factor))[row]  # after the sums, the kernels' own
    live, row = np.unique(row, return_inverse=True)
    d = M.shape[1]
    if not np.isfinite(vals).all():
        raise ValidationError(f"the search model overflows at s={s!r}")
    flat, cols = row * d + left, right
    dense = None
    if 8 * len(live) * d * d <= _DENSE_BYTES:
        dense = np.zeros((d, len(live) * d))
        dense[cols, flat] = 2.0 * vals
        dense.flags.writeable = False
    return _QuadraticModel(d, live, flat, cols, vals, M, dense, np.zeros(len(live)))


@np.errstate(over="ignore", invalid="ignore")
def _representative_entries(n: int, s: float, mode: str):
    """((row, left, right, value) of the nonzero B[row, left, right] of the representative
    rows of _class_map, in (left, group, right, row) order, and the torsion map M),
    where B[:, a, b] = (q(e_a, e_b) + q(e_b, e_a)) / 2 for the bilinear terms q of the
    Jacobi and curvature identities (core._JACOBI_TERMS, core._CURVATURE_TERMS), joined
    over the nonzero entries of the basis images.

    Every basis vector has a handful of nonzero entries in C, D, conj(D), the
    connection endomorphisms A and the bracket table, so each term of q(e_a, e_b)
    is a join of two short entry lists on its contracted index.  Joined pairs whose
    output entry is not a representative are dropped before their products are
    formed.  The terms are added up per entry of B in the order of the dense
    kernels, so each representative row is the one they give, bitwise.  The lower
    index a runs in chunks of _CHUNK_ROWS rows, b over b >= a, and B[:, b, a] is
    emitted from the same values.  Raises ValidationError when a basis image
    overflows.
    """
    problem = SearchProblem(n=n, s=s, mode=mode)
    d = unknown_count(problem)
    Cb, Db = _decode(np.eye(d), problem)  # (C, D) of every basis vector
    T = _torsion(Cb, Db)
    factors = {"C": Cb, "D": Db, "Dbar": np.conj(Db), "A": _endomorphisms(Db + s * T),
               "brk": _brackets(Cb, Db)}
    # at huge s, 2 (s - 1) T overflows and the zeros of C become nan (inf * 0): the joins
    # would pair all of its entries, and B overflows anyway
    if not all(np.isfinite(X).all() for X in factors.values()):
        raise ValidationError(f"the search model overflows at s={s!r}")
    M = np.ascontiguousarray(T.reshape(d, -1).view(float).T)  # column a: T of basis vector a
    entries = {name: (np.nonzero(X), X[X != 0]) for name, X in factors.items()}
    # complex residual entry o: the Jacobi families, then the curvature blocks
    jac, cur = (n,) * 4, (2 * n, 2 * n, n, n)
    terms = [(sign, _operand(entries[left], ll, "ijkl", jac, f * n**4),
              _operand(entries[right], rl, "ijkl", jac, 0))
             for f, sign, left, ll, right, rl in _JACOBI_TERMS]
    terms += [(sign, _operand(entries[left], ll, "abxz", cur, 3 * n**4),
               _operand(entries[right], rl, "abxz", cur, 0))
              for sign, left, ll, right, rl in _CURVATURE_TERMS]
    rep, factor = _class_map(n)
    representative = (rep == np.arange(len(rep))) & (factor != 0)
    chunks = [_model_chunk(terms, _layout(n), representative, a0, min(d, a0 + _CHUNK_ROWS), d)
              for a0 in range(0, d, _CHUNK_ROWS)]
    return tuple(map(np.concatenate, zip(*chunks))), M


def _operand(entries, labels, out_labels, out_shape, offset):
    """One factor of a bilinear term: (basis index, contracted index, part of the
    output index, value) of its nonzero entries that fall inside out_shape.

    entries is (np.nonzero(X), values) of the stack X of basis images; labels
    name the axes of X[a], one of them the contracted index and the others
    output labels.  The output index is offset plus the row-major index into
    out_shape, and the two factors of a term each contribute their part."""
    (u, *idx), vals = entries
    keep = np.ones(len(u), bool)
    part = np.full(len(u), offset)
    strides = np.cumprod((1,) + out_shape[:0:-1])[::-1]
    for label, i in zip(labels, idx):
        if label in out_labels:
            axis = out_labels.index(label)
            keep &= i < out_shape[axis]
            part += i * strides[axis]
        else:
            key = i
    return u[keep], key[keep], part[keep], vals[keep]


def _join(left_key, right_key):
    """Index pairs (i, j) with left_key[i] == right_key[j], in i-major order."""
    order = np.argsort(right_key, kind="stable")
    count = np.bincount(right_key, minlength=left_key.max(initial=0) + 1)
    reps = count[left_key]
    i = np.repeat(np.arange(len(left_key)), reps)
    first = np.cumsum(reps) - reps  # where the pairs of each i start
    start = np.cumsum(count) - count  # where each key starts in order
    return i, order[np.repeat(start[left_key] - first, reps) + np.arange(len(i))]


def _model_chunk(terms, layout, representative, a0, a1, d):
    """(row, left, right, value) of the nonzero B[row, left, right] with min(left, right)
    in [a0, a1) and row a representative, in the emission order of
    _representative_entries.

    Only the pairs whose complex entry o has a representative re or im row
    (layout[:, o]) form products.  For each entry (a, b, o), b >= a, and each term,
    the products of its join are summed first; then q(e_a, e_b) and q(e_b, e_a) each
    add their terms up in table order, as the dense kernels do, and
    B = (q(e_a, e_b) + q(e_b, e_a)) / 2.
    """
    def basis(operand, lo, hi):  # the entries of the basis vectors lo <= u < hi
        start, stop = np.searchsorted(operand[0], (lo, hi))
        return [x[start:stop] for x in operand]

    width = layout.shape[1]
    wanted = representative[layout].any(axis=0)
    keys, prods = [], []
    for _, left, right in terms:
        # q(e_a, e_b) takes the left factor from a in the chunk, q(e_b, e_a) from b >= a
        for (lu, lk, lp, lv), (ru, rk, rp, rv), swap in (
                (basis(left, a0, a1), basis(right, a0, d), False),
                (basis(left, a0, d), basis(right, a0, a1), True)):
            i, j = _join(lk, rk)
            a, b = (ru[j], lu[i]) if swap else (lu[i], ru[j])
            o = lp[i] + rp[j]
            keep = (b >= a) & wanted[o]
            i, j = i[keep], j[keep]
            keys.append(((a[keep] - a0) * d + b[keep]) * width + o[keep])
            prods.append(lv[i] * rv[j])
    slots, where = np.unique(np.concatenate(keys), return_inverse=True)
    where = np.split(where, np.cumsum([len(k) for k in keys])[:-1])
    q = np.zeros((2, 2, len(slots)))  # [q(e_a, e_b) or q(e_b, e_a), re or im, slot]
    for t, (sign, _, _) in enumerate(terms):
        for swap in (0, 1):
            k, v = where[2 * t + swap], prods[2 * t + swap]
            part = np.stack([np.bincount(k, v.real, len(slots)), np.bincount(k, v.imag, len(slots))])
            q[swap] = q[swap] + part if sign > 0 else q[swap] - part
    vals = (0.5 * (q[0] + q[1])).ravel()
    row = layout[:, slots % width].ravel()
    a, b = np.tile(slots // (d * width) + a0, 2), np.tile(slots // width % d, 2)
    nz = np.flatnonzero((vals != 0) & representative[row])
    nz = nz[np.argsort(((a[nz] - a0) * d + b[nz]) * 2 * width + row[nz])]
    row, a, b, vals = row[nz], a[nz], b[nz], vals[nz]
    # per a: every b >= a in (b, row) order, then the mirrored entries B[:, b, a], b > a;
    # so within every (r, a) bin of B x the b values come in ascending order
    mirror = b > a
    emit = np.argsort(np.concatenate([2 * a, 2 * a[mirror] + 1]), kind="stable")
    return tuple(np.concatenate(pair)[emit] for pair in (
        (row, row[mirror]), (a, b[mirror]), (b, a[mirror]), (vals, vals[mirror])))


def _polynomial_model(problem: SearchProblem) -> _QuadraticModel:
    """The model of the problem, cached on what defines it: (n, s, mode, hunt)."""
    return _quadratic_model(problem.n, problem.s, problem.mode, problem.hunt)


def _evaluate(x: np.ndarray, problem: SearchProblem):
    """(J, r, ||r||) at each point of the stack x (k, d): J (k, rows, d) and
    r (k, rows) over the model rows, and ||r|| (k,).

    J = 2 B x is one GEMM (_gemm) with the dense 2 B of a small model and one
    bincount per point otherwise; r = J x / 2 - const.  A point's J and r do
    not depend on the other points of the stack, nor on their number.
    """
    model = _polynomial_model(problem)
    J = np.empty((len(x), len(model.const), model.d))
    rows = J.reshape(len(x), -1)
    if model.dense is not None:
        _gemm(x, model.dense, out=rows)
    else:  # one bincount per point
        for p, row in zip(x, rows):
            np.multiply(np.bincount(model.flat, model.vals * p[model.cols], len(row)), 2.0, out=row)
    r = 0.5 * (J @ x[..., None])[..., 0] - model.const
    return J, r, _norms(r)


def _norms(a: np.ndarray) -> np.ndarray:
    """2-norms of the rows a[..., :]."""
    return np.sqrt(np.einsum("...i,...i->...", a, a))


def jacobian(x, problem: SearchProblem) -> np.ndarray:
    """_evaluate's J at the point x: 2 B x over the model rows, then a hunt's slice row."""
    return _evaluate(np.asarray(x, dtype=float)[None], problem)[0][0]


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
    Raises ValidationError when the residuals at the end point overflow.
    """
    return _lm_batch(problem, [start], [seed_used])[0]


@np.errstate(over="ignore", invalid="ignore")
def _lm_batch(problem: SearchProblem, starts, seeds) -> list:
    """lm_minimize from the iterable starts, one per seed of seeds, one result per seed.

    A block of `width` restarts runs in lockstep, with one _evaluate and one batched
    solve per iteration; width is _BLOCK_BYTES over four float arrays of J's size
    (J, its candidate and temporaries).  A restart that stops leaves the block and
    the next start is drawn to take its place, so starts are drawn after the model
    is built, a block at a time.  Each restart keeps its own damping, iteration
    count, history and stop reason, and its products do not depend on the block
    (_evaluate), so its result is bitwise the same under any schedule.
    Each restart's model residual r at its end point is kept for _classify.
    """
    model = _polynomial_model(problem)
    width = max(1, _BLOCK_BYTES // max(1, 32 * len(model.const) * model.d))
    try:  # the end points of 10^15 restarts at n = 2 take 142 PiB; 10^19 overflows len
        total = len(seeds)
        ends, residuals = np.empty((total, model.d)), np.empty((total, len(model.const)))
        stops, history = [None] * total, [None] * total
    except (MemoryError, OverflowError, ValueError) as exc:
        raise ValidationError(f"restarts={problem.restarts} is too large to fit in memory") from exc
    starts, admitted = iter(starts), 0
    state = None  # live (the restart of each row), x, J, r, norm, mu, iterations, stop
    while True:
        room = width - (0 if state is None else len(state[0]))
        if room > 0 and admitted < total:
            added = np.arange(admitted, min(total, admitted + room))
            admitted += len(added)
            x = np.array([next(starts) for _ in added], dtype=float)
            fresh = (added, x, *_evaluate(x, problem), np.full(len(added), _INITIAL_DAMPING),
                     np.zeros(len(added), dtype=int), np.full(len(added), "", dtype=object))
            state = fresh if state is None else tuple(map(np.concatenate, zip(state, fresh)))
            history[added[0] : admitted] = ([v] for v in fresh[4].tolist())
        live, x, J, r, norm, mu, iterations, stop = state
        # a stop from the last accepted step (step_floor, stagnation) comes first
        for reason, hit in (("tol", norm <= problem.tol),
                            ("damping_ceiling", mu >= _DAMPING_CEILING),
                            ("max_iters", iterations >= problem.max_iters)):
            stop[hit & (stop == "")] = reason
        done = stop != ""
        if done.any():
            for row in done.nonzero()[0]:
                ends[live[row]], residuals[live[row]] = x[row], r[row]
                stops[live[row]] = (int(iterations[row]), stop[row])
            state = tuple(a[~done] for a in state)
            continue
        if not len(live):
            return _classify(problem, ends, residuals, stops, seeds, history)
        iterations += 1
        step = _lm_step(J, r, mu)
        cand = x + step
        cand_J, cand_r, cand_norm = _evaluate(cand, problem)
        accept = cand_norm <= norm
        for new, old in zip((cand, cand_J, cand_r, cand_norm), (x, J, r, norm)):
            new[~accept] = old[~accept]  # a rejected restart keeps its point, J, r and norm
        state = live, cand, cand_J, cand_r, cand_norm, mu, iterations, stop
        del J, cand_J  # only J and the next candidate's J are held per restart
        mu *= np.where(accept, 0.5, 2.0)
        floor = _norms(step) <= _STEP_FLOOR * (1.0 + _norms(cand))
        take = accept.nonzero()[0]
        for row, value in zip(take.tolist(), cand_norm[take].tolist()):
            h = history[live[row]]
            h.append(value)
            if floor[row]:
                stop[row] = "step_floor"
            elif value > problem.tol and len(h) > _STAGNATION_STEPS:
                before = h[-1 - _STAGNATION_STEPS]
                if before - value <= _STAGNATION_DECREASE * before:
                    stop[row] = "stagnation"


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


def _classify(problem: SearchProblem, x: np.ndarray, r: np.ndarray, stops, seeds,
              histories) -> list:
    """The results of the restarts that ended at the points x (k, d) with model
    residuals r (k, rows), with their (iterations, stop reason), seeds and residual
    histories.

    The Jacobi norm is that of the Jacobi rows of r (full-layout rows below 6 n^4, a
    prefix of the sorted model.rows), the flatness norm that of the other class rows,
    a hunt's slice row left out, and the torsion norm is ||M x||.  The class weights
    make them the Frobenius norms of the Jacobi residuals, of the curvature at s and
    of the torsion.  Raises ValidationError when they overflow.
    """
    model = _polynomial_model(problem)
    split = np.searchsorted(model.rows, 6 * problem.n**4)
    checks = np.stack([_norms(r[:, :split]), _norms(r[:, split : len(model.rows)]),
                       _norms(_gemm(x, model.torsion.T))], axis=1)
    if not np.isfinite(checks).all():
        raise ValidationError(f"the search residuals overflow at s={problem.s!r}")
    rhos = kahler_ratio(checks[:, :2].max(axis=1), checks[:, 2])
    results = []
    for point, (jac, flat, torsion), rho, (iterations, reason), seed, history in zip(
            x, checks.tolist(), rhos.tolist(), stops, seeds, histories):
        cls = NOT_CONVERGED
        if max(jac, flat) <= problem.tol:
            cls = CONVERGED_NONKAHLER if rho <= RHO_MAX else CONVERGED_KAHLER
        results.append(SearchResult(
            best_point=structure_from_point(problem, point), final_jacobi=jac,
            final_flatness=flat, torsion_norm=torsion, rho=rho, classification=cls,
            iterations=iterations, seed_used=seed, stop_reason=reason,
            residual_history=tuple(history),
        ))
    return results


def random_start(problem: SearchProblem, seed: int) -> np.ndarray:
    """Unit complex-Gaussian start (antisymmetrized through the layout)."""
    return np.random.default_rng(seed).standard_normal(unknown_count(problem))


def multistart_search(problem: SearchProblem) -> MultistartSummary:
    """Run lm_minimize from `restarts` seeded random starts, in lockstep blocks.

    Restart k draws its start from seed problem.seed + k as it enters a
    lockstep block (see _lm_batch), whose size is the budget _BLOCK_BYTES
    over the working set of one restart: 30 at n = 2 full mode, 12 at n = 3
    parallel-frame mode and one at n = 3 full mode and n = 4.  Each
    restart's result is bitwise the one of lm_minimize from its start,
    whatever its block.  The summary counts classifications and stop
    reasons.  Non-convergence is counted, never dropped: absence of
    non-Kahler solutions is evidence about this search, not a proof, and
    the bookkeeping keeps that explicit.
    """
    seeds = range(problem.seed, problem.seed + problem.restarts)
    results = tuple(_lm_batch(problem, (random_start(problem, k) for k in seeds), seeds))
    return MultistartSummary(problem, results, dict(Counter(r.classification for r in results)),
                             dict(Counter(r.stop_reason for r in results)))
