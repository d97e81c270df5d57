"""Fixtures, and the second formulas the tests check the package against."""

from dataclasses import dataclass

import numpy as np
import pytest

import hermlie as hl
from hermlie import search as S
from hermlie._config import validity_tol
from hermlie import core
from hermlie.core import _curvature_tensor, jacobi_residual_tensors
from hermlie.exceptions import DimensionMismatchError
from hermlie.tensors import antisymmetrize_lower, frozen, max_abs


@pytest.fixture
def samelson():
    return hl.samelson_su2_r(1.0)


@pytest.fixture
def bdf4_structure():
    return hl.to_unitary_structure(hl.bdf_flat_kahler_4d(1.0))


@pytest.fixture
def affine():
    return hl.affine_complex_group(1.0)


def random_structure(n: int, seed: int) -> hl.UnitaryStructure:
    """Well-formed (not necessarily Jacobi-valid) random structure constants."""
    return hl.perturb(hl.abelian(n), 1.0, seed)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar-ish random unitary via QR with a fixed phase convention."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def transform_frame(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Coefficient tensor after the unitary frame change e'_a = sum_i V[i,a] e_i.

    X'[c,a,b] = sum conj(V[u,c]) V[i,a] V[j,b] X[u,i,j]; valid for any
    tensor with one conjugate-contracted upper slot and two plain lower
    slots (C, D, T and connection coefficients all transform this way).
    """
    return np.einsum("uij,uc,ia,jb->cab", X, np.conj(V), V, V, optimize=True)


def unitary_change(U: hl.UnitaryStructure, V: np.ndarray) -> hl.UnitaryStructure:
    """The same structure written in the frame e'_a = sum_i V[i,a] e_i (V unitary)."""
    V = np.asarray(V, dtype=complex)
    if V.shape != (U.n, U.n):
        raise DimensionMismatchError(f"V must be {U.n}x{U.n}, got {V.shape}")
    return hl.UnitaryStructure(n=U.n, C=transform_frame(U.C, V), D=transform_frame(U.D, V))


def realify(M: np.ndarray) -> np.ndarray:
    """Complex matrix as the real matrix acting on stacked (re, im) parts."""
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def connection_flatness_residuals(U: hl.UnitaryStructure, s: float):
    """The two identity families satisfied by flat left-invariant connections.

    holomorphic family:
        sum_r ( C^r_{ik} G^l_{jr} + G^r_{ji} G^l_{rk} - G^r_{jk} G^l_{ri} )
    mixed family:
        sum_r ( D^j_{ri} conj(G^k_{lr}) + G^l_{kr} conj(D^i_{rj})
                + G^l_{ri} conj(G^k_{rj}) - G^r_{ki} conj(G^r_{lj}) )

    with G the parameter-s coefficients, returned as arrays indexed
    [i, j, k, l] (0-based).  Written out from the paper's flatness
    equations rather than from the curvature commutator, they serve as
    an oracle for curvature(): with R = curvature(U, s).R,

        holo[i, j, k, l]  = -R[i, k, l, j]
        mixed[i, j, k, l] = -R[i, n + j, l, k]

    so both vanish iff the structure is flat at s.
    """
    G = hl.gauduchon_connection(U, s)
    cG = np.conj(G)
    cD = np.conj(U.D)
    holo = (
        np.einsum("rik,ljr->ijkl", U.C, G, optimize=True)
        + np.einsum("rji,lrk->ijkl", G, G, optimize=True)
        - np.einsum("rjk,lri->ijkl", G, G, optimize=True)
    )
    mixed = (
        np.einsum("jri,klr->ijkl", U.D, cG, optimize=True)
        + np.einsum("lkr,irj->ijkl", G, cD, optimize=True)
        + np.einsum("lri,krj->ijkl", G, cG, optimize=True)
        - np.einsum("rki,rlj->ijkl", G, cG, optimize=True)
    )
    return holo, mixed


def curvature_as_flatness_families(R: np.ndarray):
    """The index map above applied to R: (holo, mixed) as R predicts them."""
    n = R.shape[-1]
    return (
        -np.einsum("iklj->ijkl", R[:n, :n]),
        -np.einsum("ijlk->ijkl", R[:n, n:]),
    )


def _encode(problem, X: np.ndarray, D=()) -> np.ndarray:
    """The search point of the antisymmetric tensor X, and of D in full mode."""
    return np.concatenate([X[S._index_table(problem.n)], np.ravel(D)]).view(float)


def point_from_structure(problem, U: hl.UnitaryStructure) -> np.ndarray:
    """The full-mode search point of a structure, exactly: the inverse of structure_from_point."""
    assert problem.mode == S.FULL and U.n == problem.n
    return _encode(problem, U.C, U.D)


def point_from_torsion(problem, T: np.ndarray) -> np.ndarray:
    """The parallel-frame search point of a torsion tensor."""
    assert problem.mode == S.PARALLEL_FRAME
    return _encode(problem, antisymmetrize_lower(np.asarray(T, complex)))


def quadratic_part(x: np.ndarray, problem) -> np.ndarray:
    """All polynomial residual entries at the point x (Jacobi then curvature).

    Written from the definition, not from the search model, so it is an
    oracle for the model and its Jacobian (full_rows).
    """
    U = S.structure_from_point(problem, x)
    parts = []
    for fam in jacobi_residual_tensors(U.C, U.D):
        flat = fam.ravel()
        parts.append(flat.real)
        parts.append(flat.imag)
    R = hl.curvature(U, problem.s).R.reshape(-1, 1, problem.n**2)
    parts.append(np.concatenate([R.real, R.imag], axis=1).ravel())
    return np.concatenate(parts)


def _jacobi_bilinear(C1, D1, C2, D2, batch):
    """The bilinear Jacobi forms, written out term by term; batch names leading axes of
    (C1, D1) and of (C2, D2), which come first in the result in that order."""
    p, q = batch

    def term(spec, X, Y):
        left, right = spec.split(",")
        return np.einsum(f"{p}{left},{q}{right}->{p}{q}ijkl", X, Y, optimize=True)

    cD2 = np.conj(D2)
    fam1 = term("rij,lrk", C1, C2) + term("rjk,lri", C1, C2) + term("rki,lrj", C1, C2)
    fam2 = term("rik,ljr", C1, D2) + term("rji,lrk", D1, D2) - term("rjk,lri", D1, D2)
    fam3 = (
        term("rik,rjl", C1, cD2)
        - term("jrk,irl", C1, cD2)
        + term("jri,krl", C1, cD2)
        - term("lri,kjr", D1, cD2)
        + term("lrk,ijr", D1, cD2)
    )
    return fam1, fam2, fam3


def _curvature_bilinear(A, brk, A2, batch, block):
    """A_a A2_b - A_b A2_a - brk[a,b,c] A2_c over the block of both matrix indices;
    batch names leading axes of (A, brk) and of A2, which come first in that order."""
    p, q = batch
    left, right = A[..., block, :], A2[..., :, block]
    prod = np.einsum(f"{p}axy,{q}byz->{p}{q}abxz", left, right, optimize=True)
    comm = prod - prod.swapaxes(-4, -3)
    lin = np.einsum(f"{p}abc,{q}cxy->{p}{q}abxy", brk, A2[..., block, block], optimize=True)
    return comm - lin


def _images(problem, x):
    """(C, D, A, brk) of the stack of points x, A at the problem's parameter."""
    C, D = S._decode(x, problem)
    return C, D, core._endomorphisms(D + problem.s * core._torsion(C, D)), core._brackets(C, D)


def _bilinear_rows(first, second, batch, n):
    """Full-layout rows of the bilinear residual q(first, second) of the Jacobi and
    curvature forms, one row per pair of (C, D, A, brk) images; batch names the leading
    axes of first and of second, and the stacked one comes first."""
    (C1, D1, A1, brk1), (C2, D2, A2, _) = first, second
    jac = np.stack(_jacobi_bilinear(C1, D1, C2, D2, batch), axis=1)
    curv = _curvature_bilinear(A1, brk1, A2, batch, slice(0, n))
    k = len(curv)
    jac = jac.reshape(k, 3, 1, n**4)
    cur = curv.reshape(k, 4 * n * n, 1, n * n)
    return np.concatenate([np.concatenate([jac.real, jac.imag], axis=2).reshape(k, -1),
                           np.concatenate([cur.real, cur.imag], axis=2).reshape(k, -1)], axis=1)


@np.errstate(over="ignore", invalid="ignore")
def row_by_row_model(n: int, s: float, mode: str):
    """(m, d, rows, flat, cols, vals, torsion, dense) of the full-row model: B over every
    residual row of the layout that is not identically zero, from dense einsums of the
    Jacobi and curvature forms on every pair of basis vectors.

    This is the model build of earlier releases, which kept every row: per basis
    row a it evaluates q(e_a, e_b) and q(e_b, e_a) for all b >= a and keeps the
    nonzero entries of B[:, a, b] = (q(e_a, e_b) + q(e_b, e_a)) / 2, in the emission
    order of search._representative_entries.
    """
    problem = S.SearchProblem(n=n, s=s, mode=mode)
    d = S.unknown_count(problem)
    basis = _images(problem, np.eye(d))
    T = core._torsion(*basis[:2])
    M = np.ascontiguousarray(T.reshape(d, -1).view(float).T)

    m = 14 * n**4
    row, left, right, vals = [], [], [], []
    for a in range(d):
        one, tail = [X[a] for X in basis], [X[a:] for X in basis]
        ab = _bilinear_rows(one, tail, ("", "Z"), n)
        ba = _bilinear_rows(tail, one, ("Z", ""), n)
        sym = 0.5 * (ab + ba)
        b_idx, row_idx = np.nonzero(sym)
        v = sym[b_idx, row_idx]
        b_idx += a
        mirror = b_idx > a
        row += [row_idx, row_idx[mirror]]
        left += [np.full(len(b_idx), a), b_idx[mirror]]
        right += [b_idx, np.full(int(mirror.sum()), a)]
        vals += [v, v[mirror]]
    vals = np.concatenate(vals)
    row = np.concatenate(row)
    live = np.flatnonzero(np.bincount(row, minlength=m))
    compact = np.zeros(m, np.intp)
    compact[live] = np.arange(len(live))
    flat, cols = compact[row] * d + np.concatenate(left), np.concatenate(right)
    dense = None
    if 8 * len(live) * d * d <= S._DENSE_BYTES:
        dense = np.zeros((d, len(live) * d))
        dense[cols, flat] = 2.0 * vals
    return m, d, live, flat, cols, vals, M, dense


def full_row_jacobian(x, problem) -> np.ndarray:
    """2 B x of the full-row model at the point x, (m, d), without building B: column b
    is q(x, e_b) + q(e_b, x), from the same dense einsums as row_by_row_model."""
    d = S.unknown_count(problem)
    point = _images(problem, np.asarray(x, dtype=float))
    basis = _images(problem, np.eye(d))
    n = problem.n
    return (_bilinear_rows(point, basis, ("", "Z"), n)
            + _bilinear_rows(basis, point, ("Z", ""), n)).T


def class_weights(model, n: int) -> np.ndarray:
    """The weight of each class row of the model: the root of the sum of the squared
    factors over its class (search._class_map)."""
    rep, factor = S._class_map(n)
    return np.sqrt(np.bincount(rep, factor * factor, 14 * n**4))[model.rows]


def expand(model, n: int, values: np.ndarray) -> np.ndarray:
    """values (rows, ...) of the model's class rows at dimension n over the full row layout,
    (14 n^4, ...): each row is its factor over its class's weight times the value of its
    class's model row, and the rows of classes not in the model are zero."""
    rep, factor = S._class_map(n)
    at = np.full(len(rep), -1)  # model row of each representative row
    at[model.rows] = np.arange(len(model.rows))
    member = np.flatnonzero((factor != 0) & (at[rep] >= 0))
    k = at[rep[member]]
    full = np.zeros((len(rep),) + values.shape[1:])
    scale = factor[member] / class_weights(model, n)[k]
    full[member] = scale.reshape((-1,) + (1,) * (values.ndim - 1)) * values[k]
    return full


def full_rows(x, problem) -> np.ndarray:
    """search.jacobian at x scattered over the full row layout (expand), then a hunt's
    slice row: 2 B x of every residual row, in the layout of residual_vector."""
    J = S.jacobian(x, problem)
    model = S._polynomial_model(problem)
    return np.concatenate([expand(model, problem.n, J[: len(model.rows)]), J[len(model.rows) :]])


def full_form(model, n: int) -> np.ndarray:
    """B of the model's class rows at dimension n over the full row layout, (14 n^4, d, d),
    through expand; a hunt model's slice row is left off."""
    B = np.zeros((len(model.const) * model.d, model.d))
    B[model.flat, model.cols] = model.vals
    return expand(model, n, B.reshape(-1, model.d, model.d)[: len(model.rows)])


def residual_vector(x, problem) -> np.ndarray:
    """Residual entries at the point x in the full row layout.

    Layout: re/im of the three Jacobi families (all index tuples), then
    re/im of the curvature R[a, b, x, y] at parameter s in index order
    (re then im of each n x n block R[a, b]), then when hunting the torsion
    slice row w (|T|^2 - c), with |T| the norm of the decoded structure's
    Chern torsion.
    """
    x = np.asarray(x, dtype=float)
    r = quadratic_part(x, problem)
    if problem.hunt:
        T = hl.chern_torsion(S.structure_from_point(problem, x)).norm
        r = np.append(r, S._SLICE_WEIGHT * (T * T - S._SLICE))
    return r


@dataclass(frozen=True)
class LeviCivitaReport:
    """Levi-Civita data on the complexified frame.

    endo[a] is the 2n x 2n matrix of nabla_{dir_a} and curvature_residual
    the max entry of the Riemannian curvature of nabla (commutator
    construction).
    """

    endo: np.ndarray
    curvature_residual: float


def levi_civita(U: hl.UnitaryStructure) -> LeviCivitaReport:
    """Levi-Civita connection on the complexified frame.

    For left-invariant fields the scalar products are constant, so the
    torsion-free metric connection reduces to

        2 <nabla_a b, c> = <[a,b], c> - <[a,c], b> - <[b,c], a>.

    The report returns the Riemannian curvature residual of nabla via
    the same commutator construction used for the Hermitian connection
    family.
    """
    n = U.n
    brk = hl.bracket_tables(U)
    # bilinear pairing in (e, ebar) coordinates
    P = np.zeros((2 * n, 2 * n))
    P[:n, n:] = np.eye(n)
    P[n:, :n] = np.eye(n)

    pair = np.einsum("abd,dc->abc", brk, P)
    # K[a,b,c] = <[a,b],c> - <[a,c],b> - <[b,c],a>
    K = pair - pair.transpose(0, 2, 1) - pair.transpose(2, 0, 1)
    # coefficients: nabla_a dir_b = sum_c coeff[a,b,c] dir_c with P the Gram matrix
    coeff = 0.5 * np.einsum("abc,cd->abd", K, P)
    endo = coeff.transpose(0, 2, 1)  # endo[a][out, in]

    return LeviCivitaReport(
        endo=frozen(endo), curvature_residual=max_abs(_curvature_tensor(endo, brk))
    )


@dataclass(frozen=True)
class RealReport:
    """validate_real's record: the largest residual, the residual of each family, the verdict."""

    max_abs: float
    per_identity: dict
    valid: bool


def validate_real(P: hl.RealPresentation, tol: float | None = None) -> RealReport:
    """Residuals of every real-side axiom, evaluated on all basis pairs.

    Families: lower-index antisymmetry of f, real Jacobi, J^2 + I,
    J^T G J - G, SPD-ness of G (residual max(0, -lambda_min), flagged
    rather than raised), and the integrability expression
    [x,y] - [Jx,Jy] + J[Jx,y] + J[x,Jy] on all basis pairs.
    """
    tol = validity_tol(tol)
    d, f, G, J = P.dim, P.f, P.G, P.J
    per = {}

    anti = f + f.transpose(0, 2, 1)
    per[("antisymmetry",)] = max_abs(anti)

    jac = (
        np.einsum("dab,edc->abce", f, f, optimize=True)
        + np.einsum("dbc,eda->abce", f, f, optimize=True)
        + np.einsum("dca,edb->abce", f, f, optimize=True)
    )
    per[("jacobi",)] = max_abs(jac)

    per[("j_squared",)] = max_abs(J @ J + np.eye(d))
    per[("compatibility",)] = max_abs(J.T @ G @ J - G)

    # SPD failure is flagged through the residual, never raised
    min_eig = float(np.linalg.eigvalsh(G).min())
    per[("spd_violation",)] = 0.0 if min_eig > 0 else abs(min_eig) + 2 * tol

    bJxJy = np.einsum("cab,ax,by->cxy", f, J, J, optimize=True)
    JbJxy = np.einsum("cd,dab,ax->cxb", J, f, J, optimize=True)
    JbxJy = np.einsum("cd,dab,by->cay", J, f, J, optimize=True)
    nij = f - bJxJy + JbJxy + JbxJy
    for a in range(d):
        for b in range(a + 1, d):
            per[("integrability", a + 1, b + 1)] = float(np.abs(nij[:, a, b]).max())

    worst = max(per.values())
    return RealReport(max_abs=worst, per_identity=per, valid=worst <= tol)


def frame_gram_residual(P: hl.RealPresentation, E: np.ndarray) -> float:
    """Max deviation of <e_i, ebar_j> from delta and <e_i, e_j> from zero."""
    G = P.G.astype(complex)
    herm = E.T @ G @ np.conj(E) - np.eye(P.n)
    null = E.T @ G @ E
    return max(max_abs(herm), max_abs(null))


def from_unitary_structure(U: hl.UnitaryStructure) -> hl.RealPresentation:
    """Realify on the basis x_{2i-1} = (e_i + ebar_i)/sqrt2, x_{2i} = i(e_i - ebar_i)/sqrt2.

    The basis is G-orthonormal with block-standard J (J x_{2i-1} = x_{2i});
    converting back reproduces (C, D) exactly up to rounding.
    """
    n = U.n
    d = 2 * n
    brk = hl.bracket_tables(U)

    # coordinates of the real basis vectors on (e, ebar)
    X = np.zeros((2 * n, d), dtype=complex)
    for i in range(n):
        X[i, 2 * i] = 1 / np.sqrt(2.0)
        X[n + i, 2 * i] = 1 / np.sqrt(2.0)
        X[i, 2 * i + 1] = 1j / np.sqrt(2.0)
        X[n + i, 2 * i + 1] = -1j / np.sqrt(2.0)

    # inverse map from (e, ebar) coordinates back to the real basis
    M = np.zeros((d, 2 * n), dtype=complex)
    for i in range(n):
        M[2 * i, i] = 1 / np.sqrt(2.0)
        M[2 * i + 1, i] = -1j / np.sqrt(2.0)
        M[2 * i, n + i] = 1 / np.sqrt(2.0)
        M[2 * i + 1, n + i] = 1j / np.sqrt(2.0)

    f = np.zeros((d, d, d))
    for a in range(d):
        for b in range(a + 1, d):
            v = np.einsum("cde,c,d->e", brk, X[:, a], X[:, b])
            coords = M @ v  # imaginary parts vanish up to rounding
            f[:, a, b] = coords.real
            f[:, b, a] = -coords.real

    J = np.zeros((d, d))
    for i in range(n):
        J[2 * i + 1, 2 * i] = 1.0
        J[2 * i, 2 * i + 1] = -1.0
    return hl.RealPresentation(dim=d, f=f, G=np.eye(d), J=J)
