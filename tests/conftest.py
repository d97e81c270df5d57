import numpy as np
import pytest

import hermlie as hl
from hermlie import search as S
from hermlie.core import jacobi_residual_tensors


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
    from hermlie.tensors import random_unitary as ru

    return ru(n, np.random.default_rng(seed))


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
    G = hl.gauduchon_connection(U, s).gamma
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


def quadratic_part(x: np.ndarray, problem) -> np.ndarray:
    """All polynomial residual entries at the point x (Jacobi then curvature).

    Written from the definition, not from the search model, so it is an
    oracle for search.jacobian and the model it evaluates.
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


def residual_vector(x, problem) -> np.ndarray:
    """Residual entries at the point x in the layout of search.jacobian.

    Layout: re/im of the three Jacobi families (all index tuples), then
    re/im of the curvature R[a, b, x, y] at parameter s in index order
    (re then im of each n x n block R[a, b]), then the torsion hinge when
    hunting.
    """
    x = np.asarray(x, dtype=float)
    r = quadratic_part(x, problem)
    if problem.hunt:
        value, _ = S._hinge(x, problem)
        r = np.append(r, value)
    return r
