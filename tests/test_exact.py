"""Exact oracles: a Groebner-basis certificate of the parallel-frame theorem at n = 2,
and the algebra of the surface obstruction chain.

The Jacobi polynomials are built in sympy from the three families in the
docstring of hermlie.core.validate_structure, under the parallel-frame
hypothesis C = 2(s-1)T, D = -sT, with s a symbol; nothing here calls the
numerical kernels except the comparison against them.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from hermlie import core, search, theorems

from conftest import full_form

X = sp.symbols("x1:5", real=True)  # re and im of T^1_{12}, then of T^2_{12}
S = sp.Symbol("s", real=True)


def surface_torsion(x):
    """T[j][i][k] = T^j_{ik} at n = 2 from the re/im pairs x of T^1_{12}, T^2_{12}."""
    T = [[[0, 0], [0, 0]] for _ in range(2)]
    for j in range(2):
        T[j][0][1] = x[2 * j] + sp.I * x[2 * j + 1]
        T[j][1][0] = -T[j][0][1]
    return T


def parallel_frame_jacobi(T, s):
    """The three Jacobi families of (C, D) = (2(s-1)T, -sT) at every (i, j, k, l), 0-based."""
    n, cj = len(T), sp.conjugate
    R = range(n)
    C = [[[2 * (s - 1) * T[j][i][k] for k in R] for i in R] for j in R]
    D = [[[-s * T[j][i][k] for k in R] for i in R] for j in R]
    return {
        (i, j, k, l): (
            sum(C[r][i][j] * C[l][r][k] + C[r][j][k] * C[l][r][i] + C[r][k][i] * C[l][r][j]
                for r in R),
            sum(C[r][i][k] * D[l][j][r] + D[r][j][i] * D[l][r][k] - D[r][j][k] * D[l][r][i]
                for r in R),
            sum(C[r][i][k] * cj(D[r][j][l]) - C[j][r][k] * cj(D[i][r][l])
                + C[j][r][i] * cj(D[k][r][l]) - D[l][r][i] * cj(D[k][j][r])
                + D[l][r][k] * cj(D[i][j][r]) for r in R),
        )
        for i, j, k, l in itertools.product(R, repeat=4)
    }


def test_parallel_frame_theorem_holds_for_symbolic_s():
    # s(s-2) x_i^2 in the ideal: off s in {0, 2} every real solution has T = 0;
    # x_i^2 alone is not, so both endpoints are genuine exceptions
    equations = set()
    for families in parallel_frame_jacobi(surface_torsion(X), S).values():
        for f in families:
            for part in sp.expand(f).as_real_imag():
                if sp.expand(part) != 0:
                    equations.add(sp.expand(part))
    G = sp.groebner(sorted(equations, key=sp.default_sort_key), *X, S, order="grevlex")
    assert all(G.contains(S * (S - 2) * x**2) for x in X)
    assert not any(G.contains(x**2) for x in X)


def test_batched_kernel_matches_the_polynomials_at_rational_points():
    points = [
        ((Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3), Fraction(1, 5)), Fraction(3, 2)),
        ((Fraction(1), Fraction(2, 7), Fraction(-5, 3), Fraction(1, 4)), Fraction(1, 3)),
    ]
    C, D, exact = [], [], []
    for x, s in points:
        T = np.array(surface_torsion([float(v) for v in x]), dtype=complex)
        Cz, Dz = core._parallel_frame(T, float(s))
        C.append(Cz)
        D.append(Dz)
        values = parallel_frame_jacobi(surface_torsion([sp.Rational(v) for v in x]), sp.Rational(s))
        fams = np.zeros((3, 2, 2, 2, 2), dtype=complex)
        for idx, triple in values.items():
            for f, value in enumerate(triple):
                fams[(f, *idx)] = complex(sp.expand(value))
        exact.append(fams)
    got = core.jacobi_residual_tensors(np.stack(C), np.stack(D))
    for z, fams in enumerate(exact):
        scale = np.abs(fams).max()
        assert scale > 0.1
        for f in range(3):
            assert np.abs(got[f][z] - fams[f]).max() <= 1e-14 * scale


def parallel_frame_curvature(T, s):
    """R(a, b) = [A_a, A_b] - A_{[a,b]} on the (1,0) frame of (C, D) = (2(s-1)T, -sT), for
    every pair of the 2n directions, from the conventions of the README.

    The (1,0) block of the connection along e_k is A_k[j][i] = Gamma^j_{ik} and along ebar_k
    it is -conj(Gamma^i_{jk}), with Gamma^j_{ik} = D^j_{ik} + s T^j_{ik}; the brackets are
    [e_i, e_k] = C^j_{ik} e_j, [ebar_j, e_i] = D^j_{ki} ebar_k - conj(D^i_{kj}) e_k and
    [ebar_j, ebar_k] = conj(C^i_{jk}) ebar_i.  Under the parallel-frame hypothesis Gamma = 0, so
    every R(a, b) vanishes.
    """
    n, cj = len(T), sp.conjugate
    R = range(n)
    C = [[[2 * (s - 1) * T[j][i][k] for k in R] for i in R] for j in R]
    D = [[[-s * T[j][i][k] for k in R] for i in R] for j in R]
    G = [[[D[j][i][k] + s * T[j][i][k] for k in R] for i in R] for j in R]
    A = [sp.Matrix(n, n, lambda j, i: G[j][i][k]) for k in R]
    A += [sp.Matrix(n, n, lambda j, i: -cj(G[i][j][k])) for k in R]
    brk = [[[0] * (2 * n) for _ in range(2 * n)] for _ in range(2 * n)]
    for i, j, k in itertools.product(R, repeat=3):
        brk[i][k][j] = C[j][i][k]
        brk[n + j][i][n + k] = D[j][k][i]
        brk[n + j][i][k] = -cj(D[i][k][j])
        brk[n + j][n + k][n + i] = cj(C[i][j][k])
    for j, i, c in itertools.product(R, R, range(2 * n)):
        brk[i][n + j][c] = -brk[n + j][i][c]
    return {(a, b): A[a] * A[b] - A[b] * A[a] - sum((brk[a][b][c] * A[c] for c in range(2 * n)),
                                                   sp.zeros(n, n))
            for a, b in itertools.product(range(2 * n), repeat=2)}


@functools.cache
def surface_model_rows():
    """(residual row, real quadratic in X and S) of every row of the search residual at n = 2
    in parallel-frame mode: re and im of the three Jacobi families, then of each curvature
    block R[a, b], in the layout of hermlie.search.jacobian."""
    T = surface_torsion(X)
    rows = {}
    for (i, j, k, l), families in parallel_frame_jacobi(T, S).items():
        for f, value in enumerate(families):
            re, im = sp.expand(value).as_real_imag()
            rows[32 * f + 8 * i + 4 * j + 2 * k + l] = re
            rows[32 * f + 16 + 8 * i + 4 * j + 2 * k + l] = im
    for (a, b), block in parallel_frame_curvature(T, S).items():
        for x, z in itertools.product(range(2), repeat=2):
            re, im = sp.expand(block[x, z]).as_real_imag()
            rows[96 + 8 * (4 * a + b) + 2 * x + z] = re
            rows[96 + 8 * (4 * a + b) + 4 + 2 * x + z] = im
    return rows


@pytest.mark.parametrize("s", map(sp.Rational, ("1/3", "3/2", "3")), ids=str)
def test_search_model_matches_the_exact_polynomials(s):
    # B[r, a, b] is the coefficient of x_a x_b in row r, halved off the diagonal
    model = search._quadratic_model(2, float(s), search.PARALLEL_FRAME, False)
    B = full_form(model)
    exact = np.zeros_like(B)
    for r, poly in surface_model_rows().items():
        for powers, coeff in sp.Poly(sp.expand(poly.subs(S, s)), *X).as_dict().items():
            a, b = [i for i, p in enumerate(powers) for _ in range(p)]
            exact[r, a, b] = exact[r, b, a] = float(coeff) / (1 if a == b else 2)
    assert len(surface_model_rows()) == model.m == 224
    assert np.abs(exact).max() > 0.1
    assert np.abs(B - exact).max() <= 1e-14 * np.abs(exact).max()


LAM = sp.Symbol("lam", nonzero=True)
QUADRATIC = 7 * S**2 - 12 * S + 4
FACTOR = 4 * (S - 1) * (2 * S - 1)


@functools.cache
def surface_chain():
    """Gamma^2_22/lam by its plain and its conjugate route, and Gamma^1_21/lam.

    In the adapted frame T^2_{12} = 0, T^1_{12} = lam, flatness gives the
    table T^1_{12,2} = (2-s) lam^2, FACTOR T^1_{12,bar2} = s^2 (s-2) |lam|^2
    and FACTOR T^2_{12,bar1} = s (3s^2-8s+4) |lam|^2, while the frame gives
    T^1_{12,l} = -lam G^2_{2l}, T^1_{12,lbar} = lam conj(G^2_{2l}) and
    T^2_{12,lbar} = -lam conj(G^1_{2l}) (checked numerically in test_core).
    """
    x, a2 = sp.Symbol("x"), LAM * sp.conjugate(LAM)  # x: the unknown G, or conj(G)
    plain = sp.solve(-LAM * x - (2 - S) * LAM**2, x)[0] / LAM
    route = sp.conjugate(sp.solve(FACTOR * LAM * x - S**2 * (S - 2) * a2, x)[0]) / LAM
    g121 = sp.conjugate(sp.solve(-FACTOR * LAM * x - S * (3 * S**2 - 8 * S + 4) * a2, x)[0]) / LAM
    return tuple(sp.simplify(value) for value in (plain, route, g121))


def test_surface_routes_agree_exactly_on_the_quadratic_and_at_two():
    plain, route, _ = surface_chain()
    assert plain == S - 2
    num, den = sp.fraction(sp.factor(plain - route))
    assert sp.simplify(num / ((S - 2) * QUADRATIC)).is_nonzero
    assert sp.simplify(den / FACTOR).is_nonzero  # nonzero off the denominator stage {1/2, 1}


def test_jacobi_gap_is_nonzero_at_the_quadratic_roots():
    gap = (5 * S - 6) * (5 * S - 4) - (5 * S - 4) * (S - 2)
    assert sp.expand(gap - (5 * S - 4) * (4 * S - 4)) == 0
    assert sp.resultant(gap, QUADRATIC, S) != 0  # no common root


@pytest.mark.parametrize("s", map(sp.Rational, ("1/3", "1/2", "1", "3/2", "3")), ids=str)
def test_forced_constants_match_the_exact_chain(s):
    plain, route, g121 = surface_chain()
    if FACTOR.subs(S, s) == 0:
        exact = {"cleared_factor": FACTOR, "cleared_t1_12_bar2_over_lam2": S**2 * (S - 2)}
    else:
        exact = {"Gamma2_22_over_lambda": plain, "Gamma2_22_over_lambda_conjugate_route": route,
                 "Gamma1_21_over_lambda": g121, "quadratic_7s2_12s_4": QUADRATIC}
    forced = theorems.surface_obstruction(float(s)).forced_constants
    assert forced.keys() == exact.keys()
    for name, value in exact.items():
        want = float(value.subs(S, s))
        assert abs(forced[name] - want) <= 1e-14 * abs(want), name
