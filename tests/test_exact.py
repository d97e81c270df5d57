"""Exact oracle: a Groebner-basis certificate of the parallel-frame theorem at n = 2.

The Jacobi polynomials are built in sympy from the three families in the
docstring of hermlie.core.validate_structure, under the parallel-frame
hypothesis C = 2(s-1)T, D = -sT, with s a symbol; nothing here calls the
numerical kernels except the comparison against them.
"""

import itertools
from fractions import Fraction

import numpy as np
import sympy as sp

from hermlie import core

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
    got = core._jacobi_bilinear(np.stack(C), np.stack(D), np.stack(C), np.stack(D), ("Z", "Z"))
    for z, fams in enumerate(exact):
        scale = np.abs(fams).max()
        assert scale > 0.1
        for f in range(3):
            assert np.abs(got[f][z] - fams[f]).max() <= 1e-14 * scale
