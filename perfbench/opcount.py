"""Operation counts of hermlie's tensor kernels, computed from einsum shapes.

    python3 perfbench/opcount.py

Calls core.curvature and core.jacobi_residual_tensors once at n = 2, 3, 4 on
a random structure with numpy.einsum wrapped, and prints one JSON object
mapping "<function>.n<n>" to the floating-point operations that the einsum
contractions of one call imply: for each einsum of two or more operands, the
product of the extents of all its indices, times 8 real operations per
complex multiply-add (2 when every operand is real).  These are computed
counts, not measured ones; they leave out single-operand einsums (copies and
traces) and element-wise work outside einsum.
"""

import json

import numpy as np


def einsum_flops(subscripts, operands):
    if len(operands) < 2:
        return 0
    inputs = subscripts.replace(" ", "").split("->")[0].split(",")
    extent = {}
    for labels, operand in zip(inputs, operands):
        extent.update(zip(labels, np.shape(operand)))
    per_mac = 8 if any(np.iscomplexobj(op) for op in operands) else 2
    return per_mac * int(np.prod(list(extent.values()), dtype=np.int64))


def count(fn, *args):
    total = 0
    original = np.einsum

    def counting(subscripts, *operands, **kwargs):
        nonlocal total
        total += einsum_flops(subscripts, operands)
        return original(subscripts, *operands, **kwargs)

    np.einsum = counting
    try:
        fn(*args)
    finally:
        np.einsum = original
    return total


def main():
    from hermlie import core

    rng = np.random.default_rng(0)
    out = {}
    for n in (2, 3, 4):
        C, D = (rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n)) for _ in range(2))
        U = core.UnitaryStructure(n=n, C=C, D=D)
        out[f"curvature.n{n}"] = count(core.curvature, U, 0.5)
        out[f"jacobi_residual_tensors.n{n}"] = count(core.jacobi_residual_tensors, U.C, U.D)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
