"""Batch command-line interface.

Subcommands: validate, analyze, search, catalog, verify-theorems.
Each prints its report to standard output and returns 0 on success,
1 on validation failure and 2 on usage errors.  The only recognised
environment variable is HERMLIE_TOL (decimal override of the default
validity tolerance).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import catalog, search, structio, theorems
from ._config import TOL_ENV_VAR, default_tol
from .core import TorsionData, chern_torsion, kahler_flatness_summary, validate_structure
from .exceptions import HermlieError
from .realform import to_unitary_structure


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermlie",
        description=(
            "Left-invariant Hermitian structures: validation, flatness "
            "analysis, flat-structure search and rigidity checks. "
            f"Set {TOL_ENV_VAR} to override the default validity tolerance."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the Jacobi identities of a structure file")
    p_val.add_argument("file", type=Path)
    p_val.add_argument("--tol", type=float, default=None)

    p_an = sub.add_parser("analyze", help="torsion and flatness summary over an s grid")
    p_an.add_argument("file", type=Path)
    p_an.add_argument("--s-grid", required=True, help="comma-separated parameter values")
    p_an.add_argument("--format", choices=("csv", "json"), default="csv")
    p_an.add_argument("--tol", type=float, default=None)

    p_se = sub.add_parser("search", help="multistart least-squares search for flat structures")
    p_se.add_argument("--n", type=int, required=True)
    p_se.add_argument("--s", type=float, required=True)
    p_se.add_argument("--mode", choices=(search.FULL, search.PARALLEL_FRAME), default=search.FULL)
    p_se.add_argument("--restarts", type=int, default=100)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--hunt", action="store_true", help="reward non-Kahler candidates")
    p_se.add_argument("--tol", type=float, default=None)
    p_se.add_argument("--max-iters", type=int, default=None)

    p_cat = sub.add_parser("catalog", help="emit a named example structure")
    p_cat.add_argument(
        "name",
        choices=("abelian", "complex-group", "samelson", "bdf4", "bdf-general", "perturb"),
    )
    p_cat.add_argument("--n", type=int, default=2)
    p_cat.add_argument("--c", type=float, default=1.0, help="bracket strength")
    p_cat.add_argument("--q", default="1", help="rotation weight(s), comma separated")
    p_cat.add_argument("--p", type=int, default=1, help="rotating plane count")
    p_cat.add_argument("--h-dim", type=int, default=1)
    p_cat.add_argument("--c-dim", type=int, default=1)
    p_cat.add_argument("--h-pairs", type=int, default=0)
    p_cat.add_argument("--c-pairs", type=int, default=0)
    p_cat.add_argument("--base", type=Path, help="input structure file (perturb)")
    p_cat.add_argument("--eps", type=float, default=0.1, help="noise size (perturb)")
    p_cat.add_argument("--seed", type=int, default=0, help="noise seed (perturb)")
    p_cat.add_argument("--emit", type=Path, help="write the structure file here")

    p_ver = sub.add_parser("verify-theorems", help="run the rigidity verification batteries")
    p_ver.add_argument(
        "--suite", choices=("lemma31", "surface", "parallel", "all"), default="all"
    )

    # accept values like "-1,0,2" after --s-grid/--q without mistaking
    # them for option flags
    for p in (p_an, p_se, p_cat):
        p._negative_number_matcher = re.compile(r"^-\d")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _dispatch(args)
    except HermlieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "search":
        return _cmd_search(args)
    if args.command == "catalog":
        return _cmd_catalog(args)
    if args.command == "verify-theorems":
        return _cmd_verify(args)
    raise AssertionError(f"unhandled command {args.command}")


def _load(path: Path):
    return structio.parse_structure(path.read_bytes())


def _cmd_validate(args) -> int:
    U = _load(args.file)
    tol = args.tol if args.tol is not None else default_tol()
    report = validate_structure(U, tol)
    print(f"n: {U.n}")
    print(f"max_abs: {report.max_abs:.17g}")
    print(f"tol: {tol:.17g}")
    print(f"valid: {'true' if report.valid else 'false'}")
    return 0 if report.valid else 1


def _cmd_analyze(args) -> int:
    U = _load(args.file)
    try:
        grid = [float(v) for v in args.s_grid.split(",") if v.strip() != ""]
    except ValueError:
        print("error: --s-grid must be comma-separated numbers", file=sys.stderr)
        return 2
    if not grid:
        print("error: --s-grid is empty", file=sys.stderr)
        return 2
    summary = kahler_flatness_summary(U, grid, tol=args.tol)
    sys.stdout.write(structio.emit_report(summary, args.format).decode("utf-8"))
    return 0


def _cmd_search(args) -> int:
    kwargs = dict(
        n=args.n,
        s=args.s,
        mode=args.mode,
        restarts=args.restarts,
        seed=args.seed,
    )
    if args.hunt:
        kwargs["torsion_reward"] = 1.0
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.max_iters is not None:
        kwargs["max_iters"] = args.max_iters
    problem = search.SearchProblem(**kwargs)
    summary = search.multistart_search(problem)
    rows = [
        {
            "restart": idx,
            "seed_used": res.seed_used,
            "iterations": res.iterations,
            "final_jacobi": res.final_jacobi,
            "final_flatness": res.final_flatness,
            "torsion_norm": res.torsion_norm,
            "classification": res.classification,
        }
        for idx, res in enumerate(summary.results)
    ]
    sys.stdout.write(structio.emit_report(rows, "csv").decode("utf-8"))
    for cls in (search.CONVERGED_KAHLER, search.CONVERGED_NONKAHLER, search.NOT_CONVERGED):
        print(f"{cls}: {summary.count(cls)}")
    return 0


def _cmd_catalog(args) -> int:
    name = args.name
    if name == "abelian":
        U = catalog.abelian(args.n)
        label = f"abelian(n={args.n})"
    elif name == "complex-group":
        U = catalog.affine_complex_group(args.c, max(args.n, 2))
        label = f"complex-group(c={args.c}, n={max(args.n, 2)})"
    elif name == "samelson":
        U = catalog.samelson_su2_r(args.c)
        label = f"samelson(c={args.c})"
    elif name == "bdf4":
        q = float(args.q.split(",")[0])
        U = to_unitary_structure(catalog.bdf_flat_kahler_4d(q))
        label = f"bdf4(q={q})"
    elif name == "bdf-general":
        weights = [float(v) for v in args.q.split(",") if v.strip() != ""]
        if len(weights) != args.h_dim * args.p:
            print(
                f"error: --q needs {args.h_dim * args.p} values (h-dim x p), got {len(weights)}",
                file=sys.stderr,
            )
            return 2
        spec = catalog.BdfSpec(
            p=args.p,
            h_dim=args.h_dim,
            c_dim=args.c_dim,
            q=np.array(weights).reshape(args.h_dim, args.p),
            h_internal_pairs=args.h_pairs,
            c_internal_pairs=args.c_pairs,
        )
        U = to_unitary_structure(catalog.bdf_general(spec))
        label = f"bdf-general(p={args.p}, h={args.h_dim}, c={args.c_dim})"
    elif name == "perturb":
        if args.base is None:
            print("error: perturb needs --base FILE", file=sys.stderr)
            return 2
        U = catalog.perturb(_load(args.base), args.eps, args.seed)
        label = f"perturb(eps={args.eps}, seed={args.seed})"
    else:  # pragma: no cover - argparse constrains choices
        raise AssertionError(name)

    payload = structio.emit_structure(U, name=label)
    if args.emit is not None:
        args.emit.write_bytes(payload)
        print(f"wrote {args.emit}")
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0


def _check(label: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{suffix}")
    return ok


def _verify_torsion_identities() -> bool:
    fixtures = [
        ("bdf4(q=1)", to_unitary_structure(catalog.bdf_flat_kahler_4d(1.0)), (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0)),
        ("samelson(1)", catalog.samelson_su2_r(1.0), (2.0,)),
        ("complex-group", catalog.affine_complex_group(1.0), (0.0,)),
    ]
    ok = True
    for label, U, grid in fixtures:
        for s in grid:
            suite = theorems.flat_torsion_identities(U, s)
            if suite.out_of_hypothesis and suite.max_abs > 1e-10:
                # identities assume s != 0; a non-Kahler Chern-flat
                # structure must be flagged out of hypothesis, not failed
                ok &= _check(
                    f"torsion identities on {label} at s={s} flagged out of hypothesis",
                    s == 0.0,
                    f"max {suite.max_abs:.2e}",
                )
                continue
            ok &= _check(
                f"torsion identities on {label} at s={s}",
                suite.max_abs <= 1e-10,
                f"max {suite.max_abs:.2e}",
            )
            if U.n == 2:
                ok &= _check(
                    f"cyclic identity vacuous on {label} at s={s}",
                    suite.statuses["cyclic"] == "vacuous",
                )
    return ok


def _verify_surface() -> bool:
    ok = True
    grid = np.linspace(-3.0, 5.0, 1000)
    stages = set()
    grid_ok = True
    for s in grid:
        if min(abs(s), abs(s - 2.0)) <= 1e-9:
            continue
        rep = theorems.surface_obstruction(float(s))
        stages.add(rep.excluded_by)
        if rep.excluded_by == theorems.NO_OBSTRUCTION:
            grid_ok = False
    ok &= _check(
        "dense grid: every admissible s is obstructed",
        grid_ok,
        f"stages seen: {sorted(stages)}",
    )
    for s in (0.0, 2.0):
        rep = theorems.surface_obstruction(s)
        ok &= _check(f"s={s} out of scope", rep.excluded_by == theorems.OUT_OF_SCOPE)
    for root in (2.0 / 7.0 * (3.0 - np.sqrt(2.0)), 2.0 / 7.0 * (3.0 + np.sqrt(2.0))):
        rep = theorems.surface_obstruction(root)
        ok &= _check(
            f"quadratic root s={root:.6f} obstructed at the Jacobi stage",
            rep.excluded_by == theorems.JACOBI_CONTRADICTION,
        )
    return ok


def _verify_parallel() -> bool:
    ok = True
    rng = np.random.default_rng(20240811)
    hits = 0
    draws = 200
    for n in (2, 3):
        for _ in range(draws):
            T = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
            T = 0.5 * (T - T.transpose(0, 2, 1))
            for s in (0.5, 1.0, 1.5, 3.0):
                _, diag = theorems.parallel_frame_reduction(
                    TorsionData(T=T, eta=np.einsum("kkr->r", T)), s
                )
                if diag.jacobi.max_abs <= 1e-8 and np.linalg.norm(T) > 1e-4:
                    hits += 1
    ok &= _check(
        "random parallel-frame draws: no valid non-Kahler structure at s outside {0,2}",
        hits == 0,
        f"{2 * draws * 4} draws",
    )
    sam = catalog.samelson_su2_r(1.0)
    tor = chern_torsion(sam)
    U, diag = theorems.parallel_frame_reduction(tor, 2.0)
    ok &= _check(
        "samelson torsion regenerates a valid flat structure at s=2",
        diag.jacobi.max_abs <= 1e-10 and diag.flatness_max <= 1e-10,
    )
    res = theorems.torsion_descent(tor, 2.0)
    ok &= _check("descent skips the out-of-scope parameter s=2", res.skipped)
    return ok


def _cmd_verify(args) -> int:
    suites = {
        "lemma31": _verify_torsion_identities,
        "surface": _verify_surface,
        "parallel": _verify_parallel,
    }
    chosen = list(suites) if args.suite == "all" else [args.suite]
    ok = True
    for name in chosen:
        print(f"== suite {name} ==")
        ok &= suites[name]()
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
