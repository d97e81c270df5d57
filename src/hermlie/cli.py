"""Batch command-line interface.

Subcommands: validate, analyze, search, catalog, verify-theorems.
Each prints its report to standard output and returns 0 on success,
1 on validation failure and 2 on usage errors.

Every command runs in a fresh process that compiles the modules it
imports from source, so each subcommand imports only the modules it
runs.  The parser spells out the --mode and --suite choices; a test
keeps them equal to the modes of search and the suites of theorems.
A command run through run() ends once its output is flushed: it runs the
atexit callbacks, flushes and skips the interpreter's teardown, and exits
normally under a tracer or profiler, with -i, or when a flush fails.  No
command imports numpy's random module or hashlib: seeded numbers come from
the stdlib generator (tensors.standard_normal), so no OpenSSL is mapped.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import re
import sys
from pathlib import Path

from .exceptions import HermlieError, ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermlie",
        description=(
            "Left-invariant Hermitian structures: validation, flatness "
            "analysis, flat-structure search and rigidity checks."
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
    p_se.add_argument("--mode", choices=("full", "parallel_frame"), default="full")
    p_se.add_argument("--restarts", type=int, default=100)
    p_se.add_argument("--seed", type=int, default=0)
    p_se.add_argument("--hunt", action="store_true", help="hold |T| at 0.5 by the row 0.1 (|T|^2 - 0.25) to hunt for non-Kahler structures")
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
    p_ver.add_argument("--suite", choices=("lemma31", "surface", "parallel", "all"), default="all")

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
    commands = {
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "search": _cmd_search,
        "catalog": _cmd_catalog,
        "verify-theorems": _cmd_verify,
    }
    try:
        return commands[args.command](args)
    except (HermlieError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run(argv=None) -> int:
    """main(argv) as a process: end with os._exit once the output is flushed.

    Tearing the interpreter down after a report (numpy) costs more than
    many commands compute, and nothing hermlie holds needs it.  The
    atexit callbacks run first, as the interpreter would run them.
    Returns main's code, for a normal exit, when a trace, profile or
    monitoring tool is installed, under -i, or when a flush fails, so
    that the interpreter reports it as it would anyway; an exception
    escaping main() takes the normal path too.
    """
    code = main(argv)
    if sys.gettrace() or sys.getprofile() or sys.flags.inspect or _monitored():
        return code
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return code
    os._exit(code)


def _monitored() -> bool:
    """Whether a sys.monitoring tool (Python 3.12+: coverage, cProfile) holds one of ids 0-5."""
    monitoring = getattr(sys, "monitoring", None)
    return monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6))


def _load(path: Path):
    from . import structio
    return structio.parse_structure(path.read_bytes())


def _numbers(text: str, option: str):
    """Comma-separated finite numbers, or None after printing a usage error."""
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        values = []
    if not values or not all(map(math.isfinite, values)):
        print(f"error: {option} must be comma-separated finite numbers", file=sys.stderr)
        return None
    return values


def _cmd_validate(args) -> int:
    from .core import validate_structure
    U = _load(args.file)
    report = validate_structure(U, args.tol)
    print(f"n: {U.n}")
    print(f"max_abs: {report.max_abs:.17g}")
    print(f"tol: {report.tol:.17g}")
    print(f"threshold: {report.threshold:.17g}")
    print(f"valid: {'true' if report.valid else 'false'}")
    return 0 if report.valid else 1


def _cmd_analyze(args) -> int:
    from . import structio
    from .core import kahler_flatness_summary
    U = _load(args.file)
    grid = _numbers(args.s_grid, "--s-grid")
    if grid is None:
        return 2
    summary = kahler_flatness_summary(U, grid, tol=args.tol)
    sys.stdout.write(structio.emit_report(summary, args.format).decode("utf-8"))
    return 0


_SEARCH_COLUMNS = ("seed_used", "iterations", "stop_reason", "final_jacobi", "final_flatness",
                   "torsion_norm", "classification", "rho")


def _cmd_search(args) -> int:
    from . import search, structio
    optional = {"tol": args.tol, "max_iters": args.max_iters}
    problem = search.SearchProblem(
        n=args.n, s=args.s, mode=args.mode, restarts=args.restarts, seed=args.seed,
        hunt=args.hunt, **{key: value for key, value in optional.items() if value is not None},
    )
    summary = search.multistart_search(problem)
    rows = [
        {"restart": idx, **{column: getattr(res, column) for column in _SEARCH_COLUMNS}}
        for idx, res in enumerate(summary.results)
    ]
    sys.stdout.write(structio.emit_report(rows, "csv").decode("utf-8"))
    for cls in (search.CONVERGED_KAHLER, search.CONVERGED_NONKAHLER, search.NOT_CONVERGED):
        print(f"{cls}: {summary.count(cls)}")
    return 0


def _built_from(option: str, value, build, *build_args):
    """build(*build_args), reporting a ValidationError against the option that set value."""
    try:
        return build(*build_args)
    except ValidationError as exc:
        raise ValidationError(f"{option} {value!r}: {exc}") from exc


def _cmd_catalog(args) -> int:
    from . import catalog, structio
    name = args.name
    for option, value in (("--c", args.c), ("--eps", args.eps)):
        if not math.isfinite(value):
            print(f"error: {option} must be a finite number", file=sys.stderr)
            return 2
    q = _numbers(args.q, "--q") if name.startswith("bdf") else ()
    if q is None:
        return 2
    if name == "bdf4" and len(q) > 1:
        print(f"error: --q takes one weight for bdf4, got {len(q)}", file=sys.stderr)
        return 2
    if name == "abelian":
        U = catalog.abelian(args.n)
        label = f"abelian(n={args.n})"
    elif name == "complex-group":
        U = _built_from("--c", args.c, catalog.affine_complex_group, args.c, args.n)
        label = f"complex-group(c={args.c}, n={args.n})"
    elif name == "samelson":
        U = _built_from("--c", args.c, catalog.samelson_su2_r, args.c)
        label = f"samelson(c={args.c})"
    elif name == "bdf4":
        from .realform import to_unitary_structure
        U = to_unitary_structure(_built_from("--q", args.q, catalog.bdf_flat_kahler_4d, q[0]))
        label = f"bdf4(q={q[0]})"
    elif name == "bdf-general":
        spec = catalog.BdfSpec(p=args.p, h_dim=args.h_dim, c_dim=args.c_dim, q=q,
                               h_internal_pairs=args.h_pairs, c_internal_pairs=args.c_pairs)
        from .realform import to_unitary_structure
        U = to_unitary_structure(catalog.bdf_general(spec))
        label = f"bdf-general(p={args.p}, h={args.h_dim}, c={args.c_dim})"
    elif name == "perturb":
        if args.base is None:
            print("error: perturb needs --base FILE", file=sys.stderr)
            return 2
        U = _built_from("--eps", args.eps, catalog.perturb, _load(args.base), args.eps, args.seed)
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


def _cmd_verify(args) -> int:
    from . import theorems
    chosen = list(theorems.SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in chosen:
        print(f"== suite {name} ==")
        for check in theorems.SUITES[name]():
            suffix = f"  ({check.detail})" if check.detail else ""
            print(f"{'PASS' if check.ok else 'FAIL'}  {check.label}{suffix}")
            ok &= check.ok
    print("all checks passed" if ok else "some checks FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
