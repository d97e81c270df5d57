"""Run one hermlie command with the public functions of each module timed.

    python3 perfbench/shim.py SPANS_FILE COMMAND_ID HERMLIE_ARGS...

Wraps every public function of hermlie.{core,search,theorems,structio,
realform,catalog}, hermlie.cli.main and the search model build, rebinds
every hermlie module attribute that refers to a wrapped function (so that
`from .core import curvature` inside hermlie.search is traced too), then runs
hermlie.cli.main on HERMLIE_ARGS.  Spans are kept in memory and written to
SPANS_FILE as JSON lines when the command ends, one object per span with
name, start, end, parent (line index of the enclosing span or null), cmd
and any attributes.  The exit code is the command's.
"""

import importlib
import inspect
import json
import resource
import sys
import time

MODULES = ("core", "search", "theorems", "structio", "realform", "catalog")
PROGRESS_TOL = 1e-6  # a step that cuts the residual by less, relatively, makes no progress


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def lm_progress_iterations(fingerprints, result):
    """Iterations up to the last accepted step that cut the residual by more
    than PROGRESS_TOL relative, or None when the steps cannot be placed.

    The LM loop evaluates the Jacobian once per iteration at the current
    point, so the point changes between two evaluations exactly when the
    earlier iteration's step was accepted.
    """
    history = result.residual_history
    iterations = result.iterations
    if len(fingerprints) != iterations:
        return None
    accepted_at = [k + 1 for k in range(iterations - 1) if fingerprints[k + 1] != fingerprints[k]]
    if len(history) - 1 == len(accepted_at) + 1:
        accepted_at.append(iterations)  # the final iteration was accepted
    if len(accepted_at) != len(history) - 1:
        return None
    last = 0
    for step, iteration in enumerate(accepted_at, start=1):
        before, after = history[step - 1], history[step]
        if before - after > PROGRESS_TOL * before:
            last = iteration
    return last


class Tracer:
    """Spans of one command: [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.lm_points = []  # Jacobian points of each lm_minimize call in progress
        self.built = set()  # search problems whose model is built

    def span(self, name, fn, args, kwargs, after=None):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, None]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()
        if after is not None:
            record[4] = after(args, kwargs, result)
        return result

    def wrap(self, name, fn):
        special = {
            "search.lm_minimize": self._wrap_lm_minimize,
            "search.jacobian": self._wrap_jacobian,
            "search.model_build": self._wrap_model_build,
        }.get(name)
        if special is not None:
            return special(name, fn)
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            return self.span(name, fn, args, kwargs, after)

        return traced

    def _wrap_lm_minimize(self, name, fn):
        def traced(*args, **kwargs):
            self.lm_points.append([])
            try:
                return self.span(name, fn, args, kwargs, self._lm_attrs)
            finally:
                self.lm_points.pop()

        return traced

    def _lm_attrs(self, args, kwargs, result):
        problem = _first_arg(args, kwargs)
        return {
            "iterations": result.iterations,
            "accepted": len(result.residual_history) - 1,
            "max_iters": problem.max_iters,
            "progress_iterations": lm_progress_iterations(self.lm_points[-1], result),
        }

    def _wrap_jacobian(self, name, fn):
        def traced(*args, **kwargs):
            if self.lm_points:
                self.lm_points[-1].append(hash(_first_arg(args, kwargs).tobytes()))
            return self.span(name, fn, args, kwargs)

        return traced

    def _wrap_model_build(self, name, fn):
        # the model is cached per problem; only the first call builds it
        def traced(*args, **kwargs):
            problem = _first_arg(args, kwargs)
            if problem in self.built:
                return fn(*args, **kwargs)
            self.built.add(problem)
            rss_before = _maxrss_mb()

            def after(args, kwargs, result):
                return {
                    "problem": f"n{problem.n}{problem.mode}",
                    "rss_delta_mb": _maxrss_mb() - rss_before,
                }

            return self.span(name, fn, args, kwargs, after)

        return traced

    def write(self, path, cmd):
        with open(path, "w") as out:
            for name, start, end, parent, attrs in self.spans:
                row = {"name": name, "start": start, "end": end, "parent": parent, "cmd": cmd}
                row.update(attrs or {})
                out.write(json.dumps(row) + "\n")


AFTER = {
    "core.curvature": lambda a, k, r: {"n": _first_arg(a, k).n},
    "core.jacobi_residual_tensors": lambda a, k, r: {"n": _first_arg(a, k).shape[0]},
    "structio.parse_structure": lambda a, k, r: {"bytes": len(_first_arg(a, k))},
    "structio.emit_structure": lambda a, k, r: {"bytes": len(r)},
    "structio.emit_report": lambda a, k, r: {"bytes": len(r)},
}


def targets(cli):
    """Span name of every function to trace, keyed by the function object."""
    found = {cli.main: "cli.main"}
    for short in MODULES:
        module = importlib.import_module("hermlie." + short)
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                found[obj] = f"{short}.{name}"
    model = getattr(sys.modules["hermlie.search"], "_polynomial_model", None)
    if model is not None:
        found[model] = "search.model_build"
    return found


def install(tracer, found):
    wrappers = {fn: tracer.wrap(name, fn) for fn, name in found.items()}
    for module_name, module in list(sys.modules.items()):
        if module_name != "hermlie" and not module_name.startswith("hermlie."):
            continue
        for attr, value in list(vars(module).items()):
            try:
                wrapper = wrappers.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(module, attr, wrapper)


def main(argv):
    spans_path, cmd, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    import hermlie.cli

    tracer.spans.append(["cli.import", start, time.perf_counter(), None, None])
    install(tracer, targets(hermlie.cli))
    try:
        code = hermlie.cli.main(args)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path, cmd)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
