"""Quick self-test of the benchmark: its output schema and its correctness
checks, not its times.

    python3 perfbench/selftest.py

Run it from the root of a hermlie source tree; it takes about a minute on
two cores.  It runs the workloads at tiny size for one pass and checks that
the last output line has exactly the keys of the result and the metric names
and units of BENCHMARK.json, feeds every output check a corrupted copy of a
real output and expects it to be caught, and checks that the benchmark
refuses, without a result, a tree that holds only the benchmark.
"""

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = 0.05  # 2 hunt restarts, 1 search restart, a 100-point analyze grid


def result_of(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)], scale=TINY)
    assert code == 0, code
    return json.loads(buf.getvalue().splitlines()[-1])


def check_schema(spec):
    runs = [(w, 1) for w in run.WORKLOADS] + [("hunt-n2", 0), ("verify-analyze", 0)]
    for workload, trace in runs:
        res = result_of(workload, trace)
        assert list(res) == ["correct", "attempted", "failed", "metrics"], list(res)
        assert res["correct"] is True and res["failed"] == 0, (workload, res["failed"])
        assert isinstance(res["attempted"], int) and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want, workload
        for name, metric in res["metrics"].items():
            assert isinstance(metric["value"], (int, float)), name
        if trace:
            m = res["metrics"]
            assert m["search.false_nonkahler"]["value"] <= m["search.rigid_restarts"]["value"]
            assert m["ops.failed_share"]["value"] == 0.0
        print(f"selftest: schema ok for {workload} --trace {trace}")


def rewrite_csv(text, edit):
    rows = run.read_csv(text)
    for row in rows:
        edit(row)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def corruptions(cmd, out):
    """Wrong outputs that the command's check must reject."""
    verb = cmd.args[0]
    lines = out.splitlines(keepends=True)
    if verb == "search":
        yield "".join(lines[:1] + lines[2:])  # one restart row missing
        yield out.replace("converged_kahler: ", "converged_kahler: 1")  # summary off
        if cmd.hunt and cmd.search_s in run.ENDPOINTS:
            yield out.replace("converged_nonkahler", "not_converged")
    elif verb == "verify-theorems":
        yield out.replace("all checks passed", "some checks FAILED")
        yield "FAIL  injected\n" + out
    elif verb == "catalog":
        yield out.replace("wrote", "wrote to")
    elif verb == "validate":
        yield out.replace("valid: true", "valid: X").replace("valid: false", "valid: true")
    elif verb == "analyze":
        yield "".join(lines[:-1])  # grid point missing

        def wrong(row):
            row["flatness_residual"] = "1"
            row["torsion_norm"] = "0.25"
            row["kahler_flag"] = "false" if row["kahler_flag"] == "true" else "true"

        yield rewrite_csv(out, wrong)
    else:
        raise AssertionError(f"no corruption for {verb}")


def check_checks():
    env = run.child_env()
    run.WORK.mkdir(parents=True, exist_ok=True)
    for workload in ("hunt-n2", "verify-analyze"):
        _, outcomes = run.run_pass(run.workload_commands(workload, 3, TINY), env)
        caught = 0
        for o in outcomes:
            assert not o.problems, (o.cmd.args[:3], o.problems)
            for bad in corruptions(o.cmd, o.stdout):
                assert o.cmd.check(bad), (o.cmd.args[:3], bad[:200])
                caught += 1
        exits = [o.cmd.expect_exit for o in outcomes]
        if workload == "verify-analyze":
            assert exits.count(1) == 1, exits  # the perturbed structure is invalid
        print(f"selftest: {caught} corrupted outputs caught on {workload}")


def check_refuses_bare_tree(spec):
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "hunt-n2", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, (proc.returncode, proc.stdout)
    print("selftest: a tree without the program is refused")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_refuses_bare_tree(spec)
    check_checks()
    check_schema(spec)
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
