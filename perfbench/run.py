"""Benchmark of the hermlie command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hermlie source tree; the package is imported from
src/ and nothing is installed.  A workload is a fixed sequence of `hermlie`
commands generated from --seed.  This process runs the commands one at a time
(a closed loop with one client), each in a fresh child process, and checks
every output.  A pass is one run of the whole sequence.

--trace 0  repeats untraced passes for --seconds and prints the end-to-end
           metrics named in BENCHMARK.json.
--trace 1  alternates untraced passes with passes under perfbench/shim.py,
           which times the public functions of each module from outside,
           and prints the per-layer metrics.

The last line of standard output is the JSON result.  The run record and
the spans are written under .perfbench/ in the current directory.  See
perfbench/selftest.py for a quick check of the output schema and the
correctness checks.
"""

import argparse
import csv
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench"
WORK = OUT / "work"  # relative paths inside commands resolve against ROOT

FLAT_TOL = 1e-8  # hermlie's flatness tolerance
KAHLER_TOL = 1e-9  # hermlie's default validity tolerance, which analyze uses for kahler_flag
ENDPOINTS = (0.0, 2.0)  # the parameters at which flat non-Kahler structures exist
CLASSES = ("converged_kahler", "converged_nonkahler", "not_converged")
SETUP_ARGS = ("catalog", "abelian", "--n", "1")
SETUP_SAMPLES_PER_PASS = 3
CHILD_CPU_LIMIT_S = 150  # a runaway command is stopped inside the 180 s run limit
# Commands run one at a time on single-threaded BLAS: on a small shared machine
# idle BLAS threads spin and make the times of the n=3 search swing by half.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


# ---------------------------------------------------------------------------
# workloads: command sequences and their output checks


@dataclass
class Command:
    args: list
    expect_exit: int = 0
    check: object = None  # stdout -> list of problems
    search_s: float | None = None  # parameter of a search command
    hunt: bool = False


def read_csv(text):
    return list(csv.DictReader(text.splitlines()))


def parse_search(text):
    """CSV rows and trailing `<classification>: <count>` lines of a search report."""
    lines = text.splitlines()
    summary = {}
    while lines and ": " in lines[-1]:
        key, _, value = lines.pop().partition(": ")
        summary[key] = int(value)
    return read_csv("\n".join(lines)), summary


def search_command(n, s, restarts, seed, mode="full", hunt=False):
    args = ["search", "--n", str(n), "--s", repr(s), "--mode", mode,
            "--restarts", str(restarts), "--seed", str(seed)]
    if hunt:
        args.append("--hunt")

    def check(out):
        rows, summary = parse_search(out)
        classes = [row["classification"] for row in rows]
        problems = []
        if len(rows) != restarts:
            problems.append(f"{len(rows)} CSV rows for {restarts} restarts")
        if sum(summary.get(c, 0) for c in CLASSES) != restarts:
            problems.append(f"classification counts {summary} do not sum to {restarts}")
        for c in CLASSES:
            if classes.count(c) != summary.get(c, 0):
                problems.append(f"{c}: {classes.count(c)} rows but summary says {summary.get(c)}")
        if hunt and s in ENDPOINTS and "converged_nonkahler" not in classes:
            problems.append(f"hunt at endpoint s={s} found no non-Kahler flat structure")
        return problems

    return Command(args, check=check, search_s=s, hunt=hunt)


def hunt_n2(rng, scale):
    restarts = max(1, round(40 * scale))
    return [search_command(2, s, restarts, rng.randrange(1, 10**6), hunt=True)
            for s in (0.0, 1.5, 2.0, 3.0)]


def build_n3n4(rng, scale):
    restarts = max(1, round(4 * scale))
    return [
        search_command(3, 1.0, restarts, rng.randrange(1, 10**6)),
        search_command(4, 1.0, restarts, rng.randrange(1, 10**6), mode="parallel_frame"),
    ]


def emit_command(path, n, catalog_args):
    def check(out):
        problems = [] if out.strip() == f"wrote {path}" else [f"unexpected output {out!r}"]
        doc = json.loads((ROOT / path).read_text())
        if doc.get("schema_version") != 1 or doc.get("n") != n:
            problems.append(f"{path} has schema {doc.get('schema_version')} and n={doc.get('n')}")
        return problems

    return Command(["catalog", *catalog_args, "--emit", path], check=check)


def validate_command(path, valid):
    def check(out):
        want = f"valid: {'true' if valid else 'false'}"
        return [] if want in out.splitlines() else [f"no line {want!r}"]

    return Command(["validate", path], expect_exit=0 if valid else 1, check=check)


def analyze_command(path, grid, truth):
    def check(out):
        rows = read_csv(out)
        if [float(row["s"]) for row in rows] != grid:
            return ["s column differs from the requested grid"]
        flat = {float(row["s"]): float(row["flatness_residual"]) for row in rows}
        return truth(rows[0], flat)

    grid_arg = ",".join(repr(s) for s in grid)
    return Command(["analyze", path, "--s-grid", grid_arg], check=check)


def samelson_truth(row, flat):
    problems = []
    if abs(float(row["torsion_norm"]) - 0.5) > 1e-12:
        problems.append(f"samelson |T| = {row['torsion_norm']}, expected 0.5")
    if flat[2.0] > FLAT_TOL:
        problems.append(f"samelson not flat at s=2 ({flat[2.0]:.3g})")
    if row["kahler_flag"] != "false":
        problems.append("samelson flagged Kahler")
    return problems


def bdf_truth(row, flat):
    problems = []
    if row["kahler_flag"] != "true" or float(row["torsion_norm"]) > KAHLER_TOL:
        problems.append(f"bdf not Kahler (|T| = {row['torsion_norm']})")
    worst = max(flat.values())
    if worst > FLAT_TOL:
        problems.append(f"bdf not flat at every s (worst {worst:.3g})")
    return problems


def complex_group_truth(row, flat):
    return [] if flat[0.0] <= FLAT_TOL else [f"complex group not flat at s=0 ({flat[0.0]:.3g})"]


def verify_analyze(rng, scale):
    points = max(4, round(2000 * scale))
    grid = [rng.uniform(-1.0, 4.0) for _ in range(points - 2)] + list(ENDPOINTS)
    rng.shuffle(grid)
    work = WORK.relative_to(ROOT)
    sam, bdf4, bdf6, cgroup, noisy = (
        str(work / f"{name}.json") for name in ("samelson", "bdf4", "bdf6", "cgroup", "perturbed")
    )
    q1, q2 = (f"{rng.uniform(0.5, 2.0):.6f}" for _ in range(2))

    def verify_check(out):
        lines = out.splitlines()
        problems = [line for line in lines if line.startswith("FAIL")]
        if not lines or lines[-1] != "all checks passed":
            problems.append("no 'all checks passed' line")
        return problems

    return [
        Command(["verify-theorems", "--suite", "all"], check=verify_check),
        emit_command(sam, 2, ["samelson", "--c", "1"]),
        emit_command(bdf4, 2, ["bdf4", "--q", q1]),
        emit_command(bdf6, 3, ["bdf-general", "--p", "2", "--h-dim", "1", "--c-dim", "1",
                               "--q", f"{q1},{q2}"]),
        emit_command(cgroup, 3, ["complex-group", "--n", "3", "--c", q2]),
        emit_command(noisy, 2, ["perturb", "--base", sam, "--eps", "0.1",
                                "--seed", str(rng.randrange(10**6))]),
        *(validate_command(path, True) for path in (sam, bdf4, bdf6, cgroup)),
        validate_command(noisy, False),
        analyze_command(sam, grid, samelson_truth),
        analyze_command(bdf4, grid, bdf_truth),
        analyze_command(bdf6, grid, bdf_truth),
        analyze_command(cgroup, grid, complex_group_truth),
    ]


WORKLOADS = {"hunt-n2": hunt_n2, "build-n3n4": build_n3n4, "verify-analyze": verify_analyze}


def workload_commands(name, seed, scale=1.0):
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), scale)


# ---------------------------------------------------------------------------
# running commands


@dataclass
class Outcome:
    cmd: Command
    exit_code: int
    stdout: str
    wall_s: float
    maxrss_mb: float
    problems: list


def child_env():
    env = dict(os.environ)
    env.pop("HERMLIE_TOL", None)  # the checks assume the default tolerances
    env.update(dict.fromkeys(BLAS_ENV, "1"))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S, CHILD_CPU_LIMIT_S))


def run_child(argv, env):
    """Exit code, stdout, stderr, wall time and peak RSS (MB) of one child process."""
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, preexec_fn=_limit_cpu)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), wall, usage.ru_maxrss / 1024.0)


def run_command(cmd, env, spans=None, cmd_id=""):
    """Run one command, untraced or (with a spans file) under the shim, and check it."""
    if spans is None:
        argv = [sys.executable, "-m", "hermlie.cli", *cmd.args]
    else:
        argv = [sys.executable, str(BENCH_DIR / "shim.py"), str(spans), cmd_id, *cmd.args]
    code, out, err, wall, rss = run_child(argv, env)
    problems = []
    if code != cmd.expect_exit:
        problems.append(f"exit code {code}, expected {cmd.expect_exit}: {err.strip()[-300:]}")
    if cmd.check is not None:
        try:
            problems += cmd.check(out)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return Outcome(cmd, code, out, wall, rss, problems)


def run_pass(commands, env, spans_dir=None, tag=""):
    outcomes = []
    start = time.perf_counter()
    for i, cmd in enumerate(commands):
        spans = None if spans_dir is None else spans_dir / f"{tag}-{i:02d}.jsonl"
        outcomes.append(run_command(cmd, env, spans, f"{tag}-{i:02d}"))
    return time.perf_counter() - start, outcomes


def sequence_wall(passes):
    """Wall time of the command sequence: the sum over its commands of each
    command's median wall time across passes."""
    return sum(statistics.median(o.wall_s for o in runs)
               for runs in zip(*(outcomes for _, outcomes in passes)))


def search_verdicts(outcomes):
    """Hunt and rigidity verdict counts of the search commands of one pass."""
    v = dict(false_nonkahler=0, rigid_restarts=0, endpoint_nonkahler=0, endpoint_restarts=0)
    for o in outcomes:
        if o.cmd.search_s is None or o.problems:
            continue
        classes = [row["classification"] for row in parse_search(o.stdout)[0]]
        nonkahler = classes.count("converged_nonkahler")
        if o.cmd.search_s not in ENDPOINTS:
            v["false_nonkahler"] += nonkahler
            v["rigid_restarts"] += len(classes)
        elif o.cmd.hunt:
            v["endpoint_nonkahler"] += nonkahler
            v["endpoint_restarts"] += len(classes)
    return v


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def read_spans(spans_dir):
    """Spans of every traced command, each with its duration and self time
    (its duration minus the part its child spans cover)."""
    for path in sorted(spans_dir.glob("*.jsonl")):
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        child_s = [0.0] * len(rows)
        for row in rows:
            row["dur"] = row["end"] - row["start"]
            if row["parent"] is not None:
                child_s[row["parent"]] += row["dur"]
        for row, covered in zip(rows, child_s):
            row["self"] = row["dur"] - covered
        yield from rows


CORE_PER_N = ("core.curvature", "core.jacobi_residual_tensors")
CORE_COUNTED = ("core.chern_torsion", "core.gauduchon_connection", "core.bracket_tables",
                "core.validate_structure", "core.kahler_flatness_summary")
TIMED = ("search.lm_minimize", "search.jacobian",
         "theorems.surface_obstruction", "theorems.parallel_frame_reduction",
         "theorems.flat_torsion_identities", "theorems.torsion_descent",
         "structio.parse_structure", "structio.emit_structure", "structio.emit_report",
         "realform.to_unitary_structure")
MODEL_PROBLEMS = ("n2full", "n3full", "n4parallel_frame")


def layer_metrics(spans, passes, opcounts):
    """Per-layer metrics, as totals per traced pass."""
    agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
    lm = dict(iterations=0, accepted=0, restarts=0, max_iters_restarts=0,
              progress_iterations=0, placed_iterations=0)
    build_s = defaultdict(float)
    build_rss = defaultdict(float)
    for span in spans:
        name = span["name"]
        keys = [name, "catalog"] if name.startswith("catalog.") else [name]
        if name in CORE_PER_N:
            keys.append(f"{name}.n{span['n']}")
        for key in keys:
            a = agg[key]
            a["calls"] += 1
            a["s"] += span["dur"]
            a["self_s"] += span["self"]
            a["bytes"] += span.get("bytes", 0)
        if name == "search.lm_minimize":
            lm["iterations"] += span["iterations"]
            lm["accepted"] += span["accepted"]
            lm["restarts"] += 1
            lm["max_iters_restarts"] += span["iterations"] >= span["max_iters"]
            if span["progress_iterations"] is not None:
                lm["progress_iterations"] += span["progress_iterations"]
                lm["placed_iterations"] += span["iterations"]
        elif name == "search.model_build":
            build_s[span["problem"]] += span["dur"]
            build_rss[span["problem"]] = max(build_rss[span["problem"]], span["rss_delta_mb"])

    m = {}
    for name in TIMED:
        for field in ("calls", "s", "self_s"):
            m[f"{name}.{field}"] = agg[name][field] / passes
    for name in ("structio.parse_structure", "structio.emit_structure", "structio.emit_report"):
        m[f"{name}.bytes"] = agg[name]["bytes"] / passes
    for name in CORE_COUNTED:
        m[f"{name}.calls"] = agg[name]["calls"] / passes
        m[f"{name}.self_s"] = agg[name]["self_s"] / passes
    for name in CORE_PER_N:
        for n in (2, 3, 4):
            a = agg[f"{name}.n{n}"]
            m[f"{name}.n{n}.calls"] = a["calls"] / passes
            m[f"{name}.n{n}.us_per_call"] = 1e6 * a["s"] / a["calls"] if a["calls"] else 0.0
            m[f"{name}.n{n}.flops_computed"] = opcounts[f"{name[len('core.'):]}.n{n}"]
    for field in ("calls", "s", "self_s"):
        m[f"catalog.{field}"] = agg["catalog"][field] / passes
    m["cli.main.self_s"] = agg["cli.main"]["self_s"] / passes
    m["cli.import_s"] = agg["cli.import"]["s"] / passes
    for problem in MODEL_PROBLEMS:
        m[f"search.model_build.{problem}.s"] = build_s[problem] / passes
        m[f"search.model_build.{problem}.rss_delta_mb"] = build_rss[problem]
    lm_s = agg["search.lm_minimize"]["s"]
    m["search.lm.iterations"] = lm["iterations"] / passes
    m["search.lm.accepted"] = lm["accepted"] / passes
    m["search.lm.s_per_iter"] = lm_s / lm["iterations"] if lm["iterations"] else 0.0
    m["search.lm.accept_ratio"] = lm["accepted"] / lm["iterations"] if lm["iterations"] else 0.0
    m["search.lm.progress_iterations"] = lm["progress_iterations"] / passes
    m["search.lm.progress_ratio"] = (
        lm["progress_iterations"] / lm["placed_iterations"] if lm["placed_iterations"] else 0.0
    )
    m["search.lm.max_iters_restarts"] = lm["max_iters_restarts"] / passes
    m["search.lm.max_iters_share"] = (
        lm["max_iters_restarts"] / lm["restarts"] if lm["restarts"] else 0.0
    )
    return m


# ---------------------------------------------------------------------------
# run record


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hermlie").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


VERSIONS = (
    "import json, platform, numpy, hermlie\n"
    "try:\n"
    "    blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "except Exception as exc:\n"
    "    blas = repr(exc)\n"
    "print(json.dumps({'hermlie': hermlie.__version__, 'numpy': numpy.__version__,\n"
    "                  'python': platform.python_version(), 'blas': blas}))\n"
)


def run_record(args, env):
    code, out, err, _, _ = run_child([sys.executable, "-c", VERSIONS], env)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "versions": json.loads(out) if code == 0 else {"error": err.strip()[-300:]},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {name: env.get(name) for name in BLAS_ENV},
        "platform": sys.platform,
    }


# ---------------------------------------------------------------------------
# main


def metric_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def with_units(values, units):
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise SystemExit(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, scale=1.0):
    """Run the benchmark; scale < 1 shrinks restarts and grids (self-test only)."""
    args = parse_args(argv)
    if not (ROOT / "src" / "hermlie" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from the root of a hermlie source tree "
              "(src/hermlie/cli.py and BENCHMARK.json not found)", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    WORK.mkdir(parents=True, exist_ok=True)
    spans_dir = OUT / "spans"
    spans_dir.mkdir(exist_ok=True)
    for stale in spans_dir.glob("*.jsonl"):
        stale.unlink()

    env = child_env()
    record = run_record(args, env)
    commands = workload_commands(args.workload, args.seed, scale)
    setup_cmd = Command(list(SETUP_ARGS), check=lambda out: [] if '"n": 1' in out else ["no n=1 structure"])
    deadline = time.perf_counter() + args.seconds
    checked = [run_command(setup_cmd, env)]  # warm-up: bytecode compilation and file cache
    setup_samples, untraced, traced = [], [], []
    while True:
        started = time.perf_counter()
        if args.trace:
            untraced.append(run_pass(commands, env))
            traced.append(run_pass(commands, env, spans_dir, f"p{len(traced)}"))
            checked += traced[-1][1]
        else:
            probes = [run_command(setup_cmd, env) for _ in range(SETUP_SAMPLES_PER_PASS)]
            setup_samples += [p.wall_s for p in probes]
            checked += probes
            untraced.append(run_pass(commands, env))
        checked += untraced[-1][1]
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    failed = [o for o in checked if o.problems]
    for o in failed:
        print(f"perfbench: FAILED {' '.join(o.cmd.args)[:120]}: {'; '.join(o.problems)}",
              file=sys.stderr)
    verdicts = search_verdicts(untraced[0][1])
    untraced_wall = sequence_wall(untraced)
    if args.trace:
        opcount = subprocess.run([sys.executable, str(BENCH_DIR / "opcount.py")], cwd=ROOT,
                                 env=env, capture_output=True, text=True, check=True)
        values = layer_metrics(read_spans(spans_dir), len(traced), json.loads(opcount.stdout))
        values["trace.overhead_s"] = sequence_wall(traced) - untraced_wall
        values["ops.failed_share"] = len(failed) / len(checked)
        values["search.false_nonkahler"] = verdicts["false_nonkahler"]
        values["search.rigid_restarts"] = verdicts["rigid_restarts"]
        values["search.endpoint_nonkahler_share"] = (
            verdicts["endpoint_nonkahler"] / verdicts["endpoint_restarts"]
            if verdicts["endpoint_restarts"] else 0.0
        )
        values["search.endpoint_restarts"] = verdicts["endpoint_restarts"]
        metrics = with_units(values, layer_units)
    else:
        values = {
            "wall_s": untraced_wall,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": statistics.median(max(o.maxrss_mb for o in outs) for _, outs in untraced),
            "ops_ok_share": 1.0 - len(failed) / len(checked),
        }
        metrics = with_units(values, e2e_units)

    record.update(
        passes={"untraced_wall_s": [w for w, _ in untraced], "traced_wall_s": [w for w, _ in traced]},
        setup_samples_s=setup_samples,
        commands=[{"args": [a[:80] for a in o.cmd.args], "exit": o.exit_code, "wall_s": o.wall_s,
                   "maxrss_mb": o.maxrss_mb} for o in untraced[0][1]],
        verdicts=verdicts,
        ops={"attempted": len(checked), "failed": len(failed)},
        failures=[{"args": o.cmd.args[:6], "problems": o.problems} for o in failed],
        metrics=values,
    )
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"perfbench: {args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes; ops failed {len(failed)}/{len(checked)}; "
          f"false_nonkahler {verdicts['false_nonkahler']}/{verdicts['rigid_restarts']} rigid restarts; "
          f"endpoint non-Kahler {verdicts['endpoint_nonkahler']}/{verdicts['endpoint_restarts']}; "
          f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failed, "attempted": len(checked), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
