"""Paired benchmark runs of a parent tree against a change.

    python3 tools/bench_pairs.py --parent REF [--change REF] --workload W [--workload W ...]
        --seeds FIRST-LAST [--claim W:METRIC] [--note TEXT]
        --workdir DIR --out BENCH_<N>.json

Run it from inside the repository.  --change defaults to the working tree:
every file that git tracks or does not ignore, staged or not.  Each side is
extracted with `git archive` into a fresh DIR/tree before each of its runs,
so both sides run from the same path and the directory plays no part in the
comparison.  For each seed the two sides each run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once, T the run_seconds of the parent's BENCHMARK.json, the side that runs first
alternating between pairs (the parent first on even-indexed pairs); the
environment is passed through unchanged.  The result file holds, per workload
and end-to-end metric, each side's runs, median and quartiles
(statistics.quantiles, method 'inclusive'), the pairs in which the change reads
better (ties count for neither) and the change of the median.  It is rewritten
after every pair, so an interrupted session keeps the pairs it finished.
--claim names a workload and metric whose gain is judged: better in at least
nine tenths of the pairs, and a median gap larger than the distance between the
parent's quartiles.  Every metric is also judged for regression against its
bound in BENCHMARK.json, a share of the parent's median: "unresolved" when the
parent's quartile spread is wider than the bound and not every change run reads
better than every parent run, else "beyond_bound" when the change's median is
worse than the parent's by more than the bound, else "within_bound".
"""

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args, env=None):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def tree_of(ref):
    """The tree object of ref, or of the working tree when ref is None."""
    if ref is not None:
        return git("rev-parse", f"{ref}^{{tree}}")
    with tempfile.TemporaryDirectory() as tmp:  # a scratch index leaves the real one alone
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def extract(tree, dest):
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", "--format=tar", tree], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {tree} failed")


def run_side(tree, dest, workload, seed, seconds):
    """The last stdout line of perfbench/run.py, a JSON object, from a fresh extraction."""
    extract(tree, dest)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=dest, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"perfbench failed ({workload}, seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs):
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": round(statistics.median(runs), 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def workload_summary(seeds, first, results, metrics):
    """The BENCH entry of one workload from its per-pair perfbench results; metrics maps
    each end-to-end metric to its BENCHMARK.json entry."""
    entry = {"seeds": seeds, "pairs": len(seeds), "first_side": first,
             "failed_ops": {side: sum(r[side]["failed"] for r in results) for side in SIDES},
             "attempted_ops": {side: sum(r[side]["attempted"] for r in results) for side in SIDES},
             "correct": all(r[side]["correct"] for r in results for side in SIDES)}
    for metric, spec in metrics.items():
        runs = {side: [r[side]["metrics"][metric]["value"] for r in results] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        wins = sum(sign * (p - c) > 0 for p, c in zip(runs["parent"], runs["change"]))
        parent, change = summarize(runs["parent"]), summarize(runs["change"])
        entry[metric] = {
            "parent": parent, "change": change, "change_better_in": f"{wins}/{len(seeds)}",
            "median_change": f"{100 * (change['median'] / parent['median'] - 1):+.1f} %"
            if parent["median"] else "n/a",
        }
        entry[metric]["regression"] = regression(entry[metric], spec["better"], spec["bound"])
    return entry


def claim_met(entry, metric, direction):
    """Better in at least 9/10 of the pairs and a median gap beyond the parent's quartiles."""
    stats = entry[metric]
    wins, pairs = map(int, stats["change_better_in"].split("/"))
    gap = stats["parent"]["median"] - stats["change"]["median"]
    if direction == "higher":
        gap = -gap
    return wins >= 0.9 * pairs and gap > stats["parent"]["q3"] - stats["parent"]["q1"]


def regression(stats, direction, bound):
    """"unresolved", "beyond_bound" or "within_bound": the median move in the worse
    direction and the parent's quartile spread, as shares of the parent's median,
    against bound (see the module docstring)."""
    parent, change = stats["parent"], stats["change"]
    sign = 1 if direction == "lower" else -1
    scale = abs(parent["median"]) or 1.0
    all_better = all(sign * (p - c) > 0 for p in parent["runs"] for c in change["runs"])
    if (parent["q3"] - parent["q1"]) / scale > bound and not all_better:
        return "unresolved"
    worse = sign * (change["median"] - parent["median"]) / scale
    return "beyond_bound" if worse > bound else "within_bound"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--change", default=None, help="git ref of the change (default: working tree)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="FIRST-LAST, one pair per seed")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is judged")
    parser.add_argument("--note", default="", help="what the change does, for the result file")
    parser.add_argument("--workdir", type=Path, required=True, help="where the sides are extracted")
    parser.add_argument("--out", type=Path, required=True)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    first_seed, _, last_seed = args.seeds.partition("-")
    seeds = list(range(int(first_seed), int(last_seed or first_seed) + 1))
    trees = {"parent": tree_of(args.parent), "change": tree_of(args.change)}
    out = args.out.resolve()
    dest = args.workdir.resolve() / "tree"
    extract(trees["parent"], dest)
    spec = json.loads((dest / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    record = {
        "change": args.note, "claim": args.claim, "claim_met": None,
        "method": (f"perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0; "
                   "one parent/change pair per seed, each side extracted (git archive) into the "
                   "same fresh directory before each run, the side that runs first alternating "
                   "between pairs (parent first on even-indexed pairs); quartiles by "
                   "statistics.quantiles(method='inclusive'); change_better_in counts pairs "
                   "where the change reads better (ties count for neither); regression judges "
                   "each metric against its BENCHMARK.json bound as a share of the parent's "
                   "median. Made with tools/bench_pairs.py."),
        "trees": {"parent": args.parent, "change": args.change or "working tree", **{
            f"{side}_tree": tree for side, tree in trees.items()}},
        "machine": (f"{os.cpu_count()} CPUs, {platform.system()}, Python "
                    f"{platform.python_version()}, numpy {importlib.metadata.version('numpy')}, "
                    f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', 'unset')}"),
        "workloads": {},
    }
    for workload in args.workload:
        results, first = [], []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {side: run_side(trees[side], dest, workload, seed, seconds) for side in order}
            results.append(pair)
            first.append(order[0])
            record["workloads"][workload] = workload_summary(seeds[:i + 1], first, results,
                                                             metrics)
            wall = {side: pair[side]["metrics"]["wall_s"]["value"] for side in SIDES}
            print(f"{workload} seed {seed}: wall_s parent {wall['parent']:.3f} "
                  f"change {wall['change']:.3f}", flush=True)
            if args.claim:
                claimed, _, metric = args.claim.partition(":")
                if claimed in record["workloads"]:
                    record["claim_met"] = claim_met(record["workloads"][claimed], metric,
                                                    metrics[metric]["better"])
            out.write_text(json.dumps(record, indent=1) + "\n")
        entry = record["workloads"][workload]
        print(workload, ", ".join(f"{metric} {entry[metric]['regression']}" for metric in metrics),
              flush=True)
    shutil.rmtree(dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
