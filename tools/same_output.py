"""Check that a change leaves every output of hermlie byte-identical to its parent's.

    python3 tools/same_output.py --parent REF [--change REF] [--seeds 11,12] --workdir DIR

Run it from inside the repository.  --change defaults to the working tree:
every file that git tracks or does not ignore, staged or not.  Each side is
extracted with `git archive` into the same fresh DIR/tree (tools/bench_pairs.py's
tree_of and extract), where it runs

  - every command of every perfbench workload at each seed, in order, as
    perfbench runs them: `python -m hermlie.cli ARGS` from the root of the
    tree, PYTHONPATH=src, single-threaded BLAS.  The exit code, stdout and
    stderr of each command are kept, and so is every file that a workload's
    commands leave under .perfbench/work;
  - EXTRA_COMMANDS, the commands that the workloads miss, in order from the
    root of the tree after the workloads, keeping what they write under
    EXTRA_DIR as well;
  - `hermlie verify-theorems --suite all`;
  - `pytest -q -s tests/test_acceptance.py`, of whose output only the verdict
    lines are kept.  pytest prints each verdict right after the progress dot
    of the test before it, so a verdict is found anywhere in a line, not only
    at its start: this is `grep -oE '(PASS|FAIL)  criterion .*'`.

It prints the md5 of the verify-theorems stdout and of the verdict lines of
each side, then every output that differs with a unified diff of its lines,
and exits 1 if any output differs, else 0.  When a search report differs,
each side's classification counts and stop-reason histogram come before its
diff, so that a change of the random stream is judged by its verdicts.
"""

import argparse
import csv
import difflib
import hashlib
import importlib.util
import itertools
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from bench_pairs import extract, tree_of

VERDICT = re.compile(r"(?:PASS|FAIL)  criterion .*")
DIFF_LINES = 40  # lines of the unified diff shown per differing output
EXTRA_DIR = "extra"  # where EXTRA_COMMANDS write, relative to the root of the tree
BDF_GENERAL = ["catalog", "bdf-general", "--p", "2", "--h-dim", "2", "--c-dim", "2"]
EXTRA_COMMANDS = (
    *(["catalog", "bdf4", "--q", q] for q in ("1", "-3", "0.37", "0")),
    # the two specs of tests/test_catalog.py::test_every_catalog_output_is_valid
    [*BDF_GENERAL, "--q", "1,0.5,0,2"],
    [*BDF_GENERAL, "--q", "1,0,0.5,2", "--h-pairs", "1", "--c-pairs", "1"],
    # a centre pair before a plane in the frame
    ["catalog", "bdf-general", "--p", "1", "--h-dim", "1", "--c-dim", "3", "--c-pairs", "1",
     "--q", "1.5", "--emit", f"{EXTRA_DIR}/bdf6.json"],
    ["analyze", f"{EXTRA_DIR}/bdf6.json", "--s-grid", "-1,0,0.5,1,2,3", "--format", "json"],
    # blocks of 30 and 12 restarts, refilled as restarts stop
    ["search", "--n", "2", "--s", "1", "--restarts", "100", "--seed", "5"],
    ["search", "--n", "3", "--s", "1", "--mode", "parallel_frame", "--restarts", "30", "--seed",
     "5"],
    ["search", "--n", "2", "--s", "1.5", "--restarts", "6", "--max-iters", "5"],
    ["search", "--n", "2", "--s", "1e200", "--restarts", "2"],
    # rejected at once: the d x d basis of its model is 743 TiB
    ["search", "--n", "150", "--s", "1", "--restarts", "1"],
    # the run behind the smallest rho that README states for n = 2 at s = 0.3
    ["search", "--n", "2", "--s", "0.3", "--restarts", "30", "--seed", "5"],
)


def verdict_lines(text):
    """The acceptance verdict lines of pytest's output, wherever they start in a line."""
    return VERDICT.findall(text)


def search_verdicts(stdout):
    """The classification counts and stop-reason histogram of a search report (its CSV
    rows, then one count line per class), or None when stdout is no search report."""
    lines = stdout.decode(errors="replace").splitlines()
    if not lines or not lines[0].startswith("restart,seed_used,"):
        return None
    rows = list(csv.DictReader(line for line in lines if "," in line))

    def histogram(column):
        return ", ".join(f"{key} {count}" for key, count in
                         sorted(Counter(row[column] for row in rows).items()))

    return f"classifications {histogram('classification')}; stop reasons {histogram('stop_reason')}"


def differences(parent, change):
    """One heading and the first DIFF_LINES lines of a unified diff for every output
    (name -> bytes) that differs between the sides or exists on one side only; for a
    search report, each side's verdicts (search_verdicts) come between them."""
    lines = []
    for name in [*parent, *(name for name in change if name not in parent)]:
        old, new = parent.get(name), change.get(name)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"only in {'change' if old is None else 'parent'}: {name}")
            continue
        lines.append(f"differs: {name}")
        verdicts = [search_verdicts(old), search_verdicts(new)]
        if None not in verdicts:
            lines += [f"  parent {verdicts[0]}", f"  change {verdicts[1]}"]
        diff = difflib.unified_diff(old.decode(errors="replace").splitlines(),
                                    new.decode(errors="replace").splitlines(),
                                    "parent", "change", lineterm="", n=1)
        lines += itertools.islice(diff, DIFF_LINES)
    return lines


def md5(data):
    return hashlib.md5(data).hexdigest()


def load_perfbench(tree_dir):
    path = tree_dir / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def run_in(tree_dir, env, argv):
    proc = subprocess.run([sys.executable, *argv], cwd=tree_dir, env=env, capture_output=True,
                          stdin=subprocess.DEVNULL)
    return proc.returncode, proc.stdout, proc.stderr


def outputs(tree, tree_dir, seeds):
    """name -> bytes of every output of one side, extracted into tree_dir."""
    extract(tree, tree_dir)
    run = load_perfbench(tree_dir)
    env = {**os.environ, **dict.fromkeys(run.BLAS_ENV, "1"), "PYTHONPATH": str(tree_dir / "src")}
    work = tree_dir / ".perfbench" / "work"
    found = {}

    def command(name, argv):
        code, out, err = run_in(tree_dir, env, argv)
        found.update({f"{name}: exit": str(code).encode(), f"{name}: stdout": out,
                      f"{name}: stderr": err})

    for workload, seed in itertools.product(sorted(run.WORKLOADS), seeds):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for i, cmd in enumerate(run.workload_commands(workload, seed)):
            command(f"{workload} seed {seed} #{i:02d} {' '.join(cmd.args)[:70]}",
                    ["-m", "hermlie.cli", *cmd.args])
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            name = f"{workload} seed {seed} file {path.relative_to(tree_dir)}"
            found[name] = path.read_bytes()
    (tree_dir / EXTRA_DIR).mkdir()
    for argv in EXTRA_COMMANDS:
        command(" ".join(argv), ["-m", "hermlie.cli", *argv])
    for path in sorted(p for p in (tree_dir / EXTRA_DIR).rglob("*") if p.is_file()):
        found[f"file {path.relative_to(tree_dir)}"] = path.read_bytes()
    verify = ["verify-theorems", "--suite", "all"]
    command(" ".join(verify), ["-m", "hermlie.cli", *verify])
    code, out, _ = run_in(tree_dir, env, ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                                          "tests/test_acceptance.py"])
    found["acceptance: exit"] = str(code).encode()
    found["acceptance: verdict lines"] = "".join(
        f"{line}\n" for line in verdict_lines(out.decode(errors="replace"))).encode()
    return found


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent")
    parser.add_argument("--change", default=None,
                        help="git ref of the change (default: working tree)")
    parser.add_argument("--seeds", default="11,12", help="comma-separated workload seeds")
    parser.add_argument("--workdir", type=Path, required=True, help="where the sides are extracted")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    seeds = [int(seed) for seed in args.seeds.split(",")]
    trees = {"parent": tree_of(args.parent), "change": tree_of(args.change)}
    tree_dir = args.workdir.resolve() / "tree"
    found = {}
    for side, tree in trees.items():
        found[side] = outputs(tree, tree_dir, seeds)
        verdicts = found[side]["acceptance: verdict lines"]
        print(f"{side}: {len(found[side])} outputs; verify-theorems stdout md5 "
              f"{md5(found[side]['verify-theorems --suite all: stdout'])}; "
              f"{len(verdicts.splitlines())} verdict lines, md5 {md5(verdicts)}", flush=True)
    shutil.rmtree(tree_dir)
    lines = differences(found["parent"], found["change"])
    print("\n".join(lines) if lines else f"identical: all {len(found['parent'])} outputs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
