"""The process entry point: `python -m hermlie.cli` ends with os._exit once its output is flushed,
and must say and write exactly what an in-process main() says and writes.  No command, and no
library call that draws random numbers, loads numpy.random or OpenSSL."""

import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from hermlie.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

# (case, argv, expected exit code); inputs are read from two directories up and
# --emit writes into the working directory, so both runs print the same paths
CASES = [
    ("catalog-stdout", ["catalog", "samelson", "--c", "0.75"], 0),
    ("catalog-emit", ["catalog", "bdf-general", "--p", "2", "--q", "1,2", "--emit", "out.json"], 0),
    ("validate-valid", ["validate", "../../bdf4.json"], 0),
    ("validate-perturbed", ["validate", "../../noisy.json"], 1),
    ("analyze", ["analyze", "../../sam.json", "--s-grid", "-1,0,0.5,2,3.25"], 0),
    ("search-hunt", ["search", "--n", "2", "--s", "1.5", "--restarts", "2", "--seed", "3",
                     "--hunt"], 0),
    ("verify-surface", ["verify-theorems", "--suite", "surface"], 0),
    # the two below draw seeded numbers, as search-hunt does
    ("catalog-perturb", ["catalog", "perturb", "--base", "../../sam.json", "--eps", "0.05",
                         "--seed", "7"], 0),
    ("verify-parallel", ["verify-theorems", "--suite", "parallel"], 0),
    ("usage-error", ["search", "--n", "2"], 2),
    ("bad-s-grid", ["analyze", "../../sam.json", "--s-grid", "1,nan"], 2),
]


def child_env():
    """The test's environment with src on the path; stdout is block-buffered, as on a pipe."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def python(*args, cwd):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(), capture_output=True,
                          timeout=120)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Input files, then every case run as a child process, three at a time."""
    root = tmp_path_factory.mktemp("entry")
    sam, bdf4, noisy = (str(root / name) for name in ("sam.json", "bdf4.json", "noisy.json"))
    for argv in (["samelson", "--emit", sam], ["bdf4", "--q", "1.25", "--emit", bdf4],
                 ["perturb", "--base", sam, "--eps", "0.1", "--seed", "4", "--emit", noisy]):
        assert main(["catalog", *argv]) == 0
    for case, _, _ in CASES:
        (root / case / "child").mkdir(parents=True)
        (root / case / "inproc").mkdir()

    def child(case_argv):
        case, argv = case_argv
        return python("-m", "hermlie.cli", *argv, cwd=root / case / "child")

    with ThreadPoolExecutor(max_workers=3) as pool:
        runs = dict(zip([c for c, _, _ in CASES], pool.map(child, [(c, a) for c, a, _ in CASES])))
    return root, runs


@pytest.mark.parametrize("case, argv, code", CASES, ids=[c for c, _, _ in CASES])
def test_child_matches_main(case, argv, code, work, capsys, monkeypatch):
    root, runs = work
    monkeypatch.chdir(root / case / "inproc")
    assert main(argv) == code
    out, err = capsys.readouterr()
    proc = runs[case]
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, out, err)
    emitted = [p.name for p in (root / case / "child").iterdir()]
    assert emitted == [p.name for p in (root / case / "inproc").iterdir()]
    for name in emitted:
        assert (root / case / "child" / name).read_bytes() == Path(name).read_bytes()


def test_profiler_still_prints_its_table(tmp_path):
    # cProfile swallows the SystemExit of the module it runs and prints its table after it
    proc = python("-m", "cProfile", "-m", "hermlie.cli", "catalog", "abelian", "--n", "1",
                  cwd=tmp_path)
    out = proc.stdout.decode()
    assert proc.returncode == 0 and proc.stderr == b""
    assert out.startswith("{\n") and '"schema_version": 1' in out
    assert re.search(r"\d+ function calls .* in [\d.]+ seconds", out)
    assert "ncalls  tottime  percall  cumtime  percall filename:lineno(function)" in out


def test_atexit_callbacks_run_before_the_output_is_flushed(tmp_path):
    script = ("import atexit, sys\n"
              "atexit.register(print, 'callback ran')\n"
              "from hermlie.cli import run\n"
              "sys.exit(run(['validate', 'missing.json']))\n")
    proc = python("-c", script, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (1, b"callback ran\n")
    assert proc.stderr.decode().startswith("error: [Errno 2] No such file or directory")


def test_exception_from_main_keeps_the_traceback(tmp_path):
    script = ("import sys\n"
              "import hermlie.cli as cli\n"
              "cli.main = lambda argv=None: 1 / 0\n"
              "sys.exit(cli.run())\n")
    proc = python("-c", script, cwd=tmp_path)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode().splitlines()[-1] == "ZeroDivisionError: division by zero"


def test_closed_stdout_exits_as_the_interpreter_does(work):
    # the read end is closed before the child writes, so the flush fails with EPIPE; the
    # child then exits normally, and the interpreter reports it and exits 120
    root, _ = work
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "hermlie.cli", "validate", "bdf4.json"],
                              cwd=root, stdout=write, stderr=subprocess.PIPE, timeout=120,
                              env=child_env())
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert re.fullmatch(r"Exception ignored in: <_io\.TextIOWrapper name='<stdout>' mode='w' "
                        r"encoding='[\w-]+'>\nBrokenPipeError: \[Errno 32\] Broken pipe\n",
                        proc.stderr.decode())


def probe(cwd, code):
    """Words of the line that an atexit callback prints after `code` ran in a child: whether
    _hashlib is loaded, numpy.random is loaded and libcrypto is mapped."""
    script = ("import atexit, sys\n"
              "def show():\n"
              "    maps = open('/proc/self/maps').read() if sys.platform == 'linux' else ''\n"
              "    print(sys.modules.get('_hashlib') is not None, 'numpy.random' in sys.modules,\n"
              "          'libcrypto' in maps)\n"
              "atexit.register(show)\n"
              f"{code}")
    proc = python("-c", script, cwd=cwd)
    assert proc.returncode == 0 and proc.stderr == b""
    return proc.stdout.decode().splitlines()[-1].split()


# every subcommand, and every command that draws seeded numbers
@pytest.mark.parametrize("argv", [
    ["validate", "bdf4.json"],
    ["analyze", "sam.json", "--s-grid", "0,1.5"],
    ["search", "--n", "2", "--s", "1.5", "--restarts", "2", "--hunt"],
    ["catalog", "samelson"],
    ["catalog", "perturb", "--base", "sam.json", "--eps", "0.05", "--seed", "7"],
    ["verify-theorems", "--suite", "parallel"],
], ids=["validate", "analyze", "search-hunt", "catalog", "catalog-perturb", "verify-parallel"])
def test_commands_that_draw_nothing_never_load_numpy_random(argv, work):
    # seeded draws come from the stdlib generator, so the commands that draw load no more
    # than those that draw nothing: neither numpy.random nor, through it, OpenSSL
    root, _ = work
    assert probe(root, f"from hermlie.cli import run\nsys.exit(run({argv!r}))\n") == [
        "False", "False", "False"]


def test_library_callers_never_load_numpy_random(tmp_path):
    # without run() too: the search, the noise generator and the parallel battery
    code = ("import hermlie as hl\n"
            "from hermlie import theorems\n"
            "hl.multistart_search(hl.SearchProblem(n=2, s=1.5, restarts=2, hunt=True))\n"
            "hl.perturb(hl.samelson_su2_r(1.0), 0.1, 4)\n"
            "assert all(check.ok for check in theorems.parallel())\n")
    assert probe(tmp_path, code) == ["False", "False", "False"]
