"""tools/same_output.py's verdict-line extraction and diffing, on synthetic text, and its
command list (no subprocess)."""

import importlib.util
import sys
from pathlib import Path

from hermlie.cli import _build_parser

TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(TOOLS))  # same_output imports bench_pairs as its sibling
_spec = importlib.util.spec_from_file_location("same_output", TOOLS / "same_output.py")
same_output = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_output)

# pytest -q -s: each verdict follows the progress dot of the test before it
PYTEST_OUTPUT = """\
PASS  criterion 1: flat Kahler fixture  [worst 0.0e+00]
.PASS  criterion 2: samelson  [|T| 0.5]
.FAIL  criterion 3: hunt  [s=0:99]
.
tests/test_acceptance.py::test_criterion_03 FAILED
PASS criterion 3, with one space, is no verdict
=== 1 failed, 2 passed in 1.00s ===
"""


def test_verdict_lines_start_anywhere_in_a_line():
    assert same_output.verdict_lines(PYTEST_OUTPUT) == [
        "PASS  criterion 1: flat Kahler fixture  [worst 0.0e+00]",
        "PASS  criterion 2: samelson  [|T| 0.5]",
        "FAIL  criterion 3: hunt  [s=0:99]",
    ]
    assert same_output.verdict_lines("1 passed\n") == []


def test_identical_outputs_have_no_differences():
    outputs = {"a: stdout": b"x\ny\n", "a: exit": b"0", "file w.json": b"{}\n"}
    assert same_output.differences(outputs, dict(outputs)) == []


def test_differences_name_the_output_and_diff_its_lines():
    parent = {"a: stdout": b"x\ny\nz\n", "a: exit": b"0", "gone": b""}
    change = {"a: stdout": b"x\nY\nz\n", "a: exit": b"0", "new": b"1"}
    assert same_output.differences(parent, change) == [
        "differs: a: stdout", "--- parent", "+++ change", "@@ -1,3 +1,3 @@", " x", "-y", "+Y",
        " z", "only in parent: gone", "only in change: new"]


def test_a_difference_in_bytes_alone_is_reported():
    # the lines agree, the trailing newline does not
    assert same_output.differences({"a": b"x\n"}, {"a": b"x"}) == ["differs: a"]


def search_report(*rows):
    """A search's stdout: its CSV rows of (stop reason, classification), then the counts."""
    lines = ["restart,seed_used,iterations,stop_reason,final_jacobi,final_flatness,"
             "torsion_norm,classification,rho"]
    lines += [f"{i},{i + 3},{10 + i},{stop},1e-11,1e-11,0.5,{cls},0.1"
              for i, (stop, cls) in enumerate(rows)]
    lines += [f"{cls}: {sum(c == cls for _, c in rows)}"
              for cls in ("converged_kahler", "converged_nonkahler", "not_converged")]
    return "".join(f"{line}\n" for line in lines).encode()


def test_a_differing_search_report_shows_both_sides_verdicts():
    found, stuck = ("tol", "converged_nonkahler"), ("stagnation", "not_converged")
    parent = {"search --n 2: stdout": search_report(found, stuck, found)}
    change = {"search --n 2: stdout": search_report(found, ("max_iters", "not_converged"),
                                                    ("tol", "converged_kahler"))}
    lines = same_output.differences(parent, change)
    assert lines[:4] == [
        "differs: search --n 2: stdout",
        "  parent classifications converged_nonkahler 2, not_converged 1; "
        "stop reasons stagnation 1, tol 2",
        "  change classifications converged_kahler 1, converged_nonkahler 1, not_converged 1; "
        "stop reasons max_iters 1, tol 2",
        "--- parent"]
    # other outputs, and a search report against something else, show no verdicts
    assert same_output.search_verdicts(b"x\ny\n") is None
    lines = same_output.differences({"a": parent["search --n 2: stdout"]}, {"a": b"error\n"})
    assert lines[:2] == ["differs: a", "--- parent"]


def test_long_diffs_are_cut():
    parent = {"a": "".join(f"{i}\n" for i in range(100)).encode()}
    change = {"a": "".join(f"{i}.0\n" for i in range(100)).encode()}
    lines = same_output.differences(parent, change)
    assert lines[0] == "differs: a" and len(lines) == 1 + same_output.DIFF_LINES


def test_every_extra_command_parses():
    parser = _build_parser()
    for argv in same_output.EXTRA_COMMANDS:
        assert parser.parse_args(argv).command == argv[0]
