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


def test_long_diffs_are_cut():
    parent = {"a": "".join(f"{i}\n" for i in range(100)).encode()}
    change = {"a": "".join(f"{i}.0\n" for i in range(100)).encode()}
    lines = same_output.differences(parent, change)
    assert lines[0] == "differs: a" and len(lines) == 1 + same_output.DIFF_LINES


def test_every_extra_command_parses():
    parser = _build_parser()
    for argv in same_output.EXTRA_COMMANDS:
        assert parser.parse_args(argv).command == argv[0]
