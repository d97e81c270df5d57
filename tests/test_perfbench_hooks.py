"""perfbench finds the functions it times by name and checks the output of every command it
runs; every name it reads must resolve and every check must accept the commands' output."""

from pathlib import Path

import pytest

import hermlie.cli
from hermlie.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run

    return run


def test_traced_names_resolve(run):
    import shim

    names = set(shim.targets(hermlie.cli).values())
    wanted = {*run.TIMED, *run.CORE_COUNTED, *run.CORE_PER_N, "search.model_build", "cli.main"}
    assert wanted <= names, sorted(wanted - names)


def output(command, capsys):
    """stdout of the command, which exits as the benchmark expects."""
    assert main(command.args) == command.expect_exit
    return capsys.readouterr().out


@pytest.mark.parametrize("s, hunt", [(0.0, True), (2.0, True), (1.5, False)],
                         ids=["hunt-0", "hunt-2", "plain-1.5"])
def test_search_output_passes_its_check(run, s, hunt, capsys):
    command = run.search_command(2, s, 2, 7, hunt=hunt)
    assert command.check(output(command, capsys)) == []


def test_validate_output_passes_its_check(run, tmp_path, capsys):
    samelson, noisy = str(tmp_path / "samelson.json"), str(tmp_path / "noisy.json")
    main(["catalog", "samelson", "--c", "1", "--emit", samelson])
    main(["catalog", "perturb", "--base", samelson, "--eps", "0.1", "--seed", "7",
          "--emit", noisy])
    capsys.readouterr()
    for path, valid in ((samelson, True), (noisy, False)):
        command = run.validate_command(path, valid)
        assert command.check(output(command, capsys)) == []


@pytest.mark.parametrize("catalog_args, truth", [
    (["samelson", "--c", "1"], "samelson_truth"),
    (["bdf4", "--q", "1.37"], "bdf_truth"),
    (["complex-group", "--n", "3", "--c", "0.8"], "complex_group_truth"),
], ids=["samelson", "bdf4", "complex-group"])
def test_analyze_output_passes_its_check(run, catalog_args, truth, tmp_path, capsys):
    path = str(tmp_path / "structure.json")
    main(["catalog", *catalog_args, "--emit", path])
    capsys.readouterr()
    command = run.analyze_command(path, [0.3, 0.0, -0.7, 2.0, 3.6, 1.0], getattr(run, truth))
    assert command.check(output(command, capsys)) == []


def test_verify_theorems_output_passes_its_check(run, capsys):
    command = run.workload_commands("verify-analyze", 1)[0]
    assert command.args == ["verify-theorems", "--suite", "all"]
    assert command.check(output(command, capsys)) == []
