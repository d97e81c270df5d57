"""perfbench finds the functions it times by name; every name it reads must resolve."""

from pathlib import Path

import hermlie.cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import shim

    names = set(shim.targets(hermlie.cli).values())
    wanted = {*run.TIMED, *run.CORE_COUNTED, *run.CORE_PER_N, "search.model_build", "cli.main"}
    assert wanted <= names, sorted(wanted - names)
