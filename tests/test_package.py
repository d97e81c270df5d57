"""The package namespace: its exported names and the modules each command loads."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hermlie
from hermlie import structio

EXPORTS = {
    "core": (
        "FlatnessSummary", "ResidualReport", "UnitaryStructure",
        "bracket_tables", "chern_torsion", "covariant_torsion_derivatives", "curvature",
        "gauduchon_connection", "kahler_flatness_summary", "validate_structure",
    ),
    "realform": ("RealPresentation", "adapted_unitary_frame", "to_unitary_structure"),
    "catalog": (
        "BdfSpec", "abelian", "affine_complex_group", "bdf_flat_kahler_4d", "bdf_general",
        "complex_group", "perturb", "samelson_su2_r",
    ),
    "theorems": (
        "ObstructionReport", "flat_torsion_identities", "parallel_frame_reduction",
        "surface_obstruction", "torsion_descent",
    ),
    "search": (
        "SearchProblem", "SearchResult", "MultistartSummary", "jacobian", "lm_minimize",
        "multistart_search",
    ),
    "structio": ("emit_report", "emit_structure", "parse_structure"),
}
PACKAGE = Path(hermlie.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_exports_the_same_names():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 35
    assert sorted(hermlie.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_owners_object(module):
    owner = importlib.import_module(f"hermlie.{module}")
    for name in EXPORTS[module]:
        assert getattr(hermlie, name) is getattr(owner, name), name


def test_every_export_is_read_by_the_package_or_perfbench():
    # a name no module and no benchmark script reads is dead public API
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"] + [*PERFBENCH.glob("*.py")]
    lines = [line for p in files for line in p.read_text().splitlines()]

    def read(name):
        own = re.compile(rf"\s*(def|class) {name}\b")
        return any(re.search(rf"\b{name}\b", line) and not own.match(line) for line in lines)

    assert [name for name in hermlie.__all__ if not read(name)] == []


def test_readme_library_tour_runs():
    readme = (PACKAGE.parent.parent / "README.md").read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(tour, "README.md library tour", "exec"), {})


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(hermlie, "no_such_name")
    assert not hasattr(hermlie, "_no_such_module")


# A child process imports the package, then runs one command; it prints the
# hermlie submodules loaded after each step as the last line of its output.
CHILD = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.startswith("hermlie."))
import hermlie
bare = loaded()
from hermlie import cli
code = cli.main(sys.argv[1:])
print(json.dumps([bare, loaded(), code]))
"""
HEAVY = {"hermlie.search", "hermlie.theorems"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["catalog", "abelian", "--n", "1"], HEAVY | {"hermlie.realform"}),
        (["validate", "{file}"], HEAVY | {"hermlie.realform", "hermlie.catalog"}),
        (["analyze", "{file}", "--s-grid", "0,1"], HEAVY | {"hermlie.realform", "hermlie.catalog"}),
    ],
    ids=["catalog", "validate", "analyze"],
)
def test_command_loads_only_what_it_runs(argv, absent, tmp_path):
    path = tmp_path / "s.json"
    path.write_bytes(structio.emit_structure(hermlie.abelian(2)))
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [arg.replace("{file}", str(path)) for arg in argv]
    out = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, capture_output=True,
                         text=True, check=True).stdout
    bare, loaded, code = json.loads(out.splitlines()[-1])
    assert bare == []
    assert code == 0
    assert "hermlie.core" in loaded
    assert not absent & set(loaded), sorted(absent & set(loaded))
