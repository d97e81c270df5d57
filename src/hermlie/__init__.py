"""Numerical laboratory for left-invariant Hermitian structures.

From structure constants in a unitary (1,0)-frame the package computes
Chern torsion, the one-parameter family of canonical Hermitian
connections, curvature and the identities satisfied in the flat case;
converts real Lie algebra presentations to unitary frames;
ships the classical flat examples; and searches structure-constant
space for flat structures with a deterministic multistart
Levenberg-Marquardt solver.

Importing the package loads none of its modules.  Each exported name
and each submodule is imported on first access (PEP 562), so a command
line run pays only for the modules it uses.
"""

import importlib

_EXPORTS = {
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
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = tuple(_OWNER)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module that owns an exported name or is the named submodule."""
    owner = _OWNER.get(name)
    if owner is not None:
        value = getattr(importlib.import_module(f".{owner}", __name__), name)
        globals()[name] = value
        return value
    try:
        return importlib.import_module(f".{name}", __name__)
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
