"""Numerical laboratory for left-invariant Hermitian structures.

From structure constants in a unitary (1,0)-frame the package computes
Chern torsion, the one-parameter family of canonical Hermitian
connections, curvature and the identities satisfied in the flat case;
converts real Lie algebra presentations to unitary frames and back;
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
        "ConnectionFamily", "CurvatureReport", "FlatnessSummary", "LeviCivitaReport",
        "ResidualReport", "TorsionData", "UnitaryStructure", "bracket_tables", "chern_torsion",
        "covariant_torsion_derivatives", "curvature", "gauduchon_connection", "is_valid",
        "kahler_flatness_summary", "levi_civita", "unitary_change", "validate_structure",
    ),
    "realform": (
        "RealPresentation", "adapted_unitary_frame", "from_unitary_structure",
        "to_unitary_structure", "validate_real",
    ),
    "catalog": (
        "BdfSpec", "abelian", "affine_complex_group", "bdf_flat_kahler_4d", "bdf_general",
        "complex_group", "perturb", "samelson_su2_r",
    ),
    "theorems": (
        "DescentResult", "ObstructionReport", "SurfaceDerivativeTable", "TorsionIdentitySuite",
        "common_kernel", "flat_torsion_identities", "half_flat_trace", "parallel_frame_reduction",
        "surface_derivative_table", "surface_obstruction", "torsion_descent", "torsion_operator",
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
