"""Numerical laboratory for left-invariant Hermitian structures.

From structure constants in a unitary (1,0)-frame the package computes
Chern torsion, the one-parameter family of canonical Hermitian
connections, curvature and the identities satisfied in the flat case;
converts real Lie algebra presentations to unitary frames and back;
ships the classical flat examples; and searches structure-constant
space for flat structures with a deterministic multistart
Levenberg-Marquardt solver.
"""

from .core import (
    ConnectionFamily,
    CurvatureReport,
    FlatnessSummary,
    LeviCivitaReport,
    ResidualReport,
    TorsionData,
    UnitaryStructure,
    bracket_tables,
    chern_torsion,
    covariant_torsion_derivatives,
    curvature,
    gauduchon_connection,
    is_valid,
    kahler_flatness_summary,
    levi_civita,
    unitary_change,
    validate_structure,
)
from .realform import (
    RealPresentation,
    adapted_unitary_frame,
    from_unitary_structure,
    to_unitary_structure,
    validate_real,
)
from .catalog import (
    BdfSpec,
    abelian,
    affine_complex_group,
    bdf_flat_kahler_4d,
    bdf_general,
    complex_group,
    perturb,
    samelson_su2_r,
)
from .theorems import (
    DescentResult,
    ObstructionReport,
    SurfaceDerivativeTable,
    TorsionIdentitySuite,
    TorsionOperator,
    common_kernel,
    flat_torsion_identities,
    half_flat_trace,
    parallel_frame_reduction,
    surface_derivative_table,
    surface_obstruction,
    torsion_descent,
    torsion_operator,
)
from .search import (
    SearchProblem,
    SearchResult,
    MultistartSummary,
    jacobian,
    lm_minimize,
    multistart_search,
    residual_vector,
)
from .structio import emit_report, emit_structure, parse_structure

__version__ = "0.1.0"
