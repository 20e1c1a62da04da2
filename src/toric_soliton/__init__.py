"""Toric Kähler–Ricci soliton diagnostics in action-angle coordinates.

Pipeline: a Delzant polytope (the moment image of a toric Fano surface)
is validated and normalized, its Demazure roots enumerated, the soliton
vector solved from the weighted-moment condition, and the eigenfunction
decomposition of the weighted Laplacian verified numerically against the
closed-form potentials shipped for the projective plane and its one-point
blow-up.
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryEvaluationError,
    DegenerateVertexError,
    EmptyInteriorError,
    LossOfConvexityError,
    MalformedInputError,
    NonConvergenceError,
    NonPrimitiveNormalError,
    NotFanoError,
    RedundantFacetError,
    ToricSolitonError,
    UnboundedPolytopeError,
    UnboundedRootRegionError,
    UnsupportedDimensionError,
)
from .polytope import (
    DelzantPolytope,
    DelzantVerdict,
    Facet,
    PrivilegedCenter,
    compute_vertices,
    delzant_check,
    facet_values,
    normalize_algebraic,
    parse_polytope,
    privileged_center,
)
from .roots import (
    AutomorphismDimensions,
    DemazureRoot,
    RootSet,
    automorphism_dimensions,
    enumerate_roots,
    split_semisimple_unipotent,
)
from .quadrature import QuadratureRule, Triangulation, integrate, triangulate
from .futaki import SolitonData, einstein_constant, solve_soliton_vector, weighted_volume
from .potentials import (
    GuilleminPotential,
    PerturbedPotential,
    QuadraticPotential,
    SmoothField,
    Stack,
    SymplecticPotential,
    gradient_by_line_integral,
    guillemin,
    perturbed,
)
from .calabi import (
    CalabiParameters,
    CalabiPotential,
    CalabiSoliton,
    blowup_trapezoid,
    h_matrix,
    ode_residual,
    profile_A,
    profile_B,
    solve_a1,
    to_algebraic_coordinates,
)
from .operators import (
    EquivariantFunction,
    OperatorContext,
    complex_weighted_laplacian,
    finite_difference_oracle,
    gradients,
    laplacian,
    product_rule_defects,
    ricci_and_lie_components,
    scalar_curvature,
    soliton_residuals,
    weighted_laplacian,
)
from .eigenbasis import (
    RootCheck,
    RootFunction,
    SolitonDecomposition,
    affine_block,
    assemble_decomposition,
    boundary_product_form,
    build_root_function,
    check_root,
)
