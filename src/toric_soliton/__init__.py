"""Toric Kähler–Ricci soliton diagnostics in action-angle coordinates.

Pipeline: a Delzant polytope (the moment image of a toric Fano surface)
is validated and normalized, its Demazure roots enumerated, the soliton
vector solved from the weighted-moment condition, and the eigenfunction
decomposition of the weighted Laplacian verified numerically against the
closed-form potentials shipped for the projective plane and its one-point
blow-up.

Validation, normalization and root enumeration (``errors``, ``polytope``,
``roots``) are exact lattice work and import eagerly without numpy.  The
other submodules are registered with :class:`importlib.util.LazyLoader`
and execute on first attribute access.  Exported names resolve through the
module ``__getattr__`` (PEP 562), so a command executes only the modules it
calls.  Every module is plain Python on floats: no command imports numpy.

Every record type is a ``typing.NamedTuple``: records are immutable
tuples, copied with ``_replace`` and described by ``_fields``.  Defining
them loads neither ``inspect`` nor ``ast`` and execs no generated
methods, so they add almost nothing to a command's start-up.
"""

import importlib.util
import sys

__version__ = "0.1.0"

from . import errors, polytope, roots

#: every exported name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "BoundaryEvaluationError",
        "DegenerateVertexError",
        "EmptyInteriorError",
        "LossOfConvexityError",
        "MalformedInputError",
        "NonConvergenceError",
        "NonPrimitiveNormalError",
        "NotFanoError",
        "RedundantFacetError",
        "ToricSolitonError",
        "UnboundedPolytopeError",
        "UnboundedRootRegionError",
        "UnsupportedDimensionError",
    ),
    "polytope": (
        "DelzantPolytope",
        "DelzantVerdict",
        "Facet",
        "PrivilegedCenter",
        "blowup_trapezoid",
        "delzant_check",
        "normalize_algebraic",
        "parse_polytope",
        "privileged_center",
    ),
    "roots": (
        "AutomorphismDimensions",
        "DemazureRoot",
        "RootSet",
        "SolitonDecomposition",
        "assemble_decomposition",
        "automorphism_dimensions",
        "enumerate_roots",
    ),
    "quadrature": ("Triangulation", "integrate", "polygon_rule", "triangulate"),
    "futaki": ("SolitonData", "solve_soliton_vector", "weighted_volume"),
    "potentials": (
        "CalabiPotential",
        "GuilleminPotential",
        "QuadraticPotential",
        "Stack",
        "SymplecticPotential",
        "gradient_by_line_integral",
        "guillemin",
    ),
    "calabi": (
        "CalabiSoliton",
        "ode_residual",
        "profile_A",
        "profile_B",
        "solve_a1",
    ),
    "operators": (
        "EquivariantFunction",
        "OperatorContext",
        "complex_weighted_laplacian",
        "finite_difference_oracle",
        "gradients",
        "laplacian",
        "product_rule_defects",
        "ricci_and_lie_components",
        "scalar_curvature",
        "soliton_residuals",
        "weighted_laplacian",
    ),
    "eigenbasis": (
        "RootCheck",
        "RootFunction",
        "affine_block",
        "boundary_product_form",
        "build_root_function",
        "check_root",
    ),
}

#: the submodules that ``roots`` and every rejection leave unexecuted;
#: only ``verify`` executes ``potentials``, ``operators`` and ``eigenbasis``
_LAZY = ("quadrature", "futaki", "potentials", "calabi", "operators", "eigenbasis", "report")


def _register_lazy(name: str):
    """Put ``toric_soliton.<name>`` in ``sys.modules``; it executes on first attribute access."""
    fullname = f"{__name__}.{name}"
    spec = importlib.util.find_spec(fullname)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    loader.exec_module(module)
    return module


for _name in _LAZY:
    globals()[_name] = _register_lazy(_name)
del _name

_OWNER = {attr: module for module, attrs in _EXPORTS.items() for attr in attrs}

__all__ = list(_OWNER)


def __getattr__(name: str):
    owner = _OWNER.get(name)
    if owner is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[owner], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
