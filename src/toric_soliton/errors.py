"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class ToricSolitonError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInputError(ToricSolitonError):
    """Input document violates the polytope schema."""


class NonPrimitiveNormalError(MalformedInputError):
    """A facet normal has a common factor (gcd of entries != 1)."""


class UnboundedPolytopeError(ToricSolitonError):
    """The facet inequalities describe an unbounded region."""


class EmptyInteriorError(ToricSolitonError):
    """The facet inequalities have empty interior."""


class DegenerateVertexError(ToricSolitonError):
    """More than n facets meet at a vertex (polytope is not simple)."""


class RedundantFacetError(ToricSolitonError):
    """A facet does not support a codimension-one face."""


class NotFanoError(ToricSolitonError):
    """No privileged center: facet functions admit no common positive value."""


class UnboundedRootRegionError(ToricSolitonError):
    """A facet's root inequalities cut out an unbounded region."""


class NonConvergenceError(ToricSolitonError):
    """The soliton-vector Newton iteration failed to converge."""


class BoundaryEvaluationError(ToricSolitonError):
    """Potential or operator evaluated at a non-interior point."""


class LossOfConvexityError(ToricSolitonError):
    """A potential's Hessian G, or its inverse H, is not positive definite at a point."""


class UnsupportedDimensionError(ToricSolitonError):
    """Operation only implemented for 2-dimensional polytopes."""
