"""Exception types shared across the package."""

from __future__ import annotations


class HeislabError(Exception):
    """Base class for package-specific failures."""


class DimensionMismatchError(HeislabError, ValueError):
    """Operands live on incompatible groups, grids, or axes."""


class QuadratureTailError(HeislabError, ValueError):
    """An integrand does not decay below the tail guard at the quadrature window edge."""


class StructureMismatchError(HeislabError, RuntimeError):
    """Eigenvalue clusters do not form an (approximately) equally spaced ladder."""


class EigensolverError(HeislabError, RuntimeError):
    """An eigensolve missed its residual bound, its pair count or its inertia certificate."""


class NoConventionFoundError(HeislabError, RuntimeError):
    """No (scaling, angular sign) combination produced an acceptable eigen-residual."""
