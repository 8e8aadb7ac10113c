"""Exception types shared across the package."""

from __future__ import annotations


class HeislabError(Exception):
    """Base class for package-specific failures."""


class DimensionMismatchError(HeislabError, ValueError):
    """Operands live on incompatible groups, grids, or axes."""


class QuadratureTailError(HeislabError, ValueError):
    """An integrand does not decay below the tail guard at the quadrature window edge."""


class SingularGradientError(HeislabError, ValueError):
    """p < 2 with no regularization hit nodes where the horizontal gradient vanishes."""

    def __init__(self, nodes):
        self.nodes = list(nodes)
        preview = ", ".join(str(n) for n in self.nodes[:8])
        more = "" if len(self.nodes) <= 8 else f", ... ({len(self.nodes)} total)"
        super().__init__(
            "singular horizontal gradient at nodes [" + preview + more + "]; "
            "set eps_reg > 0 to regularize"
        )


class StructureMismatchError(HeislabError, RuntimeError):
    """Eigenvalue clusters do not form an (approximately) equally spaced ladder."""


class EigensolverError(HeislabError, RuntimeError):
    """An eigensolve missed its residual bound, its pair count or its inertia certificate."""


class NoConventionFoundError(HeislabError, RuntimeError):
    """No (scaling, angular sign) combination produced an acceptable eigen-residual."""
