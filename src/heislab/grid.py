"""Uniform box grids and grid-sampled fields.

A :class:`BoxGrid` covers the closed box ``[lo_i, hi_i]`` with ``counts_i``
nodes per axis, node spacing ``h_i = (hi_i - lo_i) / (counts_i - 1)``.  Counts
are required to be odd so that symmetric boxes place a node at the origin.

Fields carry one complex or real value per node.  Derivative stencils treat
values outside the box as zero (Dirichlet ghost nodes), so fields are expected
to decay near the boundary; the variational layer enforces exact boundary
support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionMismatchError

__all__ = [
    "BoxGrid",
    "ScalarField",
    "HorizontalVectorField",
]


@dataclass(frozen=True)
class BoxGrid:
    """Axis-aligned uniform grid with nodes at both box ends."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(float(v) for v in self.lo)
        hi = tuple(float(v) for v in self.hi)
        counts = tuple(int(c) for c in self.counts)
        if not (len(lo) == len(hi) == len(counts)) or len(lo) == 0:
            raise DimensionMismatchError("lo, hi, counts must share a positive length")
        for a, (lov, hiv, c) in enumerate(zip(lo, hi, counts)):
            if not hiv > lov:
                raise ValueError(f"axis {a}: need hi > lo, got [{lov}, {hiv}]")
            if c < 3:
                raise ValueError(f"axis {a}: need at least 3 nodes, got {c}")
            if c % 2 == 0:
                raise ValueError(
                    f"axis {a}: node count must be odd so symmetric boxes contain the "
                    f"origin as a node, got {c}"
                )
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "counts", counts)

    # -- basic descriptors -------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.counts)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        """Node spacing per axis, computed on first use; not a field, so it
        takes no part in equality and hashing."""
        return tuple(
            (h - l) / (c - 1) for l, h, c in zip(self.lo, self.hi, self.counts)
        )

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one node, prod_i h_i."""
        return float(np.prod(self.spacing))

    def axis(self, a: int) -> np.ndarray:
        """1-d node coordinates along axis ``a``."""
        return np.linspace(self.lo[a], self.hi[a], self.counts[a])

    def axis_mesh(self, a: int) -> np.ndarray:
        """Axis coordinates reshaped to broadcast against full field arrays."""
        shape = [1] * self.ndim
        shape[a] = self.counts[a]
        return self.axis(a).reshape(shape)

    def meshes(self) -> list[np.ndarray]:
        return [self.axis_mesh(a) for a in range(self.ndim)]

    @classmethod
    def cube(cls, half_width: float, count: int, ndim: int) -> "BoxGrid":
        """Symmetric cube [-half_width, half_width]^ndim with ``count`` nodes per axis."""
        return cls((-half_width,) * ndim, (half_width,) * ndim, (count,) * ndim)

    def descriptor(self) -> dict:
        return {"lo": list(self.lo), "hi": list(self.hi), "counts": list(self.counts)}


@dataclass(frozen=True)
class ScalarField:
    """One value per grid node; dtype float64 or complex128.

    Operators never write into their inputs' ``values``.  They return new
    fields, or fields over destination arrays that the caller hands them.
    """

    grid: BoxGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.values)
        if v.dtype == np.float64 or v.dtype == np.complex128:
            pass
        elif np.issubdtype(v.dtype, np.complexfloating):
            v = v.astype(np.complex128)
        else:
            v = v.astype(np.float64)
        if v.shape != tuple(self.grid.counts):
            raise DimensionMismatchError(
                f"values shape {v.shape} does not match grid counts {self.grid.counts}"
            )
        object.__setattr__(self, "values", v)

    @property
    def is_complex(self) -> bool:
        return np.issubdtype(self.values.dtype, np.complexfloating)

    @property
    def ndim(self) -> int:
        return self.grid.ndim

    def _new(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)

    # -- norms and inner products -----------------------------------------

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def l2_norm(self) -> float:
        w = self.grid.cell_volume
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * w))


@dataclass(frozen=True)
class HorizontalVectorField:
    """A 2n-tuple of component fields (X_1 u, ..., X_n u, Y_1 u, ..., Y_n u)."""

    components: tuple[ScalarField, ...]

    def __post_init__(self) -> None:
        comps = tuple(self.components)
        if len(comps) == 0 or len(comps) % 2 != 0:
            raise DimensionMismatchError(
                f"horizontal vector fields need an even, positive number of components, "
                f"got {len(comps)}"
            )
        g = comps[0].grid
        for c in comps[1:]:
            if c.grid != g:
                raise DimensionMismatchError("components live on different grids")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components) // 2

    @property
    def grid(self) -> BoxGrid:
        return self.components[0].grid

