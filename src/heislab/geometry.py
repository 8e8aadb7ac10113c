"""Closed-form geometry of the Heisenberg group H_n.

Points carry coordinates ``(x, y, t)`` with ``x, y`` in R^n and ``t`` in R.
The (non-commutative) group law implemented here is

    (x, y, t) o (x', y', t') = (x + x', y + y', t + t' + 2 * sum_i (y_i x'_i - x_i y'_i)),

with identity 0 and inverse ``-(x, y, t)``.  The homogeneous structure comes
from the anisotropic dilations ``delta_s(z, t) = (s z, s^2 t)`` and the gauge

    r(z, t) = (|z|^4 + t^2)^(1/4),

which together give the homogeneous dimension Q = 2n + 2.

The three-coordinate variant used by low-dimensional operator work labels the
coordinates ``(y_1, y_2, tau)``; it maps onto ``n = 1`` points here via
``y_1 <-> x_1``, ``y_2 <-> y_1``, ``tau <-> t``.  See ``operators.FieldConvention``.

All operations are vectorized: ``x``/``y`` may carry leading batch axes
(shape ``(..., n)``) with ``t`` of shape ``(...)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DimensionMismatchError

__all__ = [
    "HeisPoint",
    "group_mul",
    "group_inv",
    "koranyi_norm",
    "koranyi_dist",
    "dilate",
]


@dataclass(frozen=True)
class HeisPoint:
    """A (batch of) point(s) of H_n.

    Attributes
    ----------
    x, y : arrays of shape (..., n)
    t    : array of shape (...)
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        t = np.asarray(self.t, dtype=float)
        if x.shape != y.shape:
            raise DimensionMismatchError(f"x and y shapes differ: {x.shape} vs {y.shape}")
        if x.shape[:-1] != t.shape:
            # allow scalar t with a single point
            try:
                t = np.broadcast_to(t, x.shape[:-1]).copy()
            except ValueError as exc:
                raise DimensionMismatchError(
                    f"t shape {t.shape} incompatible with batch shape {x.shape[:-1]}"
                ) from exc
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return self.x.shape[-1]

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.x.shape[:-1]

    @classmethod
    def origin(cls, n: int, batch_shape: tuple[int, ...] = ()) -> "HeisPoint":
        shape = tuple(batch_shape) + (n,)
        return cls(np.zeros(shape), np.zeros(shape), np.zeros(batch_shape))

    @classmethod
    def from_coords(cls, coords) -> "HeisPoint":
        """Build a single point from a flat (2n+1)-vector ``(x_1..x_n, y_1..y_n, t)``."""
        c = np.asarray(coords, dtype=float).ravel()
        if c.size % 2 == 0 or c.size < 3:
            raise DimensionMismatchError(
                f"flat coordinates must have odd length 2n+1 >= 3, got {c.size}"
            )
        n = (c.size - 1) // 2
        return cls(c[:n], c[n : 2 * n], float(c[2 * n]))

    def coords(self) -> np.ndarray:
        """Flat coordinates, inverse of :meth:`from_coords` (single point only)."""
        if self.batch_shape != ():
            raise DimensionMismatchError("coords() is defined for a single point")
        return np.concatenate([self.x, self.y, [self.t[()]] if self.t.ndim == 0 else self.t])

    def z_abs2(self) -> np.ndarray:
        """|z|^2 = sum_i (x_i^2 + y_i^2)."""
        return np.sum(self.x * self.x + self.y * self.y, axis=-1)


def _check_same_group(a: HeisPoint, b: HeisPoint) -> None:
    if a.n != b.n:
        raise DimensionMismatchError(f"points live on H_{a.n} and H_{b.n}")


def group_mul(a: HeisPoint, b: HeisPoint) -> HeisPoint:
    """Group product a o b (non-commutative for n >= 1)."""
    _check_same_group(a, b)
    twist = 2.0 * np.sum(a.y * b.x - a.x * b.y, axis=-1)
    return HeisPoint(a.x + b.x, a.y + b.y, a.t + b.t + twist)


def group_inv(a: HeisPoint) -> HeisPoint:
    """Group inverse; coordinatewise negation, since a o (-a) = 0."""
    return HeisPoint(-a.x, -a.y, -a.t)


def koranyi_norm(a: HeisPoint) -> np.ndarray:
    """Gauge r(z, t) = (|z|^4 + t^2)^(1/4); homogeneous of degree 1 under dilations."""
    z2 = a.z_abs2()
    return (z2 * z2 + a.t * a.t) ** 0.25


def koranyi_dist(a: HeisPoint, b: HeisPoint) -> np.ndarray:
    """Left-invariant gauge distance d(a, b) = r(a^{-1} o b)."""
    _check_same_group(a, b)
    return koranyi_norm(group_mul(group_inv(a), b))


def dilate(s: float, a: HeisPoint) -> HeisPoint:
    """Anisotropic dilation delta_s(z, t) = (s z, s^2 t), s > 0."""
    if not np.isscalar(s) or not s > 0:
        raise ValueError(f"dilation parameter must be a positive scalar, got {s!r}")
    s = float(s)
    return HeisPoint(s * a.x, s * a.y, (s * s) * a.t)
