"""Left-invariant vector fields and sub-Laplacians as finite-difference operators.

Two frames are in circulation for the generating horizontal fields, and both
are kept behind :class:`FieldConvention`:

* ``H3`` -- three coordinates ``(y_1, y_2, tau)``::

      X = d/dy_1 - 2 y_2 d/dtau,   Y = d/dy_2 + 2 y_1 d/dtau,   [X, Y] = T = 4 d/dtau

* ``HN`` -- coordinates ``(x_1..x_n, y_1..y_n, t)``::

      X_j = d/dx_j + 2 y_j d/dt,   Y_j = d/dy_j - 2 x_j d/dt,   [X_j, Y_k] = -4 delta_jk d/dt

The sub-Laplacian carries the positive-operator sign ``L = -sum(X_j^2 + Y_j^2)``,
so ``-L = div_H D_H``.

Discretization: central second-order differences on a :class:`~heislab.grid.BoxGrid`
with zero (Dirichlet) ghost values.  Every operator also accepts a
:class:`~heislab.polyfield.PolyField`, in which case derivatives are exact.

The principal symbol of ``L`` on H3 is

      sigma(y; xi, eta, gamma) = (xi - 2 y_2 gamma)^2 + (eta + 2 y_1 gamma)^2,

which vanishes on the covector ``(2 y_2 gamma, -2 y_1 gamma, gamma)`` at every
point: the operator is nowhere elliptic, yet hypoelliptic by the bracket
condition above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import DimensionMismatchError
from .geometry import HeisPoint
from .grid import BoxGrid, HorizontalVectorField, ScalarField
from .polyfield import PolyField

__all__ = [
    "FieldConvention",
    "H3",
    "HN",
    "apply_X",
    "apply_Y",
    "apply_T",
    "commutator_check",
    "horizontal_gradient",
    "horizontal_divergence",
    "sublaplacian",
    "sublaplacian_expanded",
    "twisted_laplacian",
    "p_sublaplacian",
    "symbol_L",
    "null_covector",
]


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def first_diff(values: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Central first difference (u[i+1] - u[i-1]) / (2 h), O(h^2), zero ghost values.

    Written into ``out`` (C-contiguous, shaped like ``values``, not ``values``
    itself), or into one fresh array: a slice difference over the flat C-order
    array at the axis stride (contiguous on every axis), then the axis ends,
    which it got wrong, as u[1] - 0.0 and 0.0 - u[-2].
    """
    v = np.ascontiguousarray(values)
    out, s = np.empty_like(v) if out is None else out, v.strides[axis] // v.itemsize
    if not out.flags.c_contiguous:
        raise ValueError("first_diff writes into C-contiguous arrays only")
    np.subtract(v.ravel()[2 * s:], v.ravel()[:-2 * s], out=out.ravel()[s:-s])
    lead = (slice(None),) * (axis % v.ndim)
    np.subtract(v[lead + (1,)], 0.0, out=out[lead + (0,)])
    np.subtract(0.0, v[lead + (-2,)], out=out[lead + (-1,)])
    out /= 2.0 * h
    return out


def second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Direct central second difference ((u[i+1] - 2 u[i]) + u[i-1]) / h^2, O(h^2), zero ghosts.

    One fresh array, holding 2 u first; the ends are (u[1] - 2 u[0]) + 0.0 and
    (0.0 - 2 u[-1]) + u[-2].
    """
    out = np.multiply(values, 2.0)
    lead = (slice(None),) * (axis % out.ndim)
    mid, first, last = lead + (slice(1, -1),), lead + (0,), lead + (-1,)
    np.subtract(values[lead + (slice(2, None),)], out[mid], out=out[mid])
    out[mid] += values[lead + (slice(None, -2),)]
    np.subtract(values[lead + (1,)], out[first], out=out[first])
    out[first] += 0.0
    np.subtract(0.0, out[last], out=out[last])
    out[last] += values[lead + (-2,)]
    out /= h * h
    return out


# ---------------------------------------------------------------------------
# conventions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldConvention:
    """Frame selector for the generating horizontal fields.

    ``pair(j, n)`` returns ``(a, b, sx, sy)`` meaning::

        X_j = D_a + 2 * sx * coord_b * D_t        (D = first difference along an axis)
        Y_j = D_b + 2 * sy * coord_a * D_t

    and ``commutator_sign`` is the sign in ``[X_j, Y_j] = sign * T``.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in ("hn", "h3"):
            raise ValueError(f"unknown convention {self.name!r}")

    @property
    def commutator_sign(self) -> float:
        return 1.0 if self.name == "h3" else -1.0

    @property
    def t_scale(self) -> float:
        """T = t_scale * d/dt."""
        return 4.0

    def n_of(self, ndim: int) -> int:
        if ndim < 3 or ndim % 2 == 0:
            raise DimensionMismatchError(f"group fields need odd ndim >= 3, got {ndim}")
        n = (ndim - 1) // 2
        if self.name == "h3" and n != 1:
            raise DimensionMismatchError("the h3 frame is defined on 3 coordinates only")
        return n

    def pair(self, j: int, n: int) -> tuple[int, int, float, float]:
        if not 0 <= j < n:
            raise DimensionMismatchError(f"field index {j} out of range for n={n}")
        if self.name == "h3":
            return 0, 1, -1.0, 1.0
        return j, n + j, 1.0, -1.0

    def t_axis(self, ndim: int) -> int:
        return ndim - 1


HN = FieldConvention("hn")
H3 = FieldConvention("h3")


# ---------------------------------------------------------------------------
# first-order fields (grid + polynomial modes)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _coeff_mesh(grid: BoxGrid, axis: int, coeff: float) -> np.ndarray:
    """coeff * grid.axis_mesh(axis), built once per (grid, axis, coefficient)."""
    mesh = coeff * grid.axis_mesh(axis)
    mesh.setflags(write=False)
    return mesh


def _n_of(u, conv: FieldConvention) -> int:
    return conv.n_of(u.nvars if isinstance(u, PolyField) else u.ndim)


def _vals(f):
    """A PolyField itself, or a grid field's values."""
    return f if isinstance(f, PolyField) else f.values


def _like(u, vals):
    """vals as the same kind of field as u."""
    return vals if isinstance(u, PolyField) else u._new(vals)


def _t_diff(u, conv: FieldConvention, out=None):
    if isinstance(u, PolyField):
        return u.diff(u.nvars - 1)
    tax = conv.t_axis(u.ndim)
    return first_diff(u.values, tax, u.grid.spacing[tax], out)


def _terms(conv: FieldConvention, n: int) -> list[tuple[int, int, float]]:
    """:func:`_first_order`'s (axis, coeff_axis, coeff) for X_1 .. X_n, Y_1 .. Y_n."""
    pairs = [conv.pair(j, n) for j in range(n)]
    return [(a, b, 2.0 * sx) for a, b, sx, _ in pairs] + [(b, a, 2.0 * sy) for a, b, _, sy in pairs]


def _first_order(u, axis: int, coeff_axis: int, coeff: float, conv: FieldConvention, dt=None,
                 spend=False, out=None, scratch=None):
    """D_axis u + coeff * coord_{coeff_axis} * D_t u, in ``out``; ``dt`` is D_t u if in hand, else
    made in ``scratch``.  The D_t term is formed in ``dt`` if that was made here or handed over
    with ``spend``, else in ``scratch``; fresh arrays stand in for those not given."""
    if isinstance(u, PolyField):
        return u.diff(axis) + coeff * PolyField.variable(coeff_axis, u.nvars) * _t_diff(u, conv)
    if dt is None:
        dt, spend = _t_diff(u, conv, scratch), True
    vals = first_diff(u.values, axis, u.grid.spacing[axis], out)
    vals += np.multiply(_coeff_mesh(u.grid, coeff_axis, coeff), dt, out=dt if spend else scratch)
    return u._new(vals)


def apply_X(j: int, u, conv: FieldConvention = HN):
    """Apply the horizontal field X_j (zero-based j)."""
    a, b, sx, _ = conv.pair(j, _n_of(u, conv))
    return _first_order(u, a, b, 2.0 * sx, conv)


def apply_Y(j: int, u, conv: FieldConvention = HN):
    """Apply the horizontal field Y_j (zero-based j)."""
    a, b, _, sy = conv.pair(j, _n_of(u, conv))
    return _first_order(u, b, a, 2.0 * sy, conv)


def apply_T(u, conv: FieldConvention = HN):
    """Apply the central field T = 4 d/dt."""
    _n_of(u, conv)
    return _like(u, conv.t_scale * _t_diff(u, conv))


def commutator_check(j: int, k: int, u, conv: FieldConvention = HN) -> float:
    """Max deviation of ([X_j, Y_k] - expected) u; exact (up to rounding) for polynomials.

    Expected: ``commutator_sign * T`` for j == k, zero otherwise.
    """
    xu = apply_X(j, apply_Y(k, u, conv), conv)
    yu = apply_Y(k, apply_X(j, u, conv), conv)
    dev = _vals(xu) - _vals(yu)
    if j == k:
        dev = dev - conv.commutator_sign * _vals(apply_T(u, conv))
    return dev.max_abs_on_lattice() if isinstance(u, PolyField) else float(np.max(np.abs(dev)))


# ---------------------------------------------------------------------------
# gradient / divergence / sub-Laplacians
# ---------------------------------------------------------------------------


def horizontal_gradient(u, conv: FieldConvention = HN, out=None, scratch=None):
    """D_H u = (X_1 u, ..., X_n u, Y_1 u, ..., Y_n u); on a grid, into ``out``, 2n C-contiguous
    arrays whose last holds each earlier D_t term until it is formed, with D_t u in ``scratch``,
    or bitwise the same on fresh arrays."""
    terms = _terms(conv, _n_of(u, conv))
    if isinstance(u, PolyField):
        return tuple(_first_order(u, *term, conv) for term in terms)
    out = [None] * len(terms) if out is None else out
    dt, last = _t_diff(u, conv, scratch), len(terms) - 1
    return HorizontalVectorField(tuple(
        _first_order(u, *term, conv, dt, k == last, out[k], out[last]) for k, term in enumerate(terms)
    ))


def horizontal_divergence(F, conv: FieldConvention = HN, out=None, scratch=None):
    """div_H F = sum_j (X_j F_j + Y_j F_{n+j}) for a 2n-component field; on a grid, into
    ``out`` with ``scratch``, two arrays, for each later term and its D_t, or bitwise the
    same on fresh arrays."""
    poly = isinstance(F, (tuple, list)) and F and isinstance(F[0], PolyField)
    if not poly and not isinstance(F, HorizontalVectorField):
        raise DimensionMismatchError("expected a HorizontalVectorField or tuple of PolyField")
    comps = tuple(F) if poly else F.components
    terms = _terms(conv, _n_of(comps[0], conv))
    if len(comps) != len(terms):
        raise DimensionMismatchError(f"div_H takes {len(terms)} components here, got {len(comps)}")
    term, dt = (None, None) if scratch is None else scratch
    acc = _vals(_first_order(comps[0], *terms[0], conv, out=out, scratch=dt))
    for c, t in zip(comps[1:], terms[1:]):
        acc += _vals(_first_order(c, *t, conv, out=term, scratch=dt))
    return acc if poly else ScalarField(F.grid, acc)


def sublaplacian(u, conv: FieldConvention = HN):
    """Sub-Laplacian L = -sum(X_j^2 + Y_j^2) (nonnegative quadratic form) by
    composing the first-order stencils."""
    acc = None
    for j in range(_n_of(u, conv)):
        xx = _vals(apply_X(j, apply_X(j, u, conv), conv))
        yy = _vals(apply_Y(j, apply_Y(j, u, conv), conv))
        acc = xx + yy if acc is None else acc + xx + yy
    return _like(u, -1.0 * acc)


def sublaplacian_expanded(u: ScalarField, conv: FieldConvention = HN) -> ScalarField:
    """Sub-Laplacian from the expanded formula with direct second-difference stencils.

    For H3 this is
    ``-Delta - 4 (y_1^2 + y_2^2) d^2/dtau^2 + 4 (y_2 d/dy_1 - y_1 d/dy_2) d/dtau``;
    for HN the analogous 2n+1 dimensional expansion.  It matches
    :func:`sublaplacian` to O(h^2) (different stencils for the pure second
    derivatives), which is exactly what the operator-identity checks measure.
    """
    if isinstance(u, PolyField):
        raise DimensionMismatchError("expanded form is a grid discretization; use sublaplacian()")
    n = conv.n_of(u.ndim)
    g = u.grid
    tax = conv.t_axis(g.ndim)
    ht = g.spacing[tax]
    dt_u = first_diff(u.values, tax, ht)
    dtt_u = second_diff(u.values, tax, ht)

    acc = np.zeros_like(u.values)
    z2 = np.zeros((), dtype=float)
    for j in range(n):
        a, b, sx, sy = conv.pair(j, n)
        acc = acc + second_diff(u.values, a, g.spacing[a])
        acc = acc + second_diff(u.values, b, g.spacing[b])
        ca = g.axis_mesh(a)
        cb = g.axis_mesh(b)
        z2 = z2 + ca * ca + cb * cb
        acc = acc + 4.0 * (
            sx * cb * first_diff(dt_u, a, g.spacing[a])
            + sy * ca * first_diff(dt_u, b, g.spacing[b])
        )
    acc = acc + 4.0 * z2 * dtt_u
    return u._new(-1.0 * acc)


# ---------------------------------------------------------------------------
# twisted Laplacian and p-sub-Laplacian
# ---------------------------------------------------------------------------


def twisted_laplacian(u: ScalarField, tau: float, angular_sign: int = 1) -> ScalarField:
    """Planar twisted Laplacian at vertical frequency tau:

        L_tau u = -Delta u + 4 |y|^2 tau^2 u + angular_sign * 4 i tau (y_1 d/dy_2 - y_2 d/dy_1) u

    on a 2-d grid with coordinates (y_1, y_2).
    """
    if tau == 0:
        raise ValueError("twisted Laplacian needs tau != 0")
    if angular_sign not in (1, -1):
        raise ValueError("angular_sign must be +1 or -1")
    if u.ndim != 2:
        raise DimensionMismatchError("twisted Laplacian acts on 2-d fields")
    if not u.is_complex:
        raise DimensionMismatchError(
            "twisted_laplacian produces complex values; store the field as complex128 "
            "(real-only storage rejected)"
        )
    g = u.grid
    y1 = g.axis_mesh(0)
    y2 = g.axis_mesh(1)
    lap = second_diff(u.values, 0, g.spacing[0]) + second_diff(u.values, 1, g.spacing[1])
    pot = 4.0 * tau * tau * (y1 * y1 + y2 * y2) * u.values
    ang = (
        4j
        * tau
        * angular_sign
        * (y1 * first_diff(u.values, 1, g.spacing[1]) - y2 * first_diff(u.values, 0, g.spacing[0]))
    )
    return u._new(-lap + pot + ang)


def p_sublaplacian(u, p: float, conv: FieldConvention = HN):
    """Delta_{H,p} u = div_H(|D_H u|^{p-2} D_H u).

    The flux |D_H u|^{p-2} D_H u is taken as 0 where D_H u = 0, its limit
    there for every p > 1.
    """
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if isinstance(u, PolyField):
        if p != 4:
            raise DimensionMismatchError(
                "polynomial mode supports the p = 4 case only (integer weight power)"
            )
        grad = horizontal_gradient(u, conv)
        w = grad[0] * grad[0]
        for comp in grad[1:]:
            w = w + comp * comp
        weighted = tuple(w * c for c in grad)
        return horizontal_divergence(weighted, conv)
    return _p_flux_divergence(horizontal_gradient(u, conv), p, conv)


def _p_flux_divergence(grad, p: float, conv: FieldConvention, out=None, scratch=None):
    """div_H(|G|^{p-2} G) for G = D_H u on the grid: Delta_{H,p} u from a gradient in hand.

    The weight |G|^{p-2} is 0 where |G|^2 = 0, so the flux is 0 there, its
    limit for every p > 1; below p = 2 the power alone would read inf.  At
    p = 2 the weight is 1.0 exactly and is skipped.  ``out`` and ``scratch``
    go to :func:`horizontal_divergence`.
    """
    if p == 2:
        return horizontal_divergence(grad, conv, out, scratch)
    norm2 = np.zeros(grad.grid.counts, dtype=float)
    for c in grad.components:
        norm2 += np.abs(c.values) ** 2
    with np.errstate(divide="ignore"):
        weight = norm2 ** ((p - 2.0) / 2.0)
    weight[norm2 == 0.0] = 0.0
    weighted = HorizontalVectorField(
        tuple(ScalarField(grad.grid, weight * c.values) for c in grad.components)
    )
    return horizontal_divergence(weighted, conv, out, scratch)


# ---------------------------------------------------------------------------
# principal symbol
# ---------------------------------------------------------------------------


def _h3_coords(pt: HeisPoint) -> tuple[float, float]:
    if pt.n != 1 or pt.batch_shape != ():
        raise DimensionMismatchError("symbol helpers take a single H_1 point")
    return float(pt.x[0]), float(pt.y[0])


def symbol_L(pt: HeisPoint, covector) -> float:
    """Principal symbol of L at an H_1 point ((y_1, y_2, tau) frame).

    covector = (xi, eta, gamma) dual to (y_1, y_2, tau).
    """
    y1, y2 = _h3_coords(pt)
    xi, eta, gamma = (float(c) for c in covector)
    a = xi - 2.0 * y2 * gamma
    b = eta + 2.0 * y1 * gamma
    return a * a + b * b


def null_covector(pt: HeisPoint, gamma: float = 1.0) -> tuple[float, float, float]:
    """A covector with vanishing symbol at pt: (2 y_2 gamma, -2 y_1 gamma, gamma)."""
    y1, y2 = _h3_coords(pt)
    return (2.0 * y2 * gamma, -2.0 * y1 * gamma, gamma)
