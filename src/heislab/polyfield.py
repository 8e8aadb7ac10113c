"""Exact polynomial fields.

Vector-field identities (commutators, operator expansions) should be checked
without discretization error.  A :class:`PolyField` stores a polynomial in the
2n+1 group coordinates as a sparse exponent->coefficient map; differentiation
and coordinate multiplication are exact, so applying the left-invariant fields
to a PolyField incurs no truncation at all.

This is intentionally minimal -- no division, no symbolic simplification --
just the ring operations the operator layer needs.
"""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import DimensionMismatchError

__all__ = ["PolyField"]


class PolyField:
    """Polynomial in ``nvars`` real variables with complex coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], complex] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], complex] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars or any(e < 0 for e in expo):
                raise DimensionMismatchError(f"bad exponent tuple {expo} for nvars={nvars}")
            c = complex(coeff)
            if c != 0:
                clean[expo] = clean.get(expo, 0.0) + c
        self.terms = {e: c for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value: complex, nvars: int) -> "PolyField":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, index: int, nvars: int) -> "PolyField":
        if not 0 <= index < nvars:
            raise DimensionMismatchError(f"variable index {index} out of range for nvars={nvars}")
        expo = [0] * nvars
        expo[index] = 1
        return cls(nvars, {tuple(expo): 1.0})

    # -- ring operations ----------------------------------------------------

    def _check(self, other: "PolyField") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomials have different variable counts")

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = PolyField.constant(other, self.nvars)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0.0) + c
        return PolyField(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return PolyField(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, numbers.Number):
            other = PolyField.constant(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return PolyField(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0.0) + c1 * c2
        return PolyField(self.nvars, terms)

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------------

    def diff(self, index: int) -> "PolyField":
        """Exact partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatchError(f"variable index {index} out of range")
        terms: dict[tuple[int, ...], complex] = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            ne = list(e)
            ne[index] = k - 1
            terms[tuple(ne)] = terms.get(tuple(ne), 0.0) + c * k
        return PolyField(self.nvars, terms)

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff_sup(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def evaluate(self, coords) -> np.ndarray:
        """Evaluate on broadcastable coordinate arrays, one per variable."""
        coords = [np.asarray(c) for c in coords]
        if len(coords) != self.nvars:
            raise DimensionMismatchError(
                f"need {self.nvars} coordinate arrays, got {len(coords)}"
            )
        out = None
        for e, c in self.terms.items():
            term = np.asarray(c)
            for arr, k in zip(coords, e):
                if k:
                    term = term * arr**k
            out = term if out is None else out + term
        if out is None:
            shape = np.broadcast_shapes(*(c.shape for c in coords)) if coords else ()
            return np.zeros(shape, dtype=complex)
        return out + np.zeros(np.broadcast_shapes(*(c.shape for c in coords)), dtype=complex)

    def max_abs_on_lattice(self) -> float:
        """Max |p| over the 5-point-per-axis lattice on [-2, 2]^nvars; 0 iff the
        polynomial is identically 0, when no variable reaches degree 5."""
        axes = np.linspace(-2.0, 2.0, 5)
        grids = np.meshgrid(*([axes] * self.nvars), indexing="ij")
        return float(np.max(np.abs(self.evaluate(grids)))) if self.terms else 0.0

    def __repr__(self) -> str:
        inner = " + ".join(f"{c}*{e}" for e, c in sorted(self.terms.items())) or "0"
        return f"PolyField({self.nvars}: {inner})"
