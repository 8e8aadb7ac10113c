"""Variational toolkit for critical Kirchhoff-type problems on the Heisenberg group.

The energy functional on the truncated (Dirichlet box) horizontal Sobolev
space is

    J(u) = (1/p) * Mprim(T(u)) - lambda * int a(xi) |u|^{r_g} / r_g - (1/p*) int |u|^{p*}

with T(u) = ||D_H u||_p^p + int V |u|^p, Mprim the primitive of the Kirchhoff
coefficient M, and p* = Q p / (Q - p) the critical exponent for the
homogeneous dimension Q = 2n + 2.

Design notes that matter for correctness:

* The discretization lives only in the private class ``_Nodal``, which every
  function below goes through; a conforming (trilinear Q1) discretization
  replaces that class alone.
* The discrete gradient is the *exact* gradient of the discrete energy at
  every p > 1: the quasilinear term is assembled as
  -div_H(|D_H u|^{p-2} D_H u) with the divergence stencil the exact negative
  adjoint of the gradient stencil (zero-fill differences) and the flux 0
  where D_H u = 0, its limit there, so <gradient(u), v> equals the
  directional derivative of energy at machine precision up to the O(eps^2)
  of the probe.
* Every term is odd in u through u times an even factor (or sign(u)|u|^{q-1})
  and even through |u|-powers or products u u, so energy(-u) == energy(u)
  and gradient(-u) == -gradient(u) hold bitwise.
* Fields must vanish identically on the boundary ring (Dirichlet truncation);
  helpers below build such fields.
* The derivative implemented is the Gateaux derivative of the energy itself,
  i.e. the nonlinear term contributes int a |u|^{r_g-2} u v (not an extra
  factor of u).

The mountain-pass solver descends on the ray-peak (Nehari) set from the peak
of the ray through a negative-energy endpoint: each iterate w is rescaled to
the exact maximizer of the scalar profile t -> J(t w), which is built from the
direction's three quadratures (T, F, C).  When every such profile has one
interior maximum, the least ray-peak level is the mountain-pass level
(Szulkin and Weth, "The method of Nehari manifold", Handbook of Nonconvex
Analysis, 2010).  The logged (energy, gradient-norm) sequence is the
Palais-Smale sequence the monitor inspects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .grid import BoxGrid, HorizontalVectorField, ScalarField
from .operators import HN, _p_flux_divergence, horizontal_gradient

__all__ = [
    "KirchhoffM",
    "GrowthNonlinearity",
    "KirchhoffProblem",
    "MPResult",
    "FSResult",
    "validate_exponents",
    "dirichlet_field",
    "random_dirichlet_field",
    "hw_norm",
    "energy",
    "gradient",
    "folland_stein_constant",
    "mp_threshold",
    "ray_scan",
    "mountain_pass_solve",
    "mp_geometry_check",
    "ps_monitor",
]


# ---------------------------------------------------------------------------
# problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KirchhoffM:
    """Kirchhoff coefficient M and its closed-form primitive.

    ``nondegenerate``: M(t) = m0 + b t^(kappa-1) with m0 > 0, b >= 0,
    kappa >= 1 (so inf M = m0 > 0).
    ``degenerate``:    M(t) = m1 t^(kappa-1) with m1 > 0, kappa > 1
    (so M(0) = 0).

    Both satisfy kappa * Mprim(t) >= M(t) * t for t >= 0 (with equality for
    the degenerate family); checked numerically on a log-spaced sample at
    construction.
    """

    kind: str
    m0: float = 0.0
    b: float = 0.0
    m1: float = 0.0
    kappa: float = 1.0

    def __post_init__(self) -> None:
        if self.kind == "nondegenerate":
            if not self.m0 > 0:
                raise ValueError("nondegenerate family needs m0 > 0")
            if self.b < 0:
                raise ValueError("nondegenerate family needs b >= 0")
            if self.kappa < 1:
                raise ValueError("nondegenerate family needs kappa >= 1")
        elif self.kind == "degenerate":
            if not self.m1 > 0:
                raise ValueError("degenerate family needs m1 > 0")
            if not self.kappa > 1:
                raise ValueError("degenerate family needs kappa > 1")
        else:
            raise ValueError(f"unknown Kirchhoff kind {self.kind!r}")
        ts = np.logspace(-6, 6, 25)
        prim = self.kappa * np.array([self.primitive(t) for t in ts])
        mt = np.array([self.m(t) for t in ts]) * ts
        scale = np.maximum(np.abs(prim), np.abs(mt)) + 1.0
        if np.min((prim - mt) / scale) < -1e-12:
            raise ValueError("kappa * Mprim(t) >= M(t) t fails on the sample")

    @classmethod
    def nondegenerate(cls, m0: float, b: float = 0.0, kappa: float = 1.0) -> "KirchhoffM":
        return cls("nondegenerate", m0=float(m0), b=float(b), kappa=float(kappa))

    @classmethod
    def degenerate(cls, m1: float, kappa: float) -> "KirchhoffM":
        return cls("degenerate", m1=float(m1), kappa=float(kappa))

    def m(self, t: float) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("M is defined on [0, infinity)")
        if self.kind == "nondegenerate":
            return self.m0 + self.b * t ** (self.kappa - 1.0)
        return self.m1 * t ** (self.kappa - 1.0)

    def primitive(self, t: float) -> float:
        """Mprim(t) = integral of M from 0 to t, in closed form."""
        t = float(t)
        if t < 0:
            raise ValueError("Mprim is defined on [0, infinity)")
        if self.kind == "nondegenerate":
            return self.m0 * t + self.b * t ** self.kappa / self.kappa
        return self.m1 * t ** self.kappa / self.kappa

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "kappa": self.kappa}
        if self.kind == "nondegenerate":
            out.update(m0=self.m0, b=self.b)
        else:
            out.update(m1=self.m1)
        return out


@dataclass(frozen=True)
class GrowthNonlinearity:
    """Power nonlinearity f(xi, t) = a(xi) |t|^{r_g - 2} t with AR exponent theta.

    ``weight`` is a nonnegative bounded a(xi): a constant or a callable taking
    the grid coordinate meshes.  theta <= r_g is enforced: for the power
    nonlinearity the superlinearity inequality theta * F <= f * t (t > 0)
    holds exactly when theta <= r_g.

    ``big_f`` (a |t|^{r_g} / r_g) is built from |t| and ``f`` from t times
    a |t|^{r_g - 2}, so they are bitwise even and odd; below r_g = 2, where
    that factor is infinite at t = 0, ``f`` takes sign(t) a |t|^{r_g - 1}.
    The powers follow :func:`_abs_power`: at r_g = 3.5, |t|^3 sqrt|t| and
    t |t| sqrt|t|, with no ``pow`` pass.
    """

    r_g: float
    theta: float
    weight: float | Callable = 1.0

    def __post_init__(self) -> None:
        if not self.r_g > 1:
            raise ValueError("growth exponent r_g must exceed 1")
        if not 0 < self.theta <= self.r_g:
            raise ValueError(
                "superlinearity needs 0 < theta <= r_g "
                f"(got theta={self.theta}, r_g={self.r_g})"
            )
        if not callable(self.weight) and float(self.weight) < 0:
            raise ValueError("weight must be nonnegative")

    def weight_values(self, grid: BoxGrid):
        return _profile_values(self.weight, grid, "weight", minimum=0.0)

    def f(self, a, uvals: np.ndarray) -> np.ndarray:
        if self.r_g < 2.0:  # u |u|^{r_g - 2} would be 0 * inf at u = 0
            return a * np.sign(uvals) * _abs_power(np.abs(uvals), self.r_g - 1.0)
        return a * (uvals * _abs_power(np.abs(uvals), self.r_g - 2.0))

    def big_f(self, a, uvals: np.ndarray) -> np.ndarray:
        return a * _abs_power(np.abs(uvals), self.r_g) / self.r_g

    def to_dict(self) -> dict:
        return {
            "r_g": self.r_g,
            "theta": self.theta,
            "weight": "callable" if callable(self.weight) else float(self.weight),
        }


def _abs_power(mag: np.ndarray, r: float) -> np.ndarray:
    """mag ** r for mag >= 0; may overwrite and return ``mag``.

    When 2r is a positive integer the power is formed from products and at
    most one square root (|u|^{3.5} = |u|^3 sqrt|u|), by binary powering:
    each pass costs a fraction of a ``pow`` pass, and each product adds about
    half an ulp of rounding.  Every other r takes the ``pow``.
    """
    twice = 2.0 * r
    if not (twice >= 1.0 and float(twice).is_integer()):
        mag **= r
        return mag
    k, odd = divmod(int(twice), 2)
    acc = mag
    for bit in bin(k)[3:]:  # mag^k, squaring from the leading bit
        acc = acc * acc
        if bit == "1":
            acc *= mag
    if odd:
        root = np.sqrt(mag)
        if k == 0:
            return root
        acc *= root
    return acc


def _profile_values(spec, grid: BoxGrid, name: str, minimum: float | None = None):
    """Evaluate a constant-or-callable coefficient on the grid."""
    if callable(spec):
        vals = np.broadcast_to(np.asarray(spec(*grid.meshes()), dtype=float), grid.counts)
        if minimum is not None and float(np.min(vals)) < minimum:
            raise ValueError(f"{name} drops below its lower bound {minimum} on the grid")
        return np.array(vals)
    v = float(spec)
    if minimum is not None and v < minimum:
        raise ValueError(f"{name} drops below its lower bound {minimum}")
    return v


@dataclass(frozen=True)
class KirchhoffProblem:
    """Critical Kirchhoff problem data on a Dirichlet-truncated box.

    Fields: group size n (Q = 2n + 2), exponent p in (1, Q), parameter
    lambda >= 0, Kirchhoff coefficient, growth nonlinearity, potential
    V >= v0 > 0 (constant or callable on the meshes), and the computational
    grid (2n + 1 dimensional).  p* is computed, never stored.
    """

    n: int
    p: float
    lam: float
    kirchhoff: KirchhoffM
    nonlinearity: GrowthNonlinearity
    grid: BoxGrid
    potential: float | Callable = 1.0
    v0: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if not 1 < self.p < self.Q:
            raise ValueError(f"need 1 < p < Q = {self.Q}, got p = {self.p}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if self.grid.ndim != 2 * self.n + 1:
            raise ValueError(
                f"grid must be {2 * self.n + 1}-dimensional for n = {self.n}"
            )
        if self.v0 is None:
            if callable(self.potential):
                raise ValueError("callable potentials need an explicit lower bound v0")
            object.__setattr__(self, "v0", float(self.potential))
        if not self.v0 > 0:
            raise ValueError("need v0 > 0")
        _profile_values(self.potential, self.grid, "potential", minimum=self.v0 - 1e-12)
        self.nonlinearity.weight_values(self.grid)

    @property
    def Q(self) -> int:
        return 2 * self.n + 2

    @property
    def p_star(self) -> float:
        return self.Q * self.p / (self.Q - self.p)

    def potential_values(self):
        return _profile_values(self.potential, self.grid, "potential", minimum=0.0)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "Q": self.Q,
            "p": self.p,
            "p_star": self.p_star,
            "lambda": self.lam,
            "kirchhoff": self.kirchhoff.to_dict(),
            "nonlinearity": self.nonlinearity.to_dict(),
            "potential": "callable" if callable(self.potential) else float(self.potential),
            "v0": self.v0,
            "grid": self.grid.descriptor(),
            "convention": HN.name,
        }


def validate_exponents(problem: KirchhoffProblem) -> dict:
    """Itemized pass/fail report on the exponent windows (report-only)."""
    p, Q, ps = problem.p, problem.Q, problem.p_star
    kappa = problem.kirchhoff.kappa
    r_g = problem.nonlinearity.r_g
    theta = problem.nonlinearity.theta
    checks = {
        "p_below_Q": p < Q,
        "kappa_window": 1.0 <= kappa < ps / p,
        "growth_window": p * kappa < r_g < ps,
        "ar_window": p * kappa < theta < ps,
        "ar_compatible": theta <= r_g,
    }
    return {
        "checks": checks,
        "all_ok": all(checks.values()),
        "values": {
            "Q": Q,
            "p": p,
            "p_star": ps,
            "p_kappa": p * kappa,
            "kappa": kappa,
            "r_g": r_g,
            "theta": theta,
        },
    }


# ---------------------------------------------------------------------------
# admissible fields
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _boundary_mask(counts: tuple) -> np.ndarray:
    mask = np.zeros(counts, dtype=bool)
    for ax in range(len(counts)):
        sl = [slice(None)] * len(counts)
        sl[ax] = 0
        mask[tuple(sl)] = True
        sl[ax] = -1
        mask[tuple(sl)] = True
    mask.setflags(write=False)
    return mask


def dirichlet_field(grid: BoxGrid, fn) -> ScalarField:
    """Evaluate fn on the coordinate meshes and zero the boundary ring."""
    vals = np.asarray(fn(*grid.meshes()), dtype=float)
    vals = np.array(np.broadcast_to(vals, grid.counts))
    vals[_boundary_mask(grid.counts)] = 0.0
    return ScalarField(grid, vals)


def random_dirichlet_field(
    grid: BoxGrid, seed: int = 0, bumps: int = 3, rough: float = 0.0
) -> ScalarField:
    """Random superposition of Gaussian bumps (plus optional node noise)."""
    rng = np.random.default_rng(seed)
    meshes = grid.meshes()
    vals = np.zeros(grid.counts)
    spans = [hi - lo for lo, hi in zip(grid.lo, grid.hi)]
    for _ in range(max(1, bumps)):
        expo = np.zeros(grid.counts)
        for mesh, lo, hi, span in zip(meshes, grid.lo, grid.hi, spans):
            center = rng.uniform(lo + 0.3 * span, hi - 0.3 * span)
            width = rng.uniform(0.08, 0.25) * span
            expo += ((mesh - center) / width) ** 2
        vals += rng.normal() * np.exp(-expo)
    if rough > 0:
        vals += rough * rng.standard_normal(grid.counts)
    vals[_boundary_mask(grid.counts)] = 0.0
    return ScalarField(grid, vals)


def _check_admissible(u: ScalarField, problem: KirchhoffProblem) -> None:
    if u.grid != problem.grid:
        raise ValueError("field lives on a different grid than the problem")
    if u.is_complex:
        raise ValueError("the energy functional is defined for real fields")
    ring = u.values[_boundary_mask(u.grid.counts)]
    if np.any(ring != 0.0):
        raise ValueError(
            "Dirichlet truncation requires exact zeros on the boundary ring; "
            "build fields with dirichlet_field"
        )


# ---------------------------------------------------------------------------
# energy, norm, gradient
# ---------------------------------------------------------------------------


class _Nodal:
    """One problem's discretization: nodal values, the central-difference D_H
    (looked up by name on each call), the p-flux divergence whose negative
    is its exact adjoint, the boundary ring, and integrals as nodal sums
    times the cell volume ``w`` (so w * dot(a, b) is the L^2 pairing).
    Products replace ``pow`` passes, which cost several times more: at p = 2
    the integrands |D_H u|^2 and V u u are products and sign(u)|u| is u
    itself, at p* = 4 |u|^4 is (u u)^2, and the growth powers follow
    :func:`_abs_power`.  ``q`` is p*; ``V`` and ``a`` are the potential and
    the nonlinearity's weight on the grid.  D_H and the divergence take work
    buffers, with the same results as on fresh arrays.
    """

    def __init__(self, grid: BoxGrid, p: float, V=0.0, a=0.0) -> None:
        Q = 2 * HN.n_of(grid.ndim) + 2
        if not 1 < p < Q:
            raise ValueError(f"need 1 < p < Q = {Q}")
        self.grid, self.p, self.q, self.V, self.a = grid, p, Q * p / (Q - p), V, a
        self.w, self.ring = grid.cell_volume, _boundary_mask(grid.counts)

    @classmethod
    def of(cls, pr: KirchhoffProblem) -> "_Nodal":
        return cls(pr.grid, pr.p, pr.potential_values(), pr.nonlinearity.weight_values(pr.grid))

    @staticmethod
    def dot(a: np.ndarray, b: np.ndarray) -> float:  # np.dot would wake the BLAS threads
        return float(np.einsum("i,i->", a.ravel(), b.ravel()))

    def grad(self, vals: np.ndarray, out=None, scratch=None):
        """D_H u, in the arrays ``out`` with D_t u in ``scratch`` when given."""
        return horizontal_gradient(ScalarField(self.grid, vals), HN, out=out, scratch=scratch)

    def divergence(self, grad, out=None, scratch=None) -> np.ndarray:
        """div_H(|G|^{p-2} G) for G = D_H u, in ``out`` with two ``scratch`` arrays
        when given; its negative is the exact adjoint of D_H applied to the p-flux."""
        return _p_flux_divergence(grad, self.p, HN, out=out, scratch=scratch).values

    def dirichlet(self, grad) -> float:
        """int |D_H u|^p, from G = D_H u."""
        comps = [c.values for c in grad.components]
        if self.p == 2:
            return sum(self.dot(c, c) for c in comps) * self.w
        norm2 = sum(c * c for c in comps)
        norm2 **= self.p / 2.0
        return float(np.sum(norm2) * self.w)

    def hw(self, vals: np.ndarray, grad) -> float:
        """T(u) = int |D_H u|^p + int V |u|^p, from u and G = D_H u."""
        if self.p != 2:
            vv = float(np.sum(self.V * np.abs(vals) ** self.p))
        elif np.ndim(self.V) == 0:
            vv = self.V * self.dot(vals, vals)
        else:
            vv = self.dot(self.V * vals, vals)
        return self.dirichlet(grad) + vv * self.w

    def power(self, vals: np.ndarray, q: float, out: np.ndarray | None = None) -> float:
        """int |u|^q; the integrand is formed in ``out``, which may be ``vals``."""
        if q == 4.0:
            sq = np.multiply(vals, vals, out=out)
            return self.dot(sq, sq) * self.w
        mag = np.abs(vals, out=out)
        mag **= q
        return float(np.sum(mag) * self.w)

    def odd_power(self, vals: np.ndarray, q: float, out: np.ndarray | None = None) -> np.ndarray:
        """sign(u) |u|^{q-1}, the derivative of |u|^q / q, formed in ``out``
        (at q = 2 without ``out`` it is u itself, not a copy)."""
        if q == 2.0 and out is None:
            return vals
        if q == 4.0:
            out = np.multiply(vals, vals, out=out)
            out *= vals
        else:
            out = np.abs(vals, out=out)
            out **= q - 1.0
            out *= np.sign(vals)
        return out

    def ray(self, vals: np.ndarray, nonlinearity: GrowthNonlinearity, grad=None) -> tuple:
        """(T, F, C) = (T(u), int a |u|^{r_g} / r_g, int |u|^{p*}), given G = D_H u if in hand."""
        F = float(np.sum(nonlinearity.big_f(self.a, vals)) * self.w)
        return self.hw(vals, self.grad(vals) if grad is None else grad), F, self.power(vals, self.q)

    def l2(self, vals: np.ndarray) -> float:
        return math.sqrt(self.dot(vals, vals) * self.w)


def hw_norm(u: ScalarField, problem: KirchhoffProblem) -> float:
    """Discrete HW_V^{1,p} norm (||D_H u||_p^p + int V |u|^p)^{1/p}."""
    _check_admissible(u, problem)
    nod = _Nodal.of(problem)
    return float(nod.hw(u.values, nod.grad(u.values)) ** (1.0 / problem.p))


# Newton steps on phi' per ray peak, at most; bisection alone needs about 53
# to shrink [1/2, 2] to an ulp.
_NEWTON_STEPS = 64
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class _RayProfile:
    """phi(t) = J(t w) = Mprim(t^p T)/p - lambda F t^{r_g} - C t^{p*}/p*, t > 0.

    Exact by homogeneity, given the direction's quadratures T = ||D_H w||_p^p +
    int V |w|^p, F = int a |w|^{r_g} / r_g and C = int |w|^{p*}; phi(1) is J(w).
    """

    problem: KirchhoffProblem
    T: float
    F: float
    C: float

    def __post_init__(self) -> None:
        # phi'(t) = sum of c t^e over these (c, e): M(s) = M(0) + c1 s^(kappa - 1)
        pr, K = self.problem, self.problem.kirchhoff
        r = pr.nonlinearity.r_g
        m0, c1 = (K.m0, K.b) if K.kind == "nondegenerate" else (0.0, K.m1)
        try:
            grown = c1 * self.T ** K.kappa
        except OverflowError:  # a finite T whose power is not: c1 >= 0 times inf
            grown = math.inf if c1 else 0.0
        terms = (
            (m0 * self.T, pr.p - 1.0),
            (grown, pr.p * K.kappa - 1.0),
            (-pr.lam * r * self.F, r - 1.0),
            (-self.C, pr.p_star - 1.0),
        )
        # the sign changes of the coefficients ordered by exponent, zeros
        # skipped; slope and curvature sum their terms in the order above
        signs = [c > 0.0 for c, _ in sorted(terms, key=lambda term: term[1]) if c != 0.0]
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_bends", tuple((c * e, e - 1.0) for c, e in terms))
        object.__setattr__(self, "_changes", sum(a != b for a, b in zip(signs, signs[1:])))

    @classmethod
    def of(cls, vals: np.ndarray, problem: KirchhoffProblem, nodal: _Nodal) -> "_RayProfile":
        """The profile of the ray through the field ``vals``, from ``nodal``'s quadratures."""
        return cls(problem, *nodal.ray(vals, problem.nonlinearity))

    def value(self, t: float) -> float:
        pr, r, ps = self.problem, self.problem.nonlinearity.r_g, self.problem.p_star
        term_m = pr.kirchhoff.primitive(t ** pr.p * self.T) / pr.p
        return term_m - pr.lam * self.F * t ** r - self.C * t ** ps / ps

    @staticmethod
    def _sum(terms, t: float) -> float:  # sum(c * t ** e for c, e in terms), unrolled
        (a, ea), (b, eb), (c, ec), (d, ed) = terms
        return a * t ** ea + b * t ** eb + c * t ** ec + d * t ** ed

    def slope(self, t: float) -> float:
        return self._sum(self._terms, t)

    def _curvature(self, t: float) -> float:
        return self._sum(self._bends, t)

    def peak(self) -> tuple[float, float]:
        """(t*, phi(t*)) at the maximum of phi over t > 0.

        phi'(t)/t^(p-1) is a sum of four powers of t, so by Laguerre's rule
        of signs phi' has at most as many positive roots as its coefficients,
        ordered by exponent and with zeros skipped, have sign changes.  In
        the growth window p kappa < r_g < p* they read (m0 T, c1 T^kappa,
        -lambda r_g F, -C): one change, from + to -, and phi rises, then
        falls.  No change (the zero field, or C = 0) has no interior peak,
        and two or more (outside the window) are refused; both raise.  The
        bracket [1/2, 2] is moved outward by doublings until phi' changes
        sign on it, then safeguarded Newton steps on phi' from its geometric
        centre (t = 1 when it did not move) find the root: a step that
        leaves the sign-checked bracket, or fails to halve the previous one,
        bisects the bracket instead.
        """
        changes = self._changes
        if changes > 1:
            terms = sorted(self._terms, key=lambda term: term[1])
            raise RuntimeError(
                f"phi'(t) = {' '.join(f'{c:+.6g} t^{e:.6g}' for c, e in terms)} has "
                f"{changes} coefficient sign changes: outside the growth window "
                "p kappa < r_g < p* a ray may have several critical points"
            )
        lo, hi = 0.5, 2.0
        if changes:
            while lo > 0.0 and not self.slope(lo) > 0.0:
                lo, hi = 0.5 * lo, lo
            while hi < math.inf and not self.slope(hi) < 0.0:
                lo, hi = hi, 2.0 * hi
        if not (changes and 0.0 < lo and hi < math.inf):
            raise RuntimeError(f"no interior ray peak (T = {self.T:.6g}, F = {self.F:.6g}, "
                               f"C = {self.C:.6g})")
        t, last = math.sqrt(lo * hi), hi - lo
        for _ in range(_NEWTON_STEPS):
            d = self.slope(t)
            if d == 0.0:
                break
            if d > 0.0:
                lo = t
            else:
                hi = t
            step = d / self._curvature(t)
            # a step below the resolution of t has converged; it may
            # round onto the bracket's end
            if abs(step) > 2.0 * _EPS * t and not (lo < t - step < hi and abs(2.0 * step) <= last):
                step = t - 0.5 * (lo + hi)
            t, last = t - step, abs(step)
            if last <= 2.0 * _EPS * t:
                break
        return t, self.value(t)


def energy(u: ScalarField, problem: KirchhoffProblem) -> float:
    """J(u) = Mprim(T)/p - lambda * int a F(u) - (1/p*) int |u|^{p*}."""
    _check_admissible(u, problem)
    return _RayProfile.of(u.values, problem, _Nodal.of(problem)).value(1.0)


def _gradient(problem: KirchhoffProblem, nod: _Nodal, vals: np.ndarray, grad, T=None):
    """(the gradient's nodal values at u, ring zeroed; T(u)) from u, G = D_H u
    and T(u) when it is in hand."""
    if T is None:
        T = nod.hw(vals, grad)
    core = (
        problem.kirchhoff.m(T) * (nod.V * nod.odd_power(vals, problem.p) - nod.divergence(grad))
        - problem.lam * problem.nonlinearity.f(nod.a, vals)
        - nod.odd_power(vals, nod.q)
    )
    core[nod.ring] = 0.0
    return core, T


def gradient(u: ScalarField, problem: KirchhoffProblem) -> ScalarField:
    """Exact gradient of the discrete energy, projected onto the Dirichlet ring.

    <gradient(u), v>_{L^2} equals the directional derivative of energy(u) in
    any ring-zero direction v: the quasilinear part is the exact adjoint
    -div_H(|D_H u|^{p-2} D_H u) of the energy's gradient stencil.
    """
    _check_admissible(u, problem)
    nod = _Nodal.of(problem)
    return ScalarField(u.grid, _gradient(problem, nod, u.values, nod.grad(u.values))[0])


# ---------------------------------------------------------------------------
# Folland-Stein quotient
# ---------------------------------------------------------------------------


@dataclass
class FSResult:
    """Outcome of the Sobolev-quotient descent: the quotient at its last
    iterate, an upper bound on the grid infimum (not on the continuum constant)."""

    value: float
    minimizer: ScalarField
    history: list[float]
    monotone: bool
    stagnated: bool
    iterations: int
    p: float
    p_star: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "iterations": self.iterations,
            "monotone": self.monotone,
            "stagnated": self.stagnated,
            "p": self.p,
            "p_star": self.p_star,
            "history_first": self.history[0] if self.history else None,
            "history_last": self.history[-1] if self.history else None,
        }


def folland_stein_constant(
    grid: BoxGrid,
    p: float,
    iters: int = 400,
    seed: int = 0,
) -> FSResult:
    """Minimize ||D_H u||_p^p / ||u||_{p*}^p over ring-zero grid fields.

    Normalized projected gradient descent from a randomized bump; the history
    is a monotone-descent certificate.  A trial u - s g of the halving and
    doubling line search is scored unnormalized; at p = 2 its numerator is the
    quadratic ||D_H u||^2 - 2 s <-div_H D_H u, g> + s^2 ||D_H g||^2 (the
    divergence is the exact adjoint), D_H is evaluated once per iteration, on
    g, and D_H u is carried by linearity as (D_H u - s D_H g) / ||u - s g||_{p*},
    all in 3 + 4n arrays made once per call.  At other p each trial evaluates D_H.

    The value bounds the grid infimum from above, but it is no bound on the
    continuum best constant in either direction: the central differences
    under-measure grid-scale oscillation, so on a coarse grid the descent
    falls below the continuum value (which is 2 pi at p = 2 on H^1: the 17^3
    cube of half-width 4 reads 2.44 after 1,500 iterations), while the fixed
    budget biases it upward.  The descent stops after ``iters`` steps, not at
    convergence, and the quotient is usually still falling there (65^3 cube
    of half-width 4, p = 2, seed 0: 12.84 after 200 iterations, 10.06 after
    400); at p = 2 :func:`mp_threshold` grows as its square.
    """
    nod = _Nodal(grid, p)
    p_star = nod.q
    u = random_dirichlet_field(grid, seed=seed, bumps=2).values
    work = u.copy()  # scratch: |u|^{p*-1}, then the trials; D_t g at p = 2, else the old g
    u /= nod.power(work, p_star, out=work) ** (1.0 / p_star)
    G = nod.grad(u, scratch=work)  # D_H u: carried at p = 2, the accepted trial's at p != 2
    np.copyto(work, u)
    q = nod.dirichlet(G) / nod.power(work, p_star, out=work) ** (p / p_star)
    if p == 2:  # g and D_H g, whose arrays are div_H's scratch until D_H g is formed
        g, G_g = np.empty_like(u), [np.empty_like(u) for _ in G.components]
    history = [q]
    step = 0.5
    stagnated = False
    for _ in range(iters):
        # u is kept ||u||_{p*} = 1, so the quotient gradient reduces to
        # g = p * (ap - q * sign(u) |u|^{p*-1}) with ap = -div_H(|D_H u|^{p-2} D_H u)
        g = nod.divergence(G, g, G_g[:2]) if p == 2 else nod.divergence(G)
        work = nod.odd_power(u, p_star, out=work)
        work *= q
        g += work
        g *= -p
        g[nod.ring] = 0.0
        gg = nod.dot(g, g)
        if gg == 0.0:
            break
        if p == 2:  # B = <D_H u, D_H g> = <ap, g>, and ap = g / p + work off the ring
            A, B = nod.dirichlet(G), (gg / p + nod.dot(work, g)) * nod.w
            C = nod.dirichlet(nod.grad(g, G_g, work))
        while step > 1e-16:
            np.multiply(g, -step, out=work)
            work += u
            if p == 2:
                tn = A - 2.0 * step * B + step * step * C
            else:
                G = None  # let the last trial's D_H go before forming this one's
                G = nod.grad(work)
                tn = nod.dirichlet(G)
            den = nod.power(work, p_star, out=work)
            tq = tn / den ** (p / p_star)
            if tq < q - 1e-12 * (1.0 + abs(q)):
                break
            step *= 0.5
        else:
            stagnated = True
            break
        # u <- (u - step g) / ||u - step g||_{p*}, and D_H u with it: by
        # linearity at p = 2, as the accepted trial's at p != 2
        c = den ** (1.0 / p_star)
        np.multiply(g, -step, out=work)
        u += work
        u /= c
        if p == 2:  # D_H g is spent
            for comp, cg in zip(G.components, G_g):
                cg *= -step
                np.add(comp.values, cg, out=comp.values)
        else:
            work = g
        for comp in G.components:
            np.divide(comp.values, c, out=comp.values)
        q = tq
        history.append(q)
        step = min(step * 2.0, 1e3)
    monotone = bool(np.all(np.diff(history) <= 1e-12 * (1.0 + np.abs(history[:-1]))))
    return FSResult(
        value=float(q),
        minimizer=ScalarField(grid, u),
        history=[float(v) for v in history],
        monotone=monotone,
        stagnated=stagnated,
        iterations=len(history) - 1,
        p=p,
        p_star=p_star,
    )


# ---------------------------------------------------------------------------
# mountain-pass pieces
# ---------------------------------------------------------------------------


def mp_threshold(
    problem: KirchhoffProblem, fs_constant: float, m_coef: float | None = None
) -> float:
    """Compactness threshold (1/theta - 1/p*) * (coef * C^pow)^{p*/(p* - p pow)}.

    Nondegenerate: coef = m0, pow = 1.  Degenerate: pow = kappa and coef
    defaults to the family's own coefficient m1 (a degenerate family has no
    m0); pass m_coef to substitute any other coefficient in either case.
    """
    theta = problem.nonlinearity.theta
    ps = problem.p_star
    if theta >= ps:
        raise ValueError("theta >= p* makes the threshold prefactor nonpositive")
    pref = 1.0 / theta - 1.0 / ps
    K = problem.kirchhoff
    if K.kind == "nondegenerate":
        coef = K.m0 if m_coef is None else float(m_coef)
        base = coef * fs_constant
        expo = ps / (ps - problem.p)
    else:
        if ps <= problem.p * K.kappa:
            raise ValueError("degenerate threshold needs p* > p * kappa")
        coef = K.m1 if m_coef is None else float(m_coef)
        base = coef * fs_constant ** K.kappa
        expo = ps / (ps - problem.p * K.kappa)
    return pref * base ** expo


def ray_scan(
    v0: ScalarField, problem: KirchhoffProblem, t_max: float = 8.0, steps: int = 200
) -> dict:
    """Profile of t -> J(t v0) for a unit-HW-norm direction.

    The samples come from the closed-form ray profile of v0 (one quadrature
    pass) and equal energy(t v0) up to rounding.  Returns the sampled
    profile, the maximizing t_peak, the first t with J < 0 (mountain-pass
    endpoint), and whether the tail past the peak is strictly decreasing.
    Raises if no sign change occurs before t_max.
    """
    _check_admissible(v0, problem)
    ray = _RayProfile.of(v0.values, problem, _Nodal.of(problem))
    nv = ray.T ** (1.0 / problem.p)
    if abs(nv - 1.0) > 1e-8:
        raise ValueError(f"v0 must have unit HW norm (got {nv:.6g})")
    if steps < 8:
        raise ValueError("need at least 8 steps")
    ts = np.linspace(0.0, float(t_max), steps + 1)
    js = np.array([ray.value(float(t)) for t in ts])
    ipk = int(np.argmax(js))
    neg = np.nonzero(js < 0.0)[0]
    if neg.size == 0:
        raise ValueError(
            f"J(t v0) stays nonnegative up to t_max = {t_max}; enlarge t_max "
            "(the functional is unbounded below along every ray)"
        )
    return {
        "ts": [float(t) for t in ts],
        "energies": [float(j) for j in js],
        "t_peak": float(ts[ipk]),
        "j_peak": float(js[ipk]),
        "t_negative": float(ts[neg[0]]),
        "tail_decreasing": bool(np.all(np.diff(js[ipk:]) < 0.0)),
    }


_PS_WINDOW = 10
_PS_TOL = 1e-6


def _cauchy_tail(energies) -> bool:
    """Whether a log of three or more energies is Cauchy over its last
    ``_PS_WINDOW``: their spread is at most ``_PS_TOL (1 + |last|)``.  Both
    :func:`mountain_pass_solve`'s stop test and :func:`ps_monitor` ask this,
    so a converged log passes the monitor."""
    if len(energies) < 3:
        return False
    tail = np.asarray(energies[-_PS_WINDOW:], dtype=float)
    return bool(np.max(tail) - np.min(tail) <= _PS_TOL * (1.0 + abs(float(tail[-1]))))


@dataclass
class MPResult:
    """Mountain-pass outcome: approximate critical point plus the PS log, whose
    ``norms`` are HW norms T(u)^{1/p}, the norm the Palais-Smale condition uses."""

    u_star: ScalarField
    energy: float
    gradient_norm: float
    energies: list[float]
    gradient_norms: list[float]
    norms: list[float]
    threshold: float
    flags: dict
    iterations: int
    stagnated: bool
    tol: float

    def __post_init__(self) -> None:
        if not (len(self.energies) == len(self.gradient_norms) == len(self.norms)):
            raise ValueError("PS log columns must share one length")
        if any(g < 0 for g in self.gradient_norms):
            raise ValueError("gradient norms must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "energy": self.energy,
            "gradient_norm": self.gradient_norm,
            "iterations": self.iterations,
            "stagnated": self.stagnated,
            "tol": self.tol,
            "threshold": self.threshold,
            "flags": dict(self.flags),
            "u_star_sup": float(np.max(np.abs(self.u_star.values))),
            "log_length": len(self.energies),
            "energies": list(self.energies),
            "gradient_norms": list(self.gradient_norms),
            "norms": list(self.norms),
        }


def mountain_pass_solve(
    problem: KirchhoffProblem,
    e: ScalarField,
    nodes: int = 9,
    max_iter: int = 20000,
    threshold: float = math.nan,
) -> MPResult:
    """Numerical mountain pass: gradient descent on the ray-peak (Nehari) set.

    Preconditions: energy(e) < 0 and e != 0 (the endpoint lies beyond the
    mountain ridge).  The descent starts at the peak of the ray through e.
    Each trial u - s grad J(u) is rescaled to the exact peak of its own ray
    (see :class:`_RayProfile`) and accepted on strict energy decrease, so
    every iterate's energy is the maximum of J along a path from 0 past the
    ridge and the descent cannot escape toward the functional's
    unbounded-below region.  Inside the growth window p kappa < r_g < p*
    every fibering map t -> J(t w) has exactly one interior maximum: the
    coefficients of its derivative, ordered by exponent, change sign once,
    so by Laguerre's rule of signs it has one positive root
    (:meth:`_RayProfile.peak`, which refuses a ray whose coefficients change
    sign twice or more).  Then the least ray-peak level is the mountain-pass
    level (Szulkin and Weth, "The method of Nehari manifold", Handbook of
    Nonconvex Analysis, 2010), and at the constrained minimum the constraint
    is natural: the full gradient vanishes.  Convergence needs the gradient
    norm down to 5e-5 of its value at the first iterate (a 2e4-fold
    reduction of ``gradient_norms[0]``; stored as ``MPResult.tol``) and an
    energy tail that is Cauchy under the test :func:`ps_monitor` applies
    (``_cauchy_tail``), so a converged log passes the monitor.
    ``threshold`` is stored for reporting; compare against
    :func:`mp_threshold`.  When ``max_iter`` runs out, the result is the
    last logged iterate.

    D_H is linear, so each iteration evaluates it once, on the direction g: a
    trial's D_H is D_H u - s D_H g, formed in one reused buffer, and the accepted
    t (u - s g) carries t times its trial's.  T is p-homogeneous, so the
    accepted iterate's T(t w) is t^p T(w), with T(w) from its trial's ray, and
    the gradient takes it from there.  D_H u and T are evaluated afresh on
    u_1 only.  A trial is valid when the coefficients of its ray profile's
    phi' are finite (then so are its quadratures) and C = int |w|^{p*} > 0
    (w != 0); any other trial halves the step without a ray-peak search, and
    no extra pass over the trial tests it.

    ``nodes`` is ignored.  It set the size of a discrete path in an earlier
    two-phase solver, and the benchmark's ``mountain-pass`` workload
    (``bench/workloads.py``) still passes ``nodes=9``; remove it when that
    file next changes.
    """
    _check_admissible(e, problem)
    nod = _Nodal.of(problem)
    ray = _RayProfile.of(e.values, problem, nod)
    je = ray.value(1.0)  # energy(e)
    if not je < 0:
        raise ValueError(f"endpoint must have negative energy (got J = {je:.6g})")
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")
    grid = problem.grid
    t, j = ray.peak()
    u = t * e.values
    G = nod.grad(u)  # D_H u, carried from here on
    trial = np.empty_like(u)  # the trial and its D_H, formed in place for every trial
    G_trial = HorizontalVectorField(tuple(ScalarField(grid, np.empty_like(u)) for _ in G.components))
    energies, grad_norms, norms = [], [], []
    step, T = 1.0, None
    converged = stagnated = False
    for it in range(1, max_iter + 1):
        g, T = _gradient(problem, nod, u, G, T)
        gn = nod.l2(g)
        if it == 1:
            tol = 5e-5 * gn
        energies.append(j)
        grad_norms.append(gn)
        norms.append(T ** (1.0 / problem.p))
        if gn <= tol and _cauchy_tail(energies):
            converged = True
            break
        if it == max_iter:  # the logged iterate is the result
            break
        G_g = nod.grad(g)
        s = step
        for _ in range(60):
            np.multiply(g, -s, out=trial)
            trial += u
            for ct, cu, cg in zip(G_trial.components, G.components, G_g.components):
                np.multiply(cg.values, -s, out=ct.values)
                np.add(ct.values, cu.values, out=ct.values)
            Tt, F, C = nod.ray(trial, problem.nonlinearity, G_trial)
            trial_ray = _RayProfile(problem, Tt, F, C)
            # else w = 0, or a quadrature or a coefficient of phi' overflowed
            if C > 0.0 and all(math.isfinite(c) for c, _ in trial_ray._terms):
                t, jt = trial_ray.peak()
                if math.isfinite(jt) and jt < j - 1e-14 * (1.0 + abs(j)):
                    break
            s *= 0.5
        else:
            stagnated = True
            break
        np.multiply(trial, t, out=u)
        for cu, ct in zip(G.components, G_trial.components):
            np.multiply(ct.values, t, out=cu.values)
        j, step, T = jt, min(s * 2.0, 1e3), t ** problem.p * Tt
    u_star = ScalarField(grid, u)
    flags = {
        "converged": converged,
        "positive_norm": norms[-1] > 1e-10,
        "positive_energy": j > 0.0,
        "below_threshold": bool(j < threshold) if math.isfinite(threshold) else None,
    }
    return MPResult(
        u_star=u_star,
        energy=j,
        gradient_norm=grad_norms[-1],
        energies=energies,
        gradient_norms=grad_norms,
        norms=norms,
        threshold=threshold,
        flags=flags,
        iterations=it,
        stagnated=stagnated,
        tol=tol,
    )


def mp_geometry_check(
    problem: KirchhoffProblem,
    samples: int = 24,
    rhos: tuple[float, ...] | None = None,
    seed: int = 0,
) -> dict:
    """Sampled mountain-ridge certificate: largest rho with min J on the
    HW-sphere of radius rho positive; alpha = half that minimum.  Each
    sample's energies along its ray come from its closed-form ray profile.

    A sampled certificate, not a proof; ``ok`` False signals exponent or
    parameter misconfiguration (no ridge found on the candidate spheres).
    """
    if rhos is None:
        rhos = tuple(2.0 ** (-i) for i in range(0, 11))
    else:
        rhos = tuple(sorted((float(r) for r in rhos), reverse=True))
    if any(r <= 0 for r in rhos):
        raise ValueError("sphere radii must be positive")
    nod = _Nodal.of(problem)
    pool = []  # (ray profile of a sample, 1 / its HW norm)
    for i in range(samples):
        fld = random_dirichlet_field(
            problem.grid, seed=seed + 7 * i, bumps=1 + i % 3,
            rough=0.0 if i % 4 else 0.02,
        )
        ray = _RayProfile.of(fld.values, problem, nod)
        if ray.T > 0:
            pool.append((ray, ray.T ** (-1.0 / problem.p)))
    table = []
    for rho in rhos:
        jmin = min(ray.value(rho * scale) for ray, scale in pool)
        table.append({"rho": float(rho), "min_energy": float(jmin), "positive": jmin > 0})
        if jmin > 0:
            return {
                "ok": True,
                "rho": float(rho),
                "alpha": float(jmin / 2.0),
                "samples": len(pool),
                "table": table,
            }
    return {"ok": False, "rho": None, "alpha": None, "samples": len(pool), "table": table}


def ps_monitor(result: MPResult) -> dict:
    """Palais-Smale bookkeeping on an MPResult log.

    Flags: energies Cauchy over the tail window, gradient norms down to the
    solver tolerance, iterate norms bounded, and final energy strictly below
    the compactness threshold ``result.threshold`` (when it is finite).
    """
    gs = np.asarray(result.gradient_norms, dtype=float)
    ns = np.asarray(result.norms, dtype=float)
    energies_converged = _cauchy_tail(result.energies)
    gradients_converged = bool(
        gs.size > 0 and result.tol > 0 and gs[-1] <= result.tol
    )
    norms_bounded = bool(ns.size > 0 and np.all(np.isfinite(ns)) and np.max(ns) < 1e6)
    thr = result.threshold
    if math.isfinite(thr):
        below = bool(result.energy < thr)
        window = {"energy": result.energy, "threshold": thr, "below": below}
    else:
        below = None
        window = {"energy": result.energy, "threshold": None, "below": None}
    return {
        "energies_converged": energies_converged,
        "gradients_converged": gradients_converged,
        "norms_bounded": norms_bounded,
        "below_threshold": below,
        "window": window,
        "all_ok": bool(energies_converged and gradients_converged and norms_bounded),
    }
