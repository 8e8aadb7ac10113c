"""Variational toolkit for critical Kirchhoff-type problems on the Heisenberg group.

The energy functional on the truncated (Dirichlet box) horizontal Sobolev
space is

    J(u) = (1/p) * Mprim(T(u)) - lambda * int a(xi) |u|^{r_g} / r_g - (1/p*) int |u|^{p*}

with T(u) = ||D_H u||_p^p + int V |u|^p, Mprim the primitive of the Kirchhoff
coefficient M, and p* = Q p / (Q - p) the critical exponent for the
homogeneous dimension Q = 2n + 2.

Design notes that matter for correctness:

* The discrete gradient is the *exact* gradient of the discrete energy: the
  quasilinear term is assembled as -div_H(|D_H u|^{p-2} D_H u) with the
  divergence stencil the exact negative adjoint of the gradient stencil
  (zero-fill differences), so <gradient(u), v> equals the directional
  derivative of energy at machine precision up to the O(eps^2) of the probe.
* Every term is odd in u through sign(u)|u|^{q-1} factors and even through
  |u|-powers, so energy(-u) == energy(u) and gradient(-u) == -gradient(u)
  hold bitwise.
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

from .grid import BoxGrid, ScalarField
from .operators import HN, FieldConvention, _p_flux_divergence, horizontal_gradient

__all__ = [
    "KirchhoffM",
    "GrowthNonlinearity",
    "KirchhoffProblem",
    "MPResult",
    "FSResult",
    "validate_exponents",
    "zero_boundary",
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
        return a * np.sign(uvals) * np.abs(uvals) ** (self.r_g - 1.0)

    def big_f(self, a, uvals: np.ndarray) -> np.ndarray:
        return a * np.abs(uvals) ** self.r_g / self.r_g

    def to_dict(self) -> dict:
        return {
            "r_g": self.r_g,
            "theta": self.theta,
            "weight": "callable" if callable(self.weight) else float(self.weight),
        }


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
    conv: FieldConvention = HN

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
            "convention": self.conv.name,
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


def zero_boundary(u: ScalarField) -> ScalarField:
    """Return u with the boundary ring set to exact zeros."""
    vals = u.values.copy()
    vals[_boundary_mask(u.grid.counts)] = 0.0
    return ScalarField(u.grid, vals)


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
            "build fields with dirichlet_field / zero_boundary"
        )


# ---------------------------------------------------------------------------
# energy, norm, gradient
# ---------------------------------------------------------------------------


def _norm_terms(u: ScalarField, problem: KirchhoffProblem, grad=None) -> tuple[float, float]:
    """(||D_H u||_p^p, int V |u|^p) by grid quadrature; ``grad`` is D_H u if already in hand."""
    w = u.grid.cell_volume
    if grad is None:
        grad = horizontal_gradient(u, problem.conv)
    norm2 = np.zeros(u.grid.counts)
    for c in grad.components:
        norm2 += c.values * c.values
    s = float(np.sum(norm2 ** (problem.p / 2.0)) * w)
    V = problem.potential_values()
    pot = float(np.sum(V * np.abs(u.values) ** problem.p) * w)
    return s, pot


def hw_norm(u: ScalarField, problem: KirchhoffProblem) -> float:
    """Discrete HW_V^{1,p} norm (||D_H u||_p^p + int V |u|^p)^{1/p}."""
    _check_admissible(u, problem)
    s, pot = _norm_terms(u, problem)
    return float((s + pot) ** (1.0 / problem.p))


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

    @classmethod
    def of(cls, u: ScalarField, problem: KirchhoffProblem, a) -> "_RayProfile":
        """One _norm_terms pass plus two sums; ``a`` is the weight on the grid."""
        w = u.grid.cell_volume
        s, pot = _norm_terms(u, problem)
        F = float(np.sum(problem.nonlinearity.big_f(a, u.values)) * w)
        return cls(problem, s + pot, F, float(np.sum(np.abs(u.values) ** problem.p_star) * w))

    def value(self, t: float) -> float:
        pr, r, ps = self.problem, self.problem.nonlinearity.r_g, self.problem.p_star
        term_m = pr.kirchhoff.primitive(t ** pr.p * self.T) / pr.p
        return term_m - pr.lam * self.F * t ** r - self.C * t ** ps / ps

    def slope(self, t: float) -> float:
        pr, r, ps = self.problem, self.problem.nonlinearity.r_g, self.problem.p_star
        term_m = pr.kirchhoff.m(t ** pr.p * self.T) * self.T * t ** (pr.p - 1.0)
        return term_m - pr.lam * r * self.F * t ** (r - 1.0) - self.C * t ** (ps - 1.0)

    def peak(self) -> tuple[float, float]:
        """(t*, phi(t*)) at the maximum of phi over t > 0: the largest of 25
        geometric samples on [1/8, 8] (moved 256-fold toward an edge maximum)
        brackets a sign change of phi', bisected in log t to double precision."""
        lo, hi, bracket = 0.125, 8.0, None
        for _ in range(60):
            ts = [float(t) for t in np.geomspace(lo, hi, 25)]
            try:
                i = int(np.argmax([self.value(t) for t in ts]))
            except OverflowError:
                break
            if i == 0:
                hi, lo = ts[1], lo / 256.0
            elif i == len(ts) - 1:
                lo, hi = ts[-2], hi * 256.0
            else:
                bracket = ts[i - 1], ts[i + 1]
                break
        if bracket is None or not self.slope(bracket[0]) > 0.0 > self.slope(bracket[1]):
            raise RuntimeError(f"no interior ray peak (T = {self.T:.6g}, F = {self.F:.6g}, "
                               f"C = {self.C:.6g}; last window [{lo:.3g}, {hi:.3g}])")
        a, b = math.log(bracket[0]), math.log(bracket[1])
        mid, eps = 0.5 * (a + b), np.finfo(float).eps
        while b - a > eps and a < mid < b:
            if self.slope(math.exp(mid)) > 0.0:
                a = mid
            else:
                b = mid
            mid = 0.5 * (a + b)
        t = math.exp(mid)
        return t, self.value(t)


def energy(u: ScalarField, problem: KirchhoffProblem) -> float:
    """J(u) = Mprim(T)/p - lambda * int a F(u) - (1/p*) int |u|^{p*}."""
    _check_admissible(u, problem)
    return _RayProfile.of(u, problem, problem.nonlinearity.weight_values(problem.grid)).value(1.0)


def gradient(u: ScalarField, problem: KirchhoffProblem) -> ScalarField:
    """Exact gradient of the discrete energy, projected onto the Dirichlet ring.

    <gradient(u), v>_{L^2} equals the directional derivative of energy(u) in
    any ring-zero direction v: the quasilinear part is the exact adjoint
    -div_H(|D_H u|^{p-2} D_H u) of the energy's gradient stencil.
    """
    _check_admissible(u, problem)
    p, ps = problem.p, problem.p_star
    grad = horizontal_gradient(u, problem.conv)
    s, pot = _norm_terms(u, problem, grad)
    mval = problem.kirchhoff.m(s + pot)
    ap = -_p_flux_divergence(grad, p, problem.conv).values
    V = problem.potential_values()
    a = problem.nonlinearity.weight_values(problem.grid)
    au = np.abs(u.values)
    sg = np.sign(u.values)
    core = (
        mval * (ap + V * sg * au ** (p - 1.0))
        - problem.lam * problem.nonlinearity.f(a, u.values)
        - sg * au ** (ps - 1.0)
    )
    core[_boundary_mask(u.grid.counts)] = 0.0
    return ScalarField(u.grid, core)


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
    conv: FieldConvention = HN,
) -> FSResult:
    """Minimize ||D_H u||_p^p / ||u||_{p*}^p over ring-zero grid fields.

    Normalized projected gradient descent from a randomized bump; the history
    is a monotone-descent certificate.  The value bounds the grid infimum from
    above, but it is no bound on the continuum best constant in either
    direction: the central differences under-measure grid-scale oscillation,
    so on a coarse grid the descent falls below the continuum value (which is
    2 pi at p = 2 on H^1: the 17^3 cube of half-width 4 reads 2.44 after 1,500
    iterations), while the fixed budget biases it upward.  The descent stops
    after ``iters`` steps, not at convergence, and the quotient is usually
    still falling there (65^3 cube of half-width 4, p = 2, seed 0: 12.84 after
    200 iterations, 10.06 after 400); at p = 2 :func:`mp_threshold` grows as
    its square.
    """
    n = conv.n_of(grid.ndim)
    Q = 2 * n + 2
    if not 1 < p < Q:
        raise ValueError(f"need 1 < p < Q = {Q}")
    p_star = Q * p / (Q - p)
    w = grid.cell_volume
    mask = _boundary_mask(grid.counts)

    def abs_pow(vals: np.ndarray, e: float) -> np.ndarray:
        out = np.abs(vals)
        out **= e
        return out

    def quotient_parts(vals: np.ndarray):
        """(numerator, denominator, D_H u) of the quotient at u = vals."""
        grad = horizontal_gradient(ScalarField(grid, vals), conv)
        norm2 = np.zeros(grid.counts)
        for c in grad.components:
            norm2 += c.values * c.values
        norm2 **= p / 2.0
        num = float(np.sum(norm2) * w)
        den = float(np.sum(abs_pow(vals, p_star)) * w) ** (p / p_star)
        return num, den, grad

    u = random_dirichlet_field(grid, seed=seed, bumps=2).values
    u = u / float(np.sum(np.abs(u) ** p_star) * w) ** (1.0 / p_star)
    num, den, grad = quotient_parts(u)
    q = num / den
    history = [q]
    step = 0.5
    stagnated = False
    it = 0
    for it in range(1, iters + 1):
        # grad is D_H u of the accepted u; it is dropped before each trial
        ap = -_p_flux_divergence(grad, p, conv).values
        grad = None
        # u is kept ||u||_{p*} = 1, so the quotient gradient reduces to
        # g = p * (ap - q * sign(u) |u|^{p*-1}); in place, to allocate fewer
        # full-size temporaries (the same operations in the same order)
        g = abs_pow(u, p_star - 1.0)
        g *= np.sign(u)
        g *= q
        np.subtract(ap, g, out=g)
        g *= p
        ap = None
        g[mask] = 0.0
        gn2 = float(np.sum(g * g) * w)
        if gn2 == 0.0:
            break
        accepted = False
        while step > 1e-16:
            trial = u - step * g
            trial /= float(np.sum(abs_pow(trial, p_star)) * w) ** (1.0 / p_star)
            grad = None
            tn, td, grad = quotient_parts(trial)
            tq = tn / td
            if tq < q - 1e-12 * (1.0 + abs(q)):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            stagnated = True
            break
        u, q = trial, tq
        history.append(q)
        step = min(step * 2.0, 1e3)
    monotone = bool(np.all(np.diff(history) <= 1e-12 * (1.0 + np.abs(history[:-1]))))
    return FSResult(
        value=float(q),
        minimizer=ScalarField(grid, u),
        history=[float(v) for v in history],
        monotone=monotone,
        stagnated=stagnated,
        iterations=it,
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
    nv = hw_norm(v0, problem)
    if abs(nv - 1.0) > 1e-8:
        raise ValueError(f"v0 must have unit HW norm (got {nv:.6g})")
    if steps < 8:
        raise ValueError("need at least 8 steps")
    ts = np.linspace(0.0, float(t_max), steps + 1)
    ray = _RayProfile.of(v0, problem, problem.nonlinearity.weight_values(problem.grid))
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


# ps_monitor's default energy-tail window and Cauchy tolerance; a converged
# mountain_pass_solve meets them by construction
_PS_WINDOW = 10
_PS_TOL = 1e-6


@dataclass
class MPResult:
    """Mountain-pass outcome: approximate critical point plus the PS log."""

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
    unbounded-below region.  When every fibering map t -> J(t w) has exactly
    one interior maximum, the least such level is the mountain-pass level
    (Szulkin and Weth, "The method of Nehari manifold", Handbook of Nonconvex
    Analysis, 2010), and at the constrained minimum the constraint is natural:
    the full gradient vanishes.  Convergence needs the gradient norm down to
    5e-5 of its value at the first iterate (a 2e4-fold reduction of
    ``gradient_norms[0]``; stored as ``MPResult.tol``) and an energy tail
    that is Cauchy under :func:`ps_monitor`'s default window and tolerance,
    so a converged log passes the monitor.  ``threshold`` is stored for
    reporting; compare against :func:`mp_threshold`.

    ``nodes`` is ignored.  It set the size of a discrete path in an earlier
    two-phase solver, and the benchmark's ``mountain-pass`` workload
    (``bench/workloads.py``) still passes ``nodes=9``; remove it when that
    file next changes.
    """
    je = energy(e, problem)
    if not je < 0:
        raise ValueError(f"endpoint must have negative energy (got J = {je:.6g})")
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")
    grid = problem.grid
    w = grid.cell_volume
    a = problem.nonlinearity.weight_values(grid)

    def norm(vals: np.ndarray) -> float:
        flat = vals.ravel()
        return math.sqrt(float(np.dot(flat, flat) * w))

    def peak(vals: np.ndarray) -> tuple[float, float]:
        return _RayProfile.of(ScalarField(grid, vals), problem, a).peak()

    t, j = peak(e.values)
    u = t * e.values
    energies, grad_norms, norms = [], [], []
    step = 1.0
    converged = stagnated = False
    for it in range(1, max_iter + 1):
        g = gradient(ScalarField(grid, u), problem).values
        gn = norm(g)
        if it == 1:
            tol = 5e-5 * gn
        energies.append(j)
        grad_norms.append(gn)
        norms.append(norm(u))
        if gn <= tol and it >= 3:
            tail = energies[-_PS_WINDOW:]
            if max(tail) - min(tail) <= _PS_TOL * (1.0 + abs(energies[-1])):
                converged = True
                break
        s = step
        for _ in range(60):
            trial = u - s * g
            nt = norm(trial)
            if nt > 0 and math.isfinite(nt):
                t, jt = peak(trial)
                if math.isfinite(jt) and jt < j - 1e-14 * (1.0 + abs(j)):
                    break
            s *= 0.5
        else:
            stagnated = True
            break
        u, j, step = t * trial, jt, min(s * 2.0, 1e3)
    u_star = ScalarField(grid, u)
    flags = {
        "converged": converged,
        "positive_norm": hw_norm(u_star, problem) > 1e-10,
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
    a = problem.nonlinearity.weight_values(problem.grid)
    pool = []  # (ray profile of a sample, 1 / its HW norm)
    for i in range(samples):
        fld = random_dirichlet_field(
            problem.grid, seed=seed + 7 * i, bumps=1 + i % 3,
            rough=0.0 if i % 4 else 0.02,
        )
        ray = _RayProfile.of(fld, problem, a)
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


def ps_monitor(
    result: MPResult,
    threshold: float | None = None,
    energy_window: int = _PS_WINDOW,
    energy_tol: float = _PS_TOL,
) -> dict:
    """Palais-Smale bookkeeping on an MPResult log.

    Flags: energies Cauchy over the tail window, gradient norms down to the
    solver tolerance, iterate norms bounded, and final energy strictly below
    the compactness threshold (when one is available).
    """
    es = np.asarray(result.energies, dtype=float)
    gs = np.asarray(result.gradient_norms, dtype=float)
    ns = np.asarray(result.norms, dtype=float)
    if es.size >= 3:
        tail = es[-min(energy_window, es.size):]
        energies_converged = bool(
            np.max(tail) - np.min(tail) <= energy_tol * (1.0 + abs(float(es[-1])))
        )
    else:
        energies_converged = False
    gradients_converged = bool(
        gs.size > 0 and result.tol > 0 and gs[-1] <= result.tol
    )
    norms_bounded = bool(ns.size > 0 and np.all(np.isfinite(ns)) and np.max(ns) < 1e6)
    thr = result.threshold if threshold is None else float(threshold)
    if thr is not None and math.isfinite(thr):
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
