"""Hermite functions, Fourier transform, and Fourier-Wigner transform tests.

Oracles: sympy's Hermite polynomials, normalized and weighted exactly, at
rational points, closed-form Gaussian transforms, the
(-i)^k Fourier eigenvalue of the Hermite functions, and quadrature
orthonormality checked against analytic values.
"""

import math
from functools import partial

import numpy as np
import pytest
import sympy

from heislab import (
    hermite_fn,
    hermite_fn_scaled,
    tabulate_eigenfunction,
)
from heislab.exceptions import QuadratureTailError
from heislab.grid import BoxGrid
from heislab.hermite import fourier_wigner_table


def _e(k: int, tau: float = 1.0):
    """The scaled Hermite function e_{k,tau} as a plain callable profile."""
    return partial(hermite_fn_scaled, k, tau)


def test_recurrence_matches_sympy():
    # e_k(x) = (2^k k! sqrt(pi))^{-1/2} e^{-x^2/2} H_k(x), with sympy's H_k
    # and the weight evaluated to 30 digits at rational points
    xs = sympy.Symbol("xs")
    qs = (-6, -3, sympy.Rational(-1, 2), 0, sympy.Rational(3, 4), 2, sympy.Rational(9, 2))
    x = np.array([float(q) for q in qs])
    for k in range(9):
        norm = (2**k * sympy.factorial(k) * sympy.sqrt(sympy.pi)) ** sympy.Rational(-1, 2)
        fn = norm * sympy.exp(-xs**2 / 2) * sympy.hermite(k, xs)
        exact = np.array([float(fn.subs(xs, q).evalf(30)) for q in qs])
        np.testing.assert_allclose(hermite_fn(k, x), exact, rtol=1e-13, atol=1e-15)
        assert hermite_fn(k, 0.75) == pytest.approx(exact[4], rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        hermite_fn(-1, 0.0)


def test_hermite_functions_orthonormal_by_quadrature():
    x = np.linspace(-12.0, 12.0, 2401)
    table = np.stack([hermite_fn(k, x) for k in range(7)])
    gram = np.trapezoid(table[:, None, :] * table[None, :, :], x, axis=-1)
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-12


def test_scaled_hermite_normalized_for_every_tau():
    for tau in (0.5, 1.0, 2.0, -1.5):
        L = 12.0 / math.sqrt(abs(tau))
        x = np.linspace(-L, L, 4001)
        for k in (0, 3):
            v = hermite_fn_scaled(k, tau, x)
            assert abs(np.trapezoid(v * v, x) - 1.0) <= 1e-10
    with pytest.raises(ValueError):
        hermite_fn_scaled(0, 0.0, 0.0)


def test_hermite_parity():
    x = np.linspace(-4.0, 4.0, 101)
    for k in range(6):
        v = hermite_fn(k, x)
        assert np.max(np.abs(v[::-1] - (-1.0) ** k * v)) <= 1e-13


def test_wigner_at_origin_closed_form():
    # V_tau(f, g)(0, 0) = (2 pi)^{-1/2} |tau|^{1/2} <f, g>; for the
    # L^2-normalized scaled Hermite pair (k, k) this is (2 pi)^{-1/2} sqrt|tau|
    for tau in (1.0, 2.0):
        val = fourier_wigner_table(_e(0, tau), _e(0, tau), tau, [0.0], [0.0])[0, 0]
        expected = math.sqrt(abs(tau)) / math.sqrt(2.0 * math.pi)
        assert abs(val - expected) <= 1e-12
    # orthogonal pair vanishes at the origin
    val = fourier_wigner_table(_e(0), _e(1), 1.0, [0.0], [0.0])[0, 0]
    assert abs(val) <= 1e-12


def test_wigner_sesquilinearity():
    f, g = _e(1), _e(2)
    qs, ps = np.array([0.7, -0.2]), np.array([-0.3, 0.45])
    base = fourier_wigner_table(f, g, 1.0, qs, ps)
    left = fourier_wigner_table(lambda x: (2.0 + 1j) * f(x), g, 1.0, qs, ps)
    right = fourier_wigner_table(f, lambda x: (2.0 + 1j) * g(x), 1.0, qs, ps)
    assert np.max(np.abs(left - (2.0 + 1j) * base)) <= 1e-12
    assert np.max(np.abs(right - np.conjugate(2.0 + 1j) * base)) <= 1e-12


def test_wigner_scaling_relation():
    # e_{j,k,tau}(q, p) = sqrt(tau) * e_{j,k,1}(sqrt(tau) q, sqrt(tau) p), tau > 0
    tau = 2.0
    root = math.sqrt(tau)
    qs, ps = np.array([0.4, -0.6]), np.array([0.2, 0.35])
    for j, k in [(0, 0), (1, 2)]:
        lhs = fourier_wigner_table(_e(j, tau), _e(k, tau), tau, qs, ps)
        rhs = root * fourier_wigner_table(_e(j), _e(k), 1.0, root * qs, root * ps)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_wigner_table_validation():
    # e_3 is far from zero at +-2, so the product integrand fails the tail guard
    with pytest.raises(QuadratureTailError):
        fourier_wigner_table(_e(3), _e(0), 1.0, [0.0], [0.0], L=2.0)
    with pytest.raises(ValueError):
        fourier_wigner_table(_e(0, 1.0), _e(0, 1.0), 0.0, [0.0], [0.0])
    with pytest.raises(ValueError):
        tabulate_eigenfunction(-1, 0, 1.0, BoxGrid((-1.0, -1.0), (1.0, 1.0), (5, 5)))


def test_wigner_table_matches_pointwise():
    qs = np.array([-0.5, 0.0, 1.0])
    ps = np.array([0.25, -0.25])
    f, g = _e(1), _e(0)
    table = fourier_wigner_table(f, g, 1.0, qs, ps)
    assert table.shape == (3, 2)
    for i, q in enumerate(qs):
        for j, p in enumerate(ps):
            one = fourier_wigner_table(f, g, 1.0, [q], [p])
            assert one.shape == (1, 1)
            assert abs(table[i, j] - one[0, 0]) <= 1e-12
