"""Hermite functions and the Fourier-Wigner transform.

Conventions implemented here (all of them load-bearing for the spectral lab):

* L^2-normalized Hermite functions ``e_k(x) = (2^k k! sqrt(pi))^{-1/2} e^{-x^2/2} H_k(x)``,
  with ``H_k`` the physicists' Hermite polynomials, via the normalized
  three-term recurrence, and their tau-scalings
  ``e_{k,tau}(x) = |tau|^{1/4} e_k(sqrt|tau| x)``;
* Fourier-Wigner transform

      V_tau(f, g)(q, p) = (2 pi)^{-1/2} |tau|^{1/2} int e^{i tau q y} f(y - 2p) conj(g)(y + 2p) dy

  (note the factor-2 shifts).  ``fourier_wigner_table`` tabulates it on a
  grid of (q, p) nodes; ``spectral.tabulate_eigenfunction`` applies it to the
  special Hermite family ``e_{j,k,tau} = V_tau(e_{j,tau}, e_{k,tau})``.

Profiles are plain callables, vectorized over x.  Quadrature is the trapezoid
rule on [-L, L]; for smooth decaying integrands it is spectrally accurate.
Every quadrature checks the boundary integrand magnitude against 1e-14 and
raises :class:`QuadratureTailError` on violation.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .exceptions import QuadratureTailError

__all__ = [
    "hermite_fn",
    "hermite_fn_scaled",
    "fourier_wigner_table",
]

_TAIL_GUARD = 1e-14


# ---------------------------------------------------------------------------
# Hermite functions
# ---------------------------------------------------------------------------


def hermite_fn(k: int, x) -> np.ndarray | float:
    """L^2-normalized Hermite function e_k(x), stable normalized recurrence."""
    if k < 0:
        raise ValueError("Hermite index must be nonnegative")
    xv = np.asarray(x, dtype=float)
    e_prev = np.pi ** (-0.25) * np.exp(-0.5 * xv * xv)
    if k == 0:
        return e_prev if xv.ndim else float(e_prev)
    e = xv * math.sqrt(2.0) * e_prev
    for m in range(1, k):
        e, e_prev = (
            xv * math.sqrt(2.0 / (m + 1)) * e - math.sqrt(m / (m + 1.0)) * e_prev,
            e,
        )
    return e if xv.ndim else float(e)


def hermite_fn_scaled(k: int, tau: float, x) -> np.ndarray | float:
    """e_{k,tau}(x) = |tau|^{1/4} e_k(sqrt|tau| x); L^2-normalized for every tau."""
    if tau == 0:
        raise ValueError("scaled Hermite functions need tau != 0")
    root = math.sqrt(abs(tau))
    out = abs(tau) ** 0.25 * hermite_fn(k, root * np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------


def _trapezoid_nodes(L: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the N-node trapezoid rule on [-L, L]."""
    y = np.linspace(-L, L, N)
    w = np.full(N, y[1] - y[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return y, w


def _default_halfwidth(tau: float) -> float:
    return max(10.0, 10.0 / math.sqrt(abs(tau)))


def _default_nodes(L: float, tau: float, qmax: float, band: float) -> int:
    """Node count that keeps the aliasing band of the trapezoid rule out of reach.

    The integrand oscillates at frequency |tau·q| and carries intrinsic
    bandwidth ``band``; the rule is alias-free while pi·N/(2L) clears both.
    """
    needed = abs(tau) * abs(qmax) + band
    return max(64, int(math.ceil(2.0 * L * (needed + 4.0) / math.pi * 1.25)))


# ---------------------------------------------------------------------------
# Fourier-Wigner transform
# ---------------------------------------------------------------------------


def fourier_wigner_table(
    f: Callable,
    g: Callable,
    tau: float,
    qs: np.ndarray,
    ps: np.ndarray,
    L: float | None = None,
) -> np.ndarray:
    """V_tau(f,g) tabulated on the outer product of q-nodes and p-nodes.

    Returns a complex array of shape (len(qs), len(ps)).  One N-node trapezoid
    rule on [-L, L] in y is shared by all output nodes; L defaults to
    ``_default_halfwidth(tau)`` and N is always ``_default_nodes``.  The
    oscillatory factor is applied as a (len(qs), N) matrix so the whole table
    is two dense products.
    """
    if tau == 0:
        raise ValueError("Fourier-Wigner transform needs tau != 0")
    qs = np.atleast_1d(np.asarray(qs, dtype=float))
    ps = np.atleast_1d(np.asarray(ps, dtype=float))
    if L is None:
        L = _default_halfwidth(tau)
    band = 14.0 * max(1.0, math.sqrt(abs(tau)))
    N = _default_nodes(L, tau, float(np.max(np.abs(qs))), band)
    y, w = _trapezoid_nodes(L, N)

    # product samples f(y - 2p) conj(g)(y + 2p): shape (N, len(ps))
    ym = y[:, None] - 2.0 * ps[None, :]
    yp = y[:, None] + 2.0 * ps[None, :]
    prod = np.asarray(f(ym)) * np.conjugate(np.asarray(g(yp)))
    guard = float(np.max(np.abs(prod[[0, -1], :]), initial=0.0))
    if guard >= _TAIL_GUARD:
        raise QuadratureTailError(
            f"Fourier-Wigner integrand magnitude {guard:.3e} at the quadrature "
            f"bounds +-{L:g} exceeds the 1e-14 tail guard"
        )
    osc = np.exp(1j * tau * np.outer(qs, y))
    table = osc @ (w[:, None] * prod)
    return table * (math.sqrt(abs(tau)) / math.sqrt(2.0 * math.pi))
