"""Independent checks of the benchmark's outputs.

Everything here is computed apart from heislab: the link-phase twisted
operator is assembled from the formula in ``assemble_twisted``'s docstring,
eigenvalue counts come from an LDL^H inertia in another ordering than the
program's own certificate, and the Kirchhoff energy, its gradient and the
Folland-Stein quotient are built from sparse difference matrices following
the ``heislab.variational`` docstring.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

CUT = 1e-8  # eigenvalue offset of the inertia counts, the program's residual bound


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


def twisted_operator(tau: float, half: float, n: int) -> sp.csc_matrix:
    """Link-phase twisted Laplacian on the n x n grid of [-half, half]^2.

    ``(-i grad - A)^2`` with ``A = 2 tau (-y_2, y_1)``: the diagonal is
    ``2/h^2 + 2/h^2`` and the hop from node x to its neighbour x + h e_k in
    row x is ``-exp(-i h A_k(link midpoint)) / h^2``.  Nodes are row-major,
    axis 0 first.
    """
    c = np.linspace(-half, half, n)
    h = 2.0 * half / (n - 1)
    node = np.arange(n * n).reshape(n, n)
    y1, y2 = np.meshgrid(c, c, indexing="ij")
    # axis-0 links (i, j) -> (i + 1, j): midpoint y_2 = c[j], A_0 = -2 tau y_2
    a0 = -2.0 * tau * y2[:-1, :]
    # axis-1 links (i, j) -> (i, j + 1): midpoint y_1 = c[i], A_1 = 2 tau y_1
    a1 = 2.0 * tau * y1[:, :-1]
    src = np.concatenate([node[:-1, :].ravel(), node[:, :-1].ravel()])
    dst = np.concatenate([node[1:, :].ravel(), node[:, 1:].ravel()])
    hop = -np.exp(-1j * h * np.concatenate([a0.ravel(), a1.ravel()])) / (h * h)
    rows = np.concatenate([node.ravel(), src, dst])
    cols = np.concatenate([node.ravel(), dst, src])
    vals = np.concatenate([np.full(n * n, 4.0 / (h * h), dtype=complex), hop, hop.conj()])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n * n, n * n))


def count_below(A: sp.spmatrix, shift: float) -> int:
    """Eigenvalues of Hermitian A below ``shift``, from the inertia of A - shift I.

    A sparse LU with diagonal pivots under one symmetric permutation (COLAMD
    order, unlike the program's own certificate) is P^T L D L^H P up to the
    scaling of L; the signs of D's real diagonal count the eigenvalues below
    the shift (Sylvester's law of inertia).
    """
    eye = sp.identity(A.shape[0], dtype=A.dtype, format="csc")
    lu = spla.splu(
        (A - shift * eye).tocsc(),
        permc_spec="COLAMD",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise ArithmeticError(f"inertia factorization at {shift:.10g} pivoted off the diagonal")
    return int(np.count_nonzero(lu.U.diagonal().real < 0))


def clusters(eigs, rel_gap: float) -> list[np.ndarray]:
    """Split sorted values where the gap exceeds ``rel_gap`` of the upper value."""
    e = np.sort(np.asarray(eigs, dtype=float))
    cuts = np.flatnonzero(np.diff(e) > rel_gap * np.abs(e[1:])) + 1
    return np.split(e, cuts)


def check_spectrum(
    A_program: sp.spmatrix,
    A: sp.spmatrix,
    eigs,
    tau: float,
    ladder: dict | None,
    levels: int,
    sample: np.ndarray,
) -> list[str]:
    """The returned spectrum is the m lowest of A, counting multiplicity.

    ``A_program`` is heislab's operator, ``A`` the one assembled here;
    ``sample`` holds the eigenvalue indices whose position is certified one
    by one.  With three or more levels the third must be complete.
    """
    fails = []
    eigs = np.asarray(eigs, dtype=float)
    m = eigs.size
    diff = abs(A_program - A).max() if (A_program - A).nnz else 0.0
    if diff > 8.0 * np.finfo(float).eps * abs(A).max():
        fails.append(f"assembled operator differs from the program's by {diff:.3e}")
    if np.any(np.diff(eigs) < 0):
        fails.append("eigenvalues are not ascending")
    cut = eigs[-1] - CUT
    below = count_below(A, cut)
    returned = int(np.count_nonzero(eigs < cut))
    if below != returned:
        fails.append(f"{below} eigenvalues lie below {cut:.10g}, {returned} returned")
    for i in sample:
        lo, hi = count_below(A, eigs[i] - CUT), count_below(A, eigs[i] + CUT)
        if not lo <= i < hi:
            fails.append(f"eigenvalue {i} = {eigs[i]:.10g} has index range [{lo}, {hi})")
    if ladder is None:
        return fails + ["the campaign fitted no ladder"]
    centres = ladder["centers"]
    if len(centres) != levels:
        fails.append(f"{len(centres)} ladder centres, {levels} asked")
    for k, centre in enumerate(centres):
        model = 4.0 * (2 * k + 1) * abs(tau)
        if abs(centre - model) > 0.02 * model:
            fails.append(f"level {k} centre {centre:.6f} is not within 2% of {model:g}")
    if levels >= 3:
        split = clusters(eigs, ladder["rel_gap_used"])
        third = min(split, key=lambda c: abs(np.mean(c) - centres[2]))
        if third is split[-1]:
            fails.append("the third level is the last cluster returned")
        inside = count_below(A, third[-1] + CUT) - count_below(A, third[0] - CUT)
        if inside != third.size:
            fails.append(f"the third level holds {inside} eigenvalues, {third.size} returned")
    return fails


# ---------------------------------------------------------------------------
# variational
# ---------------------------------------------------------------------------


class HeisenbergDifferences:
    """X = d_x + 2 y d_t and Y = d_y - 2 x d_t on the n = 1 cube as sparse matrices.

    Central differences with zero ghost values, coordinates (x, y, t) on
    axes 0, 1, 2 of a row-major array; ``w`` is the quadrature weight of a node.
    """

    def __init__(self, half: float, count: int):
        c = np.linspace(-half, half, count)
        h = 2.0 * half / (count - 1)
        d = sp.diags([np.full(count - 1, 0.5 / h), np.full(count - 1, -0.5 / h)], [1, -1])
        eye = sp.identity(count)

        def along(axis, op):
            mats = [eye, eye, eye]
            mats[axis] = op
            return sp.kron(sp.kron(mats[0], mats[1]), mats[2])

        dx, dy, dt = along(0, d), along(1, d), along(2, d)
        x = along(0, sp.diags(c))
        y = along(1, sp.diags(c))
        self.X = (dx + 2.0 * y @ dt).tocsr()
        self.Y = (dy - 2.0 * x @ dt).tocsr()
        self.shape = (count,) * 3
        self.w = h ** 3
        ring = np.ones(self.shape, dtype=bool)
        ring[1:-1, 1:-1, 1:-1] = False
        self.ring = ring.ravel()

    def grad_sq(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xu, yu = self.X @ u.ravel(), self.Y @ u.ravel()
        return xu, yu, xu * xu + yu * yu


class KirchhoffEnergy:
    """J(u) = Mprim(T)/p - lam int |u|^r/r - int |u|^{p*}/p*, T = ||D_H u||_p^p + int V |u|^p.

    Nondegenerate M(t) = m0 + b t^(kappa - 1), unit weight, constant V.
    """

    def __init__(self, half, count, p, lam, m0, b, kappa, r_g, theta, V):
        self.D = HeisenbergDifferences(half, count)
        self.p, self.lam, self.m0, self.b, self.kappa = p, lam, m0, b, kappa
        self.r_g, self.theta, self.V = r_g, theta, V
        self.p_star = 4.0 * p / (4.0 - p)

    def _t(self, u):
        _, _, g2 = self.D.grad_sq(u)
        return float(np.sum(g2 ** (self.p / 2)) * self.D.w + self.V * np.sum(np.abs(u) ** self.p) * self.D.w)

    def energy(self, u: np.ndarray) -> float:
        t = self._t(u)
        prim = self.m0 * t + self.b * t ** self.kappa / self.kappa
        au = np.abs(u.ravel())
        return (
            prim / self.p
            - self.lam * float(np.sum(au ** self.r_g)) * self.D.w / self.r_g
            - float(np.sum(au ** self.p_star)) * self.D.w / self.p_star
        )

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """L^2 gradient (node weight w) on the interior, zero on the ring."""
        t = self._t(u)
        mval = self.m0 + self.b * t ** (self.kappa - 1)
        xu, yu, g2 = self.D.grad_sq(u)
        weight = g2 ** ((self.p - 2) / 2)
        v = u.ravel()
        au, sg = np.abs(v), np.sign(v)
        quasi = self.D.X.T @ (weight * xu) + self.D.Y.T @ (weight * yu)
        g = (
            mval * (quasi + self.V * sg * au ** (self.p - 1))
            - self.lam * sg * au ** (self.r_g - 1)
            - sg * au ** (self.p_star - 1)
        )
        g[self.D.ring] = 0.0
        return g

    def norm(self, v: np.ndarray) -> float:
        return math.sqrt(float(np.dot(v.ravel(), v.ravel())) * self.D.w)

    def threshold(self, fs_value: float) -> float:
        """Nondegenerate compactness threshold (1/theta - 1/p*) (m0 S)^{p*/(p* - p)}."""
        ps = self.p_star
        return (1.0 / self.theta - 1.0 / ps) * (self.m0 * fs_value) ** (ps / (ps - self.p))


def check_mountain_pass(
    J: KirchhoffEnergy,
    u_star: np.ndarray,
    program_energy: float,
    program_gradient_norm: float,
    first_gradient_norm: float,
    ray: dict,
    ray_direction: np.ndarray,
    program_ray_energies: dict,
    fs_value: float,
    direction: np.ndarray,
) -> list[str]:
    """u_star is a nonzero critical point at the mountain-pass level.

    ``program_ray_energies`` maps t to heislab's ``energy(t * ray_direction)``;
    ``direction`` is a seeded ring-zero field for the finite-difference probe.
    """
    fails = []
    j_star = J.energy(u_star)
    if abs(j_star - program_energy) > 1e-12 * abs(j_star):
        fails.append(f"J(u*) = {j_star!r} here, {program_energy!r} from the program")
    for t, e_prog in program_ray_energies.items():
        e = J.energy(t * ray_direction)
        if abs(e - e_prog) > 1e-12 * max(abs(e), 1e-300):
            fails.append(f"J({t:g} v0) = {e!r} here, {e_prog!r} from the program")
    if np.any(u_star.ravel()[J.D.ring] != 0.0):
        fails.append("u* is not zero on the boundary ring")
    gnorm = J.norm(J.gradient(u_star))
    if abs(gnorm - program_gradient_norm) > 1e-8 * gnorm:
        fails.append(f"|grad J(u*)| = {gnorm!r} here, {program_gradient_norm!r} from the program")
    if not gnorm <= 1e-4 * first_gradient_norm:
        fails.append(
            f"|grad J(u*)| = {gnorm:.3e} exceeds 1e-4 of the first logged {first_gradient_norm:.3e}"
        )

    def central(v, eps):
        jp, jm = J.energy(u_star.ravel() + eps * v), J.energy(u_star.ravel() - eps * v)
        return (jp - jm) / (2 * eps), 64 * np.finfo(float).eps * (abs(jp) + abs(jm)) / (2 * eps)

    for name, v in (("u*", u_star), ("the seeded direction", direction)):
        v = v.ravel() / J.norm(v)
        (d1, rounding), (d2, _) = central(v, 1e-4), central(v, 2e-4)
        # |v| = 1: Cauchy-Schwarz plus the step's truncation and rounding error
        bound = gnorm + abs(d2 - d1) + rounding
        if abs(d1) > bound:
            fails.append(f"dJ(u*) along {name} is {d1:.3e}, above {bound:.3e}")
    if not 0.0 < j_star <= ray["j_peak"]:
        fails.append(f"J(u*) = {j_star:.6g} is not in (0, ray peak {ray['j_peak']:.6g}]")
    limit = J.threshold(fs_value)
    if not j_star < limit:
        fails.append(f"J(u*) = {j_star:.6g} is not below the threshold {limit:.6g}")
    return fails


def check_folland_stein(
    D: HeisenbergDifferences, p: float, minimizer: np.ndarray, value: float, history
) -> list[str]:
    """The reported value is the Sobolev quotient of the returned minimizer."""
    fails = []
    p_star = 4.0 * p / (4.0 - p)
    _, _, g2 = D.grad_sq(minimizer)
    num = float(np.sum(g2 ** (p / 2))) * D.w
    lps = (float(np.sum(np.abs(minimizer) ** p_star)) * D.w) ** (1.0 / p_star)
    q = num / lps ** p
    if abs(q - value) > 1e-10 * abs(q):
        fails.append(f"quotient {q!r} here, {value!r} reported")
    if abs(lps - 1.0) > 1e-12:
        fails.append(f"||u||_p* = {lps!r}, not 1")
    if np.any(minimizer.ravel()[D.ring] != 0.0):
        fails.append("the minimizer is not zero on the boundary ring")
    if np.any(np.diff(history) > 0):
        fails.append("the quotient history increases")
    return fails
