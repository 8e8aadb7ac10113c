"""Spectral verification lab for the twisted Laplacian and the sub-Laplacian.

What lives here:

* sparse assembly of the twisted operator
  ``L_tau = -Delta + 4 |y|^2 tau^2 + angular_sign * 4 i tau (y_1 d/dy_2 - y_2 d/dy_1)``
  on a Dirichlet box (Hermitian by construction).  The assembled matrix uses
  a gauge-invariant link-phase discretization: complex phases on the hop
  terms carry the whole vector potential, which keeps each Landau level a
  single tight band.  (A naive centered-difference splitting shifts states
  by O((m h)^2) with their angular momentum m, fanning every level into a
  gapless smear that no clustering can segment.)  The centered-difference
  form survives in ``fiber_parts``/``twisted_laplacian``, where the
  polynomial dependence on tau and the exact match with the 3-d
  sub-Laplacian stencil are what matter;
* a lowest-eigenvalue driver that returns the m smallest eigenvalues
  counting multiplicity: dense below a size cutoff; above it by
  shift-invert block Krylov, per real rotation sector for the symmetric
  twisted operator and on the whole operator otherwise.  Every result above
  the cutoff is certified by Sylvester inertia;
* Landau-ladder structure detection: eigenvalue clustering, population
  filtering (Dirichlet edge states sprinkle small clusters into the spectral
  gaps), and the least-squares ladder constant ``kappa0`` in
  ``center_k = kappa0 * (2k+1) * |tau|``;
* the adjudicated eigenfunction family: the raw Fourier-Wigner family
  ``e_{j,k,tau}`` is *not* an eigenfamily of the twisted Laplacian as-is, but
  its symplectic rescaling ``(q, p) -> (s q, p / s)`` with ``s = 2`` is, with
  eigenvalue ``4 |tau| (2k+1)``.  ``convention_search`` adjudicates the scaling
  and the angular sign empirically over a candidate set;
* Gram matrices of the family (orthogonality is exact; the raw
  normalization gives every member L^2 norm 1/2, which is recorded and divided
  out);
* Weyl sequences witnessing [0, inf) as spectrum of the full sub-Laplacian:
  ``u_m = phi(z) e^{i tau_0 t} exp(-t^2 / (2 sigma_m^2))`` with the vertical
  factor integrated analytically, so the reported residuals are exact for the
  semi-discrete operator (discrete in z, continuum in t);
* the vertical-transform bridge sign: with the unitary transform pair of this
  package, ``(L u)-check(tau) = L_tau-with-angular-sign(-1) u-check(tau)``.

Eigenvalues of every assembled operator are real (Hermitian matrices); reports
carry them sorted ascending.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (
    EigensolverError,
    NoConventionFoundError,
    StructureMismatchError,
)
from .grid import BoxGrid, ScalarField
from .hermite import fourier_wigner_table, hermite_fn_scaled
from .operators import sublaplacian, twisted_laplacian

__all__ = [
    "ConventionChoice",
    "GramResult",
    "LadderFit",
    "WeylProbeResult",
    "assemble_twisted",
    "lowest_eigenvalues",
    "cluster_eigenvalues",
    "landau_structure_fit",
    "tabulate_eigenfunction",
    "eigenfunction_residual",
    "convention_search",
    "gram_matrix",
    "weyl_probe",
    "vertical_bridge_sign",
]


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConventionChoice:
    """Adjudicated conventions: arguments (s q, p/s) and the angular sign."""

    scaling: float
    angular_sign: int
    residual: float

    def to_dict(self) -> dict:
        return {
            "scaling": self.scaling,
            "angular_sign": self.angular_sign,
            "residual": self.residual,
        }


@dataclass
class LadderFit:
    """Least-squares Landau ladder fit: centers ~ kappa0 * (2k+1) * |tau|."""

    kappa0: float
    max_rel_deviation: float
    centers: list[float]
    populations: list[int]
    tau: float
    rel_gap_used: float = 0.10

    def to_dict(self) -> dict:
        return {
            "kappa0": self.kappa0,
            "max_rel_deviation": self.max_rel_deviation,
            "centers": list(self.centers),
            "populations": list(self.populations),
            "tau": self.tau,
            "rel_gap_used": self.rel_gap_used,
        }


@dataclass
class GramResult:
    """Pairwise L^2 inner products of the normalized family {e_{j,k,tau}}."""

    tau: float
    labels: list[tuple[int, int]]
    matrix: np.ndarray
    max_deviation: float
    family_norm: float
    raw_norms: list[float]
    grid: dict

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "labels": [list(l) for l in self.labels],
            "max_deviation": self.max_deviation,
            "family_norm": self.family_norm,
            "raw_norms": list(self.raw_norms),
            "grid": self.grid,
        }


@dataclass
class WeylProbeResult:
    """Approximate-eigenfunction residuals ||(L - lambda) u_m|| / ||u_m||."""

    lam: float
    widths: list[float]
    residuals: list[float]
    tau0s: list[float]
    probe_lambda: float
    mode: str
    eigen_estimates: list[float]

    def __post_init__(self) -> None:
        w = np.asarray(self.widths, dtype=float)
        if w.size and np.any(np.diff(w) <= 0):
            raise ValueError("envelope widths must be strictly increasing")

    @property
    def strictly_decreasing(self) -> bool:
        r = np.asarray(self.residuals)
        return bool(np.all(np.diff(r) < 0))

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "probe_lambda": self.probe_lambda,
            "mode": self.mode,
            "widths": list(self.widths),
            "residuals": list(self.residuals),
            "tau0s": list(self.tau0s),
            "eigen_estimates": list(self.eigen_estimates),
            "strictly_decreasing": self.strictly_decreasing,
        }


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def _diff1(n: int, h: float) -> sp.csr_matrix:
    off = np.full(n - 1, 1.0 / (2.0 * h))
    return sp.diags([off, -off], [1, -1], format="csr")


def _diff2(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, -2.0 / (h * h))
    off = np.full(n - 1, 1.0 / (h * h))
    return sp.diags([off, main, off], [1, 0, -1], format="csr")


def fiber_parts(grid: BoxGrid) -> tuple[sp.csr_matrix, sp.csr_matrix, sp.csr_matrix]:
    """(K, A, C) with L_tau = K + angular_sign * tau * A + tau^2 * C.

    K = -Delta (Dirichlet), A = 4i (y_1 D_2 - y_2 D_1) Hermitian, C = 4 |y|^2.
    Row-major flattening: an operator along axis 0 is kron(Op, I), along axis 1
    kron(I, Op).
    """
    if grid.ndim != 2:
        raise ValueError("fiber operators live on a 2-d grid")
    n0, n1 = grid.counts
    h0, h1 = grid.spacing
    c0 = grid.axis(0)
    c1 = grid.axis(1)
    i0 = sp.identity(n0, format="csr")
    i1 = sp.identity(n1, format="csr")
    K = -(sp.kron(_diff2(n0, h0), i1) + sp.kron(i0, _diff2(n1, h1)))
    A = 4j * (sp.kron(sp.diags(c0), _diff1(n1, h1)) - sp.kron(_diff1(n0, h0), sp.diags(c1)))
    C = 4.0 * (sp.kron(sp.diags(c0 * c0), i1) + sp.kron(i0, sp.diags(c1 * c1)))
    return K.tocsr().astype(np.complex128), A.tocsr(), C.tocsr().astype(np.complex128)


def assemble_twisted(tau: float, grid: BoxGrid, angular_sign: int = 1) -> sp.csr_matrix:
    """Sparse Hermitian gauge-invariant matrix of the twisted Laplacian.

    L_tau = (-i grad - A)^2 with vector potential A = 2 tau s (-y_2, y_1)
    (s the angular sign) is discretized with link phases (Peierls
    substitution): hop terms carry e^{-i h A(midpoint)} and the diagonal is
    the bare 2/h_1^2 + 2/h_2^2.  This is second-order consistent like the
    centered-difference splitting K + s tau A + tau^2 C, but unlike it the
    link form preserves the Landau degeneracy: every level stays a single
    tight band instead of fanning out with O((m h)^2) per angular momentum m,
    which is what makes spectral clustering possible at practical grids.
    The matrix is Hermitian by construction (unitary hops); the Hermitian
    part is taken anyway to scrub rounding asymmetry.
    """
    if tau == 0:
        raise ValueError("twisted operator needs tau != 0")
    if angular_sign not in (1, -1):
        raise ValueError("angular_sign must be +1 or -1")
    if grid.ndim != 2:
        raise ValueError("twisted operator lives on a 2-d grid")
    if min(grid.counts) < 33:
        warnings.warn(
            f"grid {grid.counts} is coarse (fewer than 33 nodes on an axis); "
            "spectral structure may be under-resolved",
            stacklevel=2,
        )
    n0, n1 = grid.counts
    h0, h1 = grid.spacing
    c0 = grid.axis(0)
    c1 = grid.axis(1)
    s = float(angular_sign) * float(tau)
    shift0 = sp.eye(n0, k=1, format="csr")
    shift1 = sp.eye(n1, k=1, format="csr")
    # A = 2 tau s (-c1, c0); link phase = -h * A(midpoint of the link)
    hop0 = sp.kron(shift0, sp.diags(np.exp(2j * s * h0 * c1)))
    hop1 = sp.kron(sp.diags(np.exp(-2j * s * h1 * c0)), shift1)
    eye = sp.identity(n0 * n1, dtype=np.complex128, format="csr")
    M = (2.0 * eye - hop0 - hop0.getH()) / (h0 * h0)
    M = M + (2.0 * eye - hop1 - hop1.getH()) / (h1 * h1)
    M = (M + M.getH()) * 0.5
    return M.tocsr()


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def _max_abs(M: sp.spmatrix) -> float:
    return float(abs(M).max()) if M.nnz else 0.0


def _rotation_sectors(A: sp.csr_matrix) -> list[sp.csr_matrix] | None:
    """Orthonormal real-form bases of the four rotation sectors of A, or None.

    A is read as an operator on the row-major nodes of an n x n grid.  The
    sectors are used only when A commutes with the 90-degree grid rotation P
    (``P A P^T == A``) and the axis flip F maps it to its conjugate
    (``F A F^T == conj(A)``), both to within 8 ulps of max |A_ij|;
    ``assemble_twisted`` has both symmetries on a centred square grid.
    Sector q (``P v = i^q v``) is
    spanned by ``b_r = (1/2) sum_k i^(-k q) e_{P^k r}`` over the 4-node
    rotation orbits, plus the fixed centre node in sector 0.  The antiunitary
    map ``v -> F conj(v)`` commutes with A and keeps each sector, sending b_r
    to a phase times the b of the flipped orbit; phase-fixed combinations of
    the b's are invariant under it, so A is real symmetric in those bases.
    """
    n = math.isqrt(A.shape[0])
    if n * n != A.shape[0]:
        return None
    nodes = np.arange(n * n).reshape(n, n)
    rot = np.rot90(nodes).ravel()
    flip = nodes[:, ::-1].ravel()
    # equal to rounding: linspace coordinates are exactly antisymmetric only
    # at some counts (33, 65, 129), at others (41, 45) they differ by an ulp
    tol = 8.0 * np.finfo(float).eps * _max_abs(A)
    if _max_abs(A[rot][:, rot] - A) > tol or _max_abs(A[flip][:, flip] - A.conj()) > tol:
        return None
    orbits = np.stack([nodes.ravel(), rot, rot[rot], rot[rot[rot]]])
    reps = (orbits.min(axis=0) == nodes.ravel()) & (rot != nodes.ravel())
    members = orbits[:, reps]  # members[k, i] = P^k of the i-th representative
    d4 = members.shape[1]
    orbit_of = np.empty(n * n, dtype=np.intp)
    power_of = np.empty(n * n, dtype=np.intp)
    orbit_of[members] = np.arange(d4)
    power_of[members] = np.arange(4)[:, None]
    # F maps representative i to P^a of representative s, hence b_i to i^(q a) b_s
    s = orbit_of[flip[members[0]]]
    a = power_of[flip[members[0]]]
    idx = np.arange(d4)
    fixed, pair = idx[s == idx], idx[s > idx]
    col_f = np.arange(fixed.size)
    col_p = fixed.size + np.arange(pair.size)
    col_m = col_p + pair.size
    r2 = 1.0 / math.sqrt(2.0)
    unit = np.array([1.0, 1.0j, -1.0, -1.0j])
    centre = np.flatnonzero(rot == nodes.ravel())
    bases = []
    for q in range(4):
        b = sp.csr_matrix(
            (np.repeat(0.5 * unit[(-q * np.arange(4)) % 4], d4),
             (members.ravel(), np.tile(idx, 4))),
            shape=(n * n, d4),
        )
        w = unit[(q * a) % 4]
        # e^{i pi q a / 4} b_i for self-paired orbits; (b_i + w b_s) / sqrt 2
        # and i (b_i - w b_s) / sqrt 2 for orbits the flip swaps
        combine = sp.csr_matrix(
            (np.concatenate([np.exp(0.25j * np.pi * q * a[fixed]),
                             np.full(pair.size, r2), r2 * w[pair],
                             np.full(pair.size, 1j * r2), -1j * r2 * w[pair]]),
             (np.concatenate([fixed, pair, s[pair], pair, s[pair]]),
              np.concatenate([col_f, col_p, col_p, col_m, col_m]))),
            shape=(d4, d4),
        )
        basis = b @ combine
        if q == 0 and centre.size:
            basis = sp.hstack(
                [basis, sp.csr_matrix((np.ones(1), (centre, [0])), shape=(n * n, 1))]
            )
        bases.append(basis.tocsr())
    return bases


def _shifted_lu(A: sp.spmatrix, shift: float):
    """Symmetric-mode sparse LU of ``A - shift I`` and its negative inertia.

    With diagonal pivots only the factorization is ``P^T L D L^H P``; for
    Hermitian A the negative entries of D count the eigenvalues below the
    shift (Sylvester).  The factor also solves ``(A - shift I) x = b``.  A
    shift that is an eigenvalue can leave an exactly zero pivot (a diagonal
    A at its Gershgorin floor); SuperLU's refusal is raised as
    ``EigensolverError`` naming the shift.
    """
    eye = sp.identity(A.shape[0], dtype=A.dtype, format="csc")
    try:
        lu = spla.splu(
            (A - shift * eye).tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise EigensolverError(f"sparse LU at shift {shift:.10g} failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise EigensolverError(
            f"inertia factorization at shift {shift:.10g} pivoted off the "
            "diagonal; the eigenvalue count is not certified"
        )
    return lu, int(np.count_nonzero(lu.U.diagonal().real < 0))


def _count_below(A: sp.spmatrix, shift: float) -> int:
    """Number of eigenvalues of Hermitian A below shift (Sylvester inertia)."""
    return _shifted_lu(A, shift)[1]


def _gershgorin_floor(A: sp.spmatrix) -> float:
    """A lower bound on every eigenvalue of Hermitian A (Gershgorin discs)."""
    diag = A.diagonal()
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag.real - radius))


_BAND = 0.01
_MAX_ITER = 100
# A first Cholesky-QR pass is refused when a column keeps less than this
# fraction of its norm off the span of the columns before it.
_QR_LIMIT = 1e-6
# The Krylov solve runs Rayleigh-Ritz every _RR_EVERY steps; its blocks are
# _PROBE_WIDTH wide until the first one sizes them by inertia.
_RR_EVERY = 4
_PROBE_WIDTH = 8
# A converged Ritz vector whose norm is off 1 by more than this is refused.
_UNIT_DRIFT = 1e-8
# Every eigenpair's residual must be at most this, and the inertia
# certificate counts eigenvalues this far below the m-th.
_RESIDUAL_BOUND = 1e-8


def _cholesky_qr(Y: np.ndarray, shift: float = 0.0, limit: float = 0.0) -> bool:
    """One Cholesky-QR pass in place: ``Y <- Y R^{-1}``, ``R^H R = Y^H Y + shift D``.

    D is the diagonal of the Gram matrix, so the pass behaves the same
    under column scaling.  Returns False, leaving Y as it was, when the
    Cholesky factorization fails or a diagonal entry of R is below
    ``limit`` times the norm of its column of Y.
    """
    herk, trsm = scipy.linalg.blas.get_blas_funcs(
        ("herk" if Y.dtype.kind == "c" else "syrk", "trsm"), (Y,)
    )
    G = herk(1.0, Y, trans=2)  # upper triangle of Y^H Y
    norms2 = G.diagonal().real.copy()
    G[np.diag_indices_from(G)] += shift * norms2
    R, info = scipy.linalg.lapack.get_lapack_funcs("potrf", (G,))(G, overwrite_a=True)
    if info or np.any(R.diagonal().real < limit * np.sqrt(norms2)):
        return False
    trsm(1.0, R, Y, side=1, overwrite_b=True)
    return True


def _orthonormalize(Y: np.ndarray) -> np.ndarray:
    """Orthonormalize the Fortran-ordered columns of Y in place; returns Y.

    Cholesky-QR run twice when the first pass finds the columns well
    conditioned (``_QR_LIMIT``); otherwise shifted Cholesky-QR3 (Fukaya et
    al., SIAM J. Sci. Comput. 42, 2020): a pass on the Gram matrix shifted by
    ``11 (n p + p (p + 1)) eps`` of its diagonal, then two plain passes.
    Householder QR is the fallback when a pass still fails.
    """
    n, p = Y.shape
    ok = _cholesky_qr(Y, limit=_QR_LIMIT)
    if not ok:
        shift = 11.0 * (n * p + p * (p + 1)) * np.finfo(float).eps
        ok = _cholesky_qr(Y, shift=shift) and _cholesky_qr(Y)
    if not (ok and _cholesky_qr(Y)):
        Y[...] = scipy.linalg.qr(Y, mode="economic", check_finite=False)[0]
    return Y


def _column_norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of each column of V, without a temporary of V's size."""
    if V.dtype.kind != "c":
        return np.sqrt(np.einsum("ij,ij->j", V, V))
    re, im = V.real, V.imag
    return np.sqrt(np.einsum("ij,ij->j", re, re) + np.einsum("ij,ij->j", im, im))


def _residuals(S, w: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``||S x - w x||`` for each pair (w, x) of w and the unit columns of X."""
    R = S @ X
    R -= X * w
    return _column_norms(R)


class _Basis:
    """One Fortran-ordered work array for the Krylov bases of every block.

    ``view(n, cols, keep)`` returns an n x cols view of the array's prefix
    that keeps the first ``keep`` columns of the last view with n rows.  The
    array is made n x n, the most an n-row basis uses, so no solve regrows
    and copies it: whether a copy set the peak memory hung on the random
    start.  Only the pages written take memory.  Where that address space
    is refused, the array is made at the size asked.
    """

    def __init__(self, dtype):
        self.flat = np.empty(0, dtype=dtype)

    def view(self, n: int, cols: int, keep: int = 0) -> np.ndarray:
        if n * cols > self.flat.size:
            try:
                grown = np.empty(n * n, dtype=self.flat.dtype)
            except MemoryError:
                grown = np.empty(n * cols, dtype=self.flat.dtype)
            grown[: n * keep] = self.flat[: n * keep]
            self.flat = grown
        return self.flat[: n * cols].reshape((n, cols), order="F")


def _krylov(S, want: int, floor: float, rng, basis: _Basis, where: str,
            locked: np.ndarray | None = None, width: int = 0):
    """Lowest ``want`` eigenpairs of a Hermitian block S by shift-invert block Krylov.

    S is a real symmetric rotation sector or a complex Hermitian operator;
    the basis, its random columns and the projection take the dtype of
    ``basis``.  The basis V starts with the ``locked`` columns, if any, and
    a random block.  Each step solves the newest block with a
    symmetric-mode sparse LU of ``S - sigma I``, reorthogonalizes it twice
    against all of V, orthonormalizes it (``_orthonormalize``) and appends
    it; the projection ``V^H S V`` grows by its block column.  A solved
    column that already lay in V leaves rounding noise, which the second
    pass turns into a new direction, so V keeps growing up to the dimension
    of S, where Rayleigh-Ritz is exact.  Rayleigh-Ritz runs every
    ``_RR_EVERY`` steps, sooner when the residual's rate since the last one
    predicts convergence, and the solve stops when each of the ``want``
    lowest Ritz pairs meets ``_RESIDUAL_BOUND``.  Blocks are ``width`` wide,
    and sigma is ``floor``.  With width 0 the blocks start ``_PROBE_WIDTH``
    wide, and the first Rayleigh-Ritz widens them to S's inertia count below
    ``theta_1 + _BAND |theta_1|``, the multiplicity of the lowest cluster
    (a block narrower than a level misses copies of it); sigma then moves up
    to theta_1 minus its residual when the inertia there shows no
    eigenvalue below.  Each factor is freed before the next is made: two
    SuperLU factors alive at once double its heap.  The dense products go
    through SciPy's BLAS and LAPACK, the library SuperLU calls: NumPy and
    SciPy wheels each bundle an OpenBLAS with its own thread pool, and with
    two threads, alternating between the two made a step about three times
    slower.  Returns the Ritz values, vectors and residuals, and the block width.
    """
    n = S.shape[0]
    dtype = basis.flat.dtype
    gemm = scipy.linalg.blas.get_blas_funcs("gemm", dtype=dtype)
    evr = scipy.linalg.lapack.get_lapack_funcs(
        "heevr" if dtype.kind == "c" else "syevr", dtype=dtype
    )
    lu = _shifted_lu(S, floor)[0]
    V = basis.view(n, 0)
    columns = []  # block columns of V^H S V down to the diagonal, one per block of V
    k = last = 0

    def random(cols):
        Y = rng.standard_normal((n, cols))
        return Y + 1j * rng.standard_normal((n, cols)) if dtype.kind == "c" else Y

    def append(Y):
        nonlocal V, k, last
        last = Y.shape[1]
        if k + last > V.shape[1]:
            V = basis.view(n, min(n, max(2 * V.shape[1], k + last)), keep=k)
        for _ in range(2 if k else 0):
            C = gemm(1.0, V[:, :k], Y, trans_a=2)
            gemm(-1.0, V[:, :k], C, beta=1.0, c=Y, overwrite_c=True)
        _orthonormalize(Y)
        V[:, k:k + last] = Y
        columns.append(gemm(1.0, V[:, :k + last], S @ Y, trans_a=2))
        k += last

    def projection():
        # the upper triangle of V^H S V, which is all that the eigensolver reads
        H = np.empty((k, k), dtype=dtype, order="F")
        j = 0
        for col in columns:
            H[: col.shape[0], j:j + col.shape[1]] = col
            j += col.shape[1]
        return H

    if locked is not None:
        append(np.array(locked, order="F"))
    sized = width > 0
    width = min(width or _PROBE_WIDTH, n - k)
    append(np.asfortranarray(random(width)))
    next_rr, last_rr = _RR_EVERY, None
    for step in range(_MAX_ITER + 1):
        if k == n or step == _MAX_ITER or (step >= next_rr and (k >= want or not sized)):
            top = min(want, k)
            theta, Y, _, _, info = evr(projection(), range="I", il=1, iu=top, overwrite_a=True)
            if info:
                raise EigensolverError(f"Rayleigh-Ritz eigensolve failed (LAPACK info {info})")
            theta = theta[:top]
            X = gemm(1.0, V[:, :k], Y)
            res = _residuals(S, theta, X)
            worst = res.max()
            if top == want and worst <= _RESIDUAL_BOUND:
                # the residuals assume unit vectors: a basis that lost
                # orthonormality shrinks them under the bound
                drift = np.abs(_column_norms(X) - 1.0).max()
                if not drift <= _UNIT_DRIFT:
                    raise EigensolverError(
                        f"Ritz vectors in {where} are not unit vectors (| ||x|| - 1 | "
                        f"up to {drift:.3e}): the Krylov basis lost orthonormality"
                    )
                return theta, X, res, width
            next_rr = step + _RR_EVERY
            if top == want:
                # sooner when the residual's rate since the last one says so
                if last_rr and worst < last_rr[1]:
                    rate = math.log(worst / last_rr[1]) / (step - last_rr[0])
                    next_rr = step + min(_RR_EVERY, max(1, math.ceil(math.log(_RESIDUAL_BOUND / worst) / rate)))
                last_rr = step, worst
            if not sized:
                del lu
                count = _count_below(S, theta[0] + _BAND * abs(theta[0]))
                width, sized = max(width, count), True
                lu, below = _shifted_lu(S, max(theta[0] - max(res[0], _RESIDUAL_BOUND), floor))
                if below:
                    del lu
                    lu = _shifted_lu(S, floor)[0]
        if k == n or step == _MAX_ITER:
            break
        Y = np.empty((n, min(width, n - k)), dtype=dtype, order="F")
        solved = lu.solve(V[:, k - last:k])[:, : Y.shape[1]]
        Y[:, : solved.shape[1]] = solved
        Y[:, solved.shape[1]:] = random(Y.shape[1] - solved.shape[1])
        append(Y)
    raise EigensolverError(
        f"Krylov solve in {where} did not converge in {_MAX_ITER} steps: "
        f"worst residual {worst:.3e} exceeds {_RESIDUAL_BOUND:.1e}"
    )


def _krylov_pairs(blocks, m: int, floor: float, seed: int):
    """(values, residuals) of each Hermitian block's lowest pairs, enough for the merged m.

    The blocks are the four real rotation sectors of an operator with the
    symmetry, or the complex operator itself as one block.  They are solved
    one after another in one work array, each for ``ceil(m / len(blocks))``
    pairs, about its share of the m lowest.  Then each block's inertia
    below ``cut = theta_m - _RESIDUAL_BOUND`` (theta_m the merged m-th value)
    is compared with its values below cut.  A block that holds more, because
    its share was short or its Krylov blocks missed copies of a level, is
    solved again for that count, with its pairs locked into the basis and
    fresh random columns beside them, until its values below cut match the
    count.
    """
    rng = np.random.default_rng(seed)
    basis = _Basis(np.result_type(blocks[0].dtype, float))
    where = [f"sector {q}" for q in range(len(blocks))] if len(blocks) > 1 else ["the operator"]

    def solve(q, want, **kwargs):
        w, X, res, width = _krylov(blocks[q], want, floor, rng, basis, where[q], **kwargs)
        # copied once the solve's LU and temporaries are freed, the pairs sit
        # low in the heap, and the heap above them can be handed back
        return w, X.copy(order="F"), res, width

    want = -(-m // len(blocks))
    parts = [solve(q, min(want, S.shape[0])) for q, S in enumerate(blocks)]
    for q, S in enumerate(blocks):
        # an extension only lowers the cut, below which earlier sectors stay complete
        cut = np.sort(np.concatenate([part[0] for part in parts]))[m - 1] - _RESIDUAL_BOUND
        w, X, res, width = parts[q]
        count = _count_below(S, cut)
        while (have := np.count_nonzero(w < cut)) < count:
            w, X, res, width = solve(q, count, locked=X, width=width)
            if np.count_nonzero(w < cut) <= have:
                raise EigensolverError(
                    f"Krylov solve in {where[q]} found {have} of its "
                    f"{count} eigenvalues below {cut:.10g}"
                )
        parts[q] = w, res
    return parts


def _lowest_pairs(A: sp.csr_matrix, m: int, seed: int):
    """m smallest eigenvalues of A and their residuals in the blocks solved:
    the real rotation sectors where A has them, else A itself."""
    bases = _rotation_sectors(A)
    blocks = [A] if bases is None else [(U.conj().T @ (A @ U)).real for U in bases]
    parts = _krylov_pairs(blocks, m, _gershgorin_floor(A), seed)
    vals = np.concatenate([w for w, _ in parts])
    res = np.concatenate([res for _, res in parts])
    order = np.argsort(vals, kind="stable")[:m]
    return vals[order], res[order]


def lowest_eigenvalues(
    op,
    m: int,
    seed: int = 0,
    dense_cutoff: int = 3000,
) -> tuple[np.ndarray, np.ndarray]:
    """m smallest eigenvalues (ascending) of a Hermitian operator and their residuals.

    The result is the m smallest eigenvalues counting multiplicity: a level
    that is degenerate to rounding contributes every copy below the cut.
    The second array holds each pair's residual ``||B x - lambda x||`` (x a
    unit vector) in the block B it was solved in: A on the dense path and
    without the rotation symmetry, else the sector ``S_q = U_q^H A U_q``.
    U_q is orthonormal with ``A U_q = U_q S_q``, so ``U_q x`` has the same
    residual in A; it is never formed.  No vector outlives the residuals.

    Paths: a dense solve of the m lowest pairs only at dimension
    ``<= dense_cutoff`` (also the oracle path).  Above it, one shift-invert
    block Krylov solve (``_krylov_pairs``) per Hermitian block: the four real rotation sectors of an operator on an
    n x n grid that has the exact rotation and flip symmetries of
    ``_rotation_sectors``, or the whole operator as one block otherwise.
    Each block gets a sparse LU below its spectrum, a basis grown by solved
    blocks as wide as its lowest cluster, and Rayleigh-Ritz on the projected
    block until its share of pairs converges; a block whose inertia below
    the merged cut exceeds its values there is solved again with its pairs
    locked in.  The random columns are drawn from ``seed``.

    Every residual must be ``<= 1e-8`` (``_RESIDUAL_BOUND``).  Every result
    above the dense cutoff is certified by Sylvester inertia of A: the number
    of its eigenvalues below ``lambda_m - 1e-8`` must equal the number
    of returned values below it.

    Raises ``ValueError`` unless 0 < m < dim, and ``EigensolverError`` when
    a Krylov solve does not converge, a pair misses the residual bound, or
    the inertia certificate fails.
    """
    A = op if sp.issparse(op) else sp.csr_matrix(op)
    dim = A.shape[0]
    if not 0 < m < dim:
        raise ValueError(f"need 0 < m < dim, got m={m}, dim={dim}")
    if dim <= dense_cutoff:
        vals, vecs = scipy.linalg.eigh(A.toarray(), subset_by_index=[0, m - 1])
        res = _residuals(A, vals, vecs)
    else:
        vals, res = _lowest_pairs(A.tocsr(), m, seed)
    bad = np.flatnonzero(~(res <= _RESIDUAL_BOUND))  # a NaN residual fails too
    if bad.size:
        i = bad[0]
        raise EigensolverError(
            f"eigenpair {i} residual {res[i]:.3e} exceeds {_RESIDUAL_BOUND:.1e}"
        )
    if dim > dense_cutoff:
        cut = vals[-1] - _RESIDUAL_BOUND
        below = _count_below(A, cut)
        returned = int(np.count_nonzero(vals < cut))
        if below != returned:
            raise EigensolverError(
                f"inertia certificate failed: the operator has {below} "
                f"eigenvalues below {cut:.10g}, the solve returned {returned}"
            )
    return vals, res


# ---------------------------------------------------------------------------
# ladder structure
# ---------------------------------------------------------------------------


def cluster_eigenvalues(eigs, rel_gap: float = 0.10) -> list[np.ndarray]:
    """Split a sorted spectrum into clusters at relative gaps above rel_gap."""
    e = np.sort(np.asarray(eigs, dtype=float))
    if e.size == 0:
        return []
    clusters = [[e[0]]]
    for prev, cur in zip(e[:-1], e[1:]):
        scale = max(abs(prev), abs(cur), 1e-300)
        if (cur - prev) / scale > rel_gap:
            clusters.append([])
        clusters[-1].append(cur)
    return [np.asarray(c) for c in clusters]


# With three or more levels, a gap between cluster centers may differ from
# their mean gap by at most this fraction.
_SPACING_TOL = 0.05


def _ladder_fit_once(eigs, tau: float, rel_gap: float, n_levels: int) -> LadderFit:
    clusters = cluster_eigenvalues(eigs, rel_gap=rel_gap)
    if not clusters:
        raise StructureMismatchError("no eigenvalues to cluster")
    pops = [len(c) for c in clusters]
    biggest = max(pops)
    min_population = 1 if biggest < 2 else max(2, math.ceil(0.05 * biggest))
    kept = [c for c in clusters if len(c) >= min_population]
    if len(kept) < n_levels:
        raise StructureMismatchError(
            f"found {len(kept)} populated clusters, need {n_levels} "
            f"(populations {pops}, threshold {min_population})"
        )
    kept = kept[:n_levels]
    centers = [float(np.mean(c)) for c in kept]
    if n_levels >= 2:
        gaps = np.diff(centers)
        mean_gap = float(np.mean(gaps))
        if mean_gap <= 0:
            raise StructureMismatchError("cluster centers are not increasing")
        if n_levels >= 3:
            worst_gap = float(np.max(np.abs(gaps - mean_gap))) / mean_gap
            if worst_gap > _SPACING_TOL:
                raise StructureMismatchError(
                    f"cluster gaps {gaps.tolist()} deviate {worst_gap:.1%} "
                    f"from equal spacing (tolerance {_SPACING_TOL:.0%})"
                )
    x = np.array([(2 * k + 1) * abs(tau) for k in range(n_levels)])
    y = np.asarray(centers)
    kappa0 = float(np.dot(x, y) / np.dot(x, x))
    dev = float(np.max(np.abs(y - kappa0 * x) / (kappa0 * x)))
    return LadderFit(
        kappa0, dev, centers, [len(c) for c in kept], tau, rel_gap_used=rel_gap
    )


def landau_structure_fit(
    eigs,
    tau: float,
    rel_gap: float | None = None,
    n_levels: int = 3,
) -> LadderFit:
    """Fit the lowest n_levels cluster centers to kappa0 * (2k+1) * |tau|.

    Small clusters (Dirichlet edge states living in the spectral gaps) are
    dropped before the fit: the threshold is max(2, 5% of the largest
    population), disabled when every cluster is a singleton (synthetic input).

    With rel_gap=None the split threshold is chosen adaptively: a coarse 10%
    pass is tried first, then 3% and 1%.  Box truncation strings chains of
    edge states across the gaps between levels with consecutive spacings
    below 10%, which welds the whole spectrum into one cluster at the coarse
    threshold; a finer pass still keeps each quasi-degenerate level together
    (intra-level spread is orders of magnitude below 1%) while cutting the
    edge chains into low-population clusters that the filter discards.  The
    threshold that produced the fit is recorded in ``rel_gap_used``.
    """
    if rel_gap is not None:
        return _ladder_fit_once(eigs, tau, rel_gap, n_levels)
    last_err: StructureMismatchError | None = None
    for trial in (0.10, 0.03, 0.01):
        try:
            return _ladder_fit_once(eigs, tau, trial, n_levels)
        except StructureMismatchError as err:
            last_err = err
    raise StructureMismatchError(
        f"no clustering threshold in (0.10, 0.03, 0.01) resolved "
        f"{n_levels} ladder levels; last failure: {last_err}"
    )


# ---------------------------------------------------------------------------
# eigenfunction family and conventions
# ---------------------------------------------------------------------------


def tabulate_eigenfunction(
    j: int,
    k: int,
    tau: float,
    grid: BoxGrid,
    scaling: float = 2.0,
) -> ScalarField:
    """Tabulate e_{j,k,tau}(s q, p / s) on a 2-d grid (axis 0 = q, axis 1 = p).

    e_{j,k,tau} = V_tau(e_{j,tau}, e_{k,tau}) is the special Hermite family,
    computed by ``fourier_wigner_table`` with its default quadrature.  s = 1 is
    the raw family; s = 2 is the adjudicated eigenfamily of the twisted
    Laplacian.
    """
    if grid.ndim != 2:
        raise ValueError("eigenfunction tabulation needs a 2-d grid")
    if scaling <= 0:
        raise ValueError("scaling must be positive")
    table = fourier_wigner_table(
        partial(hermite_fn_scaled, j, tau),
        partial(hermite_fn_scaled, k, tau),
        tau,
        scaling * grid.axis(0),
        grid.axis(1) / scaling,
    )
    return ScalarField(grid, table.astype(np.complex128))


def eigenfunction_residual(
    j: int,
    k: int,
    tau: float,
    grid: BoxGrid,
    scaling: float = 2.0,
    angular_sign: int = 1,
    kappa0: float = 4.0,
    e: ScalarField | None = None,
) -> float:
    """Relative residual ||L_tau e - lam e|| / (lam ||e||), lam = kappa0 (2k+1)|tau|.

    The denominator carries the full adjudicated eigenvalue (including kappa0)
    so the number is the scale-free relative eigen-residual.
    """
    if e is None:
        e = tabulate_eigenfunction(j, k, tau, grid, scaling=scaling)
    if e.sup_norm() < 1e-12:
        raise ValueError("tabulated eigenfunction is below numerical noise")
    lam = kappa0 * (2 * k + 1) * abs(tau)
    le = twisted_laplacian(e, tau, angular_sign=angular_sign)
    num = ScalarField(grid, le.values - lam * e.values).l2_norm()
    return float(num / (lam * e.l2_norm()))


def convention_search(
    j: int,
    k: int,
    tau: float,
    grid: BoxGrid,
    kappa0: float = 4.0,
    reject_above: float = 0.5,
) -> ConventionChoice:
    """Grid-search the argument scaling in (0.5, 1, 2) and the angular sign in
    (+1, -1); smallest residual wins.

    For j == k the family has no angular momentum and the two signs tie
    exactly; the first candidate sign (+1) is then reported.
    """
    best: ConventionChoice | None = None
    for s in (0.5, 1.0, 2.0):
        e = tabulate_eigenfunction(j, k, tau, grid, scaling=s)
        for sign in (1, -1):
            r = eigenfunction_residual(
                j, k, tau, grid, scaling=s, angular_sign=sign, kappa0=kappa0, e=e
            )
            if best is None or r < best.residual:
                best = ConventionChoice(s, sign, r)
    if best is None or best.residual > reject_above:
        raise NoConventionFoundError(
            f"no candidate convention reaches residual <= {reject_above} "
            f"(best: {best})"
        )
    return best


# ---------------------------------------------------------------------------
# Gram matrix
# ---------------------------------------------------------------------------


def gram_matrix(
    J: int,
    K: int,
    tau: float,
    grid: BoxGrid | None = None,
) -> GramResult:
    """L^2(R^2) Gram matrix of the normalized family {e_{j,k,tau} : j<=J, k<=K}.

    The raw family is orthogonal with every member norm 1/2 (recorded in
    ``family_norm`` / ``raw_norms``); the reported deviation is that of the
    normalized family from the identity.
    """
    if grid is None:
        lq = 14.0 / math.sqrt(abs(tau))
        lp = 4.0 / math.sqrt(abs(tau))
        grid = BoxGrid((-lq, -lp), (lq, lp), (161, 161))
    labels = [(j, k) for j in range(J + 1) for k in range(K + 1)]
    nodes = grid.node_count
    members = np.empty((nodes, len(labels)), dtype=np.complex128)
    for col, (j, k) in enumerate(labels):
        members[:, col] = tabulate_eigenfunction(j, k, tau, grid, scaling=1.0).values.ravel()
    w = grid.cell_volume
    raw = members.conj().T @ members * w
    norms = np.sqrt(np.real(np.diag(raw)))
    normalized = raw / np.outer(norms, norms)
    dev = float(np.max(np.abs(normalized - np.eye(len(labels)))))
    return GramResult(
        tau=tau,
        labels=labels,
        matrix=normalized,
        max_deviation=dev,
        family_norm=float(np.mean(norms)),
        raw_norms=[float(v) for v in norms],
        grid=grid.descriptor(),
    )


# ---------------------------------------------------------------------------
# Weyl spectrum probe
# ---------------------------------------------------------------------------


def _refine_eigvec(
    A: sp.csr_matrix, start: np.ndarray, shift: float, iters: int = 3
) -> tuple[np.ndarray, float]:
    """Rayleigh-quotient inverse iteration from a tabulated start vector.

    A shift that ``_shifted_lu`` refuses is nudged up by 1e-8 relative once.
    """
    v = start.astype(np.complex128)
    v = v / np.linalg.norm(v)
    s = float(shift)
    for _ in range(iters):
        try:
            lu = _shifted_lu(A, s)[0]
        except EigensolverError:
            lu = _shifted_lu(A, s + 1e-8 * max(1.0, abs(s)))[0]
        w = lu.solve(v)
        nw = np.linalg.norm(w)
        if not np.isfinite(nw) or nw == 0.0:
            break
        v = w / nw
        s = float(np.real(np.vdot(v, A @ v)))
    return v, s


def _boundary_fraction(values2d: np.ndarray) -> float:
    edge = max(
        float(np.max(np.abs(values2d[0, :]))),
        float(np.max(np.abs(values2d[-1, :]))),
        float(np.max(np.abs(values2d[:, 0]))),
        float(np.max(np.abs(values2d[:, -1]))),
    )
    return edge / float(np.max(np.abs(values2d)))


def weyl_probe(
    lam: float,
    k: int,
    widths,
    grid3d: BoxGrid,
    j: int = 0,
    kappa0: float = 4.0,
    probe_lambda: float | None = None,
    tau0_start: float = 0.1,
) -> WeylProbeResult:
    """Approximate-eigenfunction residuals for lambda in the spectrum of L.

    Builds u_m(z, t) = phi(z) e^{i tau_0 t} exp(-t^2 / (2 sigma_m^2)) with
    sigma_m = width_m^2 (the squared width matches the anisotropic dilation:
    a vertical extent of gauge size m).  phi is the tabulated adjudicated
    eigenfunction refined by Rayleigh-quotient iteration on the assembled
    fiber operator, once per distinct tau_0 (so once per call in ladder
    mode); the t-direction is integrated in closed form, so each residual is
    exact for the z-discretized operator.

    lam > 0: tau_0 = lam / (kappa0 (2k+1)) puts lam on the ladder.
    lam = 0: a decreasing tau_0 sequence (halving from tau0_start) is paired
    with the widths and phi is the fiber ground state.

    ``probe_lambda`` overrides the lambda used inside the residual (contrast
    controls); the construction still targets ``lam``.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    widths = [float(wd) for wd in widths]
    if len(widths) < 2 or any(b <= a for a, b in zip(widths, widths[1:])):
        raise ValueError("need at least two strictly increasing widths")
    if grid3d.ndim != 3:
        raise ValueError("weyl_probe needs a 3-d grid")
    sigmas = [wd * wd for wd in widths]
    t_half = 0.5 * (grid3d.hi[2] - grid3d.lo[2])
    if t_half < 3.0 * max(sigmas):
        raise ValueError(
            f"vertical box half-width {t_half:g} is below 3x the widest "
            f"envelope sigma={max(sigmas):g}; enlarge the t-extent"
        )
    grid2d = BoxGrid(grid3d.lo[:2], grid3d.hi[:2], grid3d.counts[:2])
    K, A, C = fiber_parts(grid2d)

    def fiber_terms(tau0: float, jj: int, kk: int, lam_probe: float):
        """Refined phi's Rayleigh quotient and the sigma-free residual products."""
        fiber = (K + tau0 * A + (tau0 * tau0) * C).tocsr()
        start = tabulate_eigenfunction(jj, kk, tau0, grid2d).values.ravel()
        target = kappa0 * (2 * kk + 1) * tau0
        phi, ray = _refine_eigvec(fiber, start, target)
        if _boundary_fraction(phi.reshape(grid2d.counts)) > 1e-3:
            raise ValueError(
                "fiber eigenfunction does not decay inside the (x, y) box; "
                "enlarge the horizontal extent"
            )
        v0 = fiber @ phi - lam_probe * phi
        v1 = A @ phi + (2.0 * tau0) * (C @ phi)
        v2 = C @ phi
        pairs = ((v0, v0), (v1, v1), (v0, v2), (v2, v2))
        dots = [float(np.real(np.vdot(x, y))) for x, y in pairs]
        return ray, dots, float(np.real(np.vdot(phi, phi)))

    if lam > 0:
        # ladder mode: one (tau_0, j, k) for every width
        tau0s = [lam / (kappa0 * (2 * k + 1))] * len(sigmas)
        labels, lam_probe, mode = (j, k), lam, "ladder"
    else:
        tau0s = [tau0_start / (2.0 ** i) for i in range(len(sigmas))]
        labels, lam_probe, mode = (0, 0), 0.0, "zero"
    if probe_lambda is not None:
        lam_probe = float(probe_lambda)
    terms: dict[float, tuple] = {}
    residuals: list[float] = []
    rays: list[float] = []
    for tau0, sigma in zip(tau0s, sigmas):
        if tau0 not in terms:
            terms[tau0] = fiber_terms(tau0, *labels, lam_probe)
        ray, (d00, d11, d02, d22), nphi2 = terms[tau0]
        s2 = 1.0 / (2.0 * sigma * sigma)
        r2 = (d00 + s2 * (d11 + 2.0 * d02) + 3.0 * s2 * s2 * d22) / nphi2
        residuals.append(math.sqrt(max(r2, 0.0)))
        rays.append(ray)
    return WeylProbeResult(
        lam=lam,
        widths=widths,
        residuals=residuals,
        tau0s=tau0s,
        probe_lambda=lam_probe,
        mode=mode,
        eigen_estimates=rays,
    )


# ---------------------------------------------------------------------------
# vertical transform bridge
# ---------------------------------------------------------------------------


def vertical_bridge_sign(transform: str = "inverse") -> int:
    """Which angular sign makes (L u)-transformed(tau) = L_tau u-transformed(tau).

    L is the sub-Laplacian on the HN frame.
    ``transform="inverse"`` uses the kernel e^{+i t tau} (the check-accent
    partner of the unitary forward transform), ``"forward"`` uses e^{-i t tau}.
    Adjudicated numerically on a bump with unit angular momentum, on a
    31 x 31 x 181 grid over [-5, 5]^2 x [-18, 18] with a vertical Gaussian of
    width 4; the winner is -1 for the inverse transform and +1 for the
    forward one.
    """
    if transform not in ("inverse", "forward"):
        raise ValueError("transform must be 'inverse' or 'forward'")
    count2d, half2d, t_count, t_half, sigma_t = 31, 5.0, 181, 18.0, 4.0
    grid3 = BoxGrid(
        (-half2d, -half2d, -t_half), (half2d, half2d, t_half),
        (count2d, count2d, t_count),
    )
    x = grid3.axis_mesh(0)
    y = grid3.axis_mesh(1)
    t = grid3.axis_mesh(2)
    phi = (x + 1j * y) * np.exp(-(x * x + y * y) / 2.0)
    u = ScalarField(grid3, phi * np.exp(-(t * t) / (2.0 * sigma_t * sigma_t)))
    lu = sublaplacian(u)

    grid2 = BoxGrid((-half2d, -half2d), (half2d, half2d), (count2d, count2d))
    K, A, C = fiber_parts(grid2)
    ts = grid3.axis(2)
    ht = grid3.spacing[2]
    kernel_sign = 1.0 if transform == "inverse" else -1.0
    taus = np.array([-0.5, -0.25, 0.25, 0.5])
    mismatch = {1: 0.0, -1: 0.0}
    for tau in taus:
        ker = np.exp(kernel_sign * 1j * ts * tau) * ht / math.sqrt(2.0 * math.pi)
        u_hat = np.tensordot(u.values, ker, axes=([2], [0])).ravel()
        lu_hat = np.tensordot(lu.values, ker, axes=([2], [0])).ravel()
        for sign in (1, -1):
            fiber = K + (sign * tau) * A + (tau * tau) * C
            mismatch[sign] += float(np.linalg.norm(lu_hat - fiber @ u_hat))
    return 1 if mismatch[1] <= mismatch[-1] else -1
