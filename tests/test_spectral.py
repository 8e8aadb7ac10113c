"""Spectral-lab tests: assembly, eigensolver, ladder fits, conventions, probes.

Oracles: the exact discrete eigenvalues of the 1-d Dirichlet Laplacian,
dense eigh as the reference path for the iterative solver, synthetic ladders
with known constants, the flat-band structure of the assembled operator at a
dense-solvable grid size, and closed-form residual/convergence measurements.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from heislab import (
    BoxGrid,
    LadderFit,
    ScalarField,
    assemble_twisted,
    cluster_eigenvalues,
    convention_search,
    eigenfunction_residual,
    gram_matrix,
    landau_structure_fit,
    lowest_eigenvalues,
    tabulate_eigenfunction,
    twisted_laplacian,
    vertical_bridge_sign,
    weyl_probe,
)
from heislab import cli, spectral
from heislab.exceptions import (
    EigensolverError,
    NoConventionFoundError,
    StructureMismatchError,
)
from heislab.spectral import (
    WeylProbeResult,
    _count_below,
    _rotation_sectors,
    fiber_parts,
)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_fiber_parts_hermitian_pieces():
    grid = BoxGrid((-4.0, -4.0), (4.0, 4.0), (33, 33))
    for M in fiber_parts(grid):
        dev = abs(M - M.getH())
        assert dev.nnz == 0 or dev.max() <= 1e-14


def test_fiber_combination_equals_stencil_exactly():
    # K + s*tau*A + tau^2*C applies the same central differences as the
    # matrix-free stencil; agreement is at rounding level, not O(h^2).
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (61, 61))
    x, y = grid.meshes()
    psi = ((x + 1j * y) * np.exp(-(x * x + y * y) / 2)).astype(np.complex128)
    K, A, C = fiber_parts(grid)
    for s in (1, -1):
        for tau in (0.5, 1.0):
            fib = (K + s * tau * A + tau * tau * C) @ psi.ravel()
            sten = twisted_laplacian(
                ScalarField(grid, psi), tau, angular_sign=s
            ).values.ravel()
            assert np.max(np.abs(fib - sten)) <= 1e-12


def test_assembled_operator_hermitian_with_bare_diagonal():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (41, 41))
    M = assemble_twisted(1.0, grid)
    dev = abs(M - M.getH())
    assert dev.nnz == 0 or dev.max() <= 1e-14
    h0, h1 = grid.spacing
    np.testing.assert_allclose(
        M.diagonal(), np.full(grid.node_count, 2.0 / h0**2 + 2.0 / h1**2), rtol=1e-15
    )


def test_assembled_operator_consistent_with_stencil_order_h2():
    # hop-phase and centered-difference discretizations share the continuum
    # limit; their disagreement on a smooth field decays at O(h^2)
    diffs = {1: [], -1: []}
    for count in (61, 121):
        grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (count, count))
        x, y = grid.meshes()
        psi = ((x + 1j * y) * np.exp(-(x * x + y * y) / 2)).astype(np.complex128)
        for s in (1, -1):
            link = assemble_twisted(1.0, grid, angular_sign=s) @ psi.ravel()
            sten = twisted_laplacian(
                ScalarField(grid, psi), 1.0, angular_sign=s
            ).values.ravel()
            diffs[s].append(float(np.max(np.abs(link - sten))))
    for s in (1, -1):
        assert 3.3 <= diffs[s][0] / diffs[s][1] <= 4.7


def test_assemble_validation():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (41, 41))
    with pytest.raises(ValueError):
        assemble_twisted(0.0, grid)
    with pytest.raises(ValueError):
        assemble_twisted(1.0, grid, angular_sign=2)
    with pytest.raises(ValueError):
        assemble_twisted(1.0, BoxGrid((-1.0,) * 3, (1.0,) * 3, (5, 5, 5)))
    with pytest.warns(UserWarning, match="coarse"):
        assemble_twisted(1.0, BoxGrid((-6.0, -6.0), (6.0, 6.0), (21, 21)))


def test_flat_lowest_band_at_dense_solvable_size():
    # at 45^2 the solver takes the dense path: the lowest Landau level shows
    # up as ~70 near-identical eigenvalues just below 4, with the next level
    # near 11-12 (box-edge states fill part of the gap)
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (45, 45))
    vals, res = lowest_eigenvalues(assemble_twisted(1.0, grid), 140)
    assert 3.7 <= vals[0] <= 4.0
    assert vals[59] - vals[0] <= 0.02
    below_gap = int(np.searchsorted(vals, 4.5))
    assert 60 <= below_gap <= 100
    assert 10.5 <= vals[100] <= 11.9
    _assert_residuals(res, 140)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


def _assert_residuals(res, m):
    assert res.shape == (m,)
    assert np.all(res <= 1e-8)  # the default residual bound


def _dirichlet_1d(n_interior: int, h: float) -> sp.csr_matrix:
    main = np.full(n_interior, 2.0 / h**2)
    off = np.full(n_interior - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def test_dense_path_matches_dirichlet_formula():
    # exact discrete spectrum: (4/h^2) sin^2(k pi / (2(N+1)))
    N, h = 120, 1.0 / 121.0
    vals, _ = lowest_eigenvalues(_dirichlet_1d(N, h), 6)
    k = np.arange(1, 7)
    exact = (4.0 / h**2) * np.sin(k * np.pi / (2 * (N + 1))) ** 2
    # dense-solver error scales with ||A|| ~ 4/h^2, hence the absolute floor
    np.testing.assert_allclose(vals, exact, rtol=1e-10, atol=1e-9)


def test_iterative_path_matches_dense_path():
    N, h = 1200, 1.0 / 1201.0
    A = _dirichlet_1d(N, h)
    dense_vals, _ = lowest_eigenvalues(A, 5, dense_cutoff=2000)
    iter_vals, _ = lowest_eigenvalues(A, 5, dense_cutoff=10)
    np.testing.assert_allclose(iter_vals, dense_vals, rtol=1e-7, atol=1e-8)


def test_sector_path_matches_dense_path_with_degenerate_levels():
    # above the dense cutoff the rotation-symmetric operator is solved per
    # sector; shift-invert Lanczos dropped two copies of the near-degenerate
    # levels here and was first wrong at index 119
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (45, 45))
    A = assemble_twisted(1.0, grid)
    dense_vals, _ = lowest_eigenvalues(A, 140)
    sector_vals, res = lowest_eigenvalues(A, 140, dense_cutoff=10)
    np.testing.assert_allclose(sector_vals, dense_vals, rtol=0, atol=1e-9)
    _assert_residuals(res, 140)


def test_inertia_count_matches_dense_count():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (41, 41))
    A = assemble_twisted(1.0, grid)
    full = np.linalg.eigvalsh(A.toarray())
    for shift in (0.0, 3.9, 4.5, 11.0, 12.5, 20.0, 30.0):
        assert _count_below(A, shift) == np.count_nonzero(full < shift)


def test_rotation_sectors_need_the_symmetry():
    assert _rotation_sectors(_dirichlet_1d(1600, 0.1)) is None
    off_centre = BoxGrid((-6.0, -5.5), (6.0, 6.5), (33, 33))
    assert _rotation_sectors(assemble_twisted(1.0, off_centre)) is None
    centred = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    bases = _rotation_sectors(assemble_twisted(1.0, centred))
    assert [U.shape[1] for U in bases] == [273, 272, 272, 272]


@pytest.mark.parametrize("n, tau", [(n, tau) for n in (33, 65) for tau in (0.5, 1.0, 2.0)])
def test_rotation_sectors_are_invariant(n, tau):
    # A U_q = U_q S_q with S_q = U_q^H A U_q, to the tolerance of the symmetry
    # test itself: a sector pair's residual ||S_q y - theta y|| is then that of
    # the pair (theta, U_q y) of A, to within ||A U_q - U_q S_q||_2
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (n, n))
    A = assemble_twisted(tau, grid)
    tol = 8.0 * np.finfo(float).eps * spectral._max_abs(A)
    for U in _rotation_sectors(A):
        E = A @ U - U @ (U.conj().T @ (A @ U)).real
        assert spectral._max_abs(E) <= tol
        assert sp.linalg.norm(E) <= 1e-4 * 1e-8  # Frobenius, against the residual bound


def test_perturbed_sector_pair_fails_residual_check(monkeypatch):
    # exact pairs of each sector from a dense solve, except that one vector
    # in sector 2 is perturbed: the check in the sector must name that pair
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    A = assemble_twisted(1.0, grid)
    m, share, bad = 100, 25, 7
    parts = []
    for S in [(U.conj().T @ (A @ U)).real.toarray() for U in _rotation_sectors(A)]:
        w, X = np.linalg.eigh(S)
        parts.append((w[:share], X[:, :share]))
    parts[2][1][:, bad] += 1e-6 * np.random.default_rng(0).standard_normal(parts[2][1].shape[0])
    monkeypatch.setattr(spectral, "_krylov_pairs", lambda *args: parts)
    merged = np.argsort(np.concatenate([w for w, _ in parts]), kind="stable")
    index = int(np.flatnonzero(merged == 2 * share + bad)[0])
    assert index < m
    with pytest.raises(EigensolverError, match=rf"eigenpair {index} residual \S+ exceeds 1\.0e-08"):
        lowest_eigenvalues(A, m, dense_cutoff=10)


def test_block_result_missing_a_copy_fails_certificate(monkeypatch):
    N, h = 1200, 1.0 / 1201.0
    A = _dirichlet_1d(N, h)
    vals, vecs = scipy.linalg.eigh(A.toarray(), subset_by_index=[0, 5])
    keep = [0, 1, 2, 3, 5]  # exact pairs, but the fifth eigenvalue is skipped

    def fake_pairs(*args, **kwargs):
        return [(vals[keep], vecs[:, keep])]

    monkeypatch.setattr(spectral, "_krylov_pairs", fake_pairs)
    with pytest.raises(EigensolverError, match="5 eigenvalues below .* returned 4"):
        lowest_eigenvalues(A, 5, dense_cutoff=10)


def test_operator_without_symmetry_keeps_every_copy(monkeypatch):
    # with the sector path off the whole operator is one complex Hermitian
    # block; the cut at m = 140 falls among near-degenerate copies (141
    # eigenvalues lie below 11.27), and every copy must come back
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (45, 45))
    A = assemble_twisted(1.0, grid)
    dense_vals, _ = lowest_eigenvalues(A, 140)
    monkeypatch.setattr(spectral, "_rotation_sectors", lambda A: None)
    krylov_vals, res = lowest_eigenvalues(A, 140, dense_cutoff=10)
    np.testing.assert_allclose(krylov_vals, dense_vals, rtol=0, atol=1e-9)
    _assert_residuals(res, 140)


def _count_dense_eigh(monkeypatch) -> list:
    calls = []
    eigh = spectral.scipy.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectral.scipy.linalg, "eigh", spy)
    return calls


def _dense_sector_values(A, m):
    """The m lowest eigenvalues of A from the dense path on each rotation sector."""
    blocks = [(U.conj().T @ (A @ U)).real.toarray() for U in _rotation_sectors(A)]
    return np.sort(np.concatenate([lowest_eigenvalues(S, m)[0] for S in blocks]))[:m]


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_small_m_sector_path_matches_sector_dense_path(monkeypatch, tau):
    # the oracle is the dense path on each rotation sector
    # 65^2 on [-8, 8]^2 at m = 30, 8 pairs per sector; at tau = 2 each
    # sector's lowest level has about 65 members, its 38th within 6e-5 of
    # its lowest, so a block narrower than the level would miss copies
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    A = assemble_twisted(tau, grid)
    calls = _count_dense_eigh(monkeypatch)
    sector_vals, res = lowest_eigenvalues(A, 30)
    assert calls == []
    np.testing.assert_allclose(sector_vals, _dense_sector_values(A, 30), rtol=0, atol=1e-12)
    _assert_residuals(res, 30)


def test_sector_solve_never_holds_an_eigenvector_block():
    # the m eigenvectors of A as one complex block would take dim * m * 16
    # bytes; the values-only solve must peak below twice that
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    A = assemble_twisted(1.0, grid)
    m = 130
    tracemalloc.start()
    try:
        lowest_eigenvalues(A, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * grid.node_count * m * 16


def test_small_m_sector_solve_factors_at_most_17_times(monkeypatch):
    # 65^2, tau = 2, m = 30: per sector a factor at the floor, an inertia
    # count that sizes the blocks, a factor below the lowest Ritz value and
    # the count below the merged cut, then the certificate: 17
    calls = []
    shifted_lu = spectral._shifted_lu

    def spy(A, shift):
        calls.append(A.shape[0])
        return shifted_lu(A, shift)

    monkeypatch.setattr(spectral, "_shifted_lu", spy)
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    lowest_eigenvalues(assemble_twisted(2.0, grid), 30)
    assert calls.count(grid.node_count) == 1  # the certificate
    assert len(calls) <= 17


def _orthonormal_with_span(Y, Q) -> None:
    p = Y.shape[1]
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(p), 2) <= 1e-13
    # every column of Y lies in the span of Q
    assert np.linalg.norm(Y - Q @ (Q.conj().T @ Y), 2) <= 1e-13 * np.linalg.norm(Y, 2)


def _random_block(dtype, shape=(4160, 60), seed=3):
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal(shape)
    if dtype is complex:
        Y = Y + 1j * rng.standard_normal(shape)
    return np.asfortranarray(Y)


@pytest.mark.parametrize("dtype", [float, complex])
def test_orthonormalize_random_block(monkeypatch, dtype):
    passes = []
    cholesky_qr = spectral._cholesky_qr

    def spy(Y, shift=0.0, limit=0.0):
        passes.append(shift)
        return cholesky_qr(Y, shift, limit)

    monkeypatch.setattr(spectral, "_cholesky_qr", spy)
    Y = _random_block(dtype)
    Q = spectral._orthonormalize(Y.copy(order="F"))
    assert passes == [0.0, 0.0]  # Cholesky-QR run twice, no shifted pass
    _orthonormal_with_span(Y, Q)


@pytest.mark.parametrize("dtype", [float, complex])
def test_orthonormalize_near_parallel_columns_takes_shifted_pass(monkeypatch, dtype):
    passes = []
    cholesky_qr = spectral._cholesky_qr

    def spy(Y, shift=0.0, limit=0.0):
        ok = cholesky_qr(Y, shift, limit)
        passes.append((shift > 0.0, ok))
        return ok

    def no_householder(*args, **kwargs):
        raise AssertionError("shifted Cholesky-QR3 must not need Householder QR here")

    monkeypatch.setattr(spectral, "_cholesky_qr", spy)
    monkeypatch.setattr(spectral.scipy.linalg, "qr", no_householder)
    Y = _random_block(dtype)
    Y[:, 7] = Y[:, 3] + 1e-12 * Y[:, 7]
    assert 1e11 < np.linalg.cond(Y) < 1e13
    Q = spectral._orthonormalize(Y.copy(order="F"))
    # the plain first pass refuses, then shifted Cholesky-QR3
    assert passes == [(False, False), (True, True), (False, True), (False, True)]
    _orthonormal_with_span(Y, Q)


def test_orthonormalize_falls_back_to_householder_on_a_zero_column(monkeypatch):
    calls = []
    qr = spectral.scipy.linalg.qr

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return qr(*args, **kwargs)

    monkeypatch.setattr(spectral.scipy.linalg, "qr", spy)
    Y = _random_block(float, shape=(500, 20))
    Y[:, 5] = 0.0
    Q = spectral._orthonormalize(Y.copy(order="F"))
    assert calls == [(500, 20)]
    assert np.linalg.norm(Q.T @ Q - np.eye(20), 2) <= 1e-13


def _spy_krylov(monkeypatch, drop=None):
    """Record (sector dimension, wanted pairs, whether pairs were locked) per
    Krylov solve; with ``drop``, sector 0's first solve finds one pair more
    and leaves that one out."""
    solves = []
    krylov = spectral._krylov

    def spy(S, want, *args, locked=None, **kwargs):
        solves.append((S.shape[0], want, locked is not None))
        if drop is None or len(solves) > 1:
            return krylov(S, want, *args, locked=locked, **kwargs)
        w, X, width = krylov(S, want + 1, *args, locked=locked, **kwargs)
        keep = np.arange(w.size) != drop
        return w[keep], X[:, keep], width

    monkeypatch.setattr(spectral, "_krylov", spy)
    return solves


@pytest.mark.parametrize("m, drop", [(200, None), (140, 1)])
def test_krylov_path_extends_a_sector_short_of_its_count(monkeypatch, m, drop):
    # 45^2, tau = 1: at m = 200 two sectors hold 51 and 49 of the lowest, so
    # a share of 50 pairs leaves one sector short; at m = 140 (35 per
    # sector) sector 0's first result loses a copy of its lowest level
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (45, 45))
    A = assemble_twisted(1.0, grid)
    dense_vals, _ = lowest_eigenvalues(A, m)
    solves = _spy_krylov(monkeypatch, drop)
    krylov_vals, _ = lowest_eigenvalues(A, m, dense_cutoff=10)
    assert [(n, want) for n, want, _ in solves[:4]] == [(n, m // 4) for n in (507, 506, 506, 506)]
    extended = solves[4:]
    assert extended and all(locked for _, _, locked in extended)
    if drop is not None:
        assert extended == [(507, 35, True)]
    np.testing.assert_allclose(krylov_vals, dense_vals, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [float, complex])
def test_krylov_basis_grows_past_an_invariant_subspace(dtype):
    # two distinct eigenvalues: the first solve makes the basis invariant,
    # so later solved blocks lie in it and the basis must still grow until
    # it holds all 60 copies of the lowest value.  The complex S is the
    # diagonal one turned by a random unitary Q, the spectrum unchanged.
    S = sp.diags(np.repeat([1.0, 2.0], [60, 40])).tocsr()
    if dtype is complex:
        Q = np.linalg.qr(_random_block(complex, shape=(100, 100)))[0]
        S = sp.csr_matrix(Q @ S.toarray() @ Q.conj().T)
    w, X, width = spectral._krylov(
        S, 70, 0.0, 1e-8, np.random.default_rng(0), spectral._Basis(dtype), "the operator"
    )
    assert X.dtype == dtype
    assert width == 60  # the inertia count of the lowest cluster
    np.testing.assert_allclose(w, np.repeat([1.0, 2.0], [60, 10]), rtol=0, atol=1e-12)
    assert np.linalg.norm(X.conj().T @ X - np.eye(70), 2) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_krylov_basis_is_made_once_whatever_the_seed(monkeypatch, seed):
    # one n x n work array serves every sector, n the largest sector: a basis
    # regrown as it filled held two copies while it copied, so the peak
    # memory of a solve hung on whether its random start crossed a regrowth
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    A = assemble_twisted(1.0, grid)
    n = max(U.shape[1] for U in spectral._rotation_sectors(A))
    made = []
    view = spectral._Basis.view

    def spy(self, rows, cols, keep=0):
        V = view(self, rows, cols, keep)
        if not any(flat is self.flat for flat in made):
            made.append(self.flat)
        return V

    monkeypatch.setattr(spectral._Basis, "view", spy)
    lowest_eigenvalues(A, 130, seed=seed)
    assert [flat.size for flat in made] == [0, n * n]


def test_krylov_basis_made_at_the_size_asked_when_n_by_n_is_refused(monkeypatch):
    empty = np.empty

    def refuse_n_by_n(size, dtype=float):
        if size == 50 * 50:
            raise MemoryError
        return empty(size, dtype=dtype)

    basis = spectral._Basis(float)
    monkeypatch.setattr(spectral.np, "empty", refuse_n_by_n)
    basis.view(50, 4)[:] = np.arange(4.0)
    V = basis.view(50, 8, keep=4)
    assert basis.flat.size == 50 * 8
    np.testing.assert_array_equal(V[:, :4], np.tile(np.arange(4.0), (50, 1)))


def test_large_m_takes_the_krylov_path(monkeypatch):
    # no dense eigh, and each sector is first solved for its share m / 4
    calls = _count_dense_eigh(monkeypatch)
    solves = _spy_krylov(monkeypatch)
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    vals, _ = lowest_eigenvalues(assemble_twisted(1.0, grid), 100, dense_cutoff=10)
    assert calls == []
    assert solves[:4] == [(273, 25, False), (272, 25, False), (272, 25, False), (272, 25, False)]
    assert vals.size == 100


def test_krylov_result_missing_a_copy_fails_certificate(monkeypatch):
    # 33^2, tau = 1: the lowest level has copies in every sector; a sector
    # result without one of them must not pass the certificate
    krylov_pairs = spectral._krylov_pairs

    def short_pairs(blocks, m, *args):
        parts = krylov_pairs(blocks, m + 4, *args)  # one pair more per sector
        w, X = parts[0]
        parts[0] = w[1:], X[:, 1:]
        return parts

    monkeypatch.setattr(spectral, "_krylov_pairs", short_pairs)
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    with pytest.raises(EigensolverError, match="inertia certificate failed"):
        lowest_eigenvalues(assemble_twisted(1.0, grid), 100, dense_cutoff=10)


def test_krylov_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    with pytest.raises(
        EigensolverError,
        match=r"Krylov solve in sector 0 did not converge in 1 steps: worst residual .* exceeds 1\.0e-08",
    ):
        lowest_eigenvalues(assemble_twisted(1.0, grid), 100, dense_cutoff=10)


def test_block_iteration_non_convergence_raises(monkeypatch):
    # the small-m inputs the block iteration used to take, one block and
    # m = 30 sectors, now fail through the Krylov solve
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    with pytest.raises(
        EigensolverError,
        match=r"Krylov solve in the operator did not converge in 1 steps: worst residual .* exceeds 1\.0e-08",
    ):
        lowest_eigenvalues(_dirichlet_1d(1200, 1.0 / 1201.0), 5, dense_cutoff=10)
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    with pytest.raises(EigensolverError, match=r"in sector [0-3] did not converge in 1 "):
        lowest_eigenvalues(assemble_twisted(1.0, grid), 30)


def _spectra_csv_bytes(tmp_path, params: dict, seed: int) -> list:
    runs = []
    for sub in ("a", "b"):
        cfg = cli.resolve_config(
            "spectra", {"params": params}, {"out": str(tmp_path / sub), "seed": seed}
        )
        cli.run(cfg)
        runs.append(
            [(tmp_path / sub / name).read_bytes() for name in ("eigenvalues.csv", "ladder.csv")]
        )
    return runs


@pytest.mark.parametrize("m", [30, 130])
def test_spectra_campaign_reproducible_csv(tmp_path, monkeypatch, m):
    # 65^2 takes the Krylov path, whose random columns are seeded
    solves = _spy_krylov(monkeypatch)
    runs = _spectra_csv_bytes(tmp_path, {"counts": 65, "m": m, "levels": 1, "tau": 2.0}, 7)
    assert solves and runs[0] == runs[1]


def test_eigensolver_validation():
    A = _dirichlet_1d(50, 0.1)
    with pytest.raises(ValueError):
        lowest_eigenvalues(A, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(A, 50)


# ---------------------------------------------------------------------------
# clustering and ladder fits
# ---------------------------------------------------------------------------


def test_cluster_eigenvalues_hand_case():
    clusters = cluster_eigenvalues([1.0, 1.01, 2.0, 2.02, 5.0], rel_gap=0.10)
    assert [list(c) for c in clusters] == [[1.0, 1.01], [2.0, 2.02], [5.0]]
    assert cluster_eigenvalues([]) == []


def test_ladder_fit_unit_constant():
    # centers (2k+1) * 0.7 with kappa0 = 1
    tau = 0.7
    eigs = [tau, 3 * tau, 5 * tau]
    fit = landau_structure_fit(eigs, tau)
    assert abs(fit.kappa0 - 1.0) <= 1e-12
    assert fit.max_rel_deviation <= 1e-12
    assert fit.populations == [1, 1, 1]
    assert fit.rel_gap_used == 0.10


def test_ladder_fit_constant_four():
    fit = landau_structure_fit([4.0, 12.0, 20.0], 1.0)
    assert abs(fit.kappa0 - 4.0) <= 1e-12


def test_ladder_fit_adaptive_threshold_with_edge_chain():
    # three tight bands bridged by a chain of straggler states whose spacings
    # sit between the 1% and 10% split thresholds: the coarse pass welds the
    # whole spectrum, the fine pass isolates the bands and the population
    # filter drops the chain singletons
    rng = np.random.default_rng(0)
    bands = [
        4.0 + 1e-7 * rng.standard_normal(30),
        12.0 + 1e-7 * rng.standard_normal(30),
        20.0 + 1e-7 * rng.standard_normal(30),
    ]
    chain = np.concatenate([np.arange(4.3, 11.8, 0.3), np.arange(12.3, 19.8, 0.3)])
    eigs = np.sort(np.concatenate(bands + [chain]))
    assert len(cluster_eigenvalues(eigs, rel_gap=0.10)) == 1  # welded
    fit = landau_structure_fit(eigs, 1.0)
    assert fit.rel_gap_used == 0.01
    assert abs(fit.kappa0 - 4.0) <= 1e-3
    assert fit.populations == [30, 30, 30]


def test_ladder_fit_structure_errors():
    with pytest.raises(StructureMismatchError):
        landau_structure_fit([], 1.0)
    with pytest.raises(StructureMismatchError):
        landau_structure_fit([1.0, 2.0], 1.0)  # two clusters only
    with pytest.raises(StructureMismatchError):
        # geometric spacing is incompatible with an arithmetic ladder
        landau_structure_fit([1.0, 2.0, 4.0, 8.0], 1.0)


def test_ladder_fit_single_level_and_population_override():
    fit = landau_structure_fit([2.0, 2.0, 2.0, 2.5], 0.5, rel_gap=0.01, n_levels=1)
    assert fit.populations[0] == 3
    assert abs(fit.centers[0] - 2.0) <= 1e-12
    assert abs(fit.kappa0 - 4.0) <= 1e-12
    fit2 = landau_structure_fit(
        [1.0, 3.0, 5.0], 1.0, min_population=1, n_levels=3
    )
    assert fit2.populations == [1, 1, 1]


# ---------------------------------------------------------------------------
# eigenfunctions and conventions
# ---------------------------------------------------------------------------


def test_eigenfunction_residual_small_at_adjudicated_convention():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (121, 121))
    for j, k in ((0, 0), (0, 1), (1, 1)):
        r = eigenfunction_residual(j, k, 1.0, grid)
        assert r <= 8e-3  # O(h^2) at h = 0.1
    # the unscaled family is nowhere near an eigenfamily
    assert eigenfunction_residual(0, 0, 1.0, grid, scaling=1.0) >= 0.5


def test_eigenfunction_residual_rejects_zero_field():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (41, 41))
    zero = ScalarField(grid, np.zeros(grid.counts, dtype=np.complex128))
    with pytest.raises(ValueError):
        eigenfunction_residual(0, 0, 1.0, grid, e=zero)


def test_convention_search_adjudicates_scaling_two_plus():
    best = convention_search(0, 1, 1.0, BoxGrid((-6.0, -6.0), (6.0, 6.0), (81, 81)))
    assert best.scaling == 2.0
    assert best.angular_sign == 1
    assert best.residual <= 0.05


def test_convention_search_no_candidate():
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (81, 81))
    with pytest.raises(NoConventionFoundError):
        convention_search(0, 1, 1.0, grid, reject_above=1e-6)


def test_tabulated_eigenfunction_shape_and_center():
    grid = BoxGrid((-5.0, -5.0), (5.0, 5.0), (41, 41))
    e = tabulate_eigenfunction(0, 0, 1.0, grid)
    assert e.values.shape == (41, 41)
    assert e.sup_norm() > 0
    with pytest.raises(ValueError):
        tabulate_eigenfunction(0, 0, 1.0, grid, scaling=0.0)
    with pytest.raises(ValueError):
        tabulate_eigenfunction(0, 0, 1.0, BoxGrid((-1.0,), (1.0,), (9,)))


def test_gram_identity_small_family():
    res = gram_matrix(1, 1, 1.0)
    assert res.matrix.shape == (4, 4)
    assert res.max_deviation <= 1e-6
    # the raw normalization gives every member L^2 norm 1/2
    assert abs(res.family_norm - 0.5) <= 1e-6
    assert all(abs(v - 0.5) <= 1e-6 for v in res.raw_norms)


# ---------------------------------------------------------------------------
# Weyl probes and the vertical bridge
# ---------------------------------------------------------------------------


def _probe_grid(half, count, widths):
    t_half = 3.0 * max(w * w for w in widths)
    return BoxGrid((-half, -half, -t_half), (half, half, t_half), (count, count, 3))


def test_weyl_probe_ladder_residuals_decrease():
    widths = [2.0, 4.0]
    res = weyl_probe(4.0, 0, widths, _probe_grid(6.0, 121, widths))
    assert res.mode == "ladder"
    assert res.strictly_decreasing
    assert res.tau0s == [1.0, 1.0]
    assert res.residuals[1] <= 0.3


def test_weyl_probe_zero_mode():
    # tau0 halves per width; the box must hold the ground state at the
    # smallest tau0 (decay rate tau0 * half^2)
    widths = [2.0, 4.0]
    res = weyl_probe(0.0, 0, widths, _probe_grid(7.0, 71, widths), tau0_start=0.4)
    assert res.mode == "zero"
    assert res.strictly_decreasing
    assert res.tau0s == [0.4, 0.2]


def test_weyl_probe_refines_once_per_tau0_with_per_width_residuals(monkeypatch):
    # one refinement serves every width of a ladder call, and each width's
    # residual and Ritz value are bitwise those of a call that refines anew
    # for that width alone
    widths = [2.0, 4.0, 8.0]
    grid = _probe_grid(6.0, 81, [16.0])
    refine, calls = spectral._refine_eigvec, []
    monkeypatch.setattr(
        spectral, "_refine_eigvec", lambda *a, **kw: calls.append(1) or refine(*a, **kw)
    )
    for probe in (None, 6.0):
        calls.clear()
        res = weyl_probe(12.0, 1, widths, grid, j=1, probe_lambda=probe)
        assert len(calls) == 1
        alone = [weyl_probe(12.0, 1, [w, 2.0 * w], grid, j=1, probe_lambda=probe) for w in widths]
        for field in ("residuals", "eigen_estimates"):
            got = np.array(getattr(res, field))
            want = np.array([getattr(r, field)[0] for r in alone])
            assert got.tobytes() == want.tobytes()
    calls.clear()
    weyl_probe(0.0, 0, widths[:2], _probe_grid(7.0, 71, [16.0]), tau0_start=0.4)
    assert len(calls) == 2  # zero mode: a new tau0 for every width


def test_weyl_probe_validation():
    widths = [2.0, 4.0]
    g = _probe_grid(6.0, 61, widths)
    with pytest.raises(ValueError):
        weyl_probe(-1.0, 0, widths, g)
    with pytest.raises(ValueError):
        weyl_probe(4.0, 0, [2.0], g)
    with pytest.raises(ValueError):
        weyl_probe(4.0, 0, [4.0, 2.0], g)
    with pytest.raises(ValueError):
        weyl_probe(4.0, 0, widths, BoxGrid((-6.0, -6.0), (6.0, 6.0), (61, 61)))
    with pytest.raises(ValueError):
        # t-extent shorter than 3x the widest envelope
        weyl_probe(4.0, 0, widths, BoxGrid((-6.0, -6.0, -10.0), (6.0, 6.0, 10.0), (61, 61, 3)))
    with pytest.raises(ValueError):
        # box too small for the eigenfunction to decay
        weyl_probe(4.0, 0, widths, _probe_grid(1.5, 31, widths))


def test_vertical_bridge_signs_are_opposite():
    assert vertical_bridge_sign("inverse") == -1
    assert vertical_bridge_sign("forward") == 1
    with pytest.raises(ValueError):
        vertical_bridge_sign("sideways")


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------


def test_weyl_result_requires_increasing_widths():
    with pytest.raises(ValueError):
        WeylProbeResult(
            lam=4.0, widths=[4.0, 2.0], residuals=[0.1, 0.2],
            tau0s=[1.0, 1.0], probe_lambda=4.0, mode="ladder",
            eigen_estimates=[4.0, 4.0],
        )


def test_ladder_fit_to_dict_round_trip():
    fit = LadderFit(4.0, 0.01, [4.0, 12.0], [3, 3], 1.0, rel_gap_used=0.03)
    d = fit.to_dict()
    assert d["kappa0"] == 4.0
    assert d["rel_gap_used"] == 0.03
    assert d["populations"] == [3, 3]
