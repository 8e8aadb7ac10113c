"""Spectral-lab tests: assembly, eigensolver, ladder fits, conventions, probes.

Oracles: the exact discrete eigenvalues of the 1-d Dirichlet Laplacian,
dense eigh as the reference path for the iterative solver, synthetic ladders
with known constants, the flat-band structure of the assembled operator at a
dense-solvable grid size, and closed-form residual/convergence measurements.
"""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

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
    vals, vecs = lowest_eigenvalues(assemble_twisted(1.0, grid), 140)
    assert 3.7 <= vals[0] <= 4.0
    assert vals[59] - vals[0] <= 0.02
    below_gap = int(np.searchsorted(vals, 4.5))
    assert 60 <= below_gap <= 100
    assert 10.5 <= vals[100] <= 11.9
    assert vecs.shape == (grid.node_count, 140)


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------


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
    sector_vals, vecs = lowest_eigenvalues(A, 140, dense_cutoff=10)
    np.testing.assert_allclose(sector_vals, dense_vals, rtol=0, atol=1e-9)
    assert vecs.shape == (grid.node_count, 140)


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


def test_block_result_missing_a_copy_fails_certificate(monkeypatch):
    N, h = 1200, 1.0 / 1201.0
    A = _dirichlet_1d(N, h)
    vals, vecs = lowest_eigenvalues(A, 6, dense_cutoff=2000)
    keep = [0, 1, 2, 3, 5]  # exact pairs, but the fifth eigenvalue is skipped

    def fake_pairs(*args, **kwargs):
        return [(vals[keep], vecs[:, keep])]

    monkeypatch.setattr(spectral, "_shift_invert_pairs", fake_pairs)
    with pytest.raises(EigensolverError, match="5 eigenvalues below .* returned 4"):
        lowest_eigenvalues(A, 5, dense_cutoff=10)


def test_block_iteration_non_convergence_raises(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITER", 1)
    with pytest.raises(
        EigensolverError,
        match=r"in the operator did not converge in 1 iterations: worst residual .* exceeds 1\.0e-08",
    ):
        lowest_eigenvalues(_dirichlet_1d(1200, 1.0 / 1201.0), 5, dense_cutoff=10)
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    with pytest.raises(EigensolverError, match=r"in sector [0-3] did not converge in 1 "):
        lowest_eigenvalues(assemble_twisted(1.0, grid), 30)


def test_operator_without_symmetry_keeps_every_copy(monkeypatch):
    # with the sector path off the whole operator is one block; the cut at
    # m = 140 falls among near-degenerate copies (141 eigenvalues lie below
    # 11.27), and every copy must come back
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (45, 45))
    A = assemble_twisted(1.0, grid)
    dense_vals, _ = lowest_eigenvalues(A, 140)
    monkeypatch.setattr(spectral, "_rotation_sectors", lambda A: None)
    block_vals, vecs = lowest_eigenvalues(A, 140, dense_cutoff=10)
    np.testing.assert_allclose(block_vals, dense_vals, rtol=0, atol=1e-9)
    assert vecs.shape == (grid.node_count, 140)


def _count_dense_eigh(monkeypatch) -> list:
    calls = []
    eigh = spectral.scipy.linalg.eigh

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(spectral.scipy.linalg, "eigh", spy)
    return calls


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
def test_block_path_matches_sector_dense_path(monkeypatch, tau):
    # 65^2 on [-8, 8]^2 at m = 30 takes the block path; at tau = 2 each
    # sector's lowest level has about 65 members, its 38th within 6e-5 of
    # its lowest, so a fixed block of m + m/4 = 38 columns would end inside it
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (65, 65))
    A = assemble_twisted(tau, grid)
    calls = _count_dense_eigh(monkeypatch)
    block_vals, vecs = lowest_eigenvalues(A, 30)
    assert calls == []
    monkeypatch.setattr(spectral, "BLOCK_RATIO", A.shape[0])
    dense_vals, _ = lowest_eigenvalues(A, 30)
    assert len(calls) == 4
    np.testing.assert_allclose(block_vals, dense_vals, rtol=0, atol=1e-12)
    assert vecs.shape == (grid.node_count, 30)


def test_large_m_takes_the_sector_dense_path(monkeypatch):
    def no_block(*args, **kwargs):
        raise AssertionError("large m must not take the block path")

    monkeypatch.setattr(spectral, "_shift_invert_pairs", no_block)
    calls = _count_dense_eigh(monkeypatch)
    grid = BoxGrid((-6.0, -6.0), (6.0, 6.0), (33, 33))
    vals, _ = lowest_eigenvalues(assemble_twisted(1.0, grid), 30, dense_cutoff=10)
    assert calls == [(273, 273), (272, 272), (272, 272), (272, 272)]
    assert vals.size == 30


def test_spectra_campaign_block_path_reproducible_csv(tmp_path):
    # m = 30 at 65^2 takes the block path, whose start block is seeded
    csv_bytes = []
    for sub in ("a", "b"):
        cfg = cli.resolve_config(
            "spectra",
            {"params": {"counts": 65, "m": 30, "levels": 1, "tau": 2.0}},
            {"out": str(tmp_path / sub), "seed": 7},
        )
        cli.run(cfg)
        csv_bytes.append(
            [(tmp_path / sub / name).read_bytes() for name in ("eigenvalues.csv", "ladder.csv")]
        )
    assert csv_bytes[0] == csv_bytes[1]


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
