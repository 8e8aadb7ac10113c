"""Acceptance campaign: twelve desk-scale criteria, one verdict line each.

Every test prints exactly one ``[criterion N] PASS/FAIL`` line (run pytest
with ``-s`` to see the lines as they appear) and asserts the conjunction of
its named sub-checks, including the wall-clock budget.  Tolerances are pinned
from rehearsed runs; nothing here is tuned to the random draw — all
randomness is seeded and all thresholds carry real margin.
"""

import itertools
import math
import time

import numpy as np

from heislab import (
    BoxGrid,
    GrowthNonlinearity,
    HeisPoint,
    KirchhoffM,
    KirchhoffProblem,
    ScalarField,
    assemble_twisted,
    cluster_eigenvalues,
    convention_search,
    dilate,
    dirichlet_field,
    eigenfunction_residual,
    energy,
    folland_stein_constant,
    gradient,
    gram_matrix,
    group_mul,
    hw_norm,
    koranyi_dist,
    koranyi_norm,
    landau_structure_fit,
    lowest_eigenvalues,
    mountain_pass_solve,
    mp_geometry_check,
    mp_threshold,
    ps_monitor,
    random_dirichlet_field,
    ray_scan,
    weyl_probe,
)
from heislab.operators import (
    H3,
    HN,
    commutator_check,
    null_covector,
    sublaplacian,
    sublaplacian_expanded,
    symbol_L,
)
from heislab.polyfield import PolyField


def _verdict(num: int, checks: dict[str, bool], note: str = "") -> None:
    ok = all(checks.values())
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}"
    if note:
        line += f" ({note})"
    if not ok:
        line += ": " + ", ".join(name for name, good in checks.items() if not good)
    print(line)
    assert ok, line


def _desk_problem() -> KirchhoffProblem:
    return KirchhoffProblem(
        n=1,
        p=2.0,
        lam=50.0,
        kirchhoff=KirchhoffM.nondegenerate(1.0, 1.0, 1.5),
        nonlinearity=GrowthNonlinearity(r_g=3.5, theta=3.5),
        grid=BoxGrid.cube(4.0, 33, 3),
        potential=1.0,
    )


def _desk_bump_direction(problem: KirchhoffProblem) -> ScalarField:
    bump = dirichlet_field(
        problem.grid,
        lambda *m: np.exp(-sum(c * c for c in m) / (2.0 * 1.2 * 1.2)),
    )
    return ScalarField(problem.grid, bump.values / hw_norm(bump, problem))


def test_criterion_01_group_axioms_and_gauge():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 2

    def sample(count):
        return HeisPoint(
            rng.normal(size=(count, n)),
            rng.normal(size=(count, n)),
            rng.normal(size=count),
        )

    a, b, c, g = (sample(1000) for _ in range(4))
    ab_c = group_mul(group_mul(a, b), c)
    a_bc = group_mul(a, group_mul(b, c))
    assoc = max(
        float(np.max(np.abs(ab_c.x - a_bc.x))),
        float(np.max(np.abs(ab_c.y - a_bc.y))),
        float(np.max(np.abs(ab_c.t - a_bc.t))),
    )
    invariance = float(
        np.max(
            np.abs(
                koranyi_dist(group_mul(g, a), group_mul(g, b)) - koranyi_dist(a, b)
            )
        )
    )
    s = 1.7
    homogeneity = float(
        np.max(np.abs(koranyi_norm(dilate(s, a)) - s * koranyi_norm(a)))
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        1,
        {
            "associativity_1e-12": assoc <= 1e-12,
            "distance_left_invariance_1e-12": invariance <= 1e-12,
            "gauge_1_homogeneity_1e-12": homogeneity <= 1e-12,
            "runtime_lt_1s": elapsed < 1.0,
        },
    )


def test_criterion_02_commutators_polynomial_mode():
    t0 = time.perf_counter()
    worst_hn = 0.0
    nvars = 5  # two horizontal pairs plus the vertical coordinate
    monomials = [
        m for m in itertools.product(range(4), repeat=nvars) if sum(m) <= 3
    ]
    for m in monomials:
        u = PolyField(nvars, {m: 1.0})
        for j in range(2):
            for k in range(2):
                worst_hn = max(worst_hn, commutator_check(j, k, u, HN))
    worst_h3 = 0.0
    for m in itertools.product(range(4), repeat=3):
        if sum(m) <= 3:
            worst_h3 = max(worst_h3, commutator_check(0, 0, PolyField(3, {m: 1.0}), H3))
    elapsed = time.perf_counter() - t0
    _verdict(
        2,
        {
            "hn_bracket_identity_1e-12": worst_hn <= 1e-12,
            "h3_bracket_identity_1e-12": worst_h3 <= 1e-12,
            "runtime_lt_1s": elapsed < 1.0,
        },
    )


def test_criterion_03_operator_identity_refinement():
    t0 = time.perf_counter()
    errors = []
    for h in (0.2, 0.1, 0.05):
        count = int(round(12.0 / h)) + 1
        grid = BoxGrid.cube(6.0, count, 3)
        x, y, t = grid.meshes()
        u = ScalarField(grid, np.exp(-(x * x + y * y + 0.5 * t * t)))
        diff = sublaplacian(u, HN).values - sublaplacian_expanded(u, HN).values
        errors.append(float(np.max(np.abs(diff))))
    factors = [errors[0] / errors[1], errors[1] / errors[2]]
    elapsed = time.perf_counter() - t0
    _verdict(
        3,
        {
            "halving_factor_1_in_window": 3.5 <= factors[0] <= 4.5,
            "halving_factor_2_in_window": 3.5 <= factors[1] <= 4.5,
            "runtime_lt_30s": elapsed < 30.0,
        },
        note=f"factors={factors[0]:.3f},{factors[1]:.3f}",
    )


def test_criterion_04_nowhere_elliptic_symbol():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        pt = HeisPoint(rng.normal(size=1), rng.normal(size=1), rng.normal(size=()))
        worst = max(worst, abs(symbol_L(pt, null_covector(pt, rng.normal()))))
    elapsed = time.perf_counter() - t0
    _verdict(
        4,
        {
            "symbol_exactly_zero_on_null_covectors": worst == 0.0,
            "runtime_lt_5s": elapsed < 5.0,
        },
    )


def test_criterion_05_eigenfunction_family_orthonormality():
    t0 = time.perf_counter()
    deviations = {tau: gram_matrix(3, 3, tau).max_deviation for tau in (0.5, 1.0, 2.0)}
    elapsed = time.perf_counter() - t0
    checks = {
        f"gram_identity_1e-6_tau_{tau}": dev <= 1e-6 for tau, dev in deviations.items()
    }
    checks["runtime_lt_120s"] = elapsed < 120.0
    _verdict(5, checks)


def test_criterion_06_landau_ladder():
    t0 = time.perf_counter()
    grid = BoxGrid((-8.0, -8.0), (8.0, 8.0), (129, 129))
    op = assemble_twisted(1.0, grid)
    # level 3 spans indices 334-473 and level 4 starts at 502: m = 490 holds
    # the whole third level, whose centre the spacing checks read
    eigs, _ = lowest_eigenvalues(op, 490, seed=0)
    fit = landau_structure_fit(eigs, 1.0, n_levels=3)
    c = fit.centers
    last_cluster = cluster_eigenvalues(eigs, rel_gap=fit.rel_gap_used)[-1]
    spacings = (c[1] - c[0], c[2] - c[1])
    spacing_dev = abs(spacings[1] - spacings[0]) / spacings[0]
    ratio_dev = max(
        abs(c[k] / c[0] - (2 * k + 1)) / (2 * k + 1) for k in (1, 2)
    )
    low_center = {1.0: c[0]}
    for tau in (0.5, 2.0):
        eigs_t, _ = lowest_eigenvalues(assemble_twisted(tau, grid), 60, seed=0)
        low_center[tau] = landau_structure_fit(
            eigs_t, tau, n_levels=1, rel_gap=0.01
        ).centers[0]
    linearity_dev = max(
        abs(low_center[tau] / (tau * c[0]) - 1.0) for tau in (0.5, 2.0)
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        6,
        {
            "level_3_complete": last_cluster[0] > c[2],
            "cluster_spacing_2pct": spacing_dev <= 0.02,
            "center_ratio_2k_plus_1_2pct": ratio_dev <= 0.02,
            "lowest_center_linear_in_tau_2pct": linearity_dev <= 0.02,
            "runtime_lt_300s": elapsed < 300.0,
        },
        note=f"kappa0={fit.kappa0:.6f}",
    )


def test_criterion_07_eigenfunction_residuals():
    t0 = time.perf_counter()
    choice = convention_search(0, 1, 1.0, BoxGrid.cube(6.0, 81, 2))
    residuals = {}
    for h, count in ((0.1, 121), (0.05, 241)):
        grid = BoxGrid.cube(6.0, count, 2)
        for j in (0, 1):
            for k in (0, 1):
                residuals[(j, k, h)] = eigenfunction_residual(
                    j, k, 1.0, grid,
                    scaling=choice.scaling, angular_sign=choice.angular_sign,
                )
    fine_ok = all(residuals[(j, k, 0.05)] <= 5e-3 for j in (0, 1) for k in (0, 1))
    factors = [
        residuals[(j, k, 0.1)] / residuals[(j, k, 0.05)] for j in (0, 1) for k in (0, 1)
    ]
    elapsed = time.perf_counter() - t0
    _verdict(
        7,
        {
            "residuals_5e-3_at_h_0.05": fine_ok,
            "order_h2_under_refinement": all(3.0 <= f <= 5.0 for f in factors),
            "runtime_lt_300s": elapsed < 300.0,
        },
        note=f"max_residual={max(residuals[(j, k, 0.05)] for j in (0, 1) for k in (0, 1)):.2e}",
    )


def test_criterion_08_spectrum_probe():
    t0 = time.perf_counter()
    widths = [2.0, 4.0, 8.0, 16.0]
    t_half = 3.0 * max(w * w for w in widths)

    def grid3(half, count):
        return BoxGrid((-half, -half, -t_half), (half, half, t_half), (count, count, 3))

    ladder_grid = grid3(7.0, 201)
    checks: dict[str, bool] = {}
    finals = []
    for lam, k in ((4.0, 0), (12.0, 1), (20.0, 2)):
        res = weyl_probe(lam, k, widths, ladder_grid)
        finals.append(res.residuals[-1])
        checks[f"lam_{lam:g}_strictly_decreasing"] = res.strictly_decreasing
        checks[f"lam_{lam:g}_final_below_0.1"] = res.residuals[-1] <= 0.1
    zero = weyl_probe(0.0, 0, widths, grid3(19.0, 153), tau0_start=0.16)
    finals.append(zero.residuals[-1])
    checks["lam_0_strictly_decreasing"] = zero.strictly_decreasing
    checks["lam_0_final_below_0.1"] = zero.residuals[-1] <= 0.1
    control = weyl_probe(4.0, 0, widths, ladder_grid, probe_lambda=6.0)
    checks["off_ladder_plateaus"] = control.residuals[-1] >= 0.8 * control.residuals[1]
    checks["off_ladder_3x_above"] = control.residuals[-1] >= 3.0 * max(finals)
    elapsed = time.perf_counter() - t0
    checks["runtime_lt_600s"] = elapsed < 600.0
    _verdict(8, checks, note=f"control_final={control.residuals[-1]:.3f}")


def test_criterion_09_gradient_exactness():
    t0 = time.perf_counter()
    problem = _desk_problem()
    w = problem.grid.cell_volume
    rels, orders = [], []
    for i in range(20):
        u = random_dirichlet_field(problem.grid, seed=100 + i)
        v = random_dirichlet_field(problem.grid, seed=300 + i)
        directional = float(np.sum(gradient(u, problem).values * v.values) * w)
        errs = []
        for eps in (1e-4, 5e-5):
            up = ScalarField(problem.grid, u.values + eps * v.values)
            um = ScalarField(problem.grid, u.values - eps * v.values)
            fd = (energy(up, problem) - energy(um, problem)) / (2.0 * eps)
            errs.append(abs(fd - directional))
        rels.append(errs[0] / max(abs(directional), 1e-30))
        orders.append(errs[0] / max(errs[1], 1e-300))
    elapsed = time.perf_counter() - t0
    _verdict(
        9,
        {
            "relative_error_1e-5": max(rels) <= 1e-5,
            "median_order_factor_in_[3,5]": 3.0 <= float(np.median(orders)) <= 5.0,
            "runtime_lt_60s": elapsed < 60.0,
        },
        note=f"max_rel={max(rels):.2e}",
    )


def test_criterion_10_mountain_pass_geometry_and_ray():
    t0 = time.perf_counter()
    problem = _desk_problem()
    v0 = _desk_bump_direction(problem)
    ray = ray_scan(v0, problem, t_max=24.0, steps=200)
    geo = mp_geometry_check(problem)
    elapsed = time.perf_counter() - t0
    _verdict(
        10,
        {
            "ray_peak_positive": ray["t_peak"] > 0 and ray["j_peak"] > 0,
            "ray_sign_change": ray["t_negative"] is not None,
            "ray_tail_strictly_decreasing": ray["tail_decreasing"],
            "rho_positive": geo["rho"] > 0,
            "alpha_positive": geo["alpha"] > 0,
            "runtime_lt_120s": elapsed < 120.0,
        },
    )


def test_criterion_11_mountain_pass_solve():
    t0 = time.perf_counter()
    problem = _desk_problem()
    fs = folland_stein_constant(problem.grid, problem.p, iters=150, seed=0)
    threshold = mp_threshold(problem, fs.value)
    v0 = _desk_bump_direction(problem)
    ray = ray_scan(v0, problem, t_max=24.0, steps=200)
    endpoint = ScalarField(problem.grid, ray["t_negative"] * v0.values)
    mp = mountain_pass_solve(problem, endpoint, max_iter=20000, threshold=float(threshold))
    ps = ps_monitor(mp)
    reduction = mp.gradient_norms[0] / mp.gradient_norm
    elapsed = time.perf_counter() - t0
    _verdict(
        11,
        {
            "converged": bool(mp.flags["converged"]),
            "gradient_reduced_1e4": reduction >= 1e4,
            "critical_point_nonzero": bool(mp.flags["positive_norm"]),
            "energy_positive": bool(mp.flags["positive_energy"]),
            "threshold_comparison_made": mp.flags["below_threshold"] is not None,
            "ps_log_convergent": bool(ps["all_ok"]),
            "runtime_lt_1800s": elapsed < 1800.0,
        },
        note=(
            f"J={mp.energy:.6f} threshold={float(threshold):.6f} "
            f"reduction={reduction:.2e}"
        ),
    )


def test_criterion_12_energy_symmetry():
    t0 = time.perf_counter()
    problem = _desk_problem()
    even = odd = 0
    for i in range(100):
        u = random_dirichlet_field(problem.grid, seed=1000 + i)
        mu = ScalarField(problem.grid, -u.values)
        even += energy(u, problem) == energy(mu, problem)
        odd += np.array_equal(
            gradient(mu, problem).values, -gradient(u, problem).values
        )
    elapsed = time.perf_counter() - t0
    _verdict(
        12,
        {
            "energy_even_bitwise_100_of_100": even == 100,
            "gradient_odd_bitwise_100_of_100": odd == 100,
            "runtime_lt_60s": elapsed < 60.0,
        },
    )
