"""Variational-solver tests: energy, gradient, thresholds, mountain pass.

Oracles: closed-form Kirchhoff coefficients and thresholds recomputed from
independent arithmetic, an exact 4-term ray decomposition of the energy
rebuilt from quadrature primitives, second-order finite differences against
the assembled gradient, and a closed-form ray peak, checked against dense
energy scans, for the constrained-descent projection.
"""

import math

import numpy as np
import pytest

from heislab import (
    BoxGrid,
    FSResult,
    GrowthNonlinearity,
    KirchhoffM,
    KirchhoffProblem,
    MPResult,
    ScalarField,
    dirichlet_field,
    energy,
    folland_stein_constant,
    gradient,
    horizontal_gradient,
    hw_norm,
    mountain_pass_solve,
    mp_geometry_check,
    mp_threshold,
    ps_monitor,
    random_dirichlet_field,
    ray_scan,
    validate_exponents,
    zero_boundary,
)
from heislab import operators, variational
from heislab.variational import _RayProfile


def desk_problem(counts=9, lam=50.0, half=4.0):
    grid = BoxGrid((-half,) * 3, (half,) * 3, (counts,) * 3)
    return KirchhoffProblem(
        n=1,
        p=2.0,
        lam=lam,
        kirchhoff=KirchhoffM.nondegenerate(1.0, b=1.0, kappa=1.5),
        nonlinearity=GrowthNonlinearity(3.5, 3.5),
        grid=grid,
    )


# ---------------------------------------------------------------------------
# coefficient families and problem data
# ---------------------------------------------------------------------------


def test_kirchhoff_closed_forms():
    K = KirchhoffM.nondegenerate(1.0, b=2.0, kappa=1.5)
    assert K.m(4.0) == pytest.approx(1.0 + 2.0 * 2.0, rel=1e-15)
    assert K.primitive(4.0) == pytest.approx(4.0 + 2.0 * 8.0 / 1.5, rel=1e-15)
    D = KirchhoffM.degenerate(2.0, kappa=2.0)
    assert D.m(3.0) == pytest.approx(6.0, rel=1e-15)
    assert D.primitive(3.0) == pytest.approx(9.0, rel=1e-15)
    assert D.m(0.0) == 0.0  # the degenerate family vanishes at the origin


def test_kirchhoff_validation():
    with pytest.raises(ValueError):
        KirchhoffM.nondegenerate(0.0)
    with pytest.raises(ValueError):
        KirchhoffM.nondegenerate(1.0, b=-1.0)
    with pytest.raises(ValueError):
        KirchhoffM.nondegenerate(1.0, kappa=0.5)
    with pytest.raises(ValueError):
        KirchhoffM.degenerate(-1.0, kappa=2.0)
    with pytest.raises(ValueError):
        KirchhoffM.degenerate(1.0, kappa=1.0)
    with pytest.raises(ValueError):
        KirchhoffM("mystery")
    with pytest.raises(ValueError):
        KirchhoffM.nondegenerate(1.0).m(-1.0)
    with pytest.raises(ValueError):
        KirchhoffM.nondegenerate(1.0).primitive(-0.5)


def test_kirchhoff_superlinearity_margin():
    # kappa * Mprim(t) - M(t) t = m0 t (kappa - 1) >= 0 for the power family
    K = KirchhoffM.nondegenerate(2.0, b=3.0, kappa=2.5)
    for t in (0.1, 1.0, 7.0):
        lhs = K.kappa * K.primitive(t)
        assert lhs >= K.m(t) * t - 1e-12
    D = KirchhoffM.degenerate(1.5, kappa=3.0)
    for t in (0.1, 1.0, 7.0):
        assert D.kappa * D.primitive(t) == pytest.approx(D.m(t) * t, rel=1e-15)


def test_growth_nonlinearity_values_and_validation():
    g = GrowthNonlinearity(3.5, 3.0, weight=2.0)
    assert g.f(2.0, np.array([-3.0]))[0] == pytest.approx(-2.0 * 3.0**2.5, rel=1e-15)
    assert g.big_f(2.0, np.array([-3.0]))[0] == pytest.approx(2.0 * 3.0**3.5 / 3.5, rel=1e-15)
    # theta F <= f t pointwise for t != 0
    t = np.array([0.5, -2.0, 4.0])
    assert np.all(g.theta * g.big_f(1.0, t) <= g.f(1.0, t) * t + 1e-14)
    with pytest.raises(ValueError):
        GrowthNonlinearity(1.0, 1.0)
    with pytest.raises(ValueError):
        GrowthNonlinearity(3.5, 4.0)
    with pytest.raises(ValueError):
        GrowthNonlinearity(3.5, 0.0)
    with pytest.raises(ValueError):
        GrowthNonlinearity(3.5, 3.5, weight=-1.0)


def test_problem_windows_and_pstar():
    prob = desk_problem()
    assert prob.Q == 4
    assert prob.p_star == pytest.approx(4.0, rel=1e-15)
    rep = validate_exponents(prob)
    assert rep["all_ok"]
    assert rep["checks"] == {
        "p_below_Q": True,
        "kappa_window": True,
        "growth_window": True,
        "ar_window": True,
        "ar_compatible": True,
    }


def test_problem_window_violation_reported_not_raised():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    prob = KirchhoffProblem(
        n=1, p=2.0, lam=50.0,
        kirchhoff=KirchhoffM.nondegenerate(1.0, b=1.0, kappa=2.5),
        nonlinearity=GrowthNonlinearity(3.5, 3.5),
        grid=grid,
    )
    rep = validate_exponents(prob)
    assert not rep["all_ok"]
    assert not rep["checks"]["kappa_window"]  # 2.5 >= p*/p = 2
    assert not rep["checks"]["growth_window"]  # p kappa = 5 > r_g


def test_problem_validation():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    K = KirchhoffM.nondegenerate(1.0)
    g = GrowthNonlinearity(3.5, 3.5)
    with pytest.raises(ValueError):
        KirchhoffProblem(n=0, p=2.0, lam=1.0, kirchhoff=K, nonlinearity=g, grid=grid)
    with pytest.raises(ValueError):
        KirchhoffProblem(n=1, p=4.0, lam=1.0, kirchhoff=K, nonlinearity=g, grid=grid)
    with pytest.raises(ValueError):
        KirchhoffProblem(n=1, p=2.0, lam=-1.0, kirchhoff=K, nonlinearity=g, grid=grid)
    with pytest.raises(ValueError):
        KirchhoffProblem(
            n=2, p=2.0, lam=1.0, kirchhoff=K, nonlinearity=g, grid=grid
        )  # needs a 5-d grid
    with pytest.raises(ValueError):
        KirchhoffProblem(
            n=1, p=2.0, lam=1.0, kirchhoff=K, nonlinearity=g, grid=grid,
            potential=lambda x, y, t: 1.0 + 0.0 * x,
        )  # callable potential without v0
    with pytest.raises(ValueError):
        KirchhoffProblem(
            n=1, p=2.0, lam=1.0, kirchhoff=K, nonlinearity=g, grid=grid,
            potential=lambda x, y, t: 0.1 + 0.0 * x, v0=0.5,
        )  # potential dips below its declared bound


# ---------------------------------------------------------------------------
# admissible fields
# ---------------------------------------------------------------------------


def test_random_dirichlet_field_deterministic_and_ring_zero():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    a = random_dirichlet_field(grid, seed=3)
    b = random_dirichlet_field(grid, seed=3)
    c = random_dirichlet_field(grid, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values[0, :, :] == 0.0)
    assert np.all(a.values[:, -1, :] == 0.0)
    assert np.all(a.values[:, :, 0] == 0.0)
    assert a.sup_norm() > 0


def test_zero_boundary_and_admissibility():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    prob = desk_problem()
    x, y, t = grid.meshes()
    raw = ScalarField(grid, np.exp(-(x * x + y * y + t * t)))
    with pytest.raises(ValueError):
        energy(raw, prob)  # nonzero ring
    ok = zero_boundary(raw)
    assert energy(ok, prob) != 0.0
    other = random_dirichlet_field(BoxGrid((-4.0,) * 3, (4.0,) * 3, (11,) * 3), seed=0)
    with pytest.raises(ValueError):
        energy(other, prob)  # wrong grid
    cplx = ScalarField(grid, np.zeros(grid.counts, dtype=np.complex128))
    with pytest.raises(ValueError):
        energy(cplx, prob)  # complex field


def test_hw_norm_homogeneity():
    prob = desk_problem()
    u = random_dirichlet_field(prob.grid, seed=2)
    n1 = hw_norm(u, prob)
    n3 = hw_norm(ScalarField(prob.grid, 3.0 * u.values), prob)
    assert n3 == pytest.approx(3.0 * n1, rel=1e-12)
    assert hw_norm(ScalarField(prob.grid, np.zeros(prob.grid.counts)), prob) == 0.0


# ---------------------------------------------------------------------------
# energy and gradient
# ---------------------------------------------------------------------------


def test_energy_zero_field():
    prob = desk_problem()
    z = ScalarField(prob.grid, np.zeros(prob.grid.counts))
    assert energy(z, prob) == 0.0


def test_energy_ray_decomposition_exact():
    # J(t u) = [m0 t^2 T + b t^3 T^1.5 / 1.5]/2 - lam t^3.5 F - t^4 C/4 with
    # T, F, C rebuilt from quadrature primitives independent of energy()
    prob = desk_problem()
    grid = prob.grid
    w = grid.cell_volume
    u = random_dirichlet_field(grid, seed=5, bumps=2)
    norm2 = np.zeros(grid.counts)
    for comp in horizontal_gradient(u).components:
        norm2 += comp.values**2
    T = float(np.sum(norm2) * w) + float(np.sum(u.values**2) * w)
    F = float(np.sum(np.abs(u.values) ** 3.5) * w) / 3.5
    C = float(np.sum(np.abs(u.values) ** 4) * w)
    for t in (0.5, 1.0, 2.0):
        model = (
            (1.0 * t**2 * T + 1.0 * (t**2 * T) ** 1.5 / 1.5) / 2.0
            - 50.0 * t**3.5 * F
            - t**4 * C / 4.0
        )
        got = energy(ScalarField(grid, t * u.values), prob)
        assert got == pytest.approx(model, rel=1e-12)


def test_gradient_matches_directional_derivative():
    prob = desk_problem()
    grid = prob.grid
    w = grid.cell_volume
    ratios = []
    for i in range(5):
        u = random_dirichlet_field(grid, seed=10 + i, bumps=2)
        v = random_dirichlet_field(grid, seed=40 + i, bumps=2)
        gv = float(np.sum(gradient(u, prob).values * v.values) * w)
        errs = []
        for eps in (1e-4, 5e-5):
            jp = energy(ScalarField(grid, u.values + eps * v.values), prob)
            jm = energy(ScalarField(grid, u.values - eps * v.values), prob)
            errs.append(abs((jp - jm) / (2 * eps) - gv))
        rel = errs[0] / max(abs(gv), 1e-30)
        assert rel <= 1e-6
        ratios.append((errs[0], errs[0] / max(errs[1], 1e-300)))
    # order-2 factor ~4 between the epsilons, read off the least noisy pair
    err, factor = max(ratios, key=lambda r: r[0])
    assert 2.5 <= factor <= 6.5


def test_energy_and_gradient_odd_symmetry_bitwise():
    prob = desk_problem()
    for seed in range(5):
        u = random_dirichlet_field(prob.grid, seed=seed, bumps=2, rough=0.01)
        neg = ScalarField(prob.grid, -u.values)
        assert energy(neg, prob) == energy(u, prob)
        assert np.array_equal(gradient(neg, prob).values, -gradient(u, prob).values)


def test_gradient_vanishes_on_ring():
    prob = desk_problem()
    u = random_dirichlet_field(prob.grid, seed=8)
    g = gradient(u, prob)
    assert np.all(g.values[0, :, :] == 0.0)
    assert np.all(g.values[:, :, -1] == 0.0)


# ---------------------------------------------------------------------------
# Folland-Stein quotient
# ---------------------------------------------------------------------------


def test_folland_stein_monotone_and_deterministic():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (13,) * 3)
    fs = folland_stein_constant(grid, 2.0, iters=40, seed=0)
    assert fs.value > 0
    assert fs.monotone
    assert fs.history[-1] <= fs.history[0]
    assert fs.p_star == pytest.approx(4.0, rel=1e-15)
    again = folland_stein_constant(grid, 2.0, iters=40, seed=0)
    assert again.value == fs.value
    d = fs.to_dict()
    assert d["history_last"] == fs.value
    assert d["monotone"] is True


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_descents_evaluate_each_horizontal_gradient_once(monkeypatch, p):
    # `gradient` shares one D_H u between its norm and divergence terms; the
    # Folland-Stein descent evaluates D_H once for the start field and once per
    # line-search trial, reusing an accepted trial's D_H u for its next step.
    seen = []

    def counting(u, *args, **kwargs):
        seen.append(u.values.copy())
        return horizontal_gradient(u, *args, **kwargs)

    monkeypatch.setattr(operators, "horizontal_gradient", counting)
    monkeypatch.setattr(variational, "horizontal_gradient", counting)
    prob = desk_problem()
    gradient(random_dirichlet_field(prob.grid, seed=3, bumps=2), prob)
    assert len(seen) == 1

    seen.clear()
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    fs = folland_stein_constant(grid, p, iters=15, seed=2)
    monkeypatch.undo()
    assert fs.iterations == 15 and not fs.stagnated
    # no field is evaluated twice
    assert len({v.tobytes() for v in seen}) == len(seen)
    # replaying the acceptance rule on the evaluated fields gives the history:
    # the first is the start field and every later one is a trial
    w = grid.cell_volume

    def quotient(vals):
        grad = horizontal_gradient(ScalarField(grid, vals))
        norm2 = sum(c.values * c.values for c in grad.components)
        return float(np.sum(norm2 ** (p / 2.0)) * w) / float(
            np.sum(np.abs(vals) ** fs.p_star) * w
        ) ** (p / fs.p_star)

    history = [quotient(seen[0])]
    for vals in seen[1:]:
        tq = quotient(vals)
        if tq < history[-1] - 1e-12 * (1.0 + abs(history[-1])):
            history.append(tq)
    assert len(seen) >= 1 + fs.iterations
    assert history == pytest.approx(fs.history, rel=1e-12)


def test_folland_stein_exponent_window():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    with pytest.raises(ValueError):
        folland_stein_constant(grid, 4.0, iters=5)
    with pytest.raises(ValueError):
        folland_stein_constant(grid, 1.0, iters=5)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------


def test_mp_threshold_desk_unit_constant():
    # (1/theta - 1/p*) (m0 C)^{p*/(p*-p)} = (2/7 - 1/4) * 1 = 1/28 at C = 1
    prob = desk_problem()
    one = KirchhoffProblem(
        n=1, p=2.0, lam=50.0,
        kirchhoff=KirchhoffM.nondegenerate(1.0),
        nonlinearity=GrowthNonlinearity(3.5, 3.5),
        grid=prob.grid,
    )
    assert mp_threshold(one, 1.0) == pytest.approx(1.0 / 28.0, rel=1e-15)


def test_mp_threshold_log_rederivation():
    prob = desk_problem()
    C = 0.83
    got = mp_threshold(prob, C)
    pref = 1.0 / 3.5 - 1.0 / 4.0
    expo = 4.0 / (4.0 - 2.0)
    expected = pref * math.exp(expo * math.log(1.0 * C))
    assert got == pytest.approx(expected, rel=1e-14)


def test_mp_threshold_degenerate_hand_value():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    prob = KirchhoffProblem(
        n=1, p=2.0, lam=1.0,
        kirchhoff=KirchhoffM.degenerate(2.0, kappa=1.5),
        nonlinearity=GrowthNonlinearity(3.5, 3.5),
        grid=grid,
    )
    C = 0.8
    # pref (m1 C^kappa)^{p*/(p* - p kappa)} = (1/28) (2 * 0.8^1.5)^4
    expected = (1.0 / 28.0) * (2.0 * 0.8**1.5) ** 4
    assert mp_threshold(prob, C) == pytest.approx(expected, rel=1e-14)
    # any alternative coefficient is reproducible via the override
    overridden = mp_threshold(prob, C, m_coef=5.0)
    assert overridden == pytest.approx((1.0 / 28.0) * (5.0 * 0.8**1.5) ** 4, rel=1e-14)


def test_mp_threshold_window_errors():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    bad_theta = KirchhoffProblem(
        n=1, p=3.0, lam=1.0,
        kirchhoff=KirchhoffM.nondegenerate(1.0),
        nonlinearity=GrowthNonlinearity(13.0, 13.0),
        grid=grid,
    )  # theta = 13 > p* = 12
    with pytest.raises(ValueError):
        mp_threshold(bad_theta, 1.0)
    deg = KirchhoffProblem(
        n=1, p=2.0, lam=1.0,
        kirchhoff=KirchhoffM.degenerate(1.0, kappa=2.0),
        nonlinearity=GrowthNonlinearity(3.5, 3.5),
        grid=grid,
    )  # p kappa = 4 = p*
    with pytest.raises(ValueError):
        mp_threshold(deg, 1.0)


# ---------------------------------------------------------------------------
# ray scan and mountain-pass geometry
# ---------------------------------------------------------------------------


def test_ray_scan_profile_properties():
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    rs = ray_scan(v0, prob, t_max=60.0, steps=400)
    assert rs["t_peak"] > 0
    assert rs["j_peak"] > 0
    assert rs["t_negative"] > rs["t_peak"]
    assert rs["tail_decreasing"]
    assert rs["energies"][0] == 0.0


def test_ray_peak_moves_down_with_lambda():
    prob50 = desk_problem(lam=50.0)
    prob100 = desk_problem(lam=100.0)
    raw = random_dirichlet_field(prob50.grid, seed=1, bumps=2)
    v50 = ScalarField(prob50.grid, raw.values / hw_norm(raw, prob50))
    v100 = ScalarField(prob100.grid, raw.values / hw_norm(raw, prob100))
    t50 = ray_scan(v50, prob50, t_max=60.0, steps=400)["t_peak"]
    t100 = ray_scan(v100, prob100, t_max=60.0, steps=400)["t_peak"]
    assert t100 <= t50


def test_ray_scan_validation():
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    unit = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    with pytest.raises(ValueError):
        ray_scan(v0, prob)  # not unit norm
    with pytest.raises(ValueError):
        ray_scan(unit, prob, t_max=60.0, steps=4)
    with pytest.raises(ValueError):
        ray_scan(unit, prob, t_max=1e-3)  # no sign change that early


def test_mp_geometry_check_finds_ridge():
    prob = desk_problem()
    geo = mp_geometry_check(prob, samples=12)
    assert geo["ok"]
    assert geo["rho"] > 0
    assert geo["alpha"] > 0
    assert geo["table"][-1]["positive"]
    custom = mp_geometry_check(prob, samples=6, rhos=(0.5, 0.25))
    assert custom["ok"]
    with pytest.raises(ValueError):
        mp_geometry_check(prob, samples=4, rhos=(0.5, -1.0))


# ---------------------------------------------------------------------------
# ray peaks and the constrained descent
# ---------------------------------------------------------------------------


def test_ray_peak_closed_form():
    # p = 2, p* = 4, M = 2, T = 1, lambda = 0, C = 4: phi(t) = t^2 - t^4 peaks
    # at t = 1/sqrt(2) with value 1/4
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (5,) * 3)
    prob = KirchhoffProblem(
        n=1, p=2.0, lam=0.0, kirchhoff=KirchhoffM.nondegenerate(2.0),
        nonlinearity=GrowthNonlinearity(3.5, 3.5), grid=grid,
    )
    t_star, val = _RayProfile(prob, T=1.0, F=0.0, C=4.0).peak()
    assert t_star == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-13)
    assert val == pytest.approx(0.25, rel=1e-13)
    # bracketing walks to peaks far from the initial scale: (100 t)^2 - (100 t)^4
    t_far, _ = _RayProfile(prob, T=1e4, F=0.0, C=4e8).peak()
    assert t_far == pytest.approx(1.0 / (100 * math.sqrt(2.0)), rel=1e-13)


def _scan_peak(prob, w, t_lo, t_hi, rounds=6, points=41):
    """Argmax of t -> energy(t w) by repeated dense log-spaced scans."""
    for _ in range(rounds):
        ts = np.geomspace(t_lo, t_hi, points)
        js = [energy(ScalarField(prob.grid, t * w.values), prob) for t in ts]
        i = int(np.argmax(js))
        assert 0 < i < points - 1, "scan window misses the peak"
        t_lo, t_hi = ts[i - 1], ts[i + 1]
    return math.sqrt(t_lo * t_hi)


RAY_PEAK_CASES = {
    "b=0": {"kirchhoff": KirchhoffM.nondegenerate(2.0)},
    "b>0": {},
    "degenerate": {"kirchhoff": KirchhoffM.degenerate(1.0, 1.5)},
    "p=1.5": {  # p* = 2.4
        "p": 1.5,
        "kirchhoff": KirchhoffM.nondegenerate(1.0),
        "nonlinearity": GrowthNonlinearity(2.0, 2.0),
    },
    "callable": {
        "nonlinearity": GrowthNonlinearity(
            3.5, 3.5, weight=lambda x, y, t: 1.0 + 0.5 * np.exp(-x * x - y * y)
        ),
        "potential": lambda x, y, t: 1.0 + 0.1 * x * x + 0.05 * t * t,
        "v0": 1.0,
    },
}


def _ray_case_problem(case, counts=9, lam=5.0):
    data = {
        "n": 1, "p": 2.0, "lam": lam, "grid": BoxGrid((-4.0,) * 3, (4.0,) * 3, (counts,) * 3),
        "kirchhoff": KirchhoffM.nondegenerate(1.0, b=1.0, kappa=1.5),
        "nonlinearity": GrowthNonlinearity(3.5, 3.5),
    }
    return KirchhoffProblem(**{**data, **RAY_PEAK_CASES[case]})


@pytest.mark.parametrize("case", list(RAY_PEAK_CASES))
def test_ray_peak_matches_dense_energy_scan(case):
    prob = _ray_case_problem(case)
    grid = prob.grid
    a = prob.nonlinearity.weight_values(grid)
    w = random_dirichlet_field(grid, seed=3, bumps=2)
    t_peak, j_peak = _RayProfile.of(w, prob, a).peak()
    assert t_peak == pytest.approx(_scan_peak(prob, w, t_peak / 4.0, t_peak * 4.0), rel=1e-6)
    assert j_peak > 0
    assert j_peak == pytest.approx(energy(ScalarField(grid, t_peak * w.values), prob), rel=1e-12)
    zero = ScalarField(grid, np.zeros(grid.counts))
    with pytest.raises(RuntimeError, match="no interior ray peak"):
        _RayProfile.of(zero, prob, a).peak()
    with pytest.raises(RuntimeError, match="no interior ray peak"):
        _RayProfile(prob, T=1.0, F=0.0, C=0.0).peak()  # phi rises without bound


def _slope_sign_changes(prob, w):
    ray = _RayProfile.of(w, prob, prob.nonlinearity.weight_values(prob.grid))
    slopes = np.array([ray.slope(float(t)) for t in np.geomspace(1e-4, 1e4, 801)])
    assert np.all(slopes != 0.0)
    return int(np.count_nonzero(np.diff(np.sign(slopes))))


@pytest.mark.parametrize(
    "case, counts, lam",
    [(case, 9, 5.0) for case in RAY_PEAK_CASES] + [("b>0", 33, 50.0)],  # last: criterion 11
)
def test_fibering_maps_have_one_interior_maximum(case, counts, lam):
    # the mountain-pass level is the least ray-peak level only if every
    # t -> J(t w) rises, then falls: phi' changes sign exactly once
    prob = _ray_case_problem(case, counts, lam)
    bump = dirichlet_field(prob.grid, lambda *m: np.exp(-sum(c * c for c in m) / (2.0 * 1.2**2)))
    directions = [bump] + [random_dirichlet_field(prob.grid, seed=s) for s in range(5)]
    assert [_slope_sign_changes(prob, w) for w in directions] == [1] * 6


def test_mountain_pass_solve_small(monkeypatch):
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    rs = ray_scan(v0, prob, t_max=60.0, steps=400)
    e = ScalarField(prob.grid, rs["t_negative"] * v0.values)
    calls = []
    monkeypatch.setattr(
        variational, "energy", lambda *a: calls.append(1) or energy(*a)
    )
    mp = mountain_pass_solve(prob, e, max_iter=8000)
    monkeypatch.undo()
    # the descent starts at the peak of the ray through the endpoint
    a = prob.nonlinearity.weight_values(prob.grid)
    assert mp.energies[0] == _RayProfile.of(e, prob, a).peak()[1]
    # ray peaks come from the closed-form profile: energy only checks e
    assert len(calls) == 1
    assert mp.flags["converged"]
    assert mp.flags["positive_norm"]
    assert mp.flags["positive_energy"]
    assert mp.gradient_norms[0] / mp.gradient_norm >= 1e4
    assert mp.energy > 0
    # independent criticality check at the reported iterate
    g = gradient(mp.u_star, prob)
    gn = math.sqrt(float(np.sum(g.values**2) * prob.grid.cell_volume))
    assert gn <= mp.tol * 1.0000001
    mon = ps_monitor(mp)
    assert mon["all_ok"]
    assert mon["below_threshold"] is None  # no threshold supplied


def test_mountain_pass_endpoint_validation():
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    with pytest.raises(ValueError):
        mountain_pass_solve(prob, v0)  # J(v0) > 0: not past the ridge
    rs = ray_scan(v0, prob, t_max=60.0, steps=400)
    e = ScalarField(prob.grid, rs["t_negative"] * v0.values)
    with pytest.raises(ValueError):
        mountain_pass_solve(prob, e, max_iter=0)


# ---------------------------------------------------------------------------
# result containers and PS bookkeeping
# ---------------------------------------------------------------------------


def _tiny_result(energies, gradient_norms, norms, tol=1e-3):
    grid = BoxGrid((-1.0,) * 3, (1.0,) * 3, (5,) * 3)
    u = random_dirichlet_field(grid, seed=0)
    return MPResult(
        u_star=u,
        energy=energies[-1],
        gradient_norm=gradient_norms[-1],
        energies=energies,
        gradient_norms=gradient_norms,
        norms=norms,
        threshold=math.nan,
        flags={},
        iterations=len(energies),
        stagnated=False,
        tol=tol,
    )


def test_ps_monitor_flags():
    n = 30
    good = _tiny_result(
        energies=[1.0 + 2.0 ** (-i) for i in range(n)],
        gradient_norms=[10.0 * 2.0 ** (-i) for i in range(n)],
        norms=[1.0] * n,
        tol=10.0 * 2.0 ** (-(n - 1)) * 1.01,
    )
    mon = ps_monitor(good)
    assert mon["energies_converged"]
    assert mon["gradients_converged"]
    assert mon["norms_bounded"]
    assert mon["all_ok"]
    assert ps_monitor(good, threshold=2.0)["below_threshold"] is True
    assert ps_monitor(good, threshold=0.5)["below_threshold"] is False

    bad = _tiny_result(
        energies=[float(i) for i in range(n)],
        gradient_norms=[10.0] * n,
        norms=[1e7] * n,
        tol=1e-3,
    )
    mon = ps_monitor(bad)
    assert not mon["energies_converged"]
    assert not mon["gradients_converged"]
    assert not mon["norms_bounded"]
    assert not mon["all_ok"]


def test_mp_result_log_validation():
    with pytest.raises(ValueError):
        _tiny_result([1.0, 1.0], [1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        _tiny_result([1.0], [-1.0], [1.0])


def test_mp_result_to_dict():
    r = _tiny_result([2.0, 1.0], [1.0, 0.5], [1.0, 1.0])
    d = r.to_dict()
    assert d["energy"] == 1.0
    assert d["gradient_norms"] == [1.0, 0.5]
    assert d["log_length"] == 2
    assert "u_star_sup" in d
