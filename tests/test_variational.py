"""Variational-solver tests: energy, gradient, thresholds, mountain pass.

Oracles: closed-form Kirchhoff coefficients and thresholds recomputed from
independent arithmetic, an exact 4-term ray decomposition of the energy
rebuilt from quadrature primitives, second-order finite differences against
the assembled gradient, and a closed-form ray peak, checked against dense
energy scans, for the constrained-descent projection.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from heislab import (
    BoxGrid,
    FSResult,
    GrowthNonlinearity,
    HorizontalVectorField,
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
)
from heislab import operators, variational
from heislab.variational import _Nodal, _RayProfile, _first_step


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
    # the degenerate family is m0 = 0: bit for bit the forms m1 t^(kappa-1), m1 t^kappa / kappa
    for m1, kappa in ((2.0, 2.0), (0.7, 1.5), (3.0, 4.25)):
        D = KirchhoffM.degenerate(m1, kappa)
        assert D == KirchhoffM(0.0, m1, kappa) and D.kind == "degenerate"
        for t in np.logspace(-6, 6, 25):
            assert D.m(t) == m1 * t ** (kappa - 1.0)
            assert D.primitive(t) == m1 * t ** kappa / kappa


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


def _power_probe():
    """Exact zeros and magnitudes from 1e-150 to 1e30, of both signs."""
    rng = np.random.default_rng(7)
    mags = 10.0 ** rng.uniform(-150.0, 30.0, 4000)
    vals = np.concatenate([mags, -mags, [1e-150, 1e30, 1.0, 0.0, -0.0, 0.0]])
    vals[::97] = 0.0
    return vals


@pytest.mark.parametrize("r", [1.5, 2.5, 3.5, 4.0])
def test_growth_power_by_products_is_within_four_ulp_of_pow(r):
    vals = _power_probe()
    ref = np.abs(vals) ** r
    got = variational._abs_power(np.abs(vals), r)
    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))
    assert np.all(got[vals == 0.0] == 0.0)


def test_growth_power_off_the_half_integers_is_pow():
    vals = _power_probe()
    assert np.array_equal(variational._abs_power(np.abs(vals), 3.3), np.abs(vals) ** 3.3)


@pytest.mark.parametrize("r_g", [1.2, 1.5, 1.8, 2.0, 2.5, 3.3, 3.5, 4.0])
def test_growth_terms_are_bitwise_even_and_odd(r_g):
    vals = _power_probe()
    g = GrowthNonlinearity(r_g, r_g)
    a = np.linspace(0.5, 2.0, vals.size)
    for weight in (1.0, a):
        assert np.array_equal(g.big_f(weight, -vals), g.big_f(weight, vals))
        assert np.array_equal(g.f(weight, -vals), -g.f(weight, vals))
    assert np.all(g.f(1.0, np.zeros(3)) == 0.0)  # no 0 * inf below r_g = 2


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
    ok = dirichlet_field(grid, lambda x, y, t: np.exp(-(x * x + y * y + t * t)))
    assert np.array_equal(ok.values[1:-1, 1:-1, 1:-1], raw.values[1:-1, 1:-1, 1:-1])
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


@pytest.mark.parametrize("p", [1.2, 1.5])
def test_gradient_is_the_exact_derivative_below_p2(p):
    # Below p = 2 the flux |G|^{p-2} G (G = D_H u) is taken as 0 where G = 0,
    # its limit there.  Then <gradient(u), v> is the closed form
    # M(T) (int |G|^{p-2} G . D_H v + int V sign(u)|u|^{p-1} v)
    #   - lam int a sign(u)|u|^{r_g-1} v - int sign(u)|u|^{p*-1} v,
    # with M(T) = 1 + T^0.2, built here from D_H alone.  u vanishes on the
    # last five t-planes, so the interior nodes of the last three have G = 0
    # exactly.
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (13,) * 3)
    prob = KirchhoffProblem(
        n=1, p=p, lam=2.0, kirchhoff=KirchhoffM.nondegenerate(1.0, b=1.0, kappa=1.2),
        nonlinearity=GrowthNonlinearity(1.8, 1.8), grid=grid,
    )
    vals = random_dirichlet_field(grid, seed=3, bumps=2).values.copy()
    vals[:, :, 8:] = 0.0
    u, v = ScalarField(grid, vals), random_dirichlet_field(grid, seed=4, bumps=2)
    G = [c.values for c in horizontal_gradient(u).components]
    DV = [c.values for c in horizontal_gradient(v).components]
    norm2 = sum(c * c for c in G)
    assert np.count_nonzero(norm2[1:-1, 1:-1, 1:-1] == 0.0) > 0
    weight = np.zeros_like(norm2)
    weight[norm2 > 0] = norm2[norm2 > 0] ** ((p - 2.0) / 2.0)
    w = grid.cell_volume
    T = (np.sum(norm2 ** (p / 2.0)) + np.sum(np.abs(vals) ** p)) * w
    flux = sum(np.sum(weight * g * dv) for g, dv in zip(G, DV)) * w

    def paired(q):  # int sign(u)|u|^{q-1} v
        return np.sum(np.sign(vals) * np.abs(vals) ** (q - 1.0) * v.values) * w

    exact = (1.0 + T**0.2) * (flux + paired(p)) - 2.0 * paired(1.8) - paired(prob.p_star)
    g = gradient(u, prob).values
    assert np.all(np.isfinite(g))
    assert abs(np.sum(g * v.values) * w - exact) <= 1e-12 * abs(exact)


def test_energy_and_gradient_odd_symmetry_bitwise():
    prob = desk_problem()
    for seed in range(5):
        u = random_dirichlet_field(prob.grid, seed=seed, bumps=2, rough=0.01)
        neg = ScalarField(prob.grid, -u.values)
        assert energy(neg, prob) == energy(u, prob)
        assert np.array_equal(gradient(neg, prob).values, -gradient(u, prob).values)


def test_p2_integrands_are_products_and_bitwise_even():
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (11,) * 3)
    u = random_dirichlet_field(grid, seed=6, bumps=2, rough=0.01).values
    V = 1.0 + 0.1 * grid.meshes()[0] ** 2 + 0.0 * u
    for potential in (1.5, V):
        nod = _Nodal(grid, 2.0, V=potential)
        assert nod.odd_power(u, 2.0) is u
        G = nod.grad(u)
        neg = HorizontalVectorField(tuple(ScalarField(grid, -c.values) for c in G.components))
        T = nod.hw(u, G)
        assert nod.hw(-u, neg) == T
        ref = (sum(np.sum(c.values**2) for c in G.components) + np.sum(potential * u**2)) * grid.cell_volume
        assert T == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_mountain_pass_carries_t_from_the_second_iteration(monkeypatch):
    # T(t w) = t^p T(w): every iterate after the first takes T from its
    # trial's ray, the first evaluates it afresh
    prob, e = _criterion_11_endpoint()
    nod, real, handed = _Nodal.of(prob), variational._gradient, []

    def spy(problem, nodal, vals, grad, T=None):
        handed.append(T)
        if T is not None:
            assert T == pytest.approx(nod.hw(vals, nod.grad(vals)), rel=1e-12, abs=0.0)
        return real(problem, nodal, vals, grad, T)

    monkeypatch.setattr(variational, "_gradient", spy)
    mp = mountain_pass_solve(prob, e, max_iter=40)
    assert len(handed) == mp.iterations == 40
    assert handed[0] is None
    assert all(T is not None for T in handed[1:])


def test_mountain_pass_skips_a_trial_whose_quadratures_overflow(monkeypatch):
    # a first direction of size 1e80 overflows int |trial|^4 for every step
    # down to about 2^-10; the line search halves past those trials without
    # searching their rays' peaks, and ends stagnated after 60 halvings
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    e = ScalarField(prob.grid, ray_scan(v0, prob, t_max=60.0, steps=400)["t_negative"] * v0.values)
    real_gradient, real_ray, real_peak = variational._gradient, _Nodal.ray, _RayProfile.peak
    quadratures, peaked = [], []

    def huge(*args):
        g, T = real_gradient(*args)
        return 1e80 * g, T

    def ray(self, *args):
        quadratures.append(real_ray(self, *args))
        return quadratures[-1]

    def peak(self):
        peaked.append((self.T, self.F, self.C))
        return real_peak(self)

    monkeypatch.setattr(variational, "_gradient", huge)
    monkeypatch.setattr(_Nodal, "ray", ray)
    monkeypatch.setattr(_RayProfile, "peak", peak)
    mp = mountain_pass_solve(prob, e, max_iter=3)
    assert mp.stagnated and mp.iterations == 1
    assert len(quadratures) == 61  # e's ray, then 60 trials
    overflowed = [q for q in quadratures if not all(map(math.isfinite, q))]
    assert len(overflowed) >= 5
    assert all(all(map(math.isfinite, q)) for q in peaked)
    assert len(peaked) == len(quadratures) - len(overflowed)


def test_ray_profile_takes_an_overflowing_power_as_inf():
    # T = 1e250 is finite but T^1.5 is not: the coefficient of phi' reads
    # inf (0 when its factor b is 0) instead of raising from the float power
    prob = desk_problem()
    terms = _RayProfile(prob, 1e250, 1.0, 1e300)._terms
    assert terms[0][0] == 1e250 and terms[1][0] == math.inf
    flat = KirchhoffProblem(
        n=1, p=2.0, lam=50.0, kirchhoff=KirchhoffM.nondegenerate(1.0, b=0.0, kappa=1.5),
        nonlinearity=GrowthNonlinearity(3.5, 3.5), grid=prob.grid,
    )
    assert _RayProfile(flat, 1e250, 1.0, 1e300)._terms[1][0] == 0.0
    t, val = _RayProfile(prob, 1e200, 1.0, 1e300).peak()  # T^1.5 = 1e300 is finite
    assert 0.0 < t < math.inf and math.isfinite(val)


def test_mountain_pass_halves_the_step_on_a_trial_whose_ray_coefficient_overflows(monkeypatch):
    # every trial's T reads 1e250: its quadratures are finite, but T^kappa
    # overflows, so each trial halves the step without a ray-peak search
    prob = desk_problem()
    v0 = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, v0.values / hw_norm(v0, prob))
    e = ScalarField(prob.grid, ray_scan(v0, prob, t_max=60.0, steps=400)["t_negative"] * v0.values)
    real_ray, real_peak = _Nodal.ray, _RayProfile.peak
    calls, peaked = [], []

    def ray(self, *args):
        T, F, C = real_ray(self, *args)
        calls.append(T)
        return (T if len(calls) == 1 else 1e250), F, C

    def peak(self):
        peaked.append(self.T)
        return real_peak(self)

    monkeypatch.setattr(_Nodal, "ray", ray)
    monkeypatch.setattr(_RayProfile, "peak", peak)
    mp = mountain_pass_solve(prob, e, max_iter=3)
    assert mp.stagnated and mp.iterations == 1
    assert len(calls) == 61  # e's ray, then 60 trials
    assert peaked == [calls[0]]  # e's ray only


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


def _stencil_quotient(vals, grid, p):
    """||D_H u||_p^p / ||u||_{p*}^p of the field u = vals, by the gradient stencil."""
    p_star = 4.0 * p / (4.0 - p)
    w = grid.cell_volume
    grad = horizontal_gradient(ScalarField(grid, vals))
    norm2 = sum(c.values * c.values for c in grad.components)
    return float(np.sum(norm2 ** (p / 2.0)) * w) / float(
        np.sum(np.abs(vals) ** p_star) * w
    ) ** (p / p_star)


def _trial_by_stencil_search(grid, p, iters, seed):
    """Reference Folland-Stein descent on H^1 that normalizes every line-search
    trial and scores it by the gradient stencil: (history, D_H evaluations)."""
    p_star = 4.0 * p / (4.0 - p)
    w = grid.cell_volume
    ring = np.ones(grid.counts, dtype=bool)
    ring[1:-1, 1:-1, 1:-1] = False
    calls = 0

    def unit(vals):
        return vals / float(np.sum(np.abs(vals) ** p_star) * w) ** (1.0 / p_star)

    def score(vals):
        nonlocal calls
        calls += 1
        return _stencil_quotient(vals, grid, p)

    u = unit(random_dirichlet_field(grid, seed=seed, bumps=2).values)
    q = score(u)
    history, step = [q], 0.5
    for _ in range(iters):
        ap = -operators.p_sublaplacian(ScalarField(grid, u), p).values
        g = p * (ap - q * np.sign(u) * np.abs(u) ** (p_star - 1.0))
        g[ring] = 0.0
        if not np.any(g):
            break
        while step > 1e-16:
            trial = unit(u - step * g)
            tq = score(trial)
            if tq < q - 1e-12 * (1.0 + abs(q)):
                break
            step *= 0.5
        else:
            break
        u, q = trial, tq
        history.append(q)
        step = min(2.0 * step, 1e3)
    return history, calls


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_descents_evaluate_each_horizontal_gradient_once(monkeypatch, p):
    # `gradient` shares one D_H u between its norm and divergence terms, and
    # `ray_scan` one between its ray quadratures and unit-norm check.  The
    # mountain pass evaluates D_H on e for its ray and on the first iterate,
    # then once per iteration on the descent direction g, whose multiples
    # give every trial's D_H and the accepted iterate's; the converging
    # iteration takes no trial.  The Folland-Stein descent evaluates D_H
    # once for the start field; at p = 2 then once per iteration, on g, whose
    # multiple carries D_H u to the accepted step; at other p once per trial.
    seen = []

    def counting(u, *args, **kwargs):
        seen.append(u.values.copy())
        return horizontal_gradient(u, *args, **kwargs)

    monkeypatch.setattr(operators, "horizontal_gradient", counting)
    monkeypatch.setattr(variational, "horizontal_gradient", counting)
    prob = desk_problem()
    gradient(random_dirichlet_field(prob.grid, seed=3, bumps=2), prob)
    assert len(seen) == 1

    bump = random_dirichlet_field(prob.grid, seed=1, bumps=2)
    v0 = ScalarField(prob.grid, bump.values / hw_norm(bump, prob))
    seen.clear()
    rs = ray_scan(v0, prob, t_max=60.0, steps=400)
    assert len(seen) == 1

    seen.clear()
    mp = mountain_pass_solve(prob, ScalarField(prob.grid, rs["t_negative"] * v0.values))
    assert mp.flags["converged"]
    assert len(seen) == mp.iterations + 1
    assert len({v.tobytes() for v in seen}) == len(seen)

    seen.clear()
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (9,) * 3)
    fs = folland_stein_constant(grid, p, iters=15, seed=2)
    monkeypatch.undo()
    assert fs.iterations == 15 and not fs.stagnated
    # no field is evaluated twice
    assert len({v.tobytes() for v in seen}) == len(seen)
    history, calls = _trial_by_stencil_search(grid, p, 15, seed=2)
    assert len(history) == 16
    assert len(seen) == (fs.iterations + 1 if p == 2 else calls)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_ray_quadratures_take_a_trial_gradient_by_linearity(p):
    # D_H(u - s g) = D_H u - s D_H g: the mountain pass's trials take their
    # T from that combination instead of a stencil pass on the trial
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (11,) * 3)
    nod = _Nodal(grid, p, V=1.0, a=1.0)
    u = random_dirichlet_field(grid, seed=21, bumps=3, rough=0.05).values
    g = random_dirichlet_field(grid, seed=22, bumps=2, rough=0.05).values
    s = 0.37
    trial = u - s * g
    G_u, G_g = nod.grad(u), nod.grad(g)
    linear = HorizontalVectorField(tuple(
        ScalarField(grid, cu.values - s * cg.values) for cu, cg in zip(G_u.components, G_g.components)
    ))
    nl = GrowthNonlinearity(3.5, 3.5)
    T, F, C = nod.ray(trial, nl, linear)
    T_ref, F_ref, C_ref = nod.ray(trial, nl)
    assert T == pytest.approx(T_ref, rel=1e-13, abs=0.0)
    assert (F, C) == (F_ref, C_ref)


def _criterion_11_endpoint():
    """Criterion 11's problem at 17^3 and the endpoint its solve starts from."""
    prob = KirchhoffProblem(
        n=1, p=2.0, lam=50.0, kirchhoff=KirchhoffM.nondegenerate(1.0, 1.0, 1.5),
        nonlinearity=GrowthNonlinearity(3.5, 3.5), grid=BoxGrid.cube(4.0, 17, 3),
    )
    bump = dirichlet_field(prob.grid, lambda *m: np.exp(-sum(c * c for c in m) / (2.0 * 1.2**2)))
    v0 = ScalarField(prob.grid, bump.values / hw_norm(bump, prob))
    ray = ray_scan(v0, prob, t_max=24.0, steps=200)
    return prob, ScalarField(prob.grid, ray["t_negative"] * v0.values)


def test_mountain_pass_energy_is_the_energy_of_its_critical_point():
    # the carried D_H of the iterates must not drift from a fresh stencil
    # pass: criterion 11's problem at 17^3, to the bound of the benchmark check
    prob, e = _criterion_11_endpoint()
    mp = mountain_pass_solve(prob, e)
    assert mp.flags["converged"] and mp.iterations == 183
    assert mp.energy == pytest.approx(energy(mp.u_star, prob), rel=1e-12, abs=0.0)
    assert mp.norms[-1] == pytest.approx(hw_norm(mp.u_star, prob), rel=1e-12, abs=0.0)


def test_mountain_pass_lands_near_the_critical_level():
    # J* is the level this descent stagnates at, 6.6e7-fold below its first
    # gradient norm, once the 5e-5 stop tolerance is lowered to 1e-9; the
    # doubling/halving step rule run the same way agrees to 2e-11 relative.
    # That rule stopped at the 5e-5 tolerance 4.4e-4 above J*.
    prob, e = _criterion_11_endpoint()
    J_star = 0.0057403409084
    mp = mountain_pass_solve(prob, e)
    assert abs(mp.energy - J_star) / J_star <= 2e-5


def test_mountain_pass_is_odd():
    # every step of the descent, the Barzilai-Borwein step included, is odd
    # in u: from -e it takes the same steps to -u*
    prob, e = _criterion_11_endpoint()
    mp = mountain_pass_solve(prob, e)
    neg = mountain_pass_solve(prob, ScalarField(prob.grid, -e.values))
    assert np.array_equal(neg.u_star.values, -mp.u_star.values)
    assert neg.energies == mp.energies and neg.iterations == mp.iterations


def test_first_step_is_barzilai_borwein_clamped_or_the_doubled_step():
    du = np.array([1.0, 2.0, 0.0])
    # <du, du> / <du, dg> = 5 / 2.5
    assert _first_step(du, np.array([0.5, 1.0, 7.0]), 0.25) == 2.0
    assert _first_step(-du, -np.array([0.5, 1.0, 7.0]), 0.25) == 2.0
    assert _first_step(du, 1e-6 * du, 0.25) == 1e3  # 1e6, capped
    assert _first_step(du, 1e20 * du, 0.25) == 1e-12  # 1e-20, floored
    # no positive finite curvature: the doubled previous step
    for dg in ([-1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]):
        assert _first_step(du, np.array(dg), 0.25) == 0.25


def test_mountain_pass_takes_its_first_trial_step_from_barzilai_borwein(monkeypatch):
    # every iteration after the first asks for a Barzilai-Borwein step, but
    # the converging one takes no step
    prob, e = _criterion_11_endpoint()
    steps, real = [], variational._first_step

    def spy(du, dg, step):
        steps.append((step, real(du, dg, step)))
        return steps[-1][1]

    monkeypatch.setattr(variational, "_first_step", spy)
    mp = mountain_pass_solve(prob, e)
    assert mp.flags["converged"] and len(steps) == mp.iterations - 2
    assert all(bb != doubled for doubled, bb in steps)  # <du, dg> > 0 at every one


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("count", [9, 13])
def test_folland_stein_matches_trial_by_stencil_search(count, p):
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (count,) * 3)
    fs = folland_stein_constant(grid, p, iters=60, seed=5)
    history, _ = _trial_by_stencil_search(grid, p, 60, seed=5)
    assert len(fs.history) == len(history)
    assert fs.history == pytest.approx(history, rel=1e-12, abs=0.0)


def test_mountain_pass_out_of_iterations_returns_the_logged_iterate():
    # the last iteration logs its iterate and takes no step past it
    prob, e = _criterion_11_endpoint()
    mp = mountain_pass_solve(prob, e, max_iter=5)
    assert mp.iterations == len(mp.energies) == 5
    assert not (mp.flags["converged"] or mp.stagnated)
    g = gradient(mp.u_star, prob)
    gn = math.sqrt(float(np.sum(g.values**2) * prob.grid.cell_volume))
    assert mp.gradient_norm == pytest.approx(gn, rel=1e-12, abs=0.0)
    assert mp.norms[-1] == pytest.approx(hw_norm(mp.u_star, prob), rel=1e-12, abs=0.0)
    assert mp.energy == mp.energies[-1]
    assert mp.energy == pytest.approx(energy(mp.u_star, prob), rel=1e-12, abs=0.0)


# 33^3 at 150 iterations is criterion 11's call: the carried D_H u of the
# p = 2 descent must not drift from a fresh stencil pass at that size either
@pytest.mark.parametrize("count,p", [(17, 2.0), (9, 3.0), (33, 2.0)])
def test_folland_stein_value_is_the_quotient_of_its_minimizer(count, p):
    grid = BoxGrid((-4.0,) * 3, (4.0,) * 3, (count,) * 3)
    iters = 150 if count == 33 else 80
    fs = folland_stein_constant(grid, p, iters=iters, seed=1)
    u = fs.minimizer.values
    assert fs.iterations == iters and not fs.stagnated
    assert fs.value == pytest.approx(_stencil_quotient(u, grid, p), rel=1e-12, abs=0.0)
    norm = float(np.sum(np.abs(u) ** fs.p_star) * grid.cell_volume) ** (1.0 / fs.p_star)
    assert abs(norm - 1.0) <= 1e-13
    assert np.all(u[variational._boundary_mask(grid.counts)] == 0.0)


def test_folland_stein_at_p2_holds_seven_arrays():
    # At p = 2 the descent works in u, the trial, g, D_H u and D_H g, made once
    # per call: seven arrays on H^1.  The traced peak at 33^3 read 7.26 arrays
    # (7.27 when D_H u was evaluated afresh every iteration); keeping D_H u
    # alongside fresh ones would add arrays.
    grid = BoxGrid.cube(4.0, 33, 3)
    folland_stein_constant(grid, 2.0, iters=1)  # builds the grid's cached meshes and ring
    tracemalloc.start()
    try:
        folland_stein_constant(grid, 2.0, iters=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(peak / (grid.node_count * 8) - 7.26) <= 0.5


@pytest.mark.parametrize("count,iters,taken", [(3, 10, 0), (5, 3000, 124)])
def test_folland_stein_iterations_count_accepted_steps(count, iters, taken):
    # both grids stop early; the count is of steps taken, never of the one
    # the line search gave up on
    fs = folland_stein_constant(BoxGrid.cube(4.0, count, 3), 2.0, iters=iters)
    assert fs.stagnated
    assert fs.iterations == len(fs.history) - 1 == taken


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
    # pref (b C^kappa)^{p*/(p* - p kappa)} = (1/28) (2 * 0.8^1.5)^4
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
    nod = _Nodal.of(prob)
    w = random_dirichlet_field(grid, seed=3, bumps=2)
    t_peak, j_peak = _RayProfile.of(w.values, prob, nod).peak()
    assert t_peak == pytest.approx(_scan_peak(prob, w, t_peak / 4.0, t_peak * 4.0), rel=1e-6)
    assert j_peak > 0
    assert j_peak == pytest.approx(energy(ScalarField(grid, t_peak * w.values), prob), rel=1e-12)
    zero = ScalarField(grid, np.zeros(grid.counts))
    with pytest.raises(RuntimeError, match="no interior ray peak"):
        _RayProfile.of(zero.values, prob, nod).peak()
    with pytest.raises(RuntimeError, match="no interior ray peak"):
        _RayProfile(prob, T=1.0, F=0.0, C=0.0).peak()  # phi rises without bound


def _closed_form_problem(kirchhoff=None, r_g=3.5):
    # p = 2, p* = 4, lambda = 1 (a profile with F = 0 drops that term)
    return KirchhoffProblem(
        n=1, p=2.0, lam=1.0, kirchhoff=kirchhoff or KirchhoffM.nondegenerate(2.0),
        nonlinearity=GrowthNonlinearity(r_g, r_g), grid=BoxGrid((-1.0,) * 3, (1.0,) * 3, (5,) * 3),
    )


@pytest.mark.parametrize("t_star", [1e3, 1e-5])
def test_ray_peak_far_from_one_matches_closed_form(t_star):
    # M = 2, T = 1, F = 0: phi(t) = t^2 - C t^4 / 4 peaks at t* = sqrt(2 / C)
    # with value 1 / C; the bracket [1/2, 2] has to move about 2^10 or 2^-17
    C = 2.0 / t_star**2
    t, val = _RayProfile(_closed_form_problem(), T=1.0, F=0.0, C=C).peak()
    assert t == pytest.approx(t_star, rel=1e-13)
    assert val == pytest.approx(1.0 / C, rel=1e-13)


def test_ray_peak_refuses_two_coefficient_sign_changes():
    # degenerate M with p kappa = 3 > r_g = 2.5, outside the growth window:
    # phi'(t) = -2.5 t^1.5 + t^2 - t^3 reads -, +, -
    prob = _closed_form_problem(KirchhoffM.degenerate(1.0, 1.5), r_g=2.5)
    assert not validate_exponents(prob)["checks"]["growth_window"]
    with pytest.raises(RuntimeError, match="2 coefficient sign changes"):
        _RayProfile(prob, T=1.0, F=1.0, C=1.0).peak()


@pytest.mark.parametrize("case", list(RAY_PEAK_CASES))
def test_ray_profile_coefficients_change_sign_once(case):
    # Laguerre's rule of signs: inside the growth window the coefficients of
    # phi', ordered by exponent and with zeros skipped, read + ... + - ... -
    prob = _ray_case_problem(case)
    assert validate_exponents(prob)["checks"]["growth_window"]
    nod = _Nodal.of(prob)
    for seed in range(3):
        ray = _RayProfile.of(random_dirichlet_field(prob.grid, seed=seed).values, prob, nod)
        signs = [np.sign(c) for c, _ in sorted(ray._terms, key=lambda term: term[1]) if c != 0.0]
        assert signs[0] == 1.0 and signs[-1] == -1.0
        assert np.count_nonzero(np.diff(signs)) == 1
        # the Newton steps' slope and curvature keep the terms' summation order
        for t in (0.03, 0.7, 1.0, 4.2):
            assert ray.slope(t) == sum(c * t**e for c, e in ray._terms)
            assert ray._curvature(t) == sum(c * e * t ** (e - 1.0) for c, e in ray._terms)


def _slope_sign_changes(prob, w):
    ray = _RayProfile.of(w.values, prob, _Nodal.of(prob))
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
    assert mp.energies[0] == _RayProfile.of(e.values, prob, _Nodal.of(prob)).peak()[1]
    # the endpoint check and the ray peaks come from closed-form profiles
    assert calls == []
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
    assert mon["below_threshold"] is None  # no finite threshold
    assert ps_monitor(dataclasses.replace(good, threshold=2.0))["below_threshold"] is True
    assert ps_monitor(dataclasses.replace(good, threshold=0.5))["below_threshold"] is False

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
