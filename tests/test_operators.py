"""Left-invariant field and sub-Laplacian tests.

Three oracle layers:

* exact polynomial mode — commutator identities and hand-expanded field
  actions must vanish to machine zero (no discretization error at all);
* sympy — analytic derivatives of a Gaussian, lambdified, against the
  central-difference stencils with an O(h^2) convergence measurement;
* algebraic structure — antisymmetry of the first-order stencils (the exact
  discrete integration-by-parts that the variational layer relies on),
  the sign conventions of the sub-Laplacian, and the nowhere-elliptic
  principal symbol.
"""

import numpy as np
import pytest
import sympy

from heislab import (
    BoxGrid,
    H3,
    HN,
    HeisPoint,
    PolyField,
    ScalarField,
    apply_T,
    apply_X,
    apply_Y,
    commutator_check,
    horizontal_divergence,
    horizontal_gradient,
    null_covector,
    p_sublaplacian,
    sublaplacian,
    sublaplacian_expanded,
    symbol_L,
    twisted_laplacian,
)
from heislab.exceptions import DimensionMismatchError
from heislab.grid import HorizontalVectorField
from heislab.operators import first_diff, second_diff


def _monomials(nvars, max_degree):
    """All monomials of total degree <= max_degree as PolyFields."""
    mons = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            term = PolyField.constant(1.0, nvars)
            for idx, power in enumerate(prefix):
                for _ in range(power):
                    term = term * PolyField.variable(idx, nvars)
            mons.append(term)
            return
        for power in range(budget + 1):
            rec(prefix + [power], remaining - 1, budget - power)

    rec([], nvars, max_degree)
    return mons


# ---------------------------------------------------------------------------
# polynomial mode: exact identities
# ---------------------------------------------------------------------------


def test_commutators_hn_polynomial_exact():
    # [X_j, Y_k] = -delta_{jk} T in the hn frame, exactly, for n = 1 and 2
    for n in (1, 2):
        nvars = 2 * n + 1
        for u in _monomials(nvars, 3):
            for j in range(n):
                for k in range(n):
                    assert commutator_check(j, k, u, HN) == 0.0


def test_commutators_h3_polynomial_exact():
    # [X, Y] = +T in the h3 frame, exactly
    for u in _monomials(3, 3):
        assert commutator_check(0, 0, u, H3) == 0.0


def test_field_action_hand_oracle_hn():
    # hn, n = 1: X = d/dx + 2 y d/dt on u = x^2 t gives 2 x t + 2 y x^2
    x = PolyField.variable(0, 3)
    y = PolyField.variable(1, 3)
    t = PolyField.variable(2, 3)
    u = x * x * t
    expected = 2.0 * x * t + 2.0 * y * x * x
    assert (apply_X(0, u, HN) - expected).is_zero()
    # Y = d/dy - 2 x d/dt on the same u gives -2 x^3
    expected_y = -2.0 * x * x * x
    assert (apply_Y(0, u, HN) - expected_y).is_zero()
    # T = 4 d/dt
    assert (apply_T(u, HN) - 4.0 * x * x).is_zero()


def test_field_action_hand_oracle_h3():
    # h3 frame on (y1, y2, tau): X = d/dy1 - 2 y2 d/dtau, Y = d/dy2 + 2 y1 d/dtau
    y1 = PolyField.variable(0, 3)
    y2 = PolyField.variable(1, 3)
    tau = PolyField.variable(2, 3)
    u = y1 * tau
    assert (apply_X(0, u, H3) - (tau - 2.0 * y2 * y1)).is_zero()
    assert (apply_Y(0, u, H3) - 2.0 * y1 * y1).is_zero()


def test_sublaplacian_polynomial_vs_hand_expansion():
    # L = -(X^2 + Y^2); on polynomials compare against the expanded operator
    # applied term by term with exact ring arithmetic.
    y1 = PolyField.variable(0, 3)
    y2 = PolyField.variable(1, 3)
    for u in _monomials(3, 3):
        lhs = sublaplacian(u, H3)
        d11 = u.diff(0).diff(0)
        d22 = u.diff(1).diff(1)
        dt = u.diff(2)
        dtt = dt.diff(2)
        cross = u.diff(0).diff(2) * y2 * (-2.0) + u.diff(1).diff(2) * y1 * 2.0
        rhs = -(d11 + d22 + 2.0 * cross + 4.0 * (y1 * y1 + y2 * y2) * dtt)
        assert (lhs - rhs).is_zero()


def test_p4_sublaplacian_polynomial_mode():
    x = PolyField.variable(0, 3)
    out = p_sublaplacian(x, 4.0, conv=HN)
    # |D_H x|^2 = 1, so div(|D_H x|^2 D_H x) = -L(x) = 0
    assert out.is_zero()
    with pytest.raises(DimensionMismatchError):
        p_sublaplacian(x, 3.0, conv=HN)


# ---------------------------------------------------------------------------
# grid mode: sympy oracle and convergence
# ---------------------------------------------------------------------------


def _gaussian_field(grid):
    x, y, t = grid.meshes()
    return ScalarField(grid, np.exp(-(x * x + y * y + t * t)))


def _sympy_L_expanded(conv):
    # analytic positive sub-Laplacian of the hn/h3 frame on 3 coordinates
    xs, ys, ts = sympy.symbols("xs ys ts", real=True)
    u = sympy.exp(-(xs**2 + ys**2 + ts**2))
    if conv.name == "hn":
        X = lambda f: sympy.diff(f, xs) + 2 * ys * sympy.diff(f, ts)
        Y = lambda f: sympy.diff(f, ys) - 2 * xs * sympy.diff(f, ts)
    else:
        X = lambda f: sympy.diff(f, xs) - 2 * ys * sympy.diff(f, ts)
        Y = lambda f: sympy.diff(f, ys) + 2 * xs * sympy.diff(f, ts)
    lu = -(X(X(u)) + Y(Y(u)))
    return sympy.lambdify((xs, ys, ts), lu, "numpy")


@pytest.mark.parametrize("conv", [HN, H3], ids=["hn", "h3"])
def test_sublaplacian_matches_sympy_oracle_order_h2(conv):
    oracle = _sympy_L_expanded(conv)
    errors = []
    for h in (0.2, 0.1):
        count = int(round(12.0 / h)) + 1
        grid = BoxGrid((-6.0, -6.0, -6.0), (6.0, 6.0, 6.0), (count,) * 3)
        u = _gaussian_field(grid)
        lu = sublaplacian(u, conv)
        exact = oracle(*grid.meshes())
        errors.append(float(np.max(np.abs(lu.values - exact))))
    factor = errors[0] / errors[1]
    assert errors[1] < errors[0]
    assert 3.3 <= factor <= 4.7  # O(h^2): one halving shrinks the error ~4x


def test_composed_and_expanded_sublaplacian_agree():
    # Different second-derivative stencils (composed central first differences
    # vs compact second differences) target the same operator; their
    # disagreement must shrink at O(h^2).
    diffs = []
    for h in (0.2, 0.1):
        count = int(round(12.0 / h)) + 1
        grid = BoxGrid((-6.0, -6.0, -6.0), (6.0, 6.0, 6.0), (count,) * 3)
        u = _gaussian_field(grid)
        a = sublaplacian(u, HN).values
        b = sublaplacian_expanded(u, HN).values
        diffs.append(float(np.max(np.abs(a - b))))
    assert diffs[1] < diffs[0]
    assert 3.3 <= diffs[0] / diffs[1] <= 4.7
    grid = BoxGrid((-6.0, -6.0, -6.0), (6.0, 6.0, 6.0), (61, 61, 61))
    u = _gaussian_field(grid)
    a = sublaplacian(u, HN).values
    with pytest.raises(DimensionMismatchError):
        sublaplacian_expanded(PolyField.variable(0, 3), HN)


def test_first_order_fields_are_antisymmetric_on_grid():
    # X^T = -X for the centered stencil with zero boundary fill: the discrete
    # integration by parts <X u, v> = -<u, X v> is exact, which is what makes
    # the energy gradient in the variational layer exact as well.
    rng = np.random.default_rng(23)
    grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (17, 17, 17))
    for _ in range(3):
        u = ScalarField(grid, rng.standard_normal(grid.counts))
        v = ScalarField(grid, rng.standard_normal(grid.counts))
        for op in (lambda w: apply_X(0, w, HN), lambda w: apply_Y(0, w, HN)):
            left = np.sum(op(u).values * v.values)
            right = -np.sum(u.values * op(v).values)
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


def test_divergence_is_negative_adjoint_of_gradient():
    rng = np.random.default_rng(29)
    grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (15, 15, 15))
    u = ScalarField(grid, rng.standard_normal(grid.counts))
    F = horizontal_gradient(
        ScalarField(grid, rng.standard_normal(grid.counts)), HN
    )
    lhs = np.sum(horizontal_divergence(F, HN).values * u.values)
    rhs = -sum(
        np.sum(c.values * g.values)
        for c, g in zip(F.components, horizontal_gradient(u, HN).components)
    )
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_p_sublaplacian_reduces_to_sublaplacian_at_p2():
    rng = np.random.default_rng(31)
    grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (15, 15, 15))
    u = ScalarField(grid, rng.standard_normal(grid.counts))
    a = p_sublaplacian(u, 2.0, conv=HN).values
    b = -sublaplacian(u, HN).values
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_twisted_laplacian_requires_complex_2d():
    grid2 = BoxGrid((-3.0, -3.0), (3.0, 3.0), (21, 21))
    real_field = ScalarField(grid2, np.ones(grid2.counts))
    with pytest.raises(DimensionMismatchError):
        twisted_laplacian(real_field, 1.0)
    with pytest.raises(ValueError):
        twisted_laplacian(
            ScalarField(grid2, np.ones(grid2.counts, dtype=np.complex128)), 0.0
        )


# ---------------------------------------------------------------------------
# bitwise reference: the stencils as compositions of zero-filled shifted copies
# ---------------------------------------------------------------------------


def _ref_shifted(values, axis, step):
    """values[..., i+step, ...] with zeros streaming in at the boundary."""
    out = np.zeros_like(values)
    src = [slice(None)] * values.ndim
    dst = [slice(None)] * values.ndim
    if step == 1:
        dst[axis], src[axis] = slice(0, -1), slice(1, None)
    else:
        dst[axis], src[axis] = slice(1, None), slice(0, -1)
    out[tuple(dst)] = values[tuple(src)]
    return out


def _ref_d1(values, axis, h):
    return (_ref_shifted(values, axis, 1) - _ref_shifted(values, axis, -1)) / (2.0 * h)


def _ref_d2(values, axis, h):
    return (_ref_shifted(values, axis, 1) - 2.0 * values + _ref_shifted(values, axis, -1)) / (h * h)


def _ref_field(j, values, grid, conv, which):
    a, b, sx, sy = conv.pair(j, conv.n_of(grid.ndim))
    if which == "Y":
        a, b, sx = b, a, sy
    tax = conv.t_axis(grid.ndim)
    h = grid.spacing
    return _ref_d1(values, a, h[a]) + (2.0 * sx) * grid.axis_mesh(b) * _ref_d1(values, tax, h[tax])


def _ref_gradient(values, grid, conv):
    n = conv.n_of(grid.ndim)
    return [_ref_field(j, values, grid, conv, w) for w in "XY" for j in range(n)]


def _ref_divergence(comps, grid, conv):
    n = len(comps) // 2
    acc = _ref_field(0, comps[0], grid, conv, "X").copy()
    for j in range(1, n):
        acc += _ref_field(j, comps[j], grid, conv, "X")
    for j in range(n):
        acc += _ref_field(j, comps[n + j], grid, conv, "Y")
    return acc


def _ref_p_sublaplacian(values, grid, conv, p):
    grad = _ref_gradient(values, grid, conv)
    norm2 = np.zeros(grid.counts, dtype=float)
    for c in grad:
        norm2 += np.abs(c) ** 2
    with np.errstate(divide="ignore"):
        weight = (norm2 + 0.0) ** ((p - 2.0) / 2.0)
    weight[norm2 == 0.0] = 0.0  # the flux's limit where the gradient vanishes
    return _ref_divergence([weight * c for c in grad], grid, conv)


def _ref_sublaplacian(values, grid, conv):
    acc = None
    for j in range(conv.n_of(grid.ndim)):
        xx = _ref_field(j, _ref_field(j, values, grid, conv, "X"), grid, conv, "X")
        yy = _ref_field(j, _ref_field(j, values, grid, conv, "Y"), grid, conv, "Y")
        acc = xx + yy if acc is None else acc + xx + yy
    return -1.0 * acc


def _ref_twisted(values, grid, tau, angular_sign):
    y1, y2 = grid.axis_mesh(0), grid.axis_mesh(1)
    h = grid.spacing
    lap = _ref_d2(values, 0, h[0]) + _ref_d2(values, 1, h[1])
    pot = 4.0 * tau * tau * (y1 * y1 + y2 * y2) * values
    ang = 4j * tau * angular_sign * (y1 * _ref_d1(values, 1, h[1]) - y2 * _ref_d1(values, 0, h[0]))
    return -lap + pot + ang


def _random_values(rng, counts, complex_):
    vals = rng.standard_normal(counts)
    return vals + 1j * rng.standard_normal(counts) if complex_ else vals


@pytest.mark.parametrize(
    "conv, grid",
    [
        (HN, BoxGrid((-1.0, -2.5, -0.7), (1.5, 2.0, 0.9), (7, 11, 13))),
        (HN, BoxGrid((-1.0, -0.5, -2.0, -1.5, -0.8), (1.2, 1.5, 2.0, 1.0, 1.1), (5, 7, 9, 5, 11))),
        (H3, BoxGrid((-2.0, -1.0, -0.6), (1.0, 1.3, 0.6), (9, 5, 17))),
    ],
    ids=["hn1", "hn2", "h3"],
)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stencils_bitwise_equal_to_shifted_copy_reference(conv, grid, complex_):
    # The slice-difference kernels keep every operand and every operation
    # order of the shifted-copy stencils, so the results agree bit for bit.
    rng = np.random.default_rng(41)
    values = _random_values(rng, grid.counts, complex_)
    u = ScalarField(grid, values)
    for axis, h in enumerate(grid.spacing):
        assert np.array_equal(first_diff(values, axis, h), _ref_d1(values, axis, h))
        assert np.array_equal(second_diff(values, axis, h), _ref_d2(values, axis, h))
    ref_grad = _ref_gradient(values, grid, conv)
    grad = horizontal_gradient(u, conv)
    assert len(grad.components) == len(ref_grad)
    for c, ref in zip(grad.components, ref_grad):
        assert np.array_equal(c.values, ref)
    comps = [_random_values(rng, grid.counts, complex_) for _ in ref_grad]
    F = HorizontalVectorField(tuple(ScalarField(grid, c) for c in comps))
    assert np.array_equal(horizontal_divergence(F, conv).values, _ref_divergence(comps, grid, conv))
    for p in (2.0, 3.0, 1.5):
        got = p_sublaplacian(u, p, conv=conv).values
        assert np.array_equal(got, _ref_p_sublaplacian(values, grid, conv, p))
    assert np.array_equal(sublaplacian(u, conv).values, _ref_sublaplacian(values, grid, conv))


@pytest.mark.parametrize(
    "grid",
    [
        BoxGrid((-1.0, -2.5, -0.7), (1.5, 2.0, 0.9), (7, 11, 13)),
        BoxGrid((-1.0, -0.5, -2.0, -1.5, -0.8), (1.2, 1.5, 2.0, 1.0, 1.1), (5, 7, 9, 5, 11)),
    ],
    ids=["hn1", "hn2"],
)
@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
def test_stencils_into_given_buffers_equal_fresh_ones_bitwise(grid, complex_):
    # The buffered calls run the allocating calls' code on the caller's arrays:
    # the same bits, returned in the given arrays, whatever those held before.
    rng = np.random.default_rng(47)
    values = _random_values(rng, grid.counts, complex_)
    u = ScalarField(grid, values)

    def garbage():
        return np.full(grid.counts, np.nan, dtype=values.dtype)

    for axis, h in enumerate(grid.spacing):
        out = garbage()
        assert first_diff(values, axis, h, out) is out
        assert np.array_equal(out, first_diff(values, axis, h))
    out, scratch = [garbage() for _ in range(grid.ndim - 1)], garbage()
    grad = horizontal_gradient(u, HN, out=out, scratch=scratch)
    assert all(c.values is o for c, o in zip(grad.components, out))
    fresh = horizontal_gradient(u, HN)
    assert all(np.array_equal(c.values, f.values) for c, f in zip(grad.components, fresh.components))
    F = HorizontalVectorField(tuple(
        ScalarField(grid, _random_values(rng, grid.counts, complex_)) for _ in range(grid.ndim - 1)
    ))
    out, scratch = garbage(), (garbage(), garbage())
    div = horizontal_divergence(F, HN, out=out, scratch=scratch)
    assert div.values is out
    assert np.array_equal(out, horizontal_divergence(F, HN).values)


@pytest.mark.parametrize("ndim,comps", [(3, 4), (5, 2)])
def test_divergence_needs_one_component_per_horizontal_field(ndim, comps):
    grid = BoxGrid.cube(1.0, 5, ndim)
    F = HorizontalVectorField(tuple(ScalarField(grid, np.ones(grid.counts)) for _ in range(comps)))
    with pytest.raises(DimensionMismatchError):
        horizontal_divergence(F, HN)


def test_first_diff_refuses_an_output_it_cannot_write_through():
    values = np.random.default_rng(5).standard_normal((5, 7, 9))
    with pytest.raises(ValueError):
        first_diff(values, 1, 0.5, np.empty((9, 7, 5)).T)


def test_twisted_laplacian_bitwise_equal_to_shifted_copy_reference():
    rng = np.random.default_rng(43)
    grid = BoxGrid((-3.0, -2.0), (3.0, 2.5), (13, 9))
    values = _random_values(rng, grid.counts, True)
    u = ScalarField(grid, values)
    for tau, angular_sign in ((1.3, 1), (-0.7, -1)):
        got = twisted_laplacian(u, tau, angular_sign).values
        assert np.array_equal(got, _ref_twisted(values, grid, tau, angular_sign))


# ---------------------------------------------------------------------------
# principal symbol: nowhere ellipticity
# ---------------------------------------------------------------------------


def test_symbol_vanishes_on_null_covectors():
    rng = np.random.default_rng(37)
    for _ in range(100):
        pt = HeisPoint(rng.normal(size=1), rng.normal(size=1), rng.normal())
        gamma = float(rng.normal()) or 1.0
        assert symbol_L(pt, null_covector(pt, gamma)) == 0.0


def test_symbol_positive_off_null_direction():
    pt = HeisPoint.from_coords([0.3, -0.7, 0.2])
    assert symbol_L(pt, (1.0, 0.0, 0.0)) > 0.0
    # symbol value by hand at the origin: xi^2 + eta^2
    origin = HeisPoint.origin(1)
    assert symbol_L(origin, (3.0, 4.0, 9.9)) == 25.0
