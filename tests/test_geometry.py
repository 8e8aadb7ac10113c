"""Group-law, gauge, and dilation tests for the Heisenberg geometry layer.

Oracles: hand-computed products frozen as constants, exact algebraic
identities (associativity, inverse, morphism property of dilations), and the
defining homogeneity/invariance relations evaluated on seeded random batches.
"""

import numpy as np
import pytest

from heislab import (
    HeisPoint,
    dilate,
    group_inv,
    group_mul,
    koranyi_dist,
    koranyi_norm,
)
from heislab.exceptions import DimensionMismatchError


def _random_points(rng, n, batch):
    return HeisPoint(
        rng.normal(size=(batch, n)),
        rng.normal(size=(batch, n)),
        rng.normal(size=batch),
    )


def test_product_hand_value():
    # (x,y,t) o (x',y',t') adds a twist 2(y x' - x y'):
    # a = (1,2,3), b = (4,5,6): t = 3 + 6 + 2*(2*4 - 1*5) = 15.
    a = HeisPoint.from_coords([1.0, 2.0, 3.0])
    b = HeisPoint.from_coords([4.0, 5.0, 6.0])
    np.testing.assert_allclose(group_mul(a, b).coords(), [5.0, 7.0, 15.0], atol=0)
    # reversed order flips the twist: t = 9 + 2*(5*1 - 4*2) = 3.
    np.testing.assert_allclose(group_mul(b, a).coords(), [5.0, 7.0, 3.0], atol=0)


def test_product_hand_value_n2():
    # n = 2: twist = 2 * sum_i (y_i x'_i - x_i y'_i)
    #      = 2 * ((3*(-1) - 1*2) + (4*1 - 2*0)) = 2 * (-5 + 4) = -2.
    a = HeisPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]), 5.0)
    b = HeisPoint(np.array([-1.0, 1.0]), np.array([2.0, 0.0]), 7.0)
    out = group_mul(a, b)
    np.testing.assert_allclose(out.x, [0.0, 3.0], atol=0)
    np.testing.assert_allclose(out.y, [5.0, 4.0], atol=0)
    np.testing.assert_allclose(out.t, 5.0 + 7.0 - 2.0, atol=0)


def test_identity_and_inverse():
    rng = np.random.default_rng(7)
    a = _random_points(rng, 2, 40)
    e = HeisPoint.origin(2, (40,))
    for prod in (group_mul(a, e), group_mul(e, a)):
        np.testing.assert_allclose(prod.x, a.x, atol=0)
        np.testing.assert_allclose(prod.y, a.y, atol=0)
        np.testing.assert_allclose(prod.t, a.t, atol=0)
    back = group_mul(a, group_inv(a))
    assert np.max(np.abs(back.x)) == 0.0
    assert np.max(np.abs(back.y)) == 0.0
    assert np.max(np.abs(back.t)) <= 1e-12


def test_associativity_sampled():
    rng = np.random.default_rng(11)
    for n in (1, 3):
        a = _random_points(rng, n, 200)
        b = _random_points(rng, n, 200)
        c = _random_points(rng, n, 200)
        left = group_mul(group_mul(a, b), c)
        right = group_mul(a, group_mul(b, c))
        assert np.max(np.abs(left.t - right.t)) <= 1e-12
        assert np.max(np.abs(left.x - right.x)) <= 1e-12


def test_noncommutativity_witness():
    a = HeisPoint.from_coords([1.0, 0.0, 0.0])
    b = HeisPoint.from_coords([0.0, 1.0, 0.0])
    ab = group_mul(a, b)
    ba = group_mul(b, a)
    # twists 2(y.x' - x.y') land with opposite signs
    assert float(np.asarray(ab.t).ravel()[0]) == -2.0
    assert float(np.asarray(ba.t).ravel()[0]) == 2.0


def test_koranyi_norm_hand_value():
    # r(3, 4, 7) = ((3^2+4^2)^2 + 7^2)^{1/4} = (625 + 49)^{1/4}
    a = HeisPoint.from_coords([3.0, 4.0, 7.0])
    np.testing.assert_allclose(koranyi_norm(a), 674.0 ** 0.25, rtol=1e-15)


def test_gauge_homogeneity_under_dilation():
    rng = np.random.default_rng(3)
    a = _random_points(rng, 2, 300)
    r = koranyi_norm(a)
    for s in (0.25, 1.0, 3.7):
        rs = koranyi_norm(dilate(s, a))
        assert np.max(np.abs(rs - s * r)) <= 1e-12 * max(1.0, s) * np.max(r)


def test_dilation_is_group_morphism():
    rng = np.random.default_rng(5)
    a = _random_points(rng, 2, 100)
    b = _random_points(rng, 2, 100)
    s = 2.5
    lhs = dilate(s, group_mul(a, b))
    rhs = group_mul(dilate(s, a), dilate(s, b))
    assert np.max(np.abs(lhs.t - rhs.t)) <= 1e-12 * np.max(np.abs(lhs.t))
    assert np.max(np.abs(lhs.x - rhs.x)) <= 1e-12


def test_distance_left_invariance():
    rng = np.random.default_rng(13)
    a = _random_points(rng, 1, 250)
    b = _random_points(rng, 1, 250)
    g = _random_points(rng, 1, 250)
    d0 = koranyi_dist(a, b)
    d1 = koranyi_dist(group_mul(g, a), group_mul(g, b))
    assert np.max(np.abs(d0 - d1)) <= 1e-12 * np.max(1.0 + d0)


def test_distance_symmetry_and_triangle():
    rng = np.random.default_rng(17)
    a = _random_points(rng, 1, 300)
    b = _random_points(rng, 1, 300)
    c = _random_points(rng, 1, 300)
    dab = koranyi_dist(a, b)
    assert np.max(np.abs(dab - koranyi_dist(b, a))) <= 1e-12 * np.max(1.0 + dab)
    # the gauge distance is a true metric: triangle inequality with constant 1
    slack = 1e-12 * np.max(1.0 + dab)
    assert np.all(koranyi_dist(a, c) <= dab + koranyi_dist(b, c) + slack)


def test_coords_round_trip_and_validation():
    a = HeisPoint.from_coords([1.0, -2.0, 0.5, 1.5, 3.0])
    assert a.n == 2
    np.testing.assert_allclose(a.coords(), [1.0, -2.0, 0.5, 1.5, 3.0], atol=0)
    with pytest.raises(DimensionMismatchError):
        HeisPoint.from_coords([1.0, 2.0])  # even length
    with pytest.raises(DimensionMismatchError):
        HeisPoint(np.zeros((3, 1)), np.zeros((2, 1)), np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        group_mul(HeisPoint.origin(1), HeisPoint.origin(2))
    with pytest.raises(ValueError):
        dilate(-1.0, a)
    with pytest.raises(ValueError):
        dilate(np.array([1.0, 2.0]), a)
