from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from horolab.geometry import (
    INFINITY,
    ORIGIN,
    BoundaryPoint,
    GeometryError,
    Isometry,
    PlanePoint,
    UnitTangent,
    busemann,
    closest_point_on_geodesic,
    frame_angle,
    frame_distance,
    frame_point,
    from_coordinates,
    geodesic_between,
    geodesic_flow,
    hamenstadt_distance,
    horocycle_flow,
    hyperbolic_distance,
    hyperbolic_midpoint,
    isometry_distance,
    mobius_apply,
    same_leaf,
)

from conftest import iwasawa, random_frame


# ---------------------------------------------------------------- oracles

def mobius_oracle(m: Isometry, z: complex) -> complex:
    """Independent complex-arithmetic route for the boundary/plane action."""
    return (m.a * z + m.b) / (m.c * z + m.d)


def busemann_probe(xi: BoundaryPoint, p: PlanePoint, q: PlanePoint, probe_distance: float) -> float:
    """Finite-difference oracle: d(p, z) - d(q, z) for z far out on a ray toward xi."""
    other = BoundaryPoint(xi.value + 1.0) if not xi.is_infinity else BoundaryPoint(0.0)
    m = geodesic_between(other, xi)
    base = m.inverse().apply_complex(ORIGIN.as_complex)
    z = mobius_apply(m, PlanePoint(0.0, abs(base) * math.exp(probe_distance)))
    return hyperbolic_distance(p, z) - hyperbolic_distance(q, z)


# ---------------------------------------------------------------- isometries

def test_mobius_quarter_turn_frozen():
    m = Isometry(0.0, -1.0, 1.0, 0.0)
    w = mobius_oracle(m, 2j)
    assert abs(w - 0.5j) < 1e-15
    p = mobius_apply(m, PlanePoint(0.0, 2.0))
    assert abs(p.x) < 1e-15 and abs(p.y - 0.5) < 1e-15


def test_mobius_matches_complex_oracle(rng):
    for _ in range(300):
        m = iwasawa(*(2.0 * rng.standard_normal(2)), rng.uniform(-3, 3))
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        w = mobius_apply(m, PlanePoint.from_complex(z)).as_complex
        assert abs(w - mobius_oracle(m, z)) < 1e-11 * (1 + abs(w))


def test_isometry_normalization():
    m = Isometry(-2.0, 0.0, 0.0, -0.5)
    assert m.entries() == pytest.approx((2.0, 0.0, 0.0, 0.5))
    with pytest.raises(GeometryError):
        Isometry(1.0, 0.0, 0.0, -1.0)
    with pytest.raises(GeometryError):
        Isometry(1.0, 2.0, 2.0, 4.0)


def test_compose_inverse_roundtrip(rng):
    for _ in range(100):
        m = iwasawa(rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-3, 3))
        assert isometry_distance(m @ m.inverse(), Isometry.identity()) < 1e-12


def test_infinity_is_a_chart_flag():
    shift = Isometry(1.0, 3.0, 0.0, 1.0)
    assert mobius_apply(shift, INFINITY).is_infinity
    rot = Isometry(0.0, -1.0, 1.0, 0.0)
    assert mobius_apply(rot, INFINITY).value == pytest.approx(0.0)
    assert mobius_apply(rot, BoundaryPoint(0.0)).is_infinity


def test_distance_i_2i_frozen():
    assert hyperbolic_distance(PlanePoint(0, 1), PlanePoint(0, 2)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_distance_isometry_invariant(rng):
    for _ in range(100):
        m = iwasawa(rng.uniform(-3, 3), rng.uniform(-2, 2), rng.uniform(-3, 3))
        p = PlanePoint(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        q = PlanePoint(rng.uniform(-4, 4), rng.uniform(0.1, 4))
        d0 = hyperbolic_distance(p, q)
        d1 = hyperbolic_distance(mobius_apply(m, p), mobius_apply(m, q))
        assert abs(d0 - d1) < 1e-11 * (1 + d0)


# ---------------------------------------------------------------- busemann

def test_busemann_frozen_values():
    i, i2 = PlanePoint(0, 1), PlanePoint(0, 2)
    assert busemann(INFINITY, i, i2) == pytest.approx(math.log(2.0), abs=1e-14)
    assert busemann(BoundaryPoint(0.0), i, i2) == pytest.approx(-math.log(2.0), abs=1e-14)


def test_busemann_finite_difference_oracle(rng):
    for _ in range(100):
        xi = INFINITY if rng.uniform() < 0.2 else BoundaryPoint(rng.uniform(-4, 4))
        p = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        q = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        assert abs(busemann(xi, p, q) - busemann_probe(xi, p, q, 15.0)) < 1e-6


def test_busemann_cocycle_identity(rng):
    for _ in range(200):
        xi = INFINITY if rng.uniform() < 0.2 else BoundaryPoint(rng.uniform(-4, 4))
        p, q, r = (PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3)) for _ in range(3))
        lhs = busemann(xi, p, q) + busemann(xi, q, r)
        assert abs(lhs - busemann(xi, p, r)) < 1e-10


def test_busemann_equivariance(rng):
    for _ in range(200):
        m = iwasawa(rng.uniform(-2, 2), rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
        xi = INFINITY if rng.uniform() < 0.2 else BoundaryPoint(rng.uniform(-4, 4))
        p = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        q = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        lhs = busemann(mobius_apply(m, xi), mobius_apply(m, p), mobius_apply(m, q))
        assert abs(lhs - busemann(xi, p, q)) < 1e-10


# ---------------------------------------------------------------- tangent chart

def test_identity_frame_conventions():
    u = UnitTangent.identity()
    assert (u.base_point.x, u.base_point.y) == pytest.approx((0.0, 1.0))
    assert u.minus.value == pytest.approx(0.0)
    assert u.plus.is_infinity
    assert u.busemann_coordinate == pytest.approx(0.0, abs=1e-14)
    assert u.direction_angle == pytest.approx(math.pi / 2)


def test_frame_point_matches_base_point_bitwise(rng):
    frames = [random_frame(rng).frame for _ in range(300)]
    # frames with c == 0: the base point sits straight above b / d
    frames += [Isometry(2.0, 0.3, 0.0, 0.5), Isometry(1.0, -4.0, 0.0, 1.0), Isometry.identity()]
    frames += [geodesic_flow(UnitTangent(Isometry(1.0, x, 0.0, 1.0)), t).frame
               for x, t in rng.uniform(-3.0, 3.0, (20, 2))]
    a, b, c, d = np.array([g.entries() for g in frames]).T
    assert np.count_nonzero(c == 0.0) >= 23
    x, y = frame_point(a, b, c, d)
    theta = frame_angle(c, d)
    for g, xk, yk, tk in zip(frames, x, y, theta):
        u = UnitTangent(g)
        assert (u.base_point.x, u.base_point.y) == (xk, yk)
        z = mobius_oracle(g, 1j)
        assert abs(complex(xk, yk) - z) <= 1e-12 * max(1.0, abs(z))
        gap = math.remainder(u.direction_angle - tk, 2.0 * math.pi)
        assert abs(gap) < 1e-12


def test_geodesic_flow_frozen_matrix():
    u = geodesic_flow(UnitTangent.identity(), 2.0)
    assert u.frame.entries() == pytest.approx((math.e, 0.0, 0.0, 1.0 / math.e))
    assert u.base_point.y == pytest.approx(math.exp(2.0))


def test_horocycle_flow_frozen_matrix():
    u = horocycle_flow(UnitTangent.identity(), 1.0)
    assert u.frame.entries() == pytest.approx((1.0, 0.0, 1.0, 1.0))


def test_flows_move_as_stated(rng):
    for _ in range(50):
        u = random_frame(rng)
        t = rng.uniform(-4, 4)
        v = geodesic_flow(u, t)
        assert hyperbolic_distance(u.base_point, v.base_point) == pytest.approx(abs(t), abs=1e-9)
        assert u.plus.chordal(v.plus) < 1e-12
        assert u.minus.chordal(v.minus) < 1e-12
        w = horocycle_flow(u, rng.uniform(-30, 30))
        assert u.minus.chordal(w.minus) < 1e-11
        assert same_leaf(u, w, tol=1e-8)


def test_flow_conjugation(rng):
    for _ in range(300):
        u = random_frame(rng)
        t, s = rng.uniform(-3, 3), rng.uniform(-8, 8)
        lhs = geodesic_flow(horocycle_flow(u, s), t)
        rhs = horocycle_flow(geodesic_flow(u, t), s * math.exp(t))
        assert frame_distance(lhs, rhs) < 1e-9


def test_from_coordinates_identity_case():
    u = from_coordinates(BoundaryPoint(0.0), INFINITY, 0.0)
    assert frame_distance(u, UnitTangent.identity()) < 1e-12


def test_from_coordinates_unit_circle_against_root_finder():
    # independent route: slide along the geodesic (-1, 1) until the height
    # coordinate vanishes, with the root located by brentq
    m0 = geodesic_between(BoundaryPoint(-1.0), BoundaryPoint(1.0))

    def height(t):
        return UnitTangent(m0 @ Isometry(math.exp(0.5 * t), 0, 0, math.exp(-0.5 * t))).busemann_coordinate

    t_star = brentq(height, -10.0, 10.0, xtol=1e-13)
    expected = UnitTangent(m0 @ Isometry(math.exp(0.5 * t_star), 0, 0, math.exp(-0.5 * t_star)))
    u = from_coordinates(BoundaryPoint(-1.0), BoundaryPoint(1.0), 0.0)
    assert frame_distance(u, expected) < 1e-9
    assert abs(u.base_point.x) < 1e-12 and abs(u.base_point.y - 1.0) < 1e-12


def test_from_coordinates_round_trip(rng):
    for _ in range(200):
        u = random_frame(rng)
        v = from_coordinates(u.minus, u.plus, u.busemann_coordinate)
        assert frame_distance(u, v) < 1e-9
    # infinite endpoints
    for minus, plus in [(INFINITY, BoundaryPoint(2.0)), (BoundaryPoint(-3.0), INFINITY)]:
        s = 0.7
        u = from_coordinates(minus, plus, s)
        assert u.minus.chordal(minus) < 1e-12
        assert u.plus.chordal(plus) < 1e-12
        assert abs(u.busemann_coordinate - s) < 1e-11


def test_from_coordinates_rejects_coincident_endpoints():
    with pytest.raises(GeometryError):
        from_coordinates(BoundaryPoint(1.0), BoundaryPoint(1.0), 0.0)


def test_mobius_acts_on_tangents(rng):
    for _ in range(50):
        u = random_frame(rng)
        m = iwasawa(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-3, 3))
        v = mobius_apply(m, u)
        assert v.minus.chordal(mobius_apply(m, u.minus)) < 1e-10
        assert v.plus.chordal(mobius_apply(m, u.plus)) < 1e-10
        assert hyperbolic_distance(v.base_point, mobius_apply(m, u.base_point)) < 1e-10


# ---------------------------------------------------------------- leaf metric

def test_hamenstadt_equals_flow_parameter(rng):
    worst = 0.0
    for _ in range(300):
        u = random_frame(rng)
        t = rng.uniform(-100, 100)
        worst = max(worst, abs(hamenstadt_distance(u, horocycle_flow(u, t)) - abs(t)))
    assert worst < 1e-9


def test_hamenstadt_well_defined_in_evaluation_point(rng):
    # the defining formula may use any point of the geodesic joining the two
    # forward endpoints; recompute with far-off points and compare
    for _ in range(50):
        u = random_frame(rng)
        v = horocycle_flow(u, rng.uniform(0.5, 20.0))
        d0 = hamenstadt_distance(u, v)
        m = geodesic_between(u.plus, v.plus)
        for h in (0.01, 1.0, 100.0):
            x = mobius_apply(m, PlanePoint(0.0, h))
            alt = math.exp(
                0.5 * busemann(u.plus, x, u.base_point) + 0.5 * busemann(v.plus, x, v.base_point)
            )
            assert abs(alt - d0) < 1e-8 * (1 + d0)


def test_hamenstadt_isometry_invariant(rng):
    for _ in range(100):
        u = random_frame(rng)
        v = horocycle_flow(u, rng.uniform(-50, 50))
        m = iwasawa(rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-3, 3))
        d0 = hamenstadt_distance(u, v)
        d1 = hamenstadt_distance(mobius_apply(m, u), mobius_apply(m, v))
        assert abs(d0 - d1) < 1e-9 * (1 + d0)


def test_hamenstadt_dilation(rng):
    for _ in range(100):
        u = random_frame(rng)
        v = horocycle_flow(u, rng.uniform(-20, 20))
        t = rng.uniform(-3, 3)
        d0 = hamenstadt_distance(u, v)
        d1 = hamenstadt_distance(geodesic_flow(u, t), geodesic_flow(v, t))
        assert abs(d1 - math.exp(t) * d0) < 1e-9 * (1 + d1)


def test_hamenstadt_rejects_distinct_leaves(rng):
    u = UnitTangent.identity()
    v = geodesic_flow(u, 1.0)
    with pytest.raises(GeometryError):
        hamenstadt_distance(u, v)
    w = UnitTangent(iwasawa(1.0, 0.0, 0.4))
    with pytest.raises(GeometryError):
        hamenstadt_distance(u, w)


def test_same_leaf_tolerances():
    u = UnitTangent.identity()
    assert same_leaf(u, horocycle_flow(u, 5.0))
    assert not same_leaf(u, geodesic_flow(u, 1e-3))
    assert same_leaf(u, geodesic_flow(u, 1e-12))


# ---------------------------------------------------------------- geodesic helpers

def test_midpoint_and_projection(rng):
    p, q = PlanePoint(0, 1), PlanePoint(0, 4)
    m = hyperbolic_midpoint(p, q)
    assert m.x == pytest.approx(0.0) and m.y == pytest.approx(2.0)
    for _ in range(50):
        a = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        b = PlanePoint(rng.uniform(-3, 3), rng.uniform(0.2, 3))
        mid = hyperbolic_midpoint(a, b)
        assert abs(hyperbolic_distance(a, mid) - hyperbolic_distance(b, mid)) < 1e-9
        assert (
            abs(hyperbolic_distance(a, mid) + hyperbolic_distance(mid, b) - hyperbolic_distance(a, b))
            < 1e-9
        )
    x = closest_point_on_geodesic(BoundaryPoint(-1.0), BoundaryPoint(1.0), PlanePoint(0.0, 7.0))
    assert abs(x.x) < 1e-12 and abs(x.y - 1.0) < 1e-12
