import dataclasses
import math

import numpy as np
import pytest

from horolab.defaults import (
    BUMP_WIDTHS,
    DEFAULT_BUMPS,
    EQUIDIST_RADII,
    EXPERIMENT_PERIODS,
    MIXING_LEAF_COORDINATE,
    MIXING_TIMES,
    NONDIV_HEIGHT,
    PATTERSON_RADIUS,
    RATIO_BUMPS,
    Loader,
    cusped_group,
    schottky_group,
    unit_parabolic_group,
)
from horolab.groups import WordSpec, dumps_group, fixed_points, parse_group_text, sample_limit_point
from horolab.geometry import (
    INFINITY,
    BoundaryPoint,
    frame_distance,
    from_coordinates,
    geodesic_flow,
    horocycle_flow,
    mobius_apply,
)
from horolab import averages
from horolab.checks import check_flow_commutation, run_all
from horolab.cli import main
from horolab.measures import PattersonConfig, build_patterson, conditional_on_horocycle
from horolab.averages import (
    AverageSeries,
    AveragesError,
    ConstantFunction,
    CuspHeightCap,
    ShiftedFunction,
    TestFunction,
    VectorClass,
    WeightedFunction,
    _flowed,
    _frame_coordinates,
    _leaf_frames,
    _values,
    average_lebesgue,
    average_ps,
    build_vector,
    flow_commutation_residual,
    mass_in_compact,
    mixing_series,
    periodic_closure,
    pointed_frame,
    ratio_series,
)

from conftest import conjugate

DELTA_SCH = 0.4322791205538202
DELTA_CUS = 0.646822563859683
WB, WA = BUMP_WIDTHS


@pytest.fixture(scope="module")
def sch():
    return schottky_group()


@pytest.fixture(scope="module")
def cus():
    return cusped_group()


@pytest.fixture(scope="module")
def m_sch(sch):
    return build_patterson(sch, PattersonConfig(DELTA_SCH, 14, PATTERSON_RADIUS["schottky"]))


@pytest.fixture(scope="module")
def m_cus(cus):
    return build_patterson(cus, PattersonConfig(DELTA_CUS, 14, PATTERSON_RADIUS["cusped"]))


def _vector(group, name, s=0.0):
    pm, pp = EXPERIMENT_PERIODS[name]
    u, cls = build_vector(
        group,
        sample_limit_point(group, WordSpec(period=pm)),
        sample_limit_point(group, WordSpec(period=pp)),
        s=s,
    )
    assert cls is VectorClass.RADIAL
    return u


@pytest.fixture(scope="module")
def u8(sch):
    return _vector(sch, "schottky")


@pytest.fixture(scope="module")
def u9(cus):
    return _vector(cus, "cusped")


def _bumps(group, name):
    return [
        TestFunction(group, pointed_frame(*cd), base_width=WB, angle_width=WA)
        for cd in DEFAULT_BUMPS[name]
    ]


def test_pointed_frame_round_trip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = float(rng.uniform(-4, 4))
        y = float(rng.uniform(0.2, 5.0))
        th = float(rng.uniform(-3.0, 3.0))
        u = pointed_frame(x, y, th)
        bp = u.base_point
        assert bp.x == pytest.approx(x, abs=1e-12)
        assert bp.y == pytest.approx(y, abs=1e-12)
        assert math.sin(u.direction_angle - th) == pytest.approx(0.0, abs=1e-12)
        assert math.cos(u.direction_angle - th) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(AveragesError):
        pointed_frame(0.0, 0.0, 0.0)


def test_bump_peaks_at_center(sch):
    c = pointed_frame(0.0, 1.4, 0.3)
    psi = TestFunction(sch, c)
    assert psi(c) == pytest.approx(1.0, abs=1e-12)
    assert psi(pointed_frame(0.0, 1.4, 0.3 + 2.0)) < 1.0


def test_bump_group_invariance(sch, cus):
    rng = np.random.default_rng(11)
    for group, name in ((sch, "schottky"), (cus, "cusped")):
        psi = _bumps(group, name)[0]
        for _ in range(10):
            word = tuple(group._random_reduced_letters(rng, 5))
            g = group.word_matrix(word)
            x = float(rng.uniform(-1.5, 1.5))
            y = float(rng.uniform(0.5, 3.0))
            th = float(rng.uniform(-3, 3))
            u = pointed_frame(x, y, th)
            from horolab.geometry import mobius_apply

            assert psi(mobius_apply(g, u)) == pytest.approx(psi(u), abs=1e-9)


def test_bump_validation(sch):
    with pytest.raises(AveragesError):
        TestFunction(sch, pointed_frame(2.0, 0.3, 0.0))  # inside a generator disk
    with pytest.raises(AveragesError):
        TestFunction(sch, pointed_frame(0.0, 1.0, 0.0), base_width=0.0)


def _bump_formula(psi, x, y, theta):
    """TestFunction.evaluate_points before it skipped points off the support."""
    d2 = (x - psi._x0) ** 2 + (y - psi._y0) ** 2
    dist = np.arccosh(1.0 + d2 / (2.0 * y * psi._y0))
    dth = np.mod(theta - psi._th0 + np.pi, 2.0 * np.pi) - np.pi
    rho2 = (dist / psi.base_width) ** 2 + (dth / psi.angle_width) ** 2
    out = np.zeros_like(rho2)
    inside = rho2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
    return out


def test_bump_support_filter_matches_formula(sch, cus):
    rng = np.random.default_rng(2024)
    for group, name in ((sch, "schottky"), (cus, "cusped")):
        for psi in _bumps(group, name):
            # random points, heights from 1e-8 to 1e3
            n = 10**6
            x = psi._x0 + rng.uniform(-4.0, 4.0, n)
            y = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), n))
            th = rng.uniform(-math.pi, math.pi, n)
            got = psi.evaluate_points(x, y, th)
            assert np.array_equal(got, _bump_formula(psi, x, y, th))
            assert 0 < np.count_nonzero(got) < n
            # points within 1e-9 of base distance base_width from the center,
            # and of the slightly larger distance where the filter starts
            # skipping; half of them at the center's angle
            skip_from = math.acosh(1.0 + psi._reach / (2.0 * psi._y0))
            for edge in (psi.base_width, skip_from):
                m = 20000
                rho = edge + rng.uniform(-1e-9, 1e-9, m)
                phi = rng.uniform(-math.pi, math.pi, m)
                # distance rho from i in direction phi, then z -> x0 + y0 z
                zr = np.tanh(0.5 * rho) * np.exp(1j * phi)  # disk model
                z = 1j * (1.0 + zr) / (1.0 - zr)
                x, y = psi._x0 + psi._y0 * z.real, psi._y0 * z.imag
                th = np.where(np.arange(m) % 2 == 0, psi._th0, rng.uniform(-math.pi, math.pi, m))
                assert np.array_equal(psi.evaluate_points(x, y, th), _bump_formula(psi, x, y, th))
                d2 = (x - psi._x0) ** 2 + (y - psi._y0) ** 2
                dist = np.arccosh(1.0 + d2 / (2.0 * y * psi._y0))
                assert 0 < np.count_nonzero(dist < edge) < m  # the ring straddles its edge
            assert 0 < np.count_nonzero(d2 >= psi._reach * y) < m


def test_build_vector_classes(sch, cus):
    u, cls = build_vector(sch, BoundaryPoint(30.0), BoundaryPoint(0.5))
    assert cls is VectorClass.WANDERING
    pm, _ = EXPERIMENT_PERIODS["schottky"]
    rad = sample_limit_point(sch, WordSpec(period=pm))
    u, cls = build_vector(sch, rad, BoundaryPoint(0.5))
    assert cls is VectorClass.RADIAL
    par = sample_limit_point(cus, WordSpec(period=("p",)))
    u, cls = build_vector(cus, par, BoundaryPoint(5.0))
    assert cls is VectorClass.PARABOLIC
    assert u.minus.value == pytest.approx(0.0, abs=1e-14)


def test_average_ps_of_constant_is_one(u8, m_sch):
    assert average_ps(u8, math.e ** 2, ConstantFunction(), m_sch, DELTA_SCH) == pytest.approx(1.0, abs=1e-13)


def test_average_ps_frozen_series(sch, u8, m_sch):
    psi0, psi1, psi2 = _bumps(sch, "schottky")
    vals0 = [average_ps(u8, r, psi0, m_sch, DELTA_SCH) for r in EQUIDIST_RADII]
    assert vals0[0] == pytest.approx(0.0, abs=1e-15)
    assert vals0[1] == pytest.approx(0.031596213665290605, rel=1e-9)
    assert vals0[2] == pytest.approx(0.06028288509173061, rel=1e-9)
    assert average_ps(u8, EQUIDIST_RADII[2], psi1, m_sch, DELTA_SCH) == pytest.approx(
        0.028492533504734536, rel=1e-9
    )
    assert average_ps(u8, EQUIDIST_RADII[2], psi2, m_sch, DELTA_SCH) == pytest.approx(
        0.029125745180586072, rel=1e-9
    )


def test_average_ps_empty_ball_raises(u8, m_sch):
    with pytest.raises(AveragesError):
        average_ps(u8, 1e-15, ConstantFunction(), m_sch, DELTA_SCH)


def test_flow_commutation_residual(sch, u8, m_sch):
    psi = _bumps(sch, "schottky")[0]
    for r, t in ((math.e ** 2, 1.0), (math.e ** 3, 2.5)):
        assert flow_commutation_residual(u8, [r], [t], psi, m_sch, DELTA_SCH).max() < 1e-9


def test_average_lebesgue_basics(sch, u8):
    assert average_lebesgue(u8, 3.0, ConstantFunction(2.5)) == pytest.approx(2.5, abs=1e-12)
    far = TestFunction(sch, pointed_frame(0.0, 60.0, 0.0), base_width=0.4, angle_width=0.8)
    assert average_lebesgue(u8, 3.0, far) == 0.0
    with pytest.raises(AveragesError):
        average_lebesgue(u8, 0.0, ConstantFunction())


def test_average_lebesgue_frozen(cus, u9):
    psi = _bumps(cus, "cusped")[0]
    assert average_lebesgue(u9, math.e ** 4, psi) == pytest.approx(0.007482198194821519, rel=1e-8)


def test_ratio_series_self_is_one(cus, u9, m_cus):
    psi = _bumps(cus, "cusped")[0]
    ser = ratio_series(u9, psi, psi, (math.e ** 2, math.e ** 3), m_cus, DELTA_CUS)
    assert np.allclose(ser.values, 1.0, atol=1e-12)
    assert ser.reference == pytest.approx(1.0, abs=1e-12)


def test_ratio_series_frozen(cus, u9, m_cus):
    psi, phi = [
        TestFunction(cus, pointed_frame(*cd), base_width=WB, angle_width=WA)
        for cd in RATIO_BUMPS
    ]
    ser = ratio_series(u9, psi, phi, EQUIDIST_RADII, m_cus, DELTA_CUS)
    assert ser.reference == pytest.approx(1.0580421745799589, rel=1e-9)
    assert ser.values[0] == pytest.approx(1.092454880785772, rel=1e-8)
    assert ser.values[1] == pytest.approx(1.0925087918535341, rel=1e-8)
    assert ser.values[2] == pytest.approx(1.0174496187650133, rel=1e-8)
    flipped = ratio_series(u9, phi, psi, EQUIDIST_RADII, m_cus, DELTA_CUS)
    assert np.allclose(np.asarray(flipped.values) * np.asarray(ser.values), 1.0, atol=1e-10)
    assert flipped.reference * ser.reference == pytest.approx(1.0, abs=1e-12)


def test_ratio_series_zero_denominator(cus, u9, m_cus):
    psi = _bumps(cus, "cusped")[0]
    far = TestFunction(cus, pointed_frame(0.0, 50.0, 0.0), base_width=0.4, angle_width=0.8)
    with pytest.raises(AveragesError):
        ratio_series(u9, psi, far, (math.e ** 2, math.e ** 4), m_cus, DELTA_CUS)


def test_mixing_series_frozen(sch, m_sch):
    pm, pp = EXPERIMENT_PERIODS["schottky"]
    u10, _ = build_vector(
        sch,
        sample_limit_point(sch, WordSpec(period=pm)),
        sample_limit_point(sch, WordSpec(period=pp)),
        s=MIXING_LEAF_COORDINATE,
    )
    psi = _bumps(sch, "schottky")[0]
    ser = mixing_series(u10, 1.0, psi, MIXING_TIMES, m_sch, DELTA_SCH)
    assert ser.reference == pytest.approx(0.060547058378818276, rel=1e-9)
    assert ser.values[0] == average_ps(u10, 1.0, psi, m_sch, DELTA_SCH)
    assert abs(ser.values[-1] / ser.reference - 1.0) == pytest.approx(0.004363106882944895, abs=1e-6)


def test_mass_in_compact(sch, cus, u8, u9, m_sch, m_cus):
    radii = (math.e ** 2, math.e ** 4, math.e ** 6)
    flat = mass_in_compact(u8, radii, 6.0, m_sch, DELTA_SCH)
    assert np.allclose(flat.values, 1.0, atol=1e-15)  # no cusps, cap is identically one
    huge = mass_in_compact(u9, radii, 1e9, m_cus, DELTA_CUS)
    assert np.allclose(huge.values, 1.0, atol=1e-15)
    ser = mass_in_compact(u9, radii, NONDIV_HEIGHT, m_cus, DELTA_CUS)
    assert ser.values[0] == pytest.approx(1.0, abs=1e-12)
    assert ser.values[1] == pytest.approx(0.8822752368771217, rel=1e-8)
    assert ser.values[2] == pytest.approx(0.9660028006131066, rel=1e-8)
    assert min(ser.values) >= 0.8


def test_cusp_height_cap_values(cus):
    cap = CuspHeightCap(cus, 6.0, 0.1)
    assert cap(pointed_frame(0.0, 1.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
    assert cap(pointed_frame(0.0, 1e-4, 0.0)) == 0.0


def test_periodic_closure_frozen(cus):
    t0, res = periodic_closure(cus, "p")
    assert t0 == -4.0
    assert res < 1e-8


def test_periodic_closure_dilation(cus):
    fp = BoundaryPoint(0.0)
    u0 = from_coordinates(fp, INFINITY, 0.0)
    t_base, _ = periodic_closure(cus, "p", u=u0)
    for s in (0.5, 1.0, 2.0):
        t_s, res = periodic_closure(cus, "p", u=geodesic_flow(u0, -s))
        assert res < 1e-8
        assert t_s == pytest.approx(math.exp(-s) * t_base, rel=1e-8)


def test_periodic_closure_rejects_hyperbolic(sch, cus):
    with pytest.raises(AveragesError):
        periodic_closure(sch, "a")
    with pytest.raises(AveragesError):
        periodic_closure(cus, "b")


def searched_closure(group, label, u):
    """The closure time found by search, an oracle for periodic_closure's
    closed form: the least frame gap between p u and h^t u over 4,097 evenly
    spaced times in |t| <= 10 e^{|leaf coordinate|} and the two closed-form
    seeds, refined by golden section around the best of them down to float
    resolution. The seeds only place the bracket; the golden section finds
    the gap's own minimizer inside it."""
    gen = group.generator(label)
    target = mobius_apply(gen.matrix, u)

    def gap(t):
        return frame_distance(target, horocycle_flow(u, t))

    chart = group._parabolic_charts[label]
    seed = chart.tau / chart.conjugator.apply_complex(u.base_point.as_complex).imag
    window = 10.0 * math.exp(abs(u.busemann_coordinate))
    cands = list(np.linspace(-window, window, 4097)) + [seed, -seed]
    best = float(min(cands, key=gap))
    spread = max(abs(seed) * 0.25, 2.0 * window / 4096.0)
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = best - spread, best + spread
    c, d = b - inv * (b - a), a + inv * (b - a)
    fc, fd = gap(c), gap(d)
    while True:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = gap(d)
        if not b - a < width:
            return 0.5 * (a + b)


CLOSURE_CASES = [
    (name, label, s)
    for name in ("cusped", "unit-parabolic", "conjugated-cusped")
    for label in ("p", "P")
    for s in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0)
]


def closure_case(groups, name, label, s):
    """(group, u): the leaf of the default vector of periodic_closure flowed by s."""
    group = groups[name]
    fp, _ = fixed_points(group.generator(label).matrix)
    return group, geodesic_flow(from_coordinates(fp, INFINITY, 0.0), s)


@pytest.fixture(scope="module")
def groups_with_cusps():
    return {
        "cusped": cusped_group(),
        "unit-parabolic": unit_parabolic_group(),
        "conjugated-cusped": conjugate(cusped_group(), np.random.default_rng(27))[0],
    }


@pytest.mark.parametrize("name, label, s", CLOSURE_CASES)
def test_periodic_closure_matches_search(groups_with_cusps, name, label, s):
    group, u = closure_case(groups_with_cusps, name, label, s)
    t0, res = periodic_closure(group, label, u=u)
    assert t0 == pytest.approx(searched_closure(group, label, u), rel=1e-9, abs=0.0)
    assert res <= 1e-12


@pytest.mark.parametrize("name, label, s", CLOSURE_CASES)
def test_periodic_closure_residual_sees_a_wrong_time(groups_with_cusps, name, label, s):
    # the residual, not the dilation law, tests the formula: a time off by
    # one part in a million leaves a gap far above the closure tolerance
    group, u = closure_case(groups_with_cusps, name, label, s)
    t0, _ = periodic_closure(group, label, u=u)
    target = mobius_apply(group.generator(label).matrix, u)
    gap = frame_distance(target, horocycle_flow(u, t0 * (1.0 + 1e-6)))
    # relative to the frame's size, as periodic_closure reports it
    assert gap / math.hypot(*target.frame.entries()) > 1e-8


def test_periodic_closure_residual_is_relative(cus):
    # the residual is the frame gap relative to the frame of p u, so a
    # closed leaf flowed far out stays at rounding (as an absolute gap it
    # read 4.65e136 at dilation 700), and an open leaf, off the fixed point
    # 0 of p, stays far from closure at every dilation
    for xi, low, high in ((0.0, 0.0, 1e-15), (0.1, 0.09, 0.14)):
        u0 = from_coordinates(BoundaryPoint(xi), INFINITY, 0.0)
        for s in (0.0, 0.5, 2.0, 100.0, 350.0, 700.0):
            _, res = periodic_closure(cus, "p", u=geodesic_flow(u0, s))
            assert low <= res <= high, (xi, s, res)


def test_series_validation(u8, m_sch):
    with pytest.raises(AveragesError):
        AverageSeries(np.array([1.0, 2.0]), np.array([0.5]), 1.0)
    with pytest.raises(AveragesError):
        AverageSeries(np.array([2.0, 1.0]), np.array([0.5, 0.6]), 1.0)
    with pytest.raises(AveragesError):
        AverageSeries(np.array([1.0, 2.0]), np.array([0.5, math.nan]), 1.0)
    for r in (0.0, math.nan):
        with pytest.raises(AveragesError):
            average_ps(u8, r, ConstantFunction(), m_sch, DELTA_SCH)


def test_shifted_and_weighted_functions(sch, u8):
    psi = _bumps(sch, "schottky")[0]
    sh = ShiftedFunction(psi, 1.7)
    assert sh(u8) == pytest.approx(psi(geodesic_flow(u8, 1.7)), abs=1e-12)
    wf = WeightedFunction(psi, lambda x, y: 2.0 * np.ones_like(x))
    v = pointed_frame(0.0, 1.4, 0.0)
    frames = np.array([np.array(v.frame.entries()).reshape(2, 2)])
    assert _values(wf, frames)[0] == pytest.approx(2.0 * _values(psi, frames)[0], rel=1e-12)

# ------------------------------------------- one settled leaf, exact replay


def fresh_average(u, r, psi, measure, delta):
    """The ball average through a new conditional measure and one
    reduce_frames batch of the ball's rows."""
    cond = conditional_on_horocycle(u, measure, delta)
    sel = np.abs(cond.params) < r
    lw = cond.log_weights[sel]
    w = np.exp(lw - np.max(lw))
    vals = _values(psi, _leaf_frames(u, cond.params[sel]))
    return float(np.sum(w * vals) / np.sum(w))


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _integrands(group, name):
    """Every kind of integrand, the last a bump on a copy of group read back
    from its text form, whose matrices differ in the last bits, so its store
    must not be that of the bump psi[0] on group itself."""
    psi = _bumps(group, name)
    return psi + [
        CuspHeightCap(group, NONDIV_HEIGHT),
        ConstantFunction(),
        ShiftedFunction(psi[0], 1.5),
        ShiftedFunction(ShiftedFunction(psi[0], 0.5), 0.7),
        WeightedFunction(psi[1], lambda x, y: 1.0 + x * x * y),
        _bumps(parse_group_text(dumps_group(group)), name)[0],
    ]


LEAF_RADII = (math.e ** 2, math.e ** 3, math.e ** 4, math.e ** 5, math.e ** 6)


@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_leaf_averages_match_fresh_computation(request, name):
    group = request.getfixturevalue({"schottky": "sch", "cusped": "cus"}[name])
    m = request.getfixturevalue({"schottky": "m_sch", "cusped": "m_cus"}[name])
    delta = {"schottky": DELTA_SCH, "cusped": DELTA_CUS}[name]
    base = _vector(group, name)
    funcs = _integrands(group, name)
    rng = np.random.default_rng(404)
    shuffled = [LEAF_RADII[k] for k in rng.permutation(len(LEAF_RADII))]
    orders = {
        "ascending": [(r, f) for f in funcs for r in LEAF_RADII],
        "descending": [(r, f) for f in funcs for r in LEAF_RADII[::-1]],
        # radii jump up and down while the integrand changes every call
        "interleaved": [(r, f) for r in shuffled for f in funcs],
    }
    own, foreign = funcs[0], funcs[-1]
    differ = False
    for sigma, (label, calls) in zip((0.0, 0.4, -0.7), orders.items()):
        # a new leaf for each order, settled from nothing
        u = horocycle_flow(base, sigma)
        got = {}
        for r, f in calls:
            got[r, id(f)] = average_ps(u, r, f, m, delta)
            assert same_bits(got[r, id(f)], fresh_average(u, r, f, m, delta)), (label, r, f.label)
        differ |= any(not same_bits(got[r, id(own)], got[r, id(foreign)]) for r in LEAF_RADII)
        ser = mixing_series(u, math.e ** 3, funcs[0], MIXING_TIMES, m, delta)
        for t, v in zip(MIXING_TIMES, ser.values):
            want = fresh_average(u, math.e ** 3, ShiftedFunction(funcs[0], t), m, delta)
            assert same_bits(v, want), (label, t)
        ser = mass_in_compact(u, LEAF_RADII, NONDIV_HEIGHT, m, delta)
        cap = CuspHeightCap(group, NONDIV_HEIGHT)
        for r, v in zip(LEAF_RADII, ser.values):
            assert same_bits(v, fresh_average(u, r, cap, m, delta)), (label, r)
    # mass_in_compact on a leaf nobody has settled yet
    u = horocycle_flow(base, 1.1)
    ser = mass_in_compact(u, LEAF_RADII[::-1], NONDIV_HEIGHT, m, delta)
    cap = CuspHeightCap(group, NONDIV_HEIGHT)
    assert all(same_bits(v, fresh_average(u, r, cap, m, delta)) for r, v in zip(LEAF_RADII, ser.values))
    # on the Schottky leaves the bump on the builtin group and the bump on
    # its copy can be told apart, so sharing a store would show
    assert differ or name == "cusped"
    # one protocol: no integrand evaluates frames its own way
    kinds = [c for c in vars(averages).values() if isinstance(c, type) and issubclass(c, averages.Integrand)]
    assert len(kinds) == 6 and not any("evaluate_frames" in vars(c) for c in kinds)


def test_values_reduce_as_one_batch(sch, cus, u8, u9):
    # the fresh oracles' path flows the frames and reduces them with one
    # reduce_frames call; the leaf stores reach the same bits through
    # _Rows.coords, which the oracles check
    rng = np.random.default_rng(4040)
    for group, name, u in ((sch, "schottky", u8), (cus, "cusped", u9)):
        psi = _bumps(group, name)[0]
        s = rng.choice([-1.0, 1.0], 300) * np.exp(rng.uniform(-2.0, 7.0, 300))
        for t in (0.0, 1.5, -2.0):
            frames = _flowed(_leaf_frames(u, s), t)
            assert len(np.unique(group.settle_frames(frames)[1])) >= 3
            for rows in (np.arange(300), rng.choice(300, 40, replace=False), np.array([7])):
                want = psi.evaluate_points(*_frame_coordinates(group.reduce_frames(frames[rows])))
                got = _values(ShiftedFunction(psi, t), _leaf_frames(u, s[rows]))
                assert got.tobytes() == want.tobytes(), (name, t, len(rows))


def rereduced_lebesgue(u, t, psi):
    """average_lebesgue's Simpson rule with every grid reduced in full by
    _values; returns the mean and the number of grids."""
    m = max(4, int(math.ceil(2.0 * t / 0.1)))
    coarse = None
    for grids in range(1, 9):
        s = np.linspace(-t, t, 2 * m + 1)
        h = s[1] - s[0]
        f = _values(psi, _leaf_frames(u, s))
        integral = (h / 3.0) * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2]))
        if coarse is not None and abs(integral - coarse) / 15.0 <= 1e-6 * 2.0 * t:
            break
        coarse = integral
        m *= 2
    return float(integral / (2.0 * t)), grids


def test_simpson_reuse_matches_full_rereduction(sch, cus, u8, u9):
    deep, cls = build_vector(
        cus, sample_limit_point(cus, WordSpec.random(cus, 4)), sample_limit_point(cus, WordSpec.random(cus, 5))
    )
    assert cls is VectorClass.RADIAL
    cases = [(u8, math.e ** 3, _bumps(sch, "schottky")), (u9, math.e ** 3, _bumps(cus, "cusped"))]
    cases.append((deep, math.e ** 3, _bumps(cus, "cusped")))
    halvings = []
    for u, t, bumps in cases:
        for psi in bumps + [CuspHeightCap(bumps[0].group, NONDIV_HEIGHT)]:
            mean, grids = rereduced_lebesgue(u, t, psi)
            assert same_bits(average_lebesgue(u, t, psi), mean)
            halvings.append(grids - 1)
    assert max(halvings[-4:]) >= 3


def _counting_builds(monkeypatch):
    """The vectors of each conditional measure averages builds from now on."""
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return conditional_on_horocycle(*args, **kwargs)

    monkeypatch.setattr(averages, "conditional_on_horocycle", counting)
    return built


def test_measure_keeps_one_leaf(sch, m_sch, monkeypatch):
    # the slot holds the leaf of the latest (vector, exponent): calls on it
    # reuse it, and a call on another vector or exponent replaces it
    built = _counting_builds(monkeypatch)
    m = dataclasses.replace(m_sch, _leaf=None)
    psi = _bumps(sch, "schottky")[0]
    u, v = _vector(sch, "schottky"), _vector(sch, "schottky", s=0.5)
    calls = [(u, DELTA_SCH), (u, DELTA_SCH), (v, DELTA_SCH), (v, 0.45), (v, 0.45), (u, DELTA_SCH)]
    for k, (w, delta) in enumerate(calls):
        average_ps(w, EQUIDIST_RADII[k % 3], psi, m, delta)
        assert m._leaf.key == (w.frame.entries(), delta)
    assert built == [u, v, v, u]


def test_mixing_at_flow_time_zero_reads_the_unflowed_store(sch, m_sch):
    # a zero flow moves no frame bit, so the first mixing value is the ball
    # average itself, read from the leaf's own store with no flowed one
    m = dataclasses.replace(m_sch, _leaf=None)
    psi = _bumps(sch, "schottky")[0]
    u = _vector(sch, "schottky", s=MIXING_LEAF_COORDINATE)
    ser = mixing_series(u, 1.0, psi, (0.0,), m, DELTA_SCH)
    assert list(m._leaf.stores) == [(sch, ())]
    assert ser.values[0].hex() == average_ps(u, 1.0, psi, m, DELTA_SCH).hex()
    frames = _leaf_frames(u, m._leaf.cond.params)
    assert _flowed(frames, 0.0).tobytes() == frames.tobytes()


def test_flow_commutation_builds_each_leaf_once(monkeypatch):
    # one leaf per sigma and one per (sigma, t), 5 + 25 conditional measures
    # in all
    built = _counting_builds(monkeypatch)
    passed, detail = check_flow_commutation({"schottky": Loader("schottky", exponent="fit")})
    assert passed, detail
    assert len(built) <= 30


def test_runs_build_one_leaf_per_vector(monkeypatch, tmp_path):
    # the battery: 5 + 25 leaves in flow-commutation, then one each for the
    # equidistribution, mixing and thick-part vectors; each experiment
    # averages on one vector
    built = _counting_builds(monkeypatch)
    results, _ = run_all()
    assert all(r.passed for r in results)
    assert len(built) == 33
    for experiment in ("equidist", "mixing", "nondiv"):
        built.clear()
        assert main([experiment, "--out", str(tmp_path / experiment)]) == 0
        assert len(built) == 1, experiment


# ------------------------------------------------ flowed leaves, ratio pair


@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_flowed_leaf_averages_match_fresh_computation(request, name):
    group = request.getfixturevalue({"schottky": "sch", "cusped": "cus"}[name])
    m = request.getfixturevalue({"schottky": "m_sch", "cusped": "m_cus"}[name])
    delta = {"schottky": DELTA_SCH, "cusped": DELTA_CUS}[name]
    base = _vector(group, name)
    inner = _bumps(group, name)[:2] + [CuspHeightCap(group, NONDIV_HEIGHT)]
    rng = np.random.default_rng(405)
    orders = {
        "ascending": LEAF_RADII,
        "descending": LEAF_RADII[::-1],
        "interleaved": tuple(LEAF_RADII[k] for k in rng.permutation(len(LEAF_RADII))),
    }
    for sigma, (label, radii) in zip((0.2, -0.5, 0.9), orders.items()):
        u = horocycle_flow(base, sigma)
        # one flow time over the whole ladder: the rows settle incrementally
        for r in radii:
            for f in inner:
                got = average_ps(u, r, ShiftedFunction(f, 1.2), m, delta)
                want = fresh_average(u, r, ShiftedFunction(f, 1.2), m, delta)
                assert same_bits(got, want), (label, r, f.label)
        leaf = m._leaf
        (key, (_, (lo, hi))), = leaf.stores.items()
        assert leaf.key == (u.frame.entries(), delta)
        assert key == (group, (1.2,)) and hi - lo == np.count_nonzero(np.abs(leaf.cond.params) < max(radii))
        # two flow times alternating on one leaf: each call starts the other over
        for r in radii:
            for t in (-0.9, 1.2, -0.9):
                for f in inner:
                    got = average_ps(u, r, ShiftedFunction(f, t), m, delta)
                    want = fresh_average(u, r, ShiftedFunction(f, t), m, delta)
                    assert same_bits(got, want), (label, r, t, f.label)
        assert m._leaf is leaf and list(leaf.stores) == [(group, (-0.9,))]
    # a leaf keeps its own unflowed store and the newest other one
    u = horocycle_flow(base, 0.3)
    average_ps(u, LEAF_RADII[0], inner[0], m, delta)
    average_ps(u, LEAF_RADII[0], ShiftedFunction(inner[0], 1.0), m, delta)
    leaf = m._leaf
    assert list(leaf.stores) == [(group, ()), (group, (1.0,))]
    # shifts of a constant and of a shift have their own stores
    for f in (ShiftedFunction(ConstantFunction(0.5), 1.0), ShiftedFunction(ShiftedFunction(inner[0], 0.5), 0.7)):
        for r in LEAF_RADII[:3]:
            assert same_bits(average_ps(u, r, f, m, delta), fresh_average(u, r, f, m, delta))
    assert m._leaf is leaf and list(leaf.stores) == [(group, ()), (group, (0.7, 0.5))]


def test_flow_commutation_grid_matches_cellwise_residuals(sch, u8, m_sch):
    psi = _bumps(sch, "schottky")[0]
    radii = (math.e, math.e ** 3, math.e ** 5)
    times = (0.5, 2.0, 2.5)
    res = flow_commutation_residual(u8, radii, times, psi, m_sch, DELTA_SCH)
    assert res.shape == (len(times), len(radii))
    for i, t in enumerate(times):
        for j, r in enumerate(radii):
            lhs = fresh_average(u8, r, psi, m_sch, DELTA_SCH)
            rhs = fresh_average(
                geodesic_flow(u8, -t), r * math.exp(-t), ShiftedFunction(psi, t), m_sch, DELTA_SCH
            )
            assert same_bits(res[i, j], abs(lhs - rhs)), (t, r)


def test_ratio_pair_shares_grids_bit_for_bit(cus, u9, m_cus, monkeypatch):
    psi, phi = _bumps(cus, "cusped")
    cap = CuspHeightCap(cus, NONDIV_HEIGHT)
    calls = []
    settle = type(cus).settle_frames

    def counting(self, frames):
        calls.append(len(frames))
        return settle(self, frames)

    for t in EQUIDIST_RADII:
        monkeypatch.setattr(type(cus), "settle_frames", counting)
        calls.clear()
        shared = averages._lebesgue_means(u9, t, [psi, phi, cap])
        together = sum(calls)
        monkeypatch.undo()
        alone, rows = [], []
        for f in (psi, phi, cap):
            monkeypatch.setattr(type(cus), "settle_frames", counting)
            calls.clear()
            alone.append(average_lebesgue(u9, t, f))
            rows.append(sum(calls))
            monkeypatch.undo()
        assert all(same_bits(a, b) for a, b in zip(shared, alone)), t
        # the shared grids settle the rows of the deepest refinement once
        assert together == max(rows), (t, together, rows)
    ser = ratio_series(u9, psi, phi, EQUIDIST_RADII[:2], m_cus, DELTA_CUS)
    for r, v in zip(EQUIDIST_RADII[:2], ser.values):
        assert same_bits(v, average_lebesgue(u9, r, psi) / average_lebesgue(u9, r, phi))
