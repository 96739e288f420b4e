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
)
from horolab.groups import WordSpec, dumps_group, parse_group_text, sample_limit_point
from horolab.geometry import (
    INFINITY,
    BoundaryPoint,
    from_coordinates,
    geodesic_flow,
    horocycle_flow,
)
from horolab import averages
from horolab.checks import check_flow_commutation
from horolab.measures import PattersonConfig, build_patterson, conditional_on_horocycle
from horolab.averages import (
    _LEAF_MEMO,
    AverageSeries,
    AveragesError,
    ConstantFunction,
    CuspHeightCap,
    ShiftedFunction,
    TestFunction,
    VectorClass,
    WeightedFunction,
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
    assert t0 == pytest.approx(-4.0, abs=1e-7)
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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_periodic_closure_rejects_bad_tolerance(cus, tol):
    # a golden-section search to a tolerance <= 0 would never stop
    with pytest.raises(AveragesError):
        periodic_closure(cus, "p", refine_tol=tol)


def test_periodic_closure_stops_at_float_resolution(cus):
    # a tolerance below the spacing of floats ends when the bracket stops
    # shrinking, at the same closure time
    t0, _ = periodic_closure(cus, "p")
    t1, res = periodic_closure(cus, "p", refine_tol=1e-300)
    assert t1 == pytest.approx(t0, abs=1e-9) and res < 1e-12


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


def test_leaf_memo_stays_at_bound(sch, m_sch):
    psi = _bumps(sch, "schottky")[0]
    for j in range(40):
        u, cls = build_vector(
            sch, sample_limit_point(sch, WordSpec.random(sch, 2 * j)),
            sample_limit_point(sch, WordSpec.random(sch, 2 * j + 1)),
        )
        try:
            average_ps(u, math.e ** 4, psi, m_sch, DELTA_SCH)
        except AveragesError:  # no atom in this ball
            pass
        assert len(m_sch._leaves) <= _LEAF_MEMO
    assert len(m_sch._leaves) == _LEAF_MEMO


def test_flow_commutation_builds_each_leaf_once(monkeypatch):
    # one leaf per sigma and one per (sigma, t), 5 + 25 conditional measures
    # in all
    built = []

    def counting(*args, **kwargs):
        built.append(args[0])
        return conditional_on_horocycle(*args, **kwargs)

    monkeypatch.setattr(averages, "conditional_on_horocycle", counting)
    passed, detail = check_flow_commutation({"schottky": Loader("schottky", exponent="fit")})
    assert passed, detail
    assert len(built) <= 30


# ------------------------------------ flowed leaves, closure scan, ratio pair


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
        leaf = averages._leaf(u, m, delta)
        (key, rows), = leaf.stores.items()
        lo, hi = rows.span
        assert key == (group, (1.2,)) and hi - lo == np.count_nonzero(np.abs(leaf.cond.params) < max(radii))
        # two flow times alternating on one leaf: each call starts the other over
        for r in radii:
            for t in (-0.9, 1.2, -0.9):
                for f in inner:
                    got = average_ps(u, r, ShiftedFunction(f, t), m, delta)
                    want = fresh_average(u, r, ShiftedFunction(f, t), m, delta)
                    assert same_bits(got, want), (label, r, t, f.label)
        assert list(leaf.stores) == [(group, (-0.9,))]
    # of the measure's leaves, only the most recently used keeps a store
    # other than its own unflowed one
    u = horocycle_flow(base, 0.3)
    average_ps(u, LEAF_RADII[0], inner[0], m, delta)
    average_ps(u, LEAF_RADII[0], ShiftedFunction(inner[0], 1.0), m, delta)
    *older, newest = m._leaves.values()
    assert list(newest.stores) == [(group, ()), (group, (1.0,))]
    assert all(set(leaf.stores) <= {(group, ())} for leaf in older)
    # shifts of a constant and of a shift have their own stores
    for f in (ShiftedFunction(ConstantFunction(0.5), 1.0), ShiftedFunction(ShiftedFunction(inner[0], 0.5), 0.7)):
        for r in LEAF_RADII[:3]:
            assert same_bits(average_ps(u, r, f, m, delta), fresh_average(u, r, f, m, delta))
    assert list(newest.stores) == [(group, ()), (group, (0.7, 0.5))]


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


def test_closure_scan_matches_scalar_gaps(cus, monkeypatch):
    # every candidate of every scan: the argmin picks the refine bracket, so
    # each array gap must carry the scalar gap's bits, not only the argmin
    scans = []
    array_gaps = averages._closure_gaps

    def recording(target, u, ts):
        gaps = array_gaps(target, u, ts)
        scans.append((target, u, ts, gaps))
        return gaps

    monkeypatch.setattr(averages, "_closure_gaps", recording)
    u0 = from_coordinates(BoundaryPoint(0.0), INFINITY, 0.0)
    periodic_closure(cus, "p")
    periodic_closure(cus, "p", u=u0)
    for s in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
        periodic_closure(cus, "p", u=geodesic_flow(u0, s))
    assert len(scans) == 8
    for target, u, ts, gaps in scans:
        assert len(ts) == 4099
        want = np.array([averages._closure_gap(target, u, float(t)) for t in ts])
        assert gaps.tobytes() == want.tobytes()


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
