import dataclasses
import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from horolab.defaults import (
    BUMP_WIDTHS,
    DEFAULT_BUMPS,
    DEFECT_LADDER,
    EXPERIMENT_PERIODS,
    EXPONENT_RADIUS,
    PATTERSON_RADIUS,
    RATIO_BUMPS,
    cusped_group,
    schottky_group,
)
from horolab.groups import WordSpec, critical_exponent, sample_limit_point
from horolab import measures
from horolab.measures import (
    _PIECE,
    _MATCH_TOL,
    AtomicBoundaryMeasure,
    MeasureError,
    PattersonConfig,
    _busemann_at_origin,
    _pair_field,
    br_integral,
    build_patterson,
    conditional_on_horocycle,
    conformality_defect,
    ps_integral,
    quadrature_report,
)
from horolab.averages import (
    ConstantFunction,
    Integrand,
    ShiftedFunction,
    TestFunction,
    build_vector,
    pointed_frame,
)
from horolab.geometry import UnitTangent, geodesic_flow, horocycle_flow, mobius_apply

from conftest import joined_field, peak_mib, quadrature_constants

DELTA_SCH = 0.4322791205538202
DELTA_CUS = 0.646822563859683


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


def test_deltas_still_match_frozen(sch, cus):
    assert critical_exponent(sch, t_max=EXPONENT_RADIUS["schottky"]).delta == pytest.approx(DELTA_SCH, rel=1e-12)
    assert critical_exponent(cus, t_max=EXPONENT_RADIUS["cusped"]).delta == pytest.approx(DELTA_CUS, rel=1e-12)


def test_build_basic(m_sch, m_cus):
    assert isinstance(m_sch, AtomicBoundaryMeasure)
    assert len(m_sch) == 8298
    assert len(m_cus) == 2248
    assert np.exp(m_sch.log_weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.exp(m_cus.log_weights).sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(m_sch.points) > 0)


def test_atoms_inside_hull(sch, m_sch):
    ivs = sch.hull_intervals()
    lo = min(a for a, _ in ivs) - 1e-9
    hi = max(b for _, b in ivs) + 1e-9
    assert m_sch.points.min() >= lo and m_sch.points.max() <= hi
    # and inside some component interval, not just the hull's span
    inside = np.zeros(len(m_sch), dtype=bool)
    for a, b in ivs:
        inside |= (m_sch.points >= a - 1e-9) & (m_sch.points <= b + 1e-9)
    assert inside.all()


def test_too_shallow_rejected(sch):
    with pytest.raises(MeasureError):
        build_patterson(sch, PattersonConfig(DELTA_SCH, 4, 5.0))


def test_config_validation():
    with pytest.raises(MeasureError):
        PattersonConfig(0.0, 14)
    with pytest.raises(MeasureError):
        PattersonConfig(float("nan"), 14)
    with pytest.raises(MeasureError):
        PattersonConfig(0.5, 3)


def test_mirror_symmetry(m_sch):
    # x -> -x conjugates the interval pairings to themselves
    pts = m_sch.points
    wts = m_sch.log_weights
    order = np.argsort(-pts)
    assert np.allclose(pts, -pts[order], atol=1e-9)
    assert np.allclose(wts, wts[order], atol=1e-8)


def test_ray_projection_collinear(m_sch, sch):
    # the atom of a one-letter word must lie past the orbit point on the
    # geodesic ray from i: distances along the circle through i and g(i)
    # should be additive
    from horolab.geometry import PlanePoint, hyperbolic_distance

    for lab in ("a", "b"):
        g = sch.generator(lab).matrix
        z = g.apply_complex(1j)
        x, y = z.real, z.imag
        c = (x * x + y * y - 1.0) / (2.0 * x)
        r = math.hypot(c, 1.0)
        xi = c + math.copysign(r, x)
        # walk toward the boundary along the circle
        phi_z = math.atan2(y, x - c)
        phi_b = 0.0 if xi > c else math.pi
        phi_w = phi_b + 0.12 * (phi_z - phi_b)
        w = PlanePoint(c + r * math.cos(phi_w), r * math.sin(phi_w))
        o = PlanePoint(0.0, 1.0)
        zz = PlanePoint(x, y)
        gap = hyperbolic_distance(o, w) - (hyperbolic_distance(o, zz) + hyperbolic_distance(zz, w))
        assert abs(gap) < 1e-9
        assert np.min(np.abs(m_sch.points - xi)) < 1e-12


def test_heaviest_is_stable_and_heavy(m_sch):
    idx = m_sch.heaviest(50)
    assert len(idx) == 50
    cut = np.sort(m_sch.log_weights)[::-1][49]
    assert m_sch.log_weights[idx].min() >= cut - 1e-12


def test_defect_identity_and_word(m_sch, sch):
    assert conformality_defect(m_sch, (), DELTA_SCH) == 0.0
    d1 = conformality_defect(m_sch, "a", DELTA_SCH)
    d2 = conformality_defect(m_sch, ("a", "b"), DELTA_SCH)
    assert d1 < 1e-8 and d2 < 1e-6


def all_atoms_conformality_defect(measure, gamma, hat_delta):
    """conformality_defect searching every atom: the images, the candidate
    neighbours and the nearest pick span all N atoms, and the atoms that are
    no source or have no finite image are masked out afterwards."""
    m, glen = measure.group.word_matrix(gamma), len(gamma)
    a, b, c, d = m.entries()
    if measure.radius is not None:
        src = measure.displacements <= measure.radius - measure.group.displacement(m)
    else:
        src = measure.lengths + glen <= measure.cutoff
    xi = measure.points
    den = c * xi + d
    finite = src & (np.abs(den) > 1e-12)
    eta = np.zeros_like(xi)
    eta[finite] = (a * xi[finite] + b) / den[finite]
    j = np.searchsorted(measure.points, eta)
    cand = np.stack([np.clip(j - 1, 0, len(xi) - 1), np.clip(j, 0, len(xi) - 1)])
    dist = np.abs(measure.points[cand] - eta[None, :])
    pick = cand[np.argmin(dist, axis=0), np.arange(len(xi))]
    matched = finite & (np.abs(measure.points[pick] - eta) <= _MATCH_TOL)
    if not matched.any():
        raise MeasureError("no atom pairs matched under %r" % (gamma,))
    q = mobius_apply(m.inverse(), UnitTangent.identity().base_point)
    beta = _busemann_at_origin(xi[matched], q.x, q.y)
    ratio = measure.log_weights[pick[matched]] - measure.log_weights[matched]
    return float(np.median(np.abs(ratio - hat_delta * beta)))


@pytest.mark.parametrize("radius", [True, False], ids=["radius-pruned", "cutoff-only"])
@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_defect_matches_all_atoms_search(name, radius, sch, cus, m_sch, m_cus):
    # the search over source atoms with a finite image keeps the matched
    # atoms and their order, so the median keeps every bit
    group, delta = (sch, DELTA_SCH) if name == "schottky" else (cus, DELTA_CUS)
    if radius:
        measure = m_sch if name == "schottky" else m_cus
    else:
        measure = build_patterson(group, PattersonConfig(delta, 8, None))
    o = group.order
    for gamma in [(label,) for label in o] + [(o[0], o[2])]:
        got = conformality_defect(measure, gamma, delta)
        assert got.hex() == all_atoms_conformality_defect(measure, gamma, delta).hex(), gamma
    # a word displaced past the radius, or longer than the cutoff, leaves no source atom
    hyperbolic = next(label for label in o if group.letters[label].kind == "hyperbolic")
    long = (hyperbolic,) * 9
    if radius:
        assert group.displacement(group.word_matrix(long)) > measure.radius
    for defect in (conformality_defect, all_atoms_conformality_defect):
        with pytest.raises(MeasureError, match="^no atom pairs matched under %s$" % re.escape(repr(long))):
            defect(measure, long, delta)


@pytest.mark.parametrize("length", [20, 30, 40])
def test_defect_of_a_word_that_loses_its_determinant(m_sch, length):
    # the product of 20 or more a's cancels ad - bc to 0.0; this raised the
    # GeometryError of the Isometry constructor, which names no word
    word = ("a",) * length
    message = "^the matrix of word %s lost its determinant to rounding$" % re.escape(repr(word))
    with pytest.raises(MeasureError, match=message):
        conformality_defect(m_sch, word, DELTA_SCH)


def test_defect_ladder_trends():
    for name, group, delta in (
        ("schottky", schottky_group(), DELTA_SCH),
        ("cusped", cusped_group(), DELTA_CUS),
    ):
        meds = []
        for cutoff, radius in DEFECT_LADDER[name]:
            m = build_patterson(group, PattersonConfig(delta, cutoff, radius))
            meds.append({g: conformality_defect(m, g, delta) for g in group.order})
        for g in group.order:
            seq = [m[g] for m in meds]
            assert seq[0] > seq[1] > seq[2], (name, g, seq)


def test_defect_inverse_pair_symmetry(m_cus):
    a = conformality_defect(m_cus, "p", DELTA_CUS)
    b = conformality_defect(m_cus, "P", DELTA_CUS)
    assert max(a, b) <= 2.5 * min(a, b) + 1e-12


@pytest.fixture(scope="module")
def u8(sch):
    pm, pp = EXPERIMENT_PERIODS["schottky"]
    u, _ = build_vector(
        sch,
        sample_limit_point(sch, WordSpec(period=pm)),
        sample_limit_point(sch, WordSpec(period=pp)),
    )
    return u


@pytest.fixture(scope="module")
def cond8(u8, m_sch):
    return conditional_on_horocycle(u8, m_sch, DELTA_SCH)


def test_conditional_parameter_map(u8, cond8, m_sch):
    # h^{s_j} u must point forward at the atom that generated s_j
    for k in np.linspace(0, len(cond8.params) - 1, 25).astype(int):
        v = horocycle_flow(u8, float(cond8.params[k]))
        a, _, c, _ = v.frame.entries()
        assert abs(c) > 0
        assert np.min(np.abs(m_sch.points - a / c)) < 1e-9


def test_conditional_reweighting_exact(sch, m_sch):
    # a wandering leaf keeps every atom away from the parameter pole, so the
    # pullback law (s, lam) -> (s e^-t, lam - s t) holds to float noise
    from horolab.geometry import BoundaryPoint
    from horolab.averages import VectorClass

    u, cls = build_vector(sch, BoundaryPoint(30.0), BoundaryPoint(0.55))
    assert cls is VectorClass.WANDERING
    cond = conditional_on_horocycle(u, m_sch, DELTA_SCH)
    for t in (1.0, 2.0, 3.0):
        pulled = conditional_on_horocycle(geodesic_flow(u, -t), m_sch, DELTA_SCH)
        assert len(pulled) == len(cond)
        assert np.max(np.abs(pulled.params - cond.params * math.exp(-t))) < 1e-10
        drift = pulled.log_weights - (cond.log_weights - DELTA_SCH * t)
        assert np.max(np.abs(drift)) < 1e-10


def test_conditional_reweighting_radial_relative(u8, m_sch, cond8):
    # on a radial leaf the pole amplifies float error in the largest params;
    # the law still holds to relative precision
    t = 1.0
    pulled = conditional_on_horocycle(geodesic_flow(u8, -t), m_sch, DELTA_SCH)
    a = np.sort(pulled.params)
    b = np.sort(cond8.params * math.exp(-t))
    assert len(a) == len(b)
    assert np.max(np.abs(a - b) / (np.abs(b) + 1.0)) < 1e-6


def test_flow_by_zero_is_identity(u8, m_sch, cond8):
    again = conditional_on_horocycle(geodesic_flow(u8, 0.0), m_sch, DELTA_SCH)
    assert np.array_equal(again.params, cond8.params)
    assert np.array_equal(again.log_weights, cond8.log_weights)


def test_horoball_mass_monotone_and_frozen(cond8):
    e2, e4 = math.e ** 2, math.e ** 4
    masses = [cond8.horoball_mass(r) for r in (1.0, e2, e4)]
    assert masses[0] < masses[1] < masses[2]
    assert masses[1] == pytest.approx(1.155412925010575, rel=1e-9)
    assert masses[2] == pytest.approx(4.122445697587423, rel=1e-9)


class _One(Integrand):
    def evaluate_points(self, x, y, theta):
        return np.ones_like(np.asarray(x, dtype=float))


def test_ps_integral_normalizes_constants(m_sch):
    assert ps_integral(_One(), m_sch, DELTA_SCH) == pytest.approx(1.0, abs=1e-14)


def test_ps_integral_frozen_values(sch, m_sch):
    vals = []
    for cd in ((0.0, 1.4, 0.0), (0.0, 1.7, 1.57), (3.25, 0.6, 0.0)):
        psi = TestFunction(sch, pointed_frame(*cd), base_width=1.2, angle_width=1.8)
        vals.append(ps_integral(psi, m_sch, DELTA_SCH))
    assert vals[0] == pytest.approx(0.060547058378818276, rel=1e-9)
    assert vals[1] == pytest.approx(0.03228879597493137, rel=1e-9)
    assert vals[2] == pytest.approx(0.02839286337351398, rel=1e-9)


def test_ps_integral_mirror_pair(sch, m_sch):
    a = ps_integral(TestFunction(sch, pointed_frame(1.5, 1.3, 0.7)), m_sch, DELTA_SCH)
    b = ps_integral(TestFunction(sch, pointed_frame(-1.5, 1.3, math.pi - 0.7)), m_sch, DELTA_SCH)
    assert a == pytest.approx(b, rel=1e-9)


def test_ps_integral_vanishes_off_support(sch, m_sch):
    psi = TestFunction(sch, pointed_frame(0.0, 60.0, 0.0), base_width=0.4, angle_width=0.8)
    assert ps_integral(psi, m_sch, DELTA_SCH) == 0.0


class _Counted(Integrand):
    """A bump that counts its evaluate_points calls and keeps the (x, y,
    theta) of the cells of each."""

    def __init__(self, psi):
        self.psi = psi
        self.seen = []

    @property
    def calls(self):
        return len(self.seen)

    def evaluate_points(self, x, y, theta):
        self.seen.append(_triples(x, y, theta))
        return self.psi.evaluate_points(x, y, theta)

    def support(self):
        return self.psi.support()


def _triples(x, y, theta):
    """(x, y, theta) per cell, as the columns of one array."""
    return np.column_stack([x, y, theta])


def _keys(triples):
    """A hash of the bits of each row of triples."""
    bits = triples.view(np.uint64)
    return bits[:, 0] * np.uint64(0x9E3779B97F4A7C15) ^ bits[:, 1] * np.uint64(0xC2B2AE3D27D4EB4F) ^ bits[:, 2]


def test_quadrature_report_evaluates_each_integrand_once_per_field(sch, m_sch, monkeypatch):
    # a coarse grid and few atoms keep the cached field small
    t = np.arange(-8.0, 8.0 + 1e-9, 0.1)
    measure = quadrature_constants(monkeypatch, m_sch, _PAIR_GRID=t, _PAIR_ATOMS=40)
    bump = TestFunction(sch, pointed_frame(0.0, 1.4, 0.0), base_width=1.2, angle_width=1.8)
    psi = _Counted(bump)
    first = quadrature_report(psi, measure, DELTA_SCH)
    calls = psi.calls
    assert calls > 0
    assert quadrature_report(psi, measure, DELTA_SCH) == first
    assert ps_integral(psi, measure, DELTA_SCH) == first[0]
    assert psi.calls == calls
    # an equal integrand that is another object misses, on the same field
    other = _Counted(bump)
    assert quadrature_report(other, measure, DELTA_SCH) == first
    assert other.calls == calls
    assert len(measure._pair_cache) == 1
    # the cached estimate is the estimate of a measure that caches nothing yet
    fresh = dataclasses.replace(m_sch, _pair_cache={})
    again = quadrature_report(_Counted(bump), fresh, DELTA_SCH)
    assert [float(v).hex() for v in again] == [float(v).hex() for v in first]


def default_bumps(group):
    wb, wa = BUMP_WIDTHS
    return [TestFunction(group, pointed_frame(*cd), base_width=wb, angle_width=wa)
            for cd in DEFAULT_BUMPS["schottky"]]


def test_quadrature_report_sums_the_table_as_one_field(sch, m_sch):
    # the default field is one table of runs; each integrand is evaluated
    # piece by piece, and the estimate is the one pairwise sum over the
    # whole field
    measure = dataclasses.replace(m_sch, _pair_cache={})
    table, den, _ = _pair_field(measure, DELTA_SCH)
    x, y, th, w = joined_field(table)
    assert den == float(np.sum(w))
    # no two cells share a hash of (x, y, theta), so a cell is found by it
    cells = _triples(x, y, th)
    keys = _keys(cells)
    order = np.argsort(keys)
    assert np.all(np.diff(keys[order]) > 0)
    for bump in default_bumps(sch):
        psi = _Counted(bump)
        est, count, _ = quadrature_report(psi, measure, DELTA_SCH)
        assert count == len(w)
        # the cells of the bump's support windows, each once, in field order,
        # in pieces of whole runs of about _PIECE cells; the bump vanishes on
        # every other cell
        seen = np.concatenate(psi.seen)
        where = order[np.searchsorted(keys[order], _keys(seen))]
        assert np.array_equal(cells[where], seen) and np.all(np.diff(where) > 0)
        assert max(len(v) for v in psi.seen) < _PIECE + len(measures._PAIR_GRID)
        x0, y0, reach = bump.support()
        assert np.all(np.delete((x - x0) ** 2 + (y - y0) ** 2 >= reach * y, where))
        assert 0 < len(seen) < len(x)
        want = float(np.sum(w * bump.evaluate_points(x, y, th))) / float(np.sum(w))
        assert est.hex() == want.hex()


def test_pair_quadrature_memory(sch, m_sch, monkeypatch):
    # the field keeps per run of a pair's cells its pair's seeds, its weight,
    # its column shift and its cell count: 2.2 MiB for the default field of
    # 35,516 runs and 1,929,601 cells (44.9 MiB when it kept (x, y, theta)
    # per cell, 59.2 MiB when it kept a weight per cell too); building it and
    # integrating over it stay below 8 MiB above it (once +28.1 MiB and
    # +21.4 MiB, when a full-length array was made; the build peaked 15.7 MiB
    # above the field while every pair's seed arrays lived through it)
    measure = dataclasses.replace(m_sch, _pair_cache={})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table, _, _ = _pair_field(measure, DELTA_SCH)
        field_bytes, peak = tracemalloc.get_traced_memory()
        field_bytes -= base
        runs = len(table.weight)
        assert field_bytes <= 72 * runs
        assert field_bytes <= 6 * 2**20
        assert peak - base - field_bytes <= 8 * 2**20
        for psi in [ConstantFunction()] + default_bumps(sch):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            quadrature_report(psi, measure, DELTA_SCH)
            assert tracemalloc.get_traced_memory()[1] - base <= 8 * 2**20
    finally:
        tracemalloc.stop()
    # a constant is summed as its value times the weights: it hands no cell
    # to the rebuild
    rebuilt = []
    pair_frames = measures._pair_frames

    def counting(seeds, col):
        rebuilt.append(len(col))
        return pair_frames(seeds, col)

    monkeypatch.setattr(measures, "_pair_frames", counting)
    assert quadrature_report(ConstantFunction(2.5), measure, DELTA_SCH)[0] == 2.5
    assert rebuilt == []
    quadrature_report(default_bumps(sch)[0], measure, DELTA_SCH)
    assert sum(rebuilt) > 0


def test_deep_measure_memory(sch):
    # the orbit-enumeration workload's deep Schottky measure: each level's
    # children are pruned block by block and turned into atoms as the level
    # arrives (20.8 MiB when a level's children and every level's frame
    # points were held at once, 12.5 MiB while the walk kept each word's
    # parent row, 11.2 MiB without)
    cfg = PattersonConfig(DELTA_SCH, 60, 28.0)
    assert peak_mib(lambda: build_patterson(sch, cfg)) <= 12.0


def test_pair_field_is_freed_with_its_measure(sch, m_sch, monkeypatch):
    # no reference cycle holds the field, so it goes as soon as its measure
    # does, without waiting for the cycle collector
    t = np.arange(-8.0, 8.0 + 1e-9, 0.2)
    measure = quadrature_constants(monkeypatch, m_sch, _PAIR_GRID=t, _PAIR_ATOMS=40)
    table, _, _ = _pair_field(measure, DELTA_SCH)
    quadrature_report(default_bumps(sch)[0], measure, DELTA_SCH)
    field = weakref.ref(table)
    gc.disable()
    try:
        del table, measure
        assert field() is None
    finally:
        gc.enable()


def test_box_quadrature_memory(cus, m_cus):
    # the plaque geometry and the window count run over one block of whole
    # leaf coordinates at a time: over all 16,200 rows at once they added
    # 13.4 MiB (31 MiB when the window count ran over them all too); an
    # integrand that names no support is evaluated in pieces of rows, and
    # added 39.0 MiB a whole leaf coordinate at a time
    wb, wa = BUMP_WIDTHS
    ratio_bumps = [TestFunction(cus, pointed_frame(*cd), base_width=wb, angle_width=wa) for cd in RATIO_BUMPS]
    for psi in ratio_bumps + [ConstantFunction()]:
        assert peak_mib(lambda: br_integral(psi, m_cus, DELTA_CUS)) <= 8.0


def test_quadratures_refuse_an_integrand_of_another_domain(sch, cus, m_sch):
    # a cusped bump is not a function on the Schottky fundamental domain
    # (both quadratures once integrated it there, to 0.000423 and 0.000532)
    wb, wa = BUMP_WIDTHS
    alien = TestFunction(cus, pointed_frame(*DEFAULT_BUMPS["cusped"][0]), base_width=wb, angle_width=wa)
    for quadrature in (ps_integral, quadrature_report, br_integral):
        with pytest.raises(MeasureError, match="half-disks"):
            quadrature(alien, m_sch, DELTA_SCH)
    # a bump on a copy of the measure's group, with the same half-disks, is
    # integrated as one on the group itself
    copy = schottky_group()
    assert copy is not m_sch.group
    center = pointed_frame(*DEFAULT_BUMPS["schottky"][0])
    mine = TestFunction(sch, center, base_width=wb, angle_width=wa)
    same = TestFunction(copy, center, base_width=wb, angle_width=wa)
    for quadrature in (ps_integral, br_integral):
        assert quadrature(same, m_sch, DELTA_SCH) == quadrature(mine, m_sch, DELTA_SCH)


def test_quadratures_refuse_an_integrand_they_cannot_evaluate(sch, m_sch):
    # a ShiftedFunction carries a flow time and no evaluate_points: all three
    # entry points once ended in AttributeError
    wb, wa = BUMP_WIDTHS
    psi = TestFunction(sch, pointed_frame(*DEFAULT_BUMPS["schottky"][0]), base_width=wb, angle_width=wa)
    for quadrature in (ps_integral, quadrature_report, br_integral):
        with pytest.raises(MeasureError, match="which a ShiftedFunction is not"):
            quadrature(ShiftedFunction(psi, 1.0), m_sch, DELTA_SCH)


def test_pair_field_keys_on_the_exact_exponent(m_sch, monkeypatch):
    # an exponent within rounding of a cached one gets its own field, the
    # field a measure that caches nothing gives
    t = np.arange(-8.0, 8.0 + 1e-9, 0.2)
    measure = quadrature_constants(monkeypatch, m_sch, _PAIR_GRID=t, _PAIR_ATOMS=60)
    one = ConstantFunction()
    bump = TestFunction(m_sch.group, pointed_frame(0.0, 1.4, 0.0), base_width=1.2, angle_width=1.8)
    near = DELTA_SCH + 3e-13
    first = ps_integral(bump, measure, DELTA_SCH)
    got = ps_integral(bump, measure, near)
    want = ps_integral(bump, dataclasses.replace(m_sch, _pair_cache={}), near)
    assert got.hex() == want.hex() != first.hex()
    assert ps_integral(one, measure, near) == 1.0
    assert len(measure._pair_cache) == 2


def test_atom_counts_below_the_quadratures_need(m_sch):
    # 120 atoms, so that a count which keeps all but |k| of them stays small
    small = dataclasses.replace(m_sch, points=m_sch.points[:120], log_weights=m_sch.log_weights[:120])
    for k in (0, -3):
        with pytest.raises(MeasureError, match="at least one"):
            small.heaviest(k)
    assert len(small.heaviest(1)) == 1 and len(small.heaviest(500)) == 120


def test_br_integral_normalization_and_frozen(cus, m_cus, monkeypatch):
    wb, wa = 1.2, 1.8
    psi = TestFunction(cus, pointed_frame(-2.4, math.exp(-0.9), -5 * math.pi / 8), base_width=wb, angle_width=wa)
    phi = TestFunction(cus, pointed_frame(-2.8, math.exp(-0.6), -5 * math.pi / 8), base_width=wb, angle_width=wa)
    assert br_integral(psi, m_cus, DELTA_CUS) == pytest.approx(0.025992940134935968, rel=1e-9)
    assert br_integral(phi, m_cus, DELTA_CUS) == pytest.approx(0.02456701704282736, rel=1e-9)
    # reference window mass is 1 by construction once the window covers
    # the whole sigma range
    measure = quadrature_constants(monkeypatch, m_cus, _ARC_SPAN=8.0, _WINDOW_SPAN=9.0)
    assert br_integral(_One(), measure, DELTA_CUS) == pytest.approx(1.0, abs=1e-12)


def test_br_ratio_window_independent(cus, m_cus, monkeypatch):
    psi = TestFunction(cus, pointed_frame(-2.4, math.exp(-0.9), -5 * math.pi / 8), base_width=1.2, angle_width=1.8)
    phi = TestFunction(cus, pointed_frame(-2.8, math.exp(-0.6), -5 * math.pi / 8), base_width=1.2, angle_width=1.8)
    ratios = []
    for span in (3.0, 9.0):
        measure = quadrature_constants(monkeypatch, m_cus, _WINDOW_SPAN=span)
        ratios.append(br_integral(psi, measure, DELTA_CUS) / br_integral(phi, measure, DELTA_CUS))
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-12)


def test_mass_in_interval(m_sch):
    def mass(lo, hi):
        i, j = np.searchsorted(m_sch.points, [lo, hi])
        return float(np.exp(m_sch.log_weights[i:j]).sum())

    full = mass(m_sch.points[0] - 1, m_sch.points[-1] + 1)
    assert full == pytest.approx(1.0, abs=1e-12)
    left = mass(-10.0, 0.0)
    right = mass(0.0, 10.0)
    assert left == pytest.approx(right, rel=1e-8)  # mirror symmetry again
    assert left + right == pytest.approx(1.0, abs=1e-10)
