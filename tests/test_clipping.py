"""The clipped boundary quadratures against their full-grid form.

_pair_field and br_integral take the in-domain cells of each grid row by
one rule (_domain_runs): the half-disk test runs on the cells within a few
cells of each closed-form circle crossing, the closed form places the rest,
and a row where the two disagree is tested whole. br_integral evaluates its
integrand, and the pair quadrature rebuilds its cells, only in closed-form
support windows (_support_windows). The oracles below are the full-grid
versions they replaced: every cell of the rectangular grid, then the
half-disk test. Clipping keeps the same samples with the same arithmetic
and the same integer counts, so the results must be equal bit for bit, on
the builtins and on conjugates of them.
"""

import dataclasses
import math

import numpy as np
import pytest

from horolab import measures
from horolab.averages import (
    ConstantFunction,
    CuspHeightCap,
    Integrand,
    TestFunction,
    WeightedFunction,
    pointed_frame,
)
from horolab.defaults import (
    BUMP_WIDTHS,
    DEFAULT_BUMPS,
    KNOWN_EXPONENTS,
    NONDIV_HEIGHT,
    PATTERSON_RADIUS,
    RATIO_BUMPS,
    resolve_group,
)
from horolab.geometry import Isometry, frame_angle, frame_point, mobius_apply
from horolab.measures import (
    MeasureError,
    PattersonConfig,
    _busemann_at_origin,
    _pair_field,
    br_integral,
    build_patterson,
)

from conftest import conjugate, joined_field, quadrature_constants

DEFAULT_T = np.arange(-8.0, 8.0 + 1e-9, 0.05)
# the box quadrature's module constants, by the parameter names of
# full_br_integral, and their values
BOX = {"t_grid": "_BOX_GRID", "sigma_span": "_ARC_SPAN", "sigma_step": "_ARC_STEP",
       "window_span": "_WINDOW_SPAN", "top_k": "_BOX_ATOMS"}
BOX_DEFAULTS = {name: getattr(measures, name) for name in BOX.values()}


def full_pair_field(measure, hat_delta, t_grid, top_k):
    """_pair_field on the whole (pair, t) grid, in blocks of 4096 pairs."""
    idx = measure.heaviest(top_k)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    n = len(xi)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    sep = np.abs(xi[ii] - xi[jj])
    ok = sep > 1e-12
    ii, jj, sep = ii[ok], jj[ok], sep[ok]
    logw = (
        lw[ii]
        + lw[jj]
        - 2.0 * hat_delta * np.log(sep)
        + hat_delta * (np.log1p(xi[ii] ** 2) + np.log1p(xi[jj] ** 2))
    )
    logw -= np.max(logw)
    dt = float(t_grid[1] - t_grid[0])
    parts = []
    for lo in range(0, len(ii), 4096):
        sl = slice(lo, lo + 4096)
        xm, xp = xi[ii[sl]], xi[jj[sl]]
        w = np.exp(logw[sl])
        swap = xp <= xm
        a0 = xp
        b0 = np.where(swap, -xm, xm)
        c0 = np.ones_like(xp)
        d0 = np.where(swap, -1.0, 1.0)
        rs = 1.0 / np.sqrt(a0 * d0 - b0 * c0)
        a0, b0, c0, d0 = a0 * rs, b0 * rs, c0 * rs, d0 * rs
        bx, by = frame_point(a0, b0, c0, d0)
        beta0 = -_busemann_at_origin(xm, bx, by)
        e = np.exp(0.5 * (t_grid[None, :] - beta0[:, None]))
        A = a0[:, None] * e
        B = b0[:, None] / e
        C = c0[:, None] * e
        D = d0[:, None] / e
        X, Y = frame_point(A, B, C, D)
        mask = measure.group.containing_letter(X, Y) < 0
        if mask.any():
            TH = frame_angle(C[mask], D[mask])
            W = np.broadcast_to((w * dt)[:, None], mask.shape)[mask]
            parts.append((X[mask], Y[mask], TH, W))
    if not parts:
        raise MeasureError("pair quadrature found no fundamental-domain samples")
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(4))


def full_br_integral(
    psi, measure, hat_delta, t_grid=None, sigma_span=30.0, sigma_step=0.05, window_span=5.0, top_k=200
):
    """br_integral on the whole (atom, sigma) grid of every leaf coordinate."""
    if t_grid is None:
        t_grid = np.arange(-4.0, 4.0 + 1e-9, 0.1)
    t_grid = np.asarray(t_grid, dtype=float)
    idx = measure.heaviest(top_k)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    dt = float(t_grid[1] - t_grid[0])
    log_density = lw[:, None] - hat_delta * t_grid[None, :]
    sigma = np.arange(-sigma_span, sigma_span + 1e-9, sigma_step)
    win = np.abs(sigma) <= window_span
    b0 = -np.log(xi * xi + 1.0)
    num = 0.0
    den = 0.0
    for k, t in enumerate(t_grid):
        scale = np.exp(log_density[:, k]) * dt
        e = np.exp(0.5 * (np.full(len(xi), t) - b0))
        A = e[:, None] + (xi / e)[:, None] * sigma[None, :]
        B = np.broadcast_to((xi / e)[:, None], A.shape)
        C = (1.0 / e)[:, None] * sigma[None, :]
        D = np.broadcast_to((1.0 / e)[:, None], A.shape)
        X, Y = frame_point(A, B, C, D)
        mask = measure.group.containing_letter(X, Y) < 0
        if mask.any():
            vals = np.zeros_like(X)
            vals[mask] = psi.evaluate_points(X[mask], Y[mask], frame_angle(C[mask], D[mask]))
            num += float(np.sum(scale * np.sum(vals, axis=1) * sigma_step))
        den += float(np.sum(scale * np.sum(mask[:, win], axis=1) * sigma_step))
    if den <= 0.0:
        raise MeasureError("reference window has zero mass")
    return num / den


def assert_same_field(monkeypatch, measure, delta, t_grid, top_k):
    """Check that the pair field on t_grid and the top_k heaviest atoms,
    its cells' coordinates rebuilt, is the full-grid oracle's bit for bit;
    return the measure with those constants set and the oracle's field
    (x, y, theta, weight)."""
    measure = quadrature_constants(monkeypatch, measure, _PAIR_GRID=t_grid, _PAIR_ATOMS=top_k)
    table, _, _ = _pair_field(measure, delta)
    # the table keeps seeds and one weight per run of a pair's cells; each
    # cell's coordinates are rebuilt from its pair's seeds and it takes its
    # pair's weight
    got = joined_field(table)
    want = full_pair_field(measure, delta, t_grid, top_k)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)
    assert len(want[0]) > 0
    return measure, want


def dense_estimate(psi, field):
    """The pair quadrature's estimate from the oracle's field (x, y, theta,
    weight), with psi evaluated on every cell."""
    x, y, theta, w = field
    return float(np.sum(w * psi.evaluate_points(x, y, theta))) / float(np.sum(w))


def pair_integrands(name, group):
    """The builtin's default bumps, a bump centred just above the circle of
    its first letter, so that its support crosses into a half-disk, the cusp
    cap (which names no support) and the constant 2.5."""
    c, r = group._centers[0], group._radii[0]
    assert group.in_fundamental_domain(complex(c, 1.02 * r))
    (near,) = bumps(group, [(c, 1.02 * r, 0.3)])
    return bumps(group, DEFAULT_BUMPS[name]) + [near, CuspHeightCap(group, NONDIV_HEIGHT, 0.1), ConstantFunction(2.5)]


def box_integral(monkeypatch, psi, measure, delta, **kwargs):
    """br_integral with the box constants that full_br_integral's kwargs
    name, and the values of the others, set for the test."""
    constants = dict(BOX_DEFAULTS, **{BOX[k]: v for k, v in kwargs.items()})
    return br_integral(psi, quadrature_constants(monkeypatch, measure, **constants), delta)


def bumps(group, centers, moved=Isometry.identity()):
    wb, wa = BUMP_WIDTHS
    return [
        TestFunction(group, mobius_apply(moved, pointed_frame(*cd)), base_width=wb, angle_width=wa)
        for cd in centers
    ]


@pytest.fixture(scope="module")
def builtin_measures():
    out = {}
    for name in ("schottky", "cusped"):
        group = resolve_group(name)
        delta = KNOWN_EXPONENTS[name]
        out[name] = (group, build_patterson(group, PattersonConfig(delta, 14, PATTERSON_RADIUS[name])), delta)
    return out


@pytest.mark.parametrize(
    "name, t_grid, top_k",
    [
        pytest.param("schottky", DEFAULT_T, 220, id="schottky-default"),
        pytest.param("cusped", DEFAULT_T, 220, id="cusped-default"),
        pytest.param("schottky", np.arange(-5.0, 6.0, 0.125), 90, id="schottky-coarse"),
        pytest.param("cusped", np.linspace(-8.0, 8.0, 97), 300, id="cusped-wide"),
        pytest.param("cusped", np.arange(-2.0, 2.0, 0.01), 40, id="cusped-fine"),
    ],
)
def test_pair_field_matches_full_grid(builtin_measures, monkeypatch, name, t_grid, top_k):
    # and the pair quadrature, which rebuilds coordinates only in each
    # integrand's support windows, or everywhere when it names no support,
    # and none for a constant, gives the dense pass's estimate bit for bit
    group, measure, delta = builtin_measures[name]
    measure, field = assert_same_field(monkeypatch, measure, delta, t_grid, top_k)
    for psi in pair_integrands(name, group):
        got = measures.quadrature_report(psi, measure, delta)[0]
        assert got.hex() == dense_estimate(psi, field).hex()


@pytest.mark.parametrize(
    "name, kwargs",
    [
        pytest.param("cusped", {}, id="cusped-default"),
        pytest.param("schottky", {}, id="schottky-default"),
        pytest.param("cusped", dict(sigma_span=8.0, window_span=9.0), id="window-past-span"),
        pytest.param(
            "cusped",
            dict(t_grid=np.arange(-3.0, 3.01, 0.2), sigma_step=0.1, top_k=120, window_span=2.0),
            id="cusped-coarse",
        ),
        pytest.param(
            "schottky", dict(t_grid=np.arange(-6.0, 2.0, 0.25), sigma_span=50.0, top_k=80), id="schottky-long"
        ),
    ],
)
def test_br_integral_matches_full_grid(builtin_measures, monkeypatch, name, kwargs):
    group, measure, delta = builtin_measures[name]
    centers = RATIO_BUMPS if name == "cusped" else DEFAULT_BUMPS[name][:1]
    for psi in [ConstantFunction()] + bumps(group, centers):
        got = box_integral(monkeypatch, psi, measure, delta, **kwargs)
        assert got == full_br_integral(psi, measure, delta, **kwargs)


def conjugate_case(seed):
    """(builtin name, conjugated group, conjugator, its measure, exponent)."""
    name = ("schottky", "cusped")[seed % 2]
    group, m = conjugate(resolve_group(name), np.random.default_rng(seed))
    delta = KNOWN_EXPONENTS[name]
    # widen the radius by twice the distance M moves i, so that the orbit
    # sample has the size it has for the builtin
    z = m.apply_complex(1j)
    moved = math.acosh(1.0 + abs(z - 1j) ** 2 / (2.0 * z.imag))
    radius = (18.0 if name == "schottky" else 12.0) + 2.0 * moved
    return name, group, m, build_patterson(group, PattersonConfig(delta, 12, radius)), delta


@pytest.mark.parametrize("seed", range(24))
def test_conjugates_match_full_grid(monkeypatch, seed):
    name, group, m, measure, delta = conjugate_case(seed)
    assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 80)
    (psi,) = bumps(group, DEFAULT_BUMPS[name][:1], m)
    for kwargs in (
        dict(t_grid=np.arange(-4.0, 4.01, 0.25), sigma_span=12.0, top_k=60),
        dict(t_grid=np.arange(-2.0, 2.01, 0.5), sigma_span=6.0, window_span=7.0, top_k=40),
    ):
        got = box_integral(monkeypatch, psi, measure, delta, **kwargs)
        assert got == full_br_integral(psi, measure, delta, **kwargs)


DOMAIN_RUNS = measures._domain_runs


def count_fallbacks(monkeypatch, cut=0):
    """Patch _domain_runs to record, per call, how many more times than
    once it ran its half-disk test: once for the cells at the ends of the
    closed-form segments, and once more when it tests rows whole. With cut,
    each segment it is handed is first cut by cut cells a side, down to its
    middle cell."""
    fallbacks = []

    def counting(segments, lost, span, width, inside):
        calls = []

        def tested(row, col):
            calls.append(len(row))
            return inside(row, col)

        first, stop = segments
        mid = (first + stop) // 2
        some = stop > first
        segments = np.where(some, np.minimum(first + cut, mid), first), np.where(some, np.maximum(stop - cut, mid + 1), stop)
        out = DOMAIN_RUNS(segments, lost, span, width, tested)
        fallbacks.append(len(calls) - 1)
        return out

    monkeypatch.setattr(measures, "_domain_runs", counting)
    return fallbacks


def moved_windows(step):
    """_grid_window with every window widened by step cells a side, or, for
    a negative step, cut by -step a side down to its middle cell."""
    grid_window = measures._grid_window

    def moved(grid, lo, hi):
        first, stop = grid_window(grid, lo, hi)
        if step >= 0:
            return np.maximum(first - step, 0), np.minimum(stop + step, len(grid))
        mid = np.minimum((first + stop) // 2, len(grid) - 1)
        return np.minimum(first - step, mid), np.maximum(stop + step, mid + 1)

    return moved


def assert_rows_fall_back(monkeypatch, cusped, step):
    """Check that with every closed-form window moved by step cells a side
    (moved_windows), the pair field, and the box quadrature of a constant
    and of a bump, on the cusped (group, measure, exponent) match their
    oracles and test some rows whole."""
    group, measure, delta = cusped
    monkeypatch.setattr(measures, "_grid_window", moved_windows(step))
    fallbacks = count_fallbacks(monkeypatch)
    assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 60)
    assert any(fallbacks)
    fallbacks.clear()
    kwargs = dict(t_grid=np.arange(-4.0, 4.01, 0.5), sigma_span=10.0, top_k=60)
    for psi in [ConstantFunction()] + bumps(group, RATIO_BUMPS[:1]):
        got = box_integral(monkeypatch, psi, measure, delta, **kwargs)
        assert got == full_br_integral(psi, measure, delta, **kwargs)
    assert any(fallbacks)


def test_short_windows_fall_back_to_full_rows(builtin_measures, monkeypatch):
    # cut every closed-form window by one cell more than its padding (down
    # to its middle cell): a row whose curve reaches the domain then shows
    # an in-domain cell next to one the closed form puts out of it
    assert_rows_fall_back(monkeypatch, builtin_measures["cusped"], -(measures._PAD + 1))


def test_long_windows_fall_back_to_full_rows(builtin_measures, monkeypatch):
    # widen every closed-form window by _BAND + 3 cells a side: every cell
    # tested at its ends is then out of the domain, next to the middle that
    # the closed form puts in it
    assert_rows_fall_back(monkeypatch, builtin_measures["cusped"], measures._BAND + 3)


def cut_pair_support(step):
    """_pair_support with every window that meets its disk cut by step a
    side, down to its middle."""
    pair_support = measures._pair_support

    def cut(disk, seeds):
        lo, hi = pair_support(disk, seeds)
        meets = lo <= hi
        mid = 0.5 * (np.where(meets, lo, 0.0) + np.where(meets, hi, 0.0))
        return np.where(meets, np.minimum(lo + step, mid), lo), np.where(meets, np.maximum(hi - step, mid), hi)

    return cut


def whole_runs(table, runs):
    """Which runs of the table its cells [first, stop) in runs take whole."""
    first, stop = runs
    return (first == table.ends - np.diff(table.ends, prepend=0)) & (stop == table.ends)


@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_short_support_windows_widen_their_runs(builtin_measures, monkeypatch, name):
    # cut every pair's support window one cell past its padding (down to its
    # middle): a run whose geodesic meets a bump's disk in the domain then
    # has a cell inside the disk just outside the cells kept for it, and is
    # rebuilt whole to match the oracle
    group, measure, delta = builtin_measures[name]
    measure, field = assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 60)
    table, _, _ = _pair_field(measure, delta)
    cut = cut_pair_support((measures._PAD + 1) * (DEFAULT_T[1] - DEFAULT_T[0]))
    widened = 0
    for psi in pair_integrands(name, group)[:-2]:  # the bumps
        whole = whole_runs(table, measures._support_runs(table, psi.support()))
        with monkeypatch.context() as patch:
            patch.setattr(measures, "_pair_support", cut)
            taken = whole_runs(table, measures._support_runs(table, psi.support()))
            got = measures.quadrature_report(psi, measure, delta)[0]
        assert got.hex() == dense_estimate(psi, field).hex()
        widened += int(np.sum(taken & ~whole))
    assert widened > 0


def test_direction_windows_cut_the_default_schottky_passes(builtin_measures, monkeypatch):
    # the three default Schottky bumps rebuild only the cells of each run
    # that lie in the bump's direction window (at most two windows a run,
    # padded, ordered, disjoint and inside the run's support window), which
    # cuts runs of either orientation: 478,102, 708,308 and 113,419 cells,
    # against 956,279, 1,096,373 and 226,655 in the support windows alone
    group, measure, delta = builtin_measures["schottky"]
    table, _, _ = _pair_field(measure, delta)
    run_points = measures._run_points
    rebuilt = []

    def counting(table, runs, first, stop):
        rebuilt.append(int(np.sum(stop - first)))
        return run_points(table, runs, first, stop)

    monkeypatch.setattr(measures, "_run_points", counting)
    d0 = table.seeds[3]
    counts, supported, orientations = [], [], []
    for psi in bumps(group, DEFAULT_BUMPS["schottky"]):
        first, stop = measures._support_runs(table, psi.support())
        a, z = measures._direction_runs(table, psi.direction_window(), first, stop)
        assert a.shape == z.shape == (len(first), 2)
        assert np.all((first[:, None] <= a) & (a <= z) & (z <= stop[:, None]))
        assert np.all(z[:, 0] <= a[:, 1])
        cut = np.sum(z - a, axis=1) < stop - first
        orientations.append((cut[d0 > 0].any(), cut[d0 < 0].any()))
        rebuilt.clear()
        measures.quadrature_report(psi, measure, delta)
        assert sum(rebuilt) == int(np.sum(z - a))
        counts.append(sum(rebuilt))
        supported.append(int(np.sum(stop - first)))
    assert counts == [478102, 708308, 113419]
    assert supported == [956279, 1096373, 226655]
    # psi1 and psi3 point along the real axis, and their windows of 1.8
    # radians, wider than a quarter turn, cover every angle of the pairs
    # with d0 > 0 (pi/2 - alpha for alpha in (0, pi))
    assert orientations == [(False, True), (True, True), (False, True)]
    # a window of half a turn or more, or one that is not a number, cuts
    # nothing
    for window in ((0.0, math.pi), (0.0, 4.0), (math.nan, 1.8), (0.0, math.nan)):
        assert measures._pair_directions(window) is None


class _WithSupport(Integrand):
    """An integrand of psi's values that names the support disk given."""

    def __init__(self, psi, disk):
        self.psi = psi
        self.group = psi.group
        self.disk = disk

    def evaluate_points(self, x, y, theta):
        return self.psi.evaluate_points(x, y, theta)

    def support(self):
        return self.disk


@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_support_disk_that_is_not_a_number_takes_every_cell(builtin_measures, monkeypatch, name):
    group, measure, delta = builtin_measures[name]
    measure, field = assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 60)
    run_points = measures._run_points
    rebuilt = []

    def counting(table, runs, first, stop):
        rebuilt.append(int(np.sum(stop - first)))
        return run_points(table, runs, first, stop)

    monkeypatch.setattr(measures, "_run_points", counting)
    (psi,) = bumps(group, DEFAULT_BUMPS[name][:1])
    x0, y0, reach = psi.support()
    for disk in ((math.nan, y0, reach), (x0, math.nan, reach), (x0, y0, math.nan)):
        rebuilt.clear()
        got = measures.quadrature_report(_WithSupport(psi, disk), measure, delta)[0]
        assert got.hex() == dense_estimate(psi, field).hex()
        assert sum(rebuilt) == len(field[0])
        # the box quadrature takes such a disk as naming no support too
        got = box_integral(monkeypatch, _WithSupport(psi, disk), measure, delta, **SMALL_BOX)
        assert got == full_br_integral(psi, measure, delta, **SMALL_BOX)


def random_bumps(name, group, rng, k, moved=Isometry.identity(), widths=(BUMP_WIDTHS[1],)):
    """k bumps of base width 0.3 to 2.0 on group, centred at points drawn in
    the fundamental domain of the builtin `name` and then moved, their angle
    widths taken in turn from widths."""
    builtin = resolve_group(name)
    out = []
    while len(out) < k:
        x, y = rng.uniform(-4.0, 4.0), math.exp(rng.uniform(math.log(0.05), math.log(3.0)))
        if builtin.in_fundamental_domain(complex(x, y)):
            center = mobius_apply(moved, pointed_frame(x, y, rng.uniform(-math.pi, math.pi)))
            wa = widths[len(out) % len(widths)]
            out.append(TestFunction(group, center, base_width=rng.uniform(0.3, 2.0), angle_width=wa))
    return out


# angle widths of the random bumps of the pair quadrature: direction
# windows below a quarter turn, the default, between a quarter and half a
# turn, and at least half a turn, which leave every cell of the support
ANGLE_WIDTHS = (0.05, 0.3, 1.2, BUMP_WIDTHS[1], 2.4, math.pi, 4.5)


SMALL_BOX = dict(t_grid=np.arange(-4.0, 4.01, 0.25), sigma_span=12.0, top_k=60)


@pytest.mark.parametrize("seed", range(8))
def test_random_bumps_match_full_grid(builtin_measures, monkeypatch, seed):
    # the box quadrature, and the pair quadrature on 60 atoms, whose passes
    # skip the cells outside each bump's direction window on the pairs of
    # either orientation; bump i of seed s has angle width
    # ANGLE_WIDTHS[(3 s + i) % 7], so each group sees each kind of window
    name = ("schottky", "cusped")[seed % 2]
    group, measure, delta = builtin_measures[name]
    pairs, field = assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 60)
    rng = np.random.default_rng(7000 + seed)
    values = []
    widths = ANGLE_WIDTHS[3 * seed % 7:] + ANGLE_WIDTHS[:3 * seed % 7]
    for psi in random_bumps(name, group, rng, 3, widths=widths):
        got = box_integral(monkeypatch, psi, measure, delta, **SMALL_BOX)
        assert got == full_br_integral(psi, measure, delta, **SMALL_BOX)
        values.append(got)
        assert measures.quadrature_report(psi, pairs, delta)[0].hex() == dense_estimate(psi, field).hex()
    assert any(v > 0.0 for v in values)


@pytest.mark.parametrize("seed", range(0, 24, 3))
def test_random_bumps_on_conjugates_match_full_grid(monkeypatch, seed):
    name, group, m, measure, delta = conjugate_case(seed)
    rng = np.random.default_rng(8000 + seed)
    for psi in random_bumps(name, group, rng, 2, m):
        got = box_integral(monkeypatch, psi, measure, delta, **SMALL_BOX)
        assert got == full_br_integral(psi, measure, delta, **SMALL_BOX)


def test_weighted_and_cap_integrands_match_full_grid(builtin_measures, monkeypatch):
    # a weighted bump keeps its bump's support; the cusp cap and a weighted
    # cap name none and keep every in-domain cell
    group, measure, delta = builtin_measures["cusped"]
    (psi,) = bumps(group, RATIO_BUMPS[:1])
    cap = CuspHeightCap(group, NONDIV_HEIGHT, 0.1)

    def density(x, y):
        return 1.0 + x * x * y

    integrands = [WeightedFunction(psi, density), cap, WeightedFunction(cap, density)]
    assert [f.support() for f in integrands] == [psi.support(), None, None]
    for f in integrands:
        got = box_integral(monkeypatch, f, measure, delta, **SMALL_BOX)
        assert got > 0.0 and got == full_br_integral(f, measure, delta, **SMALL_BOX)


def test_short_support_windows_widen_their_rows(builtin_measures, monkeypatch):
    # cut every support window one cell past its padding (down to its middle):
    # a row whose plaque crosses the bump's disk then has a cell inside the
    # disk just beyond an end of its window, and must be taken whole to match
    # the oracle
    group, measure, delta = builtin_measures["cusped"]
    plaque_support = measures._plaque_support
    support_windows = measures._support_windows
    kwargs = dict(t_grid=np.arange(-4.0, 4.01, 0.5), sigma_span=10.0, top_k=60)
    widened = []

    def cut(disk, xi, E):
        lo, hi = plaque_support(disk, xi, E)
        meets = lo <= hi
        mid = 0.5 * (np.where(meets, lo, 0.0) + np.where(meets, hi, 0.0))
        step = (measures._PAD + 1) * measures._ARC_STEP
        return np.where(meets, np.minimum(lo + step, mid), lo), np.where(meets, np.maximum(hi - step, mid), hi)

    def counting(window, row_span, disk, points):
        first, stop = support_windows(window, row_span, disk, points)
        # the rows taken whole whose cut window was not whole
        start, end = row_span
        widened.append(int(np.sum((first == start) & (stop == end) & ((window[0] > start) | (window[1] < end)))))
        return first, stop

    monkeypatch.setattr(measures, "_plaque_support", cut)
    monkeypatch.setattr(measures, "_support_windows", counting)
    for psi in bumps(group, RATIO_BUMPS):
        widened.clear()
        assert box_integral(monkeypatch, psi, measure, delta, **kwargs) == full_br_integral(
            psi, measure, delta, **kwargs
        )
        # one call per block of leaf coordinates, here one, which widened rows
        assert len(widened) == 1 and widened[0] > 0


def test_overflowing_quadratures_raise(builtin_measures, monkeypatch):
    # an integrand that is not finite ends in MeasureError, not in a NaN or
    # inf estimate
    _, measure, delta = builtin_measures["cusped"]
    for value in (np.inf, np.nan):
        bad = ConstantFunction(value)
        fresh = quadrature_constants(monkeypatch, measure, _PAIR_ATOMS=20, _BOX_ATOMS=20)
        with pytest.raises(MeasureError, match="estimate is"):
            measures.quadrature_report(bad, fresh, delta)
        # nothing is cached for it
        assert list(fresh._pair_cache.values())[0][2] == {}
        with pytest.raises(MeasureError, match="box quadrature breaks down"):
            br_integral(bad, fresh, delta)


@pytest.mark.parametrize("chunk", [7, 60, 119, 180, 1000])
def test_blocks_of_leaf_coordinates_match_full_grid(builtin_measures, monkeypatch, chunk):
    # SMALL_BOX has 33 leaf coordinates of 60 rows: at these _CHUNK a block
    # holds one leaf coordinate (7, past _CHUNK rows; 60; 119), three (180,
    # eleven full blocks) or sixteen (1000, and a last block of one)
    group, measure, delta = builtin_measures["cusped"]
    monkeypatch.setattr(measures, "_CHUNK", chunk)
    for psi in [ConstantFunction()] + bumps(group, RATIO_BUMPS):
        assert box_integral(monkeypatch, psi, measure, delta, **SMALL_BOX) == full_br_integral(
            psi, measure, delta, **SMALL_BOX
        )


@pytest.mark.parametrize(
    "leaf, pieces",
    [pytest.param(8, [1] * 60, id="rows"), pytest.param(4 * 5 * 481, [4] + [5] * 11 + [1], id="five-rows")],
)
def test_pieces_of_rows_match_full_grid(builtin_measures, monkeypatch, leaf, pieces):
    # an integrand with no support is evaluated on whole-grid rows of 481
    # cells in SMALL_BOX, in pieces cut where the rows' cells pass a multiple
    # of _LEAF // 4 (the row that reaches one starts the next piece): at two
    # cells every row is a piece, at five rows' cells the 60 rows of a leaf
    # coordinate make 13 pieces
    group, measure, delta = builtin_measures["cusped"]
    row_sums = measures._row_sums
    passes = []

    def counting(psi, points, runs, part, width):
        passes.append(part.stop - part.start)
        return row_sums(psi, points, runs, part, width)

    monkeypatch.setattr(measures, "_LEAF", leaf)
    monkeypatch.setattr(measures, "_row_sums", counting)
    for psi in (ConstantFunction(), CuspHeightCap(group, NONDIV_HEIGHT, 0.1)):
        passes.clear()
        assert box_integral(monkeypatch, psi, measure, delta, **SMALL_BOX) == full_br_integral(
            psi, measure, delta, **SMALL_BOX
        )
        assert passes == pieces * 33


def test_pair_chunks_join_into_the_same_table(builtin_measures, monkeypatch):
    # 40 atoms make 1,560 pairs, which chunks of 97 pairs do not divide; the
    # runs of every chunk join into the table that the default chunks give,
    # array for array and bit for bit
    _, measure, delta = builtin_measures["schottky"]
    measure = quadrature_constants(monkeypatch, measure, _PAIR_ATOMS=40)
    want, den, _ = _pair_field(measure, delta)
    monkeypatch.setattr(measures, "_CHUNK", 97)
    got, den97, _ = _pair_field(dataclasses.replace(measure, _pair_cache={}), delta)
    for g, w in zip((*got.seeds, got.weight, got.shift, got.ends), (*want.seeds, want.weight, want.shift, want.ends)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert den97 == den and len(got.weight) > 97
    assert_same_field(monkeypatch, measure, delta, DEFAULT_T, 40)


def test_window_count_guard_falls_back_to_whole_windows(builtin_measures, monkeypatch):
    # cut every domain segment of the box quadrature by _PAD + 1 cells a side
    # (down to its middle cell): a cell tested at a cut end is then in the
    # domain next to an untested one the closed form puts out of it, so the
    # row must be tested on its whole span to match the oracle
    group, measure, delta = builtin_measures["cusped"]
    # 81 leaf coordinates by 200 atoms by default, ten to a block of at most
    # _CHUNK rows; 33 by 60 in SMALL_BOX, all in one block
    for kwargs, blocks in (({}, 9), (SMALL_BOX, 1)):
        for psi in [ConstantFunction()] + bumps(group, RATIO_BUMPS):
            want = full_br_integral(psi, measure, delta, **kwargs)
            for cut in (0, measures._PAD + 1):
                fallbacks = count_fallbacks(monkeypatch, cut)
                assert box_integral(monkeypatch, psi, measure, delta, **kwargs) == want
                # one domain pass per block of leaf coordinates, for its
                # window counts and its support windows, falling back only
                # where segments were cut
                assert len(fallbacks) == blocks
                assert any(fallbacks) == bool(cut)


@pytest.mark.parametrize("xi, label", [(0.4, "b"), (0.1, "b"), (-0.3, "B"), (-0.1, "B")])
def test_grazing_plaques_match_full_grid(builtin_measures, monkeypatch, xi, label):
    # one atom whose plaques graze the half-disk of `label`: at the leaf
    # coordinate t* the discriminant is zero up to rounding, and just past it
    # the plaque dips into the half-disk between two crossings closer than
    # 2 _PAD cells, a hole too short to cut
    group, measure, delta = builtin_measures["cusped"]
    k = group.order.index(label)
    c, r = group._centers[k], group._radii[k]
    u = xi - c
    al = u * u - r * r
    t_star = math.log(al / r) - math.log(xi * xi + 1.0)
    t_grid = t_star + 0.0005 * np.arange(-3, 6)
    one = dataclasses.replace(
        measure, points=np.array([xi]), log_weights=np.array([0.0]), displacements=np.array([1.0]),
        lengths=np.array([1]), _pair_cache={}, _leaf=None,
    )
    # the crossings at each leaf coordinate, in arc parameter
    E = np.exp(t_grid + math.log(xi * xi + 1.0))
    sq = np.sqrt(np.maximum(E * E * r * r - al * al, 0.0))
    s1, s2 = (-u * E - sq) / al, (-u * E + sq) / al
    sigma = np.arange(-30.0, 30.0 + 1e-9, 0.05)
    inside = [np.any((sigma > a) & (sigma < b)) for a, b in zip(s1, s2)]
    assert any(inside) and np.all(s2 - s1 < 2 * measures._PAD * 0.05)
    sv = -u / r
    x, y = xi + E[3] * sv / (1 + sv * sv), E[3] / (1 + sv * sv)
    assert abs(sv) < 5.0 and group.in_fundamental_domain(complex(x, 1.05 * y))
    # a bump there, pointing along the plaque
    theta = math.atan2(1.0 - sv * sv, 2.0 * sv)
    near = TestFunction(group, pointed_frame(x, 1.05 * y, theta), base_width=0.5, angle_width=BUMP_WIDTHS[1])
    for psi in (ConstantFunction(), near):
        got = box_integral(monkeypatch, psi, one, delta, t_grid=t_grid)
        assert got > 0.0 and got == full_br_integral(psi, one, delta, t_grid=t_grid)


def test_box_holes_only_where_plaques_meet_their_circles(builtin_measures, monkeypatch):
    # a letter whose plaque misses its circle cuts no hole: an empty hole,
    # which splits its segment, comes only from a letter whose plaque meets
    # its circle, or misses it by no more than rounding, so a row has no
    # more splits than such letters
    group, measure, delta = builtin_measures["cusped"]
    seen = []

    def recording(segments, lost, span, width, inside):
        seen.append(segments)
        return DOMAIN_RUNS(segments, lost, span, width, inside)

    monkeypatch.setattr(measures, "_domain_runs", recording)
    br_integral(ConstantFunction(), measure, delta)
    # the rows of all blocks in order: (leaf coordinate, atom), leaf
    # coordinate major
    a, z = (np.concatenate(v) for v in zip(*seen))
    inner = (a[:, 1:] == z[:, :-1]) & (z[:, :-1] > a[:, :1]) & (z[:, :-1] < z[:, -1:])
    splits = np.count_nonzero(inner, axis=1)
    # the plaque geometry of br_integral, bit for bit
    xi = measure.points[measure.heaviest(measures._BOX_ATOMS)]
    e = np.exp(0.5 * (measures._BOX_GRID[:, None] + np.log(xi * xi + 1.0))).ravel()
    E = (e * e)[:, None]
    u = np.tile(xi, len(measures._BOX_GRID))[:, None] - group._centers
    al = u * u - group._radii * group._radii
    gap = E * E * (group._radii * group._radii) - al * al
    near = np.count_nonzero((al > 0.0) & (gap > -measures._EDGE * al * al), axis=1)
    assert len(splits) == len(near) and splits.sum() > 500
    assert np.all(splits <= near)
