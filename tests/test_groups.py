"""Group layer: ping-pong validation, counting, reduction, limit points."""

import builtins
import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from horolab import groups
from horolab.averages import VectorClass, _leaf_frames, build_vector
from horolab.defaults import (
    EXPERIMENT_PERIODS,
    EXPONENT_RADIUS,
    MIXING_TIMES,
    cusped_group,
    resolve_group,
    schottky_group,
    unit_parabolic_group,
)
from horolab.geometry import (
    INFINITY,
    ORIGIN,
    BoundaryPoint,
    Isometry,
    UnitTangent,
    frame_distance,
    frame_point,
    from_coordinates,
    geodesic_flow,
    horocycle_flow,
    hyperbolic_distance,
    isometry_distance,
    mobius_apply,
)
from horolab.groups import (
    FuchsianGroup,
    Generator,
    GroupError,
    WordSpec,
    check_parabolic_growth,
    critical_exponent,
    dumps_group,
    enumerated_word_count,
    fixed_points,
    parse_group_text,
    replayed,
    reset_word_counter,
    sample_limit_point,
)

from conftest import conjugate, iwasawa, peak_mib
from test_level_kernels import scalar_reduce


def fixed_point_oracle(m):
    """Quadratic-formula roots of c z^2 + (d - a) z - b = 0 via numpy."""
    a, b, c, d = m.entries()
    roots = np.roots([c, d - a, -b])
    return sorted(float(r.real) for r in roots)


def brute_orbit_points(group, max_len):
    """All orbit images of i from explicit letter products, deduplicated."""
    seen = {}
    frontier = [((), Isometry.identity())]
    for _ in range(max_len):
        nxt = []
        for letters, m in frontier:
            for lab in group.order:
                if letters and group.generator(letters[-1]).inverse_label == lab:
                    continue
                mm = m @ group.generator(lab).matrix
                nxt.append((letters + (lab,), mm))
        frontier = nxt
        for letters, m in frontier:
            z = mobius_apply(m, ORIGIN)
            seen[letters] = hyperbolic_distance(ORIGIN, z)
    return seen


def level_words(group, max_len):
    """(letters, (2, 2) matrix, displacement) of every nonempty reduced word
    up to max_len, from the levels of the unpruned walk. Each level's words
    are rebuilt from the level before in the walk's order, letter-major and
    in parent order within a letter, and must end in the walk's last letters."""
    out, prev = [], [()]
    for mats, disp, last in group._walk(max_len, None):
        cur = [
            w + (l,) for l in group.order for w in prev
            if not w or group.letters[w[-1]].inverse_label != l
        ]
        assert [w[-1] for w in cur] == [group.order[k] for k in last]
        out += [(w, m, float(d)) for w, m, d in zip(cur, mats, disp)]
        prev = cur
    return out


# ------------------------------------------------------------- construction


def test_builtin_groups_validate():
    def kinds(g):
        return {g.letters[l].kind for l in g.order}

    assert kinds(schottky_group()) == {"hyperbolic"}
    assert kinds(cusped_group()) == {"hyperbolic", "parabolic"}
    assert kinds(unit_parabolic_group()) == {"parabolic"}
    assert schottky_group().rank == 2
    assert unit_parabolic_group().rank == 1


def test_overlapping_domains_rejected():
    m = Isometry(2.0, 3.0, 1.0, 2.0)
    with pytest.raises(GroupError):
        FuchsianGroup(
            [
                Generator("a", m, "hyperbolic", (1.0, 3.0)),
                Generator("A", m.inverse(), "hyperbolic", (-3.0, 1.5)),
            ]
        )


def test_wrong_inverse_matrix_rejected():
    m = Isometry(2.0, 3.0, 1.0, 2.0)
    with pytest.raises(GroupError):
        FuchsianGroup(
            [
                Generator("a", m, "hyperbolic", (1.0, 3.0)),
                Generator("A", m, "hyperbolic", (-3.0, -1.0)),
            ]
        )


def test_elliptic_generator_rejected():
    with pytest.raises(GroupError):
        Generator("a", Isometry(0.0, -1.0, 1.0, 0.0), "hyperbolic", (1.0, 3.0))
        FuchsianGroup(
            [Generator("a", Isometry(0.0, -1.0, 1.0, 0.0), "hyperbolic", (1.0, 3.0))]
        )


def test_kind_must_match_trace():
    m = Isometry(2.0, 3.0, 1.0, 2.0)
    with pytest.raises(GroupError):
        FuchsianGroup(
            [
                Generator("a", m, "parabolic", (1.0, 3.0)),
                Generator("A", m.inverse(), "parabolic", (-3.0, -1.0)),
            ]
        )


def test_hyperbolic_domains_may_not_touch():
    # a shared endpoint is only legal for a parabolic pair at its fixed point
    m = Isometry(2.0, 3.0, 1.0, 2.0)
    with pytest.raises(GroupError):
        FuchsianGroup(
            [
                Generator("a", m, "hyperbolic", (-1.0, 3.0)),
                Generator("A", m.inverse(), "hyperbolic", (-3.0, -1.0)),
            ]
        )


def test_ping_pong_failure_rejected():
    # b's intervals overlap a's images once they sit inside [1, 3]
    a = Isometry(2.0, 3.0, 1.0, 2.0)
    b = Isometry(20.0, 39.9, 10.0, 20.0)  # pairing for tiny intervals near +-2
    with pytest.raises(GroupError):
        FuchsianGroup(
            [
                Generator("a", a, "hyperbolic", (1.0, 3.0)),
                Generator("A", a.inverse(), "hyperbolic", (-3.0, -1.0)),
                Generator("b", b, "hyperbolic", (1.9, 2.1)),
                Generator("B", b.inverse(), "hyperbolic", (-2.1, -1.9)),
            ]
        )


def test_ping_pong_refuses_an_outer_arc_image():
    # a(z) = 1.1 + 5.5 / (8 - z) sends infinity and every domain endpoint
    # into [1, 3], but its pole at 8 lies outside [-3, -1], so it maps the
    # outside of [-3, -1] onto the arc through infinity; the inverse
    # letter's check of infinity finds it (see _validate_ping_pong)
    a = Isometry(-1.1, 14.3, -1.0, 8.0)
    for p in (INFINITY, BoundaryPoint(-3.0), BoundaryPoint(-1.0), BoundaryPoint(1.0), BoundaryPoint(3.0)):
        q = mobius_apply(a, p)
        assert not q.is_infinity and 1.0 <= q.value <= 3.0
    with pytest.raises(GroupError) as err:
        FuchsianGroup(
            [
                Generator("a", a, "hyperbolic", (1.0, 3.0)),
                Generator("A", a.inverse(), "hyperbolic", (-3.0, -1.0)),
            ]
        )
    assert str(err.value) == (
        "ping-pong failure: 'A' maps BoundaryPoint(inf) to BoundaryPoint(8) outside its domain"
    )


# ---------------------------------------------------------------- counting


def test_word_count_rank_two_length_three():
    # 4 + 4*3 + 4*9 nonempty reduced words of length <= 3, plus the identity
    g = schottky_group()
    words = [w for w, _, _ in level_words(g, 3)]
    assert 1 + len(words) == 53
    assert len(set(words)) == 52 and () not in words
    assert all(g.is_reduced(w) for w in words)


def test_word_counter_charges_enumeration():
    g = schottky_group()
    reset_word_counter()
    list(g._walk(3, None))
    assert enumerated_word_count() == 53
    reset_word_counter()
    assert enumerated_word_count() == 0


def test_enumeration_deterministic():
    g = cusped_group()
    runs = [[w for w, _, _ in level_words(g, 4)] for _ in range(2)]
    assert runs[0] == runs[1]


def test_displacement_matches_distance_oracle():
    g = cusped_group()
    for letters, m, disp in level_words(g, 4):
        mat = Isometry(*m.ravel())
        assert isometry_distance(mat, g.word_matrix(letters)) < 1e-9
        direct = hyperbolic_distance(ORIGIN, mobius_apply(mat, ORIGIN))
        assert disp == pytest.approx(direct, abs=1e-9)


def test_parabolic_power_displacement_frozen():
    # the unit parabolic is conjugate to z -> z + 1 fixing the base point,
    # so d(i, p^n i) = 2 asinh(n / 2); frozen at n = 4
    g = unit_parabolic_group()
    m = g.word_matrix(["p"] * 4)
    assert g.displacement(m) == pytest.approx(2.8872709503576206, abs=1e-12)
    assert g.displacement(m) == pytest.approx(2.0 * math.asinh(2.0), abs=1e-12)


def grid_counts(group, radii):
    """Orbit counts of the exponent fit on the unit-step grid, read at radii."""
    fit = critical_exponent(group, max(radii), grid_step=1.0, min_points=0)
    return [int(fit.counts[np.flatnonzero(fit.grid == r)[0]]) for r in radii]


def test_exponent_grid_stops_at_t_max():
    # t_max = 12.3 once kept the grid point 12.5 and counted it only up to
    # 12.3: 127 orbit points where t_max = 12.5 counts 137
    g = schottky_group()
    cut = critical_exponent(g, 12.3, min_points=0)
    whole = critical_exponent(g, 12.5, min_points=0)
    assert cut.grid[-1] == 12.0
    assert np.array_equal(cut.grid, whole.grid[:-1])
    assert np.array_equal(cut.counts, whole.counts[:-1])


def test_orbit_count_against_brute_force():
    g = schottky_group()
    brute = brute_orbit_points(g, 4)
    fit = critical_exponent(g, 8.0, grid_step=2.0, min_points=0)
    assert list(fit.grid) == [2.0, 4.0, 6.0, 8.0]
    for radius, got in zip(fit.grid, fit.counts):
        # brute force is length-limited; radius 8 stays within length 4 words
        assert got == 1 + sum(1 for d in brute.values() if d <= radius)


def parabolic_max_power(radius):
    """Largest n with 2 asinh(n/2) <= radius, the displacement of the n-th
    power of the unit shift, counted up from just below 2 sinh(radius/2)."""
    n = max(int(2.0 * math.sinh(0.5 * radius)) - 2, 0)
    assert n == 0 or 2.0 * math.asinh(0.5 * n) <= radius
    while 2.0 * math.asinh(0.5 * (n + 1)) <= radius:
        n += 1
    return n


def cyclic_hyperbolic_group():
    """The cyclic group of a = [[2, 3], [1, 2]], and the displacement of a^n
    from the entry formula on the product of n copies of a."""
    a = Isometry(2.0, 3.0, 1.0, 2.0)
    g = FuchsianGroup(
        [
            Generator("a", a, "hyperbolic", (1.0, 3.0)),
            Generator("A", a.inverse(), "hyperbolic", (-3.0, -1.0)),
        ],
        name="cyclic-a",
    )

    def disp(n):
        m = Isometry.identity()
        for _ in range(n):
            m = m @ a
        return g.displacement(m)

    return g, disp


def hyperbolic_max_power(disp, radius):
    n = 0
    while disp(n + 1) <= radius:
        n += 1
    return n


def test_cyclic_fast_path_matches_brute_force():
    g = unit_parabolic_group()
    radii = (1.0, 3.0, 6.0, 9.0)
    want = []
    for radius in radii:
        n = parabolic_max_power(radius)
        want.append(1 + 2 * n)
        assert g._cyclic_max_power([radius])[0] == n
    assert grid_counts(g, radii) == want
    # no enumeration happens on the fast path
    reset_word_counter()
    critical_exponent(g, 25.0)
    assert enumerated_word_count() == 0


def test_cyclic_hyperbolic_count():
    g, disp = cyclic_hyperbolic_group()
    radii = (3.0, 6.0, 12.0, 20.0)
    want = []
    for radius in radii:
        n = hyperbolic_max_power(disp, radius)
        want.append(1 + 2 * n)
        assert g._cyclic_max_power([radius])[0] == n
    assert grid_counts(g, radii) == want


# the radii of the parabolic growth check: 1 to 30 in steps of 0.25
GROWTH_GRID = np.arange(1.0, 30.0 + 0.125, 0.25)


def test_cyclic_counts_on_growth_grid():
    # one bisection over the whole grid counts what each radius alone does
    assert len(GROWTH_GRID) == 117
    g = unit_parabolic_group()
    want = np.array([1 + 2 * parabolic_max_power(r) for r in GROWTH_GRID])
    assert np.array_equal(1 + 2 * g._cyclic_max_power(GROWTH_GRID), want)
    assert [1 + 2 * g._cyclic_max_power([float(r)])[0] for r in GROWTH_GRID] == list(want)
    ratio = want * np.exp(-0.5 * GROWTH_GRID)
    assert check_parabolic_growth(g) == max(ratio.max(), (1.0 / ratio).max())
    h, disp = cyclic_hyperbolic_group()
    want = np.array([1 + 2 * hyperbolic_max_power(disp, r) for r in GROWTH_GRID])
    assert np.array_equal(1 + 2 * h._cyclic_max_power(GROWTH_GRID), want)
    assert np.array_equal(critical_exponent(h, 30.0, grid_step=0.25, min_points=0).counts[3:], want)


def test_cyclic_count_out_of_range_names_the_radius():
    # 2 asinh(2**60) = 84.56: from there on a count passes 2**62 and the
    # bisection once returned 4.6e18 for every radius, so the exponent fit
    # at t_max = 100 read 0.333 instead of 0.5
    g = unit_parabolic_group()
    with pytest.raises(GroupError, match=r"radius 85 holds 2\*\*61 or more powers"):
        critical_exponent(g, 100.0)
    with pytest.raises(GroupError, match=r"radius 100 holds"):
        g._cyclic_max_power([100.0])
    # just below the edge the count is still taken
    assert 2**61 < 1 + 2 * int(g._cyclic_max_power([84.5])[0]) < 2**62


# ---------------------------------------------------------------- exponents


def test_unit_parabolic_exponent_half():
    fit = critical_exponent(unit_parabolic_group(), 30.0)
    assert fit.delta == pytest.approx(0.5, abs=0.02)
    assert fit.stderr < 1e-3


def test_parabolic_growth_constant_small():
    assert check_parabolic_growth(unit_parabolic_group()) < 3.0


def test_parabolic_growth_needs_parabolic_cyclic():
    with pytest.raises(GroupError):
        check_parabolic_growth(schottky_group())


def test_schottky_exponent_stable_in_radius():
    fits = [critical_exponent(schottky_group(), t) for t in (18.0, 20.0, 22.0)]
    deltas = [f.delta for f in fits]
    assert max(deltas) - min(deltas) < 0.02
    assert 0.3 < deltas[-1] < 0.5


def test_cusped_exponent_exceeds_half():
    fit = critical_exponent(cusped_group(), EXPONENT_RADIUS["cusped"])
    assert fit.delta - 3.0 * fit.stderr > 0.5


# ------------------------------------------------------ syllable walk oracle


def level_walk_counts(group, t_max, grid_step=0.5):
    """The exponent fit's counts rebuilt from the levels of the walk without
    runs, one power of a parabolic letter per level, and the words that walk
    materializes."""
    reset_word_counter()
    parts = [np.zeros(1)] + [d[d <= t_max] for _, d, _ in group._walk(None, t_max)]
    grid = np.arange(grid_step, t_max + 0.5 * grid_step, grid_step)
    counts = np.searchsorted(np.sort(np.concatenate(parts)), grid, side="right")
    return counts.astype(float), enumerated_word_count()


def assert_counts_match_level_walk(group, t_max):
    want, words = level_walk_counts(group, t_max)
    reset_word_counter()
    fit = critical_exponent(group, t_max, min_points=0)
    assert np.array_equal(fit.counts, want), t_max
    assert enumerated_word_count() == words, t_max


def negated_cusped_group():
    """The cusped group with its parabolic pair given by trace -2 matrices."""
    par = Isometry(-1.0, 0.0, 4.0, -1.0)
    return FuchsianGroup(
        [
            Generator("p", par, "parabolic", (-0.5, 0.0)),
            Generator("P", par.inverse(), "parabolic", (0.0, 0.5)),
            cusped_group().letters["b"],
            cusped_group().letters["B"],
        ],
        name="cusped-negated",
    )


def near_parabolic_group(excess):
    """The cusped group with its parabolic pair moved to |trace| = 2 + excess,
    up to rounding: a letter that reads as parabolic within the kind
    tolerance, as a group file written to about 10 digits gives."""
    par = Isometry(1.0, -0.25 * excess, -4.0, 1.0)
    return FuchsianGroup(
        [
            Generator("p", par, "parabolic", (-0.5, 0.0)),
            Generator("P", par.inverse(), "parabolic", (0.0, 0.5)),
            cusped_group().letters["b"],
            cusped_group().letters["B"],
        ],
        name="cusped-near-parabolic",
    )


def two_cusp_group(hyperbolic=True):
    """The cusped group's parabolic pair, its copy shifted to fix 3, and,
    with hyperbolic, the interval pairing between them."""
    q = Isometry(-11.0, 36.0, -4.0, 13.0)  # p conjugated by z -> z + 3
    letters = [
        cusped_group().letters[l] for l in ("p", "P") + (("b", "B") if hyperbolic else ())
    ] + [
        Generator("q", q, "parabolic", (2.5, 3.0)),
        Generator("Q", q.inverse(), "parabolic", (3.0, 3.5)),
    ]
    return FuchsianGroup(letters, name="two-cusps")


ORBIT_WALKS = [
    pytest.param(cusped_group, (6.0, 8.5, 11.0, 13.5, 15.0, 16.5), id="cusped-ladder"),
    pytest.param(
        lambda: parse_group_text(dumps_group(cusped_group())), (14.0,), id="cusped-round-trip"
    ),
    pytest.param(negated_cusped_group, (10.0, 14.0), id="cusped-trace-minus-two"),
    # a run of about 10^4 powers: w + n wN would drift from w p^n there
    pytest.param(lambda: near_parabolic_group(9e-11), (18.0,), id="trace-above-two"),
    pytest.param(lambda: near_parabolic_group(-9e-11), (18.0,), id="trace-below-two"),
    pytest.param(two_cusp_group, (12.0,), id="two-cusps"),
    pytest.param(lambda: two_cusp_group(False), (14.0,), id="two-cusps-no-hyperbolic"),
    pytest.param(schottky_group, (16.0,), id="schottky"),
]


@pytest.mark.parametrize("make, radii", ORBIT_WALKS)
def test_syllable_walk_counts_match_level_walk(make, radii):
    # whole parabolic runs per step count the orbit points and charge the
    # words of the walk that takes one power per level
    group = make()
    for t_max in radii:
        assert_counts_match_level_walk(group, t_max)


@pytest.mark.parametrize("seed", range(6))
def test_syllable_walk_counts_match_level_walk_on_conjugates(seed):
    # a conjugate's parsed parabolic is nilpotent only up to rounding
    group, _ = conjugate(cusped_group(), np.random.default_rng(seed))
    for t_max in (14.0, 16.0):
        assert_counts_match_level_walk(group, t_max)


@pytest.mark.parametrize("chunk", [5], ids=["blocks"])
def test_syllable_walk_counts_across_blocks(chunk, monkeypatch):
    # blocks of 5 rows split every long run, and every run forms on in
    # doubling windows of at most 5 rows until it crosses the cap
    monkeypatch.setattr(groups, "_CHILD_CHUNK", chunk)
    for t_max in (9.0, 12.0):
        assert_counts_match_level_walk(cusped_group(), t_max)


def syllables(group, t_max):
    """Each syllable's displacements as sorted bytes, the fit's counts and
    the words charged."""
    reset_word_counter()
    parts = [np.sort(d).tobytes() for _, d, _ in group._walk(None, t_max, runs=True)]
    words = enumerated_word_count()
    return parts, critical_exponent(group, t_max, min_points=0).counts, words


@pytest.mark.parametrize("seed", [None, 0, 1], ids=["cusped", "conjugate-0", "conjugate-1"])
def test_streamed_runs_match_unstreamed_walk(seed, monkeypatch):
    # runs formed for at most _CHILD_CHUNK words at a time come in another
    # order than one block of every parent, but they are the same words; at
    # radius 18 the widest syllable has 16,662 run parents, more than one
    # block of the default size
    group = cusped_group()
    if seed is not None:
        group, _ = conjugate(group, np.random.default_rng(seed))
    for chunk, t_max in ((5, 10.0), (5, 12.0), (groups._CHILD_CHUNK, 18.0)):
        monkeypatch.setattr(groups, "_CHILD_CHUNK", 2**40)
        want = syllables(group, t_max)
        assert len(want[0]) > 5
        monkeypatch.setattr(groups, "_CHILD_CHUNK", chunk)
        got = syllables(group, t_max)
        assert got[0] == want[0], (t_max, chunk)
        assert np.array_equal(got[1], want[1]), (t_max, chunk)
        assert got[2] == want[2], (t_max, chunk)


@pytest.mark.parametrize("chunk, t_max", [(5, 12.0), (groups._CHILD_CHUNK, 18.0)])
def test_run_blocks_within_chunk(chunk, t_max, monkeypatch):
    # every block of children or run words whose displacements the walk
    # takes has at most _CHILD_CHUNK rows, and some block fills one: at 18
    # the widest syllable has 16,662 run parents
    monkeypatch.setattr(groups, "_CHILD_CHUNK", chunk)
    rows, original = [], groups._displacement

    def displacement(mats):
        rows.append(len(mats))
        return original(mats)

    monkeypatch.setattr(groups, "_displacement", displacement)
    for _ in cusped_group()._walk(None, t_max, runs=True):
        pass
    assert max(rows) == chunk


def test_pruned_walk_memory():
    # each block of children is pruned as it is formed: the Schottky fit to
    # 28 forms 773,648 words and keeps 257,881, and its peak was 17.8 MiB
    # when each level's unpruned children were formed at once, and 10.1 MiB
    # while the walk kept each word's parent row (8.8 MiB without)
    assert peak_mib(lambda: critical_exponent(schottky_group(), t_max=28.0)) <= 9.5


def test_walk_memory_no_higher_than_whole_levels():
    # the cusped fit (10.0 MiB when each syllable gathered every run parent
    # at once, 7.50 MiB while each run was formed up to a guessed length) and
    # an unpruned walk, whose children go into one stack of the level's size
    # (2.47 MiB)
    assert peak_mib(lambda: critical_exponent(cusped_group(), t_max=18.0)) <= 7.0
    g = schottky_group()
    assert peak_mib(lambda: [None for _ in g._walk(9, None)]) <= 2.47


def test_enumeration_refuses_lost_determinants():
    # past radius 31 or so on the Schottky group rounding leaves some word
    # products with a determinant <= 0; renormalized, they became NaN rows
    # that the radius prune dropped while the fit went on over the rest
    g = schottky_group()
    with pytest.raises(GroupError, match="of 224553 word products lost their determinant"):
        critical_exponent(g, t_max=32.0)
    with pytest.raises(GroupError, match="1 of 78732 word products lost their determinant"):
        for _ in g._walk(10, None):
            pass
    # a row with a zero, a negative and a NaN determinant, pruned or not
    for row, det in (([[1.0, 1.0], [1.0, 1.0]], "0.0"), ([[0.0, 1.0], [1.0, 0.0]], "-"),
                     ([[np.nan, 0.0], [0.0, 1.0]], "nan")):
        for cap in (None, 30.0):
            with pytest.raises(GroupError, match=r"1 of 1 word products .* \(one reads %s" % det):
                g._pruned_children(np.array([row]), np.array([-1]), np.array([0]), cap)


@pytest.mark.parametrize(
    "group, kwargs",
    [
        pytest.param(schottky_group, dict(t_max=20.0, grid_step=0.0), id="zero-step"),
        pytest.param(schottky_group, dict(t_max=20.0, grid_step=-1.0), id="negative-step"),
        pytest.param(schottky_group, dict(t_max=20.0, grid_step=float("nan")), id="nan-step"),
        pytest.param(schottky_group, dict(t_max=0.1, min_points=0), id="empty-grid"),
        pytest.param(unit_parabolic_group, dict(t_max=0.1, min_points=0), id="empty-grid-rank-one"),
    ],
)
def test_critical_exponent_rejects_empty_grid(group, kwargs):
    with pytest.raises(GroupError):
        critical_exponent(group(), **kwargs)


def test_empty_group_rejected():
    with pytest.raises(GroupError, match="at least one letter pair"):
        FuchsianGroup([])
    with pytest.raises(GroupError, match="empty.group defines no generators"):
        parse_group_text("name = empty\n", name="empty.group")


# ---------------------------------------------------------------- fixed points


def test_fixed_points_against_quadratic_oracle():
    g = schottky_group()
    for letters in [("a",), ("b",), ("a", "b"), ("a", "B"), ("b", "b", "a")]:
        m = g.word_matrix(letters)
        att, rep = fixed_points(m)
        lo, hi = fixed_point_oracle(m)
        assert sorted([att.value, rep.value]) == pytest.approx([lo, hi], abs=1e-9)


def test_fixed_points_frozen_values():
    att, rep = fixed_points(Isometry(2.0, 3.0, 1.0, 2.0))
    assert att.value == pytest.approx(math.sqrt(3.0), abs=1e-12)
    assert rep.value == pytest.approx(-math.sqrt(3.0), abs=1e-12)
    att, rep = fixed_points(Isometry(1.0, 0.0, -4.0, 1.0))
    assert att.value == 0.0 and rep is None
    att, rep = fixed_points(Isometry(2.0, 0.0, 0.0, 0.5))
    assert att.is_infinity and rep.value == 0.0


def test_fixed_point_equivariance(rng):
    g = cusped_group()
    w = g.word_matrix(("b", "p", "B"))
    att, rep = fixed_points(w)
    base_att, base_rep = fixed_points(g.word_matrix(("p",)))
    conj = g.word_matrix(("b",))
    assert rep is None
    moved = mobius_apply(conj, base_att)
    assert att.value == pytest.approx(moved.value, abs=1e-9)


def test_attracting_point_attracts(rng):
    g = schottky_group()
    m = g.word_matrix(("a", "b"))
    att, rep = fixed_points(m)
    z = BoundaryPoint(0.123)
    for _ in range(40):
        z = mobius_apply(m, z)
    assert z.chordal(att) < 1e-9


# ---------------------------------------------------------------- reduction


@pytest.mark.parametrize("make", [schottky_group, cusped_group])
def test_reduce_inverts_group_motion(make, rng):
    g = make()
    u0 = UnitTangent(iwasawa(0.3, 0.1, 0.7))
    assert g.in_fundamental_domain(u0.base_point.as_complex)
    for _ in range(25):
        letters = g._random_reduced_letters(rng, int(rng.integers(1, 9)))
        moved = UnitTangent(g.word_matrix(letters) @ u0.frame)
        frame, word = scalar_reduce(g, moved)
        rep = UnitTangent(frame)
        # round trip through words of length 8 loses ~|w|^2 eps to cancellation
        assert frame_distance(rep, u0) < 1e-5
        assert g.in_fundamental_domain(rep.base_point.as_complex)
        assert word == tuple(x.swapcase() for x in reversed(letters))
        assert isometry_distance(g.word_matrix(word) @ moved.frame, frame) < 1e-6


def test_reduce_deep_cusp_excursion():
    g = cusped_group()
    u0 = UnitTangent(iwasawa(-0.6, 0.2, 0.0))
    letters = ("b",) + ("p",) * 400 + ("b", "b")
    moved = UnitTangent(g.word_matrix(letters) @ u0.frame)
    frame, word = scalar_reduce(g, moved, max_steps=50)
    # parabolic jumps peel the power in one step, so 50 iterations suffice
    assert frame_distance(UnitTangent(frame), u0) < 1e-5
    assert word == tuple(x.swapcase() for x in reversed(letters))


def test_reduce_fixes_fundamental_domain_points():
    g = schottky_group()
    u0 = UnitTangent(iwasawa(0.0, 0.4, 1.2))
    frame, word = scalar_reduce(g, u0)
    assert word == ()
    assert frame_distance(UnitTangent(frame), u0) == 0.0


def _letter_oracle(g, x, y):
    """Letter whose open half-disk holds x + iy, decided in exact arithmetic;
    None when the point lies too close to a circle for float to decide."""
    fx, fy = Fraction(x), Fraction(y)
    hits = []
    for k, lab in enumerate(g.order):
        lo, hi = (Fraction(v) for v in g.letters[lab].domain)
        ctr, rad = (lo + hi) / 2, (hi - lo) / 2
        margin = (fx - ctr) ** 2 + fy * fy - rad * rad
        if abs(margin) < Fraction(1, 10**9) * rad * rad:
            return None
        if margin < 0:
            hits.append(k)
    assert len(hits) <= 1, "half-disks of %s overlap at %r" % (g.name, (x, y))
    return hits[0] if hits else -1


@pytest.mark.parametrize("make", [schottky_group, cusped_group])
def test_containing_letter_matches_oracle(make, rng):
    g = make()
    x = rng.uniform(-7.0, 7.0, 1500)
    y = np.exp(rng.uniform(math.log(1e-4), math.log(4.0), 1500))
    # near the tangency of the cusped group's parabolic pair at 0
    x = np.concatenate([x, rng.uniform(-1e-3, 1e-3, 500)])
    y = np.concatenate([y, np.exp(rng.uniform(math.log(1e-8), math.log(1e-3), 500))])
    got = g.containing_letter(x, y)
    want = [_letter_oracle(g, float(a), float(b)) for a, b in zip(x, y)]
    decided = [k for k, w in enumerate(want) if w is not None]
    assert len(decided) > 1900
    assert [int(got[k]) for k in decided] == [want[k] for k in decided]
    assert {want[k] for k in decided} == set(range(-1, len(g.order)))
    for k in decided[:200]:
        assert int(g.containing_letter(float(x[k]), float(y[k]))) == want[k]
        assert g.in_fundamental_domain(complex(x[k], y[k])) == (want[k] < 0)


@pytest.mark.parametrize("make", [schottky_group, cusped_group])
def test_reduce_frames_matches_scalar(make, rng):
    g = make()
    frames = []
    expect = []
    for _ in range(40):
        u0 = UnitTangent(iwasawa(float(rng.uniform(-1, 1)), float(rng.uniform(-0.3, 0.8)), float(rng.uniform(-3, 3))))
        letters = g._random_reduced_letters(rng, int(rng.integers(0, 7)))
        moved = UnitTangent(g.word_matrix(letters) @ u0.frame)
        frames.append(np.array(moved.frame.entries()).reshape(2, 2))
        expect.append(UnitTangent(scalar_reduce(g, moved)[0]))
    out = g.reduce_frames(np.array(frames))
    for got, want in zip(out, expect):
        u = UnitTangent(Isometry(got[0, 0], got[0, 1], got[1, 0], got[1, 1]))
        assert frame_distance(u, want) < 1e-6


def _leaf_stack(group, name, rng):
    """Leaf frames of the experiment vector and, on a cusped group, of a
    vector based at each parabolic fixed point, at random leaf parameters;
    then the same frames flowed by every mixing time."""
    pm, pp = EXPERIMENT_PERIODS[name]
    u, _ = build_vector(
        group,
        sample_limit_point(group, WordSpec(period=pm)),
        sample_limit_point(group, WordSpec(period=pp)),
    )
    vectors = [u] + [
        from_coordinates(fixed_points(group.letters[lab].matrix)[0], INFINITY, 0.0)
        for lab in group.order
        if group.letters[lab].kind == "parabolic"
    ]
    s = rng.choice([-1.0, 1.0], 150) * np.exp(rng.uniform(-3.0, 9.0, 150))
    leaf = np.concatenate([_leaf_frames(v, s) for v in vectors])
    stacks = [leaf]
    for t in MIXING_TIMES:
        e = math.exp(0.5 * t)
        flowed = leaf.copy()
        flowed[:, :, 0] *= e
        flowed[:, :, 1] /= e
        stacks.append(flowed)
    return np.concatenate(stacks)


@pytest.mark.parametrize("make, name", [(schottky_group, "schottky"), (cusped_group, "cusped")])
def test_reduce_frames_is_replay_of_settle_frames(make, name):
    g = make()
    rng = np.random.default_rng(6060)
    frames = _leaf_stack(g, name, rng)
    settled, moves = g.settle_frames(frames)
    assert moves.max() >= 4 and len(np.unique(moves)) >= 4
    picks = [np.arange(len(frames)), np.zeros(0, dtype=int)]
    picks += [rng.choice(len(frames), int(rng.integers(2, 400)), replace=False) for _ in range(8)]
    picks += [np.array([k]) for k in rng.choice(len(frames), 12, replace=False)]
    for rows in picks:
        want = g.reduce_frames(frames[rows])
        assert want.tobytes() == replayed(settled[rows], moves[rows]).tobytes()
        # each row settles on its own, whatever its batch
        alone, alone_moves = g.settle_frames(frames[rows])
        assert alone.tobytes() == settled[rows].tobytes()
        assert np.array_equal(alone_moves, moves[rows])


def test_settle_frames_stops_paired_circle_ping_pong():
    # h^{+-2} u for u based at the cusp 0, flowed by t = 1..5: the base point
    # lies where the parabolic letter maps its circle onto its inverse's, and
    # rounding puts it inside the other half-disk after every move, so it was
    # sent back and forth until the round limit
    g = cusped_group()
    u = from_coordinates(BoundaryPoint(0.0), INFINITY, 0.0)
    frames = np.array([
        np.reshape(geodesic_flow(horocycle_flow(u, s), float(t)).frame.entries(), (2, 2))
        for t in range(1, 6)
        for s in (2.0, -2.0)
    ])
    settled, moves = g.settle_frames(frames)
    assert moves.max() <= 2
    x, y = frame_point(*settled.reshape(-1, 4).T)
    # each settles on the closure of the fundamental domain
    margin = (x[:, None] - g._centers) ** 2 + (y * y)[:, None] - g._radii ** 2
    assert np.all(margin > -1e-12)
    assert g.reduce_frames(frames).tobytes() == replayed(settled, moves).tobytes()


def test_letter_order_pairs_inverses(monkeypatch):
    # settle_frames finds a letter's inverse at position k ^ 1 of the order
    for make in (schottky_group, cusped_group, unit_parabolic_group):
        h = make()
        inverse = [h.order.index(h.letters[l].inverse_label) for l in h.order]
        assert np.array_equal(inverse, np.arange(len(h.order)) ^ 1)
    # an order that sorts by plain label (A, B, a, b) is refused
    monkeypatch.setattr(groups, "sorted", lambda items, key=None: builtins.sorted(items), raising=False)
    with pytest.raises(GroupError, match="inverse next to it"):
        schottky_group()


def test_settle_frames_rejects_non_finite_base_points():
    g = cusped_group()
    u = UnitTangent(iwasawa(0.3, 0.2, 0.4))
    frame = np.array(u.frame.entries()).reshape(1, 2, 2)
    # flowing by t = -800 overflows c^2 + d^2, so y = 0 and x is NaN
    e = math.exp(-400.0)
    flowed = frame.copy()
    flowed[:, :, 0] *= e
    flowed[:, :, 1] /= e
    nan = np.full((1, 2, 2), np.nan)
    for bad in (flowed, nan):
        stack = np.concatenate([frame, bad, frame])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GroupError, match="not finite"):
                g.settle_frames(stack)
            with pytest.raises(GroupError, match="not finite"):
                g.reduce_frames(stack)


# ---------------------------------------------------------------- limit set


def test_periodic_limit_point_is_fixed_point():
    g = schottky_group()
    spec = WordSpec(period=("a", "b"), depth=40)
    sample = sample_limit_point(g, spec)
    att, _ = fixed_points(g.word_matrix(("a", "b")))
    assert sample.kind == "radial"
    assert sample.point.value == pytest.approx(att.value, abs=1e-9)
    assert sample.width < 1e-9


def test_parabolic_limit_point_exact():
    g = cusped_group()
    spec = WordSpec(period=("p",), head=("b", "P", "B"), depth=10)
    sample = sample_limit_point(g, spec)
    assert sample.kind == "parabolic"
    assert sample.width == 0.0
    expected = mobius_apply(g.word_matrix(("b", "P", "B")), BoundaryPoint(0.0))
    assert sample.point.value == pytest.approx(expected.value, abs=1e-12)


def test_limit_point_lies_in_hull():
    g = cusped_group()
    for seed in range(5):
        spec = dataclasses.replace(WordSpec.random(g, seed=seed), depth=30)
        sample = sample_limit_point(g, spec)
        assert g.in_hull(sample.point)
        assert sample.width < 1e-6


def test_unreduced_spec_rejected():
    g = schottky_group()
    with pytest.raises(GroupError):
        sample_limit_point(g, WordSpec(period=("a", "A"), depth=10))


def test_word_spec_random_reproducible():
    g = cusped_group()
    assert WordSpec.random(g, seed=7) == WordSpec.random(g, seed=7)


def test_tangent_classification():
    # a sample names its own class; a bare point is radial inside the hull
    g = cusped_group()
    radial = sample_limit_point(g, WordSpec(period=("b", "p"), depth=30))
    parab = sample_limit_point(g, WordSpec(period=("p",), head=("b",), depth=10))
    u, cls = build_vector(g, radial, BoundaryPoint(5.0))
    assert cls is VectorClass.RADIAL
    assert u.minus.value == pytest.approx(radial.point.value, abs=1e-9)
    assert build_vector(g, radial.point, BoundaryPoint(5.0))[1] is VectorClass.RADIAL
    _, cls = build_vector(g, parab, BoundaryPoint(5.0))
    assert cls is VectorClass.PARABOLIC
    _, cls = build_vector(g, BoundaryPoint(5.0), radial.point)
    assert cls is VectorClass.WANDERING


# ---------------------------------------------------------------- file format


def test_group_file_round_trip(tmp_path):
    g = cusped_group()
    text = dumps_group(g)
    h = parse_group_text(text)
    assert h.name == g.name
    assert h.order == g.order
    for lab in g.order:
        assert isometry_distance(h.letters[lab].matrix, g.letters[lab].matrix) < 1e-12
        assert h.letters[lab].domain == g.letters[lab].domain
        assert h.letters[lab].kind == g.letters[lab].kind
    p = tmp_path / "grp.txt"
    p.write_text(text)
    assert resolve_group(str(p)).order == g.order


def test_group_file_takes_only_known_keys():
    for g in (schottky_group(), cusped_group(), unit_parabolic_group()):
        assert parse_group_text(dumps_group(g)).order == g.order
    lines = dumps_group(schottky_group()).splitlines()
    block = lines.index("label = a") + 1
    for at, bad, message in [
        (block, "colour = red", "line %d: unknown key 'colour' in generator 'a'"),
        (1, "nmae = x", "line %d: unknown key 'nmae'"),
        (block, " = 5", "line %d: empty key"),
    ]:
        text = "\n".join(lines[:at] + [bad] + lines[at:]) + "\n"
        with pytest.raises(GroupError, match="^" + message % (at + 1)):
            parse_group_text(text)
    # a repeated key once parsed, the later value winning; the error names
    # the key's own line, one further down with the new line in, and the first
    for at, key, where in [(block, "matrix", " in generator 'a'"), (1, "name", "")]:
        text = "\n".join(lines[:at] + ["%s = 1 0 0 1" % key] + lines[at:]) + "\n"
        again = next(i for i in range(at, len(lines)) if lines[i].startswith(key + " =")) + 2
        message = "^line %d: duplicate key %r%s, first given on line %d$" % (again, key, where, at + 1)
        with pytest.raises(GroupError, match=message):
            parse_group_text(text)


def test_group_file_errors():
    with pytest.raises(GroupError):
        parse_group_text("label = a\nmatrix = 2 3 1 2\nkind = hyperbolic\n")
    with pytest.raises(GroupError):
        parse_group_text("label = a\nmatrix = 2 3 1\ndomain = 1 3\nkind = hyperbolic\n")
    with pytest.raises(GroupError):
        parse_group_text("just some words\n")


def test_resolve_builtin_names():
    assert resolve_group("builtin:schottky").name == "schottky"
    assert resolve_group("cusped").letters["p"].kind == "parabolic"
    with pytest.raises(GroupError):
        resolve_group("builtin:nope")
