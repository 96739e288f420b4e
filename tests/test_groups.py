"""Group layer: ping-pong validation, counting, reduction, limit points."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from horolab.averages import _leaf_frames
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
    from_coordinates,
    hyperbolic_distance,
    isometry_distance,
    mobius_apply,
)
from horolab.groups import (
    FuchsianGroup,
    Generator,
    GroupError,
    LimitSample,
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
    tangent_from_samples,
)

from conftest import iwasawa
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
    up to max_len, rebuilt from the levels of _level_arrays."""
    out, prev = [], None
    for mats, disp, last, parent in group._level_arrays(max_len):
        cur = [
            (prev[p] if prev else ()) + (group.order[l],) for p, l in zip(parent, last)
        ]
        out += [(w, m, float(d)) for w, m, d in zip(cur, mats, disp)]
        prev = cur
    return out


# ------------------------------------------------------------- construction


def test_builtin_groups_validate():
    assert schottky_group().kind == "convex_cocompact"
    assert cusped_group().kind == "with_cusps"
    assert unit_parabolic_group().kind == "with_cusps"
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
    list(g._level_arrays(3))
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


def test_orbit_count_against_brute_force():
    g = schottky_group()
    brute = brute_orbit_points(g, 4)
    fit = critical_exponent(g, 8.0, grid_step=2.0, min_points=0)
    assert list(fit.grid) == [2.0, 4.0, 6.0, 8.0]
    for radius, got in zip(fit.grid, fit.counts):
        # brute force is length-limited; radius 8 stays within length 4 words
        assert got == 1 + sum(1 for d in brute.values() if d <= radius)


def test_cyclic_fast_path_matches_brute_force():
    g = unit_parabolic_group()
    radii = (1.0, 3.0, 6.0, 9.0)
    want = []
    for radius in radii:
        n = 0
        while 2.0 * math.asinh(0.5 * (n + 1)) <= radius:
            n += 1
        want.append(1 + 2 * n)
        assert g.cyclic_count(radius) == 1 + 2 * n
    assert grid_counts(g, radii) == want
    # no enumeration happens on the fast path
    reset_word_counter()
    critical_exponent(g, 25.0)
    assert enumerated_word_count() == 0


def test_cyclic_hyperbolic_count():
    a = Isometry(2.0, 3.0, 1.0, 2.0)
    g = FuchsianGroup(
        [
            Generator("a", a, "hyperbolic", (1.0, 3.0)),
            Generator("A", a.inverse(), "hyperbolic", (-3.0, -1.0)),
        ],
        name="cyclic-a",
    )
    # displacement of a^n from the entry formula
    def disp(n):
        m = Isometry.identity()
        for _ in range(n):
            m = m @ a
        return g.displacement(m)

    radii = (3.0, 6.0, 12.0, 20.0)
    want = []
    for radius in radii:
        n = 0
        while disp(n + 1) <= radius:
            n += 1
        want.append(1 + 2 * n)
        assert g.cyclic_count(radius) == 1 + 2 * n
    assert grid_counts(g, radii) == want


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
    u, _ = tangent_from_samples(
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
        spec = WordSpec.random(g, seed=seed, depth=30)
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
    g = cusped_group()
    radial = sample_limit_point(g, WordSpec(period=("b", "p"), depth=30))
    parab = sample_limit_point(g, WordSpec(period=("p",), head=("b",), depth=10))
    u, cls = tangent_from_samples(g, radial, BoundaryPoint(5.0))
    assert cls == "radial"
    assert u.minus.value == pytest.approx(radial.point.value, abs=1e-9)
    _, cls = tangent_from_samples(g, parab, BoundaryPoint(5.0))
    assert cls == "parabolic"
    _, cls = tangent_from_samples(g, BoundaryPoint(5.0), radial.point)
    assert cls == "wandering"


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


def test_group_file_errors():
    with pytest.raises(GroupError):
        parse_group_text("label = a\nmatrix = 2 3 1 2\nkind = hyperbolic\n")
    with pytest.raises(GroupError):
        parse_group_text("label = a\nmatrix = 2 3 1\ndomain = 1 3\nkind = hyperbolic\n")
    with pytest.raises(GroupError):
        parse_group_text("just some words\n")


def test_resolve_builtin_names():
    assert resolve_group("builtin:schottky").name == "schottky"
    assert resolve_group("cusped").kind == "with_cusps"
    with pytest.raises(GroupError):
        resolve_group("builtin:nope")
