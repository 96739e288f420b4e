"""The level-by-level group kernels against their per-letter form.

_walk forms each enumeration level with _pruned_children: letter
by letter, each block of at most _CHILD_CHUNK children is one
(2m x 2) @ (2 x 2) product of the gathered parent rows, seen as pairs of
entries, with the letter's matrix, pruned before the next block is formed.
reduce_frames moves only the frames still live, on a compact stack;
and settle_frames moves every live row of a round with one stacked product
against a gathered stack of leaving matrices. The oracles below are the
versions they replaced: one gather, stacked (m, 2, 2) product and
renormalization per letter, then concatenation; a reduction that gathers
and scatters the active rows of the full stack each round; and a settling
loop with a gather, a product and a scatter per letter. The rewrites do
the same float operations on the same operands in the same order, so every
output must be equal bit for bit. That rests on the BLAS rounding each
entry of a 2x2 product the same way in the stacked and the letter-block
layout, which test_letter_block_product_rounds_as_stacked_matmul checks
on its own. scalar_reduce is the reduction one frame at a time, with the
word it peels, which the group tests check against the group action.
"""

import math

import numpy as np
import pytest

from horolab import groups
from horolab.averages import _flowed, _leaf_frames
from horolab.defaults import (
    MIXING_TIMES,
    Loader,
    cusped_group,
    resolve_group,
    schottky_group,
    unit_parabolic_group,
)
from horolab.geometry import (
    INFINITY,
    BoundaryPoint,
    Isometry,
    UnitTangent,
    frame_point,
    from_coordinates,
    geodesic_flow,
    horocycle_flow,
)
from horolab.groups import (
    GroupError,
    _displacement_from_entries,
    enumerated_word_count,
    reset_word_counter,
)

from conftest import conjugate, iwasawa


def letter_loop_children(group, mats, last, letters, cap=None):
    """One level's reduced children by each of letters, per letter:
    (mats, disp, last) cut to cap, and the number of children formed."""
    blocks = [(np.empty((0, 2, 2)), np.empty(0, np.int64))]
    for j in letters:
        ok = last != j ^ 1  # order puts each letter's inverse at j ^ 1
        if not ok.any():
            continue
        child = mats[ok] @ group._mats[j]
        det = child[:, 0, 0] * child[:, 1, 1] - child[:, 0, 1] * child[:, 1, 0]
        child /= np.sqrt(det)[:, None, None]
        blocks.append((child, np.full(ok.sum(), j)))
    mats, last = (np.concatenate(v) for v in zip(*blocks))
    disp = _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    formed = len(mats)
    if cap is not None:
        keep = disp <= cap
        mats, disp, last = mats[keep], disp[keep], last[keep]
    return (mats, disp, last), formed


def letter_loop_levels(group, max_len, radius=None):
    """Per-letter breadth-first levels (mats, disp, last), and the number of
    words materialized."""
    out = []
    nl = len(group.order)
    cap = None if radius is None else radius + groups._PRUNE_SLACK
    mats = group._mats.copy()
    disp = _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    last = np.arange(nl)
    words = 1 + nl
    if cap is not None:
        keep = disp <= cap
        mats, disp, last = mats[keep], disp[keep], last[keep]
    level = 1
    while (max_len is None or level <= max_len) and len(mats):
        out.append((mats, disp, last))
        if level == max_len:
            break
        level_arrays, formed = letter_loop_children(group, mats, last, range(nl), cap)
        mats, disp, last = level_arrays
        words += formed
        level += 1
    return out, words


def scalar_reduce(group, u, max_steps=100000):
    """(frame, letters): u moved into the fundamental domain one letter or
    one whole parabolic shift power per step, and the peeled word, with
    frame = group.word_matrix(letters) @ u.frame."""
    frame = u.frame
    applied = []
    for _ in range(max_steps):
        z = UnitTangent(frame).base_point
        k = int(group.containing_letter(z.x, z.y))
        if k < 0:
            return frame, tuple(reversed(applied))
        label = group.order[k]
        g = group.letters[label]
        if g.kind == "parabolic":
            n, power = group.parabolic_jump(label, z.x, z.y)
            frame = Isometry(*power.ravel()) @ frame
            base = group._parabolic_charts[label].label
            applied.extend([base.swapcase() if n > 0 else base] * abs(int(n)))
        else:
            frame = g.matrix.inverse() @ frame
            applied.append(g.inverse_label)
    raise AssertionError("scalar reduction did not settle in %d steps" % max_steps)


def gather_scatter_reduce(group, frames, max_steps=4000):
    """reduce_frames as rounds over the active rows of the full stack."""
    frames = np.array(frames, dtype=float)
    active = np.arange(len(frames))
    for _ in range(max_steps):
        sub = frames[active]
        x, y = frame_point(sub[:, 0, 0], sub[:, 0, 1], sub[:, 1, 0], sub[:, 1, 1])
        hit = group.containing_letter(x, y)
        live = hit >= 0
        if not live.any():
            return frames
        for k, label in enumerate(group.order):
            pts = np.flatnonzero(hit == k)
            if not pts.size:
                continue
            g = group.letters[label]
            if g.kind == "parabolic":
                _, power = group.parabolic_jump(label, x[pts], y[pts])
                frames[active[pts]] = power @ frames[active[pts]]
            else:
                inv = np.array(g.matrix.inverse().entries()).reshape(2, 2)
                frames[active[pts]] = inv[None] @ frames[active[pts]]
        det = (
            frames[active, 0, 0] * frames[active, 1, 1]
            - frames[active, 0, 1] * frames[active, 1, 0]
        )
        frames[active] /= np.sqrt(det)[:, None, None]
        active = active[live]
    raise AssertionError("oracle reduction did not settle")


def letter_loop_settle(group, frames):
    """settle_frames with one gather, product and scatter per letter and
    round, and boolean masks to settle and compact the live stack."""
    settled = np.array(frames, dtype=float)
    moves = np.zeros(len(settled), dtype=np.int64)
    if not len(settled):
        return settled, moves
    active = np.arange(len(settled))
    sub = settled
    back = np.full(len(settled), -1, dtype=np.int16)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for n in range(groups._SETTLE_ROUNDS):
            x, y = frame_point(sub[:, 0, 0], sub[:, 0, 1], sub[:, 1, 0], sub[:, 1, 1])
            hit = group.containing_letter(x, y)
            live = (hit >= 0) & (hit != back)
            if not live.all():
                done = ~live
                if not np.all(np.isfinite(x[done]) & np.isfinite(y[done]) & (y[done] > 0)):
                    raise GroupError("oracle settling: a base point is not finite")
                settled[active[done]] = sub[done]
                moves[active[done]] = n
                if not live.any():
                    return settled, moves
                active, sub, x, y, hit = active[live], sub[live], x[live], y[live], hit[live]
            back = hit ^ np.int16(1)
            for k, label in enumerate(group.order):
                pts = np.flatnonzero(hit == k)
                if not pts.size:
                    continue
                if group.letters[label].kind == "parabolic":
                    _, power = group.parabolic_jump(label, x[pts], y[pts])
                    sub[pts] = power @ sub[pts]
                else:
                    sub[pts] = group._leave_mats[k][None] @ sub[pts]
            det = sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
            sub = sub / np.sqrt(det)[:, None, None]
    raise AssertionError("oracle settling did not settle")


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_levels(group, max_len, radius=None):
    want, words = letter_loop_levels(group, max_len, radius)
    reset_word_counter()
    got = list(group._walk(max_len, radius))
    assert enumerated_word_count() == words
    assert len(got) == len(want) > 0
    for level, (g, w) in enumerate(zip(got, want), 1):
        assert len(g) == 3
        for name, a, b in zip(("mats", "disp", "last"), g, w):
            assert same_bits(a, b), (level, name)
    return max(len(w[0]) for w in want)


ENUMERATIONS = [
    pytest.param(schottky_group, None, 14.0, id="schottky-radius"),
    pytest.param(schottky_group, 7, None, id="schottky-cap"),
    pytest.param(schottky_group, 6, 10.0, id="schottky-cap-and-radius"),
    pytest.param(cusped_group, None, 12.0, id="cusped-radius"),
    pytest.param(cusped_group, 8, None, id="cusped-cap"),
    pytest.param(cusped_group, 30, 12.0, id="cusped-cap-and-radius"),
    pytest.param(unit_parabolic_group, None, 16.0, id="unit-parabolic-radius"),
    pytest.param(unit_parabolic_group, 40, None, id="unit-parabolic-cap"),
]


@pytest.mark.parametrize("make, max_len, radius", ENUMERATIONS)
def test_levels_match_letter_loop(make, max_len, radius):
    assert_same_levels(make(), max_len, radius)


@pytest.mark.parametrize("make, max_len, radius", ENUMERATIONS[:6])
def test_levels_match_letter_loop_across_chunks(make, max_len, radius, monkeypatch):
    # tiny chunks put a chunk edge inside every level wider than 5 rows
    monkeypatch.setattr(groups, "_CHILD_CHUNK", 5)
    assert_same_levels(make(), max_len, radius)


def wide_stack(rng, n):
    """n matrices (n, 2, 2) with entries of either sign spread over e^-30 to
    e^30, about one in ten 0.0 and one in ten -0.0, and both in every stack."""
    s = rng.choice([-1.0, 1.0], (n, 2, 2)) * np.exp(rng.uniform(-30.0, 30.0, (n, 2, 2)))
    u = rng.uniform(size=(n, 2, 2))
    s[u < 0.1] = 0.0
    s[u > 0.9] = -0.0
    s[0, 0, 0], s[-1, 1, 1] = 0.0, -0.0
    return s


@pytest.mark.parametrize("make", [schottky_group, cusped_group, unit_parabolic_group])
def test_letter_block_product_rounds_as_stacked_matmul(make):
    # _pruned_children multiplies each letter's block by the letter's matrix
    # and _run_arrays by its nilpotent as one product of the rows seen as pairs
    # of entries; a BLAS that rounds that layout unlike the stacked one
    # fails here by name instead of in the level oracles
    g = make()
    cusp = np.array([g.letters[label].kind == "parabolic" for label in g.order])
    factors = list(g._mats) + list(g._nil[cusp])
    rng = np.random.default_rng(1616)
    for n in (1, 2, groups._CHILD_CHUNK - 1, groups._CHILD_CHUNK):
        s = wide_stack(rng, n)
        for k, mat in enumerate(factors):
            got = (s.reshape(-1, 2) @ mat).reshape(-1, 2, 2)
            assert same_bits(got, np.matmul(s, mat[None])), (n, k)
            assert same_bits(got, np.matmul(s, np.repeat(mat[None], n, axis=0))), (n, k)


@pytest.mark.parametrize("name", ["schottky", "cusped"])
@pytest.mark.parametrize("radius", [None, 9.0], ids=["unpruned", "pruned"])
def test_pruned_children_match_letter_loop(name, radius, monkeypatch):
    # blocks of 5 rows put a block edge inside every letter's parents; the
    # hyperbolic letters alone are the syllable walk's step on the cusped group
    monkeypatch.setattr(groups, "_CHILD_CHUNK", 5)
    g = resolve_group(name)
    cap = None if radius is None else radius + groups._PRUNE_SLACK
    mats, _, last = letter_loop_levels(g, 3, radius)[0][-1]
    hyperbolic = np.flatnonzero([g.letters[label].kind != "parabolic" for label in g.order])
    for letters in (np.arange(len(g.order)), hyperbolic, hyperbolic[:1], hyperbolic[:0]):
        want, formed = letter_loop_children(g, mats, last, letters, cap)
        reset_word_counter()
        got = g._pruned_children(mats, last, letters, cap)
        assert enumerated_word_count() == formed
        assert len(got) == 3
        for what, a, b in zip(("mats", "disp", "last"), got, want):
            assert same_bits(a, b), (list(letters), what)


def test_level_wider_than_one_chunk():
    # the radius of the benchmark's deep Schottky measure: 60,681 words wide
    widest = assert_same_levels(schottky_group(), 60, 28.0)
    assert widest > 2 * groups._CHILD_CHUNK


@pytest.mark.parametrize("seed", range(6))
def test_levels_match_letter_loop_on_conjugates(seed):
    name = ("schottky", "cusped")[seed % 2]
    group, _ = conjugate(resolve_group(name), np.random.default_rng(seed))
    assert_same_levels(group, None, 12.0 if name == "schottky" else 10.0)
    assert_same_levels(group, 6)


def word_moved_stack(group, rng, n, max_letters):
    frames = []
    for _ in range(n):
        frame = iwasawa(rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.8), rng.uniform(-3.0, 3.0))
        letters = group._random_reduced_letters(rng, int(rng.integers(0, max_letters + 1)))
        frames.append(np.array((group.word_matrix(letters) @ frame).entries()).reshape(2, 2))
    return np.array(frames)


def cusp_excursion_stack(group, rng, n):
    """Frames pushed down the parabolic corridor by long shift powers, half
    of them behind a hyperbolic letter."""
    parabolic = [l for l in group.order if group.letters[l].kind == "parabolic"]
    other = [l for l in group.order if group.letters[l].kind != "parabolic"]
    frames = []
    for _ in range(n):
        p = parabolic[int(rng.integers(len(parabolic)))]
        power = int(rng.integers(20, 2000))
        head = (other[int(rng.integers(len(other)))],) if rng.uniform() < 0.5 else ()
        letters = head + (p,) * power
        m = group.word_matrix(letters)
        frame = iwasawa(rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0))
        frames.append(np.array((m @ frame).entries()).reshape(2, 2))
    return np.array(frames)


@pytest.mark.parametrize("make", [schottky_group, cusped_group])
def test_reduce_frames_matches_gather_scatter(make):
    g = make()
    rng = np.random.default_rng(5551)
    frames = word_moved_stack(g, rng, 3000, 9)
    assert same_bits(g.reduce_frames(frames), gather_scatter_reduce(g, frames))
    # single rows and a stack already in the fundamental domain
    for k in range(5):
        one = frames[k : k + 1]
        assert same_bits(g.reduce_frames(one), gather_scatter_reduce(g, one))
    settled = g.reduce_frames(frames)
    assert same_bits(g.reduce_frames(settled), gather_scatter_reduce(g, settled))


def test_reduce_frames_matches_gather_scatter_on_cusp_excursions():
    g = cusped_group()
    rng = np.random.default_rng(7202)
    frames = cusp_excursion_stack(g, rng, 400)
    x, y = frame_point(frames[:, 0, 0], frames[:, 0, 1], frames[:, 1, 0], frames[:, 1, 1])
    assert np.median(y) < 1e-4  # deep in the corridor
    got = g.reduce_frames(frames)
    assert same_bits(got, gather_scatter_reduce(g, frames))
    x, y = frame_point(got[:, 0, 0], got[:, 0, 1], got[:, 1, 0], got[:, 1, 1])
    assert np.all(g.containing_letter(x, y) < 0)


@pytest.mark.parametrize("seed", range(4))
def test_reduce_frames_matches_gather_scatter_on_conjugates(seed):
    name = ("schottky", "cusped")[seed % 2]
    group, _ = conjugate(resolve_group(name), np.random.default_rng(seed))
    frames = word_moved_stack(group, np.random.default_rng(100 + seed), 800, 7)
    assert same_bits(group.reduce_frames(frames), gather_scatter_reduce(group, frames))


def test_reduce_frames_keeps_input_and_empty_stack():
    g = cusped_group()
    frames = word_moved_stack(g, np.random.default_rng(3), 50, 5)
    before = frames.copy()
    g.reduce_frames(frames)
    assert same_bits(frames, before)
    assert g.reduce_frames(np.zeros((0, 2, 2))).shape == (0, 2, 2)
    assert np.all(np.isfinite(g.reduce_frames(frames)))


def assert_same_settle(group, frames):
    settled, moves = group.settle_frames(frames)
    want_settled, want_moves = letter_loop_settle(group, frames)
    assert same_bits(settled, want_settled)
    assert same_bits(moves, want_moves)
    return moves


@pytest.mark.parametrize("name", ["schottky", "cusped"])
def test_settle_frames_matches_letter_loop_on_leaves(name):
    g = resolve_group(name)
    rng = np.random.default_rng(9090)
    u, _ = Loader(name).vector()
    # the ball averages' leaf frames at random leaf parameters
    s = rng.choice([-1.0, 1.0], 2000) * np.exp(rng.uniform(-3.0, 9.0, 2000))
    leaf = _leaf_frames(u, s)
    moves = assert_same_settle(g, leaf)
    assert moves.max() >= 4
    # the mixing and flow-commutation stacks: leaf frames flowed both ways
    for t in MIXING_TIMES[1::3] + (-0.5, -2.5):
        assert_same_settle(g, _flowed(leaf, t))
    # the arc-length Simpson grid out to radius e^6 and its first halving
    for n in (1025, 2049):
        assert_same_settle(g, _leaf_frames(u, np.linspace(-math.exp(6.0), math.exp(6.0), n)))


def test_settle_frames_matches_letter_loop_on_cusp_excursions():
    g = cusped_group()
    frames = cusp_excursion_stack(g, np.random.default_rng(7203), 400)
    _, y = frame_point(frames[:, 0, 0], frames[:, 0, 1], frames[:, 1, 0], frames[:, 1, 1])
    assert np.median(y) < 1e-4  # deep in the corridor
    # whole shift powers take each excursion out in one round or two
    assert set(assert_same_settle(g, frames)) == {1, 2}


def test_settle_frames_matches_letter_loop_on_paired_circles():
    # the frames that ping-ponged between a parabolic letter's circles
    g = cusped_group()
    u = from_coordinates(BoundaryPoint(0.0), INFINITY, 0.0)
    frames = np.array([
        np.reshape(geodesic_flow(horocycle_flow(u, s), float(t)).frame.entries(), (2, 2))
        for t in range(1, 6)
        for s in (2.0, -2.0)
    ])
    assert_same_settle(g, frames)


def test_settle_frames_matches_letter_loop_on_empty_and_non_finite_stacks():
    g = cusped_group()
    assert_same_settle(g, np.zeros((0, 2, 2)))
    frame = np.array(UnitTangent(iwasawa(0.3, 0.2, 0.4)).frame.entries()).reshape(1, 2, 2)
    stack = np.concatenate([frame, np.full((1, 2, 2), np.nan), frame])
    with pytest.raises(GroupError, match="not finite"):
        g.settle_frames(stack)
    with pytest.raises(GroupError, match="not finite"):
        letter_loop_settle(g, stack)
