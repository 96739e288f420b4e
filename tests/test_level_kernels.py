"""The two level-by-level group kernels against their per-letter form.

_level_arrays builds each enumeration level in one pass (every child found
by one index pass, products formed in chunks of rows) and reduce_frames
moves only the frames still live, on a compact stack. The oracles below are
the versions they replaced: one gather, product and renormalization per
letter, then concatenation; and a reduction that gathers and scatters the
active rows of the full stack each round. Both rewrites do the same float
operations on the same operands in the same order, so every output must be
equal bit for bit. scalar_reduce is the reduction one frame at a time, with
the word it peels, which the group tests check against the group action.
"""

import numpy as np
import pytest

from horolab import groups
from horolab.defaults import cusped_group, resolve_group, schottky_group, unit_parabolic_group
from horolab.geometry import Isometry, UnitTangent, frame_point
from horolab.groups import _displacement_from_entries, enumerated_word_count, reset_word_counter

from conftest import conjugate, iwasawa


def letter_loop_levels(group, max_len, radius=None):
    """Per-letter breadth-first levels (mats, disp, last, parent), and the
    number of words materialized."""
    out = []
    nl = len(group.order)
    cap = None if radius is None else radius + groups._PRUNE_SLACK
    mats = group._mats.copy()
    disp = _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    last = np.arange(nl)
    parent = np.full(nl, -1)
    words = 1 + nl
    if cap is not None:
        keep = disp <= cap
        mats, disp, last, parent = mats[keep], disp[keep], last[keep], parent[keep]
    level = 1
    while (max_len is None or level <= max_len) and len(mats):
        out.append((mats, disp, last, parent))
        if level == max_len:
            break
        blocks = []
        for j in range(nl):
            ok = last != group._inv_index[j]
            if not ok.any():
                continue
            child = mats[ok] @ group._mats[j]
            det = child[:, 0, 0] * child[:, 1, 1] - child[:, 0, 1] * child[:, 1, 0]
            child /= np.sqrt(det)[:, None, None]
            blocks.append((child, np.full(ok.sum(), j), np.flatnonzero(ok)))
        if not blocks:
            break
        mats = np.concatenate([b[0] for b in blocks])
        last = np.concatenate([b[1] for b in blocks])
        parent = np.concatenate([b[2] for b in blocks])
        disp = _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
        words += len(mats)
        if cap is not None:
            keep = disp <= cap
            mats, disp, last, parent = mats[keep], disp[keep], last[keep], parent[keep]
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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_levels(group, max_len, radius=None):
    want, words = letter_loop_levels(group, max_len, radius)
    reset_word_counter()
    got = list(group._level_arrays(max_len, radius))
    assert enumerated_word_count() == words
    assert len(got) == len(want) > 0
    for level, (g, w) in enumerate(zip(got, want), 1):
        assert len(g) == 4
        for name, a, b in zip(("mats", "disp", "last", "parent"), g, w):
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
