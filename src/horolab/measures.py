"""Atomic boundary measures of Patterson type: construction, conformality
diagnostics, horocycle conditionals, and quadrature estimators.

Busemann convention used throughout: beta_xi(p, q) is the limit of
d(p, z) - d(q, z) as z -> xi, matching geometry.busemann. Conditional
densities then read exp(s beta_xi(o, x)) and gain the factor exp(s t) when
the leaf is pushed distance t toward the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    GeometryError,
    Isometry,
    UnitTangent,
    frame_angle,
    frame_point,
    isometry_distance,
    mobius_apply,
)
from .groups import FuchsianGroup

__all__ = [
    "MeasureError",
    "PattersonConfig",
    "AtomicBoundaryMeasure",
    "ConditionalHorocycleMeasure",
    "build_patterson",
    "conformality_defect",
    "conditional_on_horocycle",
    "ps_integral",
    "quadrature_report",
    "br_integral",
]


class MeasureError(ValueError):
    """Degenerate measure data: too few atoms, empty quadrature, zero mass."""


@dataclass(frozen=True)
class PattersonConfig:
    """Construction parameters: weight exponent, word-length cutoff, and an
    optional displacement prune so cusp corridors do not blow the word budget.

    The base point is i throughout.
    """

    exponent: float
    cutoff: int = 14
    radius: float | None = None

    def __post_init__(self):
        if not (self.exponent > 0 and math.isfinite(self.exponent)):
            raise MeasureError("exponent must be positive, got %r" % (self.exponent,))
        if self.cutoff < 4:
            raise MeasureError("cutoff below 4 leaves too coarse an orbit sample")


def _log_normalize(logw: np.ndarray) -> np.ndarray:
    m = float(np.max(logw))
    return logw - (m + math.log(float(np.sum(np.exp(logw - m)))))


def _busemann_at_origin(xi: np.ndarray, qx, qy):
    """beta_xi(o, q) for o = i, vectorized over finite xi."""
    return np.log(qy) + np.log(xi * xi + 1.0) - np.log((xi - qx) ** 2 + qy * qy)


@dataclass
class AtomicBoundaryMeasure:
    """Finitely many boundary atoms with unit total mass, log-space weights.

    Atoms are ray projections of orbit points of the base point; points are
    kept sorted so matching and interval masses are binary searches. The
    construction is deterministic: a fixed enumeration order and fixed
    accumulation order give bitwise-identical arrays on repeated runs.
    """

    group: FuchsianGroup
    cutoff: int
    radius: float | None
    points: np.ndarray
    log_weights: np.ndarray
    displacements: np.ndarray
    lengths: np.ndarray
    # pair fields and each integrand's estimate on them, see quadrature_report
    _pair_cache: dict = field(default_factory=dict, repr=False)
    # the leaf of averages.average_ps's latest (vector, exponent), or None
    _leaf: object = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def heaviest(self, k: int) -> np.ndarray:
        """Indices of the k heaviest atoms (all of them when k exceeds their
        number), deterministic under ties; k must be at least one."""
        if not k >= 1:
            raise MeasureError("need at least one heaviest atom, got k=%r" % (k,))
        order = np.argsort(-self.log_weights, kind="stable")
        return np.sort(order[: min(k, len(order))])


def build_patterson(group: FuchsianGroup, cfg: PattersonConfig) -> AtomicBoundaryMeasure:
    """Orbital-sum approximation of the conformal boundary measure.

    Atom for the word w: forward endpoint of the ray o -> w(o); log-weight
    -s d(o, w(o)). The identity has no ray and is excluded. Weights are
    normalized to unit total mass. Every atom lands inside a generator
    interval by the ping-pong nesting, which is asserted.
    """
    # each level as it arrives: its atoms' endpoints, displacements and length
    parts = [(np.empty(0), np.empty(0), np.empty(0, dtype=int))]
    for level, (m, d, _) in enumerate(group._walk(cfg.cutoff, cfg.radius), 1):
        if cfg.radius is not None:
            keep = d <= cfg.radius
            m, d = m[keep], d[keep]
        x, y = frame_point(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])
        ok = np.abs(x) > 1e-300  # a dead-vertical ray has no finite endpoint
        x, y, d = x[ok], y[ok], d[ok]
        c = (x * x + y * y - 1.0) / (2.0 * x)
        parts.append((c + np.sign(x) * np.sqrt(c * c + 1.0), d, np.full(len(d), level)))
    xi, d, ln = (np.concatenate(v) for v in zip(*parts))
    del parts
    if len(xi) < 100:
        raise MeasureError(
            "only %d atoms survive cutoff %d radius %s; need at least 100"
            % (len(xi), cfg.cutoff, cfg.radius)
        )
    logw = -cfg.exponent * d
    order = np.argsort(xi, kind="stable")
    xi, logw, d, ln = xi[order], logw[order], d[order], ln[order]
    logw = _log_normalize(logw)
    inside = np.zeros(len(xi), dtype=bool)
    for lo, hi in group.hull_intervals():
        inside |= (xi >= lo - 1e-12) & (xi <= hi + 1e-12)
    if not inside.all():
        raise MeasureError("atoms escaped the limit-set hull: %s" % (xi[~inside][:3],))
    return AtomicBoundaryMeasure(
        group=group,
        cutoff=cfg.cutoff,
        radius=cfg.radius,
        points=xi,
        log_weights=logw,
        displacements=d,
        lengths=ln,
    )


# atom matching tolerance of conformality_defect (see its docstring)
_MATCH_TOL = 1e-5


def conformality_defect(measure: AtomicBoundaryMeasure, gamma, hat_delta: float) -> float:
    """Median deviation of matched atom pairs from the conformal scaling law.

    gamma is a group word given by its letters, such as "a" or ("a", "b").
    For atoms xi whose image gamma(xi) lands within _MATCH_TOL of another
    atom eta, the defect is |log(w(eta)/w(xi)) - s beta_xi(o, gamma^-1 o)|.
    Matching is nearest-atom at the documented tolerance 1e-5, chosen
    between two scales: the image of an atom with a genuine combinatorial
    continuation in the truncated orbit lands exponentially close to it
    (e^-2d for depth d), while unrelated atoms sit at the mean spacing,
    around 1e-3 for the shipped groups. Source atoms are restricted to
    those whose continuation is guaranteed inside the truncation; without
    that restriction a deep atom would match the truncated prefix of its
    continuation, which carries an O(1) wrong weight. Only those source
    atoms, and of them the ones with a finite image, are searched for a
    match, in atom order. A word whose matrix product loses its determinant
    to rounding raises MeasureError.
    """
    try:
        m, glen = measure.group.word_matrix(gamma), len(gamma)
    except GeometryError:
        raise MeasureError(
            "the matrix of word %r lost its determinant to rounding" % (gamma,)
        ) from None
    if isometry_distance(m, Isometry.identity()) < 1e-14:
        return 0.0
    a, b, c, d = m.entries()
    if measure.radius is not None:
        src = measure.displacements <= measure.radius - measure.group.displacement(m)
    else:
        src = measure.lengths + glen <= measure.cutoff
    xi = measure.points
    source = np.flatnonzero(src)
    den = c * xi[source] + d
    finite = np.abs(den) > 1e-12
    source = source[finite]
    eta = (a * xi[source] + b) / den[finite]
    j = np.searchsorted(xi, eta)
    cand = np.stack([np.clip(j - 1, 0, len(xi) - 1), np.clip(j, 0, len(xi) - 1)])
    pick = cand[np.argmin(np.abs(xi[cand] - eta), axis=0), np.arange(len(eta))]
    near = np.abs(xi[pick] - eta) <= _MATCH_TOL
    matched, pick = source[near], pick[near]
    if not len(matched):
        raise MeasureError("no atom pairs matched under %r" % (gamma,))
    q = mobius_apply(m.inverse(), UnitTangent.identity().base_point)
    beta = _busemann_at_origin(xi[matched], q.x, q.y)
    ratio = measure.log_weights[pick] - measure.log_weights[matched]
    return float(np.median(np.abs(ratio - hat_delta * beta)))


@dataclass
class ConditionalHorocycleMeasure:
    """Measure on a strong-unstable leaf in the flow-time parameter.

    The atom at parameter s stands for the vector h^s(u); weights stay in
    log space since the density blows up toward the backward endpoint.
    """

    params: np.ndarray
    log_weights: np.ndarray

    def __len__(self) -> int:
        return len(self.params)

    def horoball_mass(self, r: float) -> float:
        """Mass of the leaf ball {h^s u : |s| < r}; nondecreasing in r."""
        if not r > 0:
            raise MeasureError("ball radius must be positive")
        sel = np.abs(self.params) < r
        if not sel.any():
            return 0.0
        return float(np.sum(np.exp(self.log_weights[sel])))


def conditional_on_horocycle(
    u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float
) -> ConditionalHorocycleMeasure:
    """Disintegrate the boundary measure over the expanding leaf of u.

    Every atom xi other than the backward endpoint of u is the forward
    endpoint of exactly one leaf vector h^s u; the parameter is the
    reciprocal of the frame pullback of xi, and the weight picks up
    exp(s beta_xi(o, base of h^s u)). Atoms at the backward endpoint are
    skipped. Pushing by the geodesic flow reweights atoms exactly: g^-t
    turns (s, lam) into (s e^-t, lam - s t), atom by atom.
    """
    ai, bi, ci, di = u.frame.inverse().entries()
    xi = measure.points
    num = ai * xi + bi
    den = ci * xi + di
    keep = np.abs(num) > 1e-13 * (np.abs(den) + 1.0)
    xi, num, den = xi[keep], num[keep], den[keep]
    s = den / num
    a, b, c, d = u.frame.entries()
    px, py = frame_point(a + b * s, b, c + d * s, d)
    lam = measure.log_weights[keep] + hat_delta * _busemann_at_origin(xi, px, py)
    order = np.argsort(s, kind="stable")
    return ConditionalHorocycleMeasure(params=s[order], log_weights=lam[order])


# ------------------------------------------------------------- quadratures

# Both quadratures sample one curve per grid row, keep the samples in the
# fundamental domain, the outside of disjoint half-disks, and evaluate an
# integrand only inside its support disk. Where a curve is in the domain,
# and where in the disk, follows in closed form from where it crosses their
# circles, so frames are formed only where the result reads them, by one
# rule: take a row's window from the closed form, padded by _PAD cells
# beyond every crossing; test the cells at its ends; and redo the row whole
# where a test disagrees with the closed form. A domain window
# (_domain_runs) tests the cells within _BAND of each crossing, which reach
# one cell beyond its padding, and puts the cells between crossings on the
# side the closed form gives; a support window (_support_windows) tests the
# cell just beyond each end.
_PAD = 2
_BAND = _PAD + 1
# two atoms in one interval span a geodesic inside its half-disk; the pair
# is skipped only when both sit deeper than this times the squared radius
_EDGE = 1e-9
# rows handled at once, which bounds the transient arrays: atom pairs per
# chunk of the pair field's build, and (leaf coordinate, atom) rows per
# block of whole leaf coordinates of the box quadrature
_CHUNK = 2048
# cells of the leaves of _pairwise_total, which np.sum sums itself
_LEAF = 2**17
# cells whose frames are formed at once; pieces this small keep their
# temporaries in memory the allocator reuses (whole leaves of the pair field
# at once took 36,000 page faults over the default Schottky integrands,
# against 4,400)
_PIECE = 2**14

# the pair quadrature's uniform leaf-coordinate grid (321 points) and its
# heaviest atoms
_PAIR_GRID = np.arange(-8.0, 8.0 + 1e-9, 0.05)
_PAIR_GRID.setflags(write=False)
_PAIR_ATOMS = 220
# the box quadrature's uniform transversal grid (81 points), its arc grid of
# cells _ARC_STEP wide over [-_ARC_SPAN, _ARC_SPAN], its reference window
# |sigma| <= _WINDOW_SPAN, and its heaviest atoms
_BOX_GRID = np.arange(-4.0, 4.0 + 1e-9, 0.1)
_BOX_GRID.setflags(write=False)
_ARC_SPAN = 30.0
_ARC_STEP = 0.05
_WINDOW_SPAN = 5.0
_BOX_ATOMS = 200


def _evaluate(psi, x, y, theta):
    """Test-function values at already-reduced phase points."""
    return np.asarray(psi.evaluate_points(x, y, theta), dtype=float)


def _grid_window(grid, lo, hi):
    """Padded cell ranges [first, stop) of the sorted grid covering [lo, hi]
    per row; the whole grid where either end is NaN."""
    n = len(grid)
    first = np.clip(np.searchsorted(grid, lo) - _PAD, 0, n)
    stop = np.clip(np.searchsorted(grid, hi, side="right") + _PAD, 0, n)
    lost = np.isnan(lo) | np.isnan(hi)
    return np.where(lost, 0, first), np.where(lost, n, stop)


def _cells(first, stop):
    """(index, col) of the cells first <= col < stop of each of the ranges
    (first, stop), in order; index is the cell's range."""
    n = np.maximum(stop - first, 0)
    end = np.cumsum(n)
    idx = np.repeat(np.arange(len(n)), n)
    return idx, np.arange(len(idx)) - np.repeat(end - n - first, n)


def _test_cells(points, test, row, col):
    """test(x, y) at the base points (x, y) = points(row, col)[:2] of cells,
    one boolean per cell, formed _PIECE cells at a time."""
    out = np.empty(len(row), dtype=bool)
    for a in range(0, len(row), _PIECE):
        out[a:a + _PIECE] = test(*points(row[a:a + _PIECE], col[a:a + _PIECE])[:2])
    return out


def _domain_runs(segments, lost, span, width, inside):
    """The in-domain cells of each row in its span, as runs (row, first,
    stop) of consecutive columns, in row-major order.

    segments = (first, stop), 2-D, holds the closed form's domain segments
    of each row on a grid of width cells: ordered, touching at most, each
    padded by _PAD cells beyond its crossings, empty ones allowed. span =
    (lo, hi) gives the columns [lo, hi) of each row (or of every row) that
    are read, lost marks the rows whose closed form is not a number, and
    inside(row, col) is the half-disk test of cells.

    Of each segment that meets its row's span, the cells within _BAND of
    the crossing at either end are tested, even outside the span: its
    padding, the cell beyond it and _BAND cells past the crossing. The
    closed form puts the untested cells of a segment, its middle, in the
    domain and every other untested cell out of it. A row is trusted where
    each stretch of tested cells agrees at both ends with the closed form on
    the untested cell next to it; a neighbour in a segment that misses the
    span is not read, and not compared. The curve changes sides only where
    it crosses a circle. A crossing among the tested cells is found by the
    test; one outside them leaves the tested cells at that end all on one
    side, the outermost in the domain next to a cell put out of it, or the
    innermost out of it next to the middle, and the row disagrees. So a
    trusted row keeps exactly its in-domain cells: the tested ones that are
    in, and its middles. Every other row, and a lost one, is tested whole
    over its span.
    """
    first, stop = segments
    rows, k = first.shape
    lo, hi = (np.broadcast_to(v, rows)[:, None] for v in span)
    meets = (first < stop) & (first < hi) & (stop > lo) & ~lost[:, None]
    # the cells tested at each end of a segment that meets the span, those
    # within _BAND of the crossing _PAD cells in from the end, each once
    # where ends touch; the cells between are its middle [m0, m1)
    m0 = np.minimum(first + (_PAD + _BAND + 1), stop)
    m1 = np.maximum(stop - (_PAD + _BAND + 1), m0)
    a = np.stack([np.maximum(first + (_PAD - _BAND), 0), m1], axis=2)
    z = np.stack([m0, np.minimum(stop + (_BAND - _PAD), width)], axis=2)
    a = np.where(meets[..., None], a, 0).reshape(rows, 2 * k)
    z = np.where(meets[..., None], z, 0).reshape(rows, 2 * k)
    a[:, 1:] = np.maximum(a[:, 1:], np.maximum.accumulate(z, axis=1)[:, :-1])
    row, col = _cells(a.ravel(), z.ravel())
    row //= 2 * k
    ok = inside(row, col)
    # the untested neighbours in the grid of each stretch of tested cells,
    # and whether the closed form puts each in the domain
    nxt = np.append((row[1:] == row[:-1]) & (col[1:] == col[:-1] + 1), False)
    prv = np.append(False, nxt[:-1])
    left = ~prv & (col > 0)
    right = ~nxt & (col < width - 1)
    r = np.concatenate([row[left], row[right]])
    c = np.concatenate([col[left] - 1, col[right] + 1])[:, None]
    within = (first[r] <= c) & (c < stop[r])
    read = ~(within & ~meets[r]).any(axis=1)
    redo = lost.copy()
    redo[r[read & (within.any(axis=1) != np.concatenate([ok[left], ok[right]]))]] = True
    lo, hi = lo[:, 0], hi[:, 0]
    keep = ok & ~redo[row] & (col >= lo[row]) & (col < hi[row])
    mid0 = np.maximum(m0, lo[:, None])
    mid1 = np.minimum(m1, hi[:, None])
    mid = meets & (mid0 < mid1) & ~redo[:, None]
    parts = [_joined(row[keep], col[keep], col[keep] + 1), (np.nonzero(mid)[0], mid0[mid], mid1[mid])]
    again = np.flatnonzero(redo)
    if len(again):
        row, col = _cells(lo[again], hi[again])
        row = again[row]
        ok = inside(row, col)
        parts.append(_joined(row[ok], col[ok], col[ok] + 1))
    row, c0, c1 = (np.concatenate(v) for v in zip(*parts))
    order = np.argsort(row * (width + 1) + c0, kind="stable")
    return _joined(row[order], c0[order], c1[order])


def _joined(row, first, stop):
    """The ranges [first, stop) of rows, in row-major order, joined where one
    ends as the next starts in the same row."""
    joined = (row[1:] == row[:-1]) & (first[1:] == stop[:-1])
    head = np.append(True, ~joined)[:len(row)]
    return row[head], first[head], stop[np.append(~joined, True)[:len(row)]]


def _support_windows(window, row_span, disk, points):
    """The cells [first, stop) of each row that an integrand of support
    disk (x0, y0, reach) is evaluated on.

    window = (first, stop) holds each row's closed-form support window,
    padded by _PAD cells a side, and row_span = (start, end) the cells of
    each row (or of every row); points(row, col) gives cells' base points
    (x, y) first. The window is clipped to its row, and the cell just
    beyond each end of it, where the row has one, is tested against the
    disk; a row where one is inside the disk, or is not a number, is taken
    whole. The curve is inside the disk on one interval, the closed form's
    up to rounding, which the padding covers; a tested cell inside shows
    the window cut short. So every cell left out is outside the disk, where
    the integrand is zero.
    """
    start, end = (np.broadcast_to(v, len(window[0])) for v in row_span)
    first = np.clip(window[0], start, end)
    stop = np.clip(window[1], first, end)
    idx = np.arange(len(first))
    row = np.concatenate([idx[first > start], idx[stop < end]])
    x0, y0, reach = disk
    col = np.concatenate([first[first > start] - 1, stop[stop < end]])
    out = row[_test_cells(points, lambda x, y: ~((x - x0) ** 2 + (y - y0) ** 2 >= reach * y), row, col)]
    first[out] = start[out]
    stop[out] = end[out]
    return first, stop


def _pair_window(group, xm, xp, beta0):
    """Leaf coordinates (lo, hi) between which the geodesic from xm to xp
    lies outside every half-disk; beta0 is the coordinate of its raw frame.

    Pulled back by that frame, half-disk k meets the leaf i E at
    E^2 = -a(xm) / a(xp), a(x) = (x - c_k)^2 - r_k^2: the leaf is inside it
    below the crossing when xm is in interval k, above it when xp is, and
    everywhere when both are (lo = +inf, hi = -inf). A NaN end asks for
    the full grid.
    """
    lo = np.full(len(xm), -np.inf)
    hi = np.full(len(xm), np.inf)
    for ctr, rad in zip(group._centers, group._radii):
        r2 = rad * rad
        am = (xm - ctr) ** 2 - r2
        ap = (xp - ctr) ** 2 - r2
        with np.errstate(divide="ignore", invalid="ignore"):
            tk = beta0 + 0.5 * np.log(-am / ap)
        inm, inp = am < 0.0, ap < 0.0
        lo = np.maximum(lo, np.where(inm & ~inp, tk, -np.inf))
        hi = np.minimum(hi, np.where(inp & ~inm, tk, np.inf))
        both = inm & inp
        deep = np.maximum(am, ap) < -_EDGE * r2
        lo = np.where(both, np.where(deep, np.inf, np.nan), lo)
        hi = np.where(both & deep, -np.inf, hi)
    return lo, hi


@dataclass(frozen=True)
class _PairRuns:
    """Fundamental-domain cells of the pair field, kept as what rebuilds
    them rather than as their coordinates.

    The cells are in row-major (pair, grid) order and make runs, each of
    consecutive _PAIR_GRID columns of one pair; in the default field every
    pair with cells has one run. Per run the table keeps its pair's seeds
    (a0, b0, c0, d0, beta0), the entries of the pair's frame (det one,
    sending (0, inf) to the pair) and that frame's leaf coordinate; its
    pair's weight; its shift, the column of each of its cells less the
    cell's index in the field; and the end of its cells, the cumulative cell
    count. _run_points rebuilds cells' (x, y, theta) with the arithmetic
    the build tested them with, so with the same bits.
    """

    seeds: tuple
    weight: np.ndarray
    shift: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return int(self.ends[-1])

    def weights(self, lo: int, hi: int) -> np.ndarray:
        """The weight of each of the cells [lo, hi), its pair's weight; only
        the runs with cells in [lo, hi) are read."""
        r0 = np.searchsorted(self.ends, lo, side="right")
        r1 = np.searchsorted(self.ends, hi) + 1
        return np.repeat(self.weight[r0:r1], np.diff(np.clip(self.ends[r0:r1], lo, hi), prepend=lo))


def _pair_frames(seeds, col):
    """(x, y, c, d) of cells: the frame of a pair of seeds (a0, b0, c0, d0,
    beta0), one per cell, flowed to the leaf coordinate of the cell's
    _PAIR_GRID column col; (x, y) is its base point and (c, d) its second
    row."""
    a0, b0, c0, d0, beta0 = seeds
    e = np.exp(0.5 * (_PAIR_GRID[col] - beta0))
    c = c0 * e
    d = d0 / e
    x, y = frame_point(a0 * e, b0 / e, c, d)
    return x, y, c, d


def _run_points(table, runs, first, stop):
    """(cell, x, y, theta, weight) of the cells first <= cell < stop of the
    table's runs, a slice, in order."""
    k = stop - first
    cell = np.arange(np.sum(k)) + np.repeat(first - (np.cumsum(k) - k), k)
    seeds = [np.repeat(v[runs], k) for v in table.seeds]
    x, y, c, d = _pair_frames(seeds, cell + np.repeat(table.shift[runs], k))
    return cell, x, y, frame_angle(c, d), np.repeat(table.weight[runs], k)


def _pairwise_total(n, f) -> float:
    """np.sum of the values of the cells [0, n), bit for bit, with no array
    of them all: f(lo, hi) gives the values of the cells [lo, hi).

    The range is split as numpy's pairwise summation splits one array,
    n2 = n // 2 less n2 % 8, down to leaves of at most _LEAF cells; f is
    called once per leaf, in order, and each leaf is summed by np.sum
    before f is called for the next, so f may return one buffer each time.
    """
    return float(_pairwise_tree(0, n, f))


def _pairwise_tree(lo, n, f):
    """np.sum of f over the leaves of numpy's pairwise split of the n cells
    from lo, added up the tree. A module function, not a closure calling
    itself, which would keep what f reads alive in a cycle."""
    if n <= _LEAF:
        return np.sum(f(lo, lo + n))
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise_tree(lo, n2, f) + _pairwise_tree(lo + n2, n - n2, f)


def _pair_chunk(group, xm, xp, w):
    """The runs of the atom pairs from xm to xp, of weights w, on _PAIR_GRID:
    (a0, b0, c0, d0, beta0, weight, first, stop) per run, the seeds and
    weight of its pair and its columns [first, stop).

    A pair's cells are the in-domain cells of its row of the grid
    (_domain_runs), which takes the pair's window from the closed form of
    _pair_window.
    """
    # interval pairing matrix sending (0, inf) to (xm, xp), det one
    swap = xp <= xm
    a0 = xp
    b0 = np.where(swap, -xm, xm)
    c0 = np.ones_like(xp)
    d0 = np.where(swap, -1.0, 1.0)
    rs = 1.0 / np.sqrt(a0 * d0 - b0 * c0)
    a0, b0, c0, d0 = a0 * rs, b0 * rs, c0 * rs, d0 * rs
    bx, by = frame_point(a0, b0, c0, d0)
    # leaf coordinate of the raw frame; flow so it matches the grid
    beta0 = -_busemann_at_origin(xm, bx, by)
    seeds = a0, b0, c0, d0, beta0
    lo, hi = _pair_window(group, xm, xp, beta0)
    first, stop = _grid_window(_PAIR_GRID, lo, hi)
    width = len(_PAIR_GRID)

    def points(row, col):
        return _pair_frames([v[row] for v in seeds], col)

    pair, first, stop = _domain_runs(
        (first[:, None], stop[:, None]), np.isnan(lo) | np.isnan(hi), (0, width), width,
        lambda row, col: _test_cells(points, lambda x, y: group.containing_letter(x, y) < 0, row, col),
    )
    return *(v[pair] for v in seeds), w[pair], first, stop


def _pair_field(measure, hat_delta):
    """Fundamental-domain samples of the geodesic-pair quadrature.

    Returns (table, den, estimates). The field is built _CHUNK atom pairs at
    a time, which bounds the build's temporaries, and the runs of all chunks
    are joined once into the _PairRuns table. It keeps what rebuilds the
    cells, not their coordinates, which quadrature_report rebuilds where an
    integrand reads them: the default Schottky field of 1,929,601 cells in
    35,516 runs keeps 2.2 MiB, against 44.9 MiB for its (x, y, theta).
    A cell's weight is its pair's: both atom masses, the boundary-separation
    kernel and the grid cell width. den is the sum of all cell weights, the
    normalizer, summed as np.sum sums them (_pairwise_total).
    All three are cached on the measure, keyed by the exponent alone, since
    the grid _PAIR_GRID and the atom count _PAIR_ATOMS are fixed: the field
    is integrand-independent, so several test functions share one geometry
    pass, and estimates is the dict in which quadrature_report keeps what
    each integrand gave on this field.
    """
    key = float(hat_delta)
    hit = measure._pair_cache.get(key)
    if hit is not None:
        return hit
    dt = float(_PAIR_GRID[1] - _PAIR_GRID[0])
    idx = measure.heaviest(_PAIR_ATOMS)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    ii, jj = np.nonzero(np.abs(xi[:, None] - xi[None, :]) > 1e-12)
    # chordal-gap kernel for densities normalized at the origin i: the
    # Liouville case (exponent one, Poisson weights) must reduce to
    # dxi deta / (xi - eta)^2, which forces the (xi^2+1) factors.
    logw = (
        lw[ii]
        + lw[jj]
        - 2.0 * hat_delta * np.log(np.abs(xi[ii] - xi[jj]))
        + hat_delta * (np.log1p(xi[ii] ** 2) + np.log1p(xi[jj] ** 2))
    )
    logw -= np.max(logw)  # common scale cancels in the normalized integral
    chunks = []
    for lo in range(0, len(ii), _CHUNK):
        sl = slice(lo, lo + _CHUNK)
        chunks.append(_pair_chunk(measure.group, xi[ii[sl]], xi[jj[sl]], np.exp(logw[sl]) * dt))
    *seeds, weight, first, stop = (np.concatenate(v) for v in zip(*chunks))
    del chunks
    if not len(weight):
        raise MeasureError("pair quadrature found no fundamental-domain samples")
    ends = np.cumsum(stop - first)
    table = _PairRuns(tuple(seeds), weight, stop - ends, ends)
    den = _pairwise_total(len(table), table.weights)
    if not 0.0 < den < math.inf:
        raise MeasureError("pair quadrature normalizer is %r, not a positive number" % den)
    out = table, den, {}
    measure._pair_cache[key] = out
    return out


def ps_integral(psi, measure: AtomicBoundaryMeasure, hat_delta: float) -> float:
    """Normalized integral against the product-form invariant measure.

    Double sum over pairs of the _PAIR_ATOMS heaviest atoms with the kernel
    |xi- - xi+|^(-2s), times the uniform leaf-coordinate grid _PAIR_GRID,
    keeping only samples that lie in the fundamental domain (reduce word the
    identity); the same sum with the constant one divides out, so a constant
    integrates to itself exactly. This is the estimate of quadrature_report,
    which caches it on the measure.
    """
    return quadrature_report(psi, measure, hat_delta)[0]


def quadrature_report(psi, measure: AtomicBoundaryMeasure, hat_delta: float) -> tuple[float, int, float]:
    """ps_integral together with its quadrature size: (estimate, cells, step).

    The measure keeps, per exponent, the pair field and the report of every
    integrand asked for on it, so each integrand is evaluated once per
    field, on one piece of it at a time, and its products with the cell
    weights are summed as np.sum sums them (_pairwise_total).
    Integrands are keyed by identity, not by value: the cache holds each
    one, so its id cannot be reused while its entry lasts, and an equal but
    distinct integrand is evaluated afresh.
    An integrand must therefore not change once it has been integrated.

    Cell coordinates are rebuilt only where the result reads them: a
    ConstantFunction is summed as its value times the weights, and any
    other integrand is evaluated on the cells of each run that
    _support_runs finds near its support, every cell when it names none.
    Its value is zero on every other cell, so each product has the bits of
    the dense pass over the whole field. An integrand whose group has other
    half-disks than the measure's raises MeasureError.
    """
    disk = _check_domain(psi, measure)
    table, den, estimates = _pair_field(measure, hat_delta)
    hit = estimates.get(id(psi))
    if hit is not None:
        return hit[1]
    from .averages import ConstantFunction  # here, since averages imports this module

    if isinstance(psi, ConstantFunction):
        def values(lo, hi):
            return table.weights(lo, hi) * psi.value
    else:
        first, stop = _support_runs(table, disk)
        # one leaf's products, refilled for each leaf: fresh leaf and weight
        # arrays per leaf took five times the page faults of the default
        # Schottky bumps and made their passes about 15% slower
        leaf = np.empty(min(_LEAF, len(table)))

        def values(lo, hi):
            # the runs r0, r0 + 1, ... with cells in [lo, hi), those of their
            # cells to rebuild, and groups of runs of about _PIECE such cells;
            # every other cell's product is zero, as a cell's weight is finite
            r0 = np.searchsorted(table.ends, lo, side="right")
            r1 = np.searchsorted(table.ends, hi) + 1
            a = np.clip(first[r0:r1], lo, hi)
            z = np.clip(stop[r0:r1], lo, hi)
            total = np.cumsum(z - a)
            cuts = [0, *np.searchsorted(total, np.arange(_PIECE, total[-1], _PIECE)), len(total)]
            out = leaf[:hi - lo]
            out.fill(0.0)
            for g0, g1 in zip(cuts[:-1], cuts[1:]):
                cell, x, y, theta, w = _run_points(table, slice(r0 + g0, r0 + g1), a[g0:g1], z[g0:g1])
                if len(cell):
                    out[cell - lo] = _evaluate(psi, x, y, theta) * w
            return out

    num = _pairwise_total(len(table), values)
    report = num / den, len(table), float(_PAIR_GRID[1] - _PAIR_GRID[0])
    if not math.isfinite(report[0]):
        raise MeasureError("pair quadrature estimate is %r" % report[0])
    estimates[id(psi)] = (psi, report)
    return report


def _check_domain(psi, measure):
    """psi's support disk (x0, y0, reach), or the disk that is not a number,
    which takes every cell, when psi names none.

    MeasureError unless psi is evaluated at points (evaluate_points) and
    names no group or one with the half-disks of the measure's group: a
    quadrature keeps the samples in the outside of the measure's
    half-disks, which is a fundamental domain of psi's group only then."""
    if not callable(getattr(psi, "evaluate_points", None)):
        raise MeasureError("a quadrature evaluates its integrand at points, which a %s is not" % type(psi).__name__)
    group = getattr(psi, "group", None)
    if group is not None and group is not measure.group:
        own, theirs = (sorted(zip(g._centers.tolist(), g._radii.tolist())) for g in (group, measure.group))
        if own != theirs:
            raise MeasureError(
                "the integrand's group has the half-disks (center, radius) %r, the measure's %r" % (own, theirs)
            )
    disk = psi.support()
    return (math.nan,) * 3 if disk is None else disk


def _pair_support(disk, seeds):
    """Leaf coordinates (lo, hi) between which the geodesics of the pairs
    with these seeds run inside the support disk (x0, y0, reach); lo = +inf
    and hi = -inf where one misses it, and NaN where the disk is not a number.

    A pair's frame g, flowed to leaf coordinate t, has base point g(i E),
    E = exp(t - beta0). The disk pulls back to P E^2 - R E + Q < 0, where
    P = (a0 - x0 c0)^2 + (y0 c0)^2, Q = (b0 - x0 d0)^2 + (y0 d0)^2 and
    R = 2 y0 + reach; its roots are taken in the forms that do not cancel.
    """
    x0, y0, reach = disk
    a0, b0, c0, d0, beta0 = seeds
    P = (a0 - x0 * c0) ** 2 + (y0 * c0) ** 2
    Q = (b0 - x0 * d0) ** 2 + (y0 * d0) ** 2
    R = 2.0 * y0 + reach
    disc = R * R - 4.0 * P * Q
    meets = ~(disc <= 0.0)  # a NaN meets, so that its pair is taken whole
    root = R + np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = beta0 + np.log(2.0 * Q / root)
        hi = beta0 + np.log(0.5 * root / P)
    return np.where(meets, lo, np.inf), np.where(meets, hi, -np.inf)


def _support_runs(table, disk):
    """The cells [first, stop) of each run of the table that an integrand
    of support disk is evaluated on.

    Each run is a row of its cells, and its window the columns of its
    pair's closed-form support window (_pair_support), padded by _PAD
    cells a side (_support_windows).
    """
    seeds, shift, ends = table.seeds, table.shift, table.ends
    first, stop = _grid_window(_PAIR_GRID, *_pair_support(disk, seeds))
    return _support_windows(
        (first - shift, stop - shift), (ends - np.diff(ends, prepend=0), ends), disk,
        lambda run, cell: _pair_frames([v[run] for v in seeds], cell + shift[run]),
    )


def _plaque_support(disk, xi, E):
    """Arc parameters (lo, hi) between which the plaques xi + E/(s - i) run
    inside the support disk (x0, y0, reach); lo = +inf and hi = -inf where a
    plaque misses it, and NaN where the disk is not a number.

    The disk pulls back to A s^2 + 2 u E s + A + E^2 - (2 y0 + reach) E < 0,
    where u = xi - x0 and A = u^2 + y0^2.
    """
    x0, y0, reach = disk
    u = xi - x0
    A = u * u + y0 * y0
    B = u * E
    disc = B * B - A * (A + E * E - (2.0 * y0 + reach) * E)
    root = np.sqrt(np.maximum(disc, 0.0))
    meets = ~(disc <= 0.0)  # a NaN meets, so that its row is taken whole
    return np.where(meets, (-B - root) / A, np.inf), np.where(meets, (-B + root) / A, -np.inf)


def _row_sums(psi, points, runs, part, width):
    """psi summed over the cells of the runs (row, first, stop) in each row
    of the slice part, as np.sum sums the row dense over the whole grid of
    width cells; points(row, col) gives (X, Y, C, D) of cells."""
    row, first, stop = runs
    a, z = np.searchsorted(row, (part.start, part.stop))
    idx, col = _cells(first[a:z], stop[a:z])
    row = row[a:z][idx]
    sums = np.zeros(part.stop - part.start)
    if len(row):
        rows, place = np.unique(row, return_inverse=True)
        vals = np.zeros((len(rows), width))
        X, Y, C, D = points(row, col)
        vals[place, col] = _evaluate(psi, X, Y, frame_angle(C, D))
        sums[rows - part.start] = np.sum(vals, axis=1)
    return sums


def br_integral(psi, measure: AtomicBoundaryMeasure, hat_delta: float) -> float:
    """Box quadrature for the horocycle-invariant infinite measure.

    Outer sum over transversal cells (atom w- of the _BOX_ATOMS heaviest,
    leaf coordinate t of _BOX_GRID) with density exp(-s t) w dt; inner
    arc-length integral of psi along the plaque through the cell, on the
    arc grid of _ARC_STEP cells over [-_ARC_SPAN, _ARC_SPAN], clipped to the
    fundamental domain. The global scale is fixed by declaring the
    reference window (the same cells, arc parameter within _WINDOW_SPAN) to
    have unit mass, so only ratios of these integrals carry meaning.

    Rows (leaf coordinate, atom) are taken in blocks of whole leaf
    coordinates, at most _CHUNK rows unless one leaf coordinate has more.
    Each block forms its own plaque geometry, its closed-form domain
    segments and its support windows (psi.support(), padded by _PAD cells a
    side, _support_windows; the whole grid when it names none), and takes
    the in-domain cells of each row once (_domain_runs), from its reference
    window to its support window: their count in the reference window fixes
    the normalizer, and the integrand is evaluated on those in the support
    window (_row_sums). The sums run one leaf coordinate at a time. An
    integrand whose group has other half-disks than the measure's raises
    MeasureError.
    """
    disk = _check_domain(psi, measure)
    t_grid = _BOX_GRID
    dt = float(t_grid[1] - t_grid[0])
    group = measure.group
    idx = measure.heaviest(_BOX_ATOMS)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    # transversal cells (atom, leaf coordinate) with the holonomy-invariant
    # density exp(-s t) times the atom weight, in log space
    log_density = lw[:, None] - hat_delta * t_grid[None, :]
    sigma = np.arange(-_ARC_SPAN, _ARC_SPAN + 1e-9, _ARC_STEP)
    width = len(sigma)
    cols = np.flatnonzero(np.abs(sigma) <= _WINDOW_SPAN)
    w0, w1 = (cols[0], cols[-1] + 1) if len(cols) else (0, 0)
    b0 = -np.log(xi * xi + 1.0)  # leaf coordinate of [[1, xi], [0, 1]]
    r2 = group._radii * group._radii
    n = len(xi)
    step = max(_CHUNK // n, 1)  # leaf coordinates per block
    # The plaque point at arc parameter s is xi + E s/(1+s^2) + i E/(1+s^2);
    # it lies in half-disk k iff al s^2 + 2 u E s + al + E^2 < 0, where
    # u = xi - c_k and al = u^2 - r_k^2. For the letter whose interval holds
    # xi (al < 0) the domain part lies between the roots, or near the vertex
    # when there is none; atoms in no interval keep the whole grid. Every
    # other letter (al > 0) cuts out the cells between its roots.
    # Rows are a block's (leaf coordinate, atom) pairs, leaf coordinate major.
    num = 0.0
    den = 0.0
    for k0 in range(0, len(t_grid), step):
        ts = t_grid[k0:k0 + step]
        xr = np.tile(xi, len(ts))
        e = np.exp(0.5 * (ts[:, None] - b0)).ravel()
        E = (e * e)[:, None]
        u = xr[:, None] - group._centers[None, :]
        al = u * u - r2
        held = al < 0.0
        sq = np.sqrt(np.maximum(E * E * r2 - al * al, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            s1 = (-u * E - sq) / al
            s2 = (-u * E + sq) / al
        lost = ~(np.isfinite(s1) & np.isfinite(s2)).all(axis=1)
        first, stop = _grid_window(
            sigma,
            np.where(held, s2, -np.inf).max(axis=1),
            np.where(held, s1, np.inf).min(axis=1),
        )
        # holes [cut, back), the cells between a letter's roots less the
        # padding, sorted by position (unused letters sort last); a hole too
        # short for the padding is empty and splits its segment, so that the
        # cells around it are tested. Segments run between the holes.
        cut = np.where(al > 0.0, np.searchsorted(sigma, s1, side="right") + _PAD, width)
        back = np.maximum(np.where(al > 0.0, np.searchsorted(sigma, s2) - _PAD, width), cut)
        order = np.argsort(cut, axis=1, kind="stable")
        cut = np.take_along_axis(cut, order, axis=1)
        back = np.maximum.accumulate(np.take_along_axis(back, order, axis=1), axis=1)
        segments = (
            np.maximum(np.column_stack([first, back]), first[:, None]),
            np.minimum(np.column_stack([cut, stop]), stop[:, None]),
        )
        xe, ie = xr / e, 1.0 / e

        def points(row, col):
            C = ie[row] * sigma[col]
            D = ie[row]
            X, Y = frame_point(e[row] + xe[row] * sigma[col], xe[row], C, D)
            return X, Y, C, D

        def inside(row, col):
            return _test_cells(points, lambda x, y: group.containing_letter(x, y) < 0, row, col)

        support = _support_windows(_grid_window(sigma, *_plaque_support(disk, xr, E[:, 0])), (0, width), disk, points)
        # the in-domain cells of each row from its reference window to its
        # support window: their integer count in the reference window, row by
        # row, so blocks of rows give the same counts, and their runs in the
        # support window
        some = support[0] < support[1]
        span = np.where(some, np.minimum(support[0], w0), w0), np.where(some, np.maximum(support[1], w1), w1)
        row, c0, c1 = _domain_runs(segments, lost, span, width, inside)
        counts = np.bincount(row, np.clip(np.minimum(c1, w1) - np.maximum(c0, w0), 0, None), len(xr))
        runs = row, np.maximum(c0, support[0][row]), np.minimum(c1, support[1][row])
        for k in range(len(ts)):
            lo = k * n
            # pieces of whole rows, cut where their support windows pass a
            # multiple of _LEAF // 4 cells, so no pass outgrows a window count
            cells = np.cumsum(support[1][lo:lo + n] - support[0][lo:lo + n])
            cuts = [lo + c for c in np.flatnonzero(np.diff(cells // (_LEAF // 4))) + 1]
            sums = np.concatenate([
                _row_sums(psi, points, runs, slice(a, z), width) for a, z in zip([lo] + cuts, cuts + [lo + n])
            ])
            scale = np.exp(log_density[:, k0 + k]) * dt
            num += float(np.sum(scale * sums * _ARC_STEP))
            den += float(np.sum(scale * counts[lo:lo + n] * _ARC_STEP))
    if not (0.0 < den < math.inf and math.isfinite(num / den)):
        raise MeasureError("box quadrature breaks down: reference window mass %r, integral %r" % (den, num))
    return num / den
