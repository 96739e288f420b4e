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
    exponent: float
    cutoff: int
    radius: float | None
    points: np.ndarray
    log_weights: np.ndarray
    displacements: np.ndarray
    lengths: np.ndarray
    _pair_cache: dict = field(default_factory=dict, repr=False)
    # most recent leaves of averages.average_ps and its kin, by (frame, exponent)
    _leaves: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return len(self.points)

    def total_mass(self) -> float:
        m = float(np.max(self.log_weights))
        return math.exp(m) * float(np.sum(np.exp(self.log_weights - m)))

    def mass_in_interval(self, lo: float, hi: float) -> float:
        i, j = np.searchsorted(self.points, [lo, hi])
        if i == j:
            return 0.0
        return float(np.sum(np.exp(self.log_weights[i:j])))

    def heaviest(self, k: int) -> np.ndarray:
        """Indices of the k heaviest atoms, deterministic under ties."""
        order = np.argsort(-self.log_weights, kind="stable")
        return np.sort(order[: min(k, len(order))])


def build_patterson(group: FuchsianGroup, cfg: PattersonConfig) -> AtomicBoundaryMeasure:
    """Orbital-sum approximation of the conformal boundary measure.

    Atom for the word w: forward endpoint of the ray o -> w(o); log-weight
    -s d(o, w(o)). The identity has no ray and is excluded. Weights are
    normalized to unit total mass. Every atom lands inside a generator
    interval by the ping-pong nesting, which is asserted.
    """
    xs, ys, ds, ls = [], [], [], []
    for level, (mats, disp, *_) in enumerate(group._level_arrays(cfg.cutoff, cfg.radius), 1):
        if cfg.radius is None:
            m, dk = mats, disp
        else:
            keep = disp <= cfg.radius
            m, dk = mats[keep], disp[keep]
        x, y = frame_point(m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1])
        xs.append(x)
        ys.append(y)
        ds.append(dk)
        ls.append(np.full(len(dk), level))
    if not xs:
        raise MeasureError("no orbit points at cutoff %d" % cfg.cutoff)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    d = np.concatenate(ds)
    ln = np.concatenate(ls)
    ok = np.abs(x) > 1e-300  # a dead-vertical ray has no finite endpoint
    x, y, d, ln = x[ok], y[ok], d[ok], ln[ok]
    if len(x) < 100:
        raise MeasureError(
            "only %d atoms survive cutoff %d radius %s; need at least 100"
            % (len(x), cfg.cutoff, cfg.radius)
        )
    c = (x * x + y * y - 1.0) / (2.0 * x)
    xi = c + np.sign(x) * np.sqrt(c * c + 1.0)
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
        exponent=cfg.exponent,
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
    continuation, which carries an O(1) wrong weight.
    """
    m, glen = measure.group.word_matrix(gamma), len(gamma)
    if isometry_distance(m, Isometry.identity()) < 1e-14:
        return 0.0
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


@dataclass
class ConditionalHorocycleMeasure:
    """Measure on a strong-unstable leaf in the flow-time parameter.

    The atom at parameter s stands for the vector h^s(u); weights stay in
    log space since the density blows up toward the backward endpoint.
    """

    leaf: UnitTangent
    exponent: float
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
    return ConditionalHorocycleMeasure(
        leaf=u, exponent=hat_delta, params=s[order], log_weights=lam[order]
    )


# ------------------------------------------------------------- quadratures

# Both quadratures sample one curve per grid row and keep the samples that
# lie in the fundamental domain, the outside of disjoint half-disks. Where
# a curve can be outside them follows in closed form from its circle
# crossings, so frames are computed only on that window of the row, padded
# by _PAD cells a side; the half-disk test still decides every sample.
_PAD = 2
# two atoms in one interval span a geodesic inside its half-disk; the pair
# is skipped only when both sit deeper than this times the squared radius
_EDGE = 1e-9
# relative spread of grid steps still taken as one cell width
_GRID_UNIFORMITY = 1e-9


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


def _clip_cells(first, stop, width, inside_at):
    """Cells (row, col) with first <= col < stop in row-major order, with
    what inside_at(row, col) returns for them: (in-domain mask, data).

    first and stop give one window per row, or (2-D) ordered disjoint
    segments per row. A segment with an in-domain cell at an edge short of
    the grid's end may have cut its row too short, so the closed form is
    not trusted there: the row is recomputed on its full grid.
    """
    first = first.reshape(len(first), -1)
    stop = stop.reshape(len(stop), -1)
    while True:
        n = np.maximum(stop - first, 0).ravel()
        end = np.cumsum(n)
        seg = np.repeat(np.arange(len(n)), n)
        col = np.arange(len(seg)) - np.repeat(end - n - first.ravel(), n)
        row = seg // first.shape[1]
        inside, data = inside_at(row, col)
        edge = np.append(inside, False)  # position len(inside) reads False
        head = edge[np.where(n > 0, end - n, len(inside))]
        tail = edge[np.where(n > 0, end - 1, len(inside))]
        short = ((first.ravel() > 0) & head) | ((stop.ravel() < width) & tail)
        short = short.reshape(first.shape).any(axis=1)
        if not short.any():
            return row, col, inside, data
        first = np.where(short[:, None], 0, first)
        stop = np.where(short[:, None], 0, stop)
        stop[short, 0] = width


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


def _uniform_step(t_grid, what):
    """Cell width of a strictly increasing, uniform grid of two or more points.

    Both quadratures weigh every cell by this one width, and find windows
    by binary search, so any other grid is an error.
    """
    steps = np.diff(t_grid)
    if not len(steps):
        raise MeasureError("%s grid needs at least two points" % what)
    if not np.all(steps > 0):
        raise MeasureError("%s grid must be strictly increasing" % what)
    dt = float(steps[0])
    if np.any(np.abs(steps - dt) > _GRID_UNIFORMITY * dt):
        raise MeasureError("%s grid must be uniform: steps range over [%.17g, %.17g]"
                           % (what, steps.min(), steps.max()))
    return dt


def _pair_field(measure, hat_delta, t_grid, top_k):
    """Fundamental-domain samples of the geodesic-pair quadrature.

    Returns flat arrays (x, y, theta, weight); the weight already carries
    both atom masses, the boundary-separation kernel and the grid cell
    width. Cached on the measure: the field is integrand-independent, so
    several test functions share one geometry pass.
    """
    dt = _uniform_step(t_grid, "leaf-coordinate")
    key = (round(hat_delta, 12), t_grid.tobytes(), top_k)
    hit = measure._pair_cache.get(key)
    if hit is not None:
        return hit
    idx = measure.heaviest(top_k)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    n = len(xi)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii, jj = ii.ravel(), jj.ravel()
    sep = np.abs(xi[ii] - xi[jj])
    ok = sep > 1e-12
    ii, jj, sep = ii[ok], jj[ok], sep[ok]
    # chordal-gap kernel for densities normalized at the origin i: the
    # Liouville case (exponent one, Poisson weights) must reduce to
    # dxi deta / (xi - eta)^2, which forces the (xi^2+1) factors.
    logw = (
        lw[ii]
        + lw[jj]
        - 2.0 * hat_delta * np.log(sep)
        + hat_delta * (np.log1p(xi[ii] ** 2) + np.log1p(xi[jj] ** 2))
    )
    logw -= np.max(logw)  # common scale cancels in the normalized integral
    w = np.exp(logw) * dt
    xm, xp = xi[ii], xi[jj]
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
    first, stop = _grid_window(t_grid, *_pair_window(measure.group, xm, xp, beta0))

    def samples(row, col):
        e = np.exp(0.5 * (t_grid[col] - beta0[row]))
        C = c0[row] * e
        D = d0[row] / e
        X, Y = frame_point(a0[row] * e, b0[row] / e, C, D)
        return measure.group.containing_letter(X, Y) < 0, (X, Y, C, D)

    parts = []
    for lo in range(0, len(ii), 4096):
        sl = slice(lo, lo + 4096)
        row, _, mask, (X, Y, C, D) = _clip_cells(
            first[sl], stop[sl], len(t_grid), lambda r, c, lo=lo: samples(r + lo, c)
        )
        if mask.any():
            parts.append((X[mask], Y[mask], frame_angle(C[mask], D[mask]), w[lo + row[mask]]))
    if not parts:
        raise MeasureError("pair quadrature found no fundamental-domain samples")
    out = tuple(np.concatenate([p[k] for p in parts]) for k in range(4))
    measure._pair_cache[key] = out
    return out


def ps_integral(
    psi,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    t_grid: np.ndarray | None = None,
    top_k: int = 220,
) -> float:
    """Normalized integral against the product-form invariant measure.

    Double sum over atom pairs with the kernel |xi- - xi+|^(-2s), times a
    uniform leaf-coordinate grid, keeping only samples that lie in the
    fundamental domain (reduce word the identity); the same sum with the
    constant one divides out, so a constant integrates to itself exactly.
    """
    return quadrature_report(psi, measure, hat_delta, t_grid, top_k)[0]


def quadrature_report(
    psi,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    t_grid: np.ndarray | None = None,
    top_k: int = 220,
) -> tuple[float, int, float]:
    """ps_integral together with its quadrature size: (estimate, cells, step)."""
    if t_grid is None:
        t_grid = np.arange(-8.0, 8.0 + 1e-9, 0.05)
    t_grid = np.asarray(t_grid, dtype=float)
    x, y, th, w = _pair_field(measure, hat_delta, t_grid, top_k)
    den = float(np.sum(w))
    if den <= 0.0:
        raise MeasureError("empty normalizer in the pair quadrature")
    est = float(np.sum(w * _evaluate(psi, x, y, th))) / den
    return est, int(len(w)), float(t_grid[1] - t_grid[0])


def br_integral(
    psi,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    t_grid: np.ndarray | None = None,
    sigma_span: float = 30.0,
    sigma_step: float = 0.05,
    window_span: float = 5.0,
    top_k: int = 200,
) -> float:
    """Box quadrature for the horocycle-invariant infinite measure.

    Outer sum over transversal cells (atom w-, leaf coordinate t) with
    density exp(-s t) w dt; inner arc-length integral of psi along the
    plaque through the cell, clipped to the fundamental domain. The global
    scale is fixed by declaring the reference window (the same cells, arc
    parameter within window_span) to have unit mass, so only ratios of
    these integrals carry meaning.
    """
    if t_grid is None:
        t_grid = np.arange(-4.0, 4.0 + 1e-9, 0.1)
    t_grid = np.asarray(t_grid, dtype=float)
    dt = _uniform_step(t_grid, "transversal")
    group = measure.group
    idx = measure.heaviest(top_k)
    xi = measure.points[idx]
    lw = measure.log_weights[idx]
    # transversal cells (atom, leaf coordinate) with the holonomy-invariant
    # density exp(-s t) times the atom weight, in log space
    log_density = lw[:, None] - hat_delta * t_grid[None, :]
    sigma = np.arange(-sigma_span, sigma_span + 1e-9, sigma_step)
    win = np.abs(sigma) <= window_span
    b0 = -np.log(xi * xi + 1.0)  # leaf coordinate of [[1, xi], [0, 1]]
    # The plaque point at arc parameter s is xi + E s/(1+s^2) + i E/(1+s^2);
    # it lies in half-disk k iff al s^2 + 2 u E s + al + E^2 < 0, where
    # u = xi - c_k and al = u^2 - r_k^2. For the letter whose interval holds
    # xi (al < 0) the domain part lies between the roots, or near the vertex
    # when there is none; atoms in no interval keep the whole grid. Every
    # other letter (al > 0) cuts out the cells between its roots.
    u = xi[:, None] - group._centers[None, :]
    r2 = group._radii * group._radii
    al = u * u - r2
    held = al < 0.0
    num = 0.0
    den = 0.0
    for k, t in enumerate(t_grid):
        scale = np.exp(log_density[:, k]) * dt
        e = np.exp(0.5 * (t - b0))
        E = (e * e)[:, None]
        sq = np.sqrt(np.maximum(E * E * r2 - al * al, 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            s1 = (-u * E - sq) / al
            s2 = (-u * E + sq) / al
        first, stop = _grid_window(
            sigma,
            np.where(held, s2, -np.inf).max(axis=1),
            np.where(held, s1, np.inf).min(axis=1),
        )
        # holes [cut, back), shrunk by the padding and sorted by position
        # (unused letters sort last); segments run between them
        cut = np.searchsorted(sigma, s1, side="right") + _PAD
        back = np.searchsorted(sigma, s2) - _PAD
        hole = (al > 0.0) & (cut < back)
        cut = np.where(hole, cut, len(sigma))
        back = np.where(hole, back, len(sigma))
        order = np.argsort(cut, axis=1, kind="stable")
        cut = np.take_along_axis(cut, order, axis=1)
        back = np.take_along_axis(back, order, axis=1)
        seg_first = np.maximum(np.column_stack([first, back]), first[:, None])
        seg_stop = np.minimum(np.column_stack([cut, stop]), stop[:, None])
        xe, ie = xi / e, 1.0 / e

        def samples(row, col):
            C = ie[row] * sigma[col]
            D = ie[row]
            X, Y = frame_point(e[row] + xe[row] * sigma[col], xe[row], C, D)
            return group.containing_letter(X, Y) < 0, (X, Y, C, D)

        row, col, mask, (X, Y, C, D) = _clip_cells(seg_first, seg_stop, len(sigma), samples)
        if mask.any():
            vals = np.zeros((len(xi), len(sigma)))
            vals[row[mask], col[mask]] = _evaluate(
                psi, X[mask], Y[mask], frame_angle(C[mask], D[mask])
            )
            num += float(np.sum(scale * np.sum(vals, axis=1) * sigma_step))
        counts = np.bincount(row[mask & win[col]], minlength=len(xi))
        den += float(np.sum(scale * counts * sigma_step))
    if den <= 0.0:
        raise MeasureError("reference window has zero mass")
    return num / den
