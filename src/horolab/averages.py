"""Ergodic averages along horocycles: leafwise means against the conditional
measures and against arc length, ratio, mixing and non-divergence series,
and the closure time of periodic horocycles."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _SIGN_TOL,
    INFINITY,
    Isometry,
    UnitTangent,
    frame_angle,
    frame_distance,
    frame_point,
    from_coordinates,
    geodesic_flow,
    horocycle_flow,
    mobius_apply,
)
from .groups import (
    FuchsianGroup,
    Generator,
    fixed_points,
    renormalized,
    replayed,
    tangent_from_samples,
)
from .measures import (
    AtomicBoundaryMeasure,
    br_integral,
    conditional_on_horocycle,
    ps_integral,
)

__all__ = [
    "AveragesError",
    "Integrand",
    "TestFunction",
    "ConstantFunction",
    "ShiftedFunction",
    "WeightedFunction",
    "CuspHeightCap",
    "AverageSeries",
    "VectorClass",
    "pointed_frame",
    "build_vector",
    "average_ps",
    "flow_commutation_residual",
    "average_lebesgue",
    "ratio_series",
    "mixing_series",
    "mass_in_compact",
    "periodic_closure",
]


class AveragesError(ValueError):
    """Bad averaging input: empty ball, degenerate denominator, wrong kind."""


class VectorClass(enum.Enum):
    """Dynamical class of a constructed vector, read off its backward endpoint."""

    RADIAL = "radial"
    PARABOLIC = "parabolic"
    WANDERING = "wandering"


def build_vector(group: FuchsianGroup, minus, plus, s: float = 0.0):
    """Vector from two limit samples plus a leaf coordinate, with its class.

    Theorem hypotheses like 'the backward endpoint is radial' are realized
    by construction here, not tested after the fact.
    """
    u, kind = tangent_from_samples(group, minus, plus, s)
    return u, VectorClass(kind)


def pointed_frame(x: float, y: float, theta: float) -> UnitTangent:
    """Frame with base point x + iy and direction angle theta."""
    if not y > 0:
        raise AveragesError("base point must be in the upper half plane")
    phi = 0.5 * (0.5 * math.pi - theta)
    cp, sp = math.cos(phi), math.sin(phi)
    ry = math.sqrt(y)
    return UnitTangent(
        Isometry(ry * cp + x * sp / ry, -ry * sp + x * cp / ry, sp / ry, cp / ry)
    )


def _leaf_frames(u: UnitTangent, s: np.ndarray) -> np.ndarray:
    a, b, c, d = u.frame.entries()
    out = np.empty((len(s), 2, 2))
    out[:, 0, 0] = a + b * s
    out[:, 0, 1] = b
    out[:, 1, 0] = c + d * s
    out[:, 1, 1] = d
    return out


def _flowed(frames, t: float) -> np.ndarray:
    """Frames (n, 2, 2) pushed by the time-t geodesic flow."""
    frames = np.asarray(frames, dtype=float)
    e = math.exp(0.5 * t)
    out = np.empty_like(frames)
    out[:, :, 0] = frames[:, :, 0] * e
    out[:, :, 1] = frames[:, :, 1] / e
    return out


def _frame_coordinates(frames: np.ndarray):
    """(x, y, theta) of a stack of frames (n, 2, 2)."""
    a, b, c, d = frames.reshape(-1, 4).T
    x, y = frame_point(a, b, c, d)
    return x, y, frame_angle(c, d)


class Integrand:
    """Shared entry point of the test-function protocol.

    An integrand defines evaluate_points(x, y, theta) on the
    fundamental-domain coordinates of its `group`, which the quadratures
    call directly; one whose group is None, such as ConstantFunction, is
    evaluated where the frame lies. Frames reach evaluate_points by one
    rule, that of _values, which __call__ applies to a single vector; leaf
    averages and Simpson grids settle each (group, flow times) once.
    """

    def __call__(self, u: UnitTangent) -> float:
        return float(_values(self, np.reshape(u.frame.entries(), (1, 2, 2)))[0])

    def support(self):
        """A disk (x0, y0, reach) outside which evaluate_points vanishes, the
        set (x - x0)^2 + (y - y0)^2 < reach y; None, the default, names no
        support. br_integral evaluates the integrand only inside it."""
        return None


@dataclass
class TestFunction(Integrand):
    """Smooth bump on the quotient in (base distance, angle) coordinates.

    Evaluation reduces the input to its fundamental-domain representative
    first, which makes the function invariant under the group by
    construction; the bump must therefore be centered inside the domain.
    """

    group: FuchsianGroup
    center: UnitTangent
    base_width: float = 0.5
    angle_width: float = 1.1
    label: str = "psi"

    def __post_init__(self):
        if not (self.base_width > 0 and self.angle_width > 0):
            raise AveragesError("bump widths must be positive")
        bp = self.center.base_point
        if not self.group.in_fundamental_domain(bp.as_complex):
            raise AveragesError("bump center must lie in the fundamental domain")
        self._x0 = bp.x
        self._y0 = bp.y
        self._th0 = self.center.direction_angle
        # the bump vanishes where the base distance reaches base_width, i.e.
        # where d2 >= 2 (cosh(base_width) - 1) y y0 for the squared Euclidean
        # offset d2; widened so rounding never skips a point it keeps
        edge = math.cosh(self.base_width) - 1.0
        self._reach = 2.0 * self._y0 * (edge * (1.0 + 1e-6) + 1e-12)

    def evaluate_points(self, x, y, theta):
        """Bump values at fundamental-domain coordinates (no reduction)."""
        x, y, theta = np.broadcast_arrays(x, y, theta)
        d2 = (x - self._x0) ** 2 + (y - self._y0) ** 2
        out = np.zeros(d2.shape)
        near = ~(d2 >= self._reach * y)  # NaN stays near and is computed
        d2, y = d2[near], y[near]
        dist = np.arccosh(1.0 + d2 / (2.0 * y * self._y0))
        dth = np.mod(theta[near] - self._th0 + np.pi, 2.0 * np.pi) - np.pi
        rho2 = (dist / self.base_width) ** 2 + (dth / self.angle_width) ** 2
        vals = np.zeros_like(rho2)
        inside = rho2 < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        out[near] = vals
        return out

    def support(self):
        return (self._x0, self._y0, self._reach)


@dataclass
class ConstantFunction(Integrand):
    """Constant test integrand; keeps the quadrature interfaces uniform."""

    value: float = 1.0
    label: str = "one"
    group = None  # not a field: a constant is evaluated where the frame lies

    def evaluate_points(self, x, y, theta):
        return np.full(np.shape(x), self.value)


class ShiftedFunction(Integrand):
    """psi composed with the time-t geodesic flow; invariance is inherited.
    It carries the flow time only, which evaluation peels off (see _peeled)."""

    def __init__(self, psi, t: float):
        self.psi = psi
        self.t = t
        self.label = "%s.g%g" % (getattr(psi, "label", "psi"), t)


class WeightedFunction(Integrand):
    """Pointwise product of an integrand with a base-point density, taken at
    the reduced point like every other evaluation on psi's group."""

    def __init__(self, psi, density, label: str = "weighted"):
        self.psi = psi
        self.group = psi.group
        self.density = density
        self.label = label

    def evaluate_points(self, x, y, theta):
        return self.psi.evaluate_points(x, y, theta) * self.density(x, y)

    def support(self):
        return self.psi.support()


@dataclass
class CuspHeightCap(Integrand):
    """Smoothed indicator of the thick part: one below the height cap.

    Heights are measured in the charts sending each cusp to infinity; the
    ramp is C1 of width `ramp` in those height units, since a hard cutoff
    would break the continuity hypotheses the averages rely on. With no
    cusps the cap is identically one.
    """

    group: FuchsianGroup
    k_height: float
    ramp: float = 0.1
    label: str = "compact-part"

    def __post_init__(self):
        self._charts = [
            ch for lab, ch in sorted(self.group._parabolic_charts.items())
            if lab == ch.label
        ]

    def evaluate_points(self, x, y, theta=None):
        h = np.zeros_like(y)
        for ch in self._charts:
            _, _, c, d = ch.conjugator.entries()
            hh = y / ((c * x + d) ** 2 + (c * y) ** 2)
            h = np.maximum(h, hh)
        s = np.clip((self.k_height - h) / self.ramp, 0.0, 1.0)
        return s * s * (3.0 - 2.0 * s)


@dataclass
class AverageSeries:
    """A family of leaf averages over growing windows, with its limit estimate."""

    abscissae: np.ndarray
    values: np.ndarray
    reference: float

    def __post_init__(self):
        self.abscissae = np.asarray(self.abscissae, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.abscissae) != len(self.values):
            raise AveragesError("series abscissae and values differ in length")
        if len(self.abscissae) > 1 and not np.all(np.diff(self.abscissae) > 0):
            raise AveragesError("series abscissae must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise AveragesError("series values must be finite")


# ------------------------------------------------------------------ means


def _peeled(psi):
    """(inner, times): the integrand under psi's ShiftedFunction layers and
    their flow times, outermost first, the order in which they act on frames."""
    times = []
    while isinstance(psi, ShiftedFunction):
        times.append(psi.t)
        psi = psi.psi
    return psi, tuple(times)


def _settled(group, times, frames):
    """(settled, moves) of settle_frames on group of the frames pushed by the
    geodesic flow for each of times in turn; with no group the frames stay
    where they lie and move in no round."""
    for t in times:
        frames = _flowed(frames, t)
    if group is None:
        return np.array(frames, dtype=float), np.zeros(len(frames), dtype=np.int64)
    return group.settle_frames(frames)


def _values(psi, frames) -> np.ndarray:
    """psi at a stack of frames (n, 2, 2): the frames flowed by its shifts,
    reduced on its group as one batch (see reduce_frames), then evaluated."""
    inner, times = _peeled(psi)
    reduced = replayed(*_settled(inner.group, times, frames))
    return inner.evaluate_points(*_frame_coordinates(reduced))


class _Rows:
    """Leaf rows settled on one group after one sequence of flow times: over
    span, a ball [lo, hi) of the leaf, each row's moves count and (x, y,
    theta) settled and renormalized once, for the batch rule of reduce_frames."""

    def __init__(self, n: int, lo: int):
        self.span = (lo, lo)
        self.moves = np.zeros(n, dtype=np.int64)
        self.plain = np.empty((3, n))
        self.once = np.empty((3, n))


class _Leaf:
    """One leaf of a measure: its conditional measure, built once, and per
    key (group, flow times) of the integrands its frames settled out to the
    largest radius asked for so far. It keeps the store of the measure's own
    group unflowed and that of the most recent other key, which serves a
    radius ladder at one flow time or an integrand on another group object."""

    def __init__(self, u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float):
        self.u = u
        self.cond = conditional_on_horocycle(u, measure, hat_delta)
        self.own = (measure.group, ())
        self.stores = {}

    def forget(self) -> None:
        """Drop every store but the one of the measure's own key."""
        self.stores = {key: rows for key, rows in self.stores.items() if key == self.own}

    def _rows(self, group, times, lo: int, hi: int) -> _Rows:
        """The store of (group, times), settled at least over rows [lo, hi)."""
        key = (group, times)
        rows = self.stores.get(key)
        if rows is None:
            if key != self.own:
                self.forget()
            rows = self.stores[key] = _Rows(len(self.cond.params), lo)
        a, b = rows.span
        if lo < a or hi > b:
            new = np.concatenate([np.arange(lo, a), np.arange(b, hi)])
            settled, moves = _settled(group, times, _leaf_frames(self.u, self.cond.params[new]))
            rows.moves[new] = moves
            rows.plain[:, new] = _frame_coordinates(settled)
            rows.once[:, new] = _frame_coordinates(renormalized(settled))
            rows.span = (min(lo, a), max(hi, b))
        return rows

    def average(self, r: float, psi) -> float:
        """Mean over the leaf ball {h^s u : |s| < r}."""
        if not r > 0:
            raise AveragesError("horoball radius must be positive")
        # params ascend, so the ball is the rows [lo, hi)
        params = self.cond.params
        lo, hi = int(np.searchsorted(params, -r, side="right")), int(np.searchsorted(params, r))
        if lo >= hi:
            raise AveragesError("no conditional atoms inside radius %g" % r)
        lw = self.cond.log_weights[lo:hi]
        w = np.exp(lw - np.max(lw))
        inner, times = _peeled(psi)
        rows = self._rows(inner.group, times, lo, hi)
        moves = rows.moves[lo:hi]
        x, y, theta = np.where(moves < moves.max(), rows.once[:, lo:hi], rows.plain[:, lo:hi])
        return float(np.sum(w * inner.evaluate_points(x, y, theta)) / np.sum(w))


# leaves a measure keeps, the most recently used last
_LEAF_MEMO = 2


def _leaf(u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float) -> _Leaf:
    """The measure's leaf through u, most recently used last in its memo.

    The other leaves forget all but their own store: other keys serve a
    radius ladder at one flow time, and kept on every leaf they would raise
    the peak memory of runs that average many vectors."""
    key = (u.frame.entries(), hat_delta)
    memo = measure._leaves
    leaf = memo.pop(key, None)
    for other in memo.values():
        other.forget()
    if leaf is None:
        leaf = _Leaf(u, measure, hat_delta)
        if len(memo) == _LEAF_MEMO:
            del memo[next(iter(memo))]
    memo[key] = leaf
    return leaf


def average_ps(
    u: UnitTangent, r: float, psi, measure: AtomicBoundaryMeasure, hat_delta: float
) -> float:
    """Mean of psi over the leaf ball of radius r against the conditional
    measure: the atom-weighted average of psi(h^s u) over |s| < r.

    The measure keeps the leaf of u (its conditional measure and its
    settled frames) for the next calls on the same vector and exponent.
    """
    return _leaf(u, measure, hat_delta).average(r, psi)


def flow_commutation_residual(
    u: UnitTangent, radii, times, psi, measure: AtomicBoundaryMeasure, hat_delta: float
) -> np.ndarray:
    """Differences between ball averages and their flow-commuted forms.

    The mean of psi over B(u, r) equals the mean of psi composed with g^t
    over B(g^-t u, r e^-t); both sides are computed through independent
    conditional constructions, so each residual is float noise only. Entry
    (i, j) is the residual at times[i] and radii[j]. Each left side is
    computed once for all times. The right sides run time by time: the
    leaf of each g^-t u is built once, outside the measure's memo, and its
    flowed frames are settled once, out to the largest radius.
    """
    lhs = np.array([average_ps(u, r, psi, measure, hat_delta) for r in radii])
    out = np.empty((len(times), len(lhs)))
    for i, t in enumerate(times):
        leaf = _Leaf(geodesic_flow(u, -t), measure, hat_delta)
        shifted = ShiftedFunction(psi, t)
        rhs = [leaf.average(r * math.exp(-t), shifted) for r in radii]
        out[i] = np.abs(lhs - rhs)
    return out


def _settle_grid(group, times, u: UnitTangent, s: np.ndarray, prev):
    """(s, settled, moves) of the leaf frames at the nodes s, through _settled.
    When the nodes of the previous triple are bit for bit the even nodes of
    s, only the odd nodes are settled."""
    if prev is None or s[::2].tobytes() != prev[0].tobytes():
        return (s,) + _settled(group, times, _leaf_frames(u, s))
    mid, mid_moves = _settled(group, times, _leaf_frames(u, s[1::2]))
    settled = np.empty((len(s), 2, 2))
    moves = np.empty(len(s), dtype=np.int64)
    settled[::2], settled[1::2] = prev[1], mid
    moves[::2], moves[1::2] = prev[2], mid_moves
    return s, settled, moves


# error bound of average_lebesgue's Simpson rule, per unit length of window
_SIMPSON_TOL = 1e-6


def average_lebesgue(u: UnitTangent, t: float, psi) -> float:
    """Arc-length mean of psi over {h^s u : |s| <= t}.

    Composite Simpson rule, refined until the classical stepwise error
    estimate meets the absolute tolerance _SIMPSON_TOL * (2t); the shipped
    bumps are resolved already at the initial step 0.05. Each halving
    settles only the new midpoints and replays the batch rule of
    reduce_frames over the whole grid, which gives the bits of reducing the
    grid afresh.
    """
    return _lebesgue_means(u, t, [psi])[0]


def _lebesgue_means(u: UnitTangent, t: float, funcs) -> list[float]:
    """average_lebesgue of each of funcs, bit for bit, on shared grids.

    Each integrand refines to its own depth. At each depth the grid is
    settled once per key (group, flow times) of the integrands still
    refining (see _peeled).
    """
    if not t > 0:
        raise AveragesError("window must be positive")
    m = max(4, int(math.ceil(2.0 * t / 0.1)))
    peeled = [_peeled(psi) for psi in funcs]
    coarse = [None] * len(funcs)
    means = [None] * len(funcs)
    grids = {}  # (group, flow times) -> its (s, settled, moves) grid
    for _ in range(8):
        coords = {}
        s = np.linspace(-t, t, 2 * m + 1)
        h = s[1] - s[0]
        for k, (inner, times) in enumerate(peeled):
            if means[k] is not None:
                continue
            key = (inner.group, times)
            if key not in coords:
                grids[key] = _settle_grid(inner.group, times, u, s, grids.get(key))
                coords[key] = _frame_coordinates(replayed(*grids[key][1:]))
            f = inner.evaluate_points(*coords[key])
            integral = (h / 3.0) * (
                f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2])
            )
            if coarse[k] is not None and abs(integral - coarse[k]) / 15.0 <= _SIMPSON_TOL * 2.0 * t:
                means[k] = float(integral / (2.0 * t))
            coarse[k] = integral
        if all(mean is not None for mean in means):
            return means
        m *= 2
    return [float(c / (2.0 * t)) if mean is None else mean for c, mean in zip(coarse, means)]


def ratio_series(
    u: UnitTangent, psi, phi, radii, measure: AtomicBoundaryMeasure, hat_delta: float
) -> AverageSeries:
    """Ratios of the arc-length means of two test functions over growing
    windows, psi and phi sharing each Simpson grid.

    The reference is the ratio of their horocycle-invariant integrals,
    transverse (Burger-Roblin) measure times arc length: br_integral(psi) /
    br_integral(phi).
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    pairs = [_lebesgue_means(u, r, [psi, phi]) for r in radii]
    if pairs[-1][1] == 0.0:
        raise AveragesError("denominator average vanishes at the largest radius")
    if any(den == 0.0 for _, den in pairs):
        raise AveragesError("denominator average vanishes inside the series")
    values = [num / den for num, den in pairs]
    ref = br_integral(psi, measure, hat_delta) / br_integral(phi, measure, hat_delta)
    return AverageSeries(radii, values, ref)


def mixing_series(
    u: UnitTangent,
    r: float,
    psi,
    times,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
) -> AverageSeries:
    """Ball averages of psi pushed by the geodesic flow at a fixed radius.

    The t-th value is the mean of psi o g^t over B(u, r); the series tends
    to the invariant integral of psi as the flow stretches the ball across
    the non-wandering set. That reference is ps_integral(psi), which the
    measure caches per integrand object, so a psi already integrated on
    this measure is not evaluated again.
    """
    leaf = _leaf(u, measure, hat_delta)
    values = [leaf.average(r, ShiftedFunction(psi, float(t))) for t in times]
    ref = ps_integral(psi, measure, hat_delta)
    return AverageSeries(np.asarray(times, dtype=float), values, ref)


def mass_in_compact(
    u: UnitTangent,
    radii,
    k_height: float,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    ramp: float = 0.1,
) -> AverageSeries:
    """Fraction of the ball average captured below a cusp-height cap.

    Values are leaf means of the smoothed thick-part indicator; for a group
    without cusps the indicator is identically one and so is the series.
    """
    cap = CuspHeightCap(measure.group, k_height, ramp)
    leaf = _leaf(u, measure, hat_delta)
    radii = np.asarray(sorted(float(r) for r in radii))
    values = [leaf.average(r, cap) for r in radii]
    return AverageSeries(radii, values, 1.0)


# ------------------------------------------------------- periodic closure


def _closure_gap(target: UnitTangent, u: UnitTangent, t: float) -> float:
    return frame_distance(target, horocycle_flow(u, t))


def _closure_gaps(target: UnitTangent, u: UnitTangent, ts: np.ndarray) -> np.ndarray:
    """_closure_gap at every t of ts, bit for bit.

    The arrays repeat the scalar operations in their order: the entries of
    horocycle_flow, Isometry's renormalization and sign rule, then
    isometry_distance. Its squares are `** 2`, libm's pow, which
    np.float_power keeps; numpy's `** 2` and x * x round some of them
    differently.
    """
    ga, gb, gc, gd = u.frame.entries()
    a = ga + gb * ts
    c = gc + gd * ts
    det = a * gd - gb * c
    bad = np.flatnonzero(~(det > 0.0) | ~np.isfinite(det))
    if bad.size:
        Isometry(a[bad[0]], gb, c[bad[0]], gd)  # raises the scalar error
    scale = 1.0 / np.sqrt(det)
    ents = np.array([a * scale, gb * scale, c * scale, gd * scale])
    mags = np.abs(ents)
    # the sign of the first entry of significant size
    lead = np.select(mags > _SIGN_TOL * mags.max(axis=0), ents, 0.0)
    ents = np.where(lead < 0.0, -ents, ents)

    def norm(diff):
        p, q, r, s = np.float_power(diff, 2.0)
        return np.sqrt(p + q + r + s)

    target = np.array(target.frame.entries())[:, None]
    return np.minimum(norm(target - ents), norm(target + ents))


def _golden_refine(f, lo: float, hi: float, tol: float) -> float:
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        width = b - a
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
        if not b - a < width:  # float resolution reached before tol
            break
    return 0.5 * (a + b)


def periodic_closure(
    group: FuchsianGroup,
    p,
    u: UnitTangent | None = None,
    refine_tol: float = 1e-10,
) -> tuple[float, float]:
    """Closure time of the horocycle leaf centered at a parabolic fixed point.

    Returns (t0, residual) with t0 minimizing the frame distance between
    p applied to u and h^t0(u); for a genuinely periodic leaf the residual
    is float noise. When u is omitted it is built with backward endpoint at
    the fixed point of p and base point on the unit horosphere through i.
    A scan of 4097 evenly spaced times in the window
    |t| <= 10 e^{|leaf coordinate|}, plus the closed-form seeds
    +-tau / Im(chart height), picks the best candidate; its gaps are
    computed as arrays, bit for bit the scalar ones (see _closure_gaps).
    Golden section, on scalars, refines it.
    """
    if isinstance(p, Generator):
        gen = p
    else:
        gen = group.generator(p)
    if gen.kind != "parabolic":
        raise AveragesError("closure time needs a parabolic letter, got %r" % gen.kind)
    if not refine_tol > 0:
        raise AveragesError("refine_tol must be positive, got %r" % (refine_tol,))
    fp, _ = fixed_points(gen.matrix)
    if u is None:
        if fp.is_infinity:
            raise AveragesError("default vector needs a finite parabolic fixed point")
        u = from_coordinates(fp, INFINITY, 0.0)
    target = mobius_apply(gen.matrix, u)
    chart = group._parabolic_charts[gen.label]
    zc = chart.conjugator.apply_complex(u.base_point.as_complex)
    window = 10.0 * math.exp(abs(u.busemann_coordinate))
    cands = np.linspace(-window, window, 4097)
    if zc.imag > 0:
        cands = np.append(cands, [chart.tau / zc.imag, -chart.tau / zc.imag])
    best = int(np.argmin(_closure_gaps(target, u, cands)))
    spread = max(abs(chart.tau / zc.imag) * 0.25, 2.0 * window / 4096.0)
    lo, hi = float(cands[best]) - spread, float(cands[best]) + spread
    t0 = _golden_refine(lambda t: _closure_gap(target, u, t), lo, hi, refine_tol)
    return t0, _closure_gap(target, u, t0)
