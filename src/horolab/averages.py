"""Ergodic averages along horocycles: leafwise means against the conditional
measures and against arc length, ratio, mixing and non-divergence series,
and the closure time of periodic horocycles."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    GeometryError,
    Isometry,
    UnitTangent,
    flow_scale,
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
    LimitSample,
    fixed_points,
    replayed,
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
    by construction here, not tested after the fact. Each endpoint is a
    LimitSample or a BoundaryPoint. The class follows the backward endpoint:
    a sample's own kind (radial or parabolic), else radial inside the limit
    hull and wandering outside it. A leaf coordinate so far out that the
    base point leaves floating-point range raises AveragesError.
    """
    if isinstance(minus, LimitSample):
        xi_minus, kind = minus.point, minus.kind
    else:
        xi_minus, kind = minus, "radial" if group.in_hull(minus) else "wandering"
    xi_plus = plus.point if isinstance(plus, LimitSample) else plus
    u = from_coordinates(xi_minus, xi_plus, s)
    try:
        u.base_point
    except GeometryError:
        raise AveragesError(
            "leaf coordinate %r puts the vector's base point out of floating-point range" % (s,)
        ) from None
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
    e = flow_scale(t)
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
    path, _Rows: a leaf average and a Simpson grid read the frames of their
    leaf through one _Rows per key (group, flow times), and __call__ reads
    the frame of u as the one-row leaf of u at s = 0.

    The quadratures form a sample's coordinates only where the result reads
    them: each evaluates an integrand only near its support(), the pair
    quadrature only near its direction_window() too, and the pair
    quadrature sums a ConstantFunction as its value times the cell weights,
    forming no coordinate. They sample the fundamental domain of the
    measure's group, so an integrand whose group has other half-disks
    raises MeasureError there.
    """

    def __call__(self, u: UnitTangent) -> float:
        inner, times = _peeled(self)
        x, y, theta = _Rows(inner.group, times, u, np.zeros(1)).coords(0, 1)
        return float(inner.evaluate_points(x, y, theta)[0])

    def support(self):
        """A disk (x0, y0, reach) outside which evaluate_points vanishes, the
        set (x - x0)^2 + (y - y0)^2 < reach y; None, the default, names no
        support. Both quadratures evaluate the integrand only on the grid
        cells of its window along each sampled curve, padded by a few cells;
        a disk that is not a number gives every cell. The pair quadrature
        also reads direction_window()."""
        return None

    def direction_window(self):
        """(th0, width): evaluate_points is exactly 0.0 wherever the
        direction angle theta is at least width from th0 around the circle;
        None, the default, names no such window.

        Along the geodesic of an atom pair the angle turns monotonically
        through half a turn, so the pair quadrature evaluates the integrand
        only on the leaf coordinates, at most two intervals per pair, where
        the angle is within width of th0 (see measures._pair_directions).
        The box quadrature reads no direction window: on the default ratio
        bumps every cell inside their disks is inside their windows too."""
        return None


@dataclass
class TestFunction(Integrand):
    """Smooth bump on the quotient in (base distance, angle) coordinates.

    Evaluation reduces the input to its fundamental-domain representative
    first, which makes the function invariant under the group by
    construction; the bump must therefore be centered inside the domain.

    The bump is exactly 0.0 outside its support disk and outside its
    direction window (th0, angle_width): where the wrapped angle offset dth
    has |dth| >= angle_width, (dth / angle_width)^2 >= 1, so rho2 >= 1 (or
    is NaN) and the bump takes the value 0.0 it has outside rho2 < 1. A
    square that overflows is inf, which reads as outside the bump, as it is.
    """

    group: FuchsianGroup
    center: UnitTangent
    base_width: float
    angle_width: float
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
        try:
            edge = math.cosh(self.base_width) - 1.0
        except OverflowError:
            edge = math.inf
        self._reach = 2.0 * self._y0 * (edge * (1.0 + 1e-6) + 1e-12)
        if not math.isfinite(self._reach):
            raise AveragesError("base_width %r is too wide: the reach of its support overflows" % (self.base_width,))

    def evaluate_points(self, x, y, theta):
        """Bump values at fundamental-domain coordinates (no reduction)."""
        x, y, theta = np.broadcast_arrays(x, y, theta)
        with np.errstate(over="ignore"):
            d2 = (x - self._x0) ** 2 + (y - self._y0) ** 2
        out = np.zeros(d2.shape)
        near = ~(d2 >= self._reach * y)  # NaN stays near and is computed
        d2, y = d2[near], y[near]
        dist = np.arccosh(1.0 + d2 / (2.0 * y * self._y0))
        dth = theta[near]
        dth -= self._th0
        dth += np.pi
        dth = _wrapped(dth)
        dth -= np.pi
        with np.errstate(over="ignore"):
            rho2 = (dist / self.base_width) ** 2 + (dth / self.angle_width) ** 2
        vals = np.zeros_like(rho2)
        inside = rho2 < 1.0
        vals[inside] = np.exp(1.0 - 1.0 / (1.0 - rho2[inside]))
        out[near] = vals
        return out

    def support(self):
        return (self._x0, self._y0, self._reach)

    def direction_window(self):
        return (self._th0, self.angle_width)


_TURN = 2.0 * np.pi


def _wrapped(v):
    """np.mod(v, 2 pi) bit for bit, shifting v in place by one turn where it
    lies in [-2 pi, 4 pi), as it does when theta and th0 lie in [-pi, pi]:
    v + 2 pi on [-2 pi, 0) rounds as np.mod's fmod-and-add does, v - 2 pi
    on [2 pi, 4 pi) is exact (Sterbenz), and fmod returns v itself on
    [0, 2 pi), where adding 0.0 keeps v and turns -0.0 into np.mod's 0.0.
    Any other v, a NaN among them, goes through np.mod. The shift takes
    about a quarter of np.mod's time."""
    if not (v.size and v.min() >= -_TURN and v.max() < 2.0 * _TURN):
        return np.mod(v, _TURN)
    v += np.where(v >= _TURN, -_TURN, np.where(v < 0.0, _TURN, 0.0))
    return v


@dataclass
class ConstantFunction(Integrand):
    """Constant test integrand; keeps the quadrature interfaces uniform."""

    value: float = 1.0
    label = "one"  # not a field: the name of its quadrature row
    group = None  # not a field: a constant is evaluated where the frame lies

    def evaluate_points(self, x, y, theta):
        return np.full(np.shape(x), self.value)


class ShiftedFunction(Integrand):
    """psi composed with the time-t geodesic flow; invariance is inherited.
    It carries the flow time only, which evaluation peels off (see _peeled)."""

    def __init__(self, psi, t: float):
        self.psi = psi
        self.t = t


class WeightedFunction(Integrand):
    """Pointwise product of an integrand with a base-point density, taken at
    the reduced point like every other evaluation on psi's group."""

    def __init__(self, psi, density):
        self.psi = psi
        self.group = psi.group
        self.density = density

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
    ramp: float

    def __post_init__(self):
        self._charts = [
            ch for lab, ch in sorted(self.group._parabolic_charts.items())
            if lab == ch.label
        ]

    def evaluate_points(self, x, y, theta):
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
    their nonzero flow times, outermost first, the order in which they act
    on frames. A zero flow leaves every frame bit as it is, so psi shifted
    by zero reads the unflowed store of a leaf."""
    times = []
    while isinstance(psi, ShiftedFunction):
        if psi.t != 0.0:
            times.append(psi.t)
        psi = psi.psi
    return psi, tuple(times)


class _Rows:
    """The leaf frames of u at the parameters s, on one key (group, flow
    times): each frame flowed by the times in turn and settled on the group
    (see settle_frames), or left where it lies when the group is None. Rows
    settle at their first read; the store keeps the span [lo, hi) it has
    settled, and its arrays are allocated at the first read, after the rows
    are settled, so the two peaks do not add up. A Simpson grid passes the
    _Rows of the previous grid as coarse: when that grid's nodes are its
    even nodes bit for bit, their rows are taken there and only the odd
    nodes settle, and the coarse rows are released at the first read."""

    def __init__(self, group, times, u: UnitTangent, s: np.ndarray, coarse=None):
        self.group, self.times, self.u, self.s = group, times, u, s
        if coarse is not None and s[::2].tobytes() != coarse.s.tobytes():
            coarse = None
        self.coarse = coarse
        self.frames = self.moves = None
        self.span = (0, 0)

    def coords(self, lo: int, hi: int):
        """(x, y, theta) of the rows [lo, hi) as reduce_frames gives them on
        those rows as one batch: the batch rule replayed on the settled rows
        (see replayed)."""
        self._settle(lo, hi)
        return _frame_coordinates(replayed(self.frames[lo:hi], self.moves[lo:hi]))

    def _settle(self, lo: int, hi: int) -> None:
        """Settle the rows [lo, hi) not settled yet, allocating the store at
        the first call; its temporaries end with the call."""
        a, b = self.span
        if self.frames is None:
            whole = self.coarse is not None
            new = slice(1, None, 2) if whole else slice(lo, hi)
            span = (0, len(self.s)) if whole else (lo, hi)
        elif lo < a or hi > b:
            new = np.concatenate([np.arange(lo, a), np.arange(b, hi)])
            span = (min(lo, a), max(hi, b))
        else:
            return
        frames = _leaf_frames(self.u, self.s[new])
        for t in self.times:
            frames = _flowed(frames, t)
        if self.group is None:
            moves = np.zeros(len(frames), dtype=np.int64)
        else:
            frames, moves = self.group.settle_frames(frames)
        if self.frames is None:
            self.frames = np.empty((len(self.s), 2, 2))
            self.moves = np.zeros(len(self.s), dtype=np.int64)
            if self.coarse is not None:
                self.frames[::2], self.moves[::2] = self.coarse.frames, self.coarse.moves
                self.coarse = None
        self.frames[new], self.moves[new] = frames, moves
        self.span = span


class _Leaf:
    """The leaf of a measure through u: its conditional measure, built once,
    and, per key (group, flow times) of the integrands, a store of its frames
    settled out to the largest radius asked for so far. It keeps the store
    of the measure's own group unflowed and that of the newest other key,
    which serves a radius ladder at one flow time or an integrand on another
    group object."""

    def __init__(self, u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float):
        self.key = (u.frame.entries(), hat_delta)
        self.u = u
        self.cond = conditional_on_horocycle(u, measure, hat_delta)
        self.own = (measure.group, ())
        self.stores = {}  # key -> its _Rows

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
        key = (inner.group, times)
        rows = self.stores.get(key)
        if rows is None:
            if key != self.own:
                self.stores = {k: v for k, v in self.stores.items() if k == self.own}
            rows = self.stores[key] = _Rows(*key, self.u, params)
        return float(np.sum(w * inner.evaluate_points(*rows.coords(lo, hi))) / np.sum(w))


def average_ps(
    u: UnitTangent, r: float, psi, measure: AtomicBoundaryMeasure, hat_delta: float
) -> float:
    """Mean of psi over the leaf ball of radius r against the conditional
    measure: the atom-weighted average of psi(h^s u) over |s| < r.

    The measure keeps one leaf, that of the latest (u, hat_delta): its
    conditional measure and its settled frames serve the next calls on the
    same vector and exponent, and a call on another replaces it.
    """
    leaf = measure._leaf
    if leaf is None or leaf.key != (u.frame.entries(), hat_delta):
        leaf = measure._leaf = _Leaf(u, measure, hat_delta)
    return leaf.average(r, psi)


def flow_commutation_residual(
    u: UnitTangent, radii, times, psi, measure: AtomicBoundaryMeasure, hat_delta: float
) -> np.ndarray:
    """Differences between ball averages and their flow-commuted forms.

    The mean of psi over B(u, r) equals the mean of psi composed with g^t
    over B(g^-t u, r e^-t); both sides are computed through independent
    conditional constructions, so each residual is float noise only. Entry
    (i, j) is the residual at times[i] and radii[j]. Each left side is
    computed once for all times. The right sides run time by time, the whole
    radius ladder on one leaf g^-t u, so average_ps builds each flowed leaf
    once and settles its flowed frames once, out to the largest radius.
    """
    lhs = np.array([average_ps(u, r, psi, measure, hat_delta) for r in radii])
    out = np.empty((len(times), len(lhs)))
    for i, t in enumerate(times):
        v, shifted = geodesic_flow(u, -t), ShiftedFunction(psi, t)
        rhs = [average_ps(v, r * math.exp(-t), shifted, measure, hat_delta) for r in radii]
        out[i] = np.abs(lhs - rhs)
    return out


# error bound of average_lebesgue's Simpson rule, per unit length of window
_SIMPSON_TOL = 1e-6


def average_lebesgue(u: UnitTangent, t: float, psi) -> float:
    """Arc-length mean of psi over {h^s u : |s| <= t}.

    Composite Simpson rule, refined until the classical stepwise error
    estimate meets the absolute tolerance _SIMPSON_TOL * (2t); the shipped
    bumps are resolved already at the initial step 0.05. Each halving
    settles only the new midpoints and replays the batch rule of
    reduce_frames over the whole grid (see _Rows), which gives the bits of
    reducing the grid afresh.
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
    grids = {}  # (group, flow times) -> the _Rows of its grid
    for _ in range(8):
        coords = {}
        s = np.linspace(-t, t, 2 * m + 1)
        h = s[1] - s[0]
        for k, (inner, times) in enumerate(peeled):
            if means[k] is not None:
                continue
            key = (inner.group, times)
            if key not in coords:
                grids[key] = _Rows(*key, u, s, grids.get(key))
                coords[key] = grids[key].coords(0, len(s))
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
    values = [average_ps(u, r, ShiftedFunction(psi, float(t)), measure, hat_delta) for t in times]
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
    radii = np.asarray(sorted(float(r) for r in radii))
    values = [average_ps(u, r, cap, measure, hat_delta) for r in radii]
    return AverageSeries(radii, values, 1.0)


# ------------------------------------------------------- periodic closure


def periodic_closure(
    group: FuchsianGroup, p, u: UnitTangent | None = None
) -> tuple[float, float]:
    """Closure time of the horocycle leaf centered at a parabolic fixed point.

    Returns (t0, residual). In the chart that sends the fixed point of p to
    infinity, p is the shift by tau and the leaf of u is the horizontal line
    at height h, the imaginary part of u's base point there; so h^t0(u) = p u
    at t0 = +tau/h or -tau/h, the sign set by the leaf's orientation. t0 is
    the one of the two with the smaller frame distance between p applied to
    u and h^t0(u), and the residual is that distance relative to the
    Frobenius norm of p u's frame: float noise for a leaf centered at the
    fixed point, however far it is flowed, and large for one that is not.
    When u is omitted it is built with backward endpoint at the fixed point
    of p and base point on the unit horosphere through i.
    """
    if isinstance(p, Generator):
        gen = p
    else:
        gen = group.generator(p)
    if gen.kind != "parabolic":
        raise AveragesError("closure time needs a parabolic letter, got %r" % gen.kind)
    if u is None:
        u = from_coordinates(fixed_points(gen.matrix)[0], INFINITY, 0.0)
    target = mobius_apply(gen.matrix, u)
    chart = group._parabolic_charts[gen.label]
    t = chart.tau / chart.conjugator.apply_complex(u.base_point.as_complex).imag
    scale = math.hypot(*target.frame.entries())
    gaps = [(s, frame_distance(target, horocycle_flow(u, s)) / scale) for s in (t, -t)]
    return min(gaps, key=lambda pair: pair[1])
