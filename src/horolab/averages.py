"""Ergodic averages along horocycles: leafwise means against the conditional
measures, arc length and weighted Haar densities, mixing and non-divergence
series, and the closure time of periodic horocycles."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    INFINITY,
    BoundaryPoint,
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
    "HaarDensity",
    "AverageSeries",
    "VectorClass",
    "pointed_frame",
    "build_vector",
    "average_ps",
    "flow_commutation_residual",
    "average_lebesgue",
    "average_haar",
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


def _frame_coordinates(frames: np.ndarray):
    """(x, y, theta) of a stack of frames (n, 2, 2)."""
    a, b, c, d = frames.reshape(-1, 4).T
    x, y = frame_point(a, b, c, d)
    return x, y, frame_angle(c, d)


class Integrand:
    """Shared entry points of the test-function protocol.

    An integrand defines evaluate_points(x, y, theta) on fundamental-domain
    coordinates, which the quadratures call directly. evaluate_frames
    reduces a stack of frames once and then evaluates; a single vector goes
    through __call__. Leaf averages of an integrand that keeps this
    evaluate_frames settle the leaf frames once on its group and call
    evaluate_points; an integrand that overrides it gets the frames.
    """

    def evaluate_frames(self, mats):
        return self.evaluate_points(*_frame_coordinates(self.group.reduce_frames(mats)))

    def __call__(self, u: UnitTangent) -> float:
        return float(self.evaluate_frames(np.reshape(u.frame.entries(), (1, 2, 2)))[0])


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


@dataclass
class ConstantFunction(Integrand):
    """Constant test integrand; keeps the quadrature interfaces uniform."""

    value: float = 1.0
    label: str = "one"

    def evaluate_points(self, x, y, theta):
        return np.full(np.shape(x), self.value)

    def evaluate_frames(self, mats):
        return np.full(len(mats), self.value)


class ShiftedFunction(Integrand):
    """psi composed with the time-t geodesic flow; invariance is inherited."""

    def __init__(self, psi, t: float):
        self.psi = psi
        self.t = t
        self.label = "%s.g%g" % (getattr(psi, "label", "psi"), t)

    def evaluate_frames(self, mats):
        mats = np.asarray(mats, dtype=float)
        e = math.exp(0.5 * self.t)
        flowed = np.empty_like(mats)
        flowed[:, :, 0] = mats[:, :, 0] * e
        flowed[:, :, 1] = mats[:, :, 1] / e
        return self.psi.evaluate_frames(flowed)


class WeightedFunction(Integrand):
    """Pointwise product of an integrand with a base-point density."""

    def __init__(self, psi, density, label: str = "weighted"):
        self.psi = psi
        self.density = density
        self.label = label

    def evaluate_points(self, x, y, theta):
        return self.psi.evaluate_points(x, y, theta) * self.density(x, y)

    def evaluate_frames(self, mats):
        # on a leaf the density weighs the point itself, not its reduced image
        mats = np.asarray(mats, dtype=float)
        vals = self.psi.evaluate_frames(mats)
        x, y = frame_point(*mats.reshape(-1, 4).T)
        return vals * self.density(x, y)


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
class HaarDensity:
    """Leafwise averaging density: arc length, the conditional measure, or a
    strictly positive continuous weight of the base point."""

    choice: str = "constant"
    measure: AtomicBoundaryMeasure | None = None
    exponent: float | None = None
    density: object = None

    def __post_init__(self):
        if self.choice not in ("constant", "ps", "weighted"):
            raise AveragesError("unknown Haar density choice %r" % (self.choice,))
        if self.choice == "ps" and (self.measure is None or self.exponent is None):
            raise AveragesError("ps density needs a measure and an exponent")
        if self.choice == "weighted" and self.density is None:
            raise AveragesError("weighted density needs a density callable")


@dataclass
class AverageSeries:
    """A family of leaf averages over growing windows, with its limit estimate."""

    abscissae: np.ndarray
    values: np.ndarray
    reference: float
    experiment_id: str = ""
    seed: int | None = None

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


def _settling_group(psi):
    # the group psi reduces its frames on before it evaluates the points, or
    # None when psi evaluates frames its own way
    if type(psi).evaluate_frames is Integrand.evaluate_frames:
        return psi.group
    return None


class _Leaf:
    """One leaf of a measure: its conditional measure, built once, and its
    frames settled row by row out to the largest radius asked for so far.

    Each settled row keeps its moves count and the (x, y, theta) of both the
    settled frame and that frame renormalized once, so a ball average
    replays the batch rule of reduce_frames over its own rows exactly.
    """

    def __init__(self, u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float):
        self.u = u
        self.group = measure.group
        self.cond = conditional_on_horocycle(u, measure, hat_delta)
        self.dist = np.abs(self.cond.params)
        n = len(self.dist)
        self.reach = 0.0
        self.moves = np.zeros(n, dtype=np.int64)
        self.plain = np.empty((3, n))
        self.once = np.empty((3, n))

    def _settle(self, r: float) -> None:
        if r <= self.reach:
            return
        rows = np.flatnonzero((self.dist < r) & (self.dist >= self.reach))
        settled, moves = self.group.settle_frames(_leaf_frames(self.u, self.cond.params[rows]))
        self.moves[rows] = moves
        self.plain[:, rows] = _frame_coordinates(settled)
        self.once[:, rows] = _frame_coordinates(renormalized(settled))
        self.reach = r

    def average(self, r: float, psi) -> float:
        """Mean over the leaf ball {h^s u : |s| < r}."""
        if not r > 0:
            raise AveragesError("horoball radius must be positive")
        sel = self.dist < r
        if not sel.any():
            raise AveragesError("no conditional atoms inside radius %g" % r)
        lw = self.cond.log_weights[sel]
        w = np.exp(lw - np.max(lw))
        if _settling_group(psi) is self.group:
            self._settle(r)
            moves = self.moves[sel]
            x, y, theta = np.where(moves < moves.max(), self.once[:, sel], self.plain[:, sel])
            vals = psi.evaluate_points(x, y, theta)
        else:
            vals = psi.evaluate_frames(_leaf_frames(self.u, self.cond.params[sel]))
        return float(np.sum(w * vals) / np.sum(w))


# leaves a measure keeps: a ball average and its flow-commuted form alternate
# between two leaves
_LEAF_MEMO = 2


def _leaf(u: UnitTangent, measure: AtomicBoundaryMeasure, hat_delta: float) -> _Leaf:
    """The measure's leaf through u, most recently used last in its memo."""
    key = (u.frame.entries(), hat_delta)
    memo = measure._leaves
    leaf = memo.pop(key, None)
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
    u: UnitTangent, r: float, t: float, psi, measure: AtomicBoundaryMeasure, hat_delta: float
) -> float:
    """Difference between the ball average and its flow-commuted form.

    The mean of psi over B(u, r) equals the mean of psi composed with g^t
    over B(g^-t u, r e^-t); both sides are computed through independent
    conditional constructions, so the residual is float noise only.
    """
    lhs = average_ps(u, r, psi, measure, hat_delta)
    rhs = average_ps(
        geodesic_flow(u, -t), r * math.exp(-t), ShiftedFunction(psi, t), measure, hat_delta
    )
    return abs(lhs - rhs)


def _settle_grid(group: FuchsianGroup, u: UnitTangent, s: np.ndarray, prev):
    """(s, settled, moves) of the leaf frames at the nodes s. When the nodes
    of the previous triple are bit for bit the even nodes of s, only the odd
    nodes are settled."""
    if prev is None or s[::2].tobytes() != prev[0].tobytes():
        return (s,) + group.settle_frames(_leaf_frames(u, s))
    mid, mid_moves = group.settle_frames(_leaf_frames(u, s[1::2]))
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
    if not t > 0:
        raise AveragesError("window must be positive")
    m = max(4, int(math.ceil(2.0 * t / 0.1)))
    coarse = None
    group = _settling_group(psi)
    grid = None
    for _ in range(8):
        s = np.linspace(-t, t, 2 * m + 1)
        if group is not None:
            grid = _settle_grid(group, u, s, grid)
            f = psi.evaluate_points(*_frame_coordinates(replayed(*grid[1:])))
        else:
            f = psi.evaluate_frames(_leaf_frames(u, s))
        h = s[1] - s[0]
        integral = (h / 3.0) * (
            f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2])
        )
        if coarse is not None and abs(integral - coarse) / 15.0 <= _SIMPSON_TOL * 2.0 * t:
            return float(integral / (2.0 * t))
        coarse = integral
        m *= 2
    return float(integral / (2.0 * t))


def average_haar(u: UnitTangent, r: float, psi, alpha: HaarDensity) -> float:
    """Leaf mean against the chosen Haar density over the radius-r ball."""
    if alpha.choice == "constant":
        return average_lebesgue(u, r, psi)
    if alpha.choice == "ps":
        return average_ps(u, r, psi, alpha.measure, alpha.exponent)
    num = average_lebesgue(u, r, WeightedFunction(psi, alpha.density))
    den = average_lebesgue(u, r, WeightedFunction(ConstantFunction(), alpha.density))
    if den == 0.0:
        raise AveragesError("weighted density integrated to zero")
    return num / den


def ratio_series(
    u: UnitTangent,
    psi,
    phi,
    radii,
    alpha: HaarDensity,
) -> AverageSeries:
    """Ratios of leaf means of two test functions over growing balls.

    The reference is the ratio of the corresponding invariant-measure
    integrals: the horocycle-invariant (transverse times arc length)
    estimator for arc-length densities, and the product-form estimator for
    the conditional density.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    pairs = [
        (average_haar(u, r, psi, alpha), average_haar(u, r, phi, alpha)) for r in radii
    ]
    if pairs[-1][1] == 0.0:
        raise AveragesError("denominator average vanishes at the largest radius")
    if any(den == 0.0 for _, den in pairs):
        raise AveragesError("denominator average vanishes inside the series")
    values = [num / den for num, den in pairs]
    if alpha.choice == "ps":
        ref = ps_integral(psi, alpha.measure, alpha.exponent) / ps_integral(
            phi, alpha.measure, alpha.exponent
        )
    else:
        if alpha.measure is None or alpha.exponent is None:
            raise AveragesError("reference ratio needs a measure and an exponent")
        top = psi if alpha.choice == "constant" else WeightedFunction(psi, alpha.density)
        bot = phi if alpha.choice == "constant" else WeightedFunction(phi, alpha.density)
        ref = br_integral(top, alpha.measure, alpha.exponent) / br_integral(
            bot, alpha.measure, alpha.exponent
        )
    return AverageSeries(radii, values, ref, "ratio")


def mixing_series(
    u: UnitTangent,
    r: float,
    psi,
    times,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    experiment_id: str = "mixing",
    seed: int | None = None,
) -> AverageSeries:
    """Ball averages of psi pushed by the geodesic flow at a fixed radius.

    The t-th value is the mean of psi o g^t over B(u, r); the series tends
    to the invariant integral of psi as the flow stretches the ball across
    the non-wandering set.
    """
    leaf = _leaf(u, measure, hat_delta)
    values = [leaf.average(r, ShiftedFunction(psi, float(t))) for t in times]
    ref = ps_integral(psi, measure, hat_delta)
    return AverageSeries(np.asarray(times, dtype=float), values, ref, experiment_id, seed)


def mass_in_compact(
    u: UnitTangent,
    radii,
    k_height: float,
    measure: AtomicBoundaryMeasure,
    hat_delta: float,
    ramp: float = 0.1,
    experiment_id: str = "nondiv",
    seed: int | None = None,
) -> AverageSeries:
    """Fraction of the ball average captured below a cusp-height cap.

    Values are leaf means of the smoothed thick-part indicator; for a group
    without cusps the indicator is identically one and so is the series.
    """
    cap = CuspHeightCap(measure.group, k_height, ramp)
    leaf = _leaf(u, measure, hat_delta)
    radii = np.asarray(sorted(float(r) for r in radii))
    values = [leaf.average(r, cap) for r in radii]
    return AverageSeries(radii, values, 1.0, experiment_id, seed)


# ------------------------------------------------------- periodic closure


def _closure_gap(target: UnitTangent, u: UnitTangent, t: float) -> float:
    return frame_distance(target, horocycle_flow(u, t))


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
    The closed-form seed tau / Im(chart height) is refined by golden
    section inside the window |t| <= 10 e^{|leaf coordinate|}.
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
    cands = list(np.linspace(-window, window, 4097))
    if zc.imag > 0:
        cands.extend([chart.tau / zc.imag, -chart.tau / zc.imag])
    gaps = [_closure_gap(target, u, t) for t in cands]
    best = int(np.argmin(gaps))
    spread = max(abs(chart.tau / zc.imag) * 0.25, 2.0 * window / 4096.0)
    lo, hi = cands[best] - spread, cands[best] + spread
    t0 = _golden_refine(lambda t: _closure_gap(target, u, t), lo, hi, refine_tol)
    return t0, _closure_gap(target, u, t0)
