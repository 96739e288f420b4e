"""Upper half-plane geometry: Mobius action, Busemann cocycle, flows, leaf metric."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeometryError",
    "Isometry",
    "PlanePoint",
    "BoundaryPoint",
    "INFINITY",
    "UnitTangent",
    "ORIGIN",
    "mobius_apply",
    "hyperbolic_distance",
    "hyperbolic_midpoint",
    "busemann",
    "geodesic_between",
    "closest_point_on_geodesic",
    "flow_scale",
    "geodesic_flow",
    "horocycle_flow",
    "from_coordinates",
    "frame_point",
    "frame_angle",
    "isometry_distance",
    "frame_distance",
    "same_leaf",
    "hamenstadt_distance",
]

# relative size below which an entry is treated as zero when fixing the sign
_SIGN_TOL = 1e-9


class GeometryError(ValueError):
    """Bad geometric input: degenerate matrix, coincident endpoints, distinct leaves."""


class Isometry:
    """Orientation-preserving isometry of the upper half plane.

    Stored as a real 2x2 matrix (a, b, c, d) acting by z -> (az + b)/(cz + d).
    The determinant is renormalized to one on construction and the overall sign
    is fixed so the first entry of significant size is positive, so equal group
    elements get equal representatives.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        det = a * d - b * c
        if not det > 0.0 or not math.isfinite(det):
            raise GeometryError("matrix must have finite positive determinant, got det=%r" % (det,))
        s = 1.0 / math.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
        m = max(abs(a), abs(b), abs(c), abs(d))
        for e in (a, b, c, d):
            if abs(e) > _SIGN_TOL * m:
                if e < 0.0:
                    a, b, c, d = -a, -b, -c, -d
                break
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> float:
        """Trace of the canonical representative; only |trace| is well defined."""
        return self.a + self.d

    def __matmul__(self, other: "Isometry") -> "Isometry":
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def apply_complex(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def __call__(self, p):
        return mobius_apply(self, p)

    def __repr__(self) -> str:
        return "Isometry(%.12g, %.12g, %.12g, %.12g)" % self.entries()


@dataclass(frozen=True)
class PlanePoint:
    """Point x + iy of the open upper half plane."""

    x: float
    y: float

    def __post_init__(self):
        if not (self.y > 0.0) or not math.isfinite(self.x) or not math.isfinite(self.y):
            raise GeometryError("plane point needs finite x and y > 0, got (%r, %r)" % (self.x, self.y))

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)


@dataclass(frozen=True)
class BoundaryPoint:
    """Point of the boundary circle: a real number, or the point at infinity.

    Infinity is a chart artifact, flagged explicitly; formulas that need it are
    evaluated after moving it to a finite position with a fixed rotation rather
    than by feeding a large float through the finite-chart arithmetic.
    """

    value: float | None = None

    def __post_init__(self):
        if self.value is not None and not math.isfinite(self.value):
            raise GeometryError("boundary point must be finite or the explicit infinity flag")

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def chordal(self, other: "BoundaryPoint") -> float:
        """Chart-independent distance on the boundary circle, in [0, 2]."""
        if self.is_infinity and other.is_infinity:
            return 0.0
        if self.is_infinity or other.is_infinity:
            v = other.value if self.is_infinity else self.value
            return 2.0 / math.hypot(1.0, v)
        return 2.0 * abs(self.value - other.value) / (math.hypot(1.0, self.value) * math.hypot(1.0, other.value))

    def __repr__(self) -> str:
        return "BoundaryPoint(inf)" if self.is_infinity else "BoundaryPoint(%.12g)" % self.value


INFINITY = BoundaryPoint(None)

ORIGIN = PlanePoint(0.0, 1.0)


def mobius_apply(m: Isometry, p):
    """Apply an isometry to a PlanePoint, BoundaryPoint or UnitTangent."""
    if isinstance(p, PlanePoint):
        z = m.apply_complex(p.as_complex)
        return PlanePoint(z.real, z.imag)
    if isinstance(p, BoundaryPoint):
        if p.is_infinity:
            if m.c == 0.0:
                return INFINITY
            return BoundaryPoint(m.a / m.c)
        den = m.c * p.value + m.d
        if den == 0.0:
            return INFINITY
        return BoundaryPoint((m.a * p.value + m.b) / den)
    if isinstance(p, UnitTangent):
        return UnitTangent(m @ p.frame)
    raise GeometryError("cannot apply isometry to %r" % type(p).__name__)


def hyperbolic_distance(p: PlanePoint, q: PlanePoint) -> float:
    d2 = (p.x - q.x) ** 2 + (p.y - q.y) ** 2
    return math.acosh(1.0 + d2 / (2.0 * p.y * q.y))


def busemann(xi: BoundaryPoint, p: PlanePoint, q: PlanePoint) -> float:
    """Busemann cocycle at xi: the limit of d(p, z) - d(q, z) as z -> xi.

    Renormalized distance to the boundary point: positive when p is farther
    from xi than q. Closed form log(Im q / Im p) at infinity, transported to
    finite xi through the boundary action.
    """
    if xi.is_infinity:
        return math.log(q.y / p.y)
    t = xi.value
    return (
        math.log(q.y / p.y)
        + 2.0 * math.log(math.hypot(p.x - t, p.y))
        - 2.0 * math.log(math.hypot(q.x - t, q.y))
    )


def geodesic_between(xi_minus: BoundaryPoint, xi_plus: BoundaryPoint) -> Isometry:
    """Isometry sending (0, infinity) to the ordered endpoint pair.

    The image of the vertical axis is the geodesic from xi_minus to xi_plus,
    traversed upward.
    """
    if xi_minus.chordal(xi_plus) < 1e-13:
        raise GeometryError("geodesic endpoints must be distinct")
    if xi_plus.is_infinity:
        return Isometry(1.0, xi_minus.value, 0.0, 1.0)
    if xi_minus.is_infinity:
        return Isometry(xi_plus.value, -1.0, 1.0, 0.0)
    lo, hi = xi_minus.value, xi_plus.value
    if hi > lo:
        return Isometry(hi, lo, 1.0, 1.0)
    return Isometry(hi, -lo, 1.0, -1.0)


def hyperbolic_midpoint(p: PlanePoint, q: PlanePoint) -> PlanePoint:
    """Midpoint of the geodesic segment from p to q."""
    if p.x == q.x and p.y == q.y:
        return p
    if abs(p.x - q.x) < 1e-14 * (abs(p.x) + p.y + q.y):
        return PlanePoint(0.5 * (p.x + q.x), math.sqrt(p.y * q.y))
    # endpoints of the circle through p, q orthogonal to the real axis
    c = (abs(q.as_complex) ** 2 - abs(p.as_complex) ** 2) / (2.0 * (q.x - p.x))
    r = math.hypot(p.x - c, p.y)
    m = geodesic_between(BoundaryPoint(c - r), BoundaryPoint(c + r))
    mi = m.inverse()
    yp = mi.apply_complex(p.as_complex).imag
    yq = mi.apply_complex(q.as_complex).imag
    return mobius_apply(m, PlanePoint(0.0, math.sqrt(yp * yq)))


def closest_point_on_geodesic(xi_minus: BoundaryPoint, xi_plus: BoundaryPoint, p: PlanePoint) -> PlanePoint:
    """Orthogonal projection of p onto the geodesic with the given endpoints."""
    m = geodesic_between(xi_minus, xi_plus)
    w = m.inverse().apply_complex(p.as_complex)
    return mobius_apply(m, PlanePoint(0.0, abs(w)))


@dataclass(frozen=True)
class UnitTangent:
    """Unit tangent vector of the half plane, identified with a frame.

    The frame g places the vector at base point g(i), pointing along the
    geodesic from the backward endpoint g(0) to the forward endpoint
    g(infinity). The identity frame sits at i pointing straight up.
    """

    frame: Isometry

    @property
    def base_point(self) -> PlanePoint:
        g = self.frame
        return PlanePoint(*frame_point(g.a, g.b, g.c, g.d))

    @property
    def minus(self) -> BoundaryPoint:
        """Backward endpoint of the tangent geodesic."""
        g = self.frame
        if g.d == 0.0:
            return INFINITY
        return BoundaryPoint(g.b / g.d)

    @property
    def plus(self) -> BoundaryPoint:
        """Forward endpoint of the tangent geodesic."""
        g = self.frame
        if g.c == 0.0:
            return INFINITY
        return BoundaryPoint(g.a / g.c)

    @property
    def busemann_coordinate(self) -> float:
        """Signed height along the tangent geodesic: busemann(minus, base, i)."""
        return busemann(self.minus, self.base_point, ORIGIN)

    @property
    def direction_angle(self) -> float:
        """Angle of the vector in the flat chart, in (-pi, pi]."""
        g = self.frame
        # push the upward vector i at i through the frame derivative 1/(cz+d)^2
        # (not frame_angle, which rounds differently and would move bump centers)
        w = 1j / complex(g.c * 1j + g.d) ** 2
        return cmath.phase(w)

    @classmethod
    def identity(cls) -> "UnitTangent":
        return cls(Isometry.identity())


def frame_point(a, b, c, d):
    """Base point (x, y) of the frame [[a, b], [c, d]], the image of i.

    Plain arithmetic, so entries may be floats or numpy arrays alike.
    """
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den


def frame_angle(c, d):
    """Direction angle in the flat chart, arg(i / (ci + d)^2), vectorized."""
    return np.arctan2(d * d - c * c, 2.0 * c * d)


def flow_scale(t: float) -> float:
    """e^(t/2), by which the time-t geodesic flow scales a frame's first
    column while it divides the second. GeometryError naming t when e^(t/2)
    or e^(-t/2) is not a finite nonzero float."""
    try:
        e = math.exp(0.5 * t)
    except OverflowError:
        e = math.inf
    if not (0.0 < e < math.inf and 1.0 / e < math.inf):
        raise GeometryError("geodesic flow time %r is outside floating-point range" % (t,))
    return e


def geodesic_flow(u: UnitTangent, t: float) -> UnitTangent:
    """Slide the vector distance t along its own geodesic, toward the forward endpoint."""
    e = flow_scale(t)
    g = u.frame
    return UnitTangent(Isometry(g.a * e, g.b / e, g.c * e, g.d / e))


def horocycle_flow(u: UnitTangent, s: float) -> UnitTangent:
    """Slide the vector arc length s along the expanding horocycle of its backward endpoint."""
    g = u.frame
    return UnitTangent(Isometry(g.a + g.b * s, g.b, g.c + g.d * s, g.d))


def from_coordinates(xi_minus: BoundaryPoint, xi_plus: BoundaryPoint, s: float) -> UnitTangent:
    """Unique vector with the given endpoints and signed height s along its geodesic.

    The height convention matches UnitTangent.busemann_coordinate: s is the
    Busemann cocycle of the base point against i, seen from the backward
    endpoint.
    """
    m0 = geodesic_between(xi_minus, xi_plus)
    u0 = UnitTangent(m0)
    return geodesic_flow(u0, s - u0.busemann_coordinate)


def isometry_distance(m: Isometry, n: Isometry) -> float:
    """Frobenius distance between canonical representatives, minimized over sign."""
    am, bm, cm, dm = m.entries()
    an, bn, cn, dn = n.entries()
    plus = math.sqrt((am - an) ** 2 + (bm - bn) ** 2 + (cm - cn) ** 2 + (dm - dn) ** 2)
    minus = math.sqrt((am + an) ** 2 + (bm + bn) ** 2 + (cm + cn) ** 2 + (dm + dn) ** 2)
    return min(plus, minus)


def frame_distance(u: UnitTangent, v: UnitTangent) -> float:
    return isometry_distance(u.frame, v.frame)


def same_leaf(u: UnitTangent, v: UnitTangent, tol: float = 1e-9) -> bool:
    """Whether v lies on the expanding horocycle leaf of u.

    Requires matching backward endpoints and vanishing Busemann cocycle of the
    two base points at that endpoint.
    """
    if u.minus.chordal(v.minus) > tol:
        return False
    return abs(busemann(u.minus, u.base_point, v.base_point)) <= tol


# how far off one leaf two vectors may be for hamenstadt_distance (same_leaf)
_LEAF_TOL = 1e-6


def hamenstadt_distance(u: UnitTangent, v: UnitTangent) -> float:
    """Leaf metric on an expanding horocycle.

    For two vectors on one leaf, the distance is exp of the mean of the two
    Busemann cocycles beta_{u+}(x, base u) and beta_{v+}(x, base v), with x any
    point of the geodesic joining the forward endpoints; the mean is what makes
    the choice of x immaterial. Equals the flow parameter separating the
    vectors along the leaf, and dilates by e^t under the geodesic flow.
    """
    if not same_leaf(u, v, _LEAF_TOL):
        raise GeometryError("leaf distance needs two vectors on one horocycle leaf")
    if u.plus.chordal(v.plus) < 1e-13:
        return 0.0
    x = closest_point_on_geodesic(u.plus, v.plus, hyperbolic_midpoint(u.base_point, v.base_point))
    return math.exp(0.5 * busemann(u.plus, x, u.base_point) + 0.5 * busemann(v.plus, x, v.base_point))
