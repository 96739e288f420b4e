"""Built-in example groups with calibrated enumeration radii, and the one
loader that builds every experiment's and check's inputs from them."""

from __future__ import annotations

import functools
import math
import os

from .geometry import Isometry
from .groups import (
    FuchsianGroup,
    Generator,
    GroupError,
    WordSpec,
    critical_exponent,
    parse_group_file,
    sample_limit_point,
)
from .measures import PattersonConfig, build_patterson
from .averages import TestFunction, build_vector, pointed_frame

__all__ = [
    "schottky_group",
    "cusped_group",
    "unit_parabolic_group",
    "resolve_group",
    "BUILTIN_NAMES",
    "EXPONENT_RADIUS",
    "PATTERSON_RADIUS",
    "DEFECT_LADDER",
    "EXPERIMENT_PERIODS",
    "DEFAULT_BUMPS",
    "RATIO_BUMPS",
    "BUMP_WIDTHS",
    "MIXING_LEAF_COORDINATE",
    "MIXING_BALL_RADIUS",
    "CLOSURE_DILATIONS",
    "NONDIV_HEIGHT",
    "EQUIDIST_RADII",
    "MIXING_TIMES",
    "KNOWN_EXPONENTS",
    "FIT_GRID_STEP",
    "builtin_name",
    "Loader",
]


def _interval_pair(label: str, center: float, radius: float):
    """Hyperbolic letter pairing the boundary intervals [c-r, c+r] and
    [-c-r, -c+r].

    The matrix [[c/r, (c^2-r^2)/r], [1/r, c/r]] sends the exterior of the
    mirror interval's half-disk onto the interior over [c-r, c+r].
    """
    m = Isometry(center / radius, (center * center - radius * radius) / radius,
                 1.0 / radius, center / radius)
    return [
        Generator(label, m, "hyperbolic", (center - radius, center + radius)),
        Generator(label.swapcase(), m.inverse(), "hyperbolic", (-center - radius, -center + radius)),
    ]


def schottky_group() -> FuchsianGroup:
    """Free rank-two group of two interval pairings, no cusps.

    Growth exponent near 0.433; counting to radius 20 costs about 25k words.
    """
    return FuchsianGroup(
        _interval_pair("a", 2.0, 1.0) + _interval_pair("b", 5.0, 1.5),
        name="schottky",
    )


def cusped_group() -> FuchsianGroup:
    """Rank-two group with one cusp: a parabolic pair tangent at 0 plus an
    interval pairing. Growth exponent near 0.647.
    """
    par = Isometry(1.0, 0.0, -4.0, 1.0)
    letters = [
        Generator("p", par, "parabolic", (-0.5, 0.0)),
        Generator("P", par.inverse(), "parabolic", (0.0, 0.5)),
    ]
    return FuchsianGroup(letters + _interval_pair("b", 1.5, 0.7), name="cusped")


def unit_parabolic_group() -> FuchsianGroup:
    """Cyclic group of one unit parabolic, fixed point 0.

    Conjugate to the integer translation group with the conjugacy fixing the
    base point, so orbit counts match the horizontal shift exactly and the
    growth exponent is 1/2.
    """
    par = Isometry(1.0, 0.0, -1.0, 1.0)
    return FuchsianGroup(
        [
            Generator("p", par, "parabolic", (-2.0, 0.0)),
            Generator("P", par.inverse(), "parabolic", (0.0, 2.0)),
        ],
        name="unit-parabolic",
    )


# each builtin group's constructor, by the name a group spec gives it
_BUILTINS = {"schottky": schottky_group, "cusped": cusped_group, "unit-parabolic": unit_parabolic_group}
BUILTIN_NAMES = tuple(_BUILTINS)

# counting radii giving >= 1000 orbit points at modest enumeration cost
EXPONENT_RADIUS = {"schottky": 20.0, "cusped": 14.0, "unit-parabolic": 30.0}

# displacement prune for boundary-measure construction at word cutoff 14.
# The schottky radius is deep on purpose: the equidistribution experiments
# restrict to horocycle balls and need fine atom resolution near the leaf's
# backward point.
PATTERSON_RADIUS = {"schottky": 22.0, "cusped": 14.0, "unit-parabolic": 16.0}

# (cutoff, radius) ladder for the conformality-defect trend: the radius grows
# with the cutoff so the extra word length actually adds atoms instead of
# being swallowed by the displacement prune.
DEFECT_LADDER = {
    "schottky": ((10, 14.0), (12, 16.0), (14, 18.0)),
    "cusped": ((10, 10.0), (12, 11.0), (14, 12.0)),
}

# long mixed periods give limit points off every short closed geodesic, so
# the horocycle leaf through them wanders early instead of tracing one axis
EXPERIMENT_PERIODS = {
    "schottky": (
        ("a", "b", "A", "b", "a", "B", "a", "b"),
        ("B", "A", "b", "A", "B", "a", "B", "A"),
    ),
    "cusped": (
        ("b", "p", "B", "p", "b", "P", "b", "p"),
        ("B", "P", "b", "P", "B", "p", "B", "P"),
    ),
}

# calibrated bump centers (x, y, angle); ball averages at e^2..e^6 settle
# within a fifth of the quadrature value for these
DEFAULT_BUMPS = {
    "schottky": (
        (0.0, 1.4, 0.0),
        (0.0, 1.7, 1.57),
        (3.25, 0.6, 0.0),
    ),
    "cusped": (
        (-2.4, math.exp(-0.9), -5.0 * math.pi / 8.0),
        (-2.8, math.exp(-0.6), -5.0 * math.pi / 8.0),
    ),
}

# numerator / denominator pair for the arc-length ratio experiment
RATIO_BUMPS = DEFAULT_BUMPS["cusped"]

BUMP_WIDTHS = (1.2, 1.8)

# starting leaf coordinate for the mixing run: the unit ball flowed to t = 6
# then covers the same comb window as the e^6 equidistribution ball
MIXING_LEAF_COORDINATE = -6.0

# the leaf-ball radius of the mixing averages and the flow times by which
# the closure run dilates its leaf, in the CLI and the battery alike
MIXING_BALL_RADIUS = 1.0
CLOSURE_DILATIONS = (0.5, 1.0, 2.0)

# cusp-height cap for the non-divergence experiment (compact mass >= 0.8)
NONDIV_HEIGHT = 6.0

# count-grid step of every exponent fit a Loader makes; the `exponent`
# experiment's grid_step key overrides it there
FIT_GRID_STEP = 0.5

EQUIDIST_RADII = (math.e ** 2, math.e ** 4, math.e ** 6)

MIXING_TIMES = tuple(0.5 * k for k in range(13))

# growth rates of the shipped groups at the radii above, as measured by the
# exponent experiment; the rank-one parabolic value is exact. These seed the
# boundary-measure commands so a plain run needs no counting pass first.
KNOWN_EXPONENTS = {
    "schottky": 0.4322791205538202,
    "cusped": 0.646822563859683,
    "unit-parabolic": 0.5,
}


def builtin_name(spec: str) -> str | None:
    """The builtin key a group spec refers to, or None for file paths."""
    name = spec.removeprefix("builtin:")
    return name if name in _BUILTINS else None


def resolve_group(spec: str) -> FuchsianGroup:
    """Group from 'builtin:<name>', a bare builtin name, or a definition file path."""
    name = builtin_name(spec)
    if name is not None:
        return _BUILTINS[name]()
    if spec.startswith("builtin:"):
        raise GroupError(
            "unknown builtin group %r; have %s" % (spec.removeprefix("builtin:"), ", ".join(BUILTIN_NAMES))
        )
    if os.path.exists(spec):
        return parse_group_file(spec)
    raise GroupError("no builtin group or file named %r" % spec)


# a Loader's default radius: PATTERSON_RADIUS, which None (no prune) cannot mark
_OWN_RADIUS = object()


class Loader:
    """The inputs of runs on one group, each built once, when first asked for.

    Construction only resolves the group, so a caller can check every other
    setting before anything is enumerated. The exponent source is
    `exponent`: "frozen" reads KNOWN_EXPONENTS, "fit" fits
    critical_exponent at `fit_radius` (EXPONENT_RADIUS by default) on the
    FIT_GRID_STEP grid, and a number is used as given. `cutoff` and `radius`
    set the run's own measure; the cutoff defaults to 14 on a group of rank
    two or more and to 50 on a cyclic one, the radius to PATTERSON_RADIUS,
    and None means no prune. Measures are cached per (cutoff, radius), vectors
    per (periods, leaf coordinate) and bumps per (centers, widths).
    """

    def __init__(self, spec, exponent="frozen", fit_radius=None, cutoff=None, radius=_OWN_RADIUS):
        self.spec = spec
        self.builtin = builtin_name(spec)
        self.group = resolve_group(spec)
        if exponent not in ("frozen", "fit"):
            self.exponent = float(exponent)  # fills the cached property below
            exponent = "given"
        self.exponent_source = exponent
        self.fit_radius = EXPONENT_RADIUS.get(self.builtin) if fit_radius is None else fit_radius
        # a cyclic group has only its 2n powers of length at most n, so
        # build_patterson's minimum of 100 atoms needs n = 50
        self.cutoff = (14 if self.group.rank >= 2 else 50) if cutoff is None else cutoff
        self.radius = PATTERSON_RADIUS.get(self.builtin) if radius is _OWN_RADIUS else radius
        self._measures = {}
        self._vectors = {}
        self._bumps = {}

    @functools.cached_property
    def exponent(self) -> float:
        if self.exponent_source == "frozen":
            if self.builtin is None:
                raise GroupError("group %s has no frozen exponent" % self.spec)
            return KNOWN_EXPONENTS[self.builtin]
        if self.fit_radius is None:
            raise GroupError("group %s has no default fit radius" % self.spec)
        return critical_exponent(self.group, t_max=self.fit_radius, grid_step=FIT_GRID_STEP).delta

    def measure(self, cutoff=None, radius=None):
        """Patterson measure at (cutoff, radius); the run's own without a cutoff."""
        key = (self.cutoff, self.radius) if cutoff is None else (cutoff, radius)
        if key not in self._measures:
            self._measures[key] = build_patterson(self.group, PattersonConfig(self.exponent, *key))
        return self._measures[key]

    def vector(self, minus=None, plus=None, s=0.0):
        """Vector at leaf coordinate s from the limit points of two periodic
        words, with its manifest witness.

        Each period is a string of letters, an int seed for a random reduced
        word (seeded as given), or None for the group's EXPERIMENT_PERIODS.
        """
        key = (minus, plus, s)
        if key not in self._vectors:
            points = []
            witness = {"leaf_coordinate": s}
            for slot, (name, period) in enumerate((("minus", minus), ("plus", plus))):
                if period is None:
                    period = " ".join(EXPERIMENT_PERIODS[self.builtin][slot])
                if isinstance(period, int):
                    word, period = WordSpec.random(self.group, period), "random(seed %d)" % period
                else:
                    word = WordSpec(period=tuple(period.split()))
                points.append(sample_limit_point(self.group, word))
                witness[name + "_period"] = period
                witness[name + "_point"] = float(points[-1].point.value)
            u, cls = build_vector(self.group, *points, s=s)
            witness["vector_class"] = cls.value
            self._vectors[key] = (u, witness)
        return self._vectors[key]

    def bumps(self, centers=None, widths=BUMP_WIDTHS):
        """Bumps psi1, psi2, ... at (x, y, angle) centers, DEFAULT_BUMPS by default."""
        if centers is None:
            centers = DEFAULT_BUMPS[self.builtin]
        key = (tuple(map(tuple, centers)), tuple(widths))
        if key not in self._bumps:
            wb, wa = widths
            self._bumps[key] = [
                TestFunction(self.group, pointed_frame(*cd), base_width=wb, angle_width=wa,
                             label="psi%d" % (k + 1))
                for k, cd in enumerate(centers)
            ]
        return self._bumps[key]

    def manifest(self, witness=None) -> dict:
        """Manifest fields of a run on the loader's own measure, plus its
        vector's witness when the run has one."""
        fields = {
            "group": self.spec,
            "exponent": self.exponent,
            "exponent_source": self.exponent_source,
            "cutoff": self.cutoff,
            "radius": self.radius,
        }
        if witness is not None:
            fields["vector"] = witness
        return fields
