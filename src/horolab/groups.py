"""Finitely generated free Fuchsian groups given by ping-pong data on the boundary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    ORIGIN,
    BoundaryPoint,
    Isometry,
    UnitTangent,
    frame_point,
    from_coordinates,
    isometry_distance,
    mobius_apply,
)

__all__ = [
    "GroupError",
    "Generator",
    "Word",
    "FuchsianGroup",
    "OrbitCount",
    "ExponentFit",
    "WordSpec",
    "LimitSample",
    "classify_kind",
    "fixed_points",
    "orbit_count",
    "poincare_series",
    "critical_exponent",
    "check_parabolic_growth",
    "sample_limit_point",
    "tangent_from_samples",
    "parse_group_text",
    "parse_group_file",
    "dumps_group",
    "reset_word_counter",
    "enumerated_word_count",
]

_KIND_TOL = 1e-10

# Extending a reduced word may shorten the displacement by a little before the
# ping-pong contraction takes over again, so breadth-first pruning keeps a
# margin above the requested radius and filters exactly afterwards.
_PRUNE_SLACK = 2.0

# rows per matmul when a level's children are formed, which bounds the
# gathered parent and letter stacks on wide levels
_CHILD_CHUNK = 16384

# global tally of words materialized by breadth-first enumeration, for run manifests
_enumerated_words = 0


def reset_word_counter() -> None:
    global _enumerated_words
    _enumerated_words = 0


def enumerated_word_count() -> int:
    return _enumerated_words


def _charge_words(n: int) -> None:
    global _enumerated_words
    _enumerated_words += int(n)


class GroupError(ValueError):
    """Invalid group data: failed ping-pong checks, bad files, degenerate input."""


def _determinants(frames: np.ndarray) -> np.ndarray:
    return frames[:, 0, 0] * frames[:, 1, 1] - frames[:, 0, 1] * frames[:, 1, 0]


def renormalized(frames: np.ndarray) -> np.ndarray:
    """Frames (n, 2, 2) divided by the square roots of their determinants."""
    return frames / np.sqrt(_determinants(frames))[:, None, None]


def replayed(settled: np.ndarray, moves: np.ndarray) -> np.ndarray:
    """The batch rule of reduce_frames applied to rows settled one by one
    (see FuchsianGroup.settle_frames): rows that moved fewer rounds than the
    most in the batch are renormalized once more. Returns a new array."""
    once = moves < moves.max(initial=0)
    # dividing the other rows by one leaves them exact
    scale = np.sqrt(_determinants(settled), out=np.ones(len(moves)), where=once)
    return settled / scale[:, None, None]


def classify_kind(m: Isometry, tol: float = _KIND_TOL) -> str:
    t = abs(m.trace)
    if t > 2.0 + tol:
        return "hyperbolic"
    if t >= 2.0 - tol:
        return "parabolic"
    raise GroupError("elliptic element (|trace| = %.17g < 2) has no boundary dynamics here" % t)


def fixed_points(m: Isometry) -> tuple[BoundaryPoint, BoundaryPoint | None]:
    """Boundary fixed points of a nonelliptic element.

    Returns (attracting, repelling); the repelling slot is None for a
    parabolic, whose single fixed point is neutral. The attracting point is
    the one where the boundary derivative has modulus below one.
    """
    kind = classify_kind(m, tol=1e-8)
    a, b, c, d = m.entries()
    if c == 0.0:
        if kind == "parabolic":
            if b == 0.0:
                raise GroupError("identity has no fixed point dynamics")
            return INFINITY, None
        finite = BoundaryPoint(b / (d - a))
        if abs(a) > abs(d):
            return INFINITY, finite
        return finite, INFINITY
    if kind == "parabolic":
        return BoundaryPoint((a - d) / (2.0 * c)), None
    disc = math.sqrt(max((a - d) ** 2 + 4.0 * b * c, 0.0))
    r1 = BoundaryPoint(((a - d) + disc) / (2.0 * c))
    r2 = BoundaryPoint(((a - d) - disc) / (2.0 * c))
    # attracting root: |derivative| = 1/(c z + d)^2 < 1
    if abs(c * r1.value + d) > 1.0:
        return r1, r2
    return r2, r1


def _displacement_from_entries(a, b, c, d):
    # d(i, m(i)) via cosh d = (a^2+b^2+c^2+d^2)/2 for determinant-one matrices
    s = 0.5 * (a * a + b * b + c * c + d * d)
    return np.arccosh(np.maximum(s, 1.0))


@dataclass(frozen=True)
class Generator:
    """One group letter: a matrix with its ping-pong target interval.

    The domain is the closed boundary interval the letter maps everything
    outside its inverse's domain into. Inverse letters are separate Generator
    entries whose label is the swapped-case partner.
    """

    label: str
    matrix: Isometry
    kind: str
    domain: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise GroupError("domain of %r must be a finite interval lo < hi" % self.label)
        if self.kind not in ("hyperbolic", "parabolic"):
            raise GroupError("generator kind must be hyperbolic or parabolic, got %r" % self.kind)
        if len(self.label) != 1 or not self.label.isalpha():
            raise GroupError("labels are single letters, got %r" % self.label)

    @property
    def inverse_label(self) -> str:
        return self.label.swapcase()

    @property
    def center(self) -> float:
        return 0.5 * (self.domain[0] + self.domain[1])

    @property
    def radius(self) -> float:
        return 0.5 * (self.domain[1] - self.domain[0])


@dataclass(frozen=True)
class Word:
    """Reduced word over the group letters, with its matrix and displacement."""

    letters: tuple[str, ...]
    matrix: Isometry
    displacement: float

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class OrbitCount:
    value: int
    complete: bool

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True)
class ExponentFit:
    """Least-squares slope of log orbit counts over a trailing window."""

    delta: float
    stderr: float
    grid: np.ndarray
    counts: np.ndarray
    window: tuple[float, float]


@dataclass(frozen=True)
class _ParabolicChart:
    """Conjugated picture of a parabolic letter pair: fixed point at infinity.

    In the chart the letter acts as a shift by tau, its domain half-disk
    becomes the half-plane beyond wall_plus and the inverse domain the one
    beyond wall_minus; the reduction step jumps whole shift powers at once.
    """

    label: str
    conjugator: Isometry
    tau: float
    wall_plus: float
    wall_minus: float
    nilpotent: np.ndarray  # N with (trace +2 representative) = I + N

    @property
    def center(self) -> float:
        return 0.5 * (self.wall_plus + self.wall_minus)


class FuchsianGroup:
    """Free group of half-plane isometries with explicit ping-pong intervals.

    Letters come as matched label pairs ('a' and 'A' for the inverse) with
    pairwise disjoint closed boundary intervals; a parabolic pair's two
    intervals share exactly the fixed point. The base point is i.
    """

    def __init__(self, letters: list[Generator], name: str = ""):
        if not letters:
            self.name = name or "trivial"
            self.letters = {}
            self.order = []
            self.rank = 0
            self.kind = "convex_cocompact"
            self.basepoint = ORIGIN
            self._mats = np.zeros((0, 2, 2))
            self._inv_mats = np.zeros((0, 2, 2))
            self._inv_index = np.zeros(0, dtype=int)
            self._centers = np.zeros(0)
            self._radii = np.zeros(0)
            self._parabolic_charts = {}
            return
        self.name = name or "unnamed"
        self.letters = {g.label: g for g in letters}
        if len(self.letters) != len(letters):
            raise GroupError("duplicate labels in generator list")
        self.order = sorted(self.letters, key=lambda s: (s.lower(), s.isupper()))
        self.rank = len(self.order) // 2
        self.basepoint = ORIGIN
        for g in letters:
            if g.inverse_label not in self.letters:
                raise GroupError("letter %r has no inverse entry %r" % (g.label, g.inverse_label))
            inv = self.letters[g.inverse_label]
            if isometry_distance(g.matrix.inverse(), inv.matrix) > 1e-9:
                raise GroupError("matrix of %r is not the inverse of %r" % (inv.label, g.label))
            if inv.kind != g.kind:
                raise GroupError("kind mismatch between %r and %r" % (g.label, inv.label))
            if classify_kind(g.matrix) != g.kind:
                raise GroupError(
                    "declared kind %r of %r contradicts |trace| = %.17g"
                    % (g.kind, g.label, abs(g.matrix.trace))
                )
        self.kind = (
            "with_cusps"
            if any(g.kind == "parabolic" for g in letters)
            else "convex_cocompact"
        )
        self._mats = np.array([self.letters[l].matrix.entries() for l in self.order]).reshape(-1, 2, 2)
        self._inv_index = np.array(
            [self.order.index(self.letters[l].inverse_label) for l in self.order]
        )
        self._inv_mats = self._mats[self._inv_index]
        self._centers = np.array([self.letters[l].center for l in self.order])
        self._radii = np.array([self.letters[l].radius for l in self.order])
        self._parabolic_charts = {}
        for l in self.order:
            if self.letters[l].kind == "parabolic" and l.islower():
                chart = self._build_parabolic_chart(self.letters[l])
                self._parabolic_charts[l] = chart
                self._parabolic_charts[chart.label.swapcase()] = chart
        self._validate_domains()
        self._validate_ping_pong()
        self._spot_check_freeness()

    # ------------------------------------------------------------ validation

    def _validate_domains(self):
        ivs = sorted((self.letters[l].domain, l) for l in self.order)
        for ((lo1, hi1), l1), ((lo2, hi2), l2) in zip(ivs, ivs[1:]):
            if hi1 < lo2:
                continue
            if hi1 == lo2 and self.letters[l1].inverse_label == l2 and self.letters[l1].kind == "parabolic":
                fp, _ = fixed_points(self.letters[l1].matrix)
                if not fp.is_infinity and abs(fp.value - hi1) <= 1e-9:
                    continue
                raise GroupError(
                    "parabolic pair %r/%r domains may only touch at the fixed point" % (l1, l2)
                )
            raise GroupError("domains of %r and %r overlap" % (l1, l2))

    def _validate_ping_pong(self):
        # every letter must push all other interval endpoints (and infinity)
        # into its own target interval
        pts = [INFINITY]
        for l in self.order:
            lo, hi = self.letters[l].domain
            pts += [BoundaryPoint(lo), BoundaryPoint(hi)]
        for l in self.order:
            g = self.letters[l]
            ilo, ihi = self.letters[g.inverse_label].domain
            lo, hi = g.domain
            for p in pts:
                if not p.is_infinity and ilo < p.value < ihi:
                    continue
                q = mobius_apply(g.matrix, p)
                if q.is_infinity or not (lo - 1e-9 <= q.value <= hi + 1e-9):
                    raise GroupError(
                        "ping-pong failure: %r maps %r to %r outside its domain" % (l, p, q)
                    )

    def _spot_check_freeness(self):
        rng = np.random.default_rng(8141871)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            letters = self._random_reduced_letters(rng, n)
            m = self.word_matrix(letters)
            if isometry_distance(m, Isometry.identity()) <= 1e-8:
                raise GroupError("freeness spot check failed on word %r" % (letters,))

    def _random_reduced_letters(self, rng, n):
        out = []
        for _ in range(n):
            options = [l for l in self.order if not out or l != self.letters[out[-1]].inverse_label]
            out.append(options[int(rng.integers(len(options)))])
        return tuple(out)

    def _build_parabolic_chart(self, g: Generator) -> _ParabolicChart:
        fp, _ = fixed_points(g.matrix)
        if fp.is_infinity:
            conj = Isometry.identity()
        else:
            conj = Isometry(0.0, -1.0, 1.0, -fp.value)
        hat = conj @ g.matrix @ conj.inverse()
        a, b, c, d = hat.entries()
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d
        if abs(c) > 1e-8 or abs(a - 1.0) > 1e-8 or abs(d - 1.0) > 1e-8 or b == 0.0:
            raise GroupError("parabolic letter %r does not conjugate to a shift" % g.label)
        inv = self.letters[g.inverse_label]
        fixed = fp.value if not fp.is_infinity else None

        def far_endpoint(dom):
            lo, hi = dom
            if fixed is None:
                raise GroupError("parabolic fixed point at infinity needs finite-chart data")
            return lo if abs(hi - fixed) <= abs(lo - fixed) else hi

        wp = mobius_apply(conj, BoundaryPoint(far_endpoint(g.domain)))
        wm = mobius_apply(conj, BoundaryPoint(far_endpoint(inv.domain)))
        if wp.is_infinity or wm.is_infinity:
            raise GroupError("parabolic walls of %r degenerate in the shift chart" % g.label)
        rho_plus = (wp.value - wm.value) / (2.0 * b)
        if not 0.0 < rho_plus <= 0.5 + 1e-9:
            raise GroupError(
                "parabolic pair %r: shift by %.3g incompatible with walls at %.3g, %.3g"
                % (g.label, b, wm.value, wp.value)
            )
        gm = np.array(g.matrix.entries()).reshape(2, 2)
        if g.matrix.trace < 0:
            gm = -gm
        return _ParabolicChart(
            label=g.label,
            conjugator=conj,
            tau=b,
            wall_plus=wp.value,
            wall_minus=wm.value,
            nilpotent=gm - np.eye(2),
        )

    # ------------------------------------------------------------ basic maps

    def generator(self, label: str) -> Generator:
        try:
            return self.letters[label]
        except KeyError:
            raise GroupError("unknown label %r" % label) from None

    def word_matrix(self, letters) -> Isometry:
        m = Isometry.identity()
        for l in letters:
            m = m @ self.generator(l).matrix
        return m

    def displacement(self, m: Isometry) -> float:
        return float(_displacement_from_entries(*m.entries()))

    def hull_intervals(self) -> list[tuple[float, float]]:
        return sorted(self.letters[l].domain for l in self.order)

    def in_hull(self, xi: BoundaryPoint) -> bool:
        if xi.is_infinity:
            return False
        return any(lo <= xi.value <= hi for lo, hi in self.hull_intervals())

    def is_reduced(self, letters) -> bool:
        return all(
            self.generator(x).inverse_label != y for x, y in zip(letters, letters[1:])
        )

    # ------------------------------------------------------------ enumeration

    def _level_arrays(self, max_len: int | None, radius: float | None = None):
        """Breadth-first reduced words as stacked matrices, one level at a time.

        Yields (mats, disp, last, parent) per word length: the matrices, their
        displacements, each word's last letter (position in order) and the
        row of its prefix in the previous level (-1 on the first level).
        Children come letter by letter, in parent order within a letter.
        Pruning by displacement keeps a slack margin so near-radius words
        still appear. With a radius the walk dies out on its own (cusp
        corridors get long but not short), so max_len may be None.
        """
        if self.rank == 0:
            return
        if max_len is None and radius is None:
            raise GroupError("need a length cap or a radius to enumerate")
        nl = len(self.order)
        cap = None if radius is None else radius + _PRUNE_SLACK
        mats = self._mats.copy()
        last = np.arange(nl)
        parent = np.full(nl, -1)
        _charge_words(1 + nl)  # identity plus the first level
        level = 1
        while max_len is None or level <= max_len:
            disp = _displacement_from_entries(
                mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
            )
            if cap is not None:
                keep = disp <= cap
                mats, disp, last, parent = mats[keep], disp[keep], last[keep], parent[keep]
            if not len(mats):
                break
            yield mats, disp, last, parent
            if level == max_len:
                break
            # every reduced child at once, letter-major: row j of ok marks
            # the parents that letter j extends
            ok = last[None, :] != self._inv_index[:, None]
            last, parent = np.nonzero(ok)
            child = np.empty((len(parent), 2, 2))
            for lo in range(0, len(parent), _CHILD_CHUNK):
                sl = slice(lo, lo + _CHILD_CHUNK)
                np.matmul(mats[parent[sl]], self._mats[last[sl]], out=child[sl])
            det = child[:, 0, 0] * child[:, 1, 1] - child[:, 0, 1] * child[:, 1, 0]
            child /= np.sqrt(det)[:, None, None]
            mats = child
            _charge_words(len(mats))
            level += 1

    def enumerate_words(self, max_len: int, radius: float | None = None):
        """Yield reduced words by length, the empty word first, in letter order."""
        yield Word((), Isometry.identity(), 0.0)
        letter_lists: list[list[tuple[str, ...]]] = []
        for mats, disp, last, parent in self._level_arrays(max_len, radius):
            if letter_lists:
                prev = letter_lists[-1]
                current = [prev[p] + (self.order[l],) for p, l in zip(parent, last)]
            else:
                current = [(self.order[l],) for l in last]
            letter_lists.append(current)
            for ls, m, dd in zip(current, mats, disp):
                if radius is not None and dd > radius:
                    continue
                yield Word(ls, Isometry(m[0, 0], m[0, 1], m[1, 0], m[1, 1]), float(dd))

    def orbit_displacements(self, radius: float, max_len: int | None = None) -> tuple[np.ndarray, bool]:
        """Sorted displacements of orbit points within the radius, and a
        completeness flag that drops when the length cutoff was the binding one."""
        if self.rank == 1:
            return self._cyclic_displacements(radius), True
        parts = [np.zeros(1)]
        levels = 0
        tail_alive = False
        for mats, disp, *_ in self._level_arrays(max_len, radius):
            parts.append(disp[disp <= radius])
            levels += 1
            tail_alive = len(disp) > 0
        # survivors at the length cap mean longer words may still fit the radius
        complete = max_len is None or levels < max_len or not tail_alive
        return np.sort(np.concatenate(parts)), complete

    # cyclic groups: powers of the single letter, displacement monotone in the
    # exponent, so counts come from bisection instead of enumeration
    def _cyclic_power_displacement(self, n) -> np.ndarray:
        g = self.letters[self.order[0] if self.order[0].islower() else self.order[1]]
        n = np.asarray(n, dtype=float)
        m = np.array(g.matrix.entries()).reshape(2, 2)
        if g.kind == "parabolic":
            if m[0, 0] + m[1, 1] < 0:
                m = -m
            nil = m - np.eye(2)
            a = 1.0 + n * nil[0, 0]
            b = n * nil[0, 1]
            c = n * nil[1, 0]
            d = 1.0 + n * nil[1, 1]
        else:
            tr = abs(m[0, 0] + m[1, 1])
            lam = 0.5 * (tr + math.sqrt(tr * tr - 4.0))
            if m[0, 0] + m[1, 1] < 0:
                m = -m
            ln, lni = lam ** n, lam ** (-n)
            den = lam - 1.0 / lam
            # m^n = (lam^n (m - lam^-1 I) - lam^-n (m - lam I)) / (lam - lam^-1)
            a = (ln * (m[0, 0] - 1.0 / lam) - lni * (m[0, 0] - lam)) / den
            b = (ln - lni) * m[0, 1] / den
            c = (ln - lni) * m[1, 0] / den
            d = (ln * (m[1, 1] - 1.0 / lam) - lni * (m[1, 1] - lam)) / den
        return _displacement_from_entries(a, b, c, d)

    def _cyclic_max_power(self, radius: float) -> int:
        if self._cyclic_power_displacement(1.0) > radius:
            return 0
        hi = 1
        while self._cyclic_power_displacement(float(2 * hi)) <= radius and hi < 2 ** 60:
            hi *= 2
        lo = hi
        hi = 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._cyclic_power_displacement(float(mid)) <= radius:
                lo = mid
            else:
                hi = mid
        return lo

    def _cyclic_displacements(self, radius: float) -> np.ndarray:
        nmax = self._cyclic_max_power(radius)
        if nmax == 0:
            return np.zeros(1)
        ns = np.arange(1, nmax + 1, dtype=float)
        d = self._cyclic_power_displacement(ns)
        return np.sort(np.concatenate([np.zeros(1), d, d]))

    def cyclic_count(self, radius: float) -> int:
        return 1 + 2 * self._cyclic_max_power(radius)

    # ------------------------------------------------------------ reduction

    def containing_letter(self, x, y):
        """Position in order of the letter whose open half-disk holds x + iy,
        or -1 in the fundamental domain; vectorized over x and y.

        The half-disks are disjoint in the plane (a parabolic pair touches
        only at its fixed point on the boundary), so at most one term of the
        sum is nonzero at any point.
        """
        hit = np.full(np.shape(x), -1, dtype=np.int16)
        y2 = y * y
        for k, (ctr, rad) in enumerate(zip(self._centers, self._radii)):
            hit += ((x - ctr) ** 2 + y2 < rad * rad) * np.int16(k + 1)
        return hit

    def in_fundamental_domain(self, z: complex) -> bool:
        return bool(self.containing_letter(z.real, z.imag) < 0)

    def parabolic_jump(self, label: str, x, y):
        """Shift power that pushes x + iy out of the half-disk of the parabolic
        letter `label`, vectorized: (signed powers n of the chart letter,
        matrices I - n N applying them).

        n is the nearest whole number of shifts back to the chart center, at
        least one step in the direction that leaves the half-disk, so a cusp
        excursion is peeled in one step instead of one step per letter.
        """
        chart = self._parabolic_charts[label]
        ca, cb, cc, cd = chart.conjugator.entries()
        den = (cc * x + cd) ** 2 + (cc * y) ** 2
        wre = ((ca * x + cb) * (cc * x + cd) + ca * cc * y * y) / den
        n = np.round((wre - chart.center) / chart.tau).astype(int)
        side = 1 if label == chart.label else -1
        n = np.where(n * side <= 0, side, n)
        return n, np.eye(2) - n[..., None, None] * chart.nilpotent

    def reduce(self, u: UnitTangent, max_steps: int = 100000) -> tuple[UnitTangent, Word]:
        """Representative of u with base point in the fundamental domain.

        Returns (rep, word) with rep = word * u. Whole parabolic shift powers
        are applied in one step, so cusp excursions do not cost one iteration
        per letter.
        """
        frame = u.frame
        applied: list[str] = []
        for _ in range(max_steps):
            z = UnitTangent(frame).base_point
            k = int(self.containing_letter(z.x, z.y))
            if k < 0:
                break
            label = self.order[k]
            g = self.letters[label]
            if g.kind == "parabolic":
                n, power = self.parabolic_jump(label, z.x, z.y)
                frame = Isometry(*power.ravel()) @ frame
                base = self._parabolic_charts[label].label
                applied.extend([base.swapcase() if n > 0 else base] * abs(int(n)))
            else:
                frame = g.matrix.inverse() @ frame
                applied.append(g.inverse_label)
        else:
            raise GroupError("reduction did not terminate in %d steps" % max_steps)
        letters = tuple(reversed(applied))
        m = self.word_matrix(letters)
        return UnitTangent(frame), Word(letters, m, self.displacement(m))

    def settle_frames(
        self, frames: np.ndarray, max_steps: int = 4000
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized reduce for a stack of frames (n, 2, 2), row by row.

        Returns (settled, moves): each row moved into the fundamental domain,
        and the number of rounds in which it moved. A round moves every row
        whose base point lies in a half-disk and renormalizes the rows it
        moved; a row leaves the live stack in the round that finds it
        settled, before that round's renormalization, so each row's result
        depends on that row alone. A row whose base point is not finite or
        lies on the boundary raises GroupError.
        """
        settled = np.array(frames, dtype=float)
        moves = np.zeros(len(settled), dtype=np.int64)
        if self.rank == 0 or not len(settled):
            return settled, moves
        # the frames still moving, as a compact stack: rows `active` of the
        # result, written back when they settle
        active = np.arange(len(settled))
        sub = settled
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n in range(max_steps):
                x, y = frame_point(sub[:, 0, 0], sub[:, 0, 1], sub[:, 1, 0], sub[:, 1, 1])
                hit = self.containing_letter(x, y)
                live = hit >= 0
                if not live.all():
                    done = ~live
                    if not np.all(np.isfinite(x[done]) & np.isfinite(y[done]) & (y[done] > 0)):
                        raise GroupError(
                            "frame reduction broke down: a base point is not finite or on the boundary"
                        )
                    settled[active[done]] = sub[done]
                    moves[active[done]] = n
                    if not live.any():
                        return settled, moves
                    active, sub, x, y, hit = active[live], sub[live], x[live], y[live], hit[live]
                for k, label in enumerate(self.order):
                    pts = np.flatnonzero(hit == k)
                    if not pts.size:
                        continue
                    g = self.letters[label]
                    if g.kind == "parabolic":
                        _, power = self.parabolic_jump(label, x[pts], y[pts])
                        sub[pts] = power @ sub[pts]
                    else:
                        inv = np.array(g.matrix.inverse().entries()).reshape(2, 2)
                        sub[pts] = inv[None] @ sub[pts]
                sub = renormalized(sub)
        raise GroupError("vectorized reduction did not settle in %d rounds" % max_steps)

    def reduce_frames(self, frames: np.ndarray, max_steps: int = 4000) -> np.ndarray:
        """Vectorized reduce for a stack of frames (n, 2, 2); returns new array.

        The batch rule: with M the most rounds any row of the batch moved
        (see settle_frames), every row that moved fewer than M rounds is
        renormalized once more, and the rows that moved M rounds are not.
        This is what one loop over the whole batch gives when each round
        renormalizes every row still on its stack, including the rows that
        round finds settled, and round M, where no row moves, renormalizes
        none. A row's last bits therefore depend on its batch through M alone.
        """
        return replayed(*self.settle_frames(frames, max_steps))


# ---------------------------------------------------------------- counting


def orbit_count(group: FuchsianGroup, radius: float, max_len: int | None = None) -> OrbitCount:
    """Number of orbit points of the base point within the given distance."""
    if radius < 0:
        raise GroupError("radius must be nonnegative")
    if group.rank == 0:
        return OrbitCount(1, True)
    if group.rank == 1:
        return OrbitCount(group.cyclic_count(radius), True)
    disp, complete = group.orbit_displacements(radius, max_len)
    return OrbitCount(int(np.searchsorted(disp, radius, side="right")), complete)


def poincare_series(group: FuchsianGroup, s: float, max_len: int | None, radius: float | None = None) -> float:
    """Partial sum of exp(-s * displacement) over reduced words up to max_len."""
    if group.rank == 0:
        return 1.0
    if max_len is None and radius is None:
        raise GroupError("need a length cap or a radius for a partial sum")
    if group.rank == 1:
        nmax = max_len if max_len is not None else group._cyclic_max_power(radius)
        ns = np.arange(1, nmax + 1, dtype=float)
        d = group._cyclic_power_displacement(ns)
        if radius is not None:
            d = d[d <= radius]
        return float(1.0 + 2.0 * np.sum(np.exp(-s * d)))
    total = 1.0
    for mats, disp, *_ in group._level_arrays(max_len, radius):
        keep = disp if radius is None else disp[disp <= radius]
        total += float(np.sum(np.exp(-s * keep)))
    return total


def critical_exponent(
    group: FuchsianGroup,
    t_max: float,
    window: float | None = None,
    grid_step: float = 0.5,
    min_points: int = 1000,
    max_len: int | None = None,
) -> ExponentFit:
    """Exponential growth rate of the orbit counting function.

    Fits log count(T) ~ delta * T over the trailing window of the count grid
    and returns the slope with its regression standard error.
    """
    if group.rank == 0:
        return ExponentFit(0.0, 0.0, np.zeros(0), np.zeros(0), (0.0, 0.0))
    if not grid_step > 0:
        raise GroupError("grid step must be positive, got %r" % (grid_step,))
    grid = np.arange(grid_step, t_max + 0.5 * grid_step, grid_step)
    if len(grid) == 0:
        raise GroupError("radius %.3g is below the grid step %.3g: empty count grid" % (t_max, grid_step))
    if group.rank == 1:
        counts = np.array([group.cyclic_count(t) for t in grid], dtype=float)
    else:
        disp, complete = group.orbit_displacements(t_max, max_len)
        if not complete:
            raise GroupError("length cutoff binds before radius %.3g; raise max_len" % t_max)
        counts = np.searchsorted(disp, grid, side="right").astype(float)
    if counts[-1] < min_points:
        raise GroupError(
            "only %d orbit points below %.3g; need %d for a stable fit"
            % (int(counts[-1]), t_max, min_points)
        )
    w = window if window is not None else max(6.0, 0.4 * t_max)
    sel = (grid >= t_max - w) & (counts > 0)
    ts, ys = grid[sel], np.log(counts[sel])
    if sel.sum() < 4:
        raise GroupError("trailing window has too few grid points")
    tbar = ts.mean()
    sxx = float(np.sum((ts - tbar) ** 2))
    slope = float(np.sum((ts - tbar) * ys) / sxx)
    resid = ys - ys.mean() - slope * (ts - tbar)
    sigma2 = float(np.sum(resid**2)) / max(len(ts) - 2, 1)
    stderr = math.sqrt(sigma2 / sxx)
    return ExponentFit(slope, stderr, grid, counts, (t_max - w, t_max))


def check_parabolic_growth(group: FuchsianGroup, t_max: float = 30.0, grid_step: float = 0.25) -> float:
    """Smallest D with count(T)/e^(T/2) pinched in [1/D, D] on [1, t_max].

    Only meaningful for the cyclic group of one parabolic letter, whose orbit
    counting function grows like e^(T/2).
    """
    if group.rank != 1:
        raise GroupError("parabolic growth check needs a one-generator group")
    lab = group.order[0] if group.order[0].islower() else group.order[1]
    if group.letters[lab].kind != "parabolic":
        raise GroupError("parabolic growth check needs a parabolic generator")
    grid = np.arange(1.0, t_max + 0.5 * grid_step, grid_step)
    counts = np.array([group.cyclic_count(t) for t in grid], dtype=float)
    ratio = counts * np.exp(-0.5 * grid)
    return float(max(ratio.max(), (1.0 / ratio).max()))


# ---------------------------------------------------------------- limit set


@dataclass(frozen=True)
class WordSpec:
    """Infinite reduced letter sequence: a head followed by a repeating period."""

    period: tuple[str, ...]
    head: tuple[str, ...] = ()
    depth: int = 24

    def letter(self, i: int) -> str:
        if i < len(self.head):
            return self.head[i]
        return self.period[(i - len(self.head)) % len(self.period)]

    def prefix(self, n: int) -> tuple[str, ...]:
        return tuple(self.letter(i) for i in range(n))

    @classmethod
    def random(cls, group: FuchsianGroup, seed: int, depth: int = 24, head_len: int = 12) -> "WordSpec":
        rng = np.random.default_rng(seed)
        letters = group._random_reduced_letters(rng, head_len + 2)
        head, period = letters[:head_len], letters[head_len:]
        if group.generator(period[-1]).inverse_label == period[0]:
            period = (period[0], period[0])
        return cls(period=period, head=head, depth=depth)


@dataclass(frozen=True)
class LimitSample:
    """Approximate limit point with its convergence certificate.

    kind is 'parabolic' when the tail is a power of one parabolic letter (the
    point is then exact), 'radial' otherwise; width bounds the nested-interval
    enclosure at the sampled depth.
    """

    point: BoundaryPoint
    kind: str
    witness: tuple[str, ...]
    width: float


def sample_limit_point(group: FuchsianGroup, spec: WordSpec) -> LimitSample:
    """Locate the boundary point spelled by an infinite reduced word.

    Nested images of the letter domains pin the point for a radial tail; a
    parabolic tail collapses onto the image of the parabolic fixed point.
    """
    if group.rank == 0:
        raise GroupError("trivial group has no limit set")
    if not spec.period:
        raise GroupError("word spec needs a nonempty period")
    probe = spec.prefix(len(spec.head) + 2 * len(spec.period))
    if not group.is_reduced(probe):
        raise GroupError("word spec is not reduced: %r" % (probe,))
    def push(letters, pt):
        # apply the word to a boundary point letter by letter; long products
        # would lose their determinant to cancellation at depth
        for lab in reversed(letters):
            pt = mobius_apply(group.generator(lab).matrix, pt)
        return pt

    tail_labels = set(spec.period)
    if len(tail_labels) == 1:
        lab = next(iter(tail_labels))
        if group.generator(lab).kind == "parabolic":
            fp, _ = fixed_points(group.generator(lab).matrix)
            return LimitSample(push(spec.head, fp), "parabolic", spec.prefix(spec.depth), 0.0)
    n = max(spec.depth, 2)
    letters = spec.prefix(n)
    lo, hi = group.generator(letters[-1]).domain
    a = push(letters[:-1], BoundaryPoint(lo))
    b = push(letters[:-1], BoundaryPoint(hi))
    if a.is_infinity or b.is_infinity:
        raise GroupError("nested interval escaped the finite chart")
    mid = 0.5 * (a.value + b.value)
    return LimitSample(BoundaryPoint(mid), "radial", letters, abs(b.value - a.value))


def tangent_from_samples(
    group: FuchsianGroup,
    minus,
    plus,
    s: float = 0.0,
) -> tuple[UnitTangent, str]:
    """Vector with backward/forward endpoints from limit samples, and its class.

    The class follows the backward endpoint: 'radial' or 'parabolic' for
    recurrent directions sampled from the limit set, 'wandering' for an
    explicit boundary point outside the limit hull.
    """
    if isinstance(minus, LimitSample):
        cls = minus.kind
        xi_minus = minus.point
    else:
        xi_minus = minus
        cls = "radial" if group.in_hull(xi_minus) else "wandering"
    xi_plus = plus.point if isinstance(plus, LimitSample) else plus
    return from_coordinates(xi_minus, xi_plus, s), cls


# ---------------------------------------------------------------- file format


def parse_group_text(text: str, name: str = "") -> FuchsianGroup:
    """Parse the plain-text group format: per-letter blocks of key = value lines.

    Blocks start at a 'label =' line and need 'matrix = a b c d',
    'domain = lo hi' and 'kind = hyperbolic|parabolic'; '#' starts a comment.
    Every letter, inverses included, gets its own block.
    """
    blocks: list[dict] = []
    top: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise GroupError("line %d: expected key = value, got %r" % (ln, raw.strip()))
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key == "label":
            blocks.append({"label": val, "_line": ln})
        elif blocks:
            blocks[-1][key] = val
        else:
            top[key] = val
    letters = []
    for b in blocks:
        missing = [k for k in ("matrix", "domain", "kind") if k not in b]
        if missing:
            raise GroupError(
                "generator %r (line %d) is missing %s" % (b["label"], b["_line"], ", ".join(missing))
            )
        try:
            mat = [float(v) for v in b["matrix"].split()]
            dom = [float(v) for v in b["domain"].split()]
        except ValueError as e:
            raise GroupError("generator %r: %s" % (b["label"], e)) from None
        if len(mat) != 4:
            raise GroupError("generator %r: matrix needs 4 entries" % b["label"])
        if len(dom) != 2:
            raise GroupError("generator %r: domain needs 2 endpoints" % b["label"])
        letters.append(
            Generator(b["label"], Isometry(*mat), b["kind"], (dom[0], dom[1]))
        )
    return FuchsianGroup(letters, name=top.get("name", name))


def parse_group_file(path) -> FuchsianGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group_text(fh.read(), name=str(path))


def dumps_group(group: FuchsianGroup) -> str:
    lines = ["# horolab group definition"]
    if group.name:
        lines.append("name = %s" % group.name)
    for l in group.order:
        g = group.letters[l]
        lines.append("")
        lines.append("label = %s" % g.label)
        lines.append("kind = %s" % g.kind)
        lines.append("matrix = %.17g %.17g %.17g %.17g" % g.matrix.entries())
        lines.append("domain = %.17g %.17g" % g.domain)
    return "\n".join(lines) + "\n"
