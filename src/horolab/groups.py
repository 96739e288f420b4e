"""Finitely generated free Fuchsian groups given by ping-pong data on the boundary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    ORIGIN,
    BoundaryPoint,
    GeometryError,
    Isometry,
    UnitTangent,
    frame_point,
    from_coordinates,
    isometry_distance,
    mobius_apply,
)
from .io import key_value_lines

__all__ = [
    "GroupError",
    "Generator",
    "FuchsianGroup",
    "ExponentFit",
    "WordSpec",
    "LimitSample",
    "classify_kind",
    "fixed_points",
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

# rows per product when a level's children are formed, which bounds the
# gathered parent stacks on wide levels and keeps each product below the size
# at which BLAS starts a second thread
_CHILD_CHUNK = 16384

# rounds a frame reduction may take before it is declared stuck
_SETTLE_ROUNDS = 4000

# the largest upper bound a cyclic count doubles to, so its bisection stays
# below 2**61 powers, far from int64 overflow
_CYCLIC_BOUND = 2**60

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


def _letter_blocks(letter: np.ndarray):
    """(lo, hi, k) for each run of rows lo:hi of one letter k, in row order,
    cut into pieces of at most _CHILD_CHUNK rows. Rows that come
    letter-major make one run per letter."""
    cuts = (np.flatnonzero(letter[1:] != letter[:-1]) + 1).tolist()
    for a, b in zip([0] + cuts, cuts + [len(letter)]):
        for lo in range(a, b, _CHILD_CHUNK):
            yield lo, min(lo + _CHILD_CHUNK, b), letter[a]


def _displacement_from_entries(a, b, c, d):
    # d(i, m(i)) via cosh d = (a^2+b^2+c^2+d^2)/2 for determinant-one matrices
    s = 0.5 * (a * a + b * b + c * c + d * d)
    return np.arccosh(np.maximum(s, 1.0))


def _displacement(mats: np.ndarray) -> np.ndarray:
    return _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])


def _run_bound(mats: np.ndarray, wn: np.ndarray, cap: float) -> np.ndarray:
    """For each row, a power past the last n with d(i, (w + n wN) i) <= cap,
    as int64 and at least 1, given w and wN.

    That displacement is at most cap where the convex quadratic
    |w + n wN|^2 = |w|^2 + 2 n <w, wN> + n^2 |wN|^2 is at most 2 cosh(cap);
    its larger root, floored, plus 2 leaves a margin for rounding. Without
    a real root the first power is already past cap. For a letter that is
    parabolic only up to rounding, w p^n = alpha_n w + beta_n wN (see
    _RunPowers) strays from w + n wN, so the bound is a first guess.
    """
    a = np.einsum("kij,kij->k", mats, mats)
    b = np.einsum("kij,kij->k", mats, wn)
    c = np.einsum("kij,kij->k", wn, wn)
    lim = 2.0 * math.cosh(cap)
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(b * b - c * (a - lim))
        # the larger root of c n^2 + 2 b n + a - lim, without cancellation
        top = np.where(b < 0.0, (root - b) / c, (lim - a) / (b + root))
    end = np.ones(len(mats), dtype=np.int64)
    real = np.isfinite(top) & (top >= 0.0)
    end[real] = top[real].astype(np.int64) + 2
    return end


class _RunPowers:
    """Powers of parabolic letters as p^n = alpha_n I + beta_n N, up to sign.

    N is the nilpotent of each letter's own matrix, p = I + N up to sign. A
    letter read from a file is parabolic only up to rounding, so N^2 = t N -
    d I with t = tr N and d = det N (Cayley-Hamilton) need not vanish, and
    w + n wN would drift from w p^n over a long run. The tables hold alpha_n
    and beta_n for n = 0..L, one row per letter, and double on demand by
    p^(L+j) = p^L p^j:
        alpha_(L+j) = alpha_L alpha_j - d beta_L beta_j,
        beta_(L+j) = alpha_L beta_j + beta_L alpha_j + t beta_L beta_j.
    For an exact parabolic alpha_n = 1 and beta_n = n exactly.
    """

    def __init__(self, mats: np.ndarray):
        sign = np.where(mats[:, 0, 0] + mats[:, 1, 1] < 0.0, -1.0, 1.0)
        self.nil = sign[:, None, None] * mats - np.eye(2)
        self.t = self.nil[:, 0, 0] + self.nil[:, 1, 1]
        self.d = _determinants(self.nil)
        self.alpha = np.ones((len(mats), 2))
        self.beta = np.tile([0.0, 1.0], (len(mats), 1))

    def coefficients(self, letter: np.ndarray, n: np.ndarray):
        """(alpha_n, beta_n) of each row's letter, n an int64 array >= 0."""
        while n.max(initial=0) >= self.alpha.shape[1]:
            a, b = self.alpha, self.beta
            al, bl = a[:, -1:], b[:, -1:]
            self.alpha = np.concatenate(
                [a, al * a[:, 1:] - self.d[:, None] * bl * b[:, 1:]], axis=1
            )
            self.beta = np.concatenate(
                [b, al * b[:, 1:] + bl * a[:, 1:] + self.t[:, None] * bl * b[:, 1:]], axis=1
            )
        return self.alpha[letter, n], self.beta[letter, n]


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
            raise GroupError("a group needs at least one letter pair")
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
        if not np.array_equal(self._inv_index, np.arange(len(self.order)) ^ 1):
            # settle_frames finds a letter's inverse at position k ^ 1
            raise GroupError("letter order must put each letter's inverse next to it")
        self._inv_mats = self._mats[self._inv_index]
        # what settle_frames applies to leave a hyperbolic letter's half-disk:
        # its matrix inverted, which differs from _inv_mats in the last bits
        self._leave_mats = np.array(
            [self.letters[l].matrix.inverse().entries() for l in self.order]
        ).reshape(-1, 2, 2)
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
            disp = _displacement(mats)
            if cap is not None:
                keep = np.flatnonzero(disp <= cap)
                mats, disp, last, parent = (
                    np.take(v, keep, axis=0) for v in (mats, disp, last, parent)
                )
            if not len(mats):
                break
            yield mats, disp, last, parent
            if level == max_len:
                break
            # every reduced child at once, letter-major: row j of the mask
            # marks the parents that letter j extends
            last, parent = np.nonzero(last[None, :] != self._inv_index[:, None])
            mats = self._children(mats, parent, last)
            _charge_words(len(mats))
            level += 1

    def _children(self, mats: np.ndarray, parent: np.ndarray, letter: np.ndarray) -> np.ndarray:
        """Rows mats[parent] times the matrices of their letters, renormalized.

        The rows must come letter-major, as np.nonzero gives them in
        _level_arrays and _syllable_displacements: every row of a letter's
        block is multiplied on the right by the same matrix, so the block is
        one (2m x 2) @ (2 x 2) product of its gathered rows seen as pairs of
        entries, written straight into the children. A stacked (m, 2, 2)
        matmul rounds each entry the same way but makes one BLAS call per
        row. Products take at most _CHILD_CHUNK rows (see _letter_blocks);
        rows in another order are still right, one product per run of a
        letter.

        Raises GroupError when a child's determinant is not finite and
        positive, as rounding makes it on words displaced past about 31 on
        the Schottky group: renormalizing would turn the row into NaN, and
        radius pruning would drop it without a word.
        """
        child = np.empty((len(parent), 2, 2))
        flat = child.reshape(-1, 2)
        for lo, hi, k in _letter_blocks(letter):
            rows = np.take(mats, parent[lo:hi], axis=0).reshape(-1, 2)
            np.matmul(rows, self._mats[k], out=flat[2 * lo : 2 * hi])
        det = _determinants(child)
        lost = ~((det > 0.0) & (det < np.inf))
        if lost.any():
            raise GroupError(
                "%d of %d word products lost their determinant to rounding (one reads %r); "
                "enumerate to a smaller radius or cutoff"
                % (np.count_nonzero(lost), len(det), float(det[lost][0]))
            )
        child /= np.sqrt(det)[:, None, None]
        return child

    def _run_arrays(self, mats: np.ndarray, letter: np.ndarray, powers: _RunPowers, cap: float):
        """Parabolic runs w p^n, n = 1, 2, ..., of the words mats, each cut at
        its first word displaced past cap: returns (words, disp, run) of the
        words before the cuts, run naming each word's row of mats, and
        charges the words formed up to each cut.

        letter names each row's letter among the rows of powers, and the
        n-th word is alpha_n w + beta_n (w N), up to sign. The rows must come
        letter-major, as np.nonzero gives them in _syllable_displacements:
        w N is formed by letter blocks as in _children. Each run is formed
        up to the power _run_bound gives in blocks of at most _CHILD_CHUNK
        rows; a run that has not crossed cap there, which only rounding or
        a letter parabolic only up to rounding can cause, is formed on from
        where it stopped over as many powers again.
        """
        wn = np.empty((len(mats), 2, 2))
        flat = wn.reshape(-1, 2)
        for lo, hi, k in _letter_blocks(letter):
            np.matmul(mats[lo:hi].reshape(-1, 2), powers.nil[k], out=flat[2 * lo : 2 * hi])
        end = _run_bound(mats, wn, cap)  # the last power formed before a look
        formed = np.zeros(len(mats), dtype=np.int64)
        pending = np.arange(len(mats))
        words, disp, run = [np.empty((0, 2, 2))], [np.empty(0)], [pending[:0]]
        while len(pending):
            # the pending runs whose next powers fill one block; a run longer
            # than a block takes a block of its own
            todo = np.minimum(end[pending] - formed[pending], _CHILD_CHUNK)
            tails = np.cumsum(todo)
            fit = max(int(np.searchsorted(tails, _CHILD_CHUNK, side="right")), 1)
            batch, counts = pending[:fit], todo[:fit]
            heads = tails[:fit] - counts
            row = np.repeat(batch, counts)
            pos = np.arange(len(row)) - np.repeat(heads, counts)  # 0 at each run's head
            alpha, beta = powers.coefficients(np.take(letter, row), np.take(formed, row) + pos + 1)
            block = alpha[:, None, None] * np.take(mats, row, axis=0)
            block += beta[:, None, None] * np.take(wn, row, axis=0)
            bd = _displacement(block)
            # each run's first position past cap, or its count if none
            first = np.minimum.reduceat(np.where(bd > cap, pos, np.repeat(counts, counts)), heads)
            keep = np.flatnonzero(pos < np.repeat(first, counts))
            crossed = first < counts
            _charge_words(len(keep) + int(crossed.sum()))
            words.append(np.take(block, keep, axis=0))
            disp.append(np.take(bd, keep))
            run.append(np.take(row, keep))
            going = batch[~crossed]
            formed[going] += counts[~crossed]
            end[going[formed[going] == end[going]]] *= 2
            pending = np.concatenate([pending[fit:], going])
        return np.concatenate(words), np.concatenate(disp), np.concatenate(run)

    def _syllable_displacements(self, radius: float):
        """Displacements of the reduced words the pruned walk of _level_arrays
        keeps at this radius (within radius + _PRUNE_SLACK), one array per
        syllable instead of one per word length, and charges the same words.

        A hyperbolic letter extends a word by one gathered product as there.
        A parabolic letter p extends a word that does not end in p or its
        inverse by the whole run w p^n in one step (see _run_arrays), cut
        where the level walk prunes it; the run's words take the other
        letters next. Run words are formed in closed form, so they differ
        from the level walk's products in their last bits.
        """
        cap = radius + _PRUNE_SLACK
        cusp = np.array([self.letters[l].kind == "parabolic" for l in self.order])
        hyperbolic, parabolic = np.flatnonzero(~cusp), np.flatnonzero(cusp)
        powers = _RunPowers(self._mats[parabolic])
        # the identity's hyperbolic children are the letters as they are, the
        # first level of _level_arrays; the identity also starts every run
        letter, child = hyperbolic, self._mats[hyperbolic]
        mats, last = np.eye(2)[None], np.full(1, -1)
        _charge_words(1 + len(letter))
        while True:
            disp = _displacement(child)
            keep = np.flatnonzero(disp <= cap)
            child, disp, letter = (np.take(v, keep, axis=0) for v in (child, disp, letter))
            # runs of each parabolic letter after the words ending outside
            # its pair, which sits at positions 2i and 2i + 1 of order
            j, parent = np.nonzero((last[None, :] >> 1) != (parabolic[:, None] >> 1))
            words, run_disp, run = self._run_arrays(np.take(mats, parent, axis=0), j, powers, cap)
            mats, last = child, letter
            if len(words):
                mats = np.concatenate([child, words])
                disp = np.concatenate([disp, run_disp])
                last = np.concatenate([letter, np.take(parabolic[j], run)])
            if not len(mats):
                return
            yield disp
            # held through the next products they would raise the peak
            del child, disp, words
            # hyperbolic children, letter-major as in _level_arrays
            j, parent = np.nonzero(last[None, :] != self._inv_index[hyperbolic, None])
            letter = hyperbolic[j]
            child = self._children(mats, parent, letter)
            _charge_words(len(child))

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

    def _cyclic_max_power(self, radii) -> np.ndarray:
        """Largest power n >= 0 with d(o, g^n o) <= radius, for each radius
        of the 1-D array radii, as int64.

        One bisection runs over all radii at once: each radius doubles its
        upper bound from 1 until the displacement of twice the bound passes
        it, then halves the gap, comparing the same powers a search for that
        radius alone would. A radius that takes 2**61 powers or more raises
        GroupError: its count no longer fits the search.
        """
        radii = np.asarray(radii, dtype=float)
        disp = self._cyclic_power_displacement
        lo = np.where(disp(np.ones(len(radii))) > radii, 0, 1).astype(np.int64)
        # rows whose bound still doubles
        grow = np.flatnonzero(lo)
        while len(grow):
            grow = grow[disp(2.0 * lo[grow]) <= radii[grow]]
            over = grow[lo[grow] == _CYCLIC_BOUND]
            if len(over):
                raise GroupError(
                    "radius %.6g holds 2**61 or more powers of the cyclic letter; "
                    "its orbit count is out of range" % radii[over[0]]
                )
            lo[grow] *= 2
        hi = np.where(lo > 0, 2 * lo, 1)
        while True:
            wide = np.flatnonzero(hi - lo > 1)
            if not len(wide):
                return lo
            mid = (lo[wide] + hi[wide]) // 2
            below = disp(mid.astype(float)) <= radii[wide]
            lo[wide[below]] = mid[below]
            hi[wide[~below]] = mid[~below]

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

    def settle_frames(self, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Frames (n, 2, 2) moved into the fundamental domain, row by row.

        Returns (settled, moves): each row moved into the fundamental domain,
        and the number of rounds in which it moved. A round moves every row
        whose base point lies in a half-disk and renormalizes the rows it
        moved; a row leaves the live stack in the round that finds it
        settled, before that round's renormalization, so each row's result
        depends on that row alone. A row whose base point is not finite or
        lies on the boundary, or that has not settled after _SETTLE_ROUNDS
        rounds, raises GroupError. Whole parabolic shift powers are applied
        in one round, so a cusp excursion does not cost one round per letter.

        A round gathers each live row's leaving matrix (the inverse of its
        letter, or the parabolic_jump power) and applies them all with one
        stacked matmul. numpy rounds each 2x2 product the same way whatever
        the batch and its layout, so this gives the bits of moving the rows
        letter by letter.

        A row also settles where it is when it lands in the half-disk of the
        inverse of the letter whose half-disk it just left. In exact
        arithmetic the move out of a half-disk never lands in its partner's,
        so only a base point rounded onto a paired boundary circle does this;
        it would otherwise be sent back and forth between the two forever.
        """
        settled = np.array(frames, dtype=float)
        moves = np.zeros(len(settled), dtype=np.int64)
        if not len(settled):
            return settled, moves
        # the frames still moving, as a compact stack: rows `active` of the
        # result, written back when they settle; `back` is the half-disk a
        # row must not land in next, the partner of the one it just left
        active = np.arange(len(settled))
        sub = settled
        back = np.full(len(settled), -1, dtype=np.int16)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for n in range(_SETTLE_ROUNDS):
                x, y = frame_point(sub[:, 0, 0], sub[:, 0, 1], sub[:, 1, 0], sub[:, 1, 1])
                hit = self.containing_letter(x, y)
                live = (hit >= 0) & (hit != back)
                keep = np.flatnonzero(live)
                if len(keep) < len(live):
                    done = np.flatnonzero(~live)
                    xd, yd = np.take(x, done), np.take(y, done)
                    if not np.all(np.isfinite(xd) & np.isfinite(yd) & (yd > 0)):
                        raise GroupError(
                            "frame reduction broke down: a base point is not finite or on the boundary"
                        )
                    rows = np.take(active, done)
                    settled[rows] = np.take(sub, done, axis=0)
                    moves[rows] = n
                    if not len(keep):
                        return settled, moves
                    active, sub, x, y, hit = (
                        np.take(v, keep, axis=0) for v in (active, sub, x, y, hit)
                    )
                back = hit ^ np.int16(1)  # order puts each letter's inverse at k ^ 1
                # each row's leaving matrix; parabolic rows jump whole powers
                leave = np.take(self._leave_mats, hit, axis=0)
                for k, label in enumerate(self.order):
                    if self.letters[label].kind == "parabolic":
                        pts = np.flatnonzero(hit == k)
                        if pts.size:
                            leave[pts] = self.parabolic_jump(label, x[pts], y[pts])[1]
                sub = np.matmul(leave, sub)
                del leave  # kept into the next round it would raise the peak by a stack
                sub /= np.sqrt(_determinants(sub))[:, None, None]
        raise GroupError("vectorized reduction did not settle in %d rounds" % _SETTLE_ROUNDS)

    def reduce_frames(self, frames: np.ndarray) -> np.ndarray:
        """Frames (n, 2, 2) moved into the fundamental domain; returns a new array.

        The batch rule: with M the most rounds any row of the batch moved
        (see settle_frames), every row that moved fewer than M rounds is
        renormalized once more, and the rows that moved M rounds are not.
        This is what one loop over the whole batch gives when each round
        renormalizes every row still on its stack, including the rows that
        round finds settled, and round M, where no row moves, renormalizes
        none. A row's last bits therefore depend on its batch through M alone.
        """
        return replayed(*self.settle_frames(frames))


# ---------------------------------------------------------------- counting


def _fit_grid(t_max: float, grid_step: float, window: float | None):
    """critical_exponent's count grid and the width of its trailing fit window."""
    grid = np.arange(grid_step, t_max + 0.5 * grid_step, grid_step)
    # the walk counts only up to t_max, so a point past it would be cut short;
    # one past it by no more than arange's rounding stays
    grid = grid[grid <= t_max + 1e-9 * grid_step]
    return grid, (window if window is not None else max(6.0, 0.4 * t_max))


def critical_exponent(
    group: FuchsianGroup,
    t_max: float,
    window: float | None = None,
    grid_step: float = 0.5,
    min_points: int = 1000,
) -> ExponentFit:
    """Exponential growth rate of the orbit counting function.

    Fits log count(T) ~ delta * T over the trailing window of the count grid
    and returns the slope with its regression standard error. A cyclic group
    is counted in closed form; otherwise the orbit points within t_max come
    from a breadth-first walk bounded by that radius, which is complete. The
    walk takes one syllable per step: each parabolic run w p^n is counted in
    closed form, so a long cusp corridor costs one step, not one per power
    (see FuchsianGroup._syllable_displacements).
    """
    if not grid_step > 0:
        raise GroupError("grid step must be positive, got %r" % (grid_step,))
    grid, w = _fit_grid(t_max, grid_step, window)
    if len(grid) == 0:
        raise GroupError("radius %.3g is below the grid step %.3g: empty count grid" % (t_max, grid_step))
    if group.rank == 1:
        counts = (1 + 2 * group._cyclic_max_power(grid)).astype(float)
    else:
        parts = [np.zeros(1)]
        for disp in group._syllable_displacements(t_max):
            parts.append(disp[disp <= t_max])
        disp = np.sort(np.concatenate(parts))
        counts = np.searchsorted(disp, grid, side="right").astype(float)
    if counts[-1] < min_points:
        raise GroupError(
            "only %d orbit points below %.3g; need %d for a stable fit"
            % (int(counts[-1]), t_max, min_points)
        )
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
    if not grid_step > 0:
        raise GroupError("grid step must be positive, got %r" % (grid_step,))
    grid = np.arange(1.0, t_max + 0.5 * grid_step, grid_step)
    if len(grid) == 0:
        raise GroupError("radius %.3g is below 1: empty count grid" % t_max)
    counts = (1 + 2 * group._cyclic_max_power(grid)).astype(float)
    ratio = counts * np.exp(-0.5 * grid)
    return float(max(ratio.max(), (1.0 / ratio).max()))


# ---------------------------------------------------------------- limit set

# head length of WordSpec.random, ahead of its two-letter period
_RANDOM_HEAD = 12


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
    def random(cls, group: FuchsianGroup, seed: int, depth: int = 24) -> "WordSpec":
        """Seeded random spec: a reduced head of _RANDOM_HEAD letters, then a
        two-letter period (a letter repeated if the pair is not cyclically
        reduced)."""
        rng = np.random.default_rng(seed)
        letters = group._random_reduced_letters(rng, _RANDOM_HEAD + 2)
        head, period = letters[:_RANDOM_HEAD], letters[_RANDOM_HEAD:]
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

    An optional 'name =' line comes first. Blocks start at a 'label =' line
    and need 'matrix = a b c d', 'domain = lo hi' and
    'kind = hyperbolic|parabolic'; any other key, or a key given twice in
    one block or twice before the first, is an error, and '#' starts a
    comment. Every letter, inverses included, gets its own block, and a
    group needs at least one letter pair. name is the group's name unless
    the text sets one; an error that names a line, or finds no letters,
    names it as the source.
    """

    def at(ln):
        return "%s line %d" % (name, ln) if name else "line %d" % ln

    # each block maps its keys to (value, line)
    blocks: list[dict] = []
    group_name, name_line = name, None
    for ln, key, val in key_value_lines(text, GroupError, at):
        if key == "label":
            blocks.append({"label": (val, ln)})
        elif blocks:
            if key not in ("kind", "matrix", "domain"):
                raise GroupError(
                    "%s: unknown key %r in generator %r; a block takes label, kind, "
                    "matrix and domain" % (at(ln), key, blocks[-1]["label"][0])
                )
            if key in blocks[-1]:
                raise GroupError(
                    "%s: duplicate key %r in generator %r, first given on line %d"
                    % (at(ln), key, blocks[-1]["label"][0], blocks[-1][key][1])
                )
            blocks[-1][key] = (val, ln)
        elif key == "name":
            if name_line is not None:
                raise GroupError(
                    "%s: duplicate key 'name', first given on line %d" % (at(ln), name_line)
                )
            group_name, name_line = val, ln
        else:
            raise GroupError(
                "%s: unknown key %r; only name may come before the first label" % (at(ln), key)
            )
    if not blocks:
        raise GroupError(
            "%s defines no generators; a group needs at least one letter pair"
            % (name or "group text")
        )

    def numbers(block, key, count, what):
        val, ln = block[key]
        label = block["label"][0]
        try:
            out = [float(v) for v in val.split()]
        except ValueError as e:
            raise GroupError("%s: generator %r: %s" % (at(ln), label, e)) from None
        if len(out) != count:
            raise GroupError("%s: generator %r: %s needs %d %s" % (at(ln), label, key, count, what))
        if not all(math.isfinite(v) for v in out):
            raise GroupError("%s: generator %r: %s must be finite, got %r" % (at(ln), label, key, val))
        return out

    letters = []
    first_line = {}
    for b in blocks:
        label, label_line = b["label"]
        if label in first_line:
            raise GroupError(
                "%s: duplicate label %r, first given on line %d"
                % (at(label_line), label, first_line[label])
            )
        first_line[label] = label_line
        missing = [k for k in ("matrix", "domain", "kind") if k not in b]
        if missing:
            raise GroupError(
                "generator %r (%s) is missing %s" % (label, at(label_line), ", ".join(missing))
            )
        kind, kind_line = b["kind"]
        if kind not in ("hyperbolic", "parabolic"):
            raise GroupError(
                "%s: generator %r: kind must be hyperbolic or parabolic, got %r"
                % (at(kind_line), label, kind)
            )
        if len(label) != 1 or not label.isalpha():
            raise GroupError("%s: labels are single letters, got %r" % (at(label_line), label))
        mat = numbers(b, "matrix", 4, "entries")
        dom = numbers(b, "domain", 2, "endpoints")
        try:
            letters.append(Generator(label, Isometry(*mat), kind, (dom[0], dom[1])))
        except GeometryError as e:  # Isometry refuses the matrix
            raise GroupError("%s: generator %r: %s" % (at(b["matrix"][1]), label, e)) from None
        except GroupError as e:  # kind and label are checked above: the domain
            raise GroupError("%s: generator %r: %s" % (at(b["domain"][1]), label, e)) from None
    try:
        return FuchsianGroup(letters, name=group_name)
    except (GroupError, GeometryError) as e:
        raise GroupError("%s: %s" % (name, e) if name else str(e)) from None


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
