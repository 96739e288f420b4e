"""Finitely generated free Fuchsian groups given by ping-pong data on the boundary."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    INFINITY,
    BoundaryPoint,
    GeometryError,
    Isometry,
    frame_point,
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

# rows per block when a level's children or runs are formed: it bounds the
# gathered parent stacks and a pruned level's transient, since each block is
# pruned before the next is formed, and keeps each product below the size at
# which BLAS starts a second thread
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


def _displacement(mats: np.ndarray) -> np.ndarray:
    return _displacement_from_entries(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])


class _RunPowers:
    """Powers of parabolic letters as p^n = alpha_n I + beta_n N, up to sign.

    N is each letter's row of FuchsianGroup._nil, p = I + N up to sign. A
    letter read from a file is parabolic only up to rounding, so N^2 = t N -
    d I with t = tr N and d = det N (Cayley-Hamilton) need not vanish, and
    w + n wN would drift from w p^n over a long run. The tables hold alpha_n
    and beta_n for n = 0..L, one row per letter, and double on demand by
    p^(L+j) = p^L p^j:
        alpha_(L+j) = alpha_L alpha_j - d beta_L beta_j,
        beta_(L+j) = alpha_L beta_j + beta_L alpha_j + t beta_L beta_j.
    For an exact parabolic alpha_n = 1 and beta_n = n exactly.
    """

    def __init__(self, nil: np.ndarray):
        self.nil = nil
        self.t = nil[:, 0, 0] + nil[:, 1, 1]
        self.d = _determinants(nil)
        self.alpha = np.ones((len(nil), 2))
        self.beta = np.tile([0.0, 1.0], (len(nil), 1))

    def coefficients(self, k: int, n: np.ndarray):
        """(alpha_n, beta_n) of the letter in row k, n an int64 array >= 0."""
        while n.max(initial=0) >= self.alpha.shape[1]:
            a, b = self.alpha, self.beta
            al, bl = a[:, -1:], b[:, -1:]
            self.alpha = np.concatenate(
                [a, al * a[:, 1:] - self.d[:, None] * bl * b[:, 1:]], axis=1
            )
            self.beta = np.concatenate(
                [b, al * b[:, 1:] + bl * a[:, 1:] + self.t[:, None] * bl * b[:, 1:]], axis=1
            )
        return self.alpha[k, n], self.beta[k, n]


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

    In the chart the letter acts as a shift by tau, and its domain half-disk
    and the inverse domain become half-planes beyond two walls, center
    halfway between them; the reduction step jumps whole shift powers at
    once.
    """

    label: str
    conjugator: Isometry
    tau: float
    center: float
    nilpotent: np.ndarray  # the letter's row of FuchsianGroup._nil


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
        self._mats = np.array([self.letters[l].matrix.entries() for l in self.order]).reshape(-1, 2, 2)
        inverse = [self.order.index(self.letters[l].inverse_label) for l in self.order]
        if not np.array_equal(inverse, np.arange(len(self.order)) ^ 1):
            # the walk and settle_frames find a letter's inverse at position k ^ 1
            raise GroupError("letter order must put each letter's inverse next to it")
        # what settle_frames applies to leave a hyperbolic letter's half-disk:
        # its matrix inverted, which differs from the inverse letter's matrix
        # in the last bits
        self._leave_mats = np.array(
            [self.letters[l].matrix.inverse().entries() for l in self.order]
        ).reshape(-1, 2, 2)
        # each letter's matrix, signed to trace >= 0, minus the identity: the
        # nilpotent N of a parabolic letter p = I + N
        sign = np.where(self._mats[:, 0, 0] + self._mats[:, 1, 1] < 0.0, -1.0, 1.0)
        self._nil = sign[:, None, None] * self._mats - np.eye(2)
        self._centers = np.array([self.letters[l].center for l in self.order])
        self._radii = np.array([self.letters[l].radius for l in self.order])
        self._parabolic_charts = {}
        for k, l in enumerate(self.order):
            if self.letters[l].kind == "parabolic" and l.islower():
                chart = self._build_parabolic_chart(self.letters[l], self._nil[k])
                self._parabolic_charts[l] = chart
                self._parabolic_charts[chart.label.swapcase()] = chart
        self._validate_domains()
        self._validate_ping_pong()

    # ------------------------------------------------------------ validation

    def _validate_domains(self):
        ivs = sorted((self.letters[l].domain, l) for l in self.order)
        for ((lo1, hi1), l1), ((lo2, hi2), l2) in zip(ivs, ivs[1:]):
            if hi1 < lo2:
                continue
            if hi1 == lo2 and self.letters[l1].inverse_label == l2 and self.letters[l1].kind == "parabolic":
                fp, _ = fixed_points(self.letters[l1].matrix)
                if abs(fp.value - hi1) <= 1e-9:
                    continue
                raise GroupError(
                    "parabolic pair %r/%r domains may only touch at the fixed point" % (l1, l2)
                )
            raise GroupError("domains of %r and %r overlap" % (l1, l2))

    def _validate_ping_pong(self):
        """Check the premise of the ping-pong lemma, which proves the group
        free: each letter g maps the closed arc C, the circle minus the open
        domain of its inverse, into its own domain I_g.

        The test applies each letter to infinity and to every domain
        endpoint outside the open domain of its inverse, and wants each
        image finite and in the letter's domain. In exact arithmetic that
        implies the premise. g(C) is one of the two arcs between g(lo) and
        g(hi), lo and hi the ends of the inverse domain, which the test puts
        in I_g. If it is the arc through infinity, then infinity = g(q) for
        some q in C. A q outside the closed inverse domain fails the inverse
        letter's test of infinity, since g^-1 maps infinity to q; an
        endpoint q fails g's own test, which finds g(q) infinite. So g(C) is
        the arc inside I_g. The test allows 1e-9 of rounding.
        """
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

    def _random_reduced_letters(self, rng, n):
        out = []
        for _ in range(n):
            options = [l for l in self.order if not out or l != self.letters[out[-1]].inverse_label]
            out.append(options[int(rng.integers(len(options)))])
        return tuple(out)

    def _build_parabolic_chart(self, g: Generator, nilpotent: np.ndarray) -> _ParabolicChart:
        fp, _ = fixed_points(g.matrix)
        if fp.is_infinity:
            raise GroupError("parabolic fixed point at infinity needs finite-chart data")
        conj = Isometry(0.0, -1.0, 1.0, -fp.value)
        hat = conj @ g.matrix @ conj.inverse()
        a, b, c, d = hat.entries()
        if a + d < 0:
            a, b, c, d = -a, -b, -c, -d
        if abs(c) > 1e-8 or abs(a - 1.0) > 1e-8 or abs(d - 1.0) > 1e-8 or b == 0.0:
            raise GroupError("parabolic letter %r does not conjugate to a shift" % g.label)
        inv = self.letters[g.inverse_label]

        def far_endpoint(dom):
            lo, hi = dom
            return lo if abs(hi - fp.value) <= abs(lo - fp.value) else hi

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
        return _ParabolicChart(
            label=g.label,
            conjugator=conj,
            tau=b,
            center=0.5 * (wp.value + wm.value),
            nilpotent=nilpotent,
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

    def _walk(self, max_len: int | None, radius: float | None, runs: bool = False):
        """Breadth-first reduced words as stacked matrices, one step at a time.

        Yields (mats, disp, last) per step: the matrices, their displacements
        and each word's last letter (position in order). A step extends the
        words of the step before by one letter (see _pruned_children),
        letter-major and in parent order within a letter. With runs only the
        hyperbolic letters step so: a parabolic letter p extends each word
        that does not end in p or its inverse by its whole run w p^n (see
        _run_arrays), after the letter steps and for at most _CHILD_CHUNK
        words at a time, and the run's words take the other letters next. So
        a cusp corridor costs one step, not one per power; its words are
        formed in closed form, in doubling windows of at most _CHILD_CHUNK
        rows, and differ from the one-letter products in their last bits. A
        run that outlives the bound of an exact parabolic raises GroupError.

        With a radius, words are cut to radius + _PRUNE_SLACK, so near-radius
        words still appear, and the walk dies out on its own (cusp corridors
        get long but not short); without one it needs max_len. max_len counts
        steps, which are word lengths only without runs. Every word formed is
        charged.
        """
        cusp = runs & np.array([self.letters[l].kind == "parabolic" for l in self.order])
        steps, parabolic = np.flatnonzero(~cusp), np.flatnonzero(cusp)
        powers = _RunPowers(self._nil[parabolic])
        cap = None if radius is None else radius + _PRUNE_SLACK
        # the identity's children by the step letters are those letters; the
        # identity also starts every run
        child, letter = self._mats[steps], steps
        disp = _displacement(child)
        if cap is not None:
            keep = np.flatnonzero(disp <= cap)
            child, disp, letter = (np.take(v, keep, axis=0) for v in (child, disp, letter))
        mats, last = np.eye(2)[None], np.full(1, -1)
        _charge_words(1 + len(steps))
        level = 1
        while True:
            # runs of each parabolic letter after the words ending outside
            # its pair, which sits at positions 2i and 2i + 1 of order
            parts = [(child, disp, letter)]
            for k, p in enumerate(parabolic):
                heads = np.flatnonzero((last >> 1) != (p >> 1))
                for lo in range(0, len(heads), _CHILD_CHUNK):
                    block = np.take(mats, heads[lo : lo + _CHILD_CHUNK], axis=0)
                    words, run_disp = self._run_arrays(block, k, powers, cap)
                    if len(words):
                        parts.append((words, run_disp, np.full(len(words), p)))
            mats, disp, last = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
            # held through the next products they would raise the peak
            del parts, child, letter
            if not len(mats):
                return
            yield mats, disp, last
            if level == max_len:
                return
            del disp
            child, disp, letter = self._pruned_children(mats, last, steps, cap)
            level += 1

    def _pruned_children(
        self, mats: np.ndarray, last: np.ndarray, letters: np.ndarray, cap: float | None
    ):
        """The reduced children of the words mats, whose last letters are
        last, by each of letters (positions in order), renormalized and cut
        to displacement cap (None: not cut): one step of _walk. Returns
        (child, disp, letter), letter-major and in parent order within a
        letter, and charges every child formed.

        The parents of letter k are the words that do not end in its
        inverse, the letter at k ^ 1. Their children are formed in blocks of
        at most _CHILD_CHUNK rows, each one (2m x 2) @ (2 x 2) product of the
        gathered rows seen as pairs of entries, written straight into the
        block; a stacked (m, 2, 2) matmul rounds each entry the same way but
        makes one BLAS call per row. Each block is pruned before the next is
        formed, so a level's unpruned children never exist at once;
        unpruned, they go into one stack of the level's size.

        Raises GroupError when a child's determinant is not finite and
        positive, as rounding makes it on words displaced past about 31 on
        the Schottky group: renormalizing would turn the row into NaN, and
        radius pruning would drop it without a word. The message counts the
        lost rows among all the level's children.
        """
        stack = None
        if cap is None:
            n = sum(int(np.count_nonzero(last != k ^ 1)) for k in letters)
            stack = np.empty((n, 2, 2)), np.empty(n), np.empty(n, np.int64)
        parts = [(np.empty((0, 2, 2)), np.empty(0), np.empty(0, np.int64))]
        formed, lost, first = 0, 0, 0.0
        for k in letters:
            parents = np.flatnonzero(last != k ^ 1)
            for lo in range(0, len(parents), _CHILD_CHUNK):
                parent = parents[lo : lo + _CHILD_CHUNK]
                at, formed = formed, formed + len(parent)
                child = np.empty((len(parent), 2, 2)) if stack is None else stack[0][at:formed]
                rows = np.take(mats, parent, axis=0).reshape(-1, 2)
                np.matmul(rows, self._mats[k], out=child.reshape(-1, 2))
                det = _determinants(child)
                bad = np.flatnonzero(~((det > 0.0) & (det < np.inf)))
                if len(bad) and not lost:
                    first = float(det[bad[0]])
                lost += len(bad)
                if lost:
                    continue  # the level is refused; only its lost rows are counted on
                child /= np.sqrt(det)[:, None, None]
                disp = _displacement(child)
                if stack is None:
                    keep = np.flatnonzero(disp <= cap)
                    parts.append((np.take(child, keep, axis=0), np.take(disp, keep),
                                  np.full(len(keep), k)))
                else:
                    stack[1][at:formed], stack[2][at:formed] = disp, k
        if lost:
            raise GroupError(
                "%d of %d word products lost their determinant to rounding (one reads %r); "
                "enumerate to a smaller radius or cutoff" % (lost, formed, first)
            )
        _charge_words(formed)
        return stack if stack is not None else tuple(map(np.concatenate, zip(*parts)))

    def _run_arrays(self, mats: np.ndarray, k: int, powers: _RunPowers, cap: float):
        """Parabolic runs w p^n, n = 1, 2, ..., of the words mats, each cut at
        its first word displaced past cap: a run step of _walk. Returns
        (words, disp) of the words before the cuts, and charges the words
        formed up to each cut.

        k names the letter p among the rows of powers, and the n-th word is
        alpha_n w + beta_n (w N), up to sign. w N is one product of the rows
        seen as pairs of entries, as in _pruned_children, so mats takes at
        most _CHILD_CHUNK rows. Every run still short of cap has formed the
        same powers, and each round extends them all by as many powers again
        (one at first), fewer when the round's block would pass _CHILD_CHUNK
        rows. So no guess of a run's length is needed: a round either fills
        a block or doubles every pending run, which takes about log2 of the
        longest run in rounds beyond the full blocks.

        For an exact parabolic |w + n wN| >= n |wN| - |w| in the Frobenius
        norm, so past (|w| + sqrt(2 cosh cap)) / |wN| powers a word lies
        beyond cap. A run still short of cap past twice that power belongs
        to a letter elliptic within rounding, whose run stays in a bounded
        set; it raises GroupError instead of growing without end.
        """
        wn = np.matmul(mats.reshape(-1, 2), powers.nil[k]).reshape(-1, 2, 2)
        norm = np.sqrt(np.einsum("kij,kij->k", mats, mats))
        limit = 2.0 * (norm + math.sqrt(2.0 * math.cosh(cap)))
        limit /= np.sqrt(np.einsum("kij,kij->k", wn, wn))
        formed = 0
        words, disp = [np.empty((0, 2, 2))], [np.empty(0)]
        while len(mats):
            width = max(min(_CHILD_CHUNK // len(mats), formed), 1)
            alpha, beta = powers.coefficients(k, np.arange(formed + 1, formed + width + 1))
            # (runs, powers, 2, 2): each run's next width words
            block = alpha[:, None, None] * mats[:, None]
            block += beta[:, None, None] * wn[:, None]
            block = block.reshape(-1, 2, 2)
            bd = _displacement(block)
            over = (bd > cap).reshape(-1, width)
            keep = np.flatnonzero(np.cumsum(over, axis=1) == 0)
            going = np.flatnonzero(~over.any(axis=1))
            _charge_words(len(keep) + len(mats) - len(going))
            words.append(np.take(block, keep, axis=0))
            disp.append(np.take(bd, keep))
            mats, wn, limit = (np.take(v, going, axis=0) for v in (mats, wn, limit))
            formed += width
            if len(mats) and formed > limit.min():
                # the k-th parabolic letter, as _walk numbers them
                p = [l for l in self.order if self.letters[l].kind == "parabolic"][k]
                raise GroupError(
                    "the run of parabolic letter %r stays within radius %g after %d powers, past "
                    "twice the bound of an exact parabolic: |trace| = %.17g is elliptic "
                    "within rounding" % (p, cap - _PRUNE_SLACK, formed, abs(self.letters[p].matrix.trace))
                )
        return np.concatenate(words), np.concatenate(disp)

    # cyclic groups: powers of the single letter, displacement monotone in the
    # exponent, so counts come from bisection instead of enumeration
    def _cyclic_power_displacement(self, n) -> np.ndarray:
        k = 0 if self.order[0].islower() else 1
        n = np.asarray(n, dtype=float)
        if self.letters[self.order[k]].kind == "parabolic":
            nil = self._nil[k]
            a = 1.0 + n * nil[0, 0]
            b = n * nil[0, 1]
            c = n * nil[1, 0]
            d = 1.0 + n * nil[1, 1]
        else:
            m = self._mats[k]
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
    (see FuchsianGroup._walk with runs).
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
        for _, disp, _ in group._walk(None, t_max, runs=True):
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


# the radii of check_parabolic_growth: 1 to 30 in steps of 0.25 (117 points)
_GROWTH_RADII = np.arange(1.0, 30.0 + 0.125, 0.25)
_GROWTH_RADII.setflags(write=False)


def check_parabolic_growth(group: FuchsianGroup) -> float:
    """Smallest D with count(T)/e^(T/2) pinched in [1/D, D] over the radii
    T of _GROWTH_RADII, 1 to 30.

    Only meaningful for the cyclic group of one parabolic letter, whose orbit
    counting function grows like e^(T/2).
    """
    if group.rank != 1:
        raise GroupError("parabolic growth check needs a one-generator group")
    lab = group.order[0] if group.order[0].islower() else group.order[1]
    if group.letters[lab].kind != "parabolic":
        raise GroupError("parabolic growth check needs a parabolic generator")
    counts = (1 + 2 * group._cyclic_max_power(_GROWTH_RADII)).astype(float)
    ratio = counts * np.exp(-0.5 * _GROWTH_RADII)
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
    def random(cls, group: FuchsianGroup, seed: int) -> "WordSpec":
        """Seeded random spec: a reduced head of _RANDOM_HEAD letters, then a
        two-letter period (a letter repeated if the pair is not cyclically
        reduced)."""
        rng = np.random.default_rng(seed)
        letters = group._random_reduced_letters(rng, _RANDOM_HEAD + 2)
        head, period = letters[:_RANDOM_HEAD], letters[_RANDOM_HEAD:]
        if group.generator(period[-1]).inverse_label == period[0]:
            period = (period[0], period[0])
        return cls(period=period, head=head)


@dataclass(frozen=True)
class LimitSample:
    """Approximate limit point with its convergence certificate.

    kind is 'parabolic' when the tail is a power of one parabolic letter (the
    point is then exact), 'radial' otherwise; width bounds the nested-interval
    enclosure at the sampled depth.
    """

    point: BoundaryPoint
    kind: str
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
            return LimitSample(push(spec.head, fp), "parabolic", 0.0)
    n = max(spec.depth, 2)
    letters = spec.prefix(n)
    lo, hi = group.generator(letters[-1]).domain
    a = push(letters[:-1], BoundaryPoint(lo))
    b = push(letters[:-1], BoundaryPoint(hi))
    if a.is_infinity or b.is_infinity:
        raise GroupError("nested interval escaped the finite chart")
    mid = 0.5 * (a.value + b.value)
    return LimitSample(BoundaryPoint(mid), "radial", abs(b.value - a.value))


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
