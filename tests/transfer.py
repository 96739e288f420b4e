"""Transfer-operator oracle for the critical exponent of a Schottky group.

For a group of hyperbolic interval pairings, the letter l maps every
boundary interval but that of its inverse into its own interval I_l. The
Ruelle operator

    (L_s f)(x) = sum over l != inverse of k of |g_l'(x)|^s f(g_l x),  x in I_k,

has spectral radius 1 at s = delta, the critical exponent (McMullen 1998;
Jenkinson-Pollicott 2002; Borthwick, Spectral Theory of Infinite-Area
Hyperbolic Surfaces, ch. 15). It is discretized by Chebyshev collocation
with n nodes per interval: block (k, l) is |g_l'|^s at the nodes of I_k
times the barycentric interpolation at their images in I_l. delta is found
by bisection on log rho(s), with the spectral radius from
numpy.linalg.eigvals. Nothing here reads orbit counts, so delta is
independent of critical_exponent's fit.

The group's order puts the inverse of letter k at k ^ 1; _mats, _centers and
_radii give each letter's matrix and the center and radius of its interval.
"""

from __future__ import annotations

import math

import numpy as np


def chebyshev(n: int):
    """Chebyshev nodes of the first kind on [-1, 1] and their barycentric
    weights."""
    angle = (2 * np.arange(n) + 1) * np.pi / (2 * n)
    return np.cos(angle), (-1.0) ** np.arange(n) * np.sin(angle)


def interpolation(nodes, weights, y):
    """Matrix (len(y), len(nodes)) whose row i takes values at the nodes to
    the interpolating polynomial's value at y[i], by the barycentric
    formula; exact where y[i] is a node."""
    diff = y[:, None] - nodes[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = weights / diff
        out = q / q.sum(axis=1, keepdims=True)
    hit = exact.any(axis=1)
    out[hit] = exact[hit]
    return out


def collocation(group, n: int):
    """(base, logs): the collocation matrix of L_s with n nodes per interval
    is base * exp(-2 s logs), one row and one column per (interval, node).
    base holds the interpolation blocks, zero where l is the inverse of k,
    and logs the log |c x + d| of letter l's matrix at each node x of I_k,
    since |g_l'(x)| = |c x + d|^-2 for a matrix of determinant one.
    ValueError for a group with a parabolic letter, whose operator this
    collocation does not converge on."""
    parabolic = [lab for lab in group.order if group.letters[lab].kind != "hyperbolic"]
    if parabolic:
        raise ValueError("the transfer operator needs hyperbolic letters only; %r is parabolic" % parabolic[0])
    x, w = chebyshev(n)
    m = len(group.order)
    nodes = group._centers[:, None] + group._radii[:, None] * x[None, :]
    base = np.zeros((m * n, m * n))
    logs = np.zeros((m * n, m * n))
    for k in range(m):
        for l in range(m):
            if l == k ^ 1:
                continue
            (a, b), (c, d) = group._mats[l]
            den = c * nodes[k] + d
            image = ((a * nodes[k] + b) / den - group._centers[l]) / group._radii[l]
            if not np.all(np.abs(image) < 1.0):
                raise ValueError("letter %r does not map interval %r into its own" % (group.order[l], group.order[k]))
            rows, cols = slice(k * n, (k + 1) * n), slice(l * n, (l + 1) * n)
            base[rows, cols] = interpolation(x, w, image)
            logs[rows, cols] = np.log(np.abs(den))[:, None]
    return base, logs


def log_spectral_radius(base, logs, s: float) -> float:
    """log rho(L_s) of the collocation (base, logs)."""
    return math.log(float(np.max(np.abs(np.linalg.eigvals(base * np.exp(-2.0 * s * logs))))))


def operator_delta(group, n: int = 24, tol: float = 1e-13) -> float:
    """The s in (0, 1) at which L_s has spectral radius one, by bisection
    on log rho(s) down to an interval of width tol."""
    base, logs = collocation(group, n)
    lo, hi = 0.0, 1.0
    if not (log_spectral_radius(base, logs, lo) > 0.0 > log_spectral_radius(base, logs, hi)):
        raise ValueError("log rho(s) does not change sign on (0, 1)")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if log_spectral_radius(base, logs, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
