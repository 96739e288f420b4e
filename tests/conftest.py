from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from horolab import measures
from horolab.geometry import Isometry, UnitTangent
from horolab.groups import parse_group_text


def iwasawa(x: float, t: float, theta: float) -> Isometry:
    """Generic frame n_x a_t k_theta; covers the whole isometry group."""
    n = Isometry(1.0, x, 0.0, 1.0)
    a = Isometry(math.exp(0.5 * t), 0.0, 0.0, math.exp(-0.5 * t))
    k = Isometry(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    return n @ a @ k


def random_frame(rng: np.random.Generator, spread: float = 2.0) -> UnitTangent:
    return UnitTangent(
        iwasawa(
            spread * rng.standard_normal(),
            spread * rng.standard_normal() * 0.5,
            rng.uniform(-math.pi, math.pi),
        )
    )


def peak_mib(run) -> float:
    """Peak traced memory of run() above what was traced before, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def quadrature_constants(monkeypatch, measure, **constants):
    """Set module constants of horolab.measures for one test, such as
    _PAIR_GRID=... or _BOX_ATOMS=60, and return measure with an empty
    _pair_cache: the cache is keyed on the exponent alone, so a field built
    under other constants would be reused."""
    for name, value in constants.items():
        assert hasattr(measures, name), name
        monkeypatch.setattr(measures, name, value)
    return dataclasses.replace(measure, _pair_cache={})


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260814)


def conjugate(group, rng):
    """group conjugated by a random real Moebius map M that sends every
    generator interval to a finite interval and keeps i in the fundamental
    domain; returned as parsed from its text form, with M."""
    while True:
        theta = rng.uniform(-1.2, 1.2)
        e = math.exp(0.5 * rng.uniform(-1.0, 1.0))
        shift = rng.uniform(-2.0, 2.0)
        c, s = math.cos(theta), math.sin(theta)
        m = Isometry(e, shift / e, 0.0, 1.0 / e) @ Isometry(c, s, -s, c)
        a, b, cc, d = m.entries()
        pole = -d / cc
        if any(lo - 1e-9 <= pole <= hi + 1e-9 for lo, hi in group.hull_intervals()):
            continue
        lines = []
        for lab in group.order:
            gen = group.letters[lab]
            lo, hi = ((a * x + b) / (cc * x + d) for x in gen.domain)
            lines += [
                "label = %s" % lab,
                "kind = %s" % gen.kind,
                "matrix = %.17g %.17g %.17g %.17g" % (m @ gen.matrix @ m.inverse()).entries(),
                "domain = %.17g %.17g" % (lo, hi),
            ]
        conj = parse_group_text("\n".join(lines) + "\n")
        if conj.in_fundamental_domain(1j):
            return conj, m


def joined_field(table):
    """The pair field's (x, y, theta, weight) per cell, each cell's
    coordinates rebuilt from its pair's seeds by the quadrature's own
    rebuild."""
    ends = table.ends
    return measures._run_points(table, slice(None), ends - np.diff(ends, prepend=0), ends)[1:]
