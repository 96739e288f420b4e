"""Negative controls: the acceptance battery must fail when one defect is
planted in its inputs.

Each test plants one defect in the Schottky and cusped inputs only, through
what defaults.Loader calls or the orbit walk, runs checks.run_all() and
asserts which criteria fail. A criterion that passes on a wrong input is no
evidence for the right one. Planted defects under which every criterion
still passes (δ × 0.9 is one) are not asserted here: they are open
questions about the battery, not behaviour to keep.
"""

import dataclasses

import numpy as np
import pytest

from horolab import checks, defaults, groups

PLANTED = ("schottky", "cusped")


def failing(monkeypatch, name, wrap, owner=defaults):
    """The criteria that fail with owner.<name> wrapped by wrap, which takes
    the original and returns its replacement."""
    monkeypatch.setattr(owner, name, wrap(getattr(owner, name)))
    results, _ = checks.run_all()
    return {r.name for r in results if not r.passed}


def scaled(factor):
    """A wrap of critical_exponent that scales the planted groups' δ."""
    def wrap(fit):
        def planted(group, *args, **kwargs):
            out = fit(group, *args, **kwargs)
            return dataclasses.replace(out, delta=factor * out.delta) if group.name in PLANTED else out
        return planted
    return wrap


def permuted(share):
    """A wrap of build_patterson under which a share of the planted
    measures' atoms, drawn with seed 0, swap their log-weights among
    themselves; the total mass is unchanged."""
    def wrap(build):
        def planted(group, cfg):
            m = build(group, cfg)
            if group.name not in PLANTED:
                return m
            n = len(m)
            rng = np.random.default_rng(0)
            idx = rng.choice(n, int(n * share), replace=False)
            lw = m.log_weights.copy()
            lw[idx] = lw[rng.permutation(idx)]
            return dataclasses.replace(m, log_weights=lw)
        return planted
    return wrap


def test_halved_exponent_fails_equidistribution_and_mixing(monkeypatch):
    assert failing(monkeypatch, "critical_exponent", scaled(0.5)) == {"equidistribution-trend", "mixing-approach"}


@pytest.mark.parametrize(
    "factor, fails",
    [
        (0.8, {"equidistribution-trend", "mixing-approach"}),
        (1.1, {"equidistribution-trend"}),
        (1.25, {"equidistribution-trend"}),
        (1.5, {"equidistribution-trend"}),
    ],
)
def test_scaled_exponent_fails(monkeypatch, factor, fails):
    assert failing(monkeypatch, "critical_exponent", scaled(factor)) == fails


def test_permuted_atom_weights_fail_conformality_and_equidistribution(monkeypatch):
    assert failing(monkeypatch, "build_patterson", permuted(0.25)) == {"conformality-trend", "equidistribution-trend"}


def test_all_atom_weights_permuted(monkeypatch):
    assert failing(monkeypatch, "build_patterson", permuted(1.0)) == {
        "conformality-trend", "equidistribution-trend", "mixing-approach", "thick-part-mass"
    }


def test_every_100th_child_dropped(monkeypatch):
    # the children 0, 100, 200, ... of every step of the planted groups' walks
    def wrap(children):
        def planted(self, *args):
            out = children(self, *args)
            if self.name not in PLANTED:
                return out
            keep = np.arange(len(out[1])) % 100 != 0
            return tuple(a[keep] for a in out)
        return planted

    fails = failing(monkeypatch, "_pruned_children", wrap, owner=groups.FuchsianGroup)
    assert fails == {"equidistribution-trend", "mixing-approach"}
