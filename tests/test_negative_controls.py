"""Negative controls: the acceptance battery must fail when one defect is
planted in its inputs.

Each test plants one defect in the Schottky and cusped inputs only, through
what defaults.Loader calls, runs checks.run_all() and asserts which criteria
fail. A criterion that passes on a wrong input is no evidence for the right
one. Planted defects under which every criterion still passes (δ × 0.9 is
one) are not asserted here: they are open questions about the battery, not
behaviour to keep.
"""

import dataclasses

import numpy as np

from horolab import checks, defaults

PLANTED = ("schottky", "cusped")


def failing(monkeypatch, name, wrap):
    """The criteria that fail with defaults.<name> wrapped by wrap, which
    takes the original and returns its replacement."""
    monkeypatch.setattr(defaults, name, wrap(getattr(defaults, name)))
    results, _ = checks.run_all()
    return {r.name for r in results if not r.passed}


def test_halved_exponent_fails_equidistribution_and_mixing(monkeypatch):
    def halved(fit):
        def planted(group, *args, **kwargs):
            out = fit(group, *args, **kwargs)
            return dataclasses.replace(out, delta=0.5 * out.delta) if group.name in PLANTED else out
        return planted

    assert failing(monkeypatch, "critical_exponent", halved) == {"equidistribution-trend", "mixing-approach"}


def test_permuted_atom_weights_fail_conformality_and_equidistribution(monkeypatch):
    # a quarter of the atoms, drawn with seed 0, swap their log-weights
    # among themselves; the total mass is unchanged
    def permuted(build):
        def planted(group, cfg):
            m = build(group, cfg)
            if group.name not in PLANTED:
                return m
            n = len(m)
            rng = np.random.default_rng(0)
            idx = rng.choice(n, n // 4, replace=False)
            lw = m.log_weights.copy()
            lw[idx] = lw[rng.permutation(idx)]
            return dataclasses.replace(m, log_weights=lw)
        return planted

    assert failing(monkeypatch, "build_patterson", permuted) == {"conformality-trend", "equidistribution-trend"}
