"""The four benchmark workloads: set-up, one op, and the op's output check.

Each workload is a closed loop driven by ``run.py``: one process, one thread,
the next op starts when the previous one returns. A workload is a dict with

- ``setup(seed)``: build everything the first op needs (after ``import
  horolab``); this is what ``setup_s`` times from a fresh interpreter;
- ``op(state, slot)``: one unit of user-visible work, returning its
  outputs; a ``slotted`` workload draws op inputs from (seed, slot), the
  others ignore the slot and repeat one op;
- ``check(outputs, refs, seed, slot)``: a list of problems, empty when the
  outputs match the references recorded from the seed commit;
- ``same(a, b)``: whether two ops on the same inputs produced identical
  outputs (used to assert that traced and untraced ops agree);
- ``layer_counts(outputs)``: per-layer numbers the op reports itself
  (the battery's per-criterion seconds).

Ops call the library through module attributes (``horolab.measures.X``),
never through names bound at import, so the tracing wrappers see them.

Running this file directly (``python3 perfbench/workloads.py <workload>
<seed>``) performs one set-up in a fresh interpreter, prints ``ready`` and
exits; ``run.py`` times that from the outside.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, "work")

# vectors per builtin group in one leaf-averages op
K_VECTORS = 16


def import_horolab():
    """Import horolab from the checkout's ``src``; refuse any other copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import horolab  # noqa: F401  (the import is the point)
    import horolab.cli

    where = os.path.realpath(horolab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError("horolab imported from %s, not from %s" % (where, SRC))
    return horolab


class WordMeter:
    """The one place that reads the library's materialized-word counter.

    The counter is process-global in the library today; when it becomes
    run-scoped only this class changes.
    """

    def start(self) -> None:
        import horolab.groups

        horolab.groups.reset_word_counter()

    def read(self) -> int:
        import horolab.groups

        return int(horolab.groups.enumerated_word_count())


def _bumps(group, centers):
    import horolab.averages as av
    from horolab.defaults import BUMP_WIDTHS

    wb, wa = BUMP_WIDTHS
    return [
        av.TestFunction(group, av.pointed_frame(*cd), base_width=wb, angle_width=wa)
        for cd in centers
    ]


def _measure(group, name, cutoff=14, radius=None):
    import horolab.measures as ms
    from horolab.defaults import KNOWN_EXPONENTS, PATTERSON_RADIUS

    if radius is None:
        radius = PATTERSON_RADIUS[name]
    delta = KNOWN_EXPONENTS[name]
    return ms.build_patterson(group, ms.PattersonConfig(delta, cutoff, radius)), delta


def digest(values) -> str:
    """Short fingerprint of a float list, exact to the last bit."""
    return hashlib.sha256(struct.pack("<%dd" % len(values), *values)).hexdigest()[:16]


# ------------------------------------------------------------ checks-battery


def battery_setup(seed):
    import_horolab()
    os.makedirs(WORK_DIR, exist_ok=True)
    return {"seed": seed}


def battery_op(state, slot):
    import horolab.cli

    out = tempfile.mkdtemp(prefix="checks-", dir=WORK_DIR)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = horolab.cli.main(["checks", "--out", out, "--seed", str(state["seed"])])
        with open(os.path.join(out, "checks.csv"), encoding="utf-8") as fh:
            rows = fh.read().splitlines()[1:]
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {
        "rc": rc,
        "passed": [row.split(",")[1] == "1.0" for row in rows],
        "words": manifest["enumerated_words"],
        "criteria_s": {c["name"]: c["seconds"] for c in manifest["criteria"]},
    }


def battery_check(out, refs, seed, slot):
    problems = []
    if out["rc"] != 0:
        problems.append("exit code %r" % out["rc"])
    if len(out["passed"]) != refs["criteria"] or not all(out["passed"]):
        problems.append("%d/%d PASS" % (sum(out["passed"]), len(out["passed"])))
    if out["words"] != refs["enumerated_words"]:
        problems.append("enumerated_words %d != %d" % (out["words"], refs["enumerated_words"]))
    return problems


def battery_same(a, b):
    return (a["rc"], a["passed"], a["words"]) == (b["rc"], b["passed"], b["words"])


def battery_layers(out):
    # the budget criterion is bookkeeping, recorded with zero seconds
    return {
        "checks.%s_s" % k: v for k, v in out["criteria_s"].items() if k != "word-and-time-budget"
    }


# ------------------------------------------------------- boundary-quadrature


def quadrature_setup(seed):
    hl = import_horolab()
    from horolab.defaults import DEFAULT_BUMPS, RATIO_BUMPS, resolve_group

    schottky = resolve_group("schottky")
    cusped = resolve_group("cusped")
    measure, delta = _measure(cusped, "cusped")
    return {
        "schottky": schottky,
        "bumps": [hl.averages.ConstantFunction()] + _bumps(schottky, DEFAULT_BUMPS["schottky"]),
        "ratio": (measure, delta, _bumps(cusped, RATIO_BUMPS)),
    }


def quadrature_op(state, slot):
    import horolab.measures as ms

    # what `horolab patterson` does: one cold pair field, then cache hits
    measure, delta = _measure(state["schottky"], "schottky")
    rows = [list(ms.quadrature_report(psi, measure, delta)) for psi in state["bumps"]]
    cm, cd, ratio_bumps = state["ratio"]
    br = [ms.br_integral(psi, cm, cd) for psi in ratio_bumps]
    return {"quadrature": rows, "br": br, "atoms": len(measure)}




# --------------------------------------------------------- orbit-enumeration

# The Schottky fit walks about 20 wide levels (array-throughput bound); the
# cusped fit walks long parabolic corridors only a few words wide (per-level
# overhead bound). The measures cap word length at 60, above every Schottky
# level within radius 28, so the cap only cuts the cusped corridors.
ORBIT_FITS = (("cusped", 18.0), ("schottky", 28.0))
ORBIT_MEASURES = (("schottky", 60, 28.0), ("cusped", 60, 17.0))


def orbit_setup(seed):
    import_horolab()
    from horolab.defaults import resolve_group

    return {"groups": {name: resolve_group(name) for name in ("schottky", "cusped")}}


def orbit_op(state, slot):
    import horolab.groups as gr
    import horolab.measures as ms

    groups = state["groups"]
    fits = [gr.critical_exponent(groups[name], t_max=t) for name, t in ORBIT_FITS]
    deltas = [fit.delta for fit in fits]
    kept = [int(fit.counts[-1]) for fit in fits]
    atoms, defects = [], []
    for name, cutoff, radius in ORBIT_MEASURES:
        measure, delta = _measure(groups[name], name, cutoff, radius)
        atoms.append(len(measure))
        defects += [ms.conformality_defect(measure, lab, delta) for lab in groups[name].order]
    return {"deltas": deltas, "kept": kept, "atoms": atoms, "defects": defects}


# ------------------------------------------------------------- leaf-averages

# Op n of a run averages over its own slot of K_VECTORS fresh vectors per
# group, so a 22 s run covers a few hundred vectors and its figures depend
# on the seed far less than the figures of any fixed handful would.


def _leaf_vectors(group, measure, delta, seed, slot, k):
    """k radial vectors from random limit words seeded by (seed, slot).

    A candidate is kept when its backward endpoint is radial (a random word
    can end in a parabolic power) and its conditional measure has an atom in
    the unit leaf ball, which the mixing ladder averages over.
    """
    import numpy as np
    import horolab.averages as av
    import horolab.groups as gr
    import horolab.measures as ms

    vectors = []
    for j in range(64 * k):
        if len(vectors) == k:
            return vectors
        base = ((seed * 100_003 + slot) * 4096 + j) * 2
        minus = gr.sample_limit_point(group, gr.WordSpec.random(group, base))
        plus = gr.sample_limit_point(group, gr.WordSpec.random(group, base + 1))
        u, cls = av.build_vector(group, minus, plus)
        if cls is not av.VectorClass.RADIAL:
            continue
        if np.any(np.abs(ms.conditional_on_horocycle(u, measure, delta).params) < 1.0):
            vectors.append(u)
    raise RuntimeError("seed %d slot %d: fewer than %d usable vectors" % (seed, slot, k))


def leaf_setup(seed):
    import_horolab()
    from horolab.defaults import DEFAULT_BUMPS, resolve_group

    cases = []
    for name in ("schottky", "cusped"):
        group = resolve_group(name)
        measure, delta = _measure(group, name)
        cases.append((name, group, measure, delta, _bumps(group, DEFAULT_BUMPS[name])))
    return {"seed": seed, "cases": cases}


def leaf_op(state, slot):
    import horolab.averages as av
    from horolab.defaults import EQUIDIST_RADII, MIXING_TIMES, NONDIV_HEIGHT

    values = []
    for name, group, measure, delta, bumps in state["cases"]:
        for u in _leaf_vectors(group, measure, delta, state["seed"], slot, K_VECTORS):
            for psi in bumps:
                values += [av.average_ps(u, r, psi, measure, delta) for r in EQUIDIST_RADII]
            values += [
                av.average_ps(u, 1.0, av.ShiftedFunction(bumps[0], t), measure, delta)
                for t in MIXING_TIMES
            ]
            if name == "schottky":
                # On the cusped group the arc-length refinement depth is heavy
                # tailed (one vector in ~40 needs 4 halvings, one in ~700
                # needs 5), so a rare draw would set a run's peak RSS and time.
                values.append(av.average_lebesgue(u, math.exp(6.0), bumps[0]))
            else:
                ser = av.mass_in_compact(u, EQUIDIST_RADII, NONDIV_HEIGHT, measure, delta)
                values += [float(v) for v in ser.values]
    return {"values": [float(v) for v in values]}


def leaf_check(out, refs, seed, slot):
    values = out["values"]
    # bumps, their flows and the thick-part cap all take values in [0, 1]
    bad = [v for v in values if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        return ["%d values outside [0, 1], e.g. %r" % (len(bad), bad[0])]
    want = refs["digests"].get(str(seed), [])
    if slot < len(want) and digest(values) != want[slot]:
        return ["values differ from the reference for seed %d slot %d" % (seed, slot)]
    return []


def _matches(*keys):
    """An output check comparing the named outputs with their references exactly."""

    def check(out, refs, seed, slot):
        return ["%s %r != %r" % (k, out[k], refs[k]) for k in keys if out[k] != refs[k]]

    return check


def _equal(a, b):
    return a == b


def _no_layers(out):
    return {}


# `slotted` workloads give every op its own inputs; the others repeat one op.
WORKLOADS = {
    "checks-battery": dict(
        setup=battery_setup, op=battery_op, check=battery_check,
        same=battery_same, layer_counts=battery_layers, slotted=False,
    ),
    "boundary-quadrature": dict(
        setup=quadrature_setup, op=quadrature_op, check=_matches("quadrature", "br", "atoms"),
        same=_equal, layer_counts=_no_layers, slotted=False,
    ),
    "orbit-enumeration": dict(
        setup=orbit_setup, op=orbit_op, check=_matches("deltas", "kept", "atoms", "defects"),
        same=_equal, layer_counts=_no_layers, slotted=False,
    ),
    "leaf-averages": dict(
        setup=leaf_setup, op=leaf_op, check=leaf_check,
        same=_equal, layer_counts=_no_layers, slotted=True,
    ),
}


if __name__ == "__main__":
    WORKLOADS[sys.argv[1]]["setup"](int(sys.argv[2]))
    print("ready", flush=True)
