"""Verification battery for the shipped configuration.

Each check exercises one guaranteed property of the library on the default
groups and reports a pass/fail with the measured number next to its
threshold. The geometric identities (Busemann oracle, leaf parametrization,
flow conjugation and commutation, atomic reweighting) are float-noise exact;
the equidistribution trends use calibrated tolerances, recorded in
TOLERANCES so every run manifest carries them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .defaults import (
    BUILTIN_NAMES,
    BUMP_WIDTHS,
    DEFAULT_BUMPS,
    DEFECT_LADDER,
    EQUIDIST_RADII,
    EXPERIMENT_PERIODS,
    EXPONENT_RADIUS,
    MIXING_LEAF_COORDINATE,
    MIXING_TIMES,
    NONDIV_HEIGHT,
    PATTERSON_RADIUS,
    RATIO_BUMPS,
    Loader,
)
from .geometry import (
    INFINITY,
    BoundaryPoint,
    Isometry,
    ORIGIN,
    PlanePoint,
    UnitTangent,
    busemann,
    frame_distance,
    from_coordinates,
    geodesic_between,
    geodesic_flow,
    hamenstadt_distance,
    horocycle_flow,
    hyperbolic_distance,
    mobius_apply,
)
from .groups import check_parabolic_growth, enumerated_word_count, reset_word_counter
from .measures import conditional_on_horocycle, conformality_defect, ps_integral
from .averages import (
    HaarDensity,
    average_ps,
    flow_commutation_residual,
    mass_in_compact,
    mixing_series,
    periodic_closure,
    ratio_series,
)

__all__ = ["TOLERANCES", "CheckResult", "CHECK_ORDER", "run_all", "witnesses"]

SEED = 20260814
WORD_BUDGET = 1_000_000
TIME_BUDGET = 600.0

# thresholds for the calibrated checks; the identities use fixed float
# tolerances listed inline with each check
TOLERANCES = {
    "ball_scaling_rel": 0.05,
    "reweighting_abs": 1e-10,
    "equidist_final_rel": 0.20,
    "ratio_drift_rel": 0.10,
    "ratio_final_rel": 0.25,
    "mixing_final_rel": 0.20,
    "nondiv_min_mass": 0.80,
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float = 0.0


def witnesses() -> dict:
    """The exact frozen inputs the battery runs on, for the manifest."""
    return {
        "vector_periods": {k: [list(p) for p in v] for k, v in EXPERIMENT_PERIODS.items()},
        "bumps": {k: [list(b) for b in v] for k, v in DEFAULT_BUMPS.items()},
        "ratio_bumps": [list(b) for b in RATIO_BUMPS],
        "bump_widths": list(BUMP_WIDTHS),
        "equidist_radii": list(EQUIDIST_RADII),
        "mixing_times": list(MIXING_TIMES),
        "mixing_leaf_coordinate": MIXING_LEAF_COORDINATE,
        "nondiv_height": NONDIV_HEIGHT,
        "defect_ladder": {k: [list(step) for step in v] for k, v in DEFECT_LADDER.items()},
        "patterson_radius": dict(PATTERSON_RADIUS),
        "exponent_radius": dict(EXPONENT_RADIUS),
        "seed": SEED,
    }


def _random_frame(rng, spread: float = 2.0) -> UnitTangent:
    x = spread * rng.standard_normal()
    t = spread * 0.5 * rng.standard_normal()
    theta = rng.uniform(-math.pi, math.pi)
    n = Isometry(1.0, x, 0.0, 1.0)
    a = Isometry(math.exp(0.5 * t), 0.0, 0.0, math.exp(-0.5 * t))
    k = Isometry(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    return UnitTangent(n @ a @ k)


def _busemann_probe(xi, p, q, probe_distance: float) -> float:
    other = BoundaryPoint(0.0) if xi.is_infinity else BoundaryPoint(xi.value + 1.0)
    m = geodesic_between(other, xi)
    base = m.inverse().apply_complex(ORIGIN.as_complex)
    z = mobius_apply(m, PlanePoint(0.0, abs(base) * math.exp(probe_distance)))
    return hyperbolic_distance(p, z) - hyperbolic_distance(q, z)


def check_busemann_oracle(load: dict[str, Loader]):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(500):
        xi = INFINITY if k % 10 == 0 else BoundaryPoint(float(rng.uniform(-5.0, 5.0)))
        p = PlanePoint(float(rng.uniform(-3, 3)), math.exp(float(rng.uniform(-1.0, 1.5))))
        q = PlanePoint(float(rng.uniform(-3, 3)), math.exp(float(rng.uniform(-1.0, 1.5))))
        err = abs(busemann(xi, p, q) - _busemann_probe(xi, p, q, 15.0))
        worst = max(worst, err)
    return worst <= 1e-6, "max |busemann - distance difference| %.3g <= 1e-06" % worst


def check_leaf_distance(load: dict[str, Loader]):
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        u = _random_frame(rng)
        t = float(rng.uniform(-100.0, 100.0))
        worst = max(worst, abs(hamenstadt_distance(u, horocycle_flow(u, t)) - abs(t)))
    return worst <= 1e-9, "max |d(u, h^t u) - |t|| %.3g <= 1e-09" % worst


def check_flow_conjugation(load: dict[str, Loader]):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(1000):
        u = _random_frame(rng)
        s = float(rng.uniform(-5.0, 5.0))
        t = float(rng.uniform(-3.0, 3.0))
        lhs = geodesic_flow(horocycle_flow(u, s), t)
        rhs = horocycle_flow(geodesic_flow(u, t), s * math.exp(t))
        worst = max(worst, frame_distance(lhs, rhs))
    return worst <= 1e-9, "max frame gap of g^t h^s = h^{s e^t} g^t %.3g <= 1e-09" % worst


def check_flow_commutation(load: dict[str, Loader]):
    sch = load["schottky"]
    delta, m, psi = sch.exponent, sch.measure(), sch.bumps()[0]
    base, _ = sch.vector()
    worst = 0.0
    for sigma in (-0.7, -0.3, 0.0, 0.3, 0.7):
        u = horocycle_flow(base, sigma)
        # t outside r: the measure keeps the leaves of u and of g^-t u while
        # r runs, so each flowed leaf is built once
        for t in (0.5, 1.0, 1.5, 2.0, 2.5):
            for r in (math.e, math.e**2, math.e**3, math.e**4, math.e**5):
                worst = max(worst, flow_commutation_residual(u, r, t, psi, m, delta))
    return worst <= 1e-9, "max commutation residual on the 5x5x5 grid %.3g <= 1e-09" % worst


def check_parabolic_exponent(load: dict[str, Loader]):
    up = load["unit-parabolic"]
    delta = up.exponent
    growth = check_parabolic_growth(up.group, t_max=30.0)
    ok = abs(delta - 0.5) <= 0.02 and growth <= 10.0
    return ok, "exponent %.6f in 0.5 +/- 0.02, growth pinch %.3f <= 10" % (delta, growth)


def check_ball_scaling(load: dict[str, Loader]):
    sch = load["schottky"]
    delta, m = sch.exponent, sch.measure()
    u, _ = sch.vector()
    cond = conditional_on_horocycle(u, m, delta)
    worst_mass = 0.0
    worst_atom = 0.0
    for t in (1.0, 2.0, 3.0):
        pulled = conditional_on_horocycle(geodesic_flow(u, -t), m, delta)
        lhs = cond.horoball_mass(math.exp(t))
        rhs = math.exp(delta * t) * pulled.horoball_mass(1.0)
        worst_mass = max(worst_mass, abs(lhs / rhs - 1.0))
        sel = np.abs(cond.params) < math.exp(t)
        selp = np.abs(pulled.params) < 1.0
        if sel.sum() != selp.sum():
            return False, "ball atom counts diverged at t=%g (%d vs %d)" % (
                t,
                int(sel.sum()),
                int(selp.sum()),
            )
        s0 = cond.params[sel]
        s1 = pulled.params[selp]
        drift = np.abs(s1 - s0 * math.exp(-t)) / (1.0 + np.abs(s0) * math.exp(-t))
        wdrift = np.abs(pulled.log_weights[selp] - (cond.log_weights[sel] - delta * t))
        worst_atom = max(worst_atom, float(drift.max()), float(wdrift.max()))
    tol_m = TOLERANCES["ball_scaling_rel"]
    tol_a = TOLERANCES["reweighting_abs"]
    ok = worst_mass <= tol_m and worst_atom <= tol_a
    return ok, "mass scaling error %.3g <= %.3g, atom reweighting drift %.3g <= %.3g" % (
        worst_mass,
        tol_m,
        worst_atom,
        tol_a,
    )


def check_conformality_trend(load: dict[str, Loader]):
    parts = []
    ok = True
    for name in ("schottky", "cusped"):
        delta = load[name].exponent
        ladder = [load[name].measure(c, r) for c, r in DEFECT_LADDER[name]]
        for lab in load[name].group.order:
            seq = [conformality_defect(m, lab, delta) for m in ladder]
            decreasing = all(a > b for a, b in zip(seq, seq[1:]))
            ok = ok and decreasing
            parts.append("%s.%s %.2e->%.2e%s" % (name[0], lab, seq[0], seq[-1], "" if decreasing else " NOT DECREASING"))
    return ok, "median defects " + ", ".join(parts)


def check_equidistribution_trend(load: dict[str, Loader]):
    sch = load["schottky"]
    delta, m = sch.exponent, sch.measure()
    u, _ = sch.vector()
    tol = TOLERANCES["equidist_final_rel"]
    ok = True
    parts = []
    for k, psi in enumerate(sch.bumps()):
        ref = ps_integral(psi, m, delta)
        errs = [abs(average_ps(u, r, psi, m, delta) - ref) for r in EQUIDIST_RADII]
        final_rel = errs[-1] / abs(ref)
        good = all(a > b for a, b in zip(errs, errs[1:])) and final_rel <= tol
        ok = ok and good
        parts.append("psi%d err %.3g->%.3g rel %.3g" % (k + 1, errs[0], errs[-1], final_rel))
    return ok, "; ".join(parts) + " (final rel <= %.2g, errors decreasing)" % tol


def check_ratio_limit(load: dict[str, Loader]):
    cus = load["cusped"]
    delta, m = cus.exponent, cus.measure()
    u, _ = cus.vector()
    psi, phi = cus.bumps(RATIO_BUMPS)
    alpha = HaarDensity("constant", measure=m, exponent=delta)
    ser = ratio_series(u, psi, phi, EQUIDIST_RADII, alpha)
    drift = abs(ser.values[-1] - ser.values[-2]) / abs(ser.values[-1])
    final = abs(ser.values[-1] / ser.reference - 1.0)
    ok = drift <= TOLERANCES["ratio_drift_rel"] and final <= TOLERANCES["ratio_final_rel"]
    return ok, "ratio drift %.3g <= %.2g, final vs transverse reference %.3g <= %.2g" % (
        drift,
        TOLERANCES["ratio_drift_rel"],
        final,
        TOLERANCES["ratio_final_rel"],
    )


def check_mixing_approach(load: dict[str, Loader]):
    sch = load["schottky"]
    delta, m, psi = sch.exponent, sch.measure(), sch.bumps()[0]
    u, _ = sch.vector(s=MIXING_LEAF_COORDINATE)
    ser = mixing_series(u, 1.0, psi, MIXING_TIMES, m, delta)
    final = abs(ser.values[-1] / ser.reference - 1.0)
    ok = final <= TOLERANCES["mixing_final_rel"]
    return ok, "|average/integral - 1| at t=%g is %.3g <= %.2g" % (
        ser.abscissae[-1],
        final,
        TOLERANCES["mixing_final_rel"],
    )


def check_thick_part_mass(load: dict[str, Loader]):
    cus = load["cusped"]
    delta, m = cus.exponent, cus.measure()
    u, _ = cus.vector()
    ser = mass_in_compact(u, EQUIDIST_RADII, NONDIV_HEIGHT, m, delta)
    low = float(min(ser.values))
    ok = low >= TOLERANCES["nondiv_min_mass"]
    return ok, "min thick-part mass over radii %.4f >= %.2f at height cap %g" % (
        low,
        TOLERANCES["nondiv_min_mass"],
        NONDIV_HEIGHT,
    )


def check_periodic_closure(load: dict[str, Loader]):
    group = load["cusped"].group
    t0, residual = periodic_closure(group, "p")
    fp = BoundaryPoint(0.0)
    u0 = from_coordinates(fp, INFINITY, 0.0)
    base, _ = periodic_closure(group, "p", u=u0)
    worst = 0.0
    for s in (0.5, 1.0, 2.0):
        ts, res = periodic_closure(group, "p", u=geodesic_flow(u0, s))
        worst = max(worst, abs(ts / (math.exp(s) * base) - 1.0), res)
    ok = residual <= 1e-8 and worst <= 1e-8
    return ok, "closure residual %.3g <= 1e-08, dilation law error %.3g <= 1e-08 (t0 %.6f)" % (
        residual,
        worst,
        t0,
    )


CHECK_ORDER = [
    ("busemann-oracle", check_busemann_oracle),
    ("leaf-parameter-distance", check_leaf_distance),
    ("flow-conjugation", check_flow_conjugation),
    ("flow-commutation", check_flow_commutation),
    ("parabolic-exponent", check_parabolic_exponent),
    ("ball-scaling", check_ball_scaling),
    ("conformality-trend", check_conformality_trend),
    ("equidistribution-trend", check_equidistribution_trend),
    ("ratio-limit", check_ratio_limit),
    ("mixing-approach", check_mixing_approach),
    ("thick-part-mass", check_thick_part_mass),
    ("periodic-closure", check_periodic_closure),
]


def run_all() -> tuple[list[CheckResult], dict]:
    """Run the battery in order; returns results plus a manifest payload.

    The word counter is reset first so the enumeration budget reflects this
    run alone; budget compliance is itself the final check.
    """
    reset_word_counter()
    load = {name: Loader(name, exponent="fit") for name in BUILTIN_NAMES}
    start = time.perf_counter()
    results = []
    for name, fn in CHECK_ORDER:
        t0 = time.perf_counter()
        passed, detail = fn(load)
        results.append(CheckResult(name, bool(passed), detail, time.perf_counter() - t0))
    elapsed = time.perf_counter() - start
    words = enumerated_word_count()
    budget_ok = words <= WORD_BUDGET and elapsed <= TIME_BUDGET
    results.append(
        CheckResult(
            "word-and-time-budget",
            budget_ok,
            "%d words <= %d, %.1f s <= %.0f s" % (words, WORD_BUDGET, elapsed, TIME_BUDGET),
            0.0,
        )
    )
    manifest = {
        "version": __version__,
        "tolerances": dict(TOLERANCES),
        "witnesses": witnesses(),
        "enumerated_words": words,
        "wall_seconds": round(elapsed, 3),
        "criteria": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": round(r.seconds, 3)}
            for r in results
        ],
    }
    return results, manifest
