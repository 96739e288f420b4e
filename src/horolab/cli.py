"""Command-line experiment runner.

One subcommand per experiment; configuration comes from a plain key = value
file (same line format as the group files), every key can be overridden with
--override key=value, and artifacts (CSV, optional SVG, a JSON manifest) are
written atomically after the computation finishes, so an aborted run leaves
nothing partial behind.

Exit codes: 0 success, 1 configuration or parse problem (with file/line
diagnostics), 2 numeric failure propagated from the library.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from . import io as artifacts
from .defaults import (
    BUMP_WIDTHS,
    DEFAULT_BUMPS,
    EQUIDIST_RADII,
    EXPERIMENT_PERIODS,
    EXPONENT_RADIUS,
    KNOWN_EXPONENTS,
    MIXING_LEAF_COORDINATE,
    MIXING_TIMES,
    NONDIV_HEIGHT,
    PATTERSON_RADIUS,
    builtin_name,
    resolve_group,
)
from .geometry import GeometryError
from .groups import (
    GroupError,
    WordSpec,
    critical_exponent,
    dumps_group,
    enumerated_word_count,
    reset_word_counter,
    sample_limit_point,
)
from .measures import (
    MeasureError,
    PattersonConfig,
    build_patterson,
    conformality_defect,
    quadrature_report,
)
from .averages import (
    AveragesError,
    ConstantFunction,
    TestFunction,
    average_ps,
    build_vector,
    mass_in_compact,
    mixing_series,
    periodic_closure,
    pointed_frame,
)
from .checks import run_all as run_check_battery

EXPERIMENTS = (
    "group-info",
    "exponent",
    "patterson",
    "equidist",
    "mixing",
    "nondiv",
    "closure",
    "checks",
)

NUMERIC_ERRORS = (
    MeasureError,
    AveragesError,
    GroupError,
    GeometryError,
    OverflowError,
    FloatingPointError,
    ZeroDivisionError,
)


# count-grid step of the orbit-growth fit; the `exponent` experiment's
# grid_step key overrides it there
_FIT_GRID_STEP = 0.5


class ConfigError(ValueError):
    """Bad configuration: unknown keys, unparsable values, missing files."""


# ------------------------------------------------------------ configuration


def parse_config_text(text: str, source: str = "<config>"):
    """key = value lines with '#' comments; returns (values, line numbers)."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                "%s line %d: expected key = value, got %r" % (source, ln, raw.strip())
            )
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError("%s line %d: empty key" % (source, ln))
        if key == "label":
            raise ConfigError(
                "%s line %d: 'label' opens a generator block; this looks like a "
                "group definition file, not an experiment config" % (source, ln)
            )
        if key in values:
            raise ConfigError(
                "%s line %d: duplicate key %r (first set at line %d)"
                % (source, ln, key, lines[key])
            )
        values[key] = val
        lines[key] = ln
    return values, lines


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number, got %r" % raw)
    return value


def _parse_positive(raw: str) -> float:
    value = _parse_float(raw)
    if not value > 0:
        raise ValueError("expected a positive number, got %r" % raw)
    return value


def _parse_floats(raw: str):
    values = tuple(_parse_float(tok) for tok in raw.split())
    if not values:
        raise ValueError("expected at least one number")
    return values


def _parse_letters(raw: str):
    return tuple(raw.split())


def _parse_flag(raw: str) -> bool:
    low = raw.lower()
    if low in ("yes", "true", "on", "1"):
        return True
    if low in ("no", "false", "off", "0"):
        return False
    raise ValueError("expected yes/no, got %r" % raw)


_PARSERS = {
    "float": _parse_float,
    "positive": _parse_positive,
    "int": int,
    "str": str,
    "floats": _parse_floats,
    "letters": _parse_letters,
    "flag": _parse_flag,
}


class Settings:
    """Merged config-file and override values with provenance for errors."""

    def __init__(self, values, lines, source):
        self.values = values
        self.lines = lines
        self.source = source

    def where(self, key: str) -> str:
        ln = self.lines.get(key, 0)
        if ln > 0:
            return "%s line %d" % (self.source, ln)
        return "command-line override"

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, kind: str, default=None):
        if key not in self.values:
            return default
        raw = self.values[key]
        try:
            return _PARSERS[kind](raw)
        except ValueError as e:
            raise ConfigError("%s: key %r: %s" % (self.where(key), key, e)) from None

    def require(self, key: str, kind: str, hint: str = ""):
        if key not in self.values:
            raise ConfigError("missing required key %r%s" % (key, " (%s)" % hint if hint else ""))
        return self.get(key, kind)

    def bump_keys(self):
        found = []
        for key in self.values:
            if key.startswith("bump") and key[4:].isdigit():
                found.append((int(key[4:]), key))
        return [key for _, key in sorted(found)]

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def load_settings(args, allowed: set[str]) -> Settings:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    source = args.config or "<defaults>"
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError("cannot read config %s: %s" % (args.config, e)) from None
        values, lines = parse_config_text(text, source=args.config)
    for item in args.override or ():
        if "=" not in item:
            raise ConfigError("override %r is not key=value" % item)
        key, _, val = item.partition("=")
        key, val = key.strip(), val.strip()
        if not key:
            raise ConfigError("override %r has an empty key" % item)
        values[key] = val
        lines[key] = 0
    st = Settings(values, lines, source)
    bumps = set(st.bump_keys())
    unknown = [k for k in values if k not in allowed and k not in bumps]
    if unknown:
        locs = ", ".join("%r (%s)" % (k, st.where(k)) for k in sorted(unknown))
        raise ConfigError("unknown key(s) for this experiment: %s" % locs)
    return st


# ---------------------------------------------------------- shared loaders


def _load_group(st: Settings, default_spec: str):
    spec = st.get("group", "str", default_spec)
    try:
        return resolve_group(spec), builtin_name(spec), spec
    except GroupError as e:
        raise ConfigError(str(e)) from None


def _resolve_exponent(st: Settings, group, builtin: str | None):
    raw = st.get("exponent", "str", "default")
    if raw == "default":
        if builtin is None:
            raise ConfigError(
                "key 'exponent' is required for file groups: give a number or 'fit'"
            )
        return KNOWN_EXPONENTS[builtin], "frozen"
    if raw == "fit":
        t_max = st.get("fit_radius", "positive", EXPONENT_RADIUS.get(builtin))
        if t_max is None:
            raise ConfigError("exponent = fit needs fit_radius for a file group")
        if not t_max >= _FIT_GRID_STEP:
            raise ConfigError(
                "%s: key 'fit_radius': fit_radius %g below the fit's grid step %g "
                "leaves no count grid" % (st.where("fit_radius"), t_max, _FIT_GRID_STEP)
            )
        return critical_exponent(group, t_max=t_max, grid_step=_FIT_GRID_STEP).delta, "fit"
    try:
        return _parse_float(raw), "given"
    except ValueError:
        raise ConfigError(
            "%s: key 'exponent': expected a number, 'fit' or 'default', got %r"
            % (st.where("exponent"), raw)
        ) from None


def _build_measure(st: Settings, group, builtin, delta):
    cutoff = st.get("cutoff", "int", 14)
    if st.has("radius"):
        raw = st.values["radius"]
        radius = None if raw.lower() == "none" else st.get("radius", "float")
    else:
        radius = PATTERSON_RADIUS.get(builtin)
    return build_patterson(group, PattersonConfig(delta, cutoff, radius)), cutoff, radius


def _period_spec(st: Settings, key: str, group, builtin, slot: int, seed):
    raw = st.get(key, "str", None)
    if raw is None:
        periods = EXPERIMENT_PERIODS.get(builtin)
        if periods is None:
            raise ConfigError("key %r is required for this group" % key)
        return WordSpec(period=periods[slot]), " ".join(periods[slot])
    if raw == "random":
        if seed is None:
            raise ConfigError("--seed is mandatory when %s = random" % key)
        spec = WordSpec.random(group, seed + slot)
        return spec, "random(seed %d)" % (seed + slot)
    letters = tuple(raw.split())
    return WordSpec(period=letters), raw


def _experiment_vector(st: Settings, group, builtin, seed, default_s=0.0):
    spec_m, wit_m = _period_spec(st, "minus_period", group, builtin, 0, seed)
    spec_p, wit_p = _period_spec(st, "plus_period", group, builtin, 1, seed)
    s = st.get("leaf_coordinate", "float", default_s)
    minus = sample_limit_point(group, spec_m)
    plus = sample_limit_point(group, spec_p)
    u, cls = build_vector(group, minus, plus, s=s)
    witness = {
        "minus_period": wit_m,
        "plus_period": wit_p,
        "leaf_coordinate": s,
        "vector_class": cls.value,
        "minus_point": float(minus.point.value),
        "plus_point": float(plus.point.value),
    }
    return u, witness


def _bumps_from_settings(st: Settings, group, builtin):
    wb = st.get("base_width", "float", BUMP_WIDTHS[0])
    wa = st.get("angle_width", "float", BUMP_WIDTHS[1])
    keys = st.bump_keys()
    if keys:
        coords = []
        for key in keys:
            vals = st.get(key, "floats")
            if len(vals) != 3:
                raise ConfigError(
                    "%s: key %r needs 'x y angle', got %d values"
                    % (st.where(key), key, len(vals))
                )
            coords.append(vals)
    else:
        if builtin not in DEFAULT_BUMPS:
            raise ConfigError("give at least one bump1 = x y angle for this group")
        coords = list(DEFAULT_BUMPS[builtin])
    try:
        funcs = [
            TestFunction(group, pointed_frame(*cd), base_width=wb, angle_width=wa,
                         label="psi%d" % (k + 1))
            for k, cd in enumerate(coords)
        ]
    except AveragesError as e:
        raise ConfigError("bad bump: %s" % e) from None
    return funcs, coords, (wb, wa)


# ------------------------------------------------------------- experiments
#
# Each runner returns (files, stdout lines, extra manifest payload, failed).
# Files are (relative path, text) pairs, written only after the whole run
# succeeded.

ALLOWED = {
    "group-info": {"group"},
    "exponent": {"group", "t_max", "grid_step", "window", "min_points", "svg"},
    "patterson": {"group", "exponent", "fit_radius", "cutoff", "radius",
                  "base_width", "angle_width"},
    "equidist": {"group", "exponent", "fit_radius", "cutoff", "radius",
                 "minus_period", "plus_period", "leaf_coordinate", "radii",
                 "base_width", "angle_width", "svg"},
    "mixing": {"group", "exponent", "fit_radius", "cutoff", "radius",
               "minus_period", "plus_period", "leaf_coordinate", "ball_radius",
               "times", "base_width", "angle_width", "svg"},
    "nondiv": {"group", "exponent", "fit_radius", "cutoff", "radius",
               "minus_period", "plus_period", "leaf_coordinate", "k_height",
               "ramp", "radii", "svg"},
    "closure": {"group", "letter", "dilations", "refine_tol", "svg"},
    "checks": set(),
}


def run_group_info(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:schottky")
    lines = ["group %s (%s): rank %d, %d letters" % (group.name or spec, spec, group.rank, len(group.order))]
    for lab in group.order:
        gen = group.letters[lab]
        a, b, c, d = gen.matrix.entries()
        lines.append(
            "  %s  %-10s domain [%g, %g]  matrix [%g %g; %g %g]"
            % (lab, gen.kind, gen.domain[0], gen.domain[1], a, b, c, d)
        )
    hull = group.hull_intervals()
    lines.append("  limit set inside " + ", ".join("[%g, %g]" % iv for iv in hull))
    if builtin is not None:
        lines.append("  growth exponent %.6f (frozen)" % KNOWN_EXPONENTS[builtin])
    payload = {
        "group": spec,
        "rank": group.rank,
        "letters": {
            lab: {
                "kind": group.letters[lab].kind,
                "domain": list(group.letters[lab].domain),
                "matrix": list(group.letters[lab].matrix.entries()),
            }
            for lab in group.order
        },
        "hull_intervals": [list(iv) for iv in hull],
    }
    files = [("group.txt", dumps_group(group))]
    return files, lines, payload, False


def run_exponent(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:schottky")
    t_max = st.get("t_max", "float", EXPONENT_RADIUS.get(builtin))
    if t_max is None:
        raise ConfigError("key 't_max' is required for file groups")
    grid_step = st.get("grid_step", "positive", _FIT_GRID_STEP)
    if not t_max >= grid_step:
        key = "t_max" if st.has("t_max") else "grid_step"
        raise ConfigError(
            "%s: key %r: t_max %g below grid_step %g leaves no count grid"
            % (st.where(key), key, t_max, grid_step)
        )
    window = st.get("window", "float", None)
    min_points = st.get("min_points", "int", 1000)
    fit = critical_exponent(
        group, t_max=t_max, window=window, grid_step=grid_step, min_points=min_points
    )
    rows = [
        (float(t), float(c), fit.delta, "exponent", args.seed)
        for t, c in zip(fit.grid, fit.counts)
    ]
    text = artifacts.series_rows_csv_text(rows)
    files = [("exponent.csv", text)]
    if st.get("svg", "flag", False):
        files.append(("exponent.svg", artifacts.svg_from_series_csv(text)))
    lines = [
        "group %s: exponent %.6f +/- %.2g over window [%.3g, %.3g], %d orbit points"
        % (spec, fit.delta, fit.stderr, fit.window[0], fit.window[1], int(fit.counts[-1]))
    ]
    payload = {
        "group": spec,
        "delta": fit.delta,
        "stderr": fit.stderr,
        "window": list(fit.window),
        "t_max": t_max,
        "grid_step": grid_step,
    }
    return files, lines, payload, False


def run_patterson(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:schottky")
    delta, how = _resolve_exponent(st, group, builtin)
    measure, cutoff, radius = _build_measure(st, group, builtin, delta)
    rows = []
    est, n_cells, grid_h = quadrature_report(ConstantFunction(), measure, delta)
    rows.append(("one", est, n_cells, grid_h))
    if builtin in DEFAULT_BUMPS or st.bump_keys():
        funcs, coords, widths = _bumps_from_settings(st, group, builtin)
        for psi in funcs:
            est, n_cells, grid_h = quadrature_report(psi, measure, delta)
            rows.append((psi.label, est, n_cells, grid_h))
    defects = {lab: conformality_defect(measure, lab, delta) for lab in group.order}
    files = [
        ("atoms.csv", artifacts.atoms_csv_text(measure)),
        ("quadrature.csv", artifacts.quadrature_csv_text(rows)),
    ]
    lines = [
        "group %s: %d atoms at cutoff %d, radius %s, exponent %.6f (%s)"
        % (spec, len(measure), cutoff, "%g" % radius if radius is not None else "none", delta, how),
        "conformality defects: "
        + ", ".join("%s %.2e" % (lab, defects[lab]) for lab in group.order),
    ]
    payload = {
        "group": spec,
        "exponent": delta,
        "exponent_source": how,
        "cutoff": cutoff,
        "radius": radius,
        "atoms": len(measure),
        "conformality_defects": defects,
        "quadrature": [
            {"psi_id": r[0], "estimate": r[1], "n_cells": r[2], "grid_h": r[3]} for r in rows
        ],
    }
    return files, lines, payload, False


def run_equidist(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:schottky")
    delta, how = _resolve_exponent(st, group, builtin)
    measure, cutoff, radius = _build_measure(st, group, builtin, delta)
    u, witness = _experiment_vector(st, group, builtin, args.seed)
    radii = sorted(st.get("radii", "floats", EQUIDIST_RADII))
    funcs, coords, widths = _bumps_from_settings(st, group, builtin)
    from .measures import ps_integral

    files = []
    lines = []
    report = []
    want_svg = st.get("svg", "flag", False)
    for psi in funcs:
        ref = ps_integral(psi, measure, delta)
        vals = [average_ps(u, r, psi, measure, delta) for r in radii]
        rows = [
            (float(r), float(v), float(ref), "equidist:%s" % psi.label, args.seed)
            for r, v in zip(radii, vals)
        ]
        text = artifacts.series_rows_csv_text(rows)
        name = "equidist_%s.csv" % psi.label
        files.append((name, text))
        if want_svg:
            files.append((name[:-4] + ".svg", artifacts.svg_from_series_csv(text)))
        final = abs(vals[-1] - ref) / abs(ref) if ref != 0 else math.inf
        lines.append(
            "%s: integral %.6g, ball averages %s, final relative gap %.3g"
            % (psi.label, ref, ", ".join("%.6g" % v for v in vals), final)
        )
        report.append({"psi_id": psi.label, "reference": ref, "values": vals, "final_rel": final})
    payload = {
        "group": spec,
        "exponent": delta,
        "exponent_source": how,
        "cutoff": cutoff,
        "radius": radius,
        "radii": list(radii),
        "bumps": [list(c) for c in coords],
        "bump_widths": list(widths),
        "vector": witness,
        "series": report,
    }
    return files, lines, payload, False


def run_mixing(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:schottky")
    delta, how = _resolve_exponent(st, group, builtin)
    measure, cutoff, radius = _build_measure(st, group, builtin, delta)
    u, witness = _experiment_vector(st, group, builtin, args.seed, default_s=MIXING_LEAF_COORDINATE)
    ball_radius = st.get("ball_radius", "float", 1.0)
    times = sorted(st.get("times", "floats", MIXING_TIMES))
    funcs, coords, widths = _bumps_from_settings(st, group, builtin)
    psi = funcs[0]
    ser = mixing_series(u, ball_radius, psi, times, measure, delta,
                        experiment_id="mixing:%s" % psi.label, seed=args.seed)
    text = artifacts.series_csv_text(ser)
    files = [("mixing.csv", text)]
    if st.get("svg", "flag", False):
        files.append(("mixing.svg", artifacts.svg_from_series_csv(text)))
    final = abs(ser.values[-1] / ser.reference - 1.0)
    lines = [
        "mixing at radius %g: integral %.6g, value at t=%g is %.6g (relative gap %.3g)"
        % (ball_radius, ser.reference, ser.abscissae[-1], ser.values[-1], final)
    ]
    payload = {
        "group": spec,
        "exponent": delta,
        "exponent_source": how,
        "cutoff": cutoff,
        "radius": radius,
        "ball_radius": ball_radius,
        "times": list(times),
        "bump": list(coords[0]),
        "bump_widths": list(widths),
        "vector": witness,
        "reference": float(ser.reference),
        "final_rel": final,
    }
    return files, lines, payload, False


def run_nondiv(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:cusped")
    delta, how = _resolve_exponent(st, group, builtin)
    measure, cutoff, radius = _build_measure(st, group, builtin, delta)
    u, witness = _experiment_vector(st, group, builtin, args.seed)
    k_height = st.get("k_height", "float", NONDIV_HEIGHT)
    ramp = st.get("ramp", "float", 0.1)
    radii = sorted(st.get("radii", "floats", EQUIDIST_RADII))
    ser = mass_in_compact(u, radii, k_height, measure, delta, ramp=ramp,
                          experiment_id="nondiv", seed=args.seed)
    text = artifacts.series_csv_text(ser)
    files = [("nondiv.csv", text)]
    if st.get("svg", "flag", False):
        files.append(("nondiv.svg", artifacts.svg_from_series_csv(text)))
    low = float(min(ser.values))
    lines = [
        "thick-part mass at height cap %g: %s (min %.4f)"
        % (k_height, ", ".join("%.4f" % v for v in ser.values), low)
    ]
    payload = {
        "group": spec,
        "exponent": delta,
        "exponent_source": how,
        "cutoff": cutoff,
        "radius": radius,
        "k_height": k_height,
        "ramp": ramp,
        "radii": list(radii),
        "vector": witness,
        "min_mass": low,
    }
    return files, lines, payload, False


def run_closure(st: Settings, args):
    group, builtin, spec = _load_group(st, "builtin:cusped")
    letter = st.get("letter", "str", None)
    if letter is None:
        letter = next(
            (lab for lab in group.order if group.letters[lab].kind == "parabolic"), None
        )
        if letter is None:
            raise ConfigError("group %s has no parabolic letter" % spec)
    elif letter not in group.letters:
        raise ConfigError("group %s has no letter %r" % (spec, letter))
    dilations = sorted(st.get("dilations", "floats", (0.5, 1.0, 2.0)))
    refine_tol = st.get("refine_tol", "positive", 1e-10)
    from .geometry import INFINITY, from_coordinates, geodesic_flow
    from .groups import fixed_points

    gen = group.letters[letter]
    t0, res0 = periodic_closure(group, letter, refine_tol=refine_tol)
    fp, _ = fixed_points(gen.matrix)
    u0 = from_coordinates(fp, INFINITY, 0.0)
    rows = [(0.0, float(t0), float(t0), "closure:%s" % letter, args.seed)]
    residuals = {0.0: res0}
    for s in dilations:
        ts, rs = periodic_closure(group, letter, u=geodesic_flow(u0, s), refine_tol=refine_tol)
        rows.append((float(s), float(ts), float(math.exp(s) * t0), "closure:%s" % letter, args.seed))
        residuals[s] = rs
    text = artifacts.series_rows_csv_text(rows)
    files = [("closure.csv", text)]
    if st.get("svg", "flag", False):
        files.append(("closure.svg", artifacts.svg_from_series_csv(text)))
    worst = max(residuals.values())
    lines = [
        "closure time of %r: t0 %.9g (residual %.3g), dilation residuals worst %.3g"
        % (letter, t0, res0, worst)
    ]
    payload = {
        "group": spec,
        "letter": letter,
        "t0": float(t0),
        "residuals": {("%g" % s): float(r) for s, r in residuals.items()},
        "dilations": list(dilations),
        "refine_tol": refine_tol,
    }
    return files, lines, payload, False


def run_checks(st: Settings, args):
    results, payload = run_check_battery()
    rows = [
        (float(k + 1), 1.0 if r.passed else 0.0, 1.0, "checks:%s" % r.name, args.seed)
        for k, r in enumerate(results)
    ]
    files = [("checks.csv", artifacts.series_rows_csv_text(rows))]
    lines = [
        "[%s] %-26s %s" % ("PASS" if r.passed else "FAIL", r.name, r.detail)
        for r in results
    ]
    failed = not all(r.passed for r in results)
    lines.append(
        "%d/%d checks passed in %.1f s with %d enumerated words"
        % (sum(r.passed for r in results), len(results), payload["wall_seconds"], payload["enumerated_words"])
    )
    return files, lines, payload, failed


RUNNERS = {
    "group-info": run_group_info,
    "exponent": run_exponent,
    "patterson": run_patterson,
    "equidist": run_equidist,
    "mixing": run_mixing,
    "nondiv": run_nondiv,
    "closure": run_closure,
    "checks": run_checks,
}


# -------------------------------------------------------------- entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horolab",
        description="Horocycle equidistribution experiments on hyperbolic surfaces.",
    )
    parser.add_argument("--version", action="version", version="horolab " + __version__)
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="experiment")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help="run the %s experiment" % name)
        p.add_argument("--config", help="experiment config file (key = value lines)")
        p.add_argument("--out", help="output directory (default horolab-out/<experiment>)")
        p.add_argument("--seed", type=int, help="seed for randomized vector choices")
        p.add_argument(
            "--override",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = args.out or os.path.join("horolab-out", args.experiment)
    try:
        st = load_settings(args, ALLOWED[args.experiment])
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1
    reset_word_counter()
    started = time.perf_counter()
    try:
        files, lines, payload, failed = RUNNERS[args.experiment](st, args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as e:
        print("numeric failure: %s" % e, file=sys.stderr)
        return 2
    manifest = {
        "experiment": args.experiment,
        "version": __version__,
        "config": st.echo(),
        "seed": args.seed,
        "workers": 1,
        "wall_seconds": round(time.perf_counter() - started, 3),
        "enumerated_words": enumerated_word_count(),
    }
    for key, value in payload.items():
        manifest.setdefault(key, value)
    files = list(files) + [("manifest.json", artifacts.manifest_text(manifest))]
    for rel, text in files:
        artifacts.atomic_write_text(os.path.join(out_dir, rel), text)
    for line in lines:
        print(line)
    for rel, _ in files:
        print("wrote %s" % os.path.join(out_dir, rel))
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
