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
    FIT_GRID_STEP,
    KNOWN_EXPONENTS,
    MIXING_LEAF_COORDINATE,
    MIXING_TIMES,
    NONDIV_HEIGHT,
    Loader,
)
from .geometry import INFINITY, GeometryError, from_coordinates, geodesic_flow
from .groups import (
    GroupError,
    _fit_grid,
    critical_exponent,
    dumps_group,
    enumerated_word_count,
    fixed_points,
    reset_word_counter,
)
from .measures import (
    MeasureError,
    conformality_defect,
    ps_integral,
    quadrature_report,
)
from .averages import (
    AveragesError,
    ConstantFunction,
    average_ps,
    mass_in_compact,
    mixing_series,
    periodic_closure,
)
from .checks import run_all as run_check_battery

NUMERIC_ERRORS = (
    MeasureError,
    AveragesError,
    GroupError,
    GeometryError,
    OverflowError,
    FloatingPointError,
    ZeroDivisionError,
)


class ConfigError(ValueError):
    """Bad configuration: unknown keys, unparsable values, missing files."""


# ------------------------------------------------------------ configuration


def parse_config_text(text: str, source: str = "<config>"):
    """key = value lines with '#' comments; returns (values, line numbers)."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for ln, key, val in artifacts.key_value_lines(
        text, ConfigError, lambda ln: "%s line %d" % (source, ln)
    ):
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


def _parse_radius(raw: str):
    return None if raw.lower() == "none" else _parse_positive(raw)


def _parse_positives(raw: str):
    values = _parse_floats(raw)
    if not min(values) > 0:
        raise ValueError("expected positive numbers, got %r" % raw)
    return values


def _parse_flag(raw: str) -> bool:
    low = raw.lower()
    if low in ("yes", "true", "on", "1"):
        return True
    if low in ("no", "false", "off", "0"):
        return False
    raise ValueError("expected yes/no, got %r" % raw)


def _at_least(least: int):
    """Parser of an integer of at least `least`."""

    def parse(raw: str) -> int:
        value = int(raw)
        if value < least:
            raise ValueError("expected at least %d, got %d" % (least, value))
        return value

    return parse


def _parse_exponent(raw: str):
    """The Loader's exponent source: 'default' is the frozen value."""
    if raw in ("default", "fit"):
        return "frozen" if raw == "default" else raw
    try:
        return _parse_positive(raw)
    except ValueError:
        raise ValueError("expected a positive number, 'fit' or 'default', got %r" % raw) from None


def _parse_fit_radius(raw: str) -> float:
    value = _parse_positive(raw)
    if not value >= FIT_GRID_STEP:
        raise ValueError("fit_radius %g below the fit's grid step %g leaves no count grid"
                         % (value, FIT_GRID_STEP))
    return value


def _parse_bump(raw: str):
    values = _parse_floats(raw)
    if len(values) != 3:
        raise ValueError("expected 'x y angle', got %d values" % len(values))
    return values


# each experiment's keys with their parsers; 'bumpN' stands for bump0, bump1, ...
_MEASURE_KEYS = {"group": str, "exponent": _parse_exponent, "fit_radius": _parse_fit_radius,
                 "cutoff": _at_least(4), "radius": _parse_radius}
_VECTOR_KEYS = {"minus_period": str, "plus_period": str, "leaf_coordinate": _parse_float}
_BUMP_KEYS = {"base_width": _parse_positive, "angle_width": _parse_positive, "bumpN": _parse_bump}

KEYS = {
    "group-info": {"group": str},
    "exponent": {"group": str, "t_max": _parse_float, "grid_step": _parse_positive,
                 "window": _parse_positive, "min_points": _at_least(0), "svg": _parse_flag},
    "patterson": {**_MEASURE_KEYS, **_BUMP_KEYS},
    "equidist": {**_MEASURE_KEYS, **_VECTOR_KEYS, **_BUMP_KEYS, "radii": _parse_positives,
                 "svg": _parse_flag},
    "mixing": {**_MEASURE_KEYS, **_VECTOR_KEYS, **_BUMP_KEYS, "ball_radius": _parse_positive,
               "times": _parse_floats, "svg": _parse_flag},
    "nondiv": {**_MEASURE_KEYS, **_VECTOR_KEYS, "k_height": _parse_positive,
               "ramp": _parse_positive, "radii": _parse_positives, "svg": _parse_flag},
    "closure": {"group": str, "letter": str, "dilations": _parse_floats, "svg": _parse_flag},
    "checks": {},
}


def _is_bump(key: str) -> bool:
    return key.startswith("bump") and key[4:].isdecimal()


def _parser(keys, key: str):
    """The parser of key in one experiment's table, or None where it is unknown."""
    if _is_bump(key):
        key = "bumpN"
    elif key == "bumpN":
        return None
    return keys.get(key)


class Settings:
    """Config-file and override values, each parsed by its key's parser as
    the settings load, with provenance for errors."""

    def __init__(self, values, lines, source, keys):
        self.values = values
        self.lines = lines
        self.source = source
        unknown = [k for k in values if _parser(keys, k) is None]
        if unknown:
            locs = ", ".join("%r (%s)" % (k, self.where(k)) for k in sorted(unknown))
            raise ConfigError("unknown key(s) for this experiment: %s" % locs)
        self.parsed = {}
        for key, raw in values.items():
            try:
                self.parsed[key] = _parser(keys, key)(raw)
            except ValueError as e:
                raise ConfigError("%s: key %r: %s" % (self.where(key), key, e)) from None

    def where(self, key: str) -> str:
        ln = self.lines.get(key, 0)
        if ln > 0:
            return "%s line %d" % (self.source, ln)
        return "command-line override"

    def has(self, key: str) -> bool:
        return key in self.values

    def get(self, key: str, default=None):
        return self.parsed.get(key, default)

    def bump_keys(self):
        return sorted((key for key in self.values if _is_bump(key)), key=lambda k: (int(k[4:]), k))

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def load_settings(args, keys) -> Settings:
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
    return Settings(values, lines, source, keys)


# ------------------------------------------------- settings to loader input
#
# The settings are parsed already; these add the checks that need the group
# and leave every builtin default to the Loader.


def _loader(st: Settings, default_group: str, **loader_args) -> Loader:
    try:
        return Loader(st.get("group", default_group), **loader_args)
    except GroupError as e:
        raise ConfigError(str(e)) from None


def _measure_loader(st: Settings, default_group: str) -> Loader:
    """Loader for a run on a Patterson measure, given the measure keys the
    run names; a file group has no calibrated exponent or radius."""
    given = {k: st.get(k) for k in ("exponent", "fit_radius", "cutoff", "radius") if st.has(k)}
    loader = _loader(st, default_group, **given)
    if loader.builtin is None and loader.exponent_source == "frozen":
        raise ConfigError("key 'exponent' is required for file groups: give a number or 'fit'")
    if loader.exponent_source == "fit" and loader.fit_radius is None:
        raise ConfigError("exponent = fit needs fit_radius for a file group")
    if loader.builtin is None and not st.has("radius"):
        raise ConfigError("key 'radius' is required for file groups")
    return loader


def _vector(st: Settings, loader: Loader, seed, default_s=0.0):
    """The run's vector and its witness, from the period keys."""
    periods = []
    for slot, key in enumerate(("minus_period", "plus_period")):
        period = st.get(key)
        if period is None:
            if loader.builtin not in EXPERIMENT_PERIODS:
                raise ConfigError("key %r is required for this group" % key)
        elif period == "random":
            if seed is None:
                raise ConfigError("--seed is mandatory when %s = random" % key)
            period = seed + slot
        else:
            letters = period.split()
            unknown = [lab for lab in letters if lab not in loader.group.letters]
            if not letters or unknown or not loader.group.is_reduced(letters + letters):
                raise ConfigError(
                    "%s: key %r: expected a reduced period of letters %s, got %r"
                    % (st.where(key), key, " ".join(loader.group.order), period)
                )
        periods.append(period)
    return loader.vector(*periods, s=st.get("leaf_coordinate", default_s))


def _bumps(st: Settings, loader: Loader):
    """The run's bumps with their centers and widths, from the bump keys."""
    widths = (st.get("base_width", BUMP_WIDTHS[0]), st.get("angle_width", BUMP_WIDTHS[1]))
    keys = st.bump_keys()
    if not keys and loader.builtin not in DEFAULT_BUMPS:
        raise ConfigError("give at least one bump1 = x y angle for this group")
    coords = [st.get(key) for key in keys] or list(DEFAULT_BUMPS[loader.builtin])
    try:
        return loader.bumps(coords, widths), coords, widths
    except AveragesError as e:
        raise ConfigError("bad bump: %s" % e) from None


# ------------------------------------------------------------- experiments
#
# Each runner returns (files, stdout lines, extra manifest payload, failed).
# Files are (relative path, text) pairs, written only after the whole run
# succeeded.


def run_group_info(st: Settings, args):
    loader = _loader(st, "builtin:schottky")
    group, spec = loader.group, loader.spec
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
    if loader.builtin is not None:
        lines.append("  growth exponent %.6f (frozen)" % KNOWN_EXPONENTS[loader.builtin])
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
    loader = _loader(st, "builtin:schottky")
    t_max = st.get("t_max", loader.fit_radius)
    if t_max is None:
        raise ConfigError("key 't_max' is required for file groups")
    grid_step = st.get("grid_step", FIT_GRID_STEP)
    if not t_max >= grid_step:
        key = "t_max" if st.has("t_max") else "grid_step"
        raise ConfigError(
            "%s: key %r: t_max %g below grid_step %g leaves no count grid"
            % (st.where(key), key, t_max, grid_step)
        )
    window = st.get("window")
    min_points = st.get("min_points", 1000)
    grid, w = _fit_grid(t_max, grid_step, window)
    held = int((grid >= t_max - w).sum())
    if held < 4:
        key = "window" if st.has("window") else "t_max" if st.has("t_max") else "grid_step"
        raise ConfigError(
            "%s: key %r: the fit window [%g, %g] holds %d grid points at step %g; the fit needs 4"
            % (st.where(key), key, t_max - w, t_max, held, grid_step)
        )
    fit = critical_exponent(
        loader.group, t_max=t_max, window=window, grid_step=grid_step, min_points=min_points
    )
    rows = [
        (float(t), float(c), fit.delta, "exponent", args.seed)
        for t, c in zip(fit.grid, fit.counts)
    ]
    files = [("exponent.csv", artifacts.series_rows_csv_text(rows))]
    lines = [
        "group %s: exponent %.6f +/- %.2g over window [%.3g, %.3g], %d orbit points"
        % (loader.spec, fit.delta, fit.stderr, fit.window[0], fit.window[1], int(fit.counts[-1]))
    ]
    payload = {
        "group": loader.spec,
        "delta": fit.delta,
        "stderr": fit.stderr,
        "window": list(fit.window),
        "t_max": t_max,
        "grid_step": grid_step,
    }
    return files, lines, payload, False


def run_patterson(st: Settings, args):
    loader = _measure_loader(st, "builtin:schottky")
    funcs = []
    if loader.builtin in DEFAULT_BUMPS or st.bump_keys():
        funcs, _, _ = _bumps(st, loader)
    measure, delta = loader.measure(), loader.exponent
    rows = [("one", *quadrature_report(ConstantFunction(), measure, delta))]
    rows += [(psi.label, *quadrature_report(psi, measure, delta)) for psi in funcs]
    defects = {lab: conformality_defect(measure, lab, delta) for lab in loader.group.order}
    files = [
        ("atoms.csv", artifacts.atoms_csv_text(measure)),
        ("quadrature.csv", artifacts.quadrature_csv_text(rows)),
    ]
    radius = "%g" % loader.radius if loader.radius is not None else "none"
    lines = [
        "group %s: %d atoms at cutoff %d, radius %s, exponent %.6f (%s)"
        % (loader.spec, len(measure), loader.cutoff, radius, delta, loader.exponent_source),
        "conformality defects: "
        + ", ".join("%s %.2e" % (lab, defects[lab]) for lab in loader.group.order),
    ]
    payload = dict(
        loader.manifest(),
        atoms=len(measure),
        conformality_defects=defects,
        quadrature=[
            {"psi_id": r[0], "estimate": r[1], "n_cells": r[2], "grid_h": r[3]} for r in rows
        ],
    )
    return files, lines, payload, False


# a bump whose support no geodesic between atoms meets integrates to zero
# against the invariant measure, as the cusped defaults, which sit over the
# funnel, do; a gap relative to zero is undefined
_ZERO_REFERENCE = (
    "the invariant integral of %s is 0: no geodesic between atoms meets its support, "
    "so its relative gap is undefined; center the bump over the convex core of the limit set"
)


def run_equidist(st: Settings, args):
    loader = _measure_loader(st, "builtin:schottky")
    u, witness = _vector(st, loader, args.seed)
    radii = sorted(st.get("radii", EQUIDIST_RADII))
    funcs, coords, widths = _bumps(st, loader)
    measure, delta = loader.measure(), loader.exponent
    files = []
    lines = []
    report = []
    for psi in funcs:
        ref = ps_integral(psi, measure, delta)
        if ref == 0:
            raise AveragesError(_ZERO_REFERENCE % psi.label)
        vals = [average_ps(u, r, psi, measure, delta) for r in radii]
        rows = [
            (float(r), float(v), float(ref), "equidist:%s" % psi.label, args.seed)
            for r, v in zip(radii, vals)
        ]
        files.append(("equidist_%s.csv" % psi.label, artifacts.series_rows_csv_text(rows)))
        final = abs(vals[-1] - ref) / abs(ref)
        lines.append(
            "%s: integral %.6g, ball averages %s, final relative gap %.3g"
            % (psi.label, ref, ", ".join("%.6g" % v for v in vals), final)
        )
        report.append({"psi_id": psi.label, "reference": ref, "values": vals, "final_rel": final})
    payload = dict(
        loader.manifest(witness),
        radii=list(radii),
        bumps=[list(c) for c in coords],
        bump_widths=list(widths),
        series=report,
    )
    return files, lines, payload, False


def run_mixing(st: Settings, args):
    loader = _measure_loader(st, "builtin:schottky")
    u, witness = _vector(st, loader, args.seed, default_s=MIXING_LEAF_COORDINATE)
    ball_radius = st.get("ball_radius", 1.0)
    times = sorted(st.get("times", MIXING_TIMES))
    funcs, coords, widths = _bumps(st, loader)
    psi = funcs[0]
    ser = mixing_series(u, ball_radius, psi, times, loader.measure(), loader.exponent)
    if ser.reference == 0:
        raise AveragesError(_ZERO_REFERENCE % psi.label)
    rows = [
        (float(t), float(v), float(ser.reference), "mixing:%s" % psi.label, args.seed)
        for t, v in zip(ser.abscissae, ser.values)
    ]
    files = [("mixing.csv", artifacts.series_rows_csv_text(rows))]
    final = abs(ser.values[-1] / ser.reference - 1.0)
    lines = [
        "mixing at radius %g: integral %.6g, value at t=%g is %.6g (relative gap %.3g)"
        % (ball_radius, ser.reference, ser.abscissae[-1], ser.values[-1], final)
    ]
    payload = dict(
        loader.manifest(witness),
        ball_radius=ball_radius,
        times=list(times),
        bump=list(coords[0]),
        bump_widths=list(widths),
        reference=float(ser.reference),
        final_rel=final,
    )
    return files, lines, payload, False


def run_nondiv(st: Settings, args):
    loader = _measure_loader(st, "builtin:cusped")
    u, witness = _vector(st, loader, args.seed)
    k_height = st.get("k_height", NONDIV_HEIGHT)
    ramp = st.get("ramp", 0.1)
    radii = sorted(st.get("radii", EQUIDIST_RADII))
    ser = mass_in_compact(u, radii, k_height, loader.measure(), loader.exponent, ramp=ramp)
    rows = [
        (float(r), float(v), float(ser.reference), "nondiv", args.seed)
        for r, v in zip(ser.abscissae, ser.values)
    ]
    files = [("nondiv.csv", artifacts.series_rows_csv_text(rows))]
    low = float(min(ser.values))
    lines = [
        "thick-part mass at height cap %g: %s (min %.4f)"
        % (k_height, ", ".join("%.4f" % v for v in ser.values), low)
    ]
    payload = dict(
        loader.manifest(witness),
        k_height=k_height,
        ramp=ramp,
        radii=list(radii),
        min_mass=low,
    )
    return files, lines, payload, False


def run_closure(st: Settings, args):
    loader = _loader(st, "builtin:cusped")
    group, spec = loader.group, loader.spec
    letter = st.get("letter")
    if letter is None:
        letter = next(
            (lab for lab in group.order if group.letters[lab].kind == "parabolic"), None
        )
        if letter is None:
            raise ConfigError("group %s has no parabolic letter" % spec)
    elif letter not in group.letters or group.letters[letter].kind != "parabolic":
        raise ConfigError(
            "%s: key 'letter': group %s has no parabolic letter %r"
            % (st.where("letter"), spec, letter)
        )
    dilations = sorted(st.get("dilations", (0.5, 1.0, 2.0)))
    gen = group.letters[letter]
    t0, res0 = periodic_closure(group, letter)
    fp, _ = fixed_points(gen.matrix)
    u0 = from_coordinates(fp, INFINITY, 0.0)
    rows = [(0.0, float(t0), float(t0), "closure:%s" % letter, args.seed)]
    residuals = {0.0: res0}
    for s in dilations:
        ts, rs = periodic_closure(group, letter, u=geodesic_flow(u0, s))
        rows.append((float(s), float(ts), float(math.exp(s) * t0), "closure:%s" % letter, args.seed))
        residuals[s] = rs
    files = [("closure.csv", artifacts.series_rows_csv_text(rows))]
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
    for name in KEYS:
        keys = ", ".join(KEYS[name]).replace("bumpN", "bump1, bump2, ...") or "none"
        p = sub.add_parser(name, help="run the %s experiment" % name,
                           epilog="config keys: " + keys)
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
    reset_word_counter()
    started = time.perf_counter()
    try:
        st = load_settings(args, KEYS[args.experiment])
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
    if st.get("svg", False):
        # every file of an experiment that takes the svg key is a series CSV
        files = [
            pair
            for rel, text in files
            for pair in ((rel, text), (rel[:-4] + ".svg", artifacts.svg_from_series_csv(text)))
        ]
    try:
        files = list(files) + [("manifest.json", artifacts.manifest_text(manifest))]
    except ValueError as e:
        print("numeric failure: manifest: %s" % e, file=sys.stderr)
        return 2
    for rel, text in files:
        artifacts.atomic_write_text(os.path.join(out_dir, rel), text)
    for line in lines:
        print(line)
    for rel, _ in files:
        print("wrote %s" % os.path.join(out_dir, rel))
    return 2 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
