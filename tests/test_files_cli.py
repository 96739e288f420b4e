import csv
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from horolab.cli import ConfigError, main, parse_config_text
from horolab.defaults import (
    DEFAULT_BUMPS,
    EXPERIMENT_PERIODS,
    KNOWN_EXPONENTS,
    PATTERSON_RADIUS,
    schottky_group,
)
from horolab.groups import dumps_group, enumerated_word_count
from horolab.io import (
    atomic_write_text,
    atoms_csv_text,
    line_plot_svg,
    manifest_text,
    series_rows_csv_text,
    svg_from_series_csv,
)


def csv_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_config_parse_round_trip():
    text = "# comment\ngroup = builtin:cusped\nk_height = 6.0  # trailing\n\nradii = 1 2 3\n"
    values, lines = parse_config_text(text, source="x.cfg")
    assert values == {"group": "builtin:cusped", "k_height": "6.0", "radii": "1 2 3"}
    assert lines == {"group": 2, "k_height": 3, "radii": 5}


def test_config_parse_diagnostics():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a key value\n")
    with pytest.raises(ConfigError, match="duplicate key 'a'"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="group definition file"):
        parse_config_text("label = a\nmatrix = 1 0 0 1\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text(" = 3\n")


def test_cli_missing_config_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["nondiv", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)])
    assert code == 1
    assert not out.exists()  # nothing partial
    assert "config error" in capsys.readouterr().err


def test_cli_unknown_key_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("group = builtin:cusped\nwobble = 3\n")
    out = tmp_path / "out"
    code = main(["nondiv", "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "wobble" in err and "line 2" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, line",
    [
        pytest.param("nondiv", "k_height = tall", id="nondiv-word"),
        pytest.param("exponent", "t_max = inf", id="exponent-inf"),
        pytest.param("exponent", "t_max = nan", id="exponent-nan"),
        pytest.param("equidist", "radii =", id="equidist-empty"),
        pytest.param("nondiv", "radii =", id="nondiv-empty"),
        pytest.param("mixing", "times =", id="mixing-empty"),
        pytest.param("closure", "refine_tol = nan", id="closure-nan"),
        pytest.param("closure", "refine_tol = -1", id="closure-negative"),
        pytest.param("closure", "refine_tol = 0", id="closure-zero"),
        pytest.param("exponent", "grid_step = -1", id="exponent-negative-step"),
        pytest.param("exponent", "grid_step = 0", id="exponent-zero-step"),
        pytest.param("exponent", "t_max = 0.1\nmin_points = 0", id="exponent-empty-grid"),
        pytest.param("exponent", "window = -1", id="exponent-window-negative"),
        pytest.param("exponent", "window = 0", id="exponent-window-zero"),
        pytest.param("exponent", "window = 0.5", id="exponent-window-short"),
        pytest.param("exponent", "t_max = 1.5\nmin_points = 0", id="exponent-grid-short"),
        pytest.param("exponent", "min_points = -5", id="exponent-min-points-negative"),
        pytest.param("patterson", "exponent = inf", id="patterson-inf"),
        pytest.param("patterson", "fit_radius = 0.2\nexponent = fit", id="patterson-fit-below-step"),
        pytest.param("equidist", "fit_radius = -1\nexponent = fit", id="equidist-fit-negative"),
        pytest.param("mixing", "fit_radius = 0\nexponent = fit", id="mixing-fit-zero"),
        pytest.param("patterson", "cutoff = 2", id="patterson-cutoff-low"),
        pytest.param("patterson", "exponent = -0.3", id="patterson-exponent-negative"),
        pytest.param("patterson", "radius = -1", id="patterson-radius-negative"),
        pytest.param("mixing", "ball_radius = -1", id="mixing-ball-negative"),
        pytest.param("equidist", "radii = -1 5", id="equidist-radii-negative"),
        pytest.param("nondiv", "radii = 0 5", id="nondiv-radii-zero"),
        pytest.param("equidist", "minus_period = a A", id="equidist-period-unreduced"),
        pytest.param("equidist", "minus_period = x y", id="equidist-period-unknown"),
        pytest.param("nondiv", "plus_period = p b P", id="nondiv-period-cyclic"),
        pytest.param("nondiv", "ramp = -1", id="nondiv-ramp-negative"),
        pytest.param("nondiv", "k_height = -1", id="nondiv-height-negative"),
        pytest.param("exponent", "svg = maybe", id="exponent-svg-word"),
    ],
)
def test_cli_bad_value_reports_location(experiment, line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    code = main([experiment, "--config", str(cfg), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert line.split()[0] in err and "line 1" in err
    assert not out.exists()
    assert enumerated_word_count() == 0  # rejected before any enumeration


def test_cli_numeric_failure_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["patterson", "--out", str(out), "--override", "radius=5"])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        pytest.param("exponent", ["t_max=32"], id="exponent-t_max-32"),
        pytest.param("patterson", ["radius=none", "cutoff=10"], id="patterson-cutoff-10"),
    ],
)
def test_cli_lost_determinant_exits_2(experiment, overrides, tmp_path, capsys):
    # rounding leaves some of these word products with a determinant <= 0;
    # the runs dropped those words and exited 0 with a RuntimeWarning only
    out = tmp_path / "out"
    argv = [experiment, "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: ") and "lost their determinant to rounding" in err
    assert not out.exists()


def test_cli_frame_reduction_breakdown_exits_2(tmp_path, capsys):
    # flowing the ball by t = -800 overflows the frame entries; the reduction
    # must stop the run instead of averaging the bump over NaN base points
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["mixing", "--out", str(out), "--override", "times=-800"])
    assert code == 2
    assert "numeric failure: frame reduction broke down" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cyclic_count_out_of_range_exits_2(tmp_path, capsys):
    # the unit shift passes 2**61 powers at radius 84.56; the fit read the
    # capped counts and reported an exponent of 0.333 with exit 0
    out = tmp_path / "out"
    code = main(["exponent", "--out", str(out), "--override", "group=unit-parabolic",
                 "--override", "t_max=100"])
    assert code == 2
    assert "numeric failure: radius 85 holds 2**61 or more powers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("experiment", ["equidist", "mixing"])
def test_cli_zero_reference_exits_2(experiment, tmp_path, capsys):
    # the cusped default bumps lie over the funnel, outside the convex core,
    # so their invariant integral is exactly 0 and no relative gap exists
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([experiment, "--out", str(out), "--override", "group=builtin:cusped"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: the invariant integral of psi1 is 0")
    assert not out.exists()


def test_cli_non_finite_manifest_value_exits_2(tmp_path, capsys, monkeypatch):
    import horolab.cli as cli

    def runner(st, args):
        return [("closure.csv", "x\n")], [], {"final_rel": math.nan}, False

    monkeypatch.setitem(cli.RUNNERS, "closure", runner)
    out = tmp_path / "out"
    assert main(["closure", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("numeric failure: manifest: ")
    assert not out.exists()


def test_cli_equidist_cusped_core_bump(tmp_path, capsys):
    # the README example: a bump over the convex core has a nonzero reference
    out = tmp_path / "out"
    code = main(["equidist", "--out", str(out), "--override", "group=builtin:cusped",
                 "--override", "radii=7.39 54.6 403.4", "--override", "bump1=0 1 0"])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert all(math.isfinite(s["final_rel"]) and s["reference"] > 0 for s in manifest["series"])


def test_python_m_horolab_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    ))
    done = subprocess.run([sys.executable, "-m", "horolab", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: horolab")


@pytest.fixture
def schottky_file(tmp_path):
    path = tmp_path / "schottky.group"
    path.write_text(dumps_group(schottky_group()))
    return str(path)


# a group file with no letter blocks, which is no group
EMPTY_GROUP = "name = empty\n"
NO_GENERATORS = "empty.group defines no generators"


@pytest.mark.parametrize(
    "experiment, overrides, message, text",
    [
        pytest.param("equidist", [], "key 'exponent' is required for file groups", None, id="exponent"),
        pytest.param("patterson", ["exponent=fit"], "exponent = fit needs fit_radius", None, id="fit-radius"),
        pytest.param("equidist", ["exponent=0.43"], "key 'minus_period' is required", None, id="period"),
        pytest.param(
            "equidist",
            ["exponent=0.43", "minus_period=a b", "plus_period=B A"],
            "give at least one bump1 = x y angle",
            None,
            id="bumps",
        ),
        pytest.param("exponent", [], "key 't_max' is required for file groups", None, id="t-max"),
        pytest.param("closure", [], "has no parabolic letter", None, id="closure-letter"),
        pytest.param("exponent", ["t_max=10"], NO_GENERATORS, EMPTY_GROUP, id="empty-exponent"),
        pytest.param("exponent", ["t_max=10", "min_points=0"], NO_GENERATORS, EMPTY_GROUP,
                     id="empty-exponent-no-minimum"),
        pytest.param("patterson", ["exponent=0.43"], NO_GENERATORS, EMPTY_GROUP, id="empty-patterson"),
        pytest.param("group-info", [], NO_GENERATORS, EMPTY_GROUP, id="empty-group-info"),
    ],
)
def test_cli_file_group_reports_missing_key(experiment, overrides, message, text, schottky_file,
                                            tmp_path, capsys):
    # a file group has no calibrated defaults; each gap is reported before any
    # word is enumerated (an unpruned cutoff-14 measure is 9.5M words)
    path = schottky_file
    if text is not None:
        path = str(tmp_path / "empty.group")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    out = tmp_path / "out"
    argv = [experiment, "--out", str(out), "--override", "group=" + path]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()
    assert enumerated_word_count() == 0


def test_cli_file_group_matches_builtin(schottky_file, tmp_path, capsys):
    # the same group read from its file, with the builtin's defaults spelled out
    periods = [" ".join(p) for p in EXPERIMENT_PERIODS["schottky"]]
    overrides = [
        "group=" + schottky_file,
        "exponent=%r" % KNOWN_EXPONENTS["schottky"],
        "radius=%r" % PATTERSON_RADIUS["schottky"],
        "minus_period=" + periods[0],
        "plus_period=" + periods[1],
    ] + ["bump%d=%r %r %r" % (k + 1, *c) for k, c in enumerate(DEFAULT_BUMPS["schottky"])]
    argv = ["equidist", "--out", str(tmp_path / "file")]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 0
    assert main(["equidist", "--out", str(tmp_path / "builtin")]) == 0
    capsys.readouterr()
    for k in (1, 2, 3):
        # the file's generators differ from the builtin's in the last bits (a
        # matrix is renormalized to determinant one again when it is read);
        # the ball averages move by about 1e-9 relative, the quadrature
        # reference of psi3 by 2.4e-4
        got = csv_rows(tmp_path / "file" / ("equidist_psi%d.csv" % k))
        want = csv_rows(tmp_path / "builtin" / ("equidist_psi%d.csv" % k))
        for g, w in zip(got, want, strict=True):
            assert g["abscissa"] == w["abscissa"]
            assert float(g["value"]) == pytest.approx(float(w["value"]), rel=1e-6, abs=1e-12)
            assert float(g["reference"]) == pytest.approx(float(w["reference"]), rel=1e-3)
    manifest = json.loads((tmp_path / "file" / "manifest.json").read_text())
    assert manifest["exponent_source"] == "given"
    assert manifest["vector"]["minus_period"] == periods[0]


@pytest.mark.parametrize("override", ["window=-1", "min_points=-5"])
def test_cli_bad_exponent_override_names_the_key(override, tmp_path, capsys):
    # a negative window once reached the fit and exited 2 as a numeric
    # failure; a negative min_points ran to exit 0
    out = tmp_path / "out"
    assert main(["exponent", "--out", str(out), "--override", override]) == 1
    err = capsys.readouterr().err
    assert "command-line override: key %r" % override.split("=")[0] in err
    assert "numeric failure" not in err
    assert not out.exists()
    assert enumerated_word_count() == 0


def test_cli_bad_override_exits_1(tmp_path, capsys):
    code = main(["closure", "--out", str(tmp_path / "o"), "--override", "justakey"])
    assert code == 1
    assert "override" in capsys.readouterr().err


def test_cli_closure_artifacts_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["closure", "--out", str(out1), "--override", "svg=yes"]) == 0
    assert main(["closure", "--out", str(out2), "--override", "svg=yes"]) == 0
    capsys.readouterr()
    csv1 = (out1 / "closure.csv").read_bytes()
    csv2 = (out2 / "closure.csv").read_bytes()
    assert csv1 == csv2
    assert (out1 / "closure.svg").read_bytes() == (out2 / "closure.svg").read_bytes()
    rows = csv_rows(out1 / "closure.csv")
    assert [r["abscissa"] for r in rows] == ["0.0", "0.5", "1.0", "2.0"]
    t0 = float(rows[0]["value"])
    for r in rows:
        assert float(r["value"]) == pytest.approx(math.exp(float(r["abscissa"])) * t0, rel=1e-8)
        assert float(r["reference"]) == pytest.approx(math.exp(float(r["abscissa"])) * t0, rel=1e-12)
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["experiment"] == "closure"
    assert manifest["version"]
    assert manifest["workers"] == 1 and "deterministic" not in manifest
    assert "wall_seconds" in manifest and "config" in manifest
    svg = (out1 / "closure.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_group_info_stdout(tmp_path, capsys):
    assert main(["group-info", "--out", str(tmp_path / "gi")]) == 0
    out = capsys.readouterr().out
    assert "rank 2" in out and "hyperbolic" in out
    assert (tmp_path / "gi" / "group.txt").exists()
    # the echoed group file parses back
    from horolab.groups import parse_group_text

    echoed = parse_group_text((tmp_path / "gi" / "group.txt").read_text())
    assert sorted(echoed.letters) == ["A", "B", "a", "b"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("label = a\ngarbage\n", "{path} line 2: expected key = value, got 'garbage'"),
        ("label = a\nkind = hyperbolic\n", "generator 'a' ({path} line 1) is missing matrix, domain"),
        (
            "label = a\nmatrix = 2 3 1\ndomain = 1 3\nkind = hyperbolic\n",
            "{path} line 2: generator 'a': matrix needs 4 entries",
        ),
        (
            "label = a\nkind = hyperbolic\nmatrix = 2 3 1 2\n\ndomain = 1 3 5\n",
            "{path} line 5: generator 'a': domain needs 2 endpoints",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 1 x\nkind = hyperbolic\n",
            "{path} line 3: generator 'a': could not convert string to float: 'x'",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 1 3\nkind = elliptic\n",
            "{path} line 4: generator 'a': kind must be hyperbolic or parabolic, got 'elliptic'",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 1 3\nkind = hyperbolic\n\nlabel = a\n",
            "{path} line 6: duplicate label 'a', first given on line 1",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ncolour = red\n",
            "{path} line 3: unknown key 'colour' in generator 'a'; "
            "a block takes label, kind, matrix and domain",
        ),
        (
            "nmae = x\nlabel = a\n",
            "{path} line 1: unknown key 'nmae'; only name may come before the first label",
        ),
        ("label = a\n = 5\n", "{path} line 2: empty key"),
        (
            "label = a\nmatrix = 1 0 0 1\nmatrix = 2 3 1 2\ndomain = 1 3\nkind = hyperbolic\n",
            "{path} line 3: duplicate key 'matrix' in generator 'a', first given on line 2",
        ),
        ("name = x\nname = y\nlabel = a\n", "{path} line 2: duplicate key 'name', first given on line 1"),
        (
            "label = a\nmatrix = nan 3 1 2\ndomain = 1 3\nkind = hyperbolic\n",
            "{path} line 2: generator 'a': matrix must be finite, got 'nan 3 1 2'",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 1 inf\nkind = hyperbolic\n",
            "{path} line 3: generator 'a': domain must be finite, got '1 inf'",
        ),
        (
            "label = a\nkind = hyperbolic\nmatrix = 1 3 1 2\ndomain = 1 3\n",
            "{path} line 3: generator 'a': matrix must have finite positive determinant, got det=-1.0",
        ),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 3 1\nkind = hyperbolic\n",
            "{path} line 3: generator 'a': domain of 'a' must be a finite interval lo < hi",
        ),
        ("label = ab\nmatrix = 2 3 1 2\ndomain = 1 3\nkind = hyperbolic\n",
         "{path} line 1: labels are single letters, got 'ab'"),
        (
            "label = a\nmatrix = 2 3 1 2\ndomain = 1 3\nkind = hyperbolic\n"
            "label = A\nmatrix = 2 -3 -1 2\ndomain = 2 4\nkind = hyperbolic\n",
            "{path}: domains of 'a' and 'A' overlap",
        ),
    ],
    ids=[
        "not-key-value", "missing-keys", "matrix-count", "domain-count", "not-a-number",
        "elliptic-kind", "duplicate-label", "unknown-block-key", "unknown-top-key", "empty-key",
        "duplicate-block-key", "duplicate-top-key", "non-finite-matrix", "non-finite-domain",
        "negative-determinant", "reversed-domain", "long-label", "overlapping-domains",
    ],
)
def test_cli_group_file_parse_error_names_file(text, message, tmp_path, capsys):
    path = tmp_path / "bad.group"
    path.write_text(text)
    assert main(["group-info", "--override", "group=%s" % path]) == 1
    # the whole of stderr: the message, naming the file, and no traceback
    assert capsys.readouterr().err == "config error: %s\n" % message.format(path=path)


def test_cli_bad_group_matrix_exits_1_on_a_measure_run(tmp_path, capsys):
    # the measure experiments load the group through the same parser
    path = tmp_path / "bad.group"
    path.write_text("label = a\nmatrix = 1 3 1 2\ndomain = 1 3\nkind = hyperbolic\n")
    argv = ["patterson", "--override", "group=%s" % path, "--override", "exponent=0.4",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("config error: %s line 2: " % path)
    assert not (tmp_path / "out").exists()


def test_cli_nondiv_small_config(tmp_path, capsys):
    cfg = tmp_path / "nd.cfg"
    cfg.write_text("radii = 5 60\nk_height = 6.0\n")
    out = tmp_path / "out"
    assert main(["nondiv", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = csv_rows(out / "nondiv.csv")
    assert len(rows) == 2
    assert all(r["experiment_id"] == "nondiv" for r in rows)
    assert all(0.0 <= float(r["value"]) <= 1.0 for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {"radii": "5 60", "k_height": "6.0"}
    assert manifest["enumerated_words"] > 0


def test_cli_svg_follows_each_series_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["equidist", "--out", str(out), "--override", "svg=yes"]) == 0
    wrote = [line.split()[-1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    names = ["equidist_psi%d.%s" % (k, ext) for k in (1, 2, 3) for ext in ("csv", "svg")]
    assert wrote == [str(out / name) for name in names + ["manifest.json"]]
    text = (out / "equidist_psi2.csv").read_text(encoding="utf-8")
    assert (out / "equidist_psi2.svg").read_text(encoding="utf-8") == svg_from_series_csv(text)


def test_cli_random_vector_requires_seed(tmp_path, capsys):
    code = main([
        "nondiv", "--out", str(tmp_path / "o"),
        "--override", "minus_period=random", "--override", "radii=5 20",
    ])
    assert code == 1
    assert "seed" in capsys.readouterr().err
    assert main([
        "nondiv", "--out", str(tmp_path / "o2"), "--seed", "7",
        "--override", "minus_period=random", "--override", "radii=5 20",
    ]) == 0
    capsys.readouterr()
    rows = csv_rows(tmp_path / "o2" / "nondiv.csv")
    assert rows[0]["seed"] == "7"
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["vector"]["minus_period"].startswith("random")


def test_atomic_write_and_csv_round_trip(tmp_path):
    target = tmp_path / "deep" / "series.csv"
    series = [
        (a, v, 1.0 / 3.0, "demo", 3)
        for a, v in zip([1.0, 2.0, 4.0], [0.1, 0.2, 0.30000000000000004])
    ]
    atomic_write_text(target, series_rows_csv_text(series))
    rows = csv_rows(target)
    assert [float(r["value"]) for r in rows] == [0.1, 0.2, 0.30000000000000004]
    assert [float(r["reference"]) for r in rows] == [1.0 / 3.0] * 3
    assert rows[0]["seed"] == "3"
    leftovers = [p for p in os.listdir(tmp_path / "deep") if p != "series.csv"]
    assert leftovers == []


def test_atoms_csv_text():
    class Tiny:
        points = np.array([-1.5, 0.25])
        log_weights = np.array([-0.7, -1.2])

    text = atoms_csv_text(Tiny())
    assert text.splitlines() == ["xi,log_weight", "-1.5,-0.7", "0.25,-1.2"]


def test_svg_helpers(tmp_path):
    with pytest.raises(ValueError):
        line_plot_svg([], [], [])
    path = tmp_path / "s.csv"
    rows = [(1.0, 0.5, 0.3, "demo", None), (2.0, 0.25, 0.3, "demo", None)]
    atomic_write_text(path, series_rows_csv_text(rows))
    svg = svg_from_series_csv(path.read_text(encoding="utf-8"))
    assert svg.startswith("<svg") and "demo" in svg
    with pytest.raises(ValueError):
        svg_from_series_csv("abscissa,value,reference,experiment_id,seed\n")


def test_manifest_text_rejects_nan_and_infinity():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            manifest_text({"final_rel": bad})


def test_manifest_text_sorted_and_parseable():
    text = manifest_text({"b": 1, "a": {"y": 2.5, "x": None}})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"y": 2.5, "x": None}}
