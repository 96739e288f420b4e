import json
import math
import os
import warnings

import numpy as np
import pytest

from horolab.averages import AverageSeries
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
    read_csv_rows,
    series_csv_text,
    svg_from_series_csv,
)


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
        got = read_csv_rows(tmp_path / "file" / ("equidist_psi%d.csv" % k))
        want = read_csv_rows(tmp_path / "builtin" / ("equidist_psi%d.csv" % k))
        for g, w in zip(got, want, strict=True):
            assert g["abscissa"] == w["abscissa"]
            assert float(g["value"]) == pytest.approx(float(w["value"]), rel=1e-6, abs=1e-12)
            assert float(g["reference"]) == pytest.approx(float(w["reference"]), rel=1e-3)
    manifest = json.loads((tmp_path / "file" / "manifest.json").read_text())
    assert manifest["exponent_source"] == "given"
    assert manifest["vector"]["minus_period"] == periods[0]


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
    rows = read_csv_rows(out1 / "closure.csv")
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


def test_cli_nondiv_small_config(tmp_path, capsys):
    cfg = tmp_path / "nd.cfg"
    cfg.write_text("radii = 5 60\nk_height = 6.0\n")
    out = tmp_path / "out"
    assert main(["nondiv", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = read_csv_rows(out / "nondiv.csv")
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
    csv = (out / "equidist_psi2.csv").read_text(encoding="utf-8")
    assert (out / "equidist_psi2.svg").read_text(encoding="utf-8") == svg_from_series_csv(csv)


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
    rows = read_csv_rows(tmp_path / "o2" / "nondiv.csv")
    assert rows[0]["seed"] == "7"
    manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest["vector"]["minus_period"].startswith("random")


def test_atomic_write_and_csv_round_trip(tmp_path):
    target = tmp_path / "deep" / "series.csv"
    ser = AverageSeries(
        np.array([1.0, 2.0, 4.0]),
        np.array([0.1, 0.2, 0.30000000000000004]),
        reference=1.0 / 3.0,
        experiment_id="demo",
        seed=3,
    )
    atomic_write_text(target, series_csv_text(ser))
    rows = read_csv_rows(target)
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
    ser = AverageSeries(np.array([1.0, 2.0]), np.array([0.5, 0.25]), 0.3, "demo")
    atomic_write_text(path, series_csv_text(ser))
    svg = svg_from_series_csv(path.read_text(encoding="utf-8"))
    assert svg.startswith("<svg") and "demo" in svg
    with pytest.raises(ValueError):
        svg_from_series_csv("abscissa,value,reference,experiment_id,seed\n")


def test_manifest_text_sorted_and_parseable():
    text = manifest_text({"b": 1, "a": {"y": 2.5, "x": None}})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": 1, "a": {"y": 2.5, "x": None}}
