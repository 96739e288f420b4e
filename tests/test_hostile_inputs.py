"""Property tests on hostile input: group files and command-line overrides.

Bad input must end in GroupError or exit 1 with a message that names the
line or the key, never in a traceback, a numeric failure or a silent NaN.
A group that reads well but breaks the computation ends in exit 2.
The examples are derandomized, so every run draws the same ones.
"""

import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from horolab import averages, measures  # noqa: E402
from horolab.cli import KEYS, _parse_flag, main  # noqa: E402
from horolab.defaults import (  # noqa: E402
    _interval_pair,
    cusped_group,
    schottky_group,
    unit_parabolic_group,
)
from horolab.geometry import Isometry  # noqa: E402
from horolab.groups import (  # noqa: E402
    FuchsianGroup,
    Generator,
    GroupError,
    critical_exponent,
    dumps_group,
    parse_group_text,
)

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)
BUILTINS = {"schottky": schottky_group, "cusped": cusped_group, "unit-parabolic": unit_parabolic_group}
DUMPS = {name: dumps_group(make()) for name, make in BUILTINS.items()}
# spellings Python's float() reads as a NaN or an infinity
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+inf", "1e999", "-1e999"]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_round_trip_within_renormalization(name):
    g = BUILTINS[name]()
    h = parse_group_text(DUMPS[name])
    assert h.order == g.order and h.name == g.name
    for lab in g.order:
        want, got = g.letters[lab], h.letters[lab]
        assert (got.kind, got.domain) == (want.kind, want.domain)
        # the dump writes every bit; only Isometry's renormalization of the
        # read-back determinant may move an entry, relatively by half that
        # determinant's rounding, which grows with the cancellation in ad - bc
        a, b = np.array(want.matrix.entries()), np.array(got.matrix.entries())
        rounding = (abs(a[0] * a[3]) + abs(a[1] * a[2])) * np.finfo(float).eps
        assert np.all(np.abs(a - b) <= 2.0 * rounding * np.abs(a)), lab


@SETTINGS
@given(
    name=st.sampled_from(sorted(BUILTINS)),
    pads=st.lists(st.sampled_from(["", " ", "\t", "  "]), min_size=2, max_size=2),
    comment=st.sampled_from(["", "# note", "#", "  # a = b"]),
    blank=st.booleans(),
    data=st.data(),
)
def test_layout_does_not_change_the_group(name, pads, comment, blank, data):
    # spaces, comments and blank lines leave every number as it was read
    lines = DUMPS[name].splitlines()
    k = data.draw(st.integers(0, len(lines) - 1))
    line = lines[k]
    if "=" in line:
        key, _, val = line.partition("=")
        line = "%s%s=%s%s" % (pads[0], key, val, pads[1])
    lines[k] = line + comment
    if blank:
        lines.insert(k, "   ")
    g, h = parse_group_text(DUMPS[name]), parse_group_text("\n".join(lines) + "\n")
    assert h.order == g.order and h.name == g.name
    for lab in g.order:
        assert h.letters[lab].matrix.entries() == g.letters[lab].matrix.entries()
        assert (h.letters[lab].kind, h.letters[lab].domain) == (g.letters[lab].kind, g.letters[lab].domain)


def _number_lines(lines):
    return [k for k, line in enumerate(lines) if line.startswith(("matrix =", "domain ="))]


def _key_lines(lines):
    return [k for k, line in enumerate(lines) if "=" in line and not line.startswith("label =")]


@SETTINGS
@given(
    name=st.sampled_from(sorted(BUILTINS)),
    kind=st.sampled_from(["non-finite", "too-few", "too-many", "repeated-key", "unknown-key"]),
    bad=st.sampled_from(NON_FINITE),
    data=st.data(),
)
def test_corrupt_line_raises_group_error_naming_it(name, kind, bad, data):
    lines = DUMPS[name].splitlines()
    if kind == "repeated-key":
        k = data.draw(st.sampled_from(_key_lines(lines)))
        lines.insert(k + 1, lines[k])
        k += 1
    elif kind == "unknown-key":
        k = data.draw(st.integers(0, len(lines)))
        lines.insert(k, "colour = red")
    else:
        k = data.draw(st.sampled_from(_number_lines(lines)))
        key, _, val = lines[k].partition(" = ")
        vals = val.split()
        if kind == "non-finite":
            vals[data.draw(st.integers(0, len(vals) - 1))] = bad
        elif kind == "too-few":
            vals.pop()
        else:
            vals.append("1")
        lines[k] = "%s = %s" % (key, " ".join(vals))
    with pytest.raises(GroupError) as err:
        parse_group_text("\n".join(lines) + "\n")
    assert str(err.value).startswith("line %d: " % (k + 1)), str(err.value)


# (experiment, key) for every key whose parser reads numbers, bump1 standing
# for the bump keys
NUMERIC_KEYS = [
    (experiment, "bump1" if key == "bumpN" else key)
    for experiment, keys in KEYS.items()
    for key, parse in keys.items()
    if parse not in (str, _parse_flag)
]
# keys that take a list of numbers, where the bad one may follow good ones
LIST_KEYS = {"radii", "bump1", "times", "dilations"}


# capsys is read out in every example, so sharing it across them is sound
@settings(SETTINGS, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from(NUMERIC_KEYS),
    bad=st.sampled_from(NON_FINITE),
    before=st.lists(st.sampled_from(["1", "2.5"]), max_size=2),
)
def test_non_finite_override_exits_1(case, bad, before, tmp_path_factory, capsys):
    experiment, key = case
    out = tmp_path_factory.mktemp("out")
    value = " ".join((before if key in LIST_KEYS else []) + [bad])
    argv = [experiment, "--out", str(out / "run"), "--override", "%s=%s" % (key, value)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: command-line override: key %r: " % key), err
    assert err.count("\n") == 1 and not (out / "run").exists()


def test_run_that_never_leaves_the_radius_exits_2(tmp_path, capsys):
    # |trace| = 2 - 9.6e-11 after Isometry renormalizes the determinant: the
    # letter is elliptic but parabolic within the kind tolerance, so the group
    # builds, and its runs stay in a bounded set; counting formed them on
    # until memory ran out
    par = Isometry(1.0, 2.4e-11, -4.0, 1.0)
    group = FuchsianGroup(
        [Generator("p", par, "parabolic", (-0.5, 0.0)),
         Generator("P", par.inverse(), "parabolic", (0.0, 0.5))] + _interval_pair("b", 1.5, 0.7),
        name="near-elliptic",
    )
    with pytest.raises(GroupError, match="run of parabolic letter 'p' stays within radius 24 "):
        critical_exponent(group, t_max=24.0, min_points=0)
    path = tmp_path / "near-elliptic.group"
    path.write_text(dumps_group(group))
    argv = ["exponent", "--out", str(tmp_path / "run"), "--override", "group=%s" % path,
            "--override", "t_max=24", "--override", "min_points=0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: the run of parabolic letter 'p' "), err
    assert err.count("\n") == 1 and not (tmp_path / "run").exists()


@pytest.mark.parametrize("experiment", ["equidist", "mixing", "nondiv"])
def test_leaf_coordinate_past_float_range_exits_2(experiment, tmp_path, capsys, monkeypatch):
    # at leaf coordinate -800 the base point's y underflows to 0 and x is
    # NaN; the run once built the pair field and the leaf, warned twice from
    # numpy, and ended in "frame reduction broke down"
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(original.__name__)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(measures, "_pair_field", counted(measures._pair_field))
    monkeypatch.setattr(averages, "conditional_on_horocycle", counted(averages.conditional_on_horocycle))
    argv = [experiment, "--out", str(tmp_path / "run"), "--override", "leaf_coordinate=-800"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "numeric failure: leaf coordinate -800.0 puts the vector's base point out of floating-point range\n"
    assert not (tmp_path / "run").exists()
    assert calls == []


@pytest.mark.parametrize(
    "experiment, key, value",
    [("mixing", "times", "1500"), ("mixing", "times", "-1500"),
     ("closure", "dilations", "1500"), ("closure", "dilations", "-1500")],
)
def test_flow_time_past_float_range_exits_2(experiment, key, value, tmp_path, capsys):
    # e^(t/2) overflows or underflows at |t| = 1500; the runs once ended in
    # "math range error", "float division by zero" or a numpy warning
    argv = [experiment, "--out", str(tmp_path / "run"), "--override", "%s=%s" % (key, value)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "numeric failure: geodesic flow time %r is outside floating-point range\n" % float(value)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("experiment, value", [("patterson", "1e300"), ("equidist", "800")])
def test_bump_too_wide_for_float_range_exits_1(experiment, value, tmp_path, capsys):
    # cosh(base_width) overflows from about 710 on; the runs once ended in
    # "numeric failure: math range error", which names no key
    argv = [experiment, "--out", str(tmp_path / "run"), "--override", "base_width=%s" % value]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "config error: bad bump: base_width %r is too wide: the reach of its support overflows\n" % float(value)
    assert not (tmp_path / "run").exists()


def test_bump_squares_past_float_range_raise_no_warning(tmp_path, capsys):
    # a bump centred at height 1e300, and one of angle width 1e-300, square
    # offsets past float range; the runs once printed "overflow encountered
    # in square" (an error in this suite) for results they got right: psi1
    # integrates to 0.0, and its relative gap is undefined
    out = tmp_path / "run"
    assert main(["patterson", "--out", str(out), "--override", "bump1=0 1e300 0"]) == 0
    rows = (out / "quadrature.csv").read_text().splitlines()
    assert rows[2].startswith("psi1,0.0,")
    capsys.readouterr()
    argv = ["equidist", "--out", str(tmp_path / "eq"), "--override", "angle_width=1e-300"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("numeric failure: the invariant integral of psi1 is 0: ")


def test_closure_far_down_the_cusp(tmp_path, capsys):
    # the leaf flowed by -700 sits at height e^700 in the cusp chart, so its
    # closure time -4 e^-700 is near the bottom of float range, and exact
    out = tmp_path / "run"
    assert main(["closure", "--out", str(out), "--override", "dilations=-700"]) == 0
    capsys.readouterr()
    # rows: the header, the undilated leaf, then the leaf flowed by -700
    s, t = (float(v) for v in (out / "closure.csv").read_text().splitlines()[2].split(",")[:2])
    assert s == -700.0 and t == pytest.approx(-4.0 * math.exp(-700.0), rel=1e-12)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["residuals"]["-700"] == 0.0


def test_parabolic_fixed_point_at_infinity_exits_1(tmp_path, capsys):
    path = tmp_path / "cusp-at-infinity.group"
    path.write_text(
        "label = p\nkind = parabolic\nmatrix = 1 1 0 1\ndomain = 0.5 1.5\n"
        "label = P\nkind = parabolic\nmatrix = 1 -1 0 1\ndomain = -1.5 -0.5\n"
    )
    argv = ["group-info", "--out", str(tmp_path / "run"), "--override", "group=%s" % path]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "config error: %s: parabolic fixed point at infinity needs finite-chart data\n" % path
    assert not (tmp_path / "run").exists()
