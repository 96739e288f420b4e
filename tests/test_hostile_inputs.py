"""Property tests on hostile input: group files and command-line overrides.

Bad input must end in GroupError or exit 1 with a message that names the
line or the key, never in a traceback, a numeric failure or a silent NaN.
The examples are derandomized, so every run draws the same ones.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from horolab.cli import main  # noqa: E402
from horolab.defaults import cusped_group, schottky_group, unit_parabolic_group  # noqa: E402
from horolab.groups import GroupError, dumps_group, parse_group_text  # noqa: E402

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


# (experiment, key, other overrides) for every key read as a number or a
# list of numbers; fit_radius is read only when the exponent is fitted
NUMERIC_KEYS = [
    ("exponent", "t_max", []), ("exponent", "grid_step", []), ("exponent", "window", []),
    ("exponent", "min_points", []), ("patterson", "exponent", []), ("patterson", "cutoff", []),
    ("patterson", "fit_radius", ["exponent=fit"]), ("patterson", "radius", []),
    ("patterson", "base_width", []), ("patterson", "angle_width", []), ("equidist", "radii", []),
    ("equidist", "leaf_coordinate", []), ("equidist", "bump1", []), ("mixing", "ball_radius", []),
    ("mixing", "times", []), ("nondiv", "k_height", []), ("nondiv", "ramp", []),
    ("closure", "dilations", []), ("closure", "refine_tol", []),
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
    experiment, key, extra = case
    out = tmp_path_factory.mktemp("out")
    value = " ".join((before if key in LIST_KEYS else []) + [bad])
    argv = [experiment, "--out", str(out / "run"), "--override", "%s=%s" % (key, value)]
    for item in extra:
        argv += ["--override", item]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: command-line override: key %r: " % key), err
    assert err.count("\n") == 1 and not (out / "run").exists()
