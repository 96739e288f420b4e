"""Regression pins for refactors: output bytes, manifests, the battery's
details, the benchmark's hooks and the benchmark's recorded
orbit-enumeration, leaf-averages and boundary-quadrature outputs.

The digests below pin the exact bytes that each built-in experiment writes
on its defaults. They were recorded before the frame kernel, the half-disk
lookup and the cusp jump were shared, and they pin bytes, not correctness:
a change that moves any of these files must say why in CHANGES.md and
re-record the digest.

The manifest digests pin every manifest field but the times, which are the
run's `wall_seconds`, each battery criterion's `seconds` and the budget
criterion's detail; they were recorded before the CLI and the battery
shared one loader. A loader that quietly used the frozen exponent in place
of the fitted one moves them, and the battery's detail strings, while the
CSV bytes above stay put.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from horolab.cli import main
from horolab.io import manifest_text

DIGESTS = {
    "group-info": {
        "group.txt": "8b6bb2304546919b9cf17f2928814e4567544240a4c61896a44af2b42ef5f480",
    },
    "exponent": {
        "exponent.csv": "9be46c17edc29b2f8bae80cadc69c0818780364f6889357c28ef43dfc2a49313",
    },
    "patterson": {
        "atoms.csv": "5c854a608525e461a64ca9946e2df541d2138de52e51994cb180538e96dc9f6e",
        "quadrature.csv": "fc10e1302720e3f7c7989ae463ec694c71fb74087743af988b7c82ed44e5001b",
    },
    "equidist": {
        "equidist_psi1.csv": "0c4b88a9dbae7a571f487530bc8969b44dfc9a5612368f9b144dea57dd6aff24",
        "equidist_psi2.csv": "bbd134ad4a4c9d5a1d3196cd10078b5022a90cc1e3125662ba6aea5a068ef20a",
        "equidist_psi3.csv": "874f4e08e312853314223fdd83350dd89e48b29f0be75f475bb176021ae6aeeb",
    },
    "mixing": {
        "mixing.csv": "e4d895f6767ba821075af4006cc855ec384c9ed0dd5d2b2f6615a092a2c7c7d6",
    },
    "nondiv": {
        "nondiv.csv": "101dc558dd6adb6557c3d9e71eacb52f97c157e14464b7f1d5240f88539f49be",
    },
    "closure": {
        "closure.csv": "e6b1819f8430f1e025d991193c21be86c21780d0f6806f196ea3ad098c5e3412",
    },
    "checks": {
        "checks.csv": "52dc79c1ef1912dc3bedcdc14634cc81a96e4dd16798b7f8324987781148ec95",
    },
}

MANIFEST_DIGESTS = {
    "group-info": "b693c6066c726e67d9b76f91cd1395a956db2b776f22d3d059baa14762aea781",
    "exponent": "3aadb6eac28702330f2a618d1941ed1eca2a5b705b2e17b99cea186850be2ab5",
    "patterson": "52d218f9fcd27b063326ec2c505b07a8708a11796cbfe864ad4e3287b0626766",
    "equidist": "5312c45d94819fce1616ec6431475454097d468328fa4de3e29b4eb757718e6b",
    "mixing": "3c3de88760db730e52aed45c200ebdb8fc07c915b3c109468e8e5df8a643eb7d",
    "nondiv": "317e3cf89989ca72efb491b1e4ac280950f30c607cd4d3caf9e5fee7bf9b44ca",
    "closure": "4080f775ca449848605ed2d606f2cc395781eccc3a700a2fa4d40c0334b96669",
    "checks": "0dea94477a052659a7e0007a95da34589885538213901a46eb35c52e04a67128",
}

BATTERY_WORDS = 171_944

BATTERY_DETAILS = {
    "busemann-oracle": "max |busemann - distance difference| 1.11e-12 <= 1e-06",
    "leaf-parameter-distance": "max |d(u, h^t u) - |t|| 4.76e-11 <= 1e-09",
    "flow-conjugation": "max frame gap of g^t h^s = h^{s e^t} g^t 1.25e-12 <= 1e-09",
    "flow-commutation": "max commutation residual on the 5x5x5 grid 2.31e-14 <= 1e-09",
    "parabolic-exponent": "exponent 0.499999 in 0.5 +/- 0.02, growth pinch 2.052 <= 10",
    "ball-scaling": "mass scaling error 2.22e-16 <= 0.05, atom reweighting drift 3.55e-15 <= 1e-10",
    "conformality-trend": (
        "median defects s.a 6.20e-09->4.88e-11, s.A 6.20e-09->4.97e-11, "
        "s.b 3.80e-07->1.12e-09, s.B 3.80e-07->1.12e-09, c.b 9.10e-07->5.30e-08, "
        "c.B 9.10e-07->5.30e-08, c.p 6.54e-06->3.24e-07, c.P 6.54e-06->3.24e-07"
    ),
    "equidistribution-trend": (
        "psi1 err 0.0605->0.000264 rel 0.00436; psi2 err 0.00538->0.0038 rel 0.118; "
        "psi3 err 0.0843->0.000733 rel 0.0258 (final rel <= 0.2, errors decreasing)"
    ),
    "ratio-limit": "ratio drift 0.0738 <= 0.1, final vs transverse reference 0.0384 <= 0.25",
    "mixing-approach": "|average/integral - 1| at t=6 is 0.00436 <= 0.2",
    "thick-part-mass": "min thick-part mass over radii 0.8823 >= 0.80 at height cap 6",
    "periodic-closure": (
        "closure residual 0 <= 1e-08, dilation law error 5.55e-16 <= 1e-08 (t0 -4.000000)"
    ),
}

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_DEFAULT_RUNS = {}


def default_run(experiment, tmp_path_factory):
    """Output directory of one default run per experiment and test session."""
    if experiment not in _DEFAULT_RUNS:
        out = tmp_path_factory.mktemp(experiment)
        assert main([experiment, "--out", str(out)]) == 0
        _DEFAULT_RUNS[experiment] = out
    return _DEFAULT_RUNS[experiment]


def timeless(manifest):
    """The manifest without the fields that hold a time."""
    manifest = dict(manifest)
    del manifest["wall_seconds"]
    if "criteria" in manifest:
        manifest["criteria"] = [
            {k: v for k, v in c.items()
             if k != "seconds" and not (k == "detail" and c["name"] == "word-and-time-budget")}
            for c in manifest["criteria"]
        ]
    return manifest


@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_default_outputs_are_byte_identical(experiment, tmp_path_factory, capsys):
    out = default_run(experiment, tmp_path_factory)
    capsys.readouterr()
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(DIGESTS[experiment])
    for name, want in DIGESTS[experiment].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


@pytest.mark.parametrize("experiment", sorted(MANIFEST_DIGESTS))
def test_default_manifests_are_pinned(experiment, tmp_path_factory, capsys):
    out = default_run(experiment, tmp_path_factory)
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    text = manifest_text(timeless(manifest))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MANIFEST_DIGESTS[experiment]


def test_battery_details_and_words_are_pinned(tmp_path_factory, capsys):
    out = default_run("checks", tmp_path_factory)
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["enumerated_words"] == BATTERY_WORDS
    *criteria, budget = manifest["criteria"]
    assert {c["name"]: c["detail"] for c in criteria} == BATTERY_DETAILS
    assert [c["name"] for c in criteria] == list(BATTERY_DETAILS)
    assert budget["name"] == "word-and-time-budget"
    assert budget["detail"].startswith("%d words <= 1000000, " % BATTERY_WORDS)
    assert all(c["passed"] for c in manifest["criteria"])


def test_benchmark_tracer_finds_every_traced_method():
    # the benchmark wraps each traced method in the body of the class that
    # defines it; a method moved into a base class fails here first
    import horolab.cli  # noqa: F401  (binds every traced module)

    tracing = load_perfbench("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for modname, clsname, attr, _ in tracing.METHODS:
        method = getattr(sys.modules[modname], clsname).__dict__[attr]
        assert not hasattr(method, "__wrapped__"), (clsname, attr)


def test_orbit_enumeration_op_matches_benchmark_references():
    # one orbit-enumeration op (both exponent fits, both deep measures, every
    # conformality defect) against the benchmark's recorded outputs, so that
    # a last-bit drift in enumeration fails here before the benchmark runs
    workloads = load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["orbit-enumeration"]
    meter = workloads.WordMeter()
    meter.start()
    out = workloads.orbit_op(workloads.orbit_setup(0), 0)
    assert meter.read() == refs["words"]
    for key in ("deltas", "kept", "atoms", "defects"):
        assert out[key] == refs[key], key


def test_leaf_averages_op_matches_benchmark_references():
    # one leaf-averages op (ball, mixing, arc-length and thick-part averages
    # on both builtins) against the benchmark's recorded digest, so that a
    # last-bit drift in frame reduction fails here before the benchmark runs
    workloads = load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["leaf-averages"]
    out = workloads.leaf_op(workloads.leaf_setup(0), 0)
    assert out["values"]
    assert workloads.leaf_check(out, refs, 0, 0) == []


def test_boundary_quadrature_op_matches_benchmark_references():
    # one boundary-quadrature op (a cold Schottky pair field with its cached
    # quadratures, and both cusped box quadratures) against the benchmark's
    # recorded outputs, so that a last-bit drift in either quadrature fails
    # here before the benchmark runs
    workloads = load_perfbench("workloads")
    with open(os.path.join(PERFBENCH, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)["boundary-quadrature"]
    out = workloads.quadrature_op(workloads.quadrature_setup(0), 0)
    for key in ("quadrature", "br", "atoms"):
        assert out[key] == refs[key], key
