"""Regression pins for refactors: output bytes, the benchmark's hooks and
the benchmark's recorded orbit-enumeration outputs.

The digests below pin the exact bytes that each built-in experiment writes
on its defaults. They were recorded before the frame kernel, the half-disk
lookup and the cusp jump were shared, and they pin bytes, not correctness:
a change that moves any of these files must say why in CHANGES.md and
re-record the digest.
"""

import hashlib
import importlib.util
import json
import os
import sys

import pytest

from horolab.cli import main

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
        "closure.csv": "b162fed6bd06645611470ccc59faedab6cd3dcc52694289b70abde14da507524",
    },
    "checks": {
        "checks.csv": "52dc79c1ef1912dc3bedcdc14634cc81a96e4dd16798b7f8324987781148ec95",
    },
}

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("experiment", sorted(DIGESTS))
def test_default_outputs_are_byte_identical(experiment, tmp_path, capsys):
    out = tmp_path / experiment
    assert main([experiment, "--out", str(out)]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    assert written == sorted(DIGESTS[experiment])
    for name, want in DIGESTS[experiment].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == want, name


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
