"""Acceptance battery: one test per shipped guarantee, run on the default
groups at the calibrated tolerances. pytest -v shows one pass/fail line per
criterion; each test also prints the measured numbers."""

import json

import pytest

from horolab.checks import TOLERANCES, run_all
from horolab.cli import main


@pytest.fixture(scope="module")
def battery():
    results, manifest = run_all()
    return {r.name: r for r in results}, manifest


def _require(battery, name):
    results, _ = battery
    r = results[name]
    print("[%s] %s: %s" % ("PASS" if r.passed else "FAIL", name, r.detail))
    assert r.passed, "%s: %s" % (name, r.detail)


def test_01_busemann_matches_distance_differences(battery):
    _require(battery, "busemann-oracle")


def test_02_leaf_distance_equals_flow_parameter(battery):
    _require(battery, "leaf-parameter-distance")


def test_03_flow_conjugation_identity(battery):
    _require(battery, "flow-conjugation")


def test_04_ball_average_commutes_with_flow(battery):
    _require(battery, "flow-commutation")


def test_05_parabolic_exponent_is_half(battery):
    _require(battery, "parabolic-exponent")


def test_06_ball_scaling_and_atomic_reweighting(battery):
    _require(battery, "ball-scaling")


def test_07_conformality_defect_decreases_with_cutoff(battery):
    _require(battery, "conformality-trend")


def test_08_ball_averages_approach_invariant_integral(battery):
    _require(battery, "equidistribution-trend")


def test_09_arc_ratio_matches_transverse_reference(battery):
    _require(battery, "ratio-limit")


def test_10_flowed_averages_mix_to_integral(battery):
    _require(battery, "mixing-approach")


def test_11_thick_part_keeps_most_mass(battery):
    _require(battery, "thick-part-mass")


def test_12_periodic_closure_time_and_dilation(battery):
    _require(battery, "periodic-closure")


def test_13_budget_and_deterministic_rerun(battery, tmp_path, capsys):
    _require(battery, "word-and-time-budget")
    _, manifest = battery
    assert manifest["enumerated_words"] <= 1_000_000
    assert manifest["wall_seconds"] <= 600.0
    # the manifest must carry the calibrated tolerances and the witnesses
    assert manifest["tolerances"] == TOLERANCES
    assert "vector_periods" in manifest["witnesses"]
    # bitwise-identical reruns through the CLI
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["checks", "--out", str(out1)]) == 0
    assert main(["checks", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert (out1 / "checks.csv").read_bytes() == (out2 / "checks.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    rows = (out1 / "checks.csv").read_text().splitlines()
    assert len(rows) == 1 + len(m1["criteria"])
    assert all(row.split(",")[1] == "1.0" for row in rows[1:])
