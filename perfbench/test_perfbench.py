"""Self-tests of the benchmark code at toy sizes; nothing here gates on time.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = measure.load_spec()
NAMES = sorted(workloads.WORKLOADS)


def toy(name):
    wl = workloads.WORKLOADS[name]
    return wl, wl.generate(3, **wl.toy_size)


def test_spec_names_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(run.WORKLOAD_NAMES) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_present_with_units(name):
    wl, inputs = toy(name)
    values, attempted, failed = measure.end_to_end(wl, inputs, 0.01)
    assert attempted >= 1 and failed == 0
    metrics = run.result_metrics(SPEC["end_to_end"], values,
                                 measure.END_TO_END_UNITS)
    assert {m: e["unit"] for m, e in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(e["value"] > 0 for e in metrics.values())


def test_speed_factor_uses_the_calibrations_around_each_timing(monkeypatch):
    times = iter([0.1, 0.2, 0.6])
    monkeypatch.setattr(measure, "calibration", lambda: next(times))
    speed = measure.SpeedCorrection()
    ref = measure.CALIBRATION_REFERENCE_S
    assert speed.next_factor() == pytest.approx(ref / 0.15)
    assert speed.next_factor() == pytest.approx(ref / 0.4)


@pytest.mark.parametrize("name", NAMES)
def test_per_layer_metrics_present_and_wrappers_removed(name):
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tracer.BOUNDARIES]
    wl, inputs = toy(name)
    values, attempted, failed, tracers = measure.per_layer(wl, inputs, 0.01)
    assert failed == 0 and tracers and tracers[0].spans
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"
    metrics = run.result_metrics(SPEC["per_layer"], values, measure.LAYER_UNITS)
    assert {m: e["unit"] for m, e in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(values) == set(measure.LAYER_UNITS)
    assert values["solvers.record_calls"] == values["objective.grad_calls"] > 0
    assert values["solvers.kernel_s"] + values["solvers.record_s"] == (
        pytest.approx(values["solvers.solve_s"]))


def test_spans_written_and_read_back(tmp_path):
    wl, inputs = toy("ring_schur")
    _, _, _, tracers = measure.per_layer(wl, inputs, 0.01)
    path = measure.write_spans(wl.name, 3, tracers, tmp_path)
    with np.load(path) as data:
        names = list(data["names"])
        assert "mpjacobi.solvers.mp_jacobi_surrogate" in names
        assert len(data["name_0"]) == len(tracers[0].spans)
        assert data["parent_0"][0] == -1
        assert np.all(data["end_0"] >= data["start_0"])


def test_wrappers_installed_only_inside_tracer():
    owner, attr, _ = tracer.BOUNDARIES[0]
    original = vars(owner)[attr]
    with tracer.Tracer():
        assert vars(owner)[attr] is not original
    assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", NAMES)
def test_wrong_oracle_fails_the_correctness_check(name):
    wl, inputs = toy(name)

    def wrong_setup(inp):
        prepared = wl.setup(inp)
        return dataclasses.replace(prepared, x_star=prepared.x_star + 1e-3)

    broken = dataclasses.replace(wl, setup=wrong_setup)
    values, attempted, failed = measure.end_to_end(broken, inputs, 0.01)
    assert attempted >= 1 and failed == attempted


def test_layer_stats_self_time_and_roots():
    layer_of = {"s": "solvers.solve", "r": "solvers.record",
                "v": "objective.value", "o": "objective.oracle"}
    spans = [("o", 0.0, 1.0, -1), ("v", 0.2, 0.3, 0),
             ("s", 2.0, 5.0, -1), ("r", 2.5, 3.5, 2), ("v", 2.6, 2.9, 3)]
    stats = tracer.layer_stats(spans, layer_of)
    rec = stats[("solvers.solve", "solvers.record")]
    assert rec["calls"] == 1
    assert rec["total_s"] == pytest.approx(1.0)
    assert rec["self_s"] == pytest.approx(0.7)
    assert stats[("objective.oracle", "objective.value")]["calls"] == 1
    assert stats[("solvers.solve", "objective.value")]["calls"] == 1


def test_compare_marks_only_deltas_beyond_the_bound(tmp_path):
    def write(path, solve_values, failed=0):
        lines = [json.dumps({"workload": "w", "seed": s, "env": {},
                             "result": {"correct": failed == 0,
                                        "attempted": 10, "failed": failed,
                                        "metrics": {"solve_s": {
                                            "value": v, "unit": "s"}}}})
                 for s, v in enumerate(solve_values)]
        path.write_text("\n".join(lines) + "\n")
        values, _, health = compare.load_results(path)
        return values, health

    base, base_health = write(tmp_path / "a.jsonl", [1.0, 1.0, 1.0])
    slower, _ = write(tmp_path / "b.jsonl", [1.5, 1.5, 1.5])
    faster, faster_health = write(tmp_path / "c.jsonl", [0.5, 0.5, 0.5])
    broken, broken_health = write(tmp_path / "d.jsonl", [0.5, 0.5, 0.5],
                                  failed=10)
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "solve_s")
    (row,) = compare.compare(base, slower, SPEC)
    assert row["delta"] == pytest.approx(0.5) and row["exceeds"] is (0.5 > bound)
    (row,) = compare.compare(base, faster, SPEC)
    assert row["delta"] == pytest.approx(-0.5) and row["exceeds"] is False
    assert base_health["w"] == {"attempted": 30, "failed": 0, "correct": True}
    (row,) = compare.compare_health(base_health, faster_health)
    assert row["worse"] is False
    # Every solve failed: the metric looks faster, the workload is worse.
    (row,) = compare.compare(base, broken, SPEC)
    assert row["exceeds"] is False
    (row,) = compare.compare_health(base_health, broken_health)
    assert row["worse"] is True and row["new"]["failed"] == 30


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "path_exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
