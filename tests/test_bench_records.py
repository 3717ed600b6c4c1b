"""Schema of the committed benchmark records.

Every ``BENCH_<commit>.json`` at the repository root holds the records that
``perfbench/run.py --out`` wrote, ten seeds or more per workload, for one
commit. This test checks their layout against ``BENCHMARK.json``: workload
names, metric names and units, and the environment keys. It reads no
timing.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
ENV_KEYS = {"python", "numpy", "nproc", "blas_threads", "blas_threads_env",
            "git_commit", "seed"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def test_records_are_committed():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_schema(path):
    doc = json.loads(path.read_text())
    commit = path.stem.removeprefix("BENCH_")
    assert doc["commit"] == commit
    records = doc["records"]
    workloads = {w["name"] for w in SPEC["workloads"]}
    seeds = {name: set() for name in workloads}
    for rec in records:
        assert rec["workload"] in workloads
        assert set(rec["env"]) == ENV_KEYS
        assert rec["env"]["git_commit"].startswith(commit)
        assert rec["env"]["seed"] == rec["seed"]
        result = rec["result"]
        assert set(result) == RESULT_KEYS
        spec = SPEC["per_layer" if rec["trace"] else "end_to_end"]
        assert ({name: entry["unit"] for name, entry in result["metrics"].items()}
                == {entry["name"]: entry["unit"] for entry in spec})
        seeds[rec["workload"]].add(rec["seed"])
    assert all(len(s) >= 10 for s in seeds.values()), seeds
