"""Smoke test of ``tools/raisetrace.py``, the report of which library
``raise`` statements a pytest run reaches: a toy run that reaches one raise
of ``bench.py`` reports it reached and every other raise unreached."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAISETRACE = ROOT / "tools" / "raisetrace.py"

TOY_TEST = '''
import pytest
from mpjacobi.bench import BenchError, ExperimentConfig


def test_unknown_experiment():
    with pytest.raises(BenchError):
        ExperimentConfig(experiment="nope")


def test_known_experiment():
    with pytest.raises(BenchError):
        ExperimentConfig(experiment="p_sweep")
'''


def _tool():
    spec = importlib.util.spec_from_file_location("raisetrace", RAISETRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_raisetrace_toy_run(tmp_path):
    found = _tool().raise_lines()
    assert "cli.py" not in found and "__init__.py" not in found
    bench_src = (ROOT / "src" / "mpjacobi" / "bench.py").read_text().splitlines()
    unknown = next(k for k, text in enumerate(bench_src, 1)
                   if 'raise BenchError(f"unknown experiment' in text)
    assert found["bench.py"][unknown] == "BenchError"
    assert all(bench_src[k - 1].lstrip().startswith("raise") for k in found["bench.py"])

    # one test passes and one fails: the report comes out all the same,
    # and the tool exits with pytest's status
    (tmp_path / "test_toy.py").write_text(TOY_TEST)
    run = subprocess.run([sys.executable, str(RAISETRACE), "-q", "-p", "no:cacheprovider",
                          "-p", "no:hypothesispytest", "test_toy.py"],
                         capture_output=True, text=True, cwd=tmp_path)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    lines = run.stdout.splitlines()
    assert f"bench.py             1/{len(found['bench.py'])}" in lines
    unreached = lines[lines.index("unreached:") + 1:]
    assert f"  bench.py:{unknown} BenchError" not in unreached
    assert {f"  bench.py:{k} {exc}" for k, exc in found["bench.py"].items()
            if k != unknown} <= set(unreached)
    assert len(unreached) == sum(map(len, found.values())) - 1
