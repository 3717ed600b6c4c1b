"""The benchmark's span tracer must find every library boundary it wraps.

``perfbench/tracer.py`` names the library callables it replaces while a
traced benchmark run is active; a rename under ``src/`` would break
``perfbench/run.py --trace`` without failing any library test. This test
loads the tracer as the benchmark does and checks both directions of the
swap.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_boundary_and_restores_it():
    tracer = _load_tracer()
    originals = [vars(owner).get(attr) for owner, attr, _ in tracer.BOUNDARIES]
    missing = [tracer.qualified_name(owner, attr)
               for (owner, attr, _), fn in zip(tracer.BOUNDARIES, originals)
               if fn is None]
    assert not missing, f"tracer boundaries missing from the library: {missing}"
    with tracer.Tracer():
        for (owner, attr, _), fn in zip(tracer.BOUNDARIES, originals):
            assert vars(owner)[attr] is not fn
    for (owner, attr, _), fn in zip(tracer.BOUNDARIES, originals):
        assert vars(owner)[attr] is fn
