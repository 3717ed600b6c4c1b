"""Frozen per-round traces of the surrogate families, bit for bit.

``tests/test_golden_traces.py`` checks its first-order, structured-quadratic
and partial-linearization cases only to 1e-12. ``tests/data/
surrogate_traces.npz`` holds the same four fields (``grad_norm``,
``dist_to_opt``, ``vectors_sent``, ``x_final``) of the same 30-round runs,
and every one must be reproduced exactly, so a change to the surrogate
engines that moves any iterate by one ulp fails here.

Regenerate the file (only when a change of iterates is intended) with

    PYTHONPATH=src python tests/test_surrogate_traces.py --write
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_golden_traces import BITWISE, FIELDS, ROUNDS, _arrays, cases  # noqa: E402

FROZEN = Path(__file__).resolve().parent / "data" / "surrogate_traces.npz"


def surrogate_cases():
    """The golden-trace cases that the golden test checks only to 1e-12."""
    return {name: run for name, run in cases().items()
            if name.split("/")[0] not in BITWISE}


def write_frozen():
    data = {}
    for name, run in surrogate_cases().items():
        trace = run()
        assert trace.rounds == ROUNDS
        for fld, arr in _arrays(trace).items():
            data[f"{name}:{fld}"] = arr
    np.savez_compressed(FROZEN, **data)


@pytest.fixture(scope="module")
def frozen():
    with np.load(FROZEN) as f:
        return {k: f[k] for k in f.files}


def test_every_surrogate_case_is_frozen(frozen):
    names = surrogate_cases()
    assert len(names) == 8
    assert set(frozen) == {f"{n}:{fld}" for n in names for fld in FIELDS}


@pytest.mark.parametrize("name", sorted(surrogate_cases()))
def test_surrogate_trace_bitwise(name, frozen):
    trace = surrogate_cases()[name]()
    assert trace.rounds == ROUNDS
    got = _arrays(trace)
    for fld in FIELDS:
        want = frozen[f"{name}:{fld}"]
        assert got[fld].dtype == want.dtype and got[fld].shape == want.shape, fld
        assert np.array_equal(got[fld], want), fld


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_surrogate_traces.py --write")
    write_frozen()
