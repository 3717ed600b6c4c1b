"""Frozen traces of runs that stop on their gradient-norm rule.

Under ``tol_grad`` the round driver records every iterate alone, a stack of
one, as that rule reads each round's gradient norm. ``tests/data/
tol_grad_traces.npz`` holds, for each case below, the recorded
``grad_norm``, ``phi_gap``, ``dist_to_opt`` and ``vectors_sent`` histories,
``x_final``, the round count, ``converged`` and ``stop_reason`` of a run
that stops on ``tol_grad``: exact ``mp_jacobi`` on random ring QPs at d = 1
and d = 3, partial-linearization ``mp_jacobi_surrogate`` on criterion 9c's
lifted consensus problem (at gamma = 1e-2, so that it stops within 5,000
rounds), ``baseline("minsum")`` with ``tol`` > 0, and ``h_mp_jacobi_split``
as the ``split_toy`` experiment runs it. Every field must be reproduced bit
for bit (floats are compared by their int64 views, so NaN columns and
signed zeros count too).

Regenerate the file (only when a change of iterates is intended) with

    PYTHONPATH=src python tests/test_tol_grad_traces.py --write
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import random_valid_instance  # noqa: E402

from mpjacobi.bench import cta_instance, split_toy_instance  # noqa: E402
from mpjacobi.messages import SurrogateSpec  # noqa: E402
from mpjacobi.objective import global_solve_oracle  # noqa: E402
from mpjacobi.solvers import (  # noqa: E402
    SolverConfig,
    baseline,
    h_mp_jacobi_split,
    mp_jacobi,
    mp_jacobi_surrogate,
)
from mpjacobi.splitting import (  # noqa: E402
    SplitMap,
    SplitQuadraticView,
    apply_split,
    split_surrogate_components,
    validate_split_partition,
)
from mpjacobi.topology import generate_partition  # noqa: E402

FROZEN = Path(__file__).resolve().parent / "data" / "tol_grad_traces.npz"
FIELDS = ("grad_norm", "phi_gap", "dist_to_opt", "vectors_sent", "x_final",
          "rounds", "converged", "stop_reason")


def cases():
    """Case name -> zero-argument callable returning a RunTrace."""
    out = {}
    for tag, seed in (("ring_d1", 2), ("ring_d3", 9)):
        q, part = random_valid_instance(seed)
        x0 = np.random.default_rng(seed).standard_normal((q.m, q.d))
        oracle = global_solve_oracle(q)
        out[f"exact/{tag}"] = lambda q=q, part=part, x0=x0, oracle=oracle: mp_jacobi(
            q, part, SolverConfig(tau=1.0 / part.p, max_rounds=5000, tol_x=0.0,
                                  tol_grad=1e-9, track_oracle=oracle), x0=x0)
        out[f"minsum/{tag}"] = lambda q=q, x0=x0, oracle=oracle: baseline(
            "minsum", q, {"max_rounds": 5000, "tol": 1e-9, "oracle": oracle}, x0=x0)

    g, W, prob = cta_instance(m=8, d=2, gamma=1e-2, seed=0)
    oracle = global_solve_oracle(prob.to_quadratic())
    part = generate_partition("ring_P2", g, D=1)
    qmax = max(float(np.linalg.eigvalsh(f.Q)[-1]) for f in prob.locals_)
    spec = SurrogateSpec(family="partial_linearization", Q=qmax + 0.1)
    out["partial_linearization/cta_d2"] = lambda: mp_jacobi_surrogate(
        prob, part, SolverConfig(tau=1.0, max_rounds=5000, tol_x=0.0, tol_grad=1e-8,
                                 surrogate=spec, track_oracle=oracle))

    # as bench's split_toy runs it, at tau = 1 from its grid
    hg, sq = split_toy_instance(seed=0)
    soracle = global_solve_oracle(sq)
    for label, family, supports in (("pairwise", "pairwise", ((1, 3), (1, 2), (2, 3))),
                                    ("singleton", "singleton", ((1,), (2,), (3,)))):
        split = apply_split(hg, SplitMap({1: supports}))
        view = SplitQuadraticView(sq, split, split_surrogate_components(split, {1: family}))
        spart = validate_split_partition(split, [[0, 1, 2, 3]], [[0, 1]])
        out[f"split_{label}/toy"] = lambda view=view, spart=spart: h_mp_jacobi_split(
            sq, view, spart, SolverConfig(tau=1.0, max_rounds=2000, tol_x=1e-14,
                                          tol_grad=1e-10, track_oracle=soracle))
    return out


def _arrays(trace):
    return {
        "grad_norm": np.asarray(trace.grad_norm, dtype=float),
        "phi_gap": np.asarray(trace.phi_gap, dtype=float),
        "dist_to_opt": np.asarray(trace.dist_to_opt, dtype=float),
        "vectors_sent": np.asarray(trace.vectors_sent, dtype=np.int64),
        "x_final": np.asarray(trace.x_final, dtype=float),
        "rounds": np.asarray(trace.rounds, dtype=np.int64),
        "converged": np.asarray(trace.converged, dtype=np.int64),
        "stop_reason": np.asarray(trace.stop_reason, dtype=str),
    }


def _bits(a):
    return a.view(np.int64) if a.dtype == float else a


def write_frozen():
    data = {}
    for name, run in cases().items():
        for fld, arr in _arrays(run()).items():
            data[f"{name}:{fld}"] = arr
    FROZEN.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FROZEN, **data)


@pytest.fixture(scope="module")
def frozen():
    with np.load(FROZEN) as f:
        return {k: f[k] for k in f.files}


def test_every_frozen_run_stops_on_tol_grad(frozen):
    names = {k.split(":")[0] for k in frozen}
    assert names == set(cases())
    for name in names:
        assert frozen[f"{name}:stop_reason"] == "tol_grad", name
        assert frozen[f"{name}:converged"] == 1, name


@pytest.mark.parametrize("name", sorted(cases()))
def test_tol_grad_trace(name, frozen):
    got = _arrays(cases()[name]())
    for fld in FIELDS:
        want = frozen[f"{name}:{fld}"]
        assert got[fld].shape == want.shape, fld
        assert np.array_equal(_bits(got[fld]), _bits(want)), fld


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_tol_grad_traces.py --write")
    write_frozen()
