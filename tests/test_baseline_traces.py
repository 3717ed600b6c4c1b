"""Frozen traces of the classical baselines.

``tests/data/baseline_traces.npz`` holds, for each case below, the recorded
``grad_norm``, ``phi_gap``, ``dist_to_opt`` and ``vectors_sent`` histories,
``x_final``, the round count and the ``converged``/``diverged`` flags of a
:func:`mpjacobi.solvers.baseline` run on the golden-trace instances. Most
cases run up to 30 rounds with ``tol=0`` (min-sum on the ring reaches a
fixed iterate before); one stops on ``tol`` and one gradient descent run
takes a step too large and diverges. Every field must be
reproduced bit for bit (floats are compared by their int64 views, so NaN
columns and signed zeros count too).

Regenerate the file (only when a change of iterates is intended) with

    PYTHONPATH=src python tests/test_baseline_traces.py --write
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import random_valid_instance  # noqa: E402

from mpjacobi.bench import cta_instance  # noqa: E402
from mpjacobi.objective import build_atc, global_solve_oracle  # noqa: E402
from mpjacobi.solvers import baseline  # noqa: E402
from mpjacobi.topology import generate_partition  # noqa: E402

FROZEN = Path(__file__).resolve().parent / "data" / "baseline_traces.npz"
ROUNDS = 30
FIELDS = ("grad_norm", "phi_gap", "dist_to_opt", "vectors_sent", "x_final",
          "rounds", "converged", "diverged")


def _quadratic_cases(tag, q, clusters, x0):
    """Jacobi, central block Jacobi, gradient descent and min-sum on one
    pairwise quadratic."""
    oracle = global_solve_oracle(q)
    tau = 1.0 / len(clusters)
    L = np.linalg.eigvalsh(q.assemble()[0])[-1]

    def run(kind, **params):
        return lambda: baseline(kind, q, {"max_rounds": ROUNDS, "tol": 0.0,
                                          "oracle": oracle, **params}, x0=x0)

    return {
        f"jacobi/{tag}": run("jacobi", tau=tau),
        f"jacobi/undamped/{tag}": run("jacobi"),
        f"block_jacobi_central/{tag}": run("block_jacobi_central", tau=tau,
                                           clusters=clusters),
        f"gradient_descent/{tag}": run("gradient_descent"),
        f"gradient_descent/step/{tag}": run("gradient_descent", step=0.8 / L),
        f"minsum/{tag}": run("minsum"),
    }


def cases():
    """Case name -> zero-argument callable returning a RunTrace."""
    out = {}

    # d = 1: random ring QP with a single-gateway tree partition
    q, part = random_valid_instance(2)
    x0 = np.random.default_rng(2).standard_normal((q.m, q.d))
    out.update(_quadratic_cases("ring_d1", q, part.clusters, x0))
    oracle = global_solve_oracle(q)
    out["gradient_descent/tol/ring_d1"] = lambda: baseline(
        "gradient_descent", q, {"max_rounds": 5000, "tol": 1e-9,
                                "oracle": oracle}, x0=x0)
    L = np.linalg.eigvalsh(q.assemble()[0])[-1]
    out["gradient_descent/diverge/ring_d1"] = lambda: baseline(
        "gradient_descent", q, {"max_rounds": 500, "tol": 0.0, "step": 2.5 / L,
                                "oracle": oracle}, x0=x0)

    # d = 2: lifted consensus problem; the pairwise baselines run on its
    # quadratic form, diffusion and the splitting recursion on the lifted
    # problem and its local losses
    g, W, prob = cta_instance(m=8, d=2, gamma=0.01, seed=1)
    cpart = generate_partition("ring_P2", g, D=1)
    cq = prob.to_quadratic()
    cx0 = np.random.default_rng(3).standard_normal((prob.m, prob.d))
    out.update(_quadratic_cases("cta_d2", cq, cpart.clusters, cx0))
    coracle = global_solve_oracle(cq)
    xa, _ = global_solve_oracle(build_atc(prob.locals_, W))
    for kind, orc in (("dgd_cta", coracle), ("dgd_atc", (xa, float("nan")))):
        for label, start in (("", cx0), ("zero/", None)):
            out[f"{kind}/{label}cta_d2"] = lambda kind=kind, orc=orc, start=start: (
                baseline(kind, prob, {"max_rounds": ROUNDS, "tol": 0.0,
                                      "oracle": orc}, x0=start))
    locs = [(f.Q, -f.c) for f in prob.locals_]
    out["minsum_splitting/cta_d2"] = lambda: baseline(
        "minsum_splitting", locs, {"W": W.W, "max_rounds": ROUNDS, "tol": 0.0})
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
        "diverged": np.asarray(trace.diverged, dtype=np.int64),
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


def test_frozen_runs_cover_every_stop(frozen):
    """The frozen set holds a run that stops on tol and one that diverges."""
    assert frozen["gradient_descent/tol/ring_d1:converged"] == 1
    assert frozen["gradient_descent/tol/ring_d1:rounds"] < 5000
    assert frozen["gradient_descent/diverge/ring_d1:diverged"] == 1
    assert frozen["gradient_descent/diverge/ring_d1:rounds"] < 500


@pytest.mark.parametrize("name", sorted(cases()))
def test_baseline_trace(name, frozen):
    got = _arrays(cases()[name]())
    for fld in FIELDS:
        want = frozen[f"{name}:{fld}"]
        assert got[fld].shape == want.shape, fld
        assert np.array_equal(_bits(got[fld]), _bits(want)), fld


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_baseline_traces.py --write")
    write_frozen()
