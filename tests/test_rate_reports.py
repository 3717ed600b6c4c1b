"""Frozen numbers of the rate layer.

``tests/data/rate_reports.npz`` holds, for each instance below and each
set of constants (exact, first-order surrogate, structured-quadratic
surrogate), the ``tau_max``, ``rho``, three terms, ``A_r``, ``A_J`` and
``At_r`` of :func:`mpjacobi.rate_analysis.rate_terms`. For the exact
constants it also holds the verdict and ``rho`` of
``select_stepsize(..., mode="heterogeneous_theorem")``. It further holds the
``(D*, p*, slope)`` of the ring and grid partition optimizers. Every number
must be reproduced bit for bit (floats are compared by their int64 views).

The instances are the 20 random single-gateway instances of the acceptance
tests, six d = 2 random ring QPs under ``ring_P2`` with D = 3, and the
``kappa_sweep_instance`` of the ``path_exact`` benchmark workload.

Regenerate the file (only when a change of the rate numbers is intended)
with

    PYTHONPATH=src python tests/test_rate_reports.py --write
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import random_valid_instance  # noqa: E402

from mpjacobi.bench import kappa_sweep_instance  # noqa: E402
from mpjacobi.messages import SurrogateSpec  # noqa: E402
from mpjacobi.objective import build_random_qp  # noqa: E402
from mpjacobi.rate_analysis import (  # noqa: E402
    ConstantsTemplate,
    estimate_constants,
    grid_partition_optimizer,
    rate_terms,
    ring_partition_optimizer,
)
from mpjacobi.solvers import InfeasibleCondition, select_stepsize  # noqa: E402
from mpjacobi.topology import generate_partition, generate_topology  # noqa: E402

FROZEN = Path(__file__).resolve().parent / "data" / "rate_reports.npz"
RING_SIZES = (8, 16, 24, 32, 48, 64)
TEMPLATES = {
    "default": ConstantsTemplate(kappa=4.0),
    "balanced": ConstantsTemplate(mu_cluster=1.0, L_cluster=1.0,
                                  L_boundary=np.sqrt(1.0 / 6.0) / np.sqrt(2.0),
                                  kappa=4.0),
}
RING_OPT_SIZES = (3, 24, 60, 120, 360, 1000)
GRID_OPT_SIDES = (2, 3, 4, 8, 16, 32, 64)


def _instances():
    out = {f"random/{seed}": (lambda s=seed: random_valid_instance(s))
           for seed in range(20)}
    for m in RING_SIZES:
        def ring(m=m):
            g = generate_topology("ring", m=m)
            return (build_random_qp(g, 2, 10.0, 0),
                    generate_partition("ring_P2", g, D=3))
        out[f"ring_d2/{m}"] = ring
    out["path_exact"] = lambda: kappa_sweep_instance(100.0, D=600)[1:]
    return out


def _surrogates(q):
    d = q.d
    return {
        "exact": None,
        "first_order": SurrogateSpec(family="first_order", alpha=0.01),
        "schur": SurrogateSpec(
            family="schur_quadratic",
            Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.2 * np.eye(d)
                        for i in range(q.m)]),
            M_node=0.05 * np.eye(d),
            M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair}),
    }


def _instance_arrays(name):
    q, part = _instances()[name]()
    out = {}
    for tag, spec in _surrogates(q).items():
        inputs = estimate_constants(q, part, surrogate=spec)
        rep = rate_terms(part, inputs, surrogate=spec is not None)
        out.update({
            f"{tag}:tau_max": np.float64(rep.tau_max),
            f"{tag}:rho": np.float64(rep.rho),
            f"{tag}:terms": np.array([rep.term_I, rep.term_II, rep.term_III]),
            f"{tag}:A_r": np.asarray(rep.A_r, dtype=float),
            f"{tag}:A_J": np.float64(rep.A_J),
            f"{tag}:At_r": np.asarray(rep.At_r, dtype=float),
        })
        if spec is None:
            try:
                tau_r, rho = select_stepsize(part, inputs,
                                             mode="heterogeneous_theorem")
                feasible = 1
            except InfeasibleCondition:
                tau_r, rho, feasible = np.zeros(0), np.nan, 0
            out[f"{tag}:het_feasible"] = np.int64(feasible)
            out[f"{tag}:het_tau"] = np.asarray(tau_r, dtype=float)
            out[f"{tag}:het_rho"] = np.float64(rho)
    return out


def _optimizers():
    out = {}
    for tname, t in TEMPLATES.items():
        for strategy in ("P1", "P2"):
            for m in RING_OPT_SIZES:
                out[f"ring_{strategy}/{tname}/{m}"] = (
                    lambda m=m, s=strategy, t=t: ring_partition_optimizer(m, s, t))
        for side in GRID_OPT_SIDES:
            out[f"grid/{tname}/{side * side}"] = (
                lambda m=side * side, t=t: grid_partition_optimizer(m, t))
    return out


def _optimizer_arrays(name):
    D_star, p_star, slope = _optimizers()[name]()
    return {"D_p": np.array([D_star, p_star], dtype=np.int64),
            "slope": np.float64(slope)}


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == float else a


def write_frozen():
    data = {}
    for name in _instances():
        for key, arr in _instance_arrays(name).items():
            data[f"{name}:{key}"] = arr
    for name in _optimizers():
        for key, arr in _optimizer_arrays(name).items():
            data[f"{name}:{key}"] = arr
    FROZEN.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(FROZEN, **data)


@pytest.fixture(scope="module")
def frozen():
    with np.load(FROZEN) as f:
        return {k: f[k] for k in f.files}


def _check(name, got, frozen):
    want_keys = {k for k in frozen if k.startswith(f"{name}:")}
    assert {f"{name}:{k}" for k in got} == want_keys
    for key, arr in got.items():
        want = frozen[f"{name}:{key}"]
        assert np.shape(arr) == want.shape, key
        assert np.array_equal(_bits(arr), _bits(want)), key


@pytest.mark.parametrize("name", sorted(_instances()))
def test_rate_report(name, frozen):
    _check(name, _instance_arrays(name), frozen)


@pytest.mark.parametrize("name", sorted(_optimizers()))
def test_partition_optimizer(name, frozen):
    _check(name, _optimizer_arrays(name), frozen)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_rate_reports.py --write")
    write_frozen()
