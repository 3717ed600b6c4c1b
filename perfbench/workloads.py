"""The solve workloads of the mpjacobi benchmark.

Each workload turns a seed into solver inputs (``generate``, not timed),
prepares a solve from them (``setup``, timed as ``setup_s``: partition
validation, rate constants and stepsize where used, and the dense oracle)
and runs one solve (``Prepared.solve``, timed as ``solve_s``). The library
is reached only through module attributes of its public functions, so the
span tracer in ``tracer.py`` sees every call it wraps.

The seed perturbs the linear term of the objective around a fixed one;
the operator (the quadratic blocks) and that base term come from the fixed
``OPERATOR_SEED``. Round counts depend on the operator and on how the
initial error spreads over its slow modes, so with fully random instances
they moved with the seed by tens of percent, which would hide a change in
the iterates; a perturbation keeps them within a few percent.

Why these: see README.md in this directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mpjacobi import bench, messages, objective, rate_analysis, solvers, topology


@dataclass
class Prepared:
    """What setup hands to the timed solve and to the correctness check."""

    solve: Callable[[], solvers.RunTrace]
    x_star: np.ndarray
    clusters: int
    max_diameter: int


@dataclass(frozen=True)
class Workload:
    name: str
    accuracy: float                 # bound on ||x_final - x_star||_2
    generate: Callable[..., dict]   # (seed, **size) -> inputs
    setup: Callable[[dict], Prepared]
    size: dict                      # benchmark size
    toy_size: dict                  # self-test size


OPERATOR_SEED = 0


def forcing(seed, base):
    """The seed's linear term: ``base`` plus 0.1 times independent standard
    normal entries."""
    base = np.asarray(base, dtype=float)
    return base + 0.1 * np.random.default_rng(seed).standard_normal(base.shape)


class IncorrectSolve(Exception):
    """A solve finished but its result failed the correctness check."""


def check_solve(trace, x_star, accuracy):
    """Raise IncorrectSolve unless the run converged, did not diverge, ended
    finite and within ``accuracy`` of the oracle minimizer."""
    if not trace.converged:
        raise IncorrectSolve(f"not converged after {trace.rounds} rounds")
    if trace.diverged:
        raise IncorrectSolve("diverged")
    x = np.asarray(trace.x_final, dtype=float)
    if not np.all(np.isfinite(x)):
        raise IncorrectSolve("x_final has non-finite entries")
    dist = float(np.linalg.norm(x - x_star))
    if not dist <= accuracy:
        raise IncorrectSolve(f"dist_to_opt {dist:.3e} exceeds {accuracy:.1e}")


def rounds_to_tol(trace, accuracy):
    """First round whose dist_to_opt is within ``accuracy`` (None if never)."""
    return trace.iterations_to("dist_to_opt", accuracy)


# ---------------------------------------------------------------------------
# path_exact: the kappa-sweep construction at one kappa, theorem stepsize


def _path_exact_generate(seed, D):
    g, q, _ = bench.kappa_sweep_instance(100.0, D=D)
    lin = forcing(seed, q.lin)
    lin[q.m - 2] = 1.0          # the weak singleton keeps its forcing
    q.lin = lin
    clusters = [list(range(D + 1)), [D + 1], [D + 2], [D + 3]]
    return {"graph": g, "problem": q, "clusters": clusters}


def _path_exact_setup(inp):
    q = inp["problem"]
    part = topology.validate_tree_partition(inp["graph"], inp["clusters"])
    constants = rate_analysis.estimate_constants(q, part)
    report = rate_analysis.rate_terms(part, constants)
    oracle = objective.global_solve_oracle(q)
    cfg = solvers.SolverConfig(tau=report.tau_max, max_rounds=5000,
                               tol_x=1e-12, track_oracle=oracle)
    return Prepared(lambda: solvers.mp_jacobi(q, part, cfg), oracle[0],
                    part.p, part.max_diameter)


# ---------------------------------------------------------------------------
# ring_schur: random ring QP, structured-quadratic surrogate messages


def _ring_schur_generate(seed, m):
    g = topology.generate_topology("ring", m=m)
    q = objective.build_random_qp(g, 2, 10.0, OPERATOR_SEED)
    q.lin = forcing(seed, q.lin)
    return {"graph": g, "problem": q}


def _ring_schur_setup(inp):
    q = inp["problem"]
    part = topology.generate_partition("ring_P2", inp["graph"], D=3)
    oracle = objective.global_solve_oracle(q)
    spec = messages.SurrogateSpec(
        family="schur_quadratic",
        Q=np.stack([np.diag(np.diag(q.diag[i])) for i in range(q.m)]),
        M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair})
    cfg = solvers.SolverConfig(tau=1.0, max_rounds=2000, tol_x=1e-10,
                               surrogate=spec, track_oracle=oracle)
    return Prepared(lambda: solvers.mp_jacobi_surrogate(q, part, cfg),
                    oracle[0], part.p, part.max_diameter)


WORKLOADS = {w.name: w for w in (
    Workload("path_exact", 1e-9, _path_exact_generate, _path_exact_setup,
             {"D": 600}, {"D": 30}),
    Workload("ring_schur", 1e-7, _ring_schur_generate, _ring_schur_setup,
             {"m": 128}, {"m": 16}),
)}
