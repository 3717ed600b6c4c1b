"""Dump the benchmark workloads' set-up outputs and traces and compare
two dumps bit for bit.

    python3 tools/bitdump.py --out after.npz
    python3 tools/bitdump.py --root ../parent --out before.npz
    python3 tools/bitdump.py --compare before.npz after.npz

``--out`` solves every workload of ``perfbench/workloads.py`` at seeds 1
to 10 (``--seeds`` changes the range, ``--toy`` takes the workloads'
self-test sizes) and saves, per workload and seed, the trace's
``grad_norm``, ``dist_to_opt``, ``phi_gap``, ``vectors_sent``,
``x_final`` and ``monitor`` (H, h) as arrays named
``<workload>/seed<n>/<field>``. Next to them go the set-up's outputs, as
the library calls made by the set-up return them: ``x_star`` and
``phi_star`` of ``global_solve_oracle``, every field of the
``RateInputs`` that ``estimate_constants`` returns that is set, and the
``tau_max`` of ``rate_terms``. The same arrays of one run per seed of the
lifted consensus (CTA) engine, which no workload runs, go under
``cta_plin/seed<n>``: partial-linearization messages on
``cta_instance(16, 3, 1e-3, seed)`` with the ``ring_P2`` partition at
D = 1, tau = 1 and a fixed number of rounds (``CTA``; ``CTA_TOY`` with
``--toy``); its set-up also computes the surrogate rate constants. Those
of one run per seed that stops on its gradient-norm rule, so that every
round is recorded alone, a stack of one iterate, go under
``minsum_tol/seed<n>``: ``baseline("minsum")`` with the oracle on
``build_random_qp`` over an 8-ring at d = 2 (``MINSUM``, at every size).
Those of one hypergraph run per seed, whose recorded stacks sum the
gradient's factor terms, go under ``h_mp_jacobi/seed<n>``:
``h_mp_jacobi`` on ``bench.hyperring_qp`` (five factors of five nodes, so
arity 5, at d = 2) with the ``bench`` experiment ``hyperring``'s partition
and tau = 1/p, for a fixed number of rounds (``HYPER``, at every size).
Those of one structured-quadratic run per seed on non-diagonal node
systems, whose sender systems go to LAPACK and whose kept columns are full
solves, go under ``schur_full/seed<n>``: ``schur_quadratic`` with
Q = 2 H_ii and M_edge the symmetric part of each coupling, and
``exact_variable_update``, on ``build_random_qp`` over a 16-ring at d = 3
with the ``ring_P2`` partition at D = 3 and tau = 1/2, for a fixed number
of rounds (``SCHUR_FULL``, at every size). Those of four exact runs per
seed that test the round driver's divergence rule go under
``diverge/seed<n>/<run>``: ``mp_jacobi`` on ``build_random_qp`` over an
8-ring at d = 2 with the ``ring_P2`` partition at D = 1 (``DIVERGE``, at
every size), from x0 = 1 at tau = 50 and tau = 2 (``fast`` and ``slow``:
they stop on the rule after 7 and about 30 rounds), from x0 = 1e308 at
tau = 1 (``overflow``) and from x0 = 1e11 at tau = 1 (``large``: it
converges, after iterates whose running bound passes the rule's gate).
The min-sum and divergence runs are repeated at d = 1 (``MINSUM_D1``,
``DIVERGE_D1``) under ``minsum_d1/seed<n>`` and ``diverge_d1/seed<n>/<run>``:
there the exact rule solves 1 x 1 systems and the recorded stacks take
the scalar gradient, under non-finite values in the ``overflow`` run. The
divergence runs are repeated with structured-quadratic messages under
``schur_diverge/seed<n>/<run>``, on the ``DIVERGE`` problems at d = 2
with Q = 2 H_ii and M_edge the symmetric part of each coupling: finite
2 x 2 blocks, whose products are made from column planes, meet iterates
whose products overflow to inf and sum to NaN in the ``overflow`` run.
Every run also saves its ``rounds``. The ``x_star`` and ``phi_star`` of
one ``global_solve_oracle`` call per oracle problem go under
``oracle/seed<n>/<path>``, on a fixed operator per problem with a linear
term drawn from the seed (``oracle_problems``, at every size): ``plain``
and ``weighted`` Gershgorin certificates, direct solves chosen by
``eigvalsh`` (``cholesky`` and ``eigvalsh``) and a ``pinv`` solve. The library and the
workloads come from the checkout named by ``--root`` (default: this one),
so one copy of this script dumps any revision.

``--compare A B`` lists every array whose bits differ (shape, dtype and
bytes, so -0.0 and NaN payloads count), or that only one dump has; it
exits with 1 when there is any, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import os
import sys
from pathlib import Path

# one BLAS thread, as perfbench/run.py runs the workloads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("grad_norm", "dist_to_opt", "phi_gap", "vectors_sent", "x_final", "rounds")
CTA = {"m": 16, "d": 3, "gamma": 1e-3, "rounds": 2000}
CTA_TOY = {"m": 8, "d": 2, "gamma": 1e-3, "rounds": 200}
MINSUM = {"m": 8, "d": 2, "kappa": 50.0, "tol": 1e-8}
HYPER = {"n_edges": 5, "edge_size": 5, "d": 2, "kappa": 200.0, "rounds": 200}
SCHUR_FULL = {"m": 16, "d": 3, "kappa": 10.0, "rounds": 200}
DIVERGE = {"m": 8, "d": 2, "kappa": 30.0}
# the min-sum and divergence set-ups again at d = 1, where the exact rule
# and the stacked gradient take their scalar forms
MINSUM_D1, DIVERGE_D1 = {**MINSUM, "d": 1}, {**DIVERGE, "d": 1}
# diverge run -> (tau, x0 entries)
DIVERGE_RUNS = {"fast": (50.0, 1.0), "slow": (2.0, 1.0), "overflow": (1.0, 1e308),
                "large": (1.0, 1e11)}


def import_workloads(root):
    """perfbench/workloads.py of ``root``, with ``root/src`` first on the
    path so that it solves with that checkout's library."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import mpjacobi
    import workloads
    if not Path(mpjacobi.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"bitdump: mpjacobi came from {mpjacobi.__file__}, "
                         f"not {root / 'src'}")
    return workloads


def _oracle_outputs(result):
    x_star, phi_star = result
    return {"x_star": x_star, "phi_star": phi_star}


def _rate_inputs(inputs):
    return {f.name: getattr(inputs, f.name) for f in dataclasses.fields(inputs)
            if getattr(inputs, f.name) is not None}


def _rate_report(report):
    return {"tau_max": report.tau_max}


# set-up calls whose outputs are dumped: (module, function) -> outputs
SETUP_CALLS = {("objective", "global_solve_oracle"): _oracle_outputs,
               ("rate_analysis", "estimate_constants"): _rate_inputs,
               ("rate_analysis", "rate_terms"): _rate_report}


@contextlib.contextmanager
def captured_setup():
    """Yield a dict that collects, as arrays, the outputs of the
    ``SETUP_CALLS`` made inside the block; each call must run at most once.
    The callers reach them as module attributes, as the workloads do."""
    found, saved = {}, []

    def wrapped(fn, outputs):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            for name, value in outputs(result).items():
                if name in found:
                    raise SystemExit(f"bitdump: {fn.__name__} ran twice in one set-up")
                found[name] = np.asarray(value)
            return result
        return call

    for (module, name), outputs in SETUP_CALLS.items():
        mod = importlib.import_module(f"mpjacobi.{module}")
        saved.append((mod, name, getattr(mod, name)))
        setattr(mod, name, wrapped(getattr(mod, name), outputs))
    try:
        yield found
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def cta_setup(seed, m, d, gamma, rounds):
    """The solve of ``rounds`` partial-linearization rounds on
    ``cta_instance(m, d, gamma, seed)``, Q = (largest local curvature +
    0.1) I, as the ``bench`` experiment ``cta_compare`` sets it, after the
    oracle and the surrogate rate constants of that partition."""
    from mpjacobi import bench, messages, objective, rate_analysis, solvers, topology
    g, _, prob = bench.cta_instance(m, d, gamma, seed=seed)
    q = prob.to_quadratic()
    oracle = objective.global_solve_oracle(q)
    part = topology.generate_partition("ring_P2", g, D=1)
    qmax = max(float(np.linalg.eigvalsh(f.Q)[-1]) for f in prob.locals_)
    spec = messages.SurrogateSpec(family="partial_linearization", Q=qmax + 0.1)
    constants = rate_analysis.estimate_constants(q, part, surrogate=spec, cta=prob)
    rate_analysis.rate_terms(part, constants, surrogate=True)
    cfg = solvers.SolverConfig(tau=1.0, max_rounds=rounds, tol_x=0.0,
                               surrogate=spec, track_oracle=oracle)
    return lambda: solvers.mp_jacobi_surrogate(prob, part, cfg)


def minsum_setup(seed, m, d, kappa, tol):
    """Plain min-sum, ``baseline("minsum")``, on ``build_random_qp`` over
    an m-ring at ``kappa`` and ``seed``, after the oracle; it stops when the
    gradient norm is at most ``tol``."""
    from mpjacobi import objective, solvers, topology
    q = objective.build_random_qp(topology.generate_topology("ring", m=m), d, kappa, seed)
    oracle = objective.global_solve_oracle(q)
    return lambda: solvers.baseline("minsum", q, {"tol": tol, "oracle": oracle})


def hyper_setup(seed, n_edges, edge_size, d, kappa, rounds):
    """``rounds`` rounds of ``h_mp_jacobi`` on ``bench.hyperring_qp`` at
    ``seed``, after the oracle: one path cluster holds all but the last two
    factors, every other node is a singleton, tau = 1/p, as the ``bench``
    experiment ``hyperring`` sets it."""
    from mpjacobi import bench, objective, solvers, topology
    hg, q = bench.hyperring_qp(n_edges=n_edges, edge_size=edge_size, d=d,
                               seed=seed, kappa=kappa)
    oracle = objective.global_solve_oracle(q)
    nodes = sorted({i for w in hg.hyperedges[:n_edges - 2] for i in w})
    clusters = [nodes] + [[i] for i in range(hg.m) if i not in nodes]
    hpart = topology.validate_hyper_partition(hg, clusters)
    cfg = solvers.SolverConfig(tau=1.0 / hpart.p, max_rounds=rounds, tol_x=0.0,
                               track_oracle=oracle)
    return lambda: solvers.h_mp_jacobi(q, hpart, cfg)


def schur_full_setup(seed, m, d, kappa, rounds):
    """``rounds`` structured-quadratic rounds with ``exact_variable_update``
    on ``build_random_qp`` over an m-ring at ``kappa`` and ``seed``, after
    the oracle: Q = 2 H_ii and M_edge = sym(H_ij), both dense, the
    ``ring_P2`` partition at D = 3, tau = 1/2."""
    from mpjacobi import messages, objective, solvers, topology
    g = topology.generate_topology("ring", m=m)
    q = objective.build_random_qp(g, d, kappa, seed)
    oracle = objective.global_solve_oracle(q)
    part = topology.generate_partition("ring_P2", g, D=3)
    spec = messages.SurrogateSpec(family="schur_quadratic", Q=2.0 * q.diag,
                                  M_edge={e: 0.5 * (B + B.T) for e, B in q.pair.items()})
    cfg = solvers.SolverConfig(tau=0.5, max_rounds=rounds, tol_x=0.0, surrogate=spec,
                               exact_variable_update=True, track_oracle=oracle)
    return lambda: solvers.mp_jacobi_surrogate(q, part, cfg)


def diverge_solves(seed, m, d, kappa, schur=False):
    """{run: solve} of the ``DIVERGE_RUNS``: ``mp_jacobi`` (with ``schur``,
    ``schur_quadratic`` messages, Q = 2 H_ii and M_edge = sym(H_ij)) on
    ``build_random_qp`` over an m-ring at ``kappa`` and ``seed`` with the
    ``ring_P2`` partition at D = 1, up to 3,000 rounds, from x0 filled with
    the run's entry, at its tau; no set-up outputs."""
    from mpjacobi import messages, objective, solvers, topology
    g = topology.generate_topology("ring", m=m)
    q = objective.build_random_qp(g, d, kappa, seed)
    part = topology.generate_partition("ring_P2", g, D=1)
    spec = (messages.SurrogateSpec(family="schur_quadratic", Q=2.0 * q.diag,
                                   M_edge={e: 0.5 * (B + B.T) for e, B in q.pair.items()})
            if schur else None)

    def solve(tau, x0):
        cfg = solvers.SolverConfig(tau=tau, max_rounds=3000, surrogate=spec)
        with np.errstate(all="ignore"):
            return solvers.mp_jacobi_surrogate(q, part, cfg, x0=np.full((m, d), x0))

    return {run: (lambda args=args: solve(*args)) for run, args in DIVERGE_RUNS.items()}


def oracle_problems(seed):
    """{path: problem}, each with a standard normal linear term from
    ``seed``: ``build_random_qp`` at operator seed 0 on an 8-ring at d = 2
    and kappa = 2 (``plain``: the Gershgorin bound certifies it at unit
    weights) and kappa = 10 (``weighted``: it needs the scaled bound), and
    on a 4 x 4 grid at d = 2 and kappa = 100 (``cholesky``, named for the
    Cholesky certificate that once settled it, so that dumps still compare:
    the bound refuses it and the eigenvalue test settles it); the
    unit-weight 8-ring Laplacian plus 6e-12 I (``eigvalsh``: lambda_min lies
    between the eigenvalue test's 4e-12 and the certificate's shift, about
    1e-11) and the Laplacian itself with a linear term of mean 0
    (``pinv``)."""
    from mpjacobi import objective, topology
    ring, grid = (topology.generate_topology("ring", m=8),
                  topology.generate_topology("grid2d", side=4))
    laplacian = np.eye(8, k=1) + np.eye(8, k=-1) + np.eye(8, k=7) + np.eye(8, k=-7)
    problems = {"plain": objective.build_random_qp(ring, 2, 2.0, 0),
                "weighted": objective.build_random_qp(ring, 2, 10.0, 0),
                "cholesky": objective.build_random_qp(grid, 2, 100.0, 0),
                "eigvalsh": objective.build_laplacian_qp(laplacian, np.zeros(8)),
                "pinv": objective.build_laplacian_qp(laplacian, np.zeros(8))}
    problems["eigvalsh"].diag = problems["eigvalsh"].diag + 6e-12
    rng = np.random.default_rng(seed)
    for q in problems.values():
        q.lin = rng.standard_normal(q.lin.shape)
    problems["pinv"].lin -= problems["pinv"].lin.mean()
    return problems


def runs(root, seeds, toy=False):
    """(key, set-up outputs, trace) of every workload's, the CTA run's, the
    min-sum run's, the hypergraph run's, the dense Schur run's and the
    exact and Schur divergence runs' solves, then (key, oracle outputs, None) of the oracle
    problems; a key is ``<run set>/seed<n>`` (the divergence runs and the
    oracle problems add ``/<run>`` and ``/<path>``)."""
    workloads = import_workloads(root)
    for wl in workloads.WORKLOADS.values():
        for seed in seeds:
            inputs = wl.generate(seed, **(wl.toy_size if toy else wl.size))
            with captured_setup() as outputs:
                solve = wl.setup(inputs).solve
            yield f"{wl.name}/seed{seed}", outputs, solve()
    for name, setup, size in (("cta_plin", cta_setup, CTA_TOY if toy else CTA),
                              ("minsum_tol", minsum_setup, MINSUM),
                              ("minsum_d1", minsum_setup, MINSUM_D1),
                              ("h_mp_jacobi", hyper_setup, HYPER),
                              ("schur_full", schur_full_setup, SCHUR_FULL)):
        for seed in seeds:
            with captured_setup() as outputs:
                solve = setup(seed, **size)
            yield f"{name}/seed{seed}", outputs, solve()
    for name, size in (("diverge", DIVERGE), ("diverge_d1", DIVERGE_D1),
                       ("schur_diverge", {**DIVERGE, "schur": True})):
        for seed in seeds:
            for run, solve in diverge_solves(seed, **size).items():
                yield f"{name}/seed{seed}/{run}", {}, solve()
    from mpjacobi import objective
    for seed in seeds:
        for path, q in oracle_problems(seed).items():
            outputs = _oracle_outputs(objective.global_solve_oracle(q))
            yield f"oracle/seed{seed}/{path}", outputs, None


def dump(root, seeds, toy=False):
    """{name: array} over every run and seed."""
    arrays = {}
    for key, outputs, trace in runs(root, seeds, toy):
        if trace is not None:
            for name in FIELDS:
                arrays[f"{key}/{name}"] = np.asarray(getattr(trace, name))
            H, h, _ = trace.monitor
            arrays[f"{key}/monitor_H"] = np.asarray(H)
            arrays[f"{key}/monitor_h"] = np.asarray(h)
        for name, value in outputs.items():
            arrays[f"{key}/{name}"] = value
    return arrays


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def differing(a, b):
    """Names of the arrays whose bits differ between the dumps, or that
    only one of them has."""
    return sorted(name for name in set(a) | set(b)
                  if name not in a or name not in b or not same_bits(a[name], b[name]))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write a dump (.npz)")
    mode.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout whose src and perfbench to run")
    ap.add_argument("--seeds", type=seed_range, default=range(1, 11),
                    help="seed range, e.g. 1-10")
    ap.add_argument("--toy", action="store_true",
                    help="the workloads' self-test sizes")
    args = ap.parse_args(argv)
    if args.out is not None:
        arrays = dump(args.root, args.seeds, args.toy)
        np.savez(args.out, **arrays)
        print(f"{len(arrays)} arrays to {args.out}")
        return 0
    with np.load(args.compare[0]) as fa, np.load(args.compare[1]) as fb:
        a, b = dict(fa), dict(fb)
    names = differing(a, b)
    for name in names:
        print(name)
    print(f"{len(names)} of {len(set(a) | set(b))} arrays differ")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())
