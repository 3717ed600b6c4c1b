"""Command-line entry points: solve, analyze-rate, verify, bench."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bench import ExperimentConfig, run_experiment
from .objective import global_solve_oracle, problem_from_json
from .rate_analysis import estimate_constants, rate_terms
from .solvers import SolverConfig, mp_jacobi, select_stepsize
from .topology import read_graph, read_partition_clusters, validate_tree_partition
from .verify import (
    check_descent_lemmas,
    check_equivalence_prop31,
    check_gradient,
)


def _load_problem_partition(args):
    problem = problem_from_json(Path(args.problem).read_text())
    graph = read_graph(Path(args.graph).read_text())
    clusters = read_partition_clusters(Path(args.partition).read_text())
    partition = validate_tree_partition(graph, clusters)
    return problem, partition


def _cmd_solve(args):
    problem, partition = _load_problem_partition(args)
    if args.tau is not None:
        tau = args.tau
    else:
        inputs = estimate_constants(problem, partition)
        tau, rho = select_stepsize(partition, inputs, mode="uniform_theorem")
        print(f"# theorem stepsize tau={tau:.6g} rho={rho:.8f}")
    oracle = None
    if args.track_optimum:
        oracle = global_solve_oracle(problem)
    cfg = SolverConfig(tau=tau, max_rounds=args.max_rounds, tol_x=args.tol,
                       track_oracle=oracle)
    trace = mp_jacobi(problem, partition, cfg)
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
        (out / "trace.csv").write_text(trace.to_csv())
        np.savetxt(out / "x_final.txt", trace.x_final)
        print(f"wrote {out}/trace.csv and {out}/x_final.txt")
    print(f"rounds={trace.rounds} converged={trace.converged} "
          f"grad_norm={trace.grad_norm[-1]:.3e}")
    return 0


def _cmd_analyze_rate(args):
    problem, partition = _load_problem_partition(args)
    inputs = estimate_constants(problem, partition)
    rep = rate_terms(partition, inputs)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
        return 0
    print(f"clusters p         : {partition.p}")
    print(f"max diameter D     : {partition.max_diameter}")
    print(f"kappa              : {inputs.kappa:.6g}")
    print(f"term I   (1/p)     : {rep.term_I:.6g}")
    print(f"term II  (2k/(2D+1)): {rep.term_II:.6g}")
    print(f"term III (coupling) : {rep.term_III:.6g}")
    print(f"active regime      : {rep.regime}")
    print(f"tau_max            : {rep.tau_max:.6g}")
    print(f"rho                : {rep.rho:.10f}")
    print(f"A_J                : {rep.A_J:.6g}")
    return 0


def _cmd_verify(args):
    problem, partition = _load_problem_partition(args)
    seeds = tuple(range(args.seeds))
    reports = [
        check_gradient(problem, seed=args.seed),
        check_equivalence_prop31(problem, partition, seeds=seeds,
                                 rounds=args.rounds),
        check_descent_lemmas(problem, partition, rounds=args.rounds,
                             seed=args.seed),
    ]
    ok = True
    for rep in reports:
        print(rep.to_json())
        ok &= rep.passed
    return 0 if ok else 1


def _cmd_bench(args):
    cfg = ExperimentConfig.from_json(Path(args.config).read_text())
    if args.seed is not None:
        cfg.seed = args.seed
    if args.tol is not None:
        cfg.tol = args.tol
    if args.max_rounds is not None:
        cfg.max_rounds = args.max_rounds
    out = args.out or cfg.out_dir or f"bench_{cfg.experiment}"
    res = run_experiment(cfg, out_dir=out)
    print(res.results_csv(), end="")
    print(f"# wrote {out}/results.csv", file=sys.stderr)
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="mpjacobi",
                                description="message-passing block-Jacobi toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", required=True, help="problem JSON file")
    common.add_argument("--graph", required=True, help="graph text file")
    common.add_argument("--partition", required=True, help="partition text file")
    common.add_argument("--seed", type=int, default=0)

    ps = sub.add_parser("solve", parents=[common], help="run the message solver")
    ps.add_argument("--tau", type=float, default=None,
                    help="damping (default: theorem stepsize)")
    ps.add_argument("--tol", type=float, default=1e-12)
    ps.add_argument("--max-rounds", type=int, default=100000)
    ps.add_argument("--track-optimum", action="store_true")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=_cmd_solve)

    pa = sub.add_parser("analyze-rate", parents=[common],
                        help="print the three-term rate report")
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(fn=_cmd_analyze_rate)

    pv = sub.add_parser("verify", parents=[common],
                        help="run the oracle checks (JSON lines)")
    pv.add_argument("--rounds", type=int, default=25)
    pv.add_argument("--seeds", type=int, default=3)
    pv.set_defaults(fn=_cmd_verify)

    pb = sub.add_parser("bench", help="run a benchmark experiment")
    pb.add_argument("--config", required=True, help="experiment config JSON")
    pb.add_argument("--seed", type=int, default=None)
    pb.add_argument("--tol", type=float, default=None)
    pb.add_argument("--max-rounds", type=int, default=None)
    pb.add_argument("--out", default=None)
    pb.set_defaults(fn=_cmd_bench)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
