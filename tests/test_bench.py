import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mpjacobi
from mpjacobi.bench import (
    MAX_D,
    MAX_M,
    BenchError,
    ExperimentConfig,
    ExperimentResult,
    InsufficientData,
    fit_scaling_exponent,
    path_triples_partition,
    plot_traces_svg,
    run_experiment,
    tune_tau,
    two_cliques_instance,
)
from mpjacobi.objective import QuadraticObjective, build_random_qp, problem_to_json
from mpjacobi.solvers import NonConvergent, RunTrace
from mpjacobi.topology import generate_partition, generate_topology, write_graph, write_partition


def test_config_roundtrip_and_hash():
    cfg = ExperimentConfig(experiment="p_sweep", params={"triples": [2, 4]},
                           seed=3)
    cfg2 = ExperimentConfig.from_json(cfg.to_json())
    assert cfg2.experiment == "p_sweep" and cfg2.seed == 3
    assert cfg.digest() == cfg2.digest()
    with pytest.raises(Exception):
        ExperimentConfig(experiment="nope")


def test_tune_tau_returns_the_winners_wall_time():
    # tau = 0.5 reaches the tolerance first and is the only slow run
    def run_fn(tau):
        time.sleep(0.08 if tau == 0.5 else 0.01)
        rounds = 3 if tau == 0.5 else 6
        return RunTrace(dist_to_opt=[1.0] * rounds + [0.0])

    tau, trace, wall_ms = tune_tau(run_fn, tol=1e-6, max_rounds=10)
    assert tau == 0.5 and trace.iterations_to("dist_to_opt", 1e-6) == 3
    assert 80.0 <= wall_ms < 2000.0


def _converging_below(tau_cap, exc):
    """run_fn that raises ``exc`` at tau >= tau_cap and below it converges
    in more rounds the smaller tau is."""
    def run_fn(tau):
        if tau >= tau_cap:
            raise exc
        return RunTrace(dist_to_opt=[1.0] * int(10 / tau) + [0.0])
    return run_fn


def test_tune_tau_skips_typed_solver_failures():
    tau, trace, _ = tune_tau(_converging_below(0.5, NonConvergent("stalled")),
                             tol=1e-6, max_rounds=100)
    assert tau == 0.35 and trace.iterations_to("dist_to_opt", 1e-6) == 28


def test_tune_tau_propagates_other_exceptions():
    with pytest.raises(TypeError, match="a defect"):
        tune_tau(_converging_below(0.5, TypeError("a defect")), tol=1e-6, max_rounds=100)


@pytest.mark.parametrize("m, d, refused", [
    (MAX_M + 1, 1, True),       # one node over the cap on m
    (1, MAX_D + 1, True),       # one coordinate over the cap on d
    (MAX_M, 1, False),          # both at their caps run
    (1, MAX_D, False),
])
def test_experiment_result_enforces_the_size_caps(m, d, refused):
    q = QuadraticObjective(m, d, np.zeros((m, d, d)), np.zeros((m, d)))
    res = ExperimentResult(ExperimentConfig(experiment="p_sweep"))
    solves = []

    def solve(problem, tau=1.0):
        solves.append(tau)
        return RunTrace(dist_to_opt=[0.0])

    for run in (lambda: res.run("s", solve, q),
                lambda: res.tuned("s", q, lambda tau: solve(q, tau), tau=0.5)):
        if refused:
            with pytest.raises(BenchError, match="exceeds the caps"):
                run()
        else:
            run()
    assert solves == ([] if refused else [1.0, 0.5])


def test_bench_raises_typed_errors():
    # no stepsize on the grid reaches the tolerance
    with pytest.raises(BenchError, match="no stepsize"):
        tune_tau(lambda tau: RunTrace(dist_to_opt=[1.0, 0.5]), tol=1e-6, max_rounds=10)
    # 42 path nodes hold 12 triples between the spare singletons at the ends
    g, _ = two_cliques_instance()
    with pytest.raises(BenchError, match="too many triples"):
        path_triples_partition(g, 7, 42, 13)


def test_fit_scaling_exponent():
    sizes = [10, 20, 40, 80]
    counts = [int(5 * s ** 0.6) for s in sizes]
    slope, _ = fit_scaling_exponent(sizes, counts)
    assert slope == pytest.approx(0.6, abs=0.02)
    with pytest.raises(InsufficientData):
        fit_scaling_exponent([10], [5])
    with pytest.raises(InsufficientData):
        fit_scaling_exponent([10, 20, 40, 80], [5, None, None, 6])


def test_minsum_failure_experiment(tmp_path):
    cfg = ExperimentConfig(experiment="minsum_failure", max_rounds=20000)
    res = run_experiment(cfg, out_dir=tmp_path)
    rows = {r["solver"]: r for r in res.rows}
    assert rows["minsum"]["blowup"] > 1e3
    assert rows["mp_jacobi"]["final_gap"] < 1e-6
    # deterministic outputs: rerun matches byte for byte
    csv1 = (tmp_path / "results.csv").read_text()
    res2 = run_experiment(cfg, out_dir=tmp_path)
    csv2 = (tmp_path / "results.csv").read_text()
    assert _strip_wall(csv1) == _strip_wall(csv2)
    assert (tmp_path / "traces.svg").exists()
    assert (tmp_path / "trace_mp_jacobi.csv").read_text().startswith("round,")
    # every row carries the config hash
    for line in csv1.strip().splitlines()[1:]:
        assert cfg.digest() in line


def _strip_wall(csv_text):
    """Drop the wall-clock column before comparing."""
    lines = csv_text.strip().splitlines()
    cols = lines[0].split(",")
    keep = [i for i, c in enumerate(cols) if c != "wall_ms"]
    return "\n".join(",".join(ln.split(",")[i] for i in keep) for ln in lines)


def test_p_sweep_monotone():
    cfg = ExperimentConfig(experiment="p_sweep",
                           params={"triples": [2, 6, 12]}, max_rounds=20000)
    res = run_experiment(cfg)
    ps = res.extras["ps"]
    iters = res.extras["iters"]
    assert ps == sorted(ps, reverse=True)
    assert all(iters[k + 1] <= iters[k] for k in range(len(iters) - 1))


def test_plot_svg_smoke():
    from mpjacobi.solvers import RunTrace

    tr = RunTrace()
    tr.dist_to_opt = [1.0, 0.5, 0.25, 0.125]
    svg = plot_traces_svg({"run": tr})
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_end_to_end(tmp_path):
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 25.0, 0)
    part = generate_partition("ring_P2", g, D=1)
    (tmp_path / "problem.json").write_text(problem_to_json(q))
    (tmp_path / "graph.txt").write_text(write_graph(g))
    (tmp_path / "partition.txt").write_text(write_partition(part))

    # The child runs from tmp_path, where a relative PYTHONPATH entry such
    # as "src" no longer resolves; put the absolute directory of the
    # package this process imported first, so the CLI runs the same code.
    env = dict(os.environ)
    pkg_root = str(Path(mpjacobi.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)

    def run(*cmd):
        return subprocess.run([sys.executable, "-m", "mpjacobi.cli", *cmd],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)

    base = ["--problem", "problem.json", "--graph", "graph.txt",
            "--partition", "partition.txt"]
    r = run("analyze-rate", *base, "--json")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["regime"] in ("I", "II", "III")

    r2 = run("solve", *base, "--max-rounds", "2000", "--track-optimum",
             "--out", "solved")
    assert r2.returncode == 0, r2.stderr
    assert (tmp_path / "solved" / "trace.csv").exists()

    r3 = run("verify", *base, "--rounds", "15", "--seeds", "2")
    assert r3.returncode == 0, r3.stdout + r3.stderr
    lines = [json.loads(ln) for ln in r3.stdout.strip().splitlines()]
    assert all(rec["passed"] for rec in lines)
    assert sorted(rec["check"] for rec in lines) == [
        "descent_lemmas", "gradient_fd", "prop31_equivalence"]

    cfg = ExperimentConfig(experiment="minsum_failure", max_rounds=20000)
    (tmp_path / "bench.json").write_text(cfg.to_json())
    r4 = run("bench", "--config", "bench.json", "--out", "benchout")
    assert r4.returncode == 0, r4.stderr
    assert (tmp_path / "benchout" / "results.csv").exists()


def test_aj_sweep_rescales_on_a_new_objective():
    # the coupling stacks are frozen, so the sweep builds a new objective
    # per scale; A_J and the round counts are those of in-place rescaling
    res = run_experiment(ExperimentConfig(experiment="aj_sweep"))
    assert res.extras["A_J"] == [0.188083711468686, 0.752334845874744,
                                 3.009339383498976]
    assert res.extras["iters"] == [787, 799, 1056]


ROW_COLUMNS = {"experiment", "solver", "m", "d", "seed", "iters", "final_gap",
               "vectors_sent", "wall_ms", "config"}

# experiment -> (toy params, {solver: its own row columns}, (m, d), the
# claim the experiment exists to show, on the rows by solver)
TOY_RUNS = {
    "qp_compare": (
        {"m": 8, "d": 2, "kappa": 50},
        {"mp_jacobi": {"tau"}, "mp_jacobi_surrogate": {"tau"}, "jacobi": {"tau"},
         "block_jacobi_central": {"tau"}, "gradient_descent": set()}, (8, 2),
        # 158 rounds against 294 and 776 at seed 0
        lambda r: r["mp_jacobi"]["iters"] < r["jacobi"]["iters"]
        < r["gradient_descent"]["iters"]),
    "cta_compare": (
        {"m": 8, "d": 2, "gamma": 0.05, "tau": 0.5},
        {"mp_jacobi": {"tau"}, "mp_jacobi_surrogate": {"tau"}, "dgd_cta": set()},
        (8, 2),
        # 1,471 rounds against 1,851; dgd_cta sends fewer vectors at this size
        lambda r: r["mp_jacobi"]["iters"] < r["dgd_cta"]["iters"]),
    "dumbbell_scaling": (
        {"paths": [2], "gamma": 0.1},
        {"mp_jacobi": {"path", "tau"}, "dgd_cta": {"path"}, "dgd_atc": {"path"}},
        (12, 2),
        # 4,512 vectors against 5,566
        lambda r: r["mp_jacobi"]["vectors_sent"] < r["dgd_cta"]["vectors_sent"]),
    "hyperring": (
        {"n_edges": 4, "edge_size": 3},
        {"h_mp_jacobi": set(), "h_mp_jacobi_surrogate": set(),
         "gradient_descent": set()}, (8, 2),
        # 246 rounds, 453 with diagonalized messages, 3,238 for gradient descent
        lambda r: r["h_mp_jacobi"]["iters"] < r["h_mp_jacobi_surrogate"]["iters"]
        < r["gradient_descent"]["iters"]),
}


@pytest.mark.parametrize("name", sorted(TOY_RUNS))
def test_experiment_at_toy_size(name):
    params, columns, (m, d), claim = TOY_RUNS[name]
    cfg = ExperimentConfig(experiment=name, params=params)
    res = run_experiment(cfg)
    rows = {r["solver"]: r for r in res.rows}
    assert [r["solver"] for r in res.rows] == list(columns)
    for solver, own in columns.items():
        row = rows[solver]
        assert set(row) == ROW_COLUMNS | own
        assert (row["experiment"], row["m"], row["d"], row["seed"], row["config"]) == (
            name, m, d, 0, cfg.digest())
        assert row["final_gap"] <= cfg.tol and row["iters"] < cfg.max_rounds
    assert claim(rows)


def test_atc_hyper_times_dgd_atc_to_the_atc_minimizer():
    res = run_experiment(ExperimentConfig(experiment="atc_hyper", max_rounds=3000))
    row = {r["solver"]: r for r in res.rows}["dgd_atc"]
    # it still runs every round (tol 0), and reaches 1e-6 at round 1,397
    assert row["iters"] == 1397 and row["final_gap"] < 1e-12
