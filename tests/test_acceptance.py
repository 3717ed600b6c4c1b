"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line. Tolerances are pinned in the assertions.

Run with `pytest tests/test_acceptance.py -v -s` to see the status lines.
"""

import math
import time
import warnings

import numpy as np
import pytest

from mpjacobi.bench import (
    ExperimentConfig,
    cta_instance,
    kappa_sweep_instance,
    loopy_nondd_instance,
    run_experiment,
    split_toy_instance,
)
from mpjacobi.messages import SurrogateSpec
from mpjacobi.objective import (
    CtaProblem,
    QuadraticLocal,
    RowScatter,
    as_blocks,
    build_cta,
    build_laplacian_qp,
    build_random_qp,
    build_tanh_nn,
    global_solve_oracle,
    metropolis_weights,
)
from mpjacobi.rate_analysis import compute_A, estimate_constants, rate_terms, spectral_rate_oracle
from mpjacobi.solvers import (
    SolverConfig,
    _node_grads,
    _pair_grads,
    _tau_per_node,
    baseline,
    delayed_block_jacobi,
    mp_jacobi,
    mp_jacobi_surrogate,
    tree_solve,
)
from mpjacobi.splitting import (
    SplitMap,
    SplitQuadraticView,
    apply_split,
    split_surrogate_components,
    validate_split_partition,
)
from mpjacobi.topology import (
    Graph,
    generate_partition,
    generate_topology,
    validate_tree_partition,
)
from mpjacobi.verify import (
    check_descent_lemmas,
    check_split_consistency,
    check_sublinear_convex,
    check_sublinear_nonconvex,
)


def _status(criterion, passed, detail=""):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    return passed


def random_valid_instance(seed, kappa=30.0):
    """Random strongly convex quadratic (m <= 12, d <= 3) with a tree
    partition satisfying the single-gateway condition."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(6, 13))
    d = int(rng.integers(1, 4))
    g = generate_topology("ring", m=m)
    if rng.random() < 0.5 and m % 2 == 0:
        part = generate_partition("ring_P2", g, D=1)
    else:
        D = int(rng.integers(1, min(4, m - 3)))
        part = generate_partition("ring_P1", g, D=D)
    q = build_random_qp(g, d, kappa, seed)
    assert part.nonoverlap_ok
    return q, part


# -------------------------------------------------------------------- 1


def test_criterion_1_prop31_equivalence():
    """Per-round match of the message solver and the delayed block-Jacobi
    reference on 20 random instances, sup-norm <= 1e-10, runtime < 10 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        q, part = random_valid_instance(seed)
        rng = np.random.default_rng(1000 + seed)
        x0 = rng.standard_normal((q.m, q.d))
        tau = 1.0 / part.p
        cfg_a = SolverConfig(tau=tau, max_rounds=25, tol_x=0.0,
                             message_init="warm_start", monitor=True)
        cfg_b = SolverConfig(tau=tau, max_rounds=25, tol_x=0.0, monitor=True)
        ta = mp_jacobi(q, part, cfg_a, x0=x0)
        tb = delayed_block_jacobi(q, part, cfg_b, x0=x0)
        for xa, xb in zip(ta.x_history, tb.x_history):
            worst = max(worst, float(np.max(np.abs(xa - xb))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert _status("1 prop31-equivalence", ok,
                   f"worst gap {worst:.2e}, {elapsed:.1f}s"), worst


# -------------------------------------------------------------------- 2


def _random_tree(m, seed):
    rng = np.random.default_rng(seed)
    return Graph(m, {(int(rng.integers(0, i)), i) for i in range(1, m)})


def test_criterion_2_tree_finite_termination():
    """Whole-graph tree, p=1, tau=1: exact optimum within diam(G) message
    rounds (= diam+1 synchronous iterate updates from zero-initialized
    messages) on paths, stars and random trees up to m=50."""
    cases = []
    cases.append(Graph(30, {(i, i + 1) for i in range(29)}))      # path
    cases.append(Graph(41, {(0, i) for i in range(1, 41)}))       # star
    cases += [_random_tree(50, s) for s in (0, 1)]
    cases.append(_random_tree(17, 2))
    ok = True
    for g in cases:
        q = build_random_qp(g, 1, 25.0, g.m)
        part = validate_tree_partition(g, [list(range(g.m))])
        x_star, phi_star = global_solve_oracle(q)
        diam = g.diameter()
        cfg = SolverConfig(tau=1.0, max_rounds=diam + 1, tol_x=0.0)
        tr = mp_jacobi(q, part, cfg, x0=np.zeros((g.m, 1)))
        scale = max(1.0, abs(phi_star))
        gap = q.value(tr.x_final) - phi_star
        ok &= gap <= 1e-12 * scale
        # the sweep solver is exact in one forward-backward pass
        ok &= bool(np.max(np.abs(tree_solve(q, g) - x_star)) <= 1e-8)
    assert _status("2 tree-finite-termination", ok)


# -------------------------------------------------------------------- 3


def test_criterion_3_theorem_rate_upper_bound():
    """Spectral oracle never exceeds the theorem factor (slack 1e-9) under
    the theorem stepsize, and the observed long-run contraction of the
    objective gap stays below the theorem factor (slack 1e-3)."""
    worst_spec = -np.inf
    worst_emp = -np.inf
    for seed in range(20):
        q, part = random_valid_instance(seed, kappa=40.0)
        if (part.max_diameter + 1) * q.m * q.d > 5000:
            continue
        inputs = estimate_constants(q, part)
        rep = rate_terms(part, inputs)
        rho_emp = spectral_rate_oracle(q, part, rep.tau_max)
        worst_spec = max(worst_spec, rho_emp - rep.rho)
        if seed < 5:
            xs, phis = global_solve_oracle(q)
            cfg = SolverConfig(tau=rep.tau_max, max_rounds=600, tol_x=0.0,
                               track_oracle=(xs, phis))
            tr = mp_jacobi(q, part, cfg)
            gaps = np.array(tr.phi_gap)
            usable = np.nonzero(gaps > 1e-13 * max(gaps[0], 1.0))[0]
            hi = int(usable[-1])
            lo = min(100, hi // 2)
            contraction = (gaps[hi] / gaps[lo]) ** (1.0 / (hi - lo))
            worst_emp = max(worst_emp, contraction - rep.rho)
    ok = worst_spec <= 1e-9 and worst_emp <= 1e-3
    assert _status("3 theorem-rate-upper-bound", ok,
                   f"spec slack {worst_spec:.2e}, trace slack {worst_emp:.2e}")


# -------------------------------------------------------------------- 4


def test_criterion_4_descent_monitors():
    """Descent, sufficient-decrease and delay-gap inequalities hold with
    zero violations (tolerance 1e-9) across 10 monitored runs."""
    worst = -np.inf
    for seed in range(10):
        q, part = random_valid_instance(100 + seed, kappa=25.0)
        rep = check_descent_lemmas(q, part, rounds=20, seed=seed)
        worst = max(worst, rep.worst_violation if not rep.passed else
                    rep.worst_violation)
        assert rep.passed, f"seed {seed}: {rep}"
    assert _status("4 descent-monitors", True, f"worst violation {worst:.2e}")


# -------------------------------------------------------------------- 5


def test_criterion_5_minsum_failure_vs_solver():
    """Plain min-sum blows up (>= 1e3 x) on a loopy non-diagonally-dominant
    quadratic while the message solver reaches 1e-6 within 5e4 rounds."""
    g, q = loopy_nondd_instance(seed=0)
    H, _ = q.assemble()
    assert np.linalg.eigvalsh(H)[0] > 0
    assert any(abs(H[i, i]) < np.sum(np.abs(H[i])) - abs(H[i, i])
               for i in range(q.m))
    xs, phis = global_solve_oracle(q)
    tm = baseline("minsum", q, {"max_rounds": 400, "oracle": (xs, phis)})
    blowup = max(tm.dist_to_opt[1:]) / tm.dist_to_opt[1]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        part = validate_tree_partition(g, [[0, 1, 2], [3], [4], [5]])
    cfg = SolverConfig(tau=1.0 / part.p, max_rounds=50000, tol_x=0.0,
                       track_oracle=(xs, phis))
    tr = mp_jacobi(q, part, cfg)
    reached = tr.iterations_to("dist_to_opt", 1e-6)
    ok = blowup >= 1e3 and reached is not None and reached <= 50000
    assert _status("5 minsum-failure", ok,
                   f"blowup {blowup:.1e}, solver rounds {reached}")


# -------------------------------------------------------------------- 6


def test_criterion_6_ring_scaling_exponents():
    """Fitted iteration exponents over m=(D+1)ceil(D^1.5), D=2..7:
    partition-2 exponent <= partition-1 exponent - 0.15 and within
    0.6 +/- 0.2. Runtime < 5 min."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(experiment="ring_scaling", max_rounds=200000,
                           tol=1e-3)
    res = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    s1 = res.extras["exponent_p1"]
    s2 = res.extras["exponent_p2"]
    ok = (s2 <= s1 - 0.15) and (0.4 <= s2 <= 0.8) and elapsed < 300.0
    assert _status("6 ring-scaling", ok,
                   f"P1 {s1:.3f}, P2 {s2:.3f}, {elapsed:.0f}s")


# -------------------------------------------------------------------- 7


def test_criterion_7_p_sweep_monotone():
    """Iteration count non-increasing as p decreases across >= 4 partition
    points with D, the coupling aggregate and kappa held fixed."""
    cfg = ExperimentConfig(experiment="p_sweep",
                           params={"triples": [2, 5, 8, 12]},
                           max_rounds=30000)
    res = run_experiment(cfg)
    ps = res.extras["ps"]
    iters = res.extras["iters"]
    ok = (len(ps) >= 4 and ps == sorted(ps, reverse=True)
          and all(iters[k + 1] <= iters[k] for k in range(len(iters) - 1)))
    assert _status("7 p-sweep-monotone", ok, f"p={ps}, iters={iters}")


# -------------------------------------------------------------------- 8


def test_criterion_8_kappa_insensitivity():
    """With the delay/diameter term active, iteration counts across
    kappa in {50, 100, 200, 400} vary by < 25%."""
    cfg = ExperimentConfig(experiment="kappa_sweep", tol=1e-6,
                           params={"rounds": 1500})
    res = run_experiment(cfg)
    regimes = res.extras["regimes"]
    iters = res.extras["iters"]
    ok = all(r == "II" for r in regimes.values())
    spread = (max(iters) - min(iters)) / min(iters)
    ok = ok and spread < 0.25
    assert _status("8 kappa-insensitivity", ok,
                   f"iters {iters}, spread {spread:.3f}, regimes {set(regimes.values())}")


# -------------------------------------------------------------------- 9


def test_criterion_9a_exact_family_bitwise():
    q, part = random_valid_instance(7)
    x0 = np.random.default_rng(7).standard_normal((q.m, q.d))
    cfg_s = SolverConfig(tau=0.2, max_rounds=40, tol_x=0.0,
                         surrogate=SurrogateSpec(family="exact"))
    cfg_e = SolverConfig(tau=0.2, max_rounds=40, tol_x=0.0)
    ta = mp_jacobi_surrogate(q, part, cfg_s, x0=x0)
    tb = mp_jacobi(q, part, cfg_e, x0=x0)
    ok = np.array_equal(ta.x_final, tb.x_final)
    assert _status("9a exact-family-bitwise", ok)


def delayed_gradient_reference(problem, partition, config, x0, alpha):
    """Explicit gradient-delayed recursion equivalent to the first-order
    family: intra-cluster coupling gradients are read one round late (zero
    before the first round, matching zero message initialization).
    """
    m, d = problem.m, problem.d
    x = np.zeros((m, d)) if x0 is None else as_blocks(x0, m, d).copy()
    x_prev = None
    tau_node = _tau_per_node(problem, partition, config)
    out_i, out_k = np.array([(i, k) for i in range(m) for k in partition.n_out[i]],
                            dtype=int).reshape(-1, 2).T
    in_i, in_j = np.array([(i, j) for i in range(m) for j in partition.n_in[i]],
                          dtype=int).reshape(-1, 2).T
    frozen = _pair_grads(problem, out_i, out_k)
    delayed = _pair_grads(problem, in_i, in_j)
    at_out = RowScatter(out_i, m)
    at_both = RowScatter(np.concatenate([out_i, in_i]), m)
    iterates = [x.copy()]
    for _ in range(config.max_rounds):
        g = _node_grads(problem, x)
        if x_prev is None:
            g = at_out(frozen(x), start=g)
        else:
            g = at_both(np.concatenate([frozen(x), delayed(x_prev)]), start=g)
        xhat = x - alpha * g
        x_prev = x
        x = x + tau_node[:, None] * (xhat - x)
        iterates.append(x.copy())
    return iterates


def test_criterion_9b_first_order_equals_delayed_gradient():
    q, part = random_valid_instance(8)
    alpha = 0.005
    x0 = np.random.default_rng(8).standard_normal((q.m, q.d))
    cfg = SolverConfig(tau=1.0 / part.p, max_rounds=15, tol_x=0.0,
                       surrogate=SurrogateSpec(family="first_order", alpha=alpha))
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    ref = delayed_gradient_reference(q, part,
                                     SolverConfig(tau=1.0 / part.p,
                                                  max_rounds=15), x0, alpha)
    gap = float(np.max(np.abs(tr.x_final - ref[tr.rounds])))
    assert _status("9b first-order-delayed-gradient", gap <= 1e-12,
                   f"gap {gap:.2e}"), gap


def test_criterion_9c_partial_linearization_cta():
    """Partial linearization on the lifted consensus problem (gamma=1e-3):
    final gradient norm <= 1e-8 with strictly fewer vectors sent than the
    exact dense-message run of the same quality."""
    g, W, prob = cta_instance(m=8, d=2, gamma=1e-3, seed=0)
    q = prob.to_quadratic()
    xs, phis = global_solve_oracle(q)
    part = generate_partition("ring_P2", g, D=1)
    qmax = max(float(np.linalg.eigvalsh(f.Q)[-1]) for f in prob.locals_)
    spec = SurrogateSpec(family="partial_linearization", Q=qmax + 0.1)
    cfg_s = SolverConfig(tau=1.0, max_rounds=200000, tol_x=0.0,
                         tol_grad=1e-8, surrogate=spec,
                         track_oracle=(xs, phis))
    trs = mp_jacobi_surrogate(prob, part, cfg_s)
    grad_s = float(np.linalg.norm(prob.grad(trs.x_final)))
    cfg_e = SolverConfig(tau=1.0, max_rounds=200000, tol_x=0.0,
                         tol_grad=1e-8, track_oracle=(xs, phis))
    tre = mp_jacobi(q, part, cfg_e)
    ok = (trs.converged and grad_s <= 1e-8
          and trs.vectors_sent[-1] < tre.vectors_sent[-1])
    assert _status(
        "9c partial-linearization-cta", ok,
        f"grad {grad_s:.2e}, vectors {trs.vectors_sent[-1]} < {tre.vectors_sent[-1]}")


# -------------------------------------------------------------------- 10


def test_criterion_10_diagonal_preservation():
    """Diagonal node curvatures and diagonal initial messages keep every
    message curvature exactly diagonal for 100 rounds (structured-quadratic
    and partial-linearization families)."""
    q, part = random_valid_instance(9)
    m, d = q.m, q.d
    if d == 1:
        q, part = random_valid_instance(12)
        m, d = q.m, q.d
    assert d > 1
    spec = SurrogateSpec(
        family="schur_quadratic",
        Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.2 * np.eye(d)
                    for i in range(m)]),
        M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair})
    cfg = SolverConfig(tau=0.1, max_rounds=100, tol_x=0.0, surrogate=spec,
                       exact_variable_update=True)
    tr = mp_jacobi_surrogate(q, part, cfg)
    H = tr.monitor[0]
    ok = not np.any(H - H * np.eye(d))

    gg, WW, prob = cta_instance(m=8, d=2, gamma=0.01, seed=1)
    part2 = generate_partition("ring_P2", gg, D=1)
    spec2 = SurrogateSpec(family="partial_linearization", Q=2.0)
    cfg2 = SolverConfig(tau=0.25, max_rounds=100, tol_x=0.0, surrogate=spec2)
    tr2 = mp_jacobi_surrogate(prob, part2, cfg2)
    H_msgs = tr2.monitor[0]
    off = H_msgs - H_msgs * np.eye(2)
    ok &= not np.any(off)
    assert _status("10 diagonal-preservation", ok)


# -------------------------------------------------------------------- 11


def test_criterion_11_splitting():
    """Toy 4-node instance: gradient-sum identity <= 1e-8 for all three
    split families and the split solver's limit is stationary
    (||grad Phi|| <= 1e-8); both splitting strategies converge on the
    toy and lifted-hypergraph instances, ordering reported."""
    hg, q = split_toy_instance(seed=0)
    ok = True
    details = []
    for family, supports, keep in (
            ("pairwise", ((1, 3), (1, 2), (2, 3)), 1),
            ("two_component", ((1, 2), (2, 3)), 2),
            ("singleton", ((1,), (2,), (3,)), 1)):
        split = apply_split(hg, SplitMap({1: supports}))
        comps = split_surrogate_components(split, {1: family})
        view = SplitQuadraticView(q, split, comps)
        rep = check_split_consistency(view, samples=50, seed=3)
        ok &= rep.passed and rep.worst_violation <= 1e-8
        spart = validate_split_partition(split, [[0, 1, 2, 3]], [[0, keep]])
        cfg = SolverConfig(tau=0.45, max_rounds=20000, tol_x=0.0,
                           tol_grad=1e-10)
        from mpjacobi.solvers import h_mp_jacobi_split

        tr = h_mp_jacobi_split(q, view, spart, cfg)
        gnorm = float(np.linalg.norm(q.grad(tr.x_final)))
        g0 = float(np.linalg.norm(q.grad(np.zeros((4, 1)))))
        ok &= gnorm <= 1e-8 * (1 + g0)
        details.append(f"{family}: grad {gnorm:.1e}")

    res_toy = run_experiment(ExperimentConfig(experiment="split_toy",
                                              max_rounds=20000))
    conv_toy = {r["solver"]: r for r in res_toy.rows}
    ok &= conv_toy["split_pairwise"]["final_gap"] < 1e-6
    ok &= conv_toy["split_singleton"]["final_gap"] < 1e-6
    res_atc = run_experiment(ExperimentConfig(experiment="atc_hyper",
                                              max_rounds=30000))
    conv_atc = {r["solver"]: r for r in res_atc.rows}
    ok &= conv_atc["h_mp_jacobi_s1"]["final_gap"] < 1e-6
    ok &= conv_atc["h_mp_jacobi_s2"]["final_gap"] < 1e-6
    order_toy = res_toy.extras["ordering"]
    order_atc = ("s1" if conv_atc["h_mp_jacobi_s1"]["iters"]
                 <= conv_atc["h_mp_jacobi_s2"]["iters"] else "s2",)
    assert _status("11 splitting", ok,
                   "; ".join(details) + f"; toy order {order_toy}, "
                   f"lifted-hypergraph faster: {order_atc[0]}")


# -------------------------------------------------------------------- 12


def test_criterion_12a_sublinear_convex():
    """Merely convex graph-signal instance satisfies the 1/nu bound past
    the theorem burn-in."""
    m = 8
    g = generate_topology("ring", m=m)
    w = np.zeros((m, m))
    for (i, j) in g.edges:
        w[i, j] = w[j, i] = 1.0
    rng = np.random.default_rng(21)
    b = rng.standard_normal(m)
    b -= b.mean()
    q = build_laplacian_qp(w, b)
    part = generate_partition("ring_P2", g, D=1)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    spec = SurrogateSpec(family="first_order", alpha=0.5 / L)
    inputs = estimate_constants(q, part, surrogate=spec)
    x_star, phi_star = global_solve_oracle(q)
    A_r, A_J, At_r = compute_A(part, inputs, surrogate=True)
    mu_t = min(inputs.mu_tilde_r)
    L_t_min = min(inputs.L_tilde_r)
    Lmax = max(inputs.L_r)
    sigma = max(inputs.sigma_r)
    cmax = max(len(c) for c in part.clusters)
    D = part.max_diameter
    denom = A_J + max(At_r)
    tau = min(1.0 / part.p,
              math.sqrt(mu_t / (16 * (D + 1) * denom)),
              L_t_min / ((Lmax + (sigma + 1) * (D + 1)) * cmax))
    x0 = np.zeros((m, 1))
    cfg = SolverConfig(tau=tau, max_rounds=4000, tol_x=0.0, surrogate=spec,
                       track_oracle=(x_star, phi_star))
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    rep = check_sublinear_convex(q, part, spec, None, tau, tr, x0,
                                 x_star, phi_star, inputs)
    assert _status("12a sublinear-convex", rep.passed,
                   f"burn-in {rep.witness.get('burn_in')}, "
                   f"worst slack {rep.worst_violation:.2e}"), str(rep)


def test_criterion_12b_sublinear_nonconvex():
    """Nonconvex one-layer-network consensus instance satisfies the
    gradient-window bound for all nu <= 1e4."""
    m = 6
    g = generate_topology("ring", m=m)
    W = metropolis_weights(g, gamma=0.05)
    rng = np.random.default_rng(22)
    d = 2
    samples = [(rng.standard_normal((5, d)), rng.uniform(-0.8, 0.8, size=5))
               for _ in range(m)]
    locs = build_tanh_nn(samples)
    prob = build_cta(locs, W, d=d)
    # analytic curvature bound of the local losses: |phi''| <= 3 + 2|b|
    qbound = max(float(np.mean(np.sum(A * A, axis=1) * (3 + 2 * np.abs(b))))
                 for (A, b) in samples)
    spec = SurrogateSpec(family="partial_linearization", Q=qbound)
    part = generate_partition("ring_P2", g, D=1)
    # surrogate constants do not involve the local losses (linearized);
    # compute them on the quadratic coupling skeleton
    zero_locs = [QuadraticLocal(np.zeros((d, d)), np.zeros(d)) for _ in range(m)]
    skel = build_cta(zero_locs, W).to_quadratic()
    inputs = estimate_constants(skel, part, surrogate=spec,
                                cta=build_cta(zero_locs, W))
    A_r, A_J, At_r = compute_A(part, inputs, surrogate=True)
    mu_t = min(inputs.mu_tilde_r)
    L_t = max(inputs.L_tilde_r)
    D = part.max_diameter
    denom = A_J + max(At_r)
    tau = min(1.0 / part.p, math.sqrt(mu_t / (8 * max(D, 1) * denom)))
    x0 = np.zeros((m, d))
    rounds = 10000 + D + 1
    cfg = SolverConfig(tau=tau, max_rounds=rounds, tol_x=0.0, surrogate=spec)
    tr = mp_jacobi_surrogate(prob, part, cfg, x0=x0)
    # best-found objective value is an upper bound on the infimum, making
    # the certificate strictly harder than with the true optimum
    phi_best = prob.value(tr.x_final)
    rep = check_sublinear_nonconvex(prob, tr.grad_norm, tau, L_t,
                                    prob.value(x0), phi_best, D)
    assert _status("12b sublinear-nonconvex", rep.passed,
                   f"worst slack {rep.worst_violation:.2e}"), str(rep)
