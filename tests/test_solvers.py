import math
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mpjacobi import solvers
from mpjacobi.messages import MessageError, SingularSenderCurvature, SurrogateSpec
from mpjacobi.objective import (
    CallableLocal,
    NotQuadratic,
    ObjectiveError,
    QuadraticLocal,
    QuadraticObjective,
    build_cta,
    build_random_qp,
    global_solve_oracle,
    metropolis_weights,
)
from mpjacobi.solvers import (
    IllPosedSubproblem,
    InfeasibleCondition,
    NonConvergent,
    PartitionMismatch,
    SolverConfig,
    SolverError,
    baseline,
    delayed_block_jacobi,
    h_mp_jacobi,
    h_mp_jacobi_split,
    minsum_splitting,
    mp_jacobi,
    mp_jacobi_surrogate,
    pairwise_to_hyper,
    select_stepsize,
    tree_solve,
)
from mpjacobi.topology import Graph, generate_partition, generate_topology, validate_hyper_partition, validate_tree_partition
from mpjacobi.rate_analysis import estimate_constants, three_terms
from test_acceptance import delayed_gradient_reference, random_valid_instance
from test_topology import tree_partition_cases


def ring_qp(m=6, d=1, kappa=50.0, seed=0):
    g = generate_topology("ring", m=m)
    return g, build_random_qp(g, d, kappa, seed)


def path_graph(m):
    from mpjacobi.topology import Graph

    return Graph(m, {(i, i + 1) for i in range(m - 1)})


def random_tree(m, seed):
    from mpjacobi.topology import Graph

    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, i)), i) for i in range(1, m)}
    return Graph(m, edges)


# ---------------------------------------------------------------------------


def test_all_singletons_equals_damped_jacobi():
    g, q = ring_qp(m=6, d=2, seed=1)
    part = generate_partition("all_singletons", g)
    tau = 0.2
    cfg = SolverConfig(tau=tau, max_rounds=15, tol_x=0.0)
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal((q.m, q.d))
    tr = mp_jacobi(q, part, cfg, x0=x0)
    tb = baseline("jacobi", q, {"tau": tau, "max_rounds": 15, "tol": 0.0}, x0=x0)
    assert np.allclose(tr.x_final, tb.x_final, atol=1e-12)


def test_mp_jacobi_matches_delayed_reference_per_round():
    rng = np.random.default_rng(7)
    for seed in range(6):
        m = int(rng.integers(5, 11))
        g = generate_topology("ring", m=m)
        D = int(rng.integers(1, min(3, m - 3) + 1))
        part = generate_partition("ring_P1", g, D=D)
        q = build_random_qp(g, int(rng.integers(1, 3)), 30.0, seed)
        x0 = rng.standard_normal((q.m, q.d))
        cfg_a = SolverConfig(tau=1.0 / part.p, max_rounds=25, tol_x=0.0,
                             message_init="warm_start", monitor=True)
        cfg_b = SolverConfig(tau=1.0 / part.p, max_rounds=25, tol_x=0.0,
                             monitor=True)
        ta = mp_jacobi(q, part, cfg_a, x0=x0)
        tb = delayed_block_jacobi(q, part, cfg_b, x0=x0)
        for xa, xb in zip(ta.x_history, tb.x_history):
            assert np.max(np.abs(xa - xb)) <= 1e-10


def test_whole_tree_finite_termination():
    for m, seed in ((10, 0), (25, 1), (50, 2)):
        g = random_tree(m, seed)
        q = build_random_qp(g, 1, 20.0, seed)
        part = validate_tree_partition(g, [list(range(m))])
        x_star, phi_star = global_solve_oracle(q)
        cfg = SolverConfig(tau=1.0, max_rounds=g.diameter() + 1, tol_x=0.0)
        tr = mp_jacobi(q, part, cfg, x0=np.zeros((m, 1)))
        scale = max(1.0, abs(phi_star))
        assert q.value(tr.x_final) - phi_star <= 1e-12 * scale
        # one forward-backward sweep solver is exact too
        assert np.allclose(tree_solve(q, g), x_star, atol=1e-8)


def test_exact_family_bitwise_equal():
    g, q = ring_qp(m=8, d=2, seed=3)
    part = generate_partition("ring_P2", g, D=1)
    cfg = SolverConfig(tau=0.2, max_rounds=30, tol_x=0.0,
                       surrogate=SurrogateSpec(family="exact"))
    x0 = np.random.default_rng(0).standard_normal((8, 2))
    ta = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    tb = mp_jacobi(q, part, SolverConfig(tau=0.2, max_rounds=30, tol_x=0.0), x0=x0)
    assert np.array_equal(ta.x_final, tb.x_final)


def test_first_order_equals_delayed_gradient_formula():
    g, q = ring_qp(m=6, d=2, seed=4)
    part = generate_partition("ring_P2", g, D=1)
    alpha = 0.01
    cfg = SolverConfig(tau=0.25, max_rounds=12, tol_x=0.0,
                       surrogate=SurrogateSpec(family="first_order", alpha=alpha),
                       monitor=True)
    x0 = np.random.default_rng(5).standard_normal((6, 2))
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    ref = delayed_gradient_reference(q, part, SolverConfig(tau=0.25, max_rounds=12),
                                     x0, alpha)
    assert np.max(np.abs(tr.x_final - ref[tr.rounds])) <= 1e-12


def test_first_order_fixed_point_is_stationary():
    g, q = ring_qp(m=5, d=1, seed=6)
    x_star, _ = global_solve_oracle(q)
    part = generate_partition("ring_P2", g, D=0)
    spec = SurrogateSpec(family="first_order", alpha=0.005)
    cfg = SolverConfig(tau=0.2, max_rounds=1, tol_x=0.0, surrogate=spec)
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x_star)
    # message h at the optimum reproduces a zero net step after warm rounds:
    # the first round uses zero messages, so run from the optimum with the
    # delayed reference formula instead
    ref = delayed_gradient_reference(q, part, SolverConfig(tau=0.2, max_rounds=3),
                                     x_star, 0.005)
    # after the first round the delayed gradients are evaluated at the
    # stationary point, so iterates stay there
    assert np.max(np.abs(ref[-1] - x_star)) <= 1e-8


def test_partial_linearization_converges_on_cta():
    g = generate_topology("ring", m=8)
    W = metropolis_weights(g, gamma=0.01)
    rng = np.random.default_rng(7)
    d = 2
    locs = []
    for i in range(8):
        A = rng.standard_normal((d, d))
        locs.append(QuadraticLocal(A @ A.T / 8 + 0.5 * np.eye(d),
                                   rng.standard_normal(d)))
    prob = build_cta(locs, W)
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="partial_linearization", Q=1.0)
    cfg = SolverConfig(tau=0.25, max_rounds=20000, tol_x=0.0, tol_grad=1e-9,
                       surrogate=spec)
    tr = mp_jacobi_surrogate(prob, part, cfg)
    assert tr.converged
    assert float(np.linalg.norm(prob.grad(tr.x_final))) <= 1e-8 * (
        1 + float(np.linalg.norm(prob.grad(np.zeros((8, d))))))
    # matches the true optimum of the lifted problem
    xs, _ = global_solve_oracle(prob.to_quadratic())
    assert np.max(np.abs(tr.x_final - xs)) <= 1e-6


def test_schur_family_runs_and_converges():
    g, q = ring_qp(m=6, d=2, kappa=30.0, seed=8)
    part = generate_partition("ring_P2", g, D=1)
    M_edge = {e: np.diag(np.diag(q.pair[e])) for e in q.pair}
    spec = SurrogateSpec(family="schur_quadratic",
                         Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.5 * np.eye(2)
                                     for i in range(6)]),
                         M_edge=M_edge)
    cfg = SolverConfig(tau=0.16, max_rounds=6000, tol_x=0.0, tol_grad=1e-9,
                       surrogate=spec, exact_variable_update=True)
    tr = mp_jacobi_surrogate(q, part, cfg)
    assert tr.converged
    xs, _ = global_solve_oracle(q)
    assert np.max(np.abs(tr.x_final - xs)) <= 1e-6


@given(st.integers(0, 10_000), st.integers(2, 9), st.integers(1, 3), st.booleans())
@settings(max_examples=60, deadline=None)
def test_receiver_pair_grads_are_reversed_sender_grads(seed, m, d, diagonal):
    """The Schur round reads grad_i psi_ij at the receivers as the
    sender-side gradients of the reverse edges: for every intra edge e,
    _pair_grads over (receivers, senders) equals _pair_grads over
    (senders, receivers) taken at rev[e], bit for bit, with either end of an
    edge as the sender of its even edge."""
    rng = np.random.default_rng(seed)
    pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, m, (2 * m, 2)) if a != b}
    assume(pairs)
    block = (lambda: np.diag(rng.standard_normal(d))) if diagonal else (
        lambda: rng.standard_normal((d, d)))
    q = QuadraticObjective(m, d, np.broadcast_to(np.eye(d), (m, d, d)),
                           np.zeros((m, d)), {e: block() for e in sorted(pairs)})
    groups = rng.integers(0, 3, len(pairs))
    lay = solvers._PairwiseLayout(q, np.array(
        [e for g in range(3) for e, r in zip(sorted(pairs), groups) if r == g]))
    flip = np.arange(lay.n_edges) ^ np.repeat(rng.integers(0, 2, lay.n_edges // 2), 2)
    s, t = lay.senders[flip], lay.receivers[flip]
    x = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-5, 5, (m, 1))
    receiver = solvers._pair_grads(q, t, s)(x)
    sender = solvers._pair_grads(q, s, t)(x)
    assert np.array_equal(receiver.view(np.int64),
                          sender.take(lay.rev, axis=0).view(np.int64))


@given(tree_partition_cases(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_layout_couplings_equal_searched_couplings(case, d, seed):
    """The coupling stacks that a _PairwiseLayout gathers at the pair
    positions its one search found equal ``problem.couplings`` over
    (receivers, senders) and over the cross incidences (csrc, cdst), bit for
    bit and C-contiguous, for intra pairs of random tree partitions and for
    every coupled pair (the layout of ``pairs=None``)."""
    from mpjacobi.topology import NonTreeCluster

    graph, clusters = case
    try:
        part = validate_tree_partition(graph, clusters, warn_nonoverlap=False)
    except NonTreeCluster:
        assume(False)
    rng = np.random.default_rng(seed)
    blocks = rng.standard_normal((len(graph.edges), d, d))
    blocks[rng.random(blocks.shape) < 0.2] = -0.0
    q = QuadraticObjective(graph.m, d, np.broadcast_to(np.eye(d), (graph.m, d, d)),
                           np.zeros((graph.m, d)), dict(zip(sorted(graph.edges), blocks)))
    for pairs in (part.intra_pairs, None):
        lay = solvers._PairwiseLayout(q, pairs)
        got = lay.couplings(q)
        want = (q.couplings(lay.receivers, lay.senders), q.couplings(lay.csrc, lay.cdst))
        for B, ref in zip(got, want):
            assert B.flags.c_contiguous and B.shape == ref.shape
            assert np.array_equal(B.view(np.int64), ref.view(np.int64))


def test_hyper_pairwise_reduction():
    g, q = ring_qp(m=6, d=2, seed=9)
    qh = pairwise_to_hyper(q)
    hg = type("HG", (), {})  # hypergraph from the converted problem
    from mpjacobi.topology import Hypergraph

    hyper = Hypergraph(6, list(qh.hyper.keys()))
    hpart = validate_hyper_partition(hyper, [[0, 1, 2], [3], [4], [5]])
    part = validate_tree_partition(g, [[0, 1, 2], [3], [4], [5]])
    x0 = np.random.default_rng(1).standard_normal((6, 2))
    cfg = SolverConfig(tau=0.25, max_rounds=20, tol_x=0.0)
    ta = h_mp_jacobi(qh, hpart, cfg, x0=x0)
    tb = mp_jacobi(q, part, cfg, x0=x0)
    assert np.max(np.abs(ta.x_final - tb.x_final)) <= 1e-10


def test_hyper_single_cluster_finite_termination():
    from mpjacobi.topology import Hypergraph

    rng = np.random.default_rng(10)
    d = 1
    hyper = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    diag = np.stack([np.eye(d) * rng.uniform(3.0, 5.0) for _ in range(5)])
    lin = rng.standard_normal((5, d))
    factors = {}
    for w in hyper.hyperedges:
        k = len(w) * d
        A = rng.standard_normal((k, k))
        factors[w] = 0.05 * (A + A.T)
    q = QuadraticObjective(5, d, diag, lin, {}, factors)
    hpart = validate_hyper_partition(hyper, [[0, 1, 2, 3, 4]])
    xs, phis = global_solve_oracle(q)
    rounds = hpart.diameters[0] // 2 + 1
    cfg = SolverConfig(tau=1.0, max_rounds=rounds, tol_x=0.0)
    tr = h_mp_jacobi(q, hpart, cfg, x0=np.zeros((5, d)))
    assert q.value(tr.x_final) - phis <= 1e-11 * max(1.0, abs(phis))


def test_hyper_impl_options_identical_iterates():
    from mpjacobi.topology import Hypergraph

    rng = np.random.default_rng(11)
    hyper = generate_topology("hyper_ring", n_edges=4, edge_size=3)
    m, d = hyper.m, 1
    diag = np.stack([np.eye(d) * rng.uniform(4.0, 6.0) for _ in range(m)])
    lin = rng.standard_normal((m, d))
    factors = {}
    for w in hyper.hyperedges:
        k = len(w)
        A = rng.standard_normal((k, k))
        factors[w] = 0.1 * (A + A.T)
    q = QuadraticObjective(m, d, diag, lin, {}, factors)
    # one path cluster of 2 factors, rest singleton
    nodes = sorted(set(hyper.hyperedges[0]) | set(hyper.hyperedges[1]))
    clusters = [nodes] + [[i] for i in range(m) if i not in nodes]
    hpart = validate_hyper_partition(hyper, clusters)
    x0 = rng.standard_normal((m, d))
    cfgs = [SolverConfig(tau=0.3, max_rounds=15, tol_x=0.0, factor_impl=impl)
            for impl in ("hosted_factor", "factor_processor")]
    ta = h_mp_jacobi(q, hpart, cfgs[0], x0=x0)
    tb = h_mp_jacobi(q, hpart, cfgs[1], x0=x0)
    assert np.array_equal(ta.x_final, tb.x_final)
    assert ta.vectors_sent[-1] != tb.vectors_sent[-1]


def test_minsum_splitting_consensus_rate():
    g = generate_topology("ring", m=8)
    W = metropolis_weights(g).W
    rng = np.random.default_rng(12)
    locs = [(np.array([[rng.uniform(1.0, 3.0)]]), rng.standard_normal(1))
            for _ in range(8)]
    tr = minsum_splitting(locs, W, max_rounds=420, tol=0.0)
    rho_K = tr.monitor["rho_K"]
    # asymptotic slope over the window before the float noise floor
    errs = np.array(tr.dist_to_opt)
    usable = np.nonzero(errs > 1e-13)[0]
    lo, hi = 10, int(usable[-1])
    slope = (np.log(errs[hi]) - np.log(errs[lo])) / (hi - lo)
    assert np.exp(slope) == pytest.approx(rho_K, rel=0.10)
    # plain parameters (delta=1, Gamma=W) still solve the consensus problem
    tr2 = minsum_splitting(locs, W, delta=1.0, Gamma=W, max_rounds=3000, tol=1e-10)
    assert tr2.converged


@pytest.mark.parametrize("scale, rounds", [(2.0, 0), (2.0 - 1e-12, 1)])
def test_minsum_splitting_flags_both_divergences(scale, rounds):
    # Gamma = 2 [[0, 1], [1, 0]] makes the first R_1 singular, an ill-posed
    # round; 1e-12 less leaves it invertible but sends x_1 to ~3.2e12, which
    # the round driver's rule ``_diverged`` flags after one round
    W = np.full((2, 2), 0.5)
    Gamma = scale * np.array([[0.0, 1.0], [1.0, 0.0]])
    run = partial(minsum_splitting, _SPLIT_SINGULAR, W, delta=1.0, Gamma=Gamma, max_rounds=50)
    if rounds == 0:
        with pytest.raises(IllPosedSubproblem):
            run()
        return
    tr = run()
    assert tr.diverged and not tr.converged
    assert tr.rounds == rounds and len(tr.dist_to_opt) == rounds + 1
    assert (np.abs(tr.x_final).max() > 1e12) == (rounds == 1)


def _minsum_splitting_reference(consensus_locals, W, delta=None, Gamma=None, gamma=None,
                                max_rounds=2000, tol=1e-12):
    """The splitting recursion as its own loop, as it ran before it moved
    onto the round driver: it stops once the outputs are within ``tol`` of
    x_star and records NaN gradients and values."""
    Hs = [np.asarray(H, dtype=float) for (H, _) in consensus_locals]
    bs = [np.asarray(b, dtype=float) for (_, b) in consensus_locals]
    n = len(Hs)
    d = bs[0].shape[0]
    W = np.asarray(W, dtype=float)
    rho_W = solvers._rho_perp(W)
    if gamma is None:
        gamma = 2.0 / (1.0 + math.sqrt(max(1.0 - rho_W ** 2, 0.0)))
    if delta is None:
        delta = 1.0
    if Gamma is None:
        Gamma = gamma * W
    ones = np.ones(n)
    K11 = (1 - delta) * np.eye(n) - (1 - delta) * np.diag(Gamma @ ones) + delta * Gamma
    K12 = delta * np.eye(n)
    K21 = delta * np.eye(n) - delta * np.diag(Gamma @ ones) + (1 - delta) * Gamma
    K22 = (1 - delta) * np.eye(n)
    K = np.block([[K11, K12], [K21, K22]])
    x_star = np.linalg.solve(sum(Hs) / n, sum(bs) / n)
    R = np.concatenate([np.stack(Hs), np.stack(Hs)], axis=0)
    rv = np.concatenate([np.stack(bs), np.stack(bs)], axis=0)
    trace = solvers.RunTrace()
    x = np.zeros((n, d))
    trace.dist_to_opt.append(float(np.linalg.norm(x - x_star[None, :].repeat(n, 0))))
    trace.grad_norm.append(float("nan"))
    trace.phi_gap.append(float("nan"))
    trace.vectors_sent.append(0)
    trace.stop_reason = "max_rounds"
    for s in range(max_rounds):
        R = np.einsum("ab,bij->aij", K, R)
        rv = np.einsum("ab,bi->ai", K, rv)
        try:
            x = np.linalg.solve(R[:n], rv[:n, :, None])[..., 0]
        except np.linalg.LinAlgError:
            trace.diverged, trace.stop_reason = True, "diverged"
            break
        err = float(np.linalg.norm(x - x_star[None, :].repeat(n, 0)))
        trace.dist_to_opt.append(err)
        trace.grad_norm.append(float("nan"))
        trace.phi_gap.append(float("nan"))
        trace.vectors_sent.append((s + 1) * 2 * int((np.abs(Gamma) > 0).sum()))
        trace.rounds = s + 1
        if err <= tol:
            trace.converged, trace.stop_reason = True, "tol_x"
            break
        if solvers._diverged(x):
            trace.diverged, trace.stop_reason = True, "diverged"
            break
    trace.x_final = x
    return trace


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=3),
       st.floats(min_value=0.5, max_value=1.0), st.floats(min_value=0.5, max_value=1.5),
       st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_minsum_splitting_on_the_driver_equals_its_own_loop(n, d, delta, scale, rounds, seed):
    """At tol = 0 the recursion on the round driver keeps its own loop's
    iterates, distances, vector counts and divergence verdict, bit for bit,
    and records the gradient of the consensus objective sum_v F(x_v). The
    loop stopped on an exact hit of x_star, which no agent knows; it runs
    here with that rule off (tol = -1) for the driver's rounds, which end on
    an exact fixed point (tol_x), on divergence or at max_rounds."""
    rng = np.random.default_rng(seed)
    W = (np.full((2, 2), 0.5) if n == 2
         else metropolis_weights(generate_topology("ring", m=n)).W)
    locs = []
    for _ in range(n):
        M = rng.standard_normal((d, d))
        locs.append((M @ M.T + d * np.eye(d), rng.standard_normal(d)))
    with np.errstate(all="ignore"):
        tr = minsum_splitting(locs, W, delta=delta, Gamma=scale * W, max_rounds=rounds, tol=0.0)
        want = _minsum_splitting_reference(locs, W, delta=delta, Gamma=scale * W,
                                           max_rounds=tr.rounds, tol=-1.0)
    assert tr.rounds == want.rounds and tr.diverged == want.diverged
    assert solvers._same_bits(tr.x_final, want.x_final)
    assert solvers._same_bits(np.array(tr.dist_to_opt), np.array(want.dist_to_opt))
    assert tr.vectors_sent == want.vectors_sent
    g = tr.x_final @ sum(H for H, _ in locs).T - sum(b for _, b in locs)
    assert tr.grad_norm[-1] == pytest.approx(np.linalg.norm(g), rel=1e-12, abs=1e-12)


def loopy_nondd_qp(seed=0, m=6):
    """Ring plus two chords with mixed-sign couplings: positive definite but
    far from diagonally dominant; plain min-sum blows up on it."""
    from mpjacobi.topology import Graph

    rng = np.random.default_rng(seed)
    g = generate_topology("ring", m=m)
    edges = set(g.edges) | {(0, 3), (1, 4)}
    diag = np.stack([np.eye(1) for _ in range(m)])
    pair = {(i, j): np.array([[rng.uniform(0.3, 0.6) * rng.choice([-1, 1])]])
            for (i, j) in sorted(edges)}
    q = QuadraticObjective(m, 1, diag, rng.standard_normal((m, 1)), pair)
    return Graph(m, edges), q


def test_minsum_plain_diverges_on_loopy_qp():
    g, q = loopy_nondd_qp()
    H, _ = q.assemble()
    vals = np.linalg.eigvalsh(H)
    assert vals[0] > 0
    # not diagonally dominant
    assert any(abs(H[i, i]) < np.sum(np.abs(H[i])) - abs(H[i, i])
               for i in range(q.m))
    xs, phis = global_solve_oracle(q)
    tr = baseline("minsum", q, {"max_rounds": 400, "oracle": (xs, phis)})
    assert max(tr.dist_to_opt[1:]) > 1e3 * tr.dist_to_opt[1]


def walk_radius(q):
    """Spectral radius of |R|, R the normalized off-diagonal part of the
    Hessian; below 1 the problem is walk-summable (Malioutov, Johnson &
    Willsky, JMLR 2006)."""
    H, _ = q.assemble()
    s = 1.0 / np.sqrt(np.diag(H))
    R = s[:, None] * H * s[None, :] - np.eye(len(s))
    return float(np.max(np.abs(np.linalg.eigvals(np.abs(R)))))


def walk_summable_qp(seed=0, m=10):
    """Ring plus two chords, unit diagonal, couplings of magnitude 0.15-0.3
    with random signs: walk-summable."""
    rng = np.random.default_rng(seed)
    edges = set(generate_topology("ring", m=m).edges) | {(0, 5), (2, 7)}
    pair = {(i, j): np.array([[rng.uniform(0.15, 0.3) * rng.choice([-1, 1])]])
            for (i, j) in sorted(edges)}
    return QuadraticObjective(m, 1, np.ones((m, 1, 1)), rng.standard_normal((m, 1)),
                              pair)


def test_minsum_plain_flags_follow_walk_summability():
    q = walk_summable_qp()
    assert walk_radius(q) < 1.0
    xs, phis = global_solve_oracle(q)
    tr = baseline("minsum", q, {"oracle": (xs, phis)})
    assert tr.converged and not tr.diverged
    assert np.max(np.abs(tr.x_final - xs)) <= 1e-8

    _, q = loopy_nondd_qp()
    assert walk_radius(q) > 1.0
    xs, phis = global_solve_oracle(q)
    with np.errstate(all="ignore"):
        tr = baseline("minsum", q, {"max_rounds": 400, "oracle": (xs, phis)})
    assert tr.diverged and not tr.converged


def test_tree_solve_rejects_non_trees_and_factors():
    from mpjacobi.topology import Graph

    m = 8
    q = build_random_qp(path_graph(m), 1, 20.0, 0)
    cycle = Graph(m, set(path_graph(m).edges) | {(0, m - 1)})
    forest = Graph(m, set(path_graph(m).edges) - {(3, 4)})
    for g in (cycle, forest):
        with pytest.raises(SolverError):
            tree_solve(q, g)
    with pytest.raises(NotQuadratic):
        tree_solve(pairwise_to_hyper(q), path_graph(m))


def test_tree_solve_block_variables():
    from mpjacobi.topology import Graph

    for g in (Graph(21, {(0, i) for i in range(1, 21)}), path_graph(30),
              random_tree(40, 3)):
        q = build_random_qp(g, 3, 25.0, g.m)
        x_star, _ = global_solve_oracle(q)
        assert np.max(np.abs(tree_solve(q, g) - x_star)) <= 1e-8


def test_gd_monotone_descent():
    g, q = ring_qp(m=6, d=2, seed=13)
    xs, phis = global_solve_oracle(q)
    tr = baseline("gradient_descent", q,
                  {"max_rounds": 200, "oracle": (xs, phis), "tol": 0.0})
    gaps = tr.phi_gap
    assert all(gaps[k + 1] <= gaps[k] + 1e-12 for k in range(len(gaps) - 1))


def test_block_jacobi_central_matches_delayed_first_round():
    # from a flat window the first delayed round IS the central block step
    g = path_graph(6)
    q = build_random_qp(g, 1, 20.0, 3)
    part = validate_tree_partition(g, [[0, 1, 2], [3, 4, 5]])
    tau = 0.5
    x0 = np.random.default_rng(3).standard_normal((6, 1))
    tb = baseline("block_jacobi_central", q,
                  {"tau": tau, "clusters": part.clusters, "max_rounds": 1,
                   "tol": 0.0}, x0=x0)
    td = delayed_block_jacobi(q, part, SolverConfig(tau=tau, max_rounds=1,
                                                    tol_x=0.0), x0=x0)
    assert np.allclose(tb.x_final, td.x_final, atol=1e-12)
    # all-singleton clusters reduce the delayed solver to classical Jacobi
    parts = validate_tree_partition(g, [[i] for i in range(6)])
    tjac = baseline("jacobi", q, {"tau": tau, "max_rounds": 5, "tol": 0.0}, x0=x0)
    tds = delayed_block_jacobi(q, parts, SolverConfig(tau=tau, max_rounds=5,
                                                      tol_x=0.0), x0=x0)
    assert np.allclose(tjac.x_final, tds.x_final, atol=1e-12)


def test_uniform_theorem_tau_hand_example():
    terms = three_terms(p=4, D=2, kappa=10.0, mu_min=1.0, A=5.0)
    assert terms[:2] == (0.25, 4.0)
    tau, rho = min(terms), 1.0 - min(terms) / (2.0 * 10.0)
    assert tau == pytest.approx(np.sqrt(1.0 / 200.0))
    assert rho == pytest.approx(1.0 - tau / 20.0)
    # singleton case: term III vacuous
    terms2 = three_terms(p=5, D=0, kappa=2.0)
    assert terms2[2] == float("inf")
    tau2 = min(terms2)
    assert tau2 == pytest.approx(0.2)


def test_select_stepsize_modes():
    g, q = ring_qp(m=8, d=1, kappa=30.0, seed=14)
    part = generate_partition("ring_P2", g, D=1)
    inputs = estimate_constants(q, part)
    tau, rho = select_stepsize(part, inputs, mode="uniform_theorem")
    assert 0 < tau <= 1.0 / part.p
    assert 0 < rho < 1
    try:
        tau_r, rho_h = select_stepsize(part, inputs, mode="heterogeneous_theorem")
        assert np.allclose(tau_r, 1.0 / part.p)
    except InfeasibleCondition:
        pass  # instance-dependent; the uniform mode is the fallback


def test_trace_csv_shape():
    g, q = ring_qp(m=5, d=1, seed=15)
    part = generate_partition("all_singletons", g)
    xs, phis = global_solve_oracle(q)
    cfg = SolverConfig(tau=0.2, max_rounds=5, tol_x=0.0, track_oracle=(xs, phis))
    tr = mp_jacobi(q, part, cfg)
    text = tr.to_csv()
    assert text.splitlines()[0] == "round,phi_gap,grad_norm,dist_to_opt,vectors_sent"
    assert len(text.splitlines()) == len(tr.grad_norm) + 1


# ---------------------------------------------------------------------------
# input checks, divergence and stopping rules shared by every engine


def _hyper_instance():
    from mpjacobi.bench import hyperring_qp

    hg, q = hyperring_qp(n_edges=4, edge_size=3, d=1, seed=0)
    return q, validate_hyper_partition(hg, [[0, 1, 2, 3, 4], [5], [6], [7]])


def test_non_finite_x0_rejected():
    g, q = ring_qp(m=6, d=2, seed=1)
    part = generate_partition("ring_P2", g, D=1)
    x0 = np.zeros((6, 2))
    x0[3, 1] = np.nan
    spec = SurrogateSpec(family="first_order", alpha=0.01)
    with pytest.raises(ObjectiveError):
        mp_jacobi(q, part, SolverConfig(max_rounds=5), x0=x0)
    with pytest.raises(ObjectiveError):
        mp_jacobi_surrogate(q, part, SolverConfig(max_rounds=5, surrogate=spec),
                            x0=x0)
    with pytest.raises(ObjectiveError):
        delayed_block_jacobi(q, part, SolverConfig(max_rounds=5), x0=x0)
    hq, hpart = _hyper_instance()
    with pytest.raises(ObjectiveError):
        h_mp_jacobi(hq, hpart, SolverConfig(max_rounds=5),
                    x0=np.full((hq.m, 1), np.inf))


def test_negative_tau_rejected_by_h_mp_jacobi():
    q, hpart = _hyper_instance()
    with pytest.raises(SolverError):
        h_mp_jacobi(q, hpart, SolverConfig(tau=-1, max_rounds=5))


@pytest.mark.parametrize("extra", [3, -1])
def test_per_cluster_tau_of_another_length_rejected(extra):
    # p + 3 entries used to be truncated silently, p - 1 to raise IndexError
    g, q = ring_qp(m=8, d=1, seed=0)
    part = generate_partition("ring_P2", g, D=1)
    tau = np.full(part.p + extra, 0.25)
    for solve in (mp_jacobi, delayed_block_jacobi):
        with pytest.raises(SolverError, match="one stepsize per cluster"):
            solve(q, part, SolverConfig(tau=tau, max_rounds=5))
    cfg = SolverConfig(tau=np.full(part.p, 0.25), max_rounds=5, tol_x=0.0)
    assert mp_jacobi(q, part, cfg).rounds == 5


def test_partition_mismatch_raises_typed_error():
    from mpjacobi.topology import Graph

    m = 10
    part = validate_tree_partition(path_graph(m), [list(range(m))])
    schur = SurrogateSpec(family="schur_quadratic", Q=1.0)
    first = SurrogateSpec(family="first_order", alpha=0.01)
    # the problem has no coupling on the intra-cluster edge (8, 9)
    q_gap = build_random_qp(Graph(m, {(i, i + 1) for i in range(m - 2)}),
                            1, 20.0, 0)
    # the problem has one node fewer than the partition
    q_short = build_random_qp(path_graph(m - 1), 1, 20.0, 0)
    for q in (q_gap, q_short):
        with pytest.raises(PartitionMismatch):
            mp_jacobi(q, part, SolverConfig(max_rounds=5))
        for spec in (schur, first):
            with pytest.raises(PartitionMismatch):
                mp_jacobi_surrogate(q, part,
                                    SolverConfig(max_rounds=5, surrogate=spec))


# a 4-ring quadratic at d = 1, its 2-node clusters, and a lifted consensus
# problem on the same ring
_G4, _Q4 = ring_qp(m=4, d=1)
_P4 = generate_partition("ring_P2", _G4, D=1)
_CTA4 = build_cta([QuadraticLocal(np.eye(1), np.zeros(1))] * 4, metropolis_weights(_G4))
# an 8-ring quadratic at d = 1 and its 2-node clusters
_G8, _Q8 = ring_qp(m=8, d=1)
_P8 = generate_partition("ring_P2", _G8, D=1)
# consensus locals for minsum_splitting on the 4-ring
_LOCS4 = [(np.eye(1), np.zeros(1))] * 4
_W4 = metropolis_weights(_G4).W
# consensus locals whose first splitting round is singular at Gamma = 2 [[0, 1], [1, 0]]
_SPLIT_SINGULAR = [(np.array([[1.0]]), np.array([1.0])), (np.array([[-0.5]]), np.array([0.3]))]


def _surrogate_run(problem, family, **spec):
    """A surrogate run on _P4; ``family`` is set after construction, which
    the dataclass does not check."""
    spec = SurrogateSpec(**spec)
    spec.family = family
    return mp_jacobi_surrogate(problem, _P4, SolverConfig(max_rounds=5, surrogate=spec))


@pytest.mark.parametrize("exc, make", [
    (NotQuadratic, lambda: mp_jacobi(_CTA4, _P4)),
    (SolverError, lambda: _surrogate_run(_Q4, "newton")),
    (NotQuadratic, lambda: _surrogate_run(_CTA4, "schur_quadratic")),
    (SolverError, lambda: _surrogate_run(_Q4, "partial_linearization", Q=1.0)),
    (NotQuadratic, lambda: delayed_block_jacobi(_CTA4, _P4)),
    (SolverError, lambda: tree_solve(_Q4, _G4)),
    (SolverError, lambda: select_stepsize(_P4, None, mode="newton")),
    (MessageError, lambda: SurrogateSpec(family="newton")),
    (MessageError, lambda: SurrogateSpec(family="first_order")),
    (MessageError, lambda: _surrogate_run(_Q4, "schur_quadratic", Q=np.ones((3, 1, 1)))),
    (MessageError, lambda: _surrogate_run(_Q4, "schur_quadratic",
                                          M_edge={(0, 1): np.zeros((2, 2))})),
    (MessageError, lambda: _surrogate_run(_Q4, "schur_quadratic",
                                          M_edge={(1, 0): np.zeros((1, 1))})),
    (MessageError, lambda: _surrogate_run(_Q4, "schur_quadratic",
                                          M_edge={(0, 999): np.eye(1)})),
    (SolverError, lambda: mp_jacobi(_Q8, _P8, SolverConfig(tau=np.nan, max_rounds=5))),
    (SolverError, lambda: mp_jacobi(_Q8, _P8, SolverConfig(tau=np.inf, max_rounds=5))),
    (SolverError, lambda: mp_jacobi(_Q8, _P8, SolverConfig(tau=[np.nan] * _P8.p,
                                                           max_rounds=5))),
    (SolverError, lambda: baseline("jacobi", _Q8, {"tau": np.nan})),
    (SolverError, lambda: baseline("block_jacobi_central", _Q8,
                                   {"tau": -np.inf, "clusters": _P8.clusters})),
    (SolverError, lambda: baseline("gradient_descent", _Q8, {"step": np.inf})),
    (SolverError, lambda: baseline("jacobi", _Q8, {"tau": None})),
    (SolverError, lambda: select_stepsize(_P4, None, mode="manual", manual_tau=-1.0)),
    (SolverError, lambda: select_stepsize(_P4, None, mode="manual", manual_tau=np.nan)),
    (SolverError, lambda: select_stepsize(_P4, None, mode="manual")),
    (SolverError, lambda: minsum_splitting(_LOCS4, np.eye(3))),
    (SolverError, lambda: minsum_splitting(_LOCS4, _W4, max_rounds=-5)),
    (SolverError, lambda: minsum_splitting(_LOCS4, _W4, max_rounds=2.5)),
    (SolverError, lambda: minsum_splitting(_LOCS4, _W4, tol=None)),
    (SolverError, lambda: minsum_splitting(_LOCS4, _W4, tol=-1.0)),
    (IllPosedSubproblem, lambda: minsum_splitting(
        _SPLIT_SINGULAR, np.full((2, 2), 0.5), delta=1.0,
        Gamma=2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))),
    (SolverError, lambda: baseline("jacobi", _Q8, {"max_rounds": 2.5})),
    (SolverError, lambda: baseline("minsum", _Q8, {"max_rounds": 2.5})),
    (SolverError, lambda: baseline("jacobi", _Q8, {"tol": None})),
    (SolverError, lambda: baseline("minsum", _Q8, {"tol": None})),
    (SolverError, lambda: baseline("gradient_descent", _Q8, {"tol": "1e-9"})),
    (SolverError, lambda: baseline("minsum", _Q8, {"tol": np.nan})),
], ids=["exact_off_quadratic", "unsupported_family", "schur_off_quadratic",
        "partial_linearization_off_cta", "reference_off_quadratic", "tree_solve_on_a_ring",
        "stepsize_mode", "spec_family", "spec_first_order_alpha", "spec_node_stack_shape",
        "spec_edge_block_shape", "spec_edge_key_order", "spec_edge_key_node", "tau_nan", "tau_inf",
        "tau_per_cluster_nan", "jacobi_tau_nan", "central_tau_minus_inf",
        "gradient_step_inf", "jacobi_tau_none", "manual_tau_negative", "manual_tau_nan",
        "manual_tau_none", "splitting_W_shape", "splitting_rounds_negative",
        "splitting_rounds_fraction", "splitting_tol_none", "splitting_tol_negative",
        "splitting_singular",
        "baseline_rounds_fraction", "minsum_rounds_fraction", "baseline_tol_none",
        "minsum_tol_none", "baseline_tol_string", "minsum_tol_nan"])
def test_solvers_raise_typed_errors(exc, make):
    """One row per raise of ``solvers`` and of ``SurrogateSpec`` that no
    other test reaches, each with a small malformed input; the exception
    is of that exact type."""
    with pytest.raises(Exception) as got:
        make()
    assert type(got.value) is exc


def test_mp_jacobi_flags_divergence_early():
    q, part = random_valid_instance(3)
    with np.errstate(all="ignore"):
        tr = mp_jacobi(q, part, SolverConfig(tau=50, max_rounds=3000),
                       x0=np.ones((q.m, q.d)))
    assert tr.diverged and not tr.converged
    assert tr.rounds < 100


def _overflow_runs(raise_on_max_rounds=False):
    """Runs whose first round overflows to inf or NaN, from x0 = 1e308 at
    tau = 1/2 or from x0 = 1 at a stepsize of 1e300: exact messages at
    d = 1 and d = 2, structured-quadratic messages and the Jacobi
    baseline."""
    q1, part1 = random_valid_instance(2)
    g, q2 = ring_qp(m=8, d=2, seed=3)
    part2 = generate_partition("ring_P2", g, D=1)
    schur = SurrogateSpec(family="schur_quadratic", Q=2.0)
    runs = {}
    for start, tau in (("huge_x0", 0.5), ("huge_tau", 1e300)):
        scale = 1e308 if start == "huge_x0" else 1.0
        config = SolverConfig(tau=tau, max_rounds=50,
                              raise_on_max_rounds=raise_on_max_rounds)
        runs.update({
            f"mp_jacobi_d1/{start}": partial(mp_jacobi, q1, part1, config,
                                             np.full((q1.m, 1), scale)),
            f"mp_jacobi_d2/{start}": partial(mp_jacobi, q2, part2, config,
                                             np.full((q2.m, 2), scale)),
            f"schur/{start}": partial(mp_jacobi_surrogate, q2, part2,
                                      replace(config, surrogate=schur),
                                      np.full((q2.m, 2), scale)),
            f"jacobi/{start}": partial(baseline, "jacobi", q2,
                                       {"tau": tau, "max_rounds": 50},
                                       x0=np.full((q2.m, 2), scale)),
        })
    return runs


@pytest.mark.parametrize("name", list(_overflow_runs()))
def test_an_overflowing_round_diverges_without_a_warning(name):
    """The round driver ignores floating-point errors for the whole run, so
    a round that overflows raises no RuntimeWarning, even when warnings
    are errors: the run stops on the divergence rule after that round, and
    numpy's error state is as it was before the run."""
    run = _overflow_runs()[name]
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = run()
    assert trace.stop_reason == "diverged" and trace.rounds == 1
    assert np.geterr() == before


def test_a_run_that_raises_restores_the_error_state():
    """NonConvergent from a diverged run and IllPosedSubproblem from a
    singular 2 x 2 node system (``np.linalg.solve`` raises under the run's
    policy too) leave numpy's error state as it was before the run."""
    before = np.geterr()
    run = _overflow_runs(raise_on_max_rounds=True)["mp_jacobi_d2/huge_x0"]
    path = path_graph(3)
    singletons = validate_tree_partition(path, [[0], [1], [2]], warn_nonoverlap=False)
    q = QuadraticObjective(3, 2, np.stack([np.eye(2), np.zeros((2, 2)), np.eye(2)]),
                           np.ones((3, 2)), {e: 0.5 * np.eye(2) for e in path.edges})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonConvergent, match="diverged after 1 rounds"):
            run()
        assert np.geterr() == before
        with pytest.raises(IllPosedSubproblem):
            mp_jacobi(q, singletons, SolverConfig(max_rounds=3))
        assert np.geterr() == before


def test_raise_on_max_rounds_in_every_engine():
    g, q = ring_qp(m=8, d=2, seed=3)
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="schur_quadratic",
                         Q=np.stack([np.diag(np.diag(q.diag[i]))
                                     for i in range(q.m)]))
    cfg = SolverConfig(tau=0.2, max_rounds=3, surrogate=spec,
                       raise_on_max_rounds=True)
    with pytest.raises(NonConvergent):
        mp_jacobi_surrogate(q, part, cfg)
    hq, hpart = _hyper_instance()
    with pytest.raises(NonConvergent):
        h_mp_jacobi(hq, hpart, SolverConfig(tau=0.2, max_rounds=3,
                                            raise_on_max_rounds=True))


def test_first_order_smooth_matches_quadratic():
    from mpjacobi.bench import cta_instance

    g, _, prob = cta_instance(m=8, d=2, gamma=0.01, seed=2)
    part = generate_partition("ring_P2", g, D=1)
    x0 = np.random.default_rng(4).standard_normal((prob.m, prob.d))
    cfg = SolverConfig(tau=0.25, max_rounds=40, tol_x=0.0, monitor=True,
                       surrogate=SurrogateSpec(family="first_order", alpha=0.002))
    ts = mp_jacobi_surrogate(prob.to_smooth(), part, cfg, x0=x0)
    tq = mp_jacobi_surrogate(prob.to_quadratic(), part, cfg, x0=x0)
    assert ts.rounds == tq.rounds == 40
    for xs, xq in zip(ts.x_history, tq.x_history):
        assert np.max(np.abs(xs - xq)) <= 1e-12
    assert ts.vectors_sent == tq.vectors_sent


@pytest.mark.parametrize("seed", range(4))
def test_select_stepsize_uniform_is_rate_terms(seed):
    from mpjacobi.rate_analysis import rate_terms

    q, part = random_valid_instance(seed)
    for surrogate in (None, SurrogateSpec(family="first_order", alpha=0.01)):
        inputs = estimate_constants(q, part, surrogate=surrogate)
        rep = rate_terms(part, inputs, surrogate=surrogate is not None)
        assert select_stepsize(part, inputs, "uniform_theorem",
                               surrogate=surrogate is not None) == (rep.tau_max, rep.rho)


@pytest.mark.parametrize("seed", range(4))
def test_select_stepsize_heterogeneous_is_regime_I(seed):
    """tau_r = 1/p is feasible exactly when term I is the minimum of the
    report, and its rho is the report's, surrogate constants included."""
    from mpjacobi.rate_analysis import rate_terms

    q, part = random_valid_instance(seed)
    for surrogate in (None, SurrogateSpec(family="first_order", alpha=0.01)):
        inputs = estimate_constants(q, part, surrogate=surrogate)
        rep = rate_terms(part, inputs, surrogate=surrogate is not None)
        if rep.tau_max < rep.term_I:
            with pytest.raises(InfeasibleCondition):
                select_stepsize(part, inputs, "heterogeneous_theorem",
                                surrogate=surrogate is not None)
            continue
        tau_r, rho = select_stepsize(part, inputs, "heterogeneous_theorem",
                                     surrogate=surrogate is not None)
        assert np.array_equal(tau_r, np.full(part.p, 1.0 / part.p))
        assert rho == rep.rho


def test_h_mp_jacobi_rejects_node_count_mismatch():
    from mpjacobi.topology import Hypergraph

    q, hpart = _hyper_instance()
    wider = Hypergraph(q.m + 1, hpart.hypergraph.hyperedges)
    clusters = [list(c) for c in hpart.clusters] + [[q.m]]
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi(q, validate_hyper_partition(wider, clusters),
                    SolverConfig(max_rounds=5))


def test_h_mp_jacobi_rejects_pairwise_couplings():
    q, hpart = _hyper_instance()
    mixed = QuadraticObjective(q.m, q.d, q.diag, q.lin, {(0, 5): 0.1 * np.eye(q.d)},
                               q.hyper)
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi(mixed, hpart, SolverConfig(max_rounds=5))


def test_h_mp_jacobi_rejects_other_factor_set():
    q, hpart = _hyper_instance()
    hyper = dict(q.hyper)
    hyper[(0, 5)] = 0.1 * np.eye(2 * q.d)
    extra = QuadraticObjective(q.m, q.d, q.diag, q.lin, {}, hyper)
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi(extra, hpart, SolverConfig(max_rounds=5))


@pytest.mark.parametrize("spec", [
    SurrogateSpec(family="schur_quadratic", Q=123.0),
    SurrogateSpec(family="partial_linearization", Q=1.0)])
def test_hypergraph_solvers_reject_surrogates_they_do_not_run(spec):
    from mpjacobi.splitting import (SplitMap, SplitQuadraticView, apply_split,
                                    split_surrogate_components)

    q, hpart = _hyper_instance()
    split = apply_split(hpart.hypergraph, SplitMap.identity())
    view = SplitQuadraticView(q, split, split_surrogate_components(split, {}))
    cfg = SolverConfig(tau=0.25, max_rounds=5, surrogate=spec)
    with pytest.raises(SolverError, match=f"no {spec.family} messages"):
        h_mp_jacobi(q, hpart, cfg)
    with pytest.raises(SolverError, match=f"no {spec.family} messages"):
        h_mp_jacobi_split(q, view, hpart, cfg)


def test_hypergraph_first_order_does_not_read_alpha():
    """On the hypergraph engine ``first_order`` means diagonalized
    messages; alpha is not read."""
    from mpjacobi.bench import hyperring_qp

    hg, q = hyperring_qp(4, 3, d=2, seed=4)
    hpart = validate_hyper_partition(hg, [[0, 1, 2, 3, 4], [5], [6], [7]])
    x0 = np.random.default_rng(0).standard_normal((q.m, q.d))
    runs = [h_mp_jacobi(q, hpart, SolverConfig(
        tau=0.25, max_rounds=20, tol_x=0.0,
        surrogate=SurrogateSpec(family="first_order", alpha=alpha)), x0=x0)
        for alpha in (1e-6, 1.0)]
    exact = h_mp_jacobi(q, hpart, SolverConfig(tau=0.25, max_rounds=20, tol_x=0.0), x0=x0)
    assert np.array_equal(runs[0].x_final, runs[1].x_final)
    assert not np.array_equal(runs[0].x_final, exact.x_final)


def test_config_rejects_unknown_factor_impl():
    # a typo used to run silently and price neither implementation
    with pytest.raises(SolverError):
        SolverConfig(factor_impl="factor_procesor")


def test_config_rejects_unknown_message_init():
    # an unknown value used to mean 'zero'
    with pytest.raises(SolverError):
        SolverConfig(message_init="warm")


@pytest.mark.parametrize("x, diverged", [
    (np.array([[0.0, np.nan]]), True),
    (np.array([[np.inf]]), True),
    (np.array([[-np.inf, 1.0]]), True),
    (np.array([[1e12, -1e12]]), False),
    (np.array([[np.nextafter(1e12, np.inf)]]), True),
    (np.array([[-np.nextafter(1e12, np.inf)]]), True),
    (np.zeros((0, 2)), False),
])
def test_diverged_threshold(x, diverged):
    from mpjacobi.solvers import _diverged

    assert _diverged(x) is diverged
    assert _diverged(x, np.empty_like(x)) is diverged


def test_golden_cases_reach_stationary_curvature():
    """Every message engine of the golden cases stops running its
    curvature half well inside the 30 frozen rounds, so the bitwise golden
    traces cover the stationary shortcut."""
    from test_golden_traces import ROUNDS, cases

    for name, run in cases().items():
        trace = run()
        if name.startswith("delayed/"):
            assert trace.curvature_rounds is None
            continue
        assert 1 <= trace.curvature_rounds < ROUNDS, (name, trace.curvature_rounds)


def _dominant_qp(graph, d, seed):
    """A block diagonally dominant quadratic on graph: any damped round
    contracts, so a short run neither diverges nor stops."""
    rng = np.random.default_rng(seed)
    deg = np.zeros(graph.m)
    for e in graph.edges:
        deg[list(e)] += 1
    diag = np.stack([(2.0 * deg[i] + 2.0) * np.eye(d)
                     + 0.1 * (lambda A: A + A.T)(rng.standard_normal((d, d)))
                     for i in range(graph.m)])
    pair = {e: rng.uniform(-0.5, 0.5, (d, d)) for e in sorted(graph.edges)}
    return QuadraticObjective(graph.m, d, diag, rng.standard_normal((graph.m, d)), pair)


@given(tree_partition_cases(), st.integers(1, 2), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_final_curvature_reads_no_iterate(case, d, seed):
    """On random tree partitions, two runs that differ only in the linear
    term and x0 end with the same message curvatures, bit for bit, in the
    exact and the structured-quadratic engine."""
    from mpjacobi.topology import NonTreeCluster

    graph, clusters = case
    try:
        part = validate_tree_partition(graph, clusters, warn_nonoverlap=False)
    except NonTreeCluster:
        assume(False)
    q = _dominant_qp(graph, d, seed)
    rng = np.random.default_rng(seed)
    spec = SurrogateSpec(family="schur_quadratic",
                         Q=np.stack([q.diag[i] + np.eye(d) for i in range(q.m)]),
                         M_edge={e: 0.5 * (B + B.T) for e, B in q.pair.items()})
    rounds = 2 * part.max_diameter + 4
    finals = {}
    for run in range(2):
        q.lin = rng.standard_normal((q.m, d))
        x0 = rng.standard_normal((q.m, d))
        for tag, cfg in (("exact", SolverConfig(tau=0.5, max_rounds=rounds, tol_x=0.0)),
                         ("schur", SolverConfig(tau=0.5, max_rounds=rounds, tol_x=0.0,
                                                surrogate=spec))):
            trace = mp_jacobi_surrogate(q, part, cfg, x0=x0)
            assert trace.rounds == rounds and trace.curvature_rounds < rounds
            finals.setdefault(tag, []).append(trace.monitor[0])
    for H_a, H_b in finals.values():
        assert np.array_equal(H_a.view(np.int64), H_b.view(np.int64))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("exact_update", [False, True])
def test_schur_kept_rounds_equal_full_rule(monkeypatch, d, exact_update):
    """A kept Schur round, the rule's linear half on the stacked products
    with H_msg's rows standing in for kept.H x_i^ref, equals the full rule
    (``schur_message_update``) bit for bit: the same run with the keeping
    test switched off calls the rule in every round. Non-diagonal Q, so that
    the sender systems go to LAPACK and the kept column to a full solve at
    d >= 2; at d = 3 ``problem.diag`` is a transposed view, whose product
    keeps an einsum of its own."""
    rounds, m = 40, 12
    graph = generate_topology("ring", m=m)
    q = _dominant_qp(graph, d, seed=d)
    if d == 3:
        q.diag = np.swapaxes(np.swapaxes(q.diag, 1, 2).copy(), 1, 2)
        assert not q.diag.flags.c_contiguous
    part = generate_partition("ring_P2", graph, D=3)
    spec = SurrogateSpec(family="schur_quadratic",
                         Q=np.stack([q.diag[i] + np.eye(d) for i in range(m)]),
                         M_node=0.05 * np.eye(d),
                         M_edge={e: 0.5 * (B + B.T) for e, B in q.pair.items()})
    cfg = SolverConfig(tau=0.5, max_rounds=rounds, tol_x=0.0, surrogate=spec,
                       exact_variable_update=exact_update, monitor=True)
    x0 = np.random.default_rng(d).standard_normal((m, d))
    kept = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    monkeypatch.setattr(solvers, "_same_bits", lambda a, b: False)
    full = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    assert kept.curvature_rounds < rounds // 2 and full.curvature_rounds == rounds
    assert kept.rounds == full.rounds == rounds
    for got, want in ((np.stack(kept.x_history + kept.xhat_history),
                       np.stack(full.x_history + full.xhat_history)),
                      (kept.monitor[0], full.monitor[0]), (kept.monitor[1], full.monitor[1])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tree_solve_rejects_a_graph_other_than_the_couplings():
    """A coupling the graph lacks is not dropped, and a graph edge without
    a coupling does not leak ObjectiveError: both raise PartitionMismatch."""
    from mpjacobi.topology import Graph

    m = 8
    _, ring = ring_qp(m=m, d=1, kappa=20.0, seed=0)
    with pytest.raises(PartitionMismatch):
        tree_solve(ring, path_graph(m))
    path = build_random_qp(path_graph(m), 1, 20.0, 0)
    with pytest.raises(PartitionMismatch):
        tree_solve(path, Graph(m, {(0, i) for i in range(1, m)}))
    with pytest.raises(PartitionMismatch):
        tree_solve(path, path_graph(m + 1))


def test_d1_exact_runs_take_no_lapack_call(monkeypatch):
    """At d = 1 the exact engine, min-sum and the tree sweep solve without
    np.linalg.solve; at d = 2 the exact engine still calls it."""
    g, q = ring_qp(m=10, d=1, kappa=20.0, seed=3)
    part = generate_partition("ring_P1", g, D=5)
    tree = random_tree(30, 1)
    tree_q = build_random_qp(tree, 1, 20.0, 1)
    g2, q2 = ring_qp(m=10, d=2, kappa=20.0, seed=3)
    part2 = generate_partition("ring_P1", g2, D=5)
    lapack = np.linalg.solve
    calls = []

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called at d = 1")

    def count(*args, **kwargs):
        calls.append(args)
        return lapack(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", refuse)
    for init in ("zero", "warm_start"):
        tr = mp_jacobi(q, part, SolverConfig(tau=0.5, max_rounds=40, message_init=init))
        assert tr.rounds == 40 or tr.converged
    assert baseline("minsum", walk_summable_qp(), {"max_rounds": 40}).rounds > 0
    assert tree_solve(tree_q, tree).shape == (30, 1)

    monkeypatch.setattr(np.linalg, "solve", count)
    mp_jacobi(q2, part2, SolverConfig(tau=0.5, max_rounds=5))
    assert calls


def test_typed_errors_at_d1():
    """A zero node curvature (0.0 or -0.0) raises IllPosedSubproblem and a
    zero sender curvature SingularSenderCurvature, as with LAPACK."""
    from mpjacobi.topology import Graph

    g = Graph(4, {(0, 3), (0, 1), (1, 2)})            # the path 3 - 0 - 1 - 2
    part = validate_tree_partition(g, [[0, 1, 2, 3]], warn_nonoverlap=False)
    pair = {(0, 1): [[2.0]], (1, 2): [[0.5]], (0, 3): [[1.0]]}
    cfg = SolverConfig(tau=1.0, max_rounds=5)

    def qp(diag):
        return QuadraticObjective(4, 1, np.reshape(diag, (4, 1, 1)), np.ones((4, 1)), pair)

    for zero in (0.0, -0.0):
        with pytest.raises(IllPosedSubproblem):
            mp_jacobi(qp([1.0, 1.0, zero, 1.0]), part, cfg)
    # in round 2 node 1 sends to 2 from 1 - 2^2 / 4 = 0, while every node
    # curvature stays nonzero
    with pytest.raises(SingularSenderCurvature):
        mp_jacobi(qp([4.0, 1.0, 1.0, 1.0]), part, cfg)
    # rooted at 0, the sweep up sends 1 -> 0 from 1 - 2^2 / 4 = 0
    path = Graph(3, {(0, 1), (1, 2)})
    q = QuadraticObjective(3, 1, np.reshape([1.0, 1.0, 4.0], (3, 1, 1)), np.ones((3, 1)),
                           {(0, 1): [[1.0]], (1, 2): [[2.0]]})
    with pytest.raises(SingularSenderCurvature):
        tree_solve(q, path)


def test_batched_node_solves_equal_the_per_node_loops():
    """baseline('jacobi') and minsum_splitting solve every node in one
    batched call, bit-equal to the per-node loops they replaced."""
    rng = np.random.default_rng(4)
    for d in (1, 2, 3, 4):
        _, q = ring_qp(m=9, d=d, kappa=10.0, seed=d)
        tr = baseline("jacobi", q, {"max_rounds": 30, "tau": 0.6})
        x = np.zeros((q.m, d))
        for _ in range(tr.rounds):
            g = q.grad(x)
            xhat = np.stack([x[i] - np.linalg.solve(q.diag[i], g[i]) for i in range(q.m)])
            x = x + 0.6 * (xhat - x)
        assert tr.rounds == 30 and np.array_equal(tr.x_final, x)

        n = 7
        W = metropolis_weights(generate_topology("ring", m=n)).W
        Hs, bs = [], []
        for _ in range(n):
            M = rng.standard_normal((d, d))
            Hs.append(M @ M.T + d * np.eye(d))
            bs.append(rng.standard_normal(d))
        delta, Gamma = 0.9, 1.2 * W
        tr = minsum_splitting(list(zip(Hs, bs)), W, delta=delta, Gamma=Gamma,
                              max_rounds=25, tol=0.0)
        eye, ones = np.eye(n), np.ones(n)
        K = np.block([[(1 - delta) * eye - (1 - delta) * np.diag(Gamma @ ones)
                       + delta * Gamma, delta * eye],
                      [delta * eye - delta * np.diag(Gamma @ ones) + (1 - delta) * Gamma,
                       (1 - delta) * eye]])
        R, rv = np.concatenate([np.stack(Hs)] * 2), np.concatenate([np.stack(bs)] * 2)
        for _ in range(tr.rounds):
            R = np.einsum("ab,bij->aij", K, R)
            rv = np.einsum("ab,bi->ai", K, rv)
            x = np.stack([np.linalg.solve(R[v], rv[v]) for v in range(n)])
        assert tr.rounds == 25 and not tr.diverged
        assert np.array_equal(tr.x_final, x)


def _cta_d2():
    from mpjacobi.bench import cta_instance

    _, W, prob = cta_instance(m=6, d=2, gamma=0.01, seed=1)
    return W, prob


def test_baseline_checks_kind_and_params_first():
    """An unknown kind or a params key the kind does not read raises
    SolverError before any work, whatever the problem."""
    _, q = ring_qp(m=6, d=2, seed=1)
    W, prob = _cta_d2()
    locs = [(f.Q, -f.c) for f in prob.locals_]
    with pytest.raises(SolverError, match="unknown baseline"):
        baseline("foo", q, {"max_rounds": 0})
    with pytest.raises(SolverError, match="unknown baseline"):
        baseline("foo", prob.to_smooth())
    typo = {"max_rounds": 3, "step_size": 5.0}
    for kind, problem in (("jacobi", q), ("block_jacobi_central", q),
                          ("gradient_descent", q), ("dgd_cta", prob),
                          ("dgd_atc", prob), ("minsum", q),
                          ("minsum_splitting", locs)):
        with pytest.raises(SolverError, match="step_size"):
            baseline(kind, problem, typo)
    for kind, params in (("jacobi", {"step": 0.1}), ("gradient_descent", {"tau": 0.5}),
                         ("dgd_cta", {"tau": 0.5}), ("minsum", {"tau": 0.5}),
                         ("minsum", {"clusters": [[0]]}),
                         ("minsum_splitting", {"W": W.W, "oracle": None})):
        with pytest.raises(SolverError, match="does not read"):
            baseline(kind, locs if kind == "minsum_splitting" else q, params)
    with pytest.raises(SolverError):
        baseline("minsum_splitting", locs, {"max_rounds": 3})           # no W
    with pytest.raises(SolverError):
        baseline("minsum_splitting", locs, {"W": W.W}, x0=np.zeros((6, 2)))
    with pytest.raises(SolverError):
        baseline("dgd_cta", q, {"max_rounds": 3})
    with pytest.raises(NotQuadratic):
        baseline("jacobi", prob.to_smooth(), {"max_rounds": 3})
    assert baseline("gradient_descent", q, {"max_rounds": 3, "step": 0.01}).rounds == 3


def test_block_jacobi_central_needs_a_partition():
    """Clusters must be given and partition 0..m-1: before, missing nodes
    were silently set to zero."""
    g, q = ring_qp(m=6, d=1, seed=2)
    for clusters in (None, [[0, 1], [2, 3]], [[0, 1, 2], [2, 3, 4, 5]],
                     [[0, 1, 2], [3, 4, 5, 6]], [[0, 1, 2, 3, 4, 5], []]):
        params = {"max_rounds": 3} if clusters is None else {
            "max_rounds": 3, "clusters": clusters}
        with pytest.raises(SolverError):
            baseline("block_jacobi_central", q, params)
    # clusters in any order, nodes in any order within a cluster
    tr = baseline("block_jacobi_central", q, {"clusters": [[5, 4], [2, 0, 1], [3]],
                                              "max_rounds": 3, "tau": 0.5})
    assert tr.rounds == 3 and np.all(np.isfinite(tr.x_final))


def test_baselines_reject_non_finite_x0():
    """Every baseline on the round driver checks x0 as the SolverConfig
    solvers do; before, jacobi returned a 1-round trace from a NaN x0."""
    _, q = ring_qp(m=6, d=2, seed=1)
    _, prob = _cta_d2()
    for bad in (np.nan, np.inf):
        x0 = np.zeros((6, 2))
        x0[3, 1] = bad
        for kind, problem, params in (
                ("jacobi", q, {}), ("gradient_descent", q, {}), ("minsum", q, {}),
                ("block_jacobi_central", q, {"clusters": [[0, 1, 2], [3, 4, 5]]}),
                ("dgd_cta", prob, {}), ("dgd_atc", prob, {})):
            with pytest.raises(ObjectiveError):
                baseline(kind, problem, {"max_rounds": 5, **params}, x0=x0)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.integers(1, 4),
       st.sampled_from(["quadratic", "fortran", "callable"]))
@settings(max_examples=100, deadline=None)
def test_dgd_local_grads_equal_per_node_grads_bitwise(seed, m, d, kind):
    """The diffusion baselines' local gradients, one batched matmul on
    QuadraticLocals, hold every loss's own ``grad`` bit for bit: entries of
    unit magnitude (where another order of the sums rounds otherwise),
    signed zeros, and scales 1e-100 to 1e100. A Q in Fortran order, whose
    own product takes another BLAS kernel, and a non-quadratic loss keep
    the per-node calls."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        out = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-100, 101, shape)
        out[rng.random(shape) < 0.1] = -0.0
        return out

    locals_ = [QuadraticLocal(draw((d, d)), draw(d)) for _ in range(m)]
    if kind == "fortran":
        locals_[rng.integers(m)].Q = np.asfortranarray(draw((d, d)))
    elif kind == "callable":
        f = locals_[rng.integers(m)]
        locals_.append(CallableLocal(lambda x: 0.0, lambda x, f=f: f.Q @ x + f.c))
        m += 1
    g = generate_topology("ring", m=m) if m >= 3 else Graph(m, {(0, 1)} if m == 2 else set())
    prob = build_cta(locals_, metropolis_weights(g))
    v = draw((m, d))
    with np.errstate(all="ignore"):
        got = prob.own_local_grads(v)
        want = np.stack([f.grad(u) for f, u in zip(prob.locals_, v)])
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_tree_solve_singular_root_is_ill_posed():
    """A consistent path Laplacian (unit weights, zero-mean b) leaves every
    node's full curvature exactly zero: the final solve is ill-posed."""
    g = path_graph(6)
    deg = np.bincount(np.array(sorted(g.edges)).ravel(), minlength=6).astype(float)
    b = np.arange(6.0) - 2.5
    q = QuadraticObjective(6, 1, deg.reshape(6, 1, 1), b.reshape(6, 1),
                           {e: [[-1.0]] for e in sorted(g.edges)})
    with pytest.raises(IllPosedSubproblem):
        tree_solve(q, g)


def test_baseline_singular_block_is_ill_posed():
    """jacobi and block_jacobi_central raise IllPosedSubproblem, not a bare
    LinAlgError, on a singular node or cluster block: the 3-node path QP
    with diagonal 1, 0, 1."""
    q = QuadraticObjective(3, 1, np.reshape([1.0, 0.0, 1.0], (3, 1, 1)), np.ones((3, 1)),
                           {(0, 1): [[0.5]], (1, 2): [[0.5]]})
    with pytest.raises(IllPosedSubproblem):
        baseline("jacobi", q, {"max_rounds": 3})
    with pytest.raises(IllPosedSubproblem):
        baseline("block_jacobi_central", q, {"max_rounds": 3, "clusters": [[0], [1], [2]]})


# ---------------------------------------------------------------------------
# configuration checks and batched trace recording


@pytest.mark.parametrize("field, value", [
    ("max_rounds", 2.5), ("max_rounds", -1), ("max_rounds", True), ("max_rounds", np.True_),
    ("max_rounds", np.float64(3.0)), ("max_rounds", "10"), ("max_rounds", None),
    ("tol_x", -1e-12), ("tol_x", float("nan")), ("tol_x", None), ("tol_x", "0"),
    ("tol_grad", -1.0), ("tol_grad", float("nan"))])
def test_solver_config_rejects_malformed_rounds_and_tolerances(field, value):
    with pytest.raises(SolverError, match=field):
        SolverConfig(**{field: value})


def test_solver_config_accepts_numpy_integer_rounds():
    g, q = ring_qp(m=6, d=1, seed=1)
    part = generate_partition("ring_P2", g, D=1)
    cfg = SolverConfig(tau=0.5, max_rounds=np.int64(3), tol_x=0.0, tol_grad=np.float64(0.0))
    assert mp_jacobi(q, part, cfg).rounds == 3


_TINY = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 2.2e-308])


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 2500), st.integers(1, 17))
@settings(max_examples=150, deadline=None)
def test_vecdot_rows_are_the_single_iterate_dots_bitwise(seed, length, rows):
    """RunTrace.record takes the norms and inner products of a stack's
    C-contiguous rows by np.vecdot. Each row holds the bits that
    np.linalg.norm (sqrt of a.dot(a)) and np.vdot give on that row alone:
    both are the BLAS ddot. np.dot of two length-1 vectors is their lone
    product, so it can be -0.0 where vecdot and vdot sum from +0.0; from
    length 2 on np.dot agrees too."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        """Random signs and magnitudes 1e-300 to 1e300, about a third of
        the entries signed zeros or subnormals."""
        out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(_TINY, np.count_nonzero(special))
        return out

    def bits(v):
        return np.asarray(v, dtype=float).view(np.int64)

    a, b = draw((rows, length)), draw((rows, length))
    with np.errstate(all="ignore"):
        squares, products = np.vecdot(a, a), np.vecdot(a, b)
        for k in range(rows):
            assert bits(squares[k]) == bits(np.dot(a[k], a[k]))
            assert bits(products[k]) == bits(np.vdot(a[k], b[k]))
            if length > 1:
                assert bits(products[k]) == bits(np.dot(a[k], b[k]))


def _single_iterate_metrics(problem, x, oracle):
    """(grad_norm, phi_gap, dist_to_opt) of one iterate, computed alone:
    norms by np.linalg.norm, a quadratic's value from its gradient by
    np.vdot."""
    x_star, phi_star = oracle
    g = problem.grad(x)
    if isinstance(problem, QuadraticObjective):
        value = 0.5 * float(np.vdot(x, g + problem.lin))
    else:
        value = problem.value(x)
    return (float(np.linalg.norm(g)), float(value - phi_star),
            float(np.linalg.norm(x - x_star)))


def _run_tol_x_mid_batch(monkeypatch):
    g, q = ring_qp(m=8, d=2, seed=3)
    oracle = global_solve_oracle(q)
    trace = mp_jacobi(q, generate_partition("ring_P2", g, D=1),
                      SolverConfig(tau=0.5, tol_x=1e-6, monitor=True, track_oracle=oracle))
    assert trace.converged and trace.rounds + 1 > solvers.RECORD_BATCH
    assert (trace.rounds + 1) % solvers.RECORD_BATCH != 0
    return trace, q, oracle


def _run_tol_grad_minsum(monkeypatch):
    monkeypatch.setattr(solvers, "SolverConfig", partial(SolverConfig, monitor=True))
    _, q = ring_qp(m=8, d=2, seed=3)
    oracle = global_solve_oracle(q)
    trace = baseline("minsum", q, {"tol": 1e-8, "oracle": oracle, "max_rounds": 400})
    assert trace.converged and trace.grad_norm[-1] <= 1e-8 < trace.grad_norm[-2]
    return trace, q, oracle


def _run_diverges(monkeypatch):
    q, part = random_valid_instance(3)
    oracle = global_solve_oracle(q)
    with np.errstate(all="ignore"):
        trace = mp_jacobi(q, part, SolverConfig(tau=50, max_rounds=3000, monitor=True,
                                                track_oracle=oracle),
                          x0=np.ones((q.m, q.d)))
    assert trace.diverged
    return trace, q, oracle


def _run_no_rounds(monkeypatch):
    g, q = ring_qp(m=6, d=2, seed=1)
    oracle = global_solve_oracle(q)
    x0 = np.random.default_rng(1).standard_normal((q.m, q.d))
    trace = mp_jacobi(q, generate_partition("ring_P2", g, D=1),
                      SolverConfig(max_rounds=0, monitor=True, track_oracle=oracle), x0=x0)
    assert trace.rounds == 0
    return trace, q, oracle


def _run_raise_on_max_rounds(monkeypatch):
    """The run raises; the trace it built is caught as it is created."""
    made = []

    class Kept(solvers.RunTrace):
        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(solvers, "RunTrace", Kept)
    g, q = ring_qp(m=8, d=2, seed=3)
    oracle = global_solve_oracle(q)
    with pytest.raises(NonConvergent):
        mp_jacobi(q, generate_partition("ring_P2", g, D=1),
                  SolverConfig(tau=0.5, max_rounds=20, monitor=True, track_oracle=oracle,
                               raise_on_max_rounds=True))
    (trace,) = made
    assert trace.rounds == 20
    return trace, q, oracle


def _run_hyper(monkeypatch):
    q, part = _hyper_instance()
    oracle = global_solve_oracle(q)
    trace = h_mp_jacobi(q, part, SolverConfig(tau=0.2, max_rounds=40, tol_x=0.0,
                                              monitor=True, track_oracle=oracle))
    return trace, q, oracle


def _run_cta(monkeypatch):
    from mpjacobi.bench import cta_instance
    from mpjacobi.objective import CtaProblem

    g, _, prob = cta_instance(m=8, d=2, gamma=0.01, seed=2)
    assert isinstance(prob, CtaProblem)
    oracle = global_solve_oracle(prob.to_quadratic())
    qmax = max(float(np.linalg.eigvalsh(f.Q)[-1]) for f in prob.locals_)
    spec = SurrogateSpec(family="partial_linearization", Q=qmax + 0.1)
    trace = mp_jacobi_surrogate(prob, generate_partition("ring_P2", g, D=1),
                                SolverConfig(tau=1.0, max_rounds=40, tol_x=0.0, monitor=True,
                                             track_oracle=oracle, surrogate=spec))
    return trace, prob, oracle


@pytest.mark.parametrize("run", [
    _run_tol_x_mid_batch, _run_tol_grad_minsum, _run_diverges, _run_no_rounds,
    _run_raise_on_max_rounds, _run_hyper, _run_cta], ids=lambda f: f.__name__[5:])
def test_batched_record_is_the_per_iterate_metrics(run, monkeypatch):
    """Recording in batches keeps every trace entry the metric of its own
    iterate, bit for bit, with one entry per iterate (rounds + 1), however
    the run ends."""
    trace, problem, oracle = run(monkeypatch)
    n = trace.rounds + 1
    assert len(trace.x_history) == n
    for name in ("grad_norm", "phi_gap", "dist_to_opt", "vectors_sent"):
        assert len(getattr(trace, name)) == n
    with np.errstate(all="ignore"):
        expected = np.array([_single_iterate_metrics(problem, x, oracle)
                             for x in trace.x_history])
    got = np.array([trace.grad_norm, trace.phi_gap, trace.dist_to_opt]).T
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _signed_zero_qp(graph, d, seed):
    """:func:`_dominant_qp` with signed zeros: about a quarter of the lin
    entries are +0.0 or -0.0, and about a quarter of the coupling blocks
    are zero, so their messages' linear parts come out -0.0."""
    q = _dominant_qp(graph, d, seed)
    rng = np.random.default_rng(seed + 1)
    zero = rng.random(q.lin.shape) < 0.25
    q.lin[zero] = rng.choice([0.0, -0.0], np.count_nonzero(zero))
    pair = {e: 0.0 * B if rng.random() < 0.25 else B for e, B in q.pair.items()}
    return QuadraticObjective(q.m, d, q.diag, q.lin, pair)


@given(tree_partition_cases(), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
@example((Graph(9, {(0, 6), (0, 7), (1, 2), (2, 3), (2, 4), (2, 5), (2, 7), (2, 8)}),
          [[0, 6], [1, 2, 3, 4, 5, 7, 8]]), 3, 1312899)
@settings(max_examples=60, deadline=None)
def test_exact_kept_rounds_equal_full_rule(case, d, seed):
    """On random tree partitions, a kept exact round (the compiled receivers'
    sums, the node solve and kept column from the stored pivots and
    reciprocals, and ``exact_linear``) equals the full rule
    (``exact_quadratic_message``) bit for bit: the same run with the
    keeping test switched off calls the rule in every round.
    lin, x0 and the messages' linear parts hold signed zeros. The example
    is a draw whose curvature half alternates between two states, one ulp
    apart, which the rounds keep as a cycle of period 2."""
    from mpjacobi.topology import NonTreeCluster

    graph, clusters = case
    try:
        part = validate_tree_partition(graph, clusters, warn_nonoverlap=False)
    except NonTreeCluster:
        assume(False)
    q = _signed_zero_qp(graph, d, seed)
    x0 = np.random.default_rng(seed).standard_normal((q.m, d))
    x0[::2, 0] = -0.0
    rounds = 2 * part.max_diameter + 6
    cfg = SolverConfig(tau=0.5, max_rounds=rounds, tol_x=0.0, monitor=True)
    kept = mp_jacobi(q, part, cfg, x0=x0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers, "_same_bits", lambda a, b: False)
        full = mp_jacobi(q, part, cfg, x0=x0)
    # a run stops early only where x0 is already the fixed point (tol_x = 0)
    assert kept.rounds == full.rounds == full.curvature_rounds
    assert kept.curvature_rounds < rounds or kept.rounds < rounds
    for got, want in ((np.stack(kept.x_history + kept.xhat_history),
                       np.stack(full.x_history + full.xhat_history)),
                      (kept.monitor[0], full.monitor[0]), (kept.monitor[1], full.monitor[1])):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rounds_keep_a_cycle_of_period_two(monkeypatch):
    """A curvature half that settles into a cycle of period 2 (curvatures
    0 -> 1 -> 2 -> 1 -> 2 ...) is kept from the round that returns the
    curvatures of the round before last: later rounds take the two phases
    in turn, each settled once, and return the full rule's iterates,
    curvatures and prices."""
    rule = {0.0: 1.0, 1.0: 2.0, 2.0: 1.0}

    def linear(x, h, state, kept):
        H_new = np.array([rule[state]]) if kept is None else kept
        return x * state + H_new[0], H_new, h, H_new

    def run(settled):
        rounds = solvers._Rounds(np.zeros(1), np.zeros(1), lambda H: float(H[0]), linear,
                                 lambda H: int(10 * H[0]),
                                 lambda state, keep: settled.append((state, keep[0])) or state)
        x, out = 1.0, []
        for _ in range(8):
            xhat, sent = rounds.step(x)
            out.append((xhat, float(rounds.H[0]), sent))
            x = xhat / 4
        return out, rounds.rounds

    settled = []
    kept, kept_rounds = run(settled)
    monkeypatch.setattr(solvers, "_same_bits", lambda a, b: False)
    full, full_rounds = run([])
    assert kept == full and (kept_rounds, full_rounds) == (3, 8)
    assert settled == [(1.0, 2.0), (2.0, 1.0)]


_DAMP_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 5e-324)


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 9), st.integers(1, 3),
       st.floats(0.0, 0.5))
@settings(max_examples=200, deadline=None)
def test_damping_step_equals_the_allocating_expressions(seed, m, d, special):
    """The driver's in-place damping step returns x + tau (xhat - x) and
    max |x_new - x| (0.0 on no nodes), and its divergence test the verdict
    on |x|, with the bits of the allocating expressions: signed zeros,
    +-inf, NaNs of both signs and values that overflow."""
    from mpjacobi.solvers import _damp, _diverged

    rng = np.random.default_rng(seed)

    def draw(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        mask = rng.random(shape) < special
        out[mask] = rng.choice(_DAMP_SPECIALS, np.count_nonzero(mask))
        return out

    x, xhat, tau = draw((m, d)), draw((m, d)), draw((m, 1))
    work = np.empty((m, d))
    with np.errstate(all="ignore"):
        want = x + tau * (xhat - x)
        want_change = np.abs(want - x).max(initial=0.0)
        got, change = _damp(x, xhat, tau, work)
        assert _diverged(got, work) is _diverged(got)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.array(change).view(np.int64) == np.array(want_change).view(np.int64)


@pytest.mark.parametrize("tau, scale, rounds", [
    (50.0, 1.0, 7), (3.0, 1.0, 21), (2.2, 1.0, 29), (50.0, 1e308, 1)])
def test_diverging_run_stops_where_it_did(tau, scale, rounds):
    """A diverging run stops at the round it stopped at before the driver
    damped in place (the counts were taken then), and every iterate is the
    allocating damping step x + tau (xhat - x) of the one before; the last
    is the first that the divergence rule flags."""
    from mpjacobi.solvers import _diverged

    q, part = random_valid_instance(3)
    with np.errstate(all="ignore"):
        trace = mp_jacobi(q, part, SolverConfig(tau=tau, max_rounds=3000, monitor=True),
                          x0=np.full((q.m, q.d), scale))
        assert trace.rounds == rounds and trace.diverged and trace.stop_reason == "diverged"
        xs = trace.x_history
        for k, xhat in enumerate(trace.xhat_history):
            want = xs[k] + tau * (xhat - xs[k])
            assert np.array_equal(xs[k + 1].view(np.int64), want.view(np.int64))
            assert _diverged(xs[k + 1]) is (k + 1 == rounds)


def _stop_rows():
    """(solver call, expected stop_reason): every rule of ``_drive``, on
    the engines and on ``minsum_splitting``."""
    q, part = random_valid_instance(3)
    split_locs = [(np.array([[1.0 + i]]), np.array([0.5 * i])) for i in range(4)]
    split_W = metropolis_weights(generate_topology("ring", m=4)).W
    return {
        "tol_x": (lambda: mp_jacobi(q, part, SolverConfig(tau=0.5)), "tol_x"),
        "tol_grad": (lambda: baseline("minsum", walk_summable_qp(), {"tol": 1e-8}),
                     "tol_grad"),
        "diverged": (lambda: mp_jacobi(q, part, SolverConfig(tau=50.0),
                                       x0=np.ones((q.m, q.d))), "diverged"),
        "max_rounds": (lambda: mp_jacobi(q, part, SolverConfig(tau=0.5, max_rounds=3)),
                       "max_rounds"),
        "no_rounds": (lambda: mp_jacobi(q, part, SolverConfig(max_rounds=0)), "max_rounds"),
        "schur_max_rounds": (lambda: mp_jacobi_surrogate(q, part, SolverConfig(
            tau=0.5, max_rounds=3, surrogate=SurrogateSpec(family="schur_quadratic",
                                                           Q=2.0))), "max_rounds"),
        "splitting_tol": (lambda: minsum_splitting(split_locs, split_W, tol=1e-10), "tol_x"),
        "splitting_max_rounds": (lambda: minsum_splitting(split_locs, split_W, max_rounds=2,
                                                          tol=0.0), "max_rounds"),
    }


@pytest.mark.parametrize("row", list(_stop_rows()))
def test_stop_reason_names_the_rule_that_stopped_the_run(row):
    run, reason = _stop_rows()[row]
    with np.errstate(all="ignore"):
        trace = run()
    assert trace.stop_reason == reason
    assert trace.converged == (reason in ("tol_x", "tol_grad"))
    assert trace.diverged == (reason == "diverged")


def _layout_before(problem, intra_edges):
    """The pairwise layout's (senders, receivers, directed, rev, csrc,
    cdst) as it was built from edge sets, one per cluster, before it came
    from arrays."""
    from itertools import chain

    edges = problem.graph_edges()
    intra = set(chain.from_iterable(intra_edges))
    if not intra <= edges:
        raise PartitionMismatch(f"intra-cluster edge {min(intra - edges)} has no "
                                "coupling in the problem")
    pairs = [np.fromiter(chain.from_iterable(c), dtype=int).reshape(-1, 2)
             for c in intra_edges]
    pairs = np.concatenate([p[np.lexsort(p.T[::-1])] for p in pairs]
                           or [np.zeros((0, 2), dtype=int)])
    senders, receivers = pairs.ravel(), pairs[:, ::-1].ravel()
    directed = list(zip(senders.tolist(), receivers.tolist()))
    cross = sorted(edges - intra)
    return (senders, receivers, directed, np.arange(len(directed)) ^ 1,
            np.array([v for (i, j) in cross for v in (i, j)], dtype=int),
            np.array([v for (i, j) in cross for v in (j, i)], dtype=int))


@given(tree_partition_cases(), st.integers(0, 2 ** 32 - 1), st.integers(-3, 1),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_pairwise_layout_equals_the_edge_set_construction(case, seed, extra_nodes, smooth):
    """The layout built by array operations from ``intra_pairs`` holds the
    arrays of the edge-set construction, and raises the same
    PartitionMismatch: on random tree partitions of problems that lack
    some of the graph's edges, hold other pairs, or have one node more or
    up to three fewer than the graph; on random groupings of the problem's pairs; and
    on every pair in one group (plain min-sum). Quadratic and smooth
    problems are read through their own pair codes."""
    from mpjacobi.objective import SmoothObjective
    from mpjacobi.topology import NonTreeCluster

    graph, clusters = case
    rng = np.random.default_rng(seed)
    m = max(1, graph.m + extra_nodes)
    pairs = {e for e in graph.edges if e[1] < m and rng.random() < 0.85}
    pairs |= {(min(a, b), max(a, b)) for a, b in rng.integers(0, m, (3, 2)) if a != b}
    if smooth:
        problem = SmoothObjective(m, 1, [None] * m, {e: None for e in pairs})
    else:
        problem = QuadraticObjective(m, 1, np.ones((m, 1, 1)), np.zeros((m, 1)),
                                     {e: np.ones((1, 1)) for e in sorted(pairs)})
    labels = rng.integers(0, 3, len(pairs))
    groups = [[e for e, r in zip(sorted(pairs), labels) if r == g] for g in range(3)]
    cases = [(np.array([e for grp in groups for e in grp], dtype=int).reshape(-1, 2), groups),
             (None, [problem.graph_edges()])]
    try:
        part = validate_tree_partition(graph, clusters, warn_nonoverlap=False)
        cases.append((part.intra_pairs, part.intra_edges))
    except NonTreeCluster:
        pass
    for array, edge_sets in cases:
        try:
            want = _layout_before(problem, edge_sets)
        except PartitionMismatch as exc:
            with pytest.raises(PartitionMismatch) as info:
                solvers._PairwiseLayout(problem, array)
            assert str(info.value) == str(exc)
            continue
        lay = solvers._PairwiseLayout(problem, array)
        assert lay.directed.shape == (len(want[2]), 2)
        assert lay.directed.tolist() == [list(e) for e in want[2]]
        for got, ref in zip((lay.senders, lay.receivers, lay.rev, lay.csrc, lay.cdst),
                            want[:2] + want[3:]):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


_GATE_SPECIALS = (np.nan, -np.nan, np.inf, -np.inf, 1e308, -1e308, 1e12, -1e12,
                  np.nextafter(1e12, np.inf), -np.nextafter(1e12, np.inf),
                  np.nextafter(1e12, 0.0), 5e11, -np.nextafter(5e11, np.inf))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(1, 2),
       st.integers(1, 150), st.floats(-3.0, 12.5), st.floats(-3.0, 11.5), st.booleans(),
       st.sampled_from([0.0, 0.0, 0.02, 0.2]))
@settings(max_examples=300, deadline=None)
def test_gated_divergence_verdict_equals_the_rule(seed, m, d, n, start, step, drift,
                                                  special):
    """The driver reads the divergence rule only when its running bound
    passes the gate, yet every round's verdict is ``_diverged``'s on that
    round's iterate: on random iterate sequences that start at magnitudes
    up to 3e12 and move by steps up to 3e11 (with a drift, long runs of
    small steps that sum past the gate), some entries set to NaNs of both
    signs, +-inf, +-1e308 or values at and beside 1e12 and 5e11."""
    rng = np.random.default_rng(seed)
    xs = [rng.uniform(-1.0, 1.0, (m, d)) * 10.0 ** start]
    for _ in range(n):
        x = xs[-1] + rng.uniform(0.0 if drift else -1.0, 1.0, (m, d)) * 10.0 ** step
        hit = rng.random((m, d)) < special
        x[hit] = rng.choice(_GATE_SPECIALS, np.count_nonzero(hit))
        xs.append(x)
    q = QuadraticObjective(m, d, np.tile(np.eye(d), (m, 1, 1)), np.zeros((m, d)))

    def start_rounds(x):
        rounds = iter(xs[1:])
        return lambda x: (next(rounds).copy(), 0)

    with np.errstate(all="ignore"):
        trace = solvers._drive(q, None, SolverConfig(max_rounds=n, tol_x=0.0), xs[0],
                               start_rounds)
        want = (n, "max_rounds")
        for k in range(1, n + 1):
            if np.abs(xs[k] - xs[k - 1]).max() <= 0.0:
                want = (k, "tol_x")
            elif solvers._diverged(xs[k]):
                want = (k, "diverged")
            else:
                continue
            break
    assert (trace.rounds, trace.stop_reason) == want
