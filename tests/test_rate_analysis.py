from dataclasses import fields, replace
from unittest import mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjacobi.bench import cta_instance
from mpjacobi.messages import SurrogateSpec
from mpjacobi.objective import (
    CallableLocal,
    NotQuadratic,
    QuadraticObjective,
    build_cta,
    build_laplacian_qp,
    build_random_qp,
    metropolis_weights,
    QuadraticLocal,
)
from mpjacobi import rate_analysis
from mpjacobi.rate_analysis import (
    ConstantsTemplate,
    MatrixTooLarge,
    RateError,
    RateInputs,
    _bar_L,
    compute_A,
    estimate_constants,
    fit_loglog,
    grid_partition_optimizer,
    rate_terms,
    ring_partition_optimizer,
    spectral_rate_oracle,
    three_terms,
)
from mpjacobi.solvers import SolverConfig, delayed_block_jacobi
from mpjacobi.verify import check_descent_lemmas, check_surrogate_regularity
from mpjacobi.topology import generate_partition, generate_topology, validate_tree_partition, Graph
from test_rate_reports import RING_SIZES, _instances as rate_report_instances
from test_rate_reports import _surrogates as rate_report_surrogates


def test_estimate_constants_identity():
    q = QuadraticObjective(3, 1, np.ones((3, 1, 1)), np.zeros((3, 1)), {})
    g = Graph(3, {(0, 1), (1, 2)})
    part = validate_tree_partition(g, [[0], [1], [2]])
    inputs = estimate_constants(q, part)
    assert inputs.mu == pytest.approx(1.0)
    assert all(v == pytest.approx(1.0) for v in inputs.mu_r)
    assert all(v == pytest.approx(1.0) for v in inputs.L_r)
    assert all(v == 0.0 for v in inputs.L_del_r)


def test_estimate_constants_2x2():
    q = QuadraticObjective(2, 1, np.full((2, 1, 1), 2.0), np.zeros((2, 1)),
                           {(0, 1): np.array([[1.0]])})
    g = Graph(2, {(0, 1)})
    part = validate_tree_partition(g, [[0], [1]])
    inputs = estimate_constants(q, part)
    assert inputs.mu == pytest.approx(1.0)      # eig of [[2,1],[1,2]]
    assert inputs.mu_r == [pytest.approx(2.0)] * 2
    assert inputs.L_del_r == [pytest.approx(1.0)] * 2


def test_compute_A_hand_value():
    # L_r=2, mu_r=1, L_del=1, |C_r|=3, D_r=2 -> A_r = 5*1*3*2/4 = 7.5
    g = generate_topology("ring", m=6)
    part = validate_tree_partition(g, [[0, 1, 2], [3], [4], [5]])
    inputs = RateInputs(mu=0.5, mu_r=[1.0, 1, 1, 1], L_r=[2.0, 2, 2, 2],
                        L_del_r=[1.0, 0, 0, 0], kappa=4.0,
                        sigma_r=[2, 1, 1, 1])
    A_r, A_J, At_r = compute_A(part, inputs)
    assert A_r[0] == pytest.approx(7.5)
    assert A_r[1:] == [0.0, 0.0, 0.0]
    assert A_J == pytest.approx(7.5)


def test_compute_A_singletons_vacuous():
    g = generate_topology("ring", m=4)
    part = generate_partition("all_singletons", g)
    inputs = RateInputs(mu=1.0, mu_r=[1.0] * 4, L_r=[1.0] * 4,
                        L_del_r=[0.5] * 4, kappa=1.0, sigma_r=[1] * 4)
    A_r, A_J, _ = compute_A(part, inputs)
    assert A_J == 0.0
    rep = rate_terms(part, inputs)
    assert rep.term_III == float("inf")
    assert rep.regime in ("I", "II")


def test_rate_terms_hand_example():
    # kappa=10, p=4, D=2, min mu_J=1, A_J=5 -> tau ~ 0.0707, regime III
    g = generate_topology("ring", m=12)
    part = generate_partition("ring_P2", g, D=2)
    L_del = np.sqrt(2.0 / 3.0)   # makes A_r = 7.5 * (2/3) = 5
    inputs = RateInputs(mu=0.2, mu_r=[1.0] * 4, L_r=[2.0] * 4,
                        L_del_r=[L_del] * 4, kappa=10.0, sigma_r=[2] * 4)
    A_r, A_J, _ = compute_A(part, inputs)
    assert A_J == pytest.approx(5.0)
    rep = rate_terms(part, inputs)
    assert rep.term_I == pytest.approx(0.25)
    assert rep.term_II == pytest.approx(4.0)
    assert rep.term_III == pytest.approx(np.sqrt(1.0 / 200.0))
    assert rep.regime == "III"
    assert rep.rho == pytest.approx(1 - np.sqrt(1 / 200.0) / 20.0)


def test_regime_sensitivity():
    """Perturbing the active driver changes rho; inactive drivers do not."""
    g = generate_topology("ring", m=12)
    part = generate_partition("ring_P2", g, D=2)

    def report(kappa, L_del):
        inputs = RateInputs(mu=2.0 / kappa, mu_r=[1.0] * 4, L_r=[2.0] * 4,
                            L_del_r=[L_del] * 4, kappa=kappa, sigma_r=[2] * 4)
        return rate_terms(part, inputs)

    base = report(10.0, np.sqrt(2 / 3))
    assert base.regime == "III"
    stronger = report(10.0, np.sqrt(2 / 3) * 2)   # driver of III
    assert stronger.rho > base.rho
    # p (driver of term I) is inactive: changing kappa's term II only does
    # not move rho while III stays active
    same = report(12.0, np.sqrt(2 / 3))
    assert same.term_III == pytest.approx(base.term_III)


def test_ring_optimizers_scalings():
    # template with the coupling tuned so the balance constant is ~1; the
    # factor-2 claims concern the scaling, not the template constant
    t = ConstantsTemplate(mu_cluster=1.0, L_cluster=1.0,
                          L_boundary=np.sqrt(1.0 / 6.0) / np.sqrt(2.0),
                          kappa=4.0)
    D1, p1, slope1 = ring_partition_optimizer(4000, "P1", t)
    D2, p2, slope2 = ring_partition_optimizer(4000, "P2", t)
    # asymptotic optimizers: D* ~ m^{2/3} (P1), p* ~ m^{3/5} (P2)
    assert 0.5 * 4000 ** (2 / 3) <= D1 <= 2.0 * 4000 ** (2 / 3)
    assert 0.5 * 4000 ** (3 / 5) <= p2 <= 2.0 * 4000 ** (3 / 5)
    # fitted (1 - rho)^{-1} exponents: ~1 for P1, ~3/5 for P2
    assert slope1 == pytest.approx(1.0, abs=0.1)
    assert slope2 == pytest.approx(0.6, abs=0.1)
    assert slope2 < slope1 - 0.15


def test_ring_optimizer_matches_exhaustive_small():
    t = ConstantsTemplate(kappa=4.0)
    for m in (24, 60, 120, 360):
        D, p, _ = ring_partition_optimizer(m, "P2", t)
        # exhaustive over admissible D
        best = None
        for Dc in range(1, m):
            if m % (Dc + 1) or Dc + 1 >= m:
                continue
            from mpjacobi.rate_analysis import _three_terms_ring

            I, II, III, pc = _three_terms_ring(m, Dc, "P2", t)
            v = min(I, II, III)
            if best is None or v > best[0]:
                best = (v, Dc)
        assert D == best[1]


def test_grid_optimizer():
    D, p, slope = grid_partition_optimizer(4096, ConstantsTemplate(kappa=4.0))
    s = 64
    assert p == 4096 - D * s
    assert slope == pytest.approx(0.75, abs=0.1)
    # m=9 exhaustive agrees (D in {1, 2})
    D9, p9, _ = grid_partition_optimizer(9, ConstantsTemplate(kappa=4.0))
    assert D9 in (1, 2)


def test_grid_optimizer_rejects_side_below_two():
    # a 1 x 1 (or empty) grid has no path cluster, as generate_topology's
    # grid2d has no side below 2
    for m in (0, 1):
        with pytest.raises(RateError):
            grid_partition_optimizer(m)


def test_fit_loglog_exact_and_noisy():
    xs = np.array([10, 20, 40, 80, 160], dtype=float)
    ys = 3.0 * xs ** 0.6
    slope, resid = fit_loglog(xs, ys)
    assert slope == pytest.approx(0.6, abs=1e-6)
    rng = np.random.default_rng(0)
    ys2 = ys * np.exp(rng.normal(0, 0.05, size=len(xs)))
    slope2, _ = fit_loglog(xs, ys2)
    assert slope2 == pytest.approx(0.6, abs=0.05)


def test_spectral_oracle_singleton_reduction():
    g = generate_topology("ring", m=5)
    q = build_random_qp(g, 1, 20.0, 0)
    part = generate_partition("all_singletons", g)
    tau = 0.2
    rho = spectral_rate_oracle(q, part, tau)
    H, _ = q.assemble()
    Dm = np.diag(np.diag(H))
    T = -np.linalg.solve(Dm, H - Dm)
    ref = np.max(np.abs(np.linalg.eigvals((1 - tau) * np.eye(5) + tau * T)))
    assert rho == pytest.approx(ref, rel=1e-12)
    assert spectral_rate_oracle(q, part, 0.0) == pytest.approx(1.0)


def test_spectral_oracle_bounds_theorem_rho():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 11))
        g = generate_topology("ring", m=m)
        part = generate_partition("ring_P1", g, D=2)
        q = build_random_qp(g, 1, 30.0, seed)
        inputs = estimate_constants(q, part)
        rep = rate_terms(part, inputs)
        rho_emp = spectral_rate_oracle(q, part, rep.tau_max)
        assert rho_emp <= rep.rho + 1e-9


def test_spectral_oracle_psd_consensus_excludes_fixed_space():
    g = generate_topology("ring", m=6)
    W = metropolis_weights(g).W
    diag = np.stack([(1 - W[i, i]) * np.eye(1) for i in range(6)])
    pair = {(i, j): np.array([[-W[i, j]]])
            for i in range(6) for j in range(i + 1, 6) if W[i, j] > 0}
    q = QuadraticObjective(6, 1, diag, np.zeros((6, 1)), pair)   # H = I - W
    part = generate_partition("ring_P2", g, D=1)
    rho = spectral_rate_oracle(q, part, 0.3)
    assert 0 < rho < 1.0


def test_spectral_oracle_laplacian_matches_observed_rate():
    """Voltage problem on a weighted 12-node ring: the Laplacian is singular,
    so the oracle must drop the fixed space (constant lifts of 1) and return
    the contraction of the error with its mean removed."""
    rng = np.random.default_rng(0)
    m = 12
    g = generate_topology("ring", m=m)
    weights = np.zeros((m, m))
    for (i, j) in sorted(g.edges):
        weights[i, j] = weights[j, i] = rng.uniform(0.5, 2.0)
    b = rng.standard_normal(m)
    q = build_laplacian_qp(weights, b - b.mean())
    part = generate_partition("ring_P2", g, D=2)
    tau = 0.3
    rho = spectral_rate_oracle(q, part, tau)
    x_star = np.linalg.pinv(q.assemble()[0]) @ (b - b.mean())
    tr = delayed_block_jacobi(
        q, part, SolverConfig(tau=tau, max_rounds=300, tol_x=0.0, monitor=True),
        x0=rng.standard_normal((m, 1)))

    def err(x):
        e = x.ravel() - x_star
        return np.linalg.norm(e - e.mean())

    observed = (err(tr.x_history[300]) / err(tr.x_history[150])) ** (1 / 150)
    assert rho < 1.0
    assert rho == pytest.approx(observed, abs=1e-4)


def test_spectral_oracle_size_cap():
    g = generate_topology("ring", m=40)
    q = build_random_qp(g, 2, 10.0, 0)
    part = generate_partition("ring_P1", g, D=37)
    with pytest.raises(MatrixTooLarge):
        spectral_rate_oracle(q, part, 0.1, cap=1000)


def test_surrogate_constants_first_order():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 10.0, 1)
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="first_order", alpha=0.05)
    inputs = estimate_constants(q, part, surrogate=spec)
    assert all(v == pytest.approx(20.0) for v in inputs.mu_tilde_r)
    assert all(v == pytest.approx(20.0) for v in inputs.L_tilde_r)
    # edge-reference sensitivity: per edge the cross block enters twice
    assert all(v > 0 for r, v in enumerate(inputs.ell_tilde_r)
               if len(part.clusters[r]) > 1)
    rep = rate_terms(part, inputs, surrogate=True)
    assert 0 < rep.tau_max <= 1 / part.p


def test_surrogate_constants_partial_linearization():
    g = generate_topology("ring", m=6)
    W = metropolis_weights(g, gamma=0.05)
    rng = np.random.default_rng(2)
    locs = [QuadraticLocal(np.eye(1) * rng.uniform(0.5, 1.5),
                           rng.standard_normal(1)) for _ in range(6)]
    prob = build_cta(locs, W)
    q = prob.to_quadratic()
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="partial_linearization", Q=1.0)
    inputs = estimate_constants(q, part, surrogate=spec, cta=prob)
    # couplings are exact: no edge-reference sensitivity
    assert all(v == 0.0 for v in inputs.ell_tilde_r)
    assert all(v > 0 for v in inputs.mu_tilde_r)


@pytest.mark.parametrize("name", sorted(
    n for n in rate_report_instances() if n.startswith(("ring_d2/", "random/")))
    + [f"cta_d2/{m}" for m in RING_SIZES])
def test_bar_L_bounds_the_surrogate_constants(name):
    """bar_L_r is the 2-norm of a Hessian that holds K, J and Jb as blocks,
    so it bounds L~_r, ell~_r and L~del_r of every cluster, for every
    family (Schur with M_node = I too)."""
    if name.startswith("cta_d2/"):
        g, _, cta = cta_instance(m=int(name.split("/")[1]), d=2, gamma=0.05)
        q, part = cta.to_quadratic(), generate_partition("ring_P2", g, D=3)
        specs = {"pl": SurrogateSpec(family="partial_linearization", Q=1.0)}
    else:
        (q, part), cta = rate_report_instances()[name](), None
        specs = rate_report_surrogates(q)
        del specs["exact"]
        specs["schur_M_I"] = replace(specs["schur"], M_node=np.eye(q.d))
    H, _ = q.assemble()
    for tag, spec in specs.items():
        inputs = estimate_constants(q, part, surrogate=spec, cta=cta)
        for r in range(part.p):
            bound = max(inputs.L_tilde_r[r], inputs.ell_tilde_r[r],
                        inputs.L_tilde_del_r[r])
            bar_L = _bar_L(q, part, spec, cta, r, H)
            assert bar_L >= bound * (1 - 1e-12), (tag, r, bar_L, bound)


def _two_gateway_partition():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return validate_tree_partition(generate_topology("ring", m=4), [[0, 1, 2], [3]])


def _on_cta(call, quadratic=True):
    """``call(q, part, cta)`` on a 4-node CTA problem: its quadratic form, the
    ring_P2 D = 1 partition and the CTA problem itself, whose losses are
    callbacks when ``quadratic`` is False."""
    def run():
        g, W, cta = cta_instance(m=4, d=1, gamma=0.05)
        q = cta.to_quadratic()
        if not quadratic:
            cta = build_cta([CallableLocal(f.value, f.grad) for f in cta.locals_], W, d=1)
        return call(q, generate_partition("ring_P2", g, D=1), cta)
    return run


_PL = SurrogateSpec(family="partial_linearization", Q=1.0)
_ring4 = lambda: build_random_qp(generate_topology("ring", m=4), 1, 10.0, 0)

# the smallest malformed input for each raise of rate_analysis and verify
MALFORMED = {
    "RateInputs/mu<0": (RateError, lambda: RateInputs(
        mu=-1.0, mu_r=[1.0], L_r=[1.0], L_del_r=[0.0], kappa=1.0)),
    "RateInputs/mu_r>L_r": (RateError, lambda: RateInputs(
        mu=1.0, mu_r=[2.0], L_r=[1.0], L_del_r=[0.0], kappa=1.0)),
    "three_terms/kappa<=0": (RateError, lambda: three_terms(1, 1, 0.0)),
    "three_terms/p<1": (RateError, lambda: three_terms(0, 1, 1.0)),
    "ring_optimizer/strategy": (RateError, lambda: ring_partition_optimizer(8, "P3")),
    "grid_optimizer/side": (RateError, lambda: grid_partition_optimizer(1)),
    "spectral_oracle/two_gateways": (RateError, lambda: spectral_rate_oracle(
        _ring4(), _two_gateway_partition(), 0.5)),
    "spectral_oracle/too_large": (MatrixTooLarge, lambda: spectral_rate_oracle(
        _ring4(), generate_partition("all_singletons", generate_topology("ring", m=4)),
        0.5, cap=3)),
    "estimate_constants/smooth": (NotQuadratic, _on_cta(
        lambda q, part, cta: estimate_constants(cta.to_smooth(), part))),
    "estimate_constants/pl_without_cta": (RateError, _on_cta(
        lambda q, part, cta: estimate_constants(q, part, surrogate=_PL))),
    "estimate_constants/pl_callback_cta": (NotQuadratic, _on_cta(
        lambda q, part, cta: estimate_constants(q, part, surrogate=_PL, cta=cta),
        quadratic=False)),
    "surrogate_regularity/smooth": (NotQuadratic, _on_cta(
        lambda q, part, cta: check_surrogate_regularity(cta.to_smooth(), part,
                                                        SurrogateSpec()))),
    "surrogate_regularity/pl_without_cta": (RateError, _on_cta(
        lambda q, part, cta: check_surrogate_regularity(q, part, _PL))),
    "surrogate_regularity/pl_callback_cta": (NotQuadratic, _on_cta(
        lambda q, part, cta: check_surrogate_regularity(q, part, _PL, cta=cta),
        quadratic=False)),
    "descent_lemmas/tau": (ValueError, lambda: check_descent_lemmas(
        _ring4(), generate_partition("ring_P2", generate_topology("ring", m=4), D=1),
        tau=0.9)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_raises_typed_error(case):
    error, call = MALFORMED[case]
    with pytest.raises(error):
        call()


@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=4, max_value=12),
       st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=11))
@settings(max_examples=40, deadline=None)
def test_estimate_constants_reads_cluster_blocks_bit_for_bit(seed, m, d, D, shift):
    """A path cluster of D + 1 nodes and singletons on a ring, rotated by
    ``shift``: the cluster's coordinates form one increasing run (read as
    a view of H) or wrap around the ring (an ``np.ix_`` copy). Either way
    every field of the RateInputs has the bits of an all-``np.ix_`` read."""
    D = min(D, m - 3)
    g = generate_topology("ring", m=m)
    q = build_random_qp(g, d, 30.0, seed)
    path = [(i + shift) % m for i in range(D + 1)]
    part = validate_tree_partition(g, [path] + [[i] for i in range(m) if i not in path])
    got = estimate_constants(q, part)
    with mock.patch.object(rate_analysis, "_principal_block",
                           lambda H, idx: H[np.ix_(idx, idx)]):
        want = estimate_constants(q, part)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None and b is None) or np.array_equal(
            np.asarray(a, dtype=float).view(np.int64), np.asarray(b, dtype=float).view(np.int64))
    H, _ = q.assemble()
    idx = rate_analysis._block_indices(sorted(path), d)
    contiguous = sorted(path) == list(range(min(path), min(path) + D + 1))
    assert np.shares_memory(rate_analysis._principal_block(H, idx), H) is contiguous
