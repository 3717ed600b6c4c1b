import numpy as np
import pytest

from mpjacobi.bench import cta_instance
from mpjacobi.messages import SurrogateSpec
from mpjacobi.objective import (
    QuadraticLocal,
    build_cta,
    build_laplacian_qp,
    build_random_qp,
    global_solve_oracle,
    metropolis_weights,
)
from mpjacobi.rate_analysis import _cluster_surrogate, estimate_constants
from mpjacobi.solvers import SolverConfig, mp_jacobi_surrogate, select_stepsize
from mpjacobi.topology import generate_partition, generate_topology, validate_tree_partition
from mpjacobi.verify import (
    SurrogateEvaluator,
    check_descent_lemmas,
    check_equivalence_prop31,
    check_gradient,
    check_sublinear_convex,
    check_sublinear_nonconvex,
    check_surrogate_regularity,
)


def test_equivalence_check_passes_and_skips():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 25.0, 0)
    part = validate_tree_partition(g, [[0, 1, 2], [3], [4], [5]])
    rep = check_equivalence_prop31(q, part, seeds=(0, 1), rounds=20)
    assert rep.passed and rep.worst_violation <= 1e-10
    # violated single-gateway condition: skipped with a witness
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        bad = validate_tree_partition(generate_topology("ring", m=4), [[0, 1, 2], [3]])
    rep2 = check_equivalence_prop31(q_small(), bad, seeds=(0,))
    assert rep2.passed and "skipped" in rep2.witness


def q_small():
    g = generate_topology("ring", m=4)
    return build_random_qp(g, 1, 10.0, 1)


def test_descent_lemmas_pass_on_scvx_quadratic():
    g = generate_topology("ring", m=8)
    q = build_random_qp(g, 2, 40.0, 2)
    part = generate_partition("ring_P2", g, D=1)
    rep = check_descent_lemmas(q, part, rounds=20, seed=3)
    assert rep.passed, str(rep)


def test_descent_lemmas_singleton_trivial():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 15.0, 4)
    part = generate_partition("all_singletons", g)
    rep = check_descent_lemmas(q, part, rounds=10)
    assert rep.passed


def test_descent_lemmas_stepsize_precondition():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 15.0, 4)
    part = generate_partition("ring_P2", g, D=1)
    with pytest.raises(ValueError):
        check_descent_lemmas(q, part, tau=0.9)   # 0.9 * p > 1


def test_surrogate_regularity_exact_family():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 5)
    part = generate_partition("ring_P2", g, D=1)
    rep = check_surrogate_regularity(q, part, SurrogateSpec(family="exact"),
                                     samples=30, seed=6)
    assert rep.passed
    assert rep.worst_violation <= 1e-5


def test_surrogate_regularity_first_order_small_alpha():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 7)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    part = generate_partition("ring_P2", g, D=1)
    ok = check_surrogate_regularity(
        q, part, SurrogateSpec(family="first_order", alpha=0.25 / L),
        samples=60, seed=8)
    assert ok.passed, str(ok)


def test_surrogate_regularity_detects_large_alpha():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 9)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    part = generate_partition("ring_P2", g, D=1)
    bad = check_surrogate_regularity(
        q, part, SurrogateSpec(family="first_order", alpha=10.0 / L),
        samples=60, seed=10)
    assert not bad.passed
    assert bad.witness.get("check") == "majorization"


def test_surrogate_evaluator_consistency_partial_linearization():
    g = generate_topology("ring", m=6)
    W = metropolis_weights(g, gamma=0.05)
    rng = np.random.default_rng(11)
    locs = [QuadraticLocal(np.eye(2) * rng.uniform(0.5, 1.0),
                           rng.standard_normal(2)) for _ in range(6)]
    prob = build_cta(locs, W)
    q = prob.to_quadratic()
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="partial_linearization", Q=1.0)
    rep = check_surrogate_regularity(q, part, spec, cta=prob, samples=40,
                                     seed=12)
    assert rep.passed, str(rep)


def _cta_d2_spec(family, q):
    d = q.d
    if family == "first_order":
        return SurrogateSpec(family="first_order", alpha=0.05)
    if family == "partial_linearization":
        return SurrogateSpec(family="partial_linearization", Q=1.0)
    return SurrogateSpec(
        family="schur_quadratic",
        Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.2 * np.eye(d) for i in range(q.m)]),
        M_node=np.eye(d), M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair})


@pytest.mark.parametrize("family", ["first_order", "schur_quadratic",
                                    "partial_linearization"])
def test_cluster_surrogate_curvature_is_the_evaluator_hessian(family):
    """K of the rate layer is the Hessian in x_C of the surrogate that
    SurrogateEvaluator evaluates, cross-cluster node curvatures included:
    second differences with step 1 are exact for a quadratic."""
    g, _, cta = cta_instance(m=12, d=2, gamma=0.05)
    q = cta.to_quadratic()
    part = generate_partition("ring_P2", g, D=2)
    spec = _cta_d2_spec(family, q)
    ev = SurrogateEvaluator(q, part, spec, cta)
    rng = np.random.default_rng(0)
    d = q.d
    for r, c in enumerate(part.clusters):
        K = _cluster_surrogate(q, part, spec, cta, r)[0]
        x = rng.standard_normal((q.m, d))
        refs = ({i: rng.standard_normal(d) for i in c},
                {k: rng.standard_normal(d) for i in c for k in part.n_out[i]},
                {e: (rng.standard_normal(d), rng.standard_normal(d))
                 for e in part.intra_edges[r]})

        def phi(*steps):
            xs = x.copy()
            for i, a in steps:
                xs[i, a] += 1.0
            return ev.tilde_phi_r(r, xs, *refs)

        coords = [(i, a) for i in c for a in range(d)]
        f0 = phi()
        f1 = [phi(s) for s in coords]
        f2 = np.array([[phi(s, t) for t in coords] for s in coords])
        fd = f2 - np.add.outer(f1, f1) + f0
        scale = max(np.abs(f2).max(), abs(f0), np.abs(K).max())
        assert np.abs(fd - K).max() <= 1e-12 * scale, (r, np.abs(fd - K).max())


def test_gradient_check_chains():
    g = generate_topology("ring", m=5)
    q = build_random_qp(g, 2, 12.0, 13)
    assert check_gradient(q, points=5, seed=13).passed


def _convex_laplacian_run():
    m = 8
    g = generate_topology("ring", m=m)
    w = np.zeros((m, m))
    for (i, j) in g.edges:
        w[i, j] = w[j, i] = 1.0
    rng = np.random.default_rng(14)
    b = rng.standard_normal(m)
    b -= b.mean()                     # consistent PSD system
    q = build_laplacian_qp(w, b)
    part = generate_partition("ring_P2", g, D=1)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    spec = SurrogateSpec(family="first_order", alpha=0.5 / L)
    inputs = estimate_constants(q, part, surrogate=spec)
    x_star, phi_star = global_solve_oracle(q)
    return q, part, spec, inputs, x_star, phi_star


def test_sublinear_convex_certificate():
    q, part, spec, inputs, x_star, phi_star = _convex_laplacian_run()
    from mpjacobi.rate_analysis import compute_A
    import math

    # convex-theorem stepsize
    A_r, A_J, At_r = compute_A(part, inputs, surrogate=True)
    mu_t = min(inputs.mu_tilde_r)
    L_t_min = min(inputs.L_tilde_r)
    L = max(inputs.L_r)
    sigma = max(inputs.sigma_r)
    cmax = max(len(c) for c in part.clusters)
    D = part.max_diameter
    denom = A_J + max(At_r)
    tau = min(1.0 / part.p,
              math.sqrt(mu_t / (16 * (D + 1) * denom)),
              L_t_min / ((L + (sigma + 1) * (D + 1)) * cmax))
    x0 = np.zeros((q.m, q.d))
    cfg = SolverConfig(tau=tau, max_rounds=3000, tol_x=0.0, surrogate=spec,
                       track_oracle=(x_star, phi_star))
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    rep = check_sublinear_convex(q, part, spec, None, tau, tr, x0,
                                 x_star, phi_star, inputs)
    assert rep.passed, str(rep)
    assert rep.witness["burn_in"] < 3000


def test_sublinear_nonconvex_certificate():
    q, part, spec, inputs, x_star, phi_star = _convex_laplacian_run()
    import math

    from mpjacobi.rate_analysis import compute_A

    A_r, A_J, At_r = compute_A(part, inputs, surrogate=True)
    mu_t = min(inputs.mu_tilde_r)
    D = part.max_diameter
    denom = A_J + max(At_r)
    tau = min(1.0 / part.p, math.sqrt(mu_t / (8 * max(D, 1) * denom)))
    x0 = np.zeros((q.m, q.d))
    cfg = SolverConfig(tau=tau, max_rounds=2000, tol_x=0.0, surrogate=spec,
                       track_oracle=(x_star, phi_star))
    tr = mp_jacobi_surrogate(q, part, cfg, x0=x0)
    rep = check_sublinear_nonconvex(q, tr.grad_norm, tau,
                                    max(inputs.L_tilde_r),
                                    q.value(x0), phi_star, D)
    assert rep.passed, str(rep)
