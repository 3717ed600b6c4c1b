from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjacobi import verify
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
from mpjacobi.rate_analysis import _bar_L, _cluster_surrogate, estimate_constants
from mpjacobi.solvers import SolverConfig, mp_jacobi_surrogate, select_stepsize
from mpjacobi.topology import generate_partition, generate_topology, validate_tree_partition
from mpjacobi.verify import (
    check_descent_lemmas,
    check_equivalence_prop31,
    check_gradient,
    check_sublinear_convex,
    check_sublinear_nonconvex,
    check_surrogate_regularity,
)
from test_acceptance import random_valid_instance
from test_rate_reports import _surrogates as rate_report_surrogates


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
    rep = check_surrogate_regularity(q, part, SurrogateSpec(family="exact"))
    assert rep.passed
    assert rep.worst_violation <= 1e-5


def test_surrogate_regularity_first_order_small_alpha():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 7)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    part = generate_partition("ring_P2", g, D=1)
    ok = check_surrogate_regularity(
        q, part, SurrogateSpec(family="first_order", alpha=0.25 / L))
    assert ok.passed, str(ok)


def test_surrogate_regularity_detects_large_alpha():
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 9)
    H, _ = q.assemble()
    L = float(np.linalg.eigvalsh(H)[-1])
    part = generate_partition("ring_P2", g, D=1)
    bad = check_surrogate_regularity(
        q, part, SurrogateSpec(family="first_order", alpha=10.0 / L))
    assert not bad.passed
    assert bad.witness.get("check") == "majorization"


def test_surrogate_regularity_reads_the_linear_terms(monkeypatch):
    """A surrogate with a linear term off x_C is linear in the references,
    so it majorizes nowhere. Its curvature, and so lambda_min, is the
    small-alpha surrogate's: only the linear-term comparison of check (ii)
    sees it. Check (i) reads s on x_C only and still passes."""
    g = generate_topology("ring", m=6)
    q = build_random_qp(g, 1, 20.0, 7)
    L = float(np.linalg.eigvalsh(q.assemble()[0])[-1])
    part = generate_partition("ring_P2", g, D=1)
    spec = SurrogateSpec(family="first_order", alpha=0.25 / L)

    def tilted(problem, partition, spec, cta, r):
        sur = _cluster_surrogate(problem, partition, spec, cta, r)
        if spec.family != "exact":
            sur.s[sur.x_C.stop:] += 1e-3
        return sur

    monkeypatch.setattr(verify, "_cluster_surrogate", tilted)
    rep = check_surrogate_regularity(q, part, spec)
    assert not rep.passed
    assert rep.witness["check"] == "majorization"
    assert rep.witness["consistency_violation"] <= 1e-8


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
    rep = check_surrogate_regularity(q, part, spec, cta=prob)
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# per-term reference of the aggregated cluster surrogate tilde Phi_r, batched
# over leading axes: x and y are (..., m, d) iterates and node references
# (y_C on C, y_out on its external neighbours), y_E the (..., 2|E_C|, d)
# edge references (y_i, y_j) of the intra edges in sorted order


def _quad(u, M, v):
    return np.einsum("...a,ab,...b->...", u, M, v)


def _ref_phi(q, i, x):
    return 0.5 * _quad(x, q.diag[i], x) + x @ q.lin[i]


def _ref_tilde_phi(q, spec, cta, i, x, y):
    """Node surrogate: phi_i (exact), phi_i linearized at y plus
    |x - y|^2 / (2 alpha) (first order) or 1/2 |x - y|_Q^2 (Schur), or f_i
    linearized at y plus 1/2 |x - y|_Q^2 and the exact gossip term
    (partial linearization)."""
    fam = spec.family
    if fam == "exact":
        return _ref_phi(q, i, x)
    dx = x - y
    Q = spec.node_matrices("Q", q.m, q.d)[i]
    if fam == "partial_linearization":
        f, W, g = cta.locals_[i], cta.gossip.W, cta.gamma
        return (0.5 * _quad(y, f.Q, y) + y @ f.c + np.sum((y @ f.Q.T + f.c) * dx, -1)
                + 0.5 * _quad(dx, Q, dx) + (1 - W[i, i]) / (2 * g) * np.sum(x * x, -1))
    lin = _ref_phi(q, i, y) + np.sum((y @ q.diag[i].T + q.lin[i]) * dx, -1)
    if fam == "first_order":
        return lin + 0.5 / spec.alpha * np.sum(dx * dx, -1)
    return lin + 0.5 * _quad(dx, Q, dx)


def _ref_tilde_psi(q, spec, i, j, u, v, yu, yv):
    """Edge surrogate: psi_ij (exact, partial linearization), psi_ij
    linearized at (yu, yv) (first order), plus the Schur M terms."""
    B = q.coupling(i, j)
    if spec.family in ("exact", "partial_linearization"):
        return _quad(u, B, v)
    du, dv = u - yu, v - yv
    val = _quad(yu, B, yv) + np.sum((yv @ B.T) * du, -1) + np.sum((yu @ B) * dv, -1)
    if spec.family == "first_order":
        return val
    d = q.d
    Mij = spec.edge_matrices([i], [j], q.m, d)[0]
    Mij = Mij if i < j else Mij.T
    Mn = spec.node_matrices("M", q.m, d)
    return (val + _quad(du, Mij, dv) + 0.5 * _quad(du, Mn[i], du)
            + 0.5 * _quad(dv, Mn[j], dv))


def _ref_tilde_phi_r(q, part, spec, cta, r, x, y, y_E):
    c = part.clusters[r]
    val = sum(_ref_tilde_phi(q, spec, cta, i, x[..., i, :], y[..., i, :]) for i in c)
    for t, (i, j) in enumerate(sorted(part.intra_edges[r])):
        val = val + _ref_tilde_psi(q, spec, i, j, x[..., i, :], x[..., j, :],
                                   y_E[..., 2 * t, :], y_E[..., 2 * t + 1, :])
    for i in c:
        for k in part.n_out[i]:
            val = val + _ref_tilde_psi(q, spec, i, k, x[..., i, :], x[..., k, :],
                                       y[..., i, :], y[..., k, :])
    return val


def _ref_Phi(q, x):
    val = sum(_ref_phi(q, i, x[..., i, :]) for i in range(q.m))
    for (i, j), B in q.pair.items():
        val = val + _quad(x[..., i, :], B, x[..., j, :])
    return val


def _second_differences(q, part, spec, cta, r, whole, seed=0):
    """Step-1 second differences (exact for a quadratic, up to rounding) of
    the reference at a random point, with the value there and the scale of
    the values read. ``whole=False``: tilde Phi_r over the coordinates of
    the assembled surrogate, (x_C, x_ext, y_C, y_out, y_E); ``whole=True``:
    tilde Phi_r + Phi - Phi_r over (x, y_C, y_out, y_E), x on every node."""
    m, d = q.m, q.d
    at = list(part.clusters[r]) + sorted(part.cluster_ext[r])
    n_e = 2 * len(part.intra_edges[r]) * d
    block = lambda nodes: (np.asarray(nodes)[:, None] * d + np.arange(d)).ravel()
    idx = np.concatenate([block(range(m) if whole else at), m * d + block(at),
                          2 * m * d + np.arange(n_e)])
    exact = SurrogateSpec()

    def f(w):
        x = w[..., :m * d].reshape(w.shape[:-1] + (m, d))
        y = w[..., m * d:2 * m * d].reshape(x.shape)
        y_E = w[..., 2 * m * d:].reshape(w.shape[:-1] + (-1, d))
        val = _ref_tilde_phi_r(q, part, spec, cta, r, x, y, y_E)
        if whole:
            val = val + _ref_Phi(q, x) - _ref_tilde_phi_r(q, part, exact, None, r, x, y, y_E)
        return val

    w0 = np.random.default_rng(seed).standard_normal(2 * m * d + n_e)
    E = np.zeros((len(idx), len(w0)))
    E[np.arange(len(idx)), idx] = 1.0
    f0, f1, f2 = f(w0), f(w0 + E), f(w0 + E[:, None] + E[None])
    scale = max(np.abs(f2).max(), abs(f0))
    return f2 - np.add.outer(f1, f1) + f0, f0, w0, scale


def _cta_d2_spec(family, q):
    d = q.d
    if family == "exact":
        return SurrogateSpec()
    if family == "first_order":
        return SurrogateSpec(family="first_order", alpha=0.05)
    if family == "partial_linearization":
        return SurrogateSpec(family="partial_linearization", Q=1.0)
    return SurrogateSpec(
        family="schur_quadratic",
        Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.2 * np.eye(d) for i in range(q.m)]),
        M_node=np.eye(d), M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair})


@pytest.mark.parametrize("family", ["first_order", "schur_quadratic",
                                    "partial_linearization", "exact"])
def test_cluster_surrogate_curvature_is_the_evaluator_hessian(family):
    """The assembled surrogate (S, s) of every cluster is the per-term
    reference: S entry by entry against the reference's step-1 second
    differences over (x_C, x_ext, y_C, y_out, y_E), its x_C block K (the
    rate layer's curvature, cross-cluster node curvatures included) among
    them, and the value 1/2 z^T S z + s^T z at a random point."""
    g, _, cta = cta_instance(m=12, d=2, gamma=0.05)
    q = cta.to_quadratic()
    part = generate_partition("ring_P2", g, D=2)
    spec = _cta_d2_spec(family, q)
    m, d = q.m, q.d
    for r in range(part.p):
        sur = _cluster_surrogate(q, part, spec, cta, r)
        fd, f0, w0, scale = _second_differences(q, part, spec, cta, r, whole=False)
        scale = max(scale, np.abs(sur.S).max())
        K = sur.S[sur.x_C, sur.x_C]
        assert np.abs(fd[sur.x_C, sur.x_C] - K).max() <= 1e-12 * scale, r
        assert np.abs(fd - sur.S).max() <= 1e-12 * scale, (r, np.abs(fd - sur.S).max())
        x = w0[:m * d].reshape(m, d)
        z = sur.stack(x, w0[m * d:2 * m * d].reshape(m, d),
                      w0[2 * m * d:].reshape(-1, d))
        assert sur.value(z) == pytest.approx(f0, rel=1e-12, abs=1e-12 * scale)


def _bar_L_covers_the_reference(q, part, spec, cta):
    """bar_L_r is at least the 2-norm of the reference's second-difference
    Hessian of tilde Phi_r + Phi - Phi_r, and at least the surrogate
    constants L~_r, ell~_r and L~del_r, on every cluster."""
    inputs = estimate_constants(q, part, surrogate=spec, cta=cta)
    H, _ = q.assemble()
    for r in range(part.p):
        fd = _second_differences(q, part, spec, cta, r, whole=True)[0]
        norm = np.linalg.norm(fd, 2)
        bar_L = _bar_L(q, part, spec, cta, r, H)
        assert bar_L >= norm * (1 - 1e-12), (spec.family, r, bar_L, norm)
        assert bar_L >= max(inputs.L_tilde_r[r], inputs.ell_tilde_r[r],
                            inputs.L_tilde_del_r[r]) * (1 - 1e-12), (spec.family, r)


def _specs_with_schur_identity(q):
    specs = rate_report_surrogates(q)
    del specs["exact"]
    specs["schur_M_I"] = replace(specs["schur"], M_node=np.eye(q.d))
    return specs


@pytest.mark.parametrize("family", ["first_order", "schur_quadratic",
                                    "partial_linearization"])
def test_bar_L_is_the_surrogate_smoothness_on_cta(family):
    """On cta_instance(8, 2, 0.05) with ring_P2 D = 1, whose surrogates have
    (y_E, y_E) blocks, partial linearization's y_C block and cross
    couplings that read y_out."""
    g, _, cta = cta_instance(m=8, d=2, gamma=0.05)
    q = cta.to_quadratic()
    part = generate_partition("ring_P2", g, D=1)
    _bar_L_covers_the_reference(q, part, _cta_d2_spec(family, q), cta)


def _drawn_instance(kind, seed):
    """(q, part, cta, specs) of one draw: a random single-gateway instance,
    a d = 2 random ring QP or a CTA instance (cta is None off CTA), with
    first-order, Schur (M_node 0.05 I and I) and, on CTA,
    partial-linearization surrogates."""
    cta = None
    if kind == "random":
        q, part = random_valid_instance(seed)
    else:
        m = 6 * (1 + seed % 2)
        if kind == "ring_d2":
            g = generate_topology("ring", m=m)
            q = build_random_qp(g, 2, 10.0, seed)
        else:
            g, _, cta = cta_instance(m=m, d=2, gamma=0.05, seed=seed)
            q = cta.to_quadratic()
        part = generate_partition("ring_P2", g, D=1 + seed // 2 % 2)
    specs = _specs_with_schur_identity(q)
    if cta is not None:
        specs["pl"] = SurrogateSpec(family="partial_linearization", Q=1.0)
    return q, part, cta, specs


@given(st.sampled_from(["random", "ring_d2", "cta_d2"]), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_bar_L_covers_the_reference_hessian(kind, seed):
    """bar_L against the reference on every family of a drawn instance."""
    q, part, cta, specs = _drawn_instance(kind, seed)
    for spec in specs.values():
        _bar_L_covers_the_reference(q, part, spec, cta)


def _reference_gap(q, part, cta, spec, r, w):
    """Phi_r - tilde Phi_r of the per-term reference at the quantified
    references of check (ii), batched over rows of w = (x_C, x_ext, y_C):
    y_out = x_ext, and intra-edge references are their endpoints' y."""
    m, d = q.m, q.d
    c, ext = list(part.clusters[r]), sorted(part.cluster_ext[r])
    x = np.zeros((len(w), m, d))
    y = np.zeros_like(x)
    x[:, c + ext] = w[:, :len(c + ext) * d].reshape(len(w), -1, d)
    y[:, c] = w[:, len(c + ext) * d:].reshape(len(w), -1, d)
    y[:, ext] = x[:, ext]
    y_E = y[:, np.ravel(sorted(part.intra_edges[r])).astype(int)]
    return (_ref_tilde_phi_r(q, part, SurrogateSpec(), None, r, x, y, y_E)
            - _ref_tilde_phi_r(q, part, spec, cta, r, x, y, y_E))


@given(st.sampled_from(["random", "ring_d2", "cta_d2"]), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_surrogate_regularity_eigenvalue_verdict_matches_the_reference(kind, seed):
    """Check (ii)'s verdict on every family of a drawn instance against the
    per-term reference: where lambda_min(T^T (S - S_exact) T) >= -1e-9
    scale, no sampled w has a positive reference gap; elsewhere the
    eigenvector has one, and the check fails with such a cluster as its
    witness. Schur with M_node = 0.05 I and partial linearization with
    Q = I fail on some draws."""
    q, part, cta, specs = _drawn_instance(kind, seed)
    rng = np.random.default_rng(seed)
    for tag, spec in specs.items():
        rep = check_surrogate_regularity(q, part, spec, cta)
        failing = []
        for r in range(part.p):
            sur = _cluster_surrogate(q, part, spec, cta, r)
            exact = _cluster_surrogate(q, part, SurrogateSpec(), None, r)
            T = sur.references()
            lam, V = np.linalg.eigh(T.T @ (sur.S - exact.S) @ T)
            w = np.vstack([V[:, 0], rng.standard_normal((64, len(V)))])
            gap = _reference_gap(q, part, cta, spec, r, w)
            scale = max(1.0, *(np.abs(a).max() for a in (sur.S, sur.s, exact.S, exact.s)))
            if lam[0] < -1e-9 * scale:
                failing.append(r)
                assert gap[0] > 0, (tag, r, lam[0], gap[0])
            else:
                bound = 1e-9 * scale * (1.0 + np.sum(w * w, axis=1))
                assert np.all(gap <= bound), (tag, r, np.max(gap / bound))
        assert rep.passed == (not failing), (tag, str(rep))
        assert not failing or (rep.witness["check"] == "majorization"
                               and rep.witness["cluster"] in failing), (tag, rep.witness)


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
