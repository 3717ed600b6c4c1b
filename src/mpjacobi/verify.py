"""Executable checks: equivalence, descent, surrogate regularity, split
consistency, and the sublinear-rate certificates.

Every check returns a CheckReport. The sampled checks are deterministic
under their seed; the surrogate-regularity check samples nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .messages import SurrogateSpec
from .rate_analysis import (_bar_L, _block_indices, _cluster_surrogate,
                            estimate_constants, rate_terms)
from .solvers import SolverConfig, _central_step, delayed_block_jacobi, mp_jacobi
from .splitting import SplitError


@dataclass
class CheckReport:
    name: str
    passed: bool
    worst_violation: float
    tolerance: float
    witness: dict = field(default_factory=dict)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (f"{self.name}: {status} (worst violation {self.worst_violation:.3e},"
                f" tol {self.tolerance:.1e})")

    def to_json(self):
        import json

        return json.dumps({
            "check": self.name,
            "passed": bool(self.passed),
            "worst_violation": float(self.worst_violation),
            "tolerance": float(self.tolerance),
            "witness": {str(k): (v if isinstance(v, (int, float, str)) else str(v))
                        for k, v in self.witness.items()},
        })


def finite_diff_grad(f, x, h=None):
    """Central differences; step 1e-5 (1 + ||x||_inf)."""
    x = np.asarray(x, dtype=float)
    if h is None:
        h = 1e-5 * (1.0 + float(np.max(np.abs(x))) if x.size else 1.0)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for k in range(flat.size):
        e = np.zeros_like(flat)
        e[k] = h
        gf[k] = (f((flat + e).reshape(x.shape)) - f((flat - e).reshape(x.shape))) / (2 * h)
    return g


def check_gradient(problem, points=10, seed=0, rel_tol=1e-6):
    """Analytic gradients against central differences at random points."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = {}
    for t in range(points):
        x = rng.standard_normal((problem.m, problem.d))
        g = problem.grad(x)
        gf = finite_diff_grad(problem.value, x)
        err = np.linalg.norm(g - gf) / (1.0 + np.linalg.norm(gf))
        if err > worst:
            worst = err
            wit = {"point": t}
    return CheckReport("gradient_fd", worst <= rel_tol, float(worst), rel_tol, wit)


# ---------------------------------------------------------------------------
# equivalence of the message solver and the delayed reference


def check_equivalence_prop31(problem, partition, seeds=(0,), rounds=30,
                             tol=1e-10, tau=None):
    """Per-round sup-norm gap between the exact message solver (warm-started
    messages, matching the flat-window initialization of the reference) and
    the delayed block-Jacobi reference. Skipped with a warning witness when
    the single-gateway condition fails (precondition of the compact form).
    """
    if not partition.nonoverlap_ok:
        return CheckReport("prop31_equivalence", True, 0.0, tol,
                           {"skipped": "single-gateway condition violated"})
    if tau is None:
        tau = 1.0 / partition.p
    worst = 0.0
    wit = {}
    for seed in seeds:
        rng = np.random.default_rng(seed)
        x0 = rng.standard_normal((problem.m, problem.d))
        cfg_a = SolverConfig(tau=tau, max_rounds=rounds, tol_x=0.0,
                             message_init="warm_start", monitor=True)
        cfg_b = SolverConfig(tau=tau, max_rounds=rounds, tol_x=0.0, monitor=True)
        ta = mp_jacobi(problem, partition, cfg_a, x0=x0)
        tb = delayed_block_jacobi(problem, partition, cfg_b, x0=x0)
        for k, (xa, xb) in enumerate(zip(ta.x_history, tb.x_history)):
            gap = float(np.max(np.abs(xa - xb)))
            if gap > worst:
                worst = gap
                wit = {"seed": seed, "round": k}
    return CheckReport("prop31_equivalence", worst <= tol, worst, tol, wit)


# ---------------------------------------------------------------------------
# descent and delay-gap monitors


def _cluster_norm_sq(x, cluster):
    return float(np.sum(x[list(cluster)] ** 2))


def check_descent_lemmas(problem, partition, rounds=25, tau=None, x0=None,
                         seed=0, tol=1e-9):
    """Evaluate the three per-round inequalities the linear-rate proof runs on:

    (a) descent:   Phi(x+) <= Phi(x) + sum_r tau_r [ -||P_r grad Phi(x)||^2/(2 L_r)
                                + (L_r/2) ||P_r (xhat - xbar)||^2 ]
    (b) sufficient decrease:  Phi(x+) <= Phi(x) + sum_r tau_r [
             -(mu_r/4)||P_r(xhat - x)||^2 + ((L_r+mu_r)/2)||P_r(xbar - xhat)||^2 ]
    (c) delay gap: ||P_r(xhat - xbar)||^2 <= (L_del_r^2 |C_r| D_r / mu_r^2)
                    * sum over the last D_r rounds of ||P_del_r increment||^2.

    The run is warm-started so the message iterates coincide with the
    delayed block-Jacobi form the lemmas are stated for.
    """
    p = partition.p
    if tau is None:
        tau = 1.0 / p
    if tau * p > 1.0 + 1e-12:
        raise ValueError("stepsize schedule violates sum_r tau_r <= 1")
    inputs = estimate_constants(problem, partition)
    rng = np.random.default_rng(seed)
    if x0 is None:
        x0 = rng.standard_normal((problem.m, problem.d))
    cfg = SolverConfig(tau=tau, max_rounds=rounds, tol_x=0.0,
                       message_init="warm_start", monitor=True)
    tr = mp_jacobi(problem, partition, cfg, x0=x0)

    central = _central_step(problem, partition.clusters)
    worst = 0.0
    wit = {}
    xs = tr.x_history
    for k in range(len(tr.xhat_history)):
        x = xs[k]
        x_next = xs[k + 1]
        xhat = tr.xhat_history[k]
        xbar, _ = central(x)
        phi_x = problem.value(x)
        phi_next = problem.value(x_next)
        grad = problem.grad(x)
        rhs_a = rhs_b = phi_x
        for r, c in enumerate(partition.clusters):
            ga = _cluster_norm_sq(grad, c)
            gap = _cluster_norm_sq(xhat - xbar, c)
            move = _cluster_norm_sq(xhat - x, c)
            rhs_a += tau * (-ga / (2 * inputs.L_r[r]) + inputs.L_r[r] / 2 * gap)
            rhs_b += tau * (-inputs.mu_r[r] / 4 * move
                            + (inputs.L_r[r] + inputs.mu_r[r]) / 2 * gap)
            if len(c) > 1:
                Dr = partition.diameters[r]
                ext = sorted(partition.cluster_ext[r])
                acc = 0.0
                for ell in range(max(k - Dr, 0), k):
                    acc += _cluster_norm_sq(xs[ell + 1] - xs[ell], ext)
                bound = (inputs.L_del_r[r] ** 2 * len(c) * Dr
                         / inputs.mu_r[r] ** 2) * acc
                viol = gap - bound
                if viol > worst:
                    worst = viol
                    wit = {"inequality": "delay_gap", "round": k, "cluster": r}
        for name, rhs in (("descent", rhs_a), ("sufficient_decrease", rhs_b)):
            viol = phi_next - rhs
            if viol > worst:
                worst = viol
                wit = {"inequality": name, "round": k}
    return CheckReport("descent_lemmas", worst <= tol, float(worst), tol, wit)


# ---------------------------------------------------------------------------
# surrogate regularity


def check_surrogate_regularity(problem, partition, spec, cta=None,
                               tol_consistency=1e-8, tol_major=1e-9):
    """Exact certificates of two conditions on each cluster's aggregated
    surrogate tilde Phi_r = 1/2 z^T S z + s^T z over z = (x_C, x_ext, y_C,
    y_out, y_E) (:func:`mpjacobi.rate_analysis._cluster_surrogate`). The
    excerpt in PAPER.md omits the paper's assumption on the surrogates;
    these are the conditions its rate theorem reads, over the references
    z = T w, T = :meth:`ClusterSurrogate.references`:
    w = (x_C, x_ext, y_C) free, y_out = x_ext, and each intra edge's
    references at its endpoints' node references.

    (i) consistency: with every reference at the iterate, the x_C gradient
        is the cluster's rows of grad Phi = H x + b, (H, b) =
        ``problem.assemble()``: S[x_C] T E = H[C, C + ext] and
        s[x_C] = b[C], E embedding (x_C, x_ext) as w with y_C = x_C.
        Violation relative to 1 + the largest entry of H[C, C + ext], b[C].
    (ii) majorization Phi_r <= tilde Phi_r on the range of T, Phi_r (the
        part of Phi that reads x_C) being the exact family's quadratic:
        lambda_min(T^T (S - S_exact) T) >= 0 and T^T (s - s_exact) = 0, up
        to tol_major times the largest entry of both surrogates (and 1).
        First-order couplings do not majorize off the range of T.

    A failing witness names the check and the worst cluster. Needs a
    QuadraticObjective (and, for partial linearization, a ``cta`` with
    QuadraticLocal losses); raises NotQuadratic otherwise.
    """
    surs = [(_cluster_surrogate(problem, partition, spec, cta, r),
             _cluster_surrogate(problem, partition, SurrogateSpec(), None, r))
            for r in range(partition.p)]
    H, b = problem.assemble()
    cons, major = [], []
    for sur, exact in surs:
        T = sur.references()
        at = _block_indices(sur.nodes + sur.ext, problem.d)
        n = sur.x_C.stop
        G = sur.S[sur.x_C] @ T
        G[:, :n] += G[:, len(at):]     # E: y_C = x_C
        H_C, b_C = H[np.ix_(at[:n], at)], b[at[:n]]
        cons.append(max(np.abs(G[:, :len(at)] - H_C).max(), np.abs(sur.s[:n] - b_C).max())
                    / (1.0 + max(np.abs(H_C).max(), np.abs(b_C).max())))
        scale = max(1.0, *(np.abs(a).max() for a in (sur.S, sur.s, exact.S, exact.s)))
        lam = np.linalg.eigvalsh(T.T @ (sur.S - exact.S) @ T)[0]
        major.append(max(-lam, np.abs(T.T @ (sur.s - exact.s)).max()) / scale)
    wit = {"consistency_violation": max(cons), "majorization_violation": max(major)}
    checks = (("majorization", major, tol_major),
              ("gradient_consistency", cons, tol_consistency))
    failed = [(name, errs) for name, errs, tol in checks if max(errs) > tol]
    if failed:
        wit.update(check=failed[0][0], cluster=int(np.argmax(failed[0][1])))
    return CheckReport("surrogate_regularity", not failed, float(max(cons + major)),
                       max(tol_consistency, tol_major), wit)


def check_split_consistency(view, samples=50, seed=0, tol=1e-8):
    """Gradient-sum identity of a compiled split: at consistent references
    (every reference at x) the gradient of the split surrogate,
    :meth:`SplitQuadraticView.grad`, is grad Phi, at ``samples`` random x.

    The error at node i is ||g_i - grad_i Phi|| / (1 + ||grad_i Phi||); the
    witness names the worst node and its sample. Raises SplitError when the
    problem has pair couplings, which the split view does not read.
    """
    problem = view.problem
    if problem.pair:
        raise SplitError("split consistency needs a problem without pair couplings")
    rng = np.random.default_rng(seed)
    worst = 0.0
    wit = {}
    for t in range(samples):
        x = rng.standard_normal((problem.m, problem.d))
        ref = problem.grad(x)
        err = (np.linalg.norm(view.grad(x) - ref, axis=1)
               / (1.0 + np.linalg.norm(ref, axis=1)))
        i = int(np.argmax(err))
        if err[i] > worst:
            worst = float(err[i])
            wit = {"node": i, "sample": t}
    return CheckReport("split_consistency", worst <= tol, worst, tol, wit)


# ---------------------------------------------------------------------------
# sublinear certificates


def check_sublinear_convex(problem, partition, spec, cta, tau, trace, x0,
                           x_star, phi_star, inputs, tol=1e-9):
    """Convex 1/nu bound past the theorem burn-in.

    RHS(nu) = (Phi(x0) - Phi* + Lt_min ||x0 - x*||^2 / (2 tau max_r |C_r|)) / nu,
    burn-in = 8 (Lt - mu_t / max|C_r|) / mu_t + p K / A, with A = A_J + max At_r
    the constant of term III of the surrogate :func:`rate_terms`, and
    K = max_r { bar_L_r (sigma_r + 1)(2 D_r + 1)/2
                + |C_r|^2 D_r (Lt_del_r^2 + sigma_r ell_t_r^2) / (2 mu_t_r^2) }.
    """
    mu_t = min(inputs.mu_tilde_r)
    L_t = max(inputs.L_tilde_r)
    L_t_min = min(inputs.L_tilde_r)
    cmax = max(len(c) for c in partition.clusters)
    H, _ = problem.assemble()
    K = 0.0
    for r, c in enumerate(partition.clusters):
        Dr = partition.diameters[r]
        bar_L = _bar_L(problem, partition, spec, cta, r, H)
        term = (bar_L * (inputs.sigma_r[r] + 1) * (2 * Dr + 1) / 2
                + len(c) ** 2 * Dr
                * (inputs.L_tilde_del_r[r] ** 2
                   + inputs.sigma_r[r] * inputs.ell_tilde_r[r] ** 2)
                / (2 * inputs.mu_tilde_r[r] ** 2))
        K = max(K, term)
    A = rate_terms(partition, inputs, surrogate=True).A
    burn_in = 8 * (L_t - mu_t / cmax) / mu_t
    if A > 0:
        burn_in += partition.p * K / A
    burn_in = int(math.ceil(burn_in))
    phi0 = problem.value(x0)
    num = (phi0 - phi_star
           + L_t_min * float(np.sum((x0 - x_star) ** 2)) / (2 * tau * cmax))
    worst = -float("inf")
    wit = {"burn_in": burn_in}
    checked = 0
    for nu in range(max(burn_in, 1), len(trace.phi_gap)):
        viol = trace.phi_gap[nu] - num / nu
        checked += 1
        if viol > worst:
            worst = viol
            wit["round"] = nu
    if checked == 0:
        return CheckReport("sublinear_convex", False, float("inf"), tol,
                           {"error": "trace shorter than burn-in", **wit})
    return CheckReport("sublinear_convex", worst <= tol, float(worst), tol, wit)


def check_sublinear_nonconvex(problem, trace_grad_norms, tau, L_tilde,
                              phi0, phi_star, D, tol=1e-9):
    """Nonconvex certificate: for every nu,
    min over the window {D, ..., nu+D-1} of ||grad Phi||^2
      <= 4 Lt (Phi(x0) - Phi*) / (tau nu).
    """
    g2 = [v ** 2 for v in trace_grad_norms]
    worst = -float("inf")
    wit = {}
    best = float("inf")
    # prefix minima of g2 from index D on
    for nu in range(1, len(g2) - D):
        best = min(best, min(g2[D:nu + D]) if nu == 1 else g2[nu + D - 1])
        rhs = 4 * L_tilde * (phi0 - phi_star) / (tau * nu)
        viol = best - rhs
        if viol > worst:
            worst = viol
            wit = {"round": nu}
    return CheckReport("sublinear_nonconvex", worst <= tol, float(worst), tol, wit)
