"""Convergence-theory constants, the three-term rate expression, partition
optimizers for rings and grids, and the delay-lift spectral oracle.

All constants are computed exactly for quadratic problems via dense
eigendecompositions; smooth problems must supply constants explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import NotQuadratic, QuadraticObjective


class RateError(ValueError):
    pass


class MatrixTooLarge(RateError):
    pass


@dataclass
class RateInputs:
    mu: float                       # global strong convexity
    mu_r: list                      # per-cluster curvature
    L_r: list                       # per-cluster smoothness
    L_del_r: list                   # boundary cross-Lipschitz
    kappa: float                    # max_r L_r / mu
    sigma_r: list = None            # max intra-cluster degree per cluster
    # surrogate-side constants (None when no surrogate is analyzed)
    mu_tilde_r: list = None
    L_tilde_r: list = None
    L_tilde_del_r: list = None
    ell_tilde_r: list = None
    kappa_tilde: float = None

    def __post_init__(self):
        if self.mu < 0:
            raise RateError("mu must be nonnegative")
        for r, (m_, l_) in enumerate(zip(self.mu_r, self.L_r)):
            if m_ > l_ + 1e-9:
                raise RateError(f"cluster {r}: mu_r > L_r")


@dataclass
class RateReport:
    A_r: list
    A_J: float
    At_r: list
    A: float            # aggregation constant under term III's root
    term_I: float
    term_II: float
    term_III: float
    regime: str
    tau_max: float
    rho: float
    surrogate: bool = False

    def terms(self):
        return {"I": self.term_I, "II": self.term_II, "III": self.term_III}

    def to_dict(self):
        return {
            "A_r": list(map(float, self.A_r)),
            "A_J": float(self.A_J),
            "At_r": list(map(float, self.At_r)),
            "terms": {k: float(v) for k, v in self.terms().items()},
            "regime": self.regime,
            "tau_max": float(self.tau_max),
            "rho": float(self.rho),
            "surrogate": self.surrogate,
        }


def _spectral_norm(A):
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))


def _block_indices(cluster, d):
    """Coordinates of the nodes of ``cluster`` in the stacked (md,) vector."""
    return (np.asarray(cluster, dtype=int)[:, None] * d + np.arange(d)).ravel()


def _principal_block(H, idx):
    """H[idx, idx]: a view when idx is one increasing run of coordinates,
    else an ``np.ix_`` copy. ``eigvalsh`` copies either into its own
    buffer, so it reads the same values."""
    if len(idx) and np.all(np.diff(idx) == 1):
        return H[idx[0]:idx[-1] + 1, idx[0]:idx[-1] + 1]
    return H[np.ix_(idx, idx)]


def estimate_constants(problem, partition, surrogate=None, cta=None):
    """Exact curvature/smoothness constants of a quadratic problem under a
    tree partition; optionally also the constants of a surrogate family.

    mu = lambda_min(H); per cluster r: L_r, mu_r are the extreme eigenvalues
    of H_{C_r,C_r} and L_del_r = ||H_{C_r, N_{C_r}}||_2. Surrogate constants
    come from the aggregated cluster surrogates of the requested family
    (first_order, schur_quadratic, partial_linearization), which are
    themselves quadratic, so everything is an eigenvalue computation.
    """
    if not isinstance(problem, QuadraticObjective):
        raise NotQuadratic("estimate_constants needs a quadratic problem "
                           "(declare constants manually for smooth ones)")
    d = problem.d
    H, _ = problem.assemble()
    vals_all = np.linalg.eigvalsh(H)
    mu = float(vals_all[0])
    scale = max(abs(vals_all[-1]), 1.0)
    if -1e-10 * scale < mu < 0:
        mu = 0.0   # numerically PSD
    mu_r, L_r, L_del_r, sigma_r = [], [], [], []
    n_in_sizes = np.array([len(nbrs) for nbrs in partition.n_in], dtype=int)
    for r, c in enumerate(partition.clusters):
        idx = _block_indices(c, d)
        vals = np.linalg.eigvalsh(_principal_block(H, idx))
        mu_r.append(float(vals[0]))
        L_r.append(float(vals[-1]))
        ext = sorted(partition.cluster_ext[r])
        if ext:
            eidx = _block_indices(ext, d)
            L_del_r.append(_spectral_norm(H[np.ix_(idx, eidx)]))
        else:
            L_del_r.append(0.0)
        deg = int(n_in_sizes[np.asarray(c, dtype=int)].max(initial=0))
        sigma_r.append(max(deg, 1) if len(c) > 1 else 1)
    kappa = max(L_r) / mu if mu > 0 else float("inf")
    inputs = RateInputs(mu=mu, mu_r=mu_r, L_r=L_r, L_del_r=L_del_r,
                        kappa=kappa, sigma_r=sigma_r)
    if surrogate is not None:
        _fill_surrogate_constants(inputs, problem, partition, surrogate, cta)
    return inputs


def _fill_surrogate_constants(inputs, problem, partition, spec, cta):
    """mu~_r and L~_r, the extreme eigenvalues of K = S[x_C, x_C], and
    ell~_r = ||J||_2 with J = S[x_C, y_E], from each cluster's
    :func:`_cluster_surrogate`. L~del_r is ||Jb||_2 with
    Jb = S[x_C, x_ext] + S[x_C, y_out], the coupling of x_C to the outer
    nodes at y_out = x_ext. The families split B_ik differently between the
    two blocks (first order and Schur put it on y_out), but for every family
    the sum is the problem's block H[C, ext], so L~del_r = L_del_r.
    """
    mu_t, L_t, ell_t = [], [], []
    for r in range(partition.p):
        sur = _cluster_surrogate(problem, partition, spec, cta, r)
        vals = np.linalg.eigvalsh(sur.S[sur.x_C, sur.x_C])
        mu_t.append(float(vals[0]))
        L_t.append(float(vals[-1]))
        ell_t.append(_spectral_norm(sur.S[sur.x_C, sur.y_E]))
    inputs.mu_tilde_r = mu_t
    inputs.L_tilde_r = L_t
    inputs.L_tilde_del_r = list(inputs.L_del_r)
    inputs.ell_tilde_r = ell_t
    inputs.kappa_tilde = max(L_t) / inputs.mu if inputs.mu > 0 else float("inf")


@dataclass
class ClusterSurrogate:
    """Cluster r's aggregated surrogate on a quadratic problem, which is
    exactly tilde Phi_r = 1/2 z^T S z + s^T z (no constant term) over
    z = (x_C, x_ext, y_C, y_out, y_E), d rows per node: the cluster's
    coordinates (``nodes``, cluster order), its external neighbours'
    (``ext``, sorted), the node references of C and of ext, and the edge
    references (y_i, y_j) of each intra edge (i, j) of ``intra`` (sorted).
    """

    S: np.ndarray
    s: np.ndarray
    nodes: list
    ext: list
    intra: list
    d: int

    @property
    def x_C(self):
        return slice(0, len(self.nodes) * self.d)

    @property
    def y_E(self):
        return slice(2 * (len(self.nodes) + len(self.ext)) * self.d, len(self.S))

    def stack(self, x, y, y_E):
        """z at the iterate x and the node references y, both (m, d), and
        the edge references y_E, (2 |intra|, d)."""
        at = self.nodes + self.ext
        return np.concatenate([x[at].ravel(), y[at].ravel(), y_E.ravel()])

    def references(self):
        """The 0/1 matrix T with z = T w, w = (x_C, x_ext, y_C): y_out =
        x_ext, and each intra edge's references are its endpoints' rows of
        y_C."""
        nc, ne = len(self.nodes), len(self.ext)
        y_C = {i: nc + ne + t for t, i in enumerate(self.nodes)}
        rows = [*range(2 * nc + ne), *range(nc, nc + ne),
                *(y_C[i] for edge in self.intra for i in edge)]
        return np.eye((2 * nc + ne) * self.d)[_block_indices(rows, self.d)]

    def value(self, z):
        return float(0.5 * z @ self.S @ z + self.s @ z)


def _cluster_surrogate(problem, partition, spec, cta, r):
    """Assemble cluster r's :class:`ClusterSurrogate` for ``spec``.

    Each term of the surrogate is a quadratic phi over some blocks xs of x
    with Hessian A. The exact family, and the couplings under partial
    linearization, keep phi: A at (xs, xs). The others linearize phi at
    references ys and add a curvature P, which makes the Hessian
    [[P, A - P], [A - P, P - A]] over (xs, ys):

    - node i: A = H_ii at (x_i, y_i) with P = I / alpha (first order) or
      Q_i (Schur); partial linearization linearizes f_i (A = f_i's Q, P =
      Q_i) and keeps the gossip term (1 - w_ii)/gamma I at (x_i, x_i) exact;
    - edge (i, j): A = [[0, B_ij], [B_ij^T, 0]] at ((x_i, x_j),
      (y_i, y_j)), the edge references for an intra edge and (y_C_i,
      y_out_j) for a cross edge j in ext, with P = 0 (first order) or
      [[M_i, M_ij], [M_ij^T, M_j]] (Schur).

    Nodes come first, then the intra edges in sorted order, then the cross
    edges, so K = S[x_C, x_C] sums its blocks in a fixed order. s holds the
    nodes' linear terms (f_i's c under partial linearization) at x_C.
    """
    if not isinstance(problem, QuadraticObjective):
        raise NotQuadratic("the surrogate assembly needs a quadratic problem")
    family = spec.family
    if family == "partial_linearization":
        if cta is None:
            raise RateError("partial_linearization needs its consensus problem (cta)")
        if not cta.is_quadratic():
            raise NotQuadratic("partial_linearization needs QuadraticLocal losses")
    d = problem.d
    c = list(partition.clusters[r])
    ext = sorted(partition.cluster_ext[r])
    intra = sorted(partition.intra_edges[r])
    nc, ne = len(c), len(ext)
    x_at = {i: t for t, i in enumerate(c + ext)}
    y_at = {i: nc + ne + t for t, i in enumerate(c + ext)}
    e_at = 2 * (nc + ne)
    S = np.zeros(((e_at + 2 * len(intra)) * d,) * 2)
    s = np.zeros(len(S))
    Z = np.zeros((d, d))
    if family in ("schur_quadratic", "partial_linearization"):
        Q = spec.node_matrices("Q", problem.m, d)
    if family == "schur_quadratic":
        Mn = spec.node_matrices("M", problem.m, d)

    def add(xs, ys, A, P=None):
        ix = _block_indices(xs, d)
        if P is None:
            S[np.ix_(ix, ix)] += A
            return
        iy, G = _block_indices(ys, d), A - P
        S[np.ix_(ix, ix)] += P
        S[np.ix_(ix, iy)] += G
        S[np.ix_(iy, ix)] += G.T
        S[np.ix_(iy, iy)] -= G

    for i in c:
        at = slice(x_at[i] * d, (x_at[i] + 1) * d)
        A, s[at] = problem.diag[i], problem.lin[i]
        if family == "partial_linearization":
            f = cta.locals_[i]
            A, s[at] = f.Q, f.c
            S[at, at] += (1.0 - cta.gossip.W[i, i]) / cta.gamma * np.eye(d)
        P = (None if family == "exact" else np.eye(d) / spec.alpha
             if family == "first_order" else Q[i])
        add([x_at[i]], [y_at[i]], A, P)

    def edge(i, j, ys):
        B = problem.coupling(i, j)
        A = np.block([[Z, B], [B.T, Z]])
        P = None
        if family == "first_order":
            P = np.zeros_like(A)
        elif family == "schur_quadratic":
            Mij = spec.edge_matrices([i], [j], problem.m, d)[0]
            Mij = Mij if i < j else Mij.T
            P = np.block([[Mn[i], Mij], [Mij.T, Mn[j]]])
        add([x_at[i], x_at[j]], ys, A, P)

    for t, (i, j) in enumerate(intra):
        edge(i, j, [e_at + 2 * t, e_at + 2 * t + 1])
    for i in c:
        for k in partition.n_out[i]:
            edge(i, k, [y_at[i], y_at[k]])
    return ClusterSurrogate(S, s, c, ext, intra, d)


def _bar_L(problem, partition, spec, cta, r, H):
    """Smoothness bar_L_r of cluster r's aggregated surrogate, read with
    the rest of the objective: the 2-norm of the Hessian of
    tilde Phi_r + Phi - Phi_r over (x, y_C, y_out, y_E), x on every node.
    That is S of :func:`_cluster_surrogate` plus the problem's Hessian
    outside the cluster, H[rest, rest] (``H`` = ``problem.assemble()[0]``).

    Only the sublinear check reads it: one SVD of an
    (m + |C| + |ext| + 2|E_C|) d square matrix per cluster.
    """
    d = problem.d
    sur = _cluster_surrogate(problem, partition, spec, cta, r)
    x = _block_indices(sur.nodes + sur.ext, d)
    at = np.concatenate([x, len(H) + np.arange(len(sur.S) - len(x))])
    rest = np.setdiff1d(np.arange(len(H)), _block_indices(sur.nodes, d))
    Hs = np.zeros((at[-1] + 1,) * 2)
    Hs[np.ix_(rest, rest)] = H[np.ix_(rest, rest)]
    Hs[np.ix_(at, at)] += sur.S
    return _spectral_norm(Hs)


def _aggregation(L, mu, L_del, size, D, deg=1):
    """Delay-aggregation constant (2 L + mu) L_del^2 |C| D deg / (4 mu^2) of
    one cluster of |C| = ``size`` nodes and diameter D."""
    return (2 * L + mu) * L_del ** 2 * size * D * deg / (4 * mu ** 2)


def compute_A(partition, inputs, surrogate=False):
    """Per-cluster delay-aggregation constants and the covered maximum.

    A_r = (2 L_r + mu_r) L_del_r^2 |C_r| D_r / (4 mu_r^2)  (0 for singletons)
    A_J = max over covered nodes i of the sum of A_r over non-singleton
    clusters whose external neighborhood contains i.
    At_r is the edge-reference analogue with ell_tilde and one more factor,
    the max intra-cluster degree sigma_r.
    """
    if surrogate:
        mus, Ls, Ldels = inputs.mu_tilde_r, inputs.L_tilde_r, inputs.L_tilde_del_r
    else:
        mus, Ls, Ldels = inputs.mu_r, inputs.L_r, inputs.L_del_r
    A_r = []
    At_r = [0.0] * partition.p
    for r, c in enumerate(partition.clusters):
        if len(c) <= 1:
            A_r.append(0.0)
            continue
        if mus[r] <= 0:
            A_r.append(float("inf"))
            continue
        Dr = partition.diameters[r]
        A_r.append(_aggregation(Ls[r], mus[r], Ldels[r], len(c), Dr))
        if surrogate and inputs.ell_tilde_r is not None:
            At_r[r] = _aggregation(Ls[r], mus[r], inputs.ell_tilde_r[r], len(c),
                                   Dr, inputs.sigma_r[r])
    big = [r for r, c in enumerate(partition.clusters) if len(c) > 1]
    A_J = 0.0
    for i in set().union(*(partition.cluster_ext[r] for r in big)):
        A_J = max(A_J, sum(A_r[r] for r in big if i in partition.cluster_ext[r]))
    return A_r, A_J, At_r


def three_terms(p, D, kappa, mu_min=None, A=0.0):
    """The three stepsize caps (I, II, III) = (1/p, 2 kappa/(2D+1),
    sqrt(mu_min / (8 (2D+1) A))); III is +inf when there is no covered
    coupling (no mu_min or A <= 0)."""
    if kappa <= 0 or p < 1:
        raise RateError("need kappa > 0 and p >= 1")
    term_III = float("inf")
    if mu_min is not None and A > 0:
        term_III = math.sqrt(mu_min / (8 * (2 * D + 1) * A))
    return 1.0 / p, 2.0 * kappa / (2 * D + 1), term_III


def rate_terms(partition, inputs, surrogate=False):
    """Three-term stepsize bound and the implied contraction factor.

    I = 1/p, II = 2 kappa / (2D+1), III = sqrt(mu_min / (8 (2D+1) A)) (see
    :func:`three_terms`) with mu_min = min_{r in J} mu_r and A = A_J; the
    surrogate analogue takes kappa_tilde, mu_tilde_r over J and the
    non-singleton clusters, and A = A_J + max_r At_r. The minimum picks the
    active regime and rho = 1 - tau_max / (2 kappa). Term III is +inf when
    no non-singleton cluster has external neighbors.
    """
    p = partition.p
    D = partition.max_diameter
    A_r, A_J, At_r = compute_A(partition, inputs, surrogate=surrogate)
    kappa = inputs.kappa_tilde if surrogate else inputs.kappa
    idx = set(partition.external_cover)
    if surrogate:
        big = [r for r, c in enumerate(partition.clusters) if len(c) > 1]
        idx.update(big)
        mus = inputs.mu_tilde_r
        A = A_J + max((At_r[r] for r in big), default=0.0)
    else:
        mus = inputs.mu_r
        A = A_J
    term_I, term_II, term_III = three_terms(
        p, D, kappa, min((mus[r] for r in idx), default=None), A)
    tau_max = min(term_I, term_II, term_III)
    regime = {term_I: "I", term_II: "II", term_III: "III"}[tau_max]
    rho = 1.0 - tau_max / (2.0 * kappa)
    return RateReport(A_r=A_r, A_J=A_J, At_r=At_r, A=A, term_I=term_I,
                      term_II=term_II, term_III=term_III, regime=regime,
                      tau_max=tau_max, rho=rho, surrogate=surrogate)


# ---------------------------------------------------------------------------
# parametric partition optimizers (constants treated as size-independent
# templates, as in the asymptotic analysis)


@dataclass
class ConstantsTemplate:
    mu: float = 1.0
    mu_cluster: float = 1.0
    L_cluster: float = 2.0
    L_boundary: float = 1.0
    kappa: float = None

    def resolved_kappa(self):
        return self.kappa if self.kappa is not None else self.L_cluster / self.mu


def _three_terms_ring(m, D, strategy, t):
    """(I, II, III, p) of the ring partition family ``strategy`` at diameter D."""
    p = m - D if strategy == "P1" else m // (D + 1)
    A1 = _aggregation(t.L_cluster, t.mu_cluster, t.L_boundary, D + 1, D)
    return (*three_terms(p, D, t.resolved_kappa(), t.mu_cluster, A1), p)


def _optimize(sizes, candidates, terms):
    """The search of both partition optimizers: at each size mm of the
    ladder ``sizes``, the first D of ``candidates(mm)`` maximizing the margin
    min{I, II, III} of ``terms(mm, D)`` = (I, II, III, p) (margin 1 at D = 0,
    p = 1 without candidates). Returns (D*, p*) at sizes[0] and the log-log
    slope of 1 / margin over the ladder."""
    found = []
    for mm in sizes:
        best = None
        for D in candidates(mm):
            *caps, p = terms(mm, D)
            val = min(caps)
            if best is None or val > best[0]:
                best = (val, D, p)
        found.append(best or (1.0, 0, 1))
    slope, _ = fit_loglog(sizes, [1.0 / val for val, _, _ in found])
    return found[0][1], found[0][2], slope


def ring_partition_optimizer(m, strategy, template=None):
    """Best diameter for the two ring partition families.

    P1: one path of diameter D plus singletons (p = m - D).
    P2: equal paths of D+1 nodes ((D+1) | m, p = m/(D+1)).
    Exhaustive search over D maximizing min{I, II, III}; returns
    (D_star, p_star, fitted_scaling_exponent) where the exponent is the
    log-log slope of (1 - rho)^{-1} at the per-size optimizer over a
    doubling ladder of six sizes starting at m.
    """
    t = template or ConstantsTemplate()
    if strategy not in ("P1", "P2"):
        raise RateError("strategy must be P1 or P2")

    def candidates(mm):
        if strategy == "P1":
            return range(1, mm - 1)
        return [Dp - 1 for Dp in range(2, mm) if mm % Dp == 0]

    return _optimize([m * 2 ** k for k in range(6)], candidates,
                     lambda mm, D: _three_terms_ring(mm, D, strategy, t))


def grid_partition_optimizer(m, template=None):
    """Horizontal-path family on a sqrt(m) x sqrt(m) grid: clusters are the
    first D+1 nodes of each row plus singletons (p = m - D sqrt(m)).
    Exhaustive over D in [1, sqrt(m)-1]; A_J uses the two-row adjacency
    bound (a covered node sees at most two row clusters). Returns as
    :func:`ring_partition_optimizer`, with a ladder that doubles the side.
    """
    t = template or ConstantsTemplate()
    s = int(round(math.sqrt(m)))
    if s * s != m or s < 2:
        raise RateError("grid optimizer needs m = s^2 with a side s >= 2")
    kappa = t.resolved_kappa()

    def terms(mm, D):
        p = mm - D * math.isqrt(mm)
        A1 = _aggregation(t.L_cluster, t.mu_cluster, t.L_boundary, D + 1, D)
        return (*three_terms(p, D, kappa, t.mu_cluster, 2 * A1), p)

    return _optimize([(s * 2 ** k) ** 2 for k in range(6)],
                     lambda mm: range(1, math.isqrt(mm)), terms)


def fit_loglog(xs, ys):
    """Least-squares slope of log y against log x, with the fit residual."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, _, _ = np.linalg.lstsq(A, ly, rcond=None)
    resid = float(res[0]) if len(res) else 0.0
    return float(coef[0]), resid


# ---------------------------------------------------------------------------
# delay-lift spectral oracle


def spectral_rate_oracle(problem, partition, tau, cap=5000):
    """Exact asymptotic factor of the damped delayed block-Jacobi iteration
    on a quadratic problem: spectral radius of the (D+1)md companion matrix
    whose first block row splits the block-Jacobi operator by delay class.

    Requires the single-gateway condition (delay classes must be disjoint).
    For PSD-singular Hessians the fixed space (constant lifts of the null
    space) is excluded from the radius.
    """
    if not partition.nonoverlap_ok:
        raise RateError("spectral oracle requires the single-gateway condition")
    d = problem.d
    m = problem.m
    D = partition.max_diameter
    n = m * d
    if (D + 1) * n > cap:
        raise MatrixTooLarge(f"(D+1)*m*d = {(D + 1) * n} exceeds cap {cap}")
    H, _ = problem.assemble()
    T = np.zeros((n, n))
    for r, c in enumerate(partition.clusters):
        idx = _block_indices(c, d)
        rest = np.setdiff1d(np.arange(n), idx)
        T[np.ix_(idx, rest)] = -np.linalg.solve(H[np.ix_(idx, idx)],
                                                H[np.ix_(idx, rest)])
    # delay class of each (i, j) block with a nonzero T block
    Tparts = [np.zeros((n, n)) for _ in range(D + 1)]
    for r, c in enumerate(partition.clusters):
        for i in c:
            dist = partition.distances_from(i)
            for k in partition.cluster_ext[r]:
                delay = dist[partition.gateway(r, k)[0]]
                bi = np.arange(i * d, (i + 1) * d)
                bk = np.arange(k * d, (k + 1) * d)
                Tparts[delay][np.ix_(bi, bk)] = T[np.ix_(bi, bk)]
    M = np.zeros(((D + 1) * n, (D + 1) * n))
    M[:n, :n] = (1.0 - tau) * np.eye(n) + tau * Tparts[0]
    for delta in range(1, D + 1):
        M[:n, delta * n:(delta + 1) * n] = tau * Tparts[delta]
        M[delta * n:(delta + 1) * n, (delta - 1) * n:delta * n] = np.eye(n)
    eig = np.linalg.eigvals(M)
    vals = np.linalg.eigvalsh(H)
    nullity = int(np.sum(vals < 1e-10 * max(abs(vals[-1]), 1.0)))
    mags = np.sort(np.abs(eig))[::-1]
    if nullity:
        keep = [v for v in np.abs(eig) if abs(v - 1.0) > 1e-9]
        dropped = len(eig) - len(keep)
        if dropped < nullity:
            keep = sorted(np.abs(eig))[: len(eig) - nullity]
        return float(max(keep))
    return float(mags[0])
