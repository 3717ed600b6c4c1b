"""Iterative schemes: message-passing Jacobi solvers (exact and surrogate,
pairwise and hypergraph), the delayed block-Jacobi reference, classical
baselines, and theorem-driven stepsize selection.

Every update in round nu reads the committed round-nu snapshot
(iterates and messages). One driver, :func:`_drive`, runs the rounds of every
iterative solver and baseline. Every message engine splits its round into its
rule's curvature and linear halves (``messages``); once the curvature half is
at a fixed point, :class:`_Rounds` runs only the linear half, with the full
rounds' bits. On a tree partition that takes about a cluster diameter of
rounds (the finite termination of min-sum on trees).
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .messages import (
    GatheredProducts,
    LapackSystem,
    PairCodes,
    QuadraticMessage,
    diagonalize_message,
    exact_linear,
    exact_quadratic_message,
    first_order_message,
    hyper_factor_message,
    message_vectors,
    partial_linearization_message,
    schur_aggregate,
    schur_linear,
    schur_message_update,
    StackedProducts,
    struct_solve,
    StructSystem,
    SurrogateSpec,
    total_vectors,
)
from .objective import (
    CtaProblem,
    NotQuadratic,
    QuadraticObjective,
    RowSum,
    as_blocks,
    check_block_vector,
)
from .rate_analysis import rate_terms
from .splitting import (
    SplitMap,
    SplitQuadraticView,
    _coords,
    apply_split,
    split_surrogate_components,
)


class SolverError(RuntimeError):
    pass


class IllPosedSubproblem(SolverError):
    pass


class NonConvergent(SolverError):
    pass


class InfeasibleCondition(SolverError):
    pass


class PartitionMismatch(SolverError):
    """The partition does not fit the problem: node counts differ or an
    intra-cluster edge carries no coupling."""


@dataclass
class SolverConfig:
    tau: object = 1.0               # float, or one per cluster
    max_rounds: int = 10000
    tol_x: float = 1e-12            # sup-norm of the iterate increment
    tol_grad: float = None
    surrogate: SurrogateSpec = None
    factor_impl: str = "hosted_factor"   # or 'factor_processor'
    message_init: str = "zero"           # or 'warm_start'
    exact_variable_update: bool = False  # surrogate messages, exact variable step
    monitor: bool = False                # record xhat/xbar internals per round
    track_oracle: tuple = None           # (x_star, phi_star) for gap columns
    raise_on_max_rounds: bool = False

    def __post_init__(self):
        for name, allowed in (("factor_impl", ("hosted_factor", "factor_processor")),
                              ("message_init", ("zero", "warm_start"))):
            if getattr(self, name) not in allowed:
                raise SolverError(f"{name} must be one of {allowed}, "
                                  f"got {getattr(self, name)!r}")
        rounds = self.max_rounds
        if isinstance(rounds, bool) or not isinstance(rounds, numbers.Integral) or rounds < 0:
            raise SolverError(f"max_rounds must be a nonnegative integer, got {rounds!r}")
        for name in ("tol_x", "tol_grad"):
            tol = getattr(self, name)
            if not (tol is None and name == "tol_grad"
                    or isinstance(tol, numbers.Real) and tol >= 0):
                raise SolverError(f"{name} must be a nonnegative number, got {tol!r}")


@dataclass
class RunTrace:
    rounds: int = 0
    phi_gap: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    dist_to_opt: list = field(default_factory=list)
    vectors_sent: list = field(default_factory=list)   # cumulative
    converged: bool = False
    diverged: bool = False
    x_final: np.ndarray = None
    x_history: list = None          # only when monitoring
    xhat_history: list = None
    monitor: object = None
    curvature_rounds: int = None    # rounds in which the curvature half ran
    # the rule that stopped the run: 'tol_x', 'tol_grad', 'diverged' or
    # 'max_rounds' (None on a trace no solver returned)
    stop_reason: str = None

    def record(self, problem, xs, comm_totals, oracle):
        """Append the metrics of the iterates xs, a (n, m, d) stack in round
        order with cumulative vector counts comm_totals, each with the bits of
        its iterate's own metric
        (``test_batched_record_is_the_per_iterate_metrics``): on a
        QuadraticObjective from one ``grad`` call, with values phi(x) = 1/2 <x,
        g + b>, else one iterate at a time. Norms and inner products are
        ``np.vecdot`` over C-contiguous rows, the BLAS ddot that
        ``np.linalg.norm`` and ``np.vdot`` take on one iterate."""
        n = len(xs)
        flat = xs.reshape(n, -1)
        quadratic = isinstance(problem, QuadraticObjective)
        if quadratic:
            g = problem.grad(xs).reshape(n, -1)
        else:
            g = np.stack([problem.grad(x) for x in xs]).reshape(n, -1)
        self.grad_norm.extend(np.sqrt(np.vecdot(g, g)).tolist())
        if oracle is not None:
            x_star, phi_star = oracle
            if quadratic:
                values = 0.5 * np.vecdot(flat, g + problem.lin.reshape(-1))
            else:
                values = np.array([problem.value(x) for x in xs])
            self.phi_gap.extend((values - phi_star).tolist())
            err = flat - np.reshape(x_star, -1)
            self.dist_to_opt.extend(np.sqrt(np.vecdot(err, err)).tolist())
        else:
            self.phi_gap.extend([float("nan")] * n)
            self.dist_to_opt.extend([float("nan")] * n)
        self.vectors_sent.extend(int(c) for c in comm_totals)

    def to_csv(self):
        lines = ["round,phi_gap,grad_norm,dist_to_opt,vectors_sent"]
        for k in range(len(self.grad_norm)):
            lines.append(f"{k},{self.phi_gap[k]:.17g},{self.grad_norm[k]:.17g},"
                         f"{self.dist_to_opt[k]:.17g},{self.vectors_sent[k]}")
        return "\n".join(lines) + "\n"

    def iterations_to(self, metric, tol):
        vals = getattr(self, metric)
        for k, v in enumerate(vals):
            if not math.isnan(v) and v <= tol:
                return k
        return None


# ---------------------------------------------------------------------------
# the round driver


def _tau_per_node(problem, partition, config):
    """Every node's cluster stepsize from a scalar tau or one per cluster;
    PartitionMismatch on a node count, SolverError on a tau of another
    length or a negative, infinite or NaN stepsize."""
    if len(partition.cluster_of) != problem.m:
        raise PartitionMismatch(f"partition has {len(partition.cluster_of)} "
                                f"nodes, problem has {problem.m}")
    p = partition.p
    if np.isscalar(config.tau):
        taus = np.full(p, float(config.tau))
    else:
        taus = np.asarray(config.tau, dtype=float)
        if taus.shape != (p,):
            raise SolverError(f"tau must be a scalar or hold one stepsize per "
                              f"cluster ({p}), got shape {taus.shape}")
    return _checked_stepsizes(taus)[partition.node_cluster]


def _checked_stepsizes(taus):
    """taus as floats, unless a stepsize is not a number or is negative,
    infinite or NaN (SolverError); None reads as NaN."""
    try:
        checked = np.asarray(taus, dtype=float)
    except (TypeError, ValueError):
        checked = np.nan
    if not np.all(np.isfinite(checked) & (checked >= 0)):
        raise SolverError(f"stepsizes must be finite and nonnegative, got {taus!r}")
    return checked


def _diverged(x, out=None):
    """Iterates that are non-finite or exceed 1e12 in magnitude: one
    NaN-propagating max, so NaN and +-inf fail the comparison. ``out``, an
    array of x's shape, takes |x| in place of a new one."""
    return not float(np.abs(x, out=out).max(initial=0.0)) <= 1e12


def _damp(x, xhat, tau, work):
    """(x_new, max |x_new - x|) with x_new = x + tau (xhat - x), or xhat
    when tau is None, with the bits of those expressions (the change is 0.0
    when x is empty). ``work``, an array of x's shape, holds the
    temporaries, so only x_new is allocated: an engine may keep the
    iterates it was given."""
    if tau is None:
        x_new = xhat
    else:
        x_new = np.add(x, np.multiply(tau, np.subtract(xhat, x, out=work), out=work))
    np.subtract(x_new, x, out=work)
    return x_new, float(np.abs(work, out=work).max(initial=0.0))


def _same_bits(a, b):
    """Whether two float arrays hold the same bits (-0.0 differs from 0.0,
    a NaN equals itself)."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class _Rounds:
    """Message state of an engine whose round splits into a curvature half and
    a linear half. ``curvature(H)`` returns the iterate-free state that a round
    reads from the committed message curvatures H;
    ``linear(x, h, state, kept)`` returns (xhat, H_new, h_new, keep), where
    ``keep``, the round's rule curvature, comes back as ``kept`` once the
    curvature half is stationary (None before); ``vectors(H)`` prices a round's
    messages; ``settle(state, keep)``, if given, returns the state a kept round
    reads.

    The curvature half runs until a round returns the curvatures it read, bit
    for bit, or those of the round before: a cycle of period 1 or 2 (sums like
    (a + b) - b that round differently can make two states that map to each
    other). Then the cycle's phases, each a settled state, keep and price, are
    reused in turn (``test_exact_kept_rounds_equal_full_rule``).
    """

    def __init__(self, H, h, curvature, linear, vectors, settle=None):
        self.H, self.h = H, h
        self._curvature, self._linear, self._vectors = curvature, linear, vectors
        self._settle = settle or (lambda state, keep: state)
        self._kept, self._turn, self._last = None, 0, None
        self.rounds = 0

    def step(self, x):
        if self._kept is not None:
            state, keep, sent = self._kept[self._turn]
            self._turn = (self._turn + 1) % len(self._kept)
            xhat, self.H, self.h, _ = self._linear(x, self.h, state, keep)
            return xhat, sent
        self.rounds += 1
        state = self._curvature(self.H)
        xhat, H_new, self.h, keep = self._linear(x, self.h, state, None)
        sent = self._vectors(H_new)
        phase = (state, keep, sent)
        # the phases in the order the next rounds take them
        if _same_bits(H_new, self.H):
            self._keep([phase])
        elif self._last is not None and _same_bits(H_new, self._last[0]):
            self._keep([self._last[1], phase])
        self._last = (self.H, phase)
        self.H = H_new
        return xhat, sent

    def _keep(self, phases):
        self._kept = [(self._settle(state, keep), keep, sent) for state, keep, sent in phases]

    def run(self, problem, tau_node, config, x0, keys, sweeps=0):
        """Drive the rounds (:func:`_drive`) after ``sweeps`` message
        updates at x0; the trace gets the final (H, h, keys) as ``monitor``
        and the curvature-round count."""
        def start(x):
            for _ in range(sweeps):
                state = self._curvature(self.H)
                _, self.H, self.h, _ = self._linear(x, self.h, state, None)
            return self.step

        trace = _drive(problem, tau_node, config, x0, start)
        trace.monitor = (self.H, self.h, keys)
        trace.curvature_rounds = self.rounds
        return trace


class _IllPosed:
    """Context in which a singular node system (LinAlgError) is an
    ill-posed variable update; a class, as a generator's context costs
    about 0.8 us more per use, in every round."""

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb):
        if isinstance(exc, np.linalg.LinAlgError):
            raise IllPosedSubproblem(f"variable update: {exc}") from exc
        return False


_ill_posed = _IllPosed()


def _variable_system(G):
    """StructSystem of the node curvatures G."""
    with _ill_posed:
        return StructSystem(G)


def _variable_solve(G, g):
    """xhat = -G^{-1} g by struct_solve, G a StructSystem."""
    with _ill_posed:
        return -struct_solve(G, g)


# Iterates per RunTrace.record call in _drive. A call has a fixed cost
# (25-55 us on the benchmark workloads): a record costs 8.7 us per iterate
# at 16, 7.1 at 32 and 6.1 at 64 on ring_schur (path_exact: 5.4, 4.4, 4.3),
# but at 64 its temporaries fault pages in again (100-200 a solve).
RECORD_BATCH = 32


def _drive(problem, tau_node, config, x0, start):
    """Run synchronous rounds until a stopping rule fires.

    ``start(x)`` receives the checked initial iterate and returns the engine's
    round ``step(x) -> (xhat, vectors)``, which advances the engine's message
    state. The driver damps node i by tau_node[i] (None: xhat undamped, as x +
    1.0 (xhat - x) need not equal xhat), records the trace, applies the tol_x,
    tol_grad, divergence and ``raise_on_max_rounds`` rules, and sets
    ``trace.stop_reason`` to the rule that stopped the run
    (tol_x is tested first) or to ``max_rounds``. The damping, the change and
    the divergence test share one work array. Iterates are recorded by one
    ``RunTrace.record`` call per RECORD_BATCH and one at the end, and one at a
    time under ``tol_grad``, whose rule reads every gradient norm.

    Divergence is read through a running bound b, max |x0| plus every round's
    change: ``_diverged`` runs only in a round where b <= 5e11 fails, and b is
    then reset to the exact max |x|. The verdict is ``_diverged``'s in every
    round. Proof: k rounds after b was exact, max |x| <= b (1 - u)^(-2k),
    u = 2^-53, by the triangle inequality, as each true |x_new - x| is at most
    the rounded change / (1 - u) (a subnormal difference is exact) and each
    rounded b + change is at least the true sum times (1 - u). For k < 2^50 the
    factor is below e^(1/4) < 2, so b <= 5e11 gives max |x| <= 1e12. A NaN or
    +-inf iterate makes the change, and so b, NaN or inf, which fails the gate,
    as an overflow of b does.
    """
    m, d = problem.m, problem.d
    if x0 is None:
        x = np.zeros((m, d))
    else:
        x = check_block_vector(as_blocks(x0, m, d)).copy()
    step = start(x)
    # one stepsize per entry, so the damping runs flat loops, not d-long ones
    tau = None if tau_node is None else np.repeat(tau_node, d).reshape(m, d)
    oracle, max_rounds = config.track_oracle, config.max_rounds
    tol_x, tol_grad = config.tol_x, config.tol_grad
    trace = RunTrace()
    if config.monitor:
        trace.x_history, trace.xhat_history = [x.copy()], []
    stack = np.empty((1 if tol_grad is not None else RECORD_BATCH, m, d))
    work = np.empty((m, d))
    comms = []

    def keep(x, comm):
        stack[len(comms)] = x
        comms.append(comm)
        if len(comms) == len(stack):
            trace.record(problem, stack, comms, oracle)
            comms.clear()

    comm, rounds, stop = 0, 0, "max_rounds"
    bound = float(np.abs(x).max(initial=0.0))
    keep(x, comm)
    while rounds < max_rounds:
        xhat, sent = step(x)
        comm += sent
        x, change = _damp(x, xhat, tau, work)
        rounds += 1
        bound += change
        keep(x, comm)
        if config.monitor:
            trace.x_history.append(x.copy())
            trace.xhat_history.append(xhat.copy())
        if change <= tol_x:
            stop = "tol_x"
        elif tol_grad is not None and trace.grad_norm[-1] <= tol_grad:
            stop = "tol_grad"
        elif bound <= 5e11:
            continue
        elif _diverged(x, work):
            stop = "diverged"
        else:
            bound = float(work.max(initial=0.0))
            continue
        break
    trace.rounds, trace.stop_reason = rounds, stop
    trace.converged = stop in ("tol_x", "tol_grad")
    trace.diverged = stop == "diverged"
    if comms:
        trace.record(problem, stack[:len(comms)], comms, oracle)
    trace.x_final = x
    if not trace.converged and config.raise_on_max_rounds:
        why = "diverged" if trace.diverged else "no convergence"
        raise NonConvergent(f"{why} after {trace.rounds} rounds")
    return trace


# ---------------------------------------------------------------------------
# pairwise engines


class _PairwiseLayout:
    """Directed incidences of a pairwise problem whose messages run on the
    intra pairs ``pairs`` (E, 2), i < j, cluster by cluster and sorted within
    each (``TreePartition.intra_pairs``), or on every coupled pair when
    ``pairs`` is None. Intra edge e carries the message senders[e] ->
    receivers[e], and edge rev[e] = e ^ 1 the reverse one; ``directed`` stacks
    them, (2E, 2). Cross incidence c lets node csrc[c] read the frozen iterate
    of its neighbor cdst[c], in sorted pair order, each cross edge in both
    orientations. One search of the problem's :class:`PairCodes` finds the
    intra pairs (one without a coupling raises PartitionMismatch); the cross
    pairs are those left. ``intra_at`` and ``cross_at`` keep their positions
    for :meth:`couplings`; ``at_receivers`` and ``at_cross`` sum per-incidence
    rows into receivers[e] and csrc[c]."""

    def __init__(self, problem, pairs=None):
        m, self.d = problem.m, problem.d
        codes = (problem.pair_codes if isinstance(problem, QuadraticObjective)
                 else PairCodes(sorted(problem.graph_edges()), m))
        at = np.arange(len(codes.order))
        if pairs is not None:
            at, found = codes.find(pairs[:, 0], pairs[:, 1])
            if not found.all():
                missing = min(map(tuple, pairs[~found].tolist()))
                raise PartitionMismatch(f"intra-cluster edge {missing} has no "
                                        "coupling in the problem")
        self.intra_at, self.cross_at = codes.order[at], np.delete(codes.order, at)
        pairs, ends = codes.pairs[self.intra_at], codes.pairs[self.cross_at]
        self.senders, self.receivers = pairs.ravel(), pairs[:, ::-1].ravel()
        self.directed = np.stack((self.senders, self.receivers), axis=-1)
        self.n_edges = len(self.senders)
        self.rev = np.arange(self.n_edges) ^ 1
        self.csrc, self.cdst = ends.ravel(), ends[:, ::-1].ravel()
        self.at_receivers = RowSum(self.receivers, m)
        self.at_cross = RowSum(self.csrc, m).compiled((self.d,))

    def couplings(self, problem):
        """(B, B_cross): ``problem.couplings(receivers, senders)`` and
        ``problem.couplings(csrc, cdst)``, from the positions found here."""
        return (problem.oriented(np.repeat(self.intra_at, 2), self.receivers, self.senders),
                problem.oriented(np.repeat(self.cross_at, 2), self.csrc, self.cdst))

    def others(self, node, msg):
        """For every edge e, the sender's sum over its other in-edges: the
        node sum at senders[e] minus the reverse message."""
        return node.take(self.senders, axis=0) - msg.take(self.rev, axis=0)

    def vectors(self, H_msg):
        """Vectors sent in one round: one per directed cross incidence for
        the iterates, plus the message_vectors of every message."""
        return len(self.csrc) + total_vectors(H_msg)


def _pair_grads(problem, rows, cols):
    """x -> stacked grad_{x_i} psi_ij(x_i, x_j) over the directed pairs
    (i, j) = (rows[e], cols[e]): :class:`GatheredProducts` on quadratics,
    the pair callbacks of a SmoothObjective otherwise."""
    if isinstance(problem, QuadraticObjective):
        return GatheredProducts(problem.couplings(rows, cols), cols)

    def grads(x):
        out = np.zeros((len(rows), problem.d))
        for e, (i, j) in enumerate(zip(rows, cols)):
            out[e] = problem.pair_grad_first(i, j, x[i], x[j])
        return out

    return grads


def _node_grads(problem, x):
    """Stacked grad phi_i(x_i) of the node terms."""
    if isinstance(problem, QuadraticObjective):
        return np.einsum("ikl,il->ik", problem.diag, x) + problem.lin
    return np.stack([np.asarray(problem.phi[i][1](x[i]), dtype=float)
                     for i in range(problem.m)])


def _zero_messages(lay):
    return np.zeros((lay.n_edges, lay.d, lay.d)), np.zeros((lay.n_edges, lay.d))


def mp_jacobi(problem, partition, config=None, x0=None):
    """Exact message-passing Jacobi on a quadratic pairwise problem: per round
    every agent solves its local minimization from the round-nu messages and
    out-of-cluster iterates and damps by its cluster stepsize, and every
    directed intra-cluster edge refreshes its message from the same snapshot.
    ``message_init='warm_start'`` first runs max-diameter sweeps of message
    updates at x0."""
    config = config or SolverConfig()
    sweeps = partition.max_diameter if config.message_init == "warm_start" else 0
    return _exact_run(problem, partition.intra_pairs,
                      _tau_per_node(problem, partition, config), config, x0, sweeps)


def _exact_run(problem, pairs, tau_node, config, x0, sweeps=0):
    """The exact engine with messages on the intra pairs ``pairs``
    (_PairwiseLayout), after ``sweeps`` sweeps at x0; ``trace.monitor`` holds
    (H_msg, h_msg, directed), the layout's (sender, receiver) edges. The
    receivers' sums are compiled once (:class:`StartedSum`), from
    ``problem.diag`` for the curvatures and, for the linear terms, from lin
    plus the cross sum, rewritten every round. A curvature round calls the
    exact rule on the senders' sums A and c; a kept round is
    :func:`exact_linear` on the kept column of c, under one errstate with the
    node solve, whose system a curvature round has solved already."""
    if not isinstance(problem, QuadraticObjective) or problem.hyper:
        raise NotQuadratic("exact pairwise solver needs a pairwise QuadraticObjective")
    lay = _PairwiseLayout(problem, pairs)
    B, B_cross = lay.couplings(problem)
    cross = GatheredProducts(B_cross, lay.cdst)
    node_H = lay.at_receivers.with_start(problem.diag)
    node_h = lay.at_receivers.with_start(problem.lin)

    def curvature(H_msg):
        inH = node_H.sums(H_msg)
        with _ill_posed:
            return LapackSystem(inH), lay.others(inH, H_msg)

    def linear(x, h_msg, state, kept):
        node, A = state
        np.add(problem.lin, lay.at_cross(cross(x)), out=node_h.start)
        inh = node_h.sums(h_msg)
        c = lay.others(inh, h_msg)
        if kept is None:
            with _ill_posed, np.errstate(all="ignore"):
                xhat = -node.vector(inh)
            msg = exact_quadratic_message(A, c, B)
            return xhat, msg.H, msg.h, msg.curvature
        with np.errstate(all="ignore"):
            xhat = -node.vector(inh)
            col = kept.solve(c)
        return xhat, kept.H, exact_linear(B, col), kept

    rounds = _Rounds(*_zero_messages(lay), curvature, linear, lay.vectors)
    return rounds.run(problem, tau_node, config, x0, lay.directed, sweeps)


# -- surrogate pairwise -----------------------------------------------------


def mp_jacobi_surrogate(problem, partition, config=None, x0=None):
    """Message-passing Jacobi with a surrogate family: 'exact' delegates to
    :func:`mp_jacobi` (bit-identical updates); 'first_order' works on quadratic
    and smooth pairwise problems; 'schur_quadratic' needs quadratic couplings;
    'partial_linearization' a lifted consensus problem (:class:`CtaProblem`).
    Every family runs on the same layout and driver, with one rule call per
    round; ``trace.monitor`` is as in :func:`_exact_run`."""
    config = config or SolverConfig()
    spec = config.surrogate or SurrogateSpec()
    if spec.family == "exact":
        return mp_jacobi(problem, partition, config, x0)
    engines = {"first_order": _first_order_run,
               "schur_quadratic": _schur_run,
               "partial_linearization": _cta_partial_linearization_run}
    if spec.family not in engines:
        raise SolverError(f"unsupported family {spec.family!r}")
    return engines[spec.family](problem, partition, config, x0, spec)


def _first_order_run(problem, partition, config, x0, spec):
    """First-order family: the messages are affine, so their curvature is
    zero from the first round on."""
    lay = _PairwiseLayout(problem, partition.intra_pairs)
    if isinstance(problem, QuadraticObjective):
        B, B_cross = lay.couplings(problem)
        to_receiver, cross = GatheredProducts(B, lay.senders), GatheredProducts(B_cross, lay.cdst)
    else:
        to_receiver = _pair_grads(problem, lay.receivers, lay.senders)
        cross = _pair_grads(problem, lay.csrc, lay.cdst)

    def linear(x, h_msg, state, kept):
        grads = (_node_grads(problem, x) + lay.at_cross(cross(x))
                 + lay.at_receivers(h_msg))
        msg = first_order_message(to_receiver(x))
        return x - spec.alpha * grads, msg.H, msg.h, None

    rounds = _Rounds(*_zero_messages(lay), lambda H: None, linear, lay.vectors)
    return rounds.run(problem, _tau_per_node(problem, partition, config), config,
                      x0, lay.directed)


def _schur_run(problem, partition, config, x0, spec):
    """Structured-quadratic family on a pairwise quadratic: node curvatures Q +
    n_out M_node (the problem's own blocks with ``exact_variable_update``) and
    the rule :func:`schur_message_update`, on data compiled once per run. Every
    block that the linear half multiplies by an iterate is a part of one
    :class:`StackedProducts` per curvature state: the fixed parts
    (``problem.diag``, the cross and sender couplings, and ``G_base`` unless
    ``exact_variable_update``) extended by the state's H_in, and in a kept
    state by kept.H, whose rows are the rule's H x_i^ref. The receiver-side
    coupling gradients are the sender-side ones of the reverse edges. A
    curvature round calls the rule on c_u (:func:`schur_aggregate`) and the
    sender matrices (Q + M_node) + H_in; a kept round is :func:`schur_linear`
    on M_ij times the kept column of c_u."""
    if not isinstance(problem, QuadraticObjective):
        raise NotQuadratic("schur_quadratic family needs quadratic couplings")
    lay = _PairwiseLayout(problem, partition.intra_pairs)
    m, d = problem.m, problem.d
    s, t = lay.senders, lay.receivers
    exact = config.exact_variable_update
    n_out = np.bincount(lay.csrc, minlength=m)[:, None, None]
    Q, Mn = spec.node_matrices("Q", m, d), spec.node_matrices("M", m, d)
    M_edge = spec.edge_matrices(s, t, m, d)
    G_base = Q + n_out * Mn         # variable-update curvature before messages
    QM_s, Mn_t = Q[s] + Mn[s], Mn[t]
    nodes = np.arange(m)
    B, B_cross = lay.couplings(problem)
    fixed = StackedProducts(
        [(problem.diag, nodes), (B_cross, lay.cdst), (B.take(lay.rev, axis=0), t)]
        + ([] if exact else [(G_base, nodes)]))
    M_col = GatheredProducts(M_edge)
    n_state = len(fixed.parts) + 1
    h_at_receivers = lay.at_receivers.compiled((d,))

    def curvature(H_msg):
        H_node = lay.at_receivers(H_msg)
        H_in = lay.others(H_node, H_msg)
        G = _variable_system((problem.diag if exact else G_base) + H_node)
        return G, QM_s + H_in, fixed.extended([(H_in, s)])

    def settle(state, kept):
        G, S, products = state
        return G, S, products.extended([(kept.H, t)])

    def linear(x, h_msg, state, kept):
        G, S, products = state
        parts_x = products(x)
        node_x, cross_x, grads, *base_x, in_x = parts_x[:n_state]
        grad_phi = node_x + problem.lin
        boundary = lay.at_cross(cross_x)
        g = problem.lin + boundary if exact else grad_phi - base_x[0] + boundary
        h_node = h_at_receivers(h_msg)
        xhat = _variable_solve(G, g + h_node)
        c_u = schur_aggregate(grad_phi.take(s, axis=0), grads,
                              [(in_x, lay.others(h_node, h_msg))], boundary.take(s, axis=0))
        grads_rev = grads.take(lay.rev, axis=0)
        if kept is None:
            msg = schur_message_update(S, c_u, Mn_t, M_edge, grads_rev, x.take(t, axis=0))
            return xhat, msg.H, msg.h, msg.curvature
        return xhat, kept.H, schur_linear(grads_rev, M_col(kept.solve(c_u)), parts_x[-1]), kept

    rounds = _Rounds(*_zero_messages(lay), curvature, linear, lay.vectors, settle)
    return rounds.run(problem, _tau_per_node(problem, partition, config), config,
                      x0, lay.directed)


def _cta_partial_linearization_run(problem, partition, config, x0, spec):
    """Partial-linearization family on a lifted consensus problem; diagonal
    node curvatures keep the message curvatures exactly diagonal. The senders'
    ell starts from the rows of the variable update's own grad f - Q x; a
    curvature round calls :func:`partial_linearization_message` on ell and
    S = base + H_in, and a kept round is (w_ij/gamma) times the kept column."""
    if not isinstance(problem, CtaProblem):
        raise SolverError("partial_linearization expects a lifted consensus problem")
    lay = _PairwiseLayout(problem, partition.intra_pairs)
    m, d = problem.m, problem.d
    W, gamma = problem.gossip.W, problem.gamma
    s = lay.senders
    w_self = problem.self_weights
    w_edge = W[s, lay.receivers]
    w_cross = -(W[lay.csrc, lay.cdst] / gamma)[:, None]
    Q = spec.node_matrices("Q", m, d)
    base = Q + ((1.0 - w_self) / gamma)[:, None, None] * np.eye(d)
    base_s = base[s]

    def curvature(H_msg):
        H_node = lay.at_receivers(H_msg)
        return _variable_system(base + H_node), base_s + lay.others(H_node, H_msg)

    def linear(x, h_msg, state, kept):
        G, S = state
        lin = problem.local_grads(x) - np.einsum("ikl,il->ik", Q, x)
        boundary = lay.at_cross(w_cross * x.take(lay.cdst, axis=0))
        h_node = lay.at_receivers(h_msg)
        xhat = _variable_solve(G, lin + boundary + h_node)
        ell = (lin.take(s, axis=0) + lay.others(h_node, h_msg)) + boundary.take(s, axis=0)
        if kept is None:
            msg = partial_linearization_message(S, ell, w_edge, gamma)
            return xhat, msg.H, msg.h, msg.curvature
        return xhat, kept.H, (w_edge / gamma)[:, None] * kept.solve(ell), kept

    rounds = _Rounds(*_zero_messages(lay), curvature, linear, lay.vectors)
    return rounds.run(problem, _tau_per_node(problem, partition, config), config,
                      x0, lay.directed)



# ---------------------------------------------------------------------------
# delayed block-Jacobi reference


def delayed_block_jacobi(problem, partition, config=None, x0=None):
    """Reference delayed block-Jacobi iteration, an oracle, not a fast path:
    for every root i in cluster r the full cluster problem is solved densely
    with out-of-cluster blocks frozen at delayed values, the boundary term of
    an edge (j, k), j in the cluster, reading x_k at round nu - d(i, j). The
    iterate window starts flat at x0."""
    config = config or SolverConfig()
    if not isinstance(problem, QuadraticObjective) or problem.hyper:
        raise NotQuadratic("reference solver needs a pairwise QuadraticObjective")
    m, d = problem.m, problem.d
    D = partition.max_diameter
    clusters = partition.clusters
    sub = []
    for r, c in enumerate(clusters):
        idx = {n: t for t, n in enumerate(c)}
        K = np.zeros((len(c) * d, len(c) * d))
        for t, n in enumerate(c):
            K[t * d:(t + 1) * d, t * d:(t + 1) * d] = problem.diag[n]
        for (a, b) in partition.intra_edges[r]:
            B = problem.coupling(a, b)
            K[idx[a] * d:(idx[a] + 1) * d, idx[b] * d:(idx[b] + 1) * d] += B
            K[idx[b] * d:(idx[b] + 1) * d, idx[a] * d:(idx[a] + 1) * d] += B.T
        bound = []
        for j in c:
            for kk in partition.n_out[j]:
                bound.append((j, kk, problem.coupling(j, kk)))
        delays = []
        for i in c:
            dist = partition.distances_from(i)
            delays.append([min(dist[j], D) for (j, _, _) in bound])
        sub.append((idx, K, bound, delays))
    window = deque(maxlen=D + 1)        # [0] = newest iterate

    def start(x0):
        window.extend([x0] * (D + 1))
        return step

    def step(x):
        window.appendleft(x)
        xhat = np.zeros((m, d))
        for r, c in enumerate(clusters):
            idx, K, bound, delays = sub[r]
            for i, delay_i in zip(c, delays):
                rhs = problem.lin[c, :].reshape(-1).copy()
                for (j, kk, B), delay in zip(bound, delay_i):
                    rhs[idx[j] * d:(idx[j] + 1) * d] += B @ window[delay][kk]
                with _ill_posed:
                    sol = np.linalg.solve(K, -rhs)
                xhat[i] = sol[idx[i] * d:(idx[i] + 1) * d]
        return xhat, 0

    return _drive(problem, _tau_per_node(problem, partition, config), config, x0,
                  start)


def tree_solve(problem, graph):
    """Exact minimizer of a quadratic objective whose graph is a tree, by one
    leaf-to-root and one root-to-leaf sweep of exact messages from node 0, one
    :func:`exact_quadratic_message` call per BFS level, added into the node
    sums. The message p -> v down the tree is sent from p's full sum minus v's
    message up, as in ``_PairwiseLayout.others``. ``graph`` must be the
    problem's coupling graph (PartitionMismatch otherwise) and one tree
    (SolverError otherwise); a singular final node system raises
    IllPosedSubproblem."""
    if not isinstance(problem, QuadraticObjective) or problem.hyper:
        raise NotQuadratic("tree solver needs a pairwise QuadraticObjective")
    if graph.m != problem.m or graph.edges != problem.graph_edges():
        raise PartitionMismatch("graph is not the problem's coupling graph")
    adj = graph.adjacency()
    level = np.array(graph.bfs_dist(0))
    if np.any(level < 0) or len(graph.edges) != problem.m - 1:
        raise SolverError("graph is not a tree")
    order = np.argsort(level, kind="stable")[1:]        # by level, root left out
    parent = np.array([next(u for u in adj[v] if level[u] == level[v] - 1)
                       for v in order], dtype=int)
    cuts = np.searchsorted(level[order], np.arange(1, level.max() + 2))
    levels = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]
    B_up = problem.couplings(parent, order)
    H, h = problem.diag.copy(), problem.lin.copy()
    up = []
    for sl in reversed(levels):                          # leaves towards the root
        v = order[sl]
        msg = exact_quadratic_message(H[v], h[v], B_up[sl])
        np.add.at(H, parent[sl], msg.H)
        np.add.at(h, parent[sl], msg.h)
        up.append(msg)
    for sl, msg in zip(levels, reversed(up)):             # root towards the leaves
        p = parent[sl]
        down = exact_quadratic_message(H[p] - msg.H, h[p] - msg.h,
                                       np.swapaxes(B_up[sl], -1, -2))
        H[order[sl]] += down.H
        h[order[sl]] += down.h
    with _ill_posed:
        return -LapackSystem(H).solve(h[..., None])[..., 0]


# ---------------------------------------------------------------------------
# hypergraph solvers


def pairwise_to_hyper(problem):
    """Re-express pairwise couplings as 2-node factors (<H_w x, x> blocks)."""
    d, B = problem.d, problem.pair_blocks
    Hw = np.zeros((len(B), 2 * d, 2 * d))
    Hw[:, :d, d:] = 0.5 * B
    Hw[:, d:, :d] = 0.5 * np.transpose(B, (0, 2, 1))
    hyper = dict(problem.hyper)
    for key, blk in zip(problem.pair, Hw):
        hyper[key] = hyper.get(key, 0) + blk
    return QuadraticObjective(problem.m, problem.d, problem.diag.copy(),
                              problem.lin.copy(), {}, hyper)


class _HyperLayout:
    """Compiled (factor, member) incidences of a hypertree partition.

    Slots 0..K-1 are the intra incidences (a, i), in cluster, factor, support
    order; intra incidence k carries message k. Slots K..K+n_out-1 are the out
    incidences (b, i) of factors b not intra at i, node by node. Per arity,
    ``groups`` stacks the intra factor blocks permuted receiver-first, with the
    gather indices of each factor's other members (``rest``) and of their
    message rows (``rest_msg``). An out incidence freezes b's other members at
    the round iterate: curvature out_H = 2 (H_b)_ii, linear term 2
    (H_b)_{i,rest} x_rest. Row s of :meth:`linear_terms` holds the view's
    frozen-reference terms of slot s, row n_out + s the linear term of out slot
    s. ``at_H``/``at_h`` add the terms ``H_src``/``h_src`` into their nodes:
    messages in n_in order, then per out factor its 2 H x term and its frozen
    term.
    """

    def __init__(self, problem, hpartition, view):
        m, d = problem.m, problem.d
        self.d = d
        factors = view.split.hypergraph.hyperedges
        intra = [(a, i) for r in range(hpartition.p)
                 for a in hpartition.intra_factors[r] for i in factors[a]]
        out = [(b, i) for i in range(m) for b in hpartition.n_out[i]]
        slot = {e: s for s, e in enumerate(intra + out)}
        K, n_out = self.n_intra, self.n_out = len(intra), len(out)
        self.incidences = intra
        self.nodes = np.array([i for _, i in intra], dtype=int)
        self.hosts = np.array([min(factors[a]) for a, _ in intra], dtype=int)

        def receiver_first(a, i):
            order = [i] + [n for n in factors[a] if n != i]
            idx = _coords(order, factors[a], d)
            return view.blocks[a][np.ix_(idx, idx)], order[1:]

        self.groups = []
        for k in sorted({len(factors[a]) for a, _ in intra}):
            sel = [s for s, (a, _) in enumerate(intra) if len(factors[a]) == k]
            blocks, rest = zip(*(receiver_first(*intra[s]) for s in sel))
            rest_msg = [[slot[(intra[s][0], j)] for j in r] for s, r in zip(sel, rest)]
            self.groups.append((np.array(sel), np.array(blocks),
                                np.array(rest, dtype=int).reshape(len(sel), k - 1),
                                np.array(rest_msg, dtype=int).reshape(len(sel), k - 1)))
        outs = [receiver_first(b, i) for b, i in out]
        self.out_H = np.array([2.0 * P[:d, :d] for P, _ in outs]).reshape(-1, d, d)
        # linear-term rows (table row, coefficient c, M, nodes): c M x[nodes]
        rows = [(slot[(a, i)], c, M, nodes) for a, i, c, M, nodes in view.frozen]
        rows += [(slot[e] + n_out, 1.0, 2.0 * P[:d, d:], r)
                 for e, (P, r) in zip(out, outs) if r]
        self.lin_row = np.array([r[0] for r in rows], dtype=int)
        self.lin_coef = np.array([r[1] for r in rows]).reshape(-1, 1)
        by_width = {}
        for t, r in enumerate(rows):
            by_width.setdefault(len(r[3]), []).append(t)
        self.lin_groups = [(np.array(sel), np.array([rows[t][2] for t in sel]),
                            np.array([rows[t][3] for t in sel], dtype=int))
                           for sel in by_width.values()]
        H_terms, h_terms = [], []
        for i in range(m):
            H_terms += [(i, slot[(a, i)]) for a in hpartition.n_in[i]]
            h_terms += [(i, slot[(a, i)]) for a in hpartition.n_in[i]]
            for b in hpartition.n_out[i]:
                s = slot[(b, i)]
                H_terms.append((i, s))
                if len(factors[b]) > 1:
                    h_terms.append((i, s + n_out))
                h_terms.append((i, s))
        H_node, self.H_src = np.array(H_terms, dtype=int).reshape(-1, 2).T
        h_node, self.h_src = np.array(h_terms, dtype=int).reshape(-1, 2).T
        self.at_H, self.at_h = RowSum(H_node, m), RowSum(h_node, m)
        self.at_lin = RowSum(self.lin_row, K + 2 * n_out)

    def linear_terms(self, x):
        """The round's (K + 2 n_out, d) table of terms linear in x."""
        T = np.empty((len(self.lin_row), self.d))
        for sel, M, nodes in self.lin_groups:
            T[sel] = (M @ x.take(nodes, axis=0).reshape(len(sel), -1, 1))[..., 0]
        return self.at_lin(self.lin_coef * T)

    def node_curvatures(self, problem, H_msg):
        """Per-node curvature aggregates over all incident terms."""
        return self.at_H(np.concatenate([H_msg, self.out_H])[self.H_src],
                         start=problem.diag)

    def node_linear(self, problem, h_msg, lin):
        """Per-node linear aggregates over all incident terms."""
        return self.at_h(np.concatenate([h_msg, lin[self.n_intra:]])[self.h_src],
                         start=problem.lin)

    def messages(self, H_agg, aggh, h_msg, lin, kept):
        """Every factor-to-variable message, one rule call per arity: (H_new,
        h_new, the groups' rule curvatures). ``H_agg`` holds per arity group
        the rest's curvature aggregates without the receiving factor's
        messages; ``kept``, the groups' curvatures once stationary, skips the
        curvature half (H_new is then None)."""
        H_new = np.empty((self.n_intra, self.d, self.d)) if kept is None else None
        h_new = np.empty_like(h_msg)
        curvatures = []
        for g, (sel, blocks, rest, rest_msg) in enumerate(self.groups):
            msg = hyper_factor_message(
                blocks, H_agg[g], aggh[rest] - h_msg[rest_msg],
                frozen_lin=lin[rest_msg], receiver_extra_lin=lin[sel],
                curvature=None if kept is None else kept[g])
            if H_new is not None:
                H_new[sel] = msg.H
            h_new[sel] = msg.h
            curvatures.append(msg.curvature)
        return H_new, h_new, curvatures


def h_mp_jacobi(problem, hpartition, config=None, x0=None):
    """Hypergraph message-passing Jacobi (quadratic factors).

    Per round: Jacobi-style variable updates from factor-to-variable messages
    plus frozen inter-cluster factors, then one factor-to-variable message
    round on each intra-cluster factor tree. The hosted-factor and
    factor-processor implementations differ only in the communication count
    (``_hyper_comm``). The plain problem runs as its identity split. A
    ``first_order`` spec means ``diagonalize_message`` compression of every new
    message at the round iterate (alpha is not read); ``schur_quadratic`` and
    ``partial_linearization`` raise SolverError, here and in
    :func:`h_mp_jacobi_split`.
    """
    _check_hyper_problem(problem, hpartition, hpartition.hypergraph.hyperedges)
    split = apply_split(hpartition.hypergraph, SplitMap.identity())
    view = SplitQuadraticView(problem, split, split_surrogate_components(split, {}))
    return _hyper_run(problem, hpartition, config, x0, view)


def h_mp_jacobi_split(problem, split_surrogate, hpartition, config=None, x0=None):
    """Splitting variant: identical round structure on the split factor set,
    with component factors re-frozen at the newest iterates each round.
    ``split_surrogate`` is a SplitQuadraticView from the splitting module;
    ``hpartition`` partitions the split hypergraph.
    """
    split = split_surrogate.split
    _check_hyper_problem(problem, hpartition, split.original.hyperedges)
    if hpartition.hypergraph.hyperedges != split.hypergraph.hyperedges:
        raise PartitionMismatch("partition is not over the split hypergraph")
    return _hyper_run(problem, hpartition, config, x0, split_surrogate)


def _hyper_run(problem, hpartition, config, x0, view):
    """Rounds of the hypergraph engine on a compiled split view; messages
    are (K, d, d) / (K, d) arrays over the intra incidences and
    ``trace.monitor`` holds the final (H_msg, h_msg, incidences)."""
    config = config or SolverConfig()
    family = "exact" if config.surrogate is None else config.surrogate.family
    if family not in ("exact", "first_order"):
        raise SolverError(f"the hypergraph solvers have no {family} messages; "
                          "use 'exact' or 'first_order' (diagonalized messages)")
    lay = _HyperLayout(problem, hpartition, view)
    exchanging, relay = _hyper_comm(hpartition, lay, config.factor_impl)
    surrogate_diag = family == "first_order"

    def curvature(H_msg):
        aggH = lay.node_curvatures(problem, H_msg)
        return (_variable_system(aggH),
                [aggH[rest] - H_msg[rest_msg] for _, _, rest, rest_msg in lay.groups])

    def linear(x, h_msg, state, kept):
        system, H_agg = state
        lin = lay.linear_terms(x)
        aggh = lay.node_linear(problem, h_msg, lin)
        xhat = _variable_solve(system, aggh)
        H_new, h_new, curvatures = lay.messages(
            H_agg, aggh, h_msg, lin, None if kept is None else kept[0])
        if kept is not None:
            H_new = kept[1]
        keep = (curvatures, H_new)
        if surrogate_diag:
            msg = diagonalize_message(QuadraticMessage(H_new, h_new),
                                      x.take(lay.nodes, axis=0))
            H_new, h_new = msg.H, msg.h
        return xhat, H_new, h_new, keep

    def vectors(H_msg):
        return 2 * int(message_vectors(H_msg)[exchanging].sum()) + relay

    rounds = _Rounds(np.zeros((lay.n_intra, lay.d, lay.d)),
                     np.zeros((lay.n_intra, lay.d)), curvature, linear, vectors)
    return rounds.run(problem, _tau_per_node(problem, hpartition, config), config,
                      x0, lay.incidences)


def _check_hyper_problem(problem, hpartition, factors):
    """Raise PartitionMismatch unless the problem lives on the partition's
    nodes and its factors are exactly ``factors``."""
    if len(hpartition.cluster_of) != problem.m:
        raise PartitionMismatch(f"partition has {len(hpartition.cluster_of)} "
                                f"nodes, problem has {problem.m}")
    if problem.pair:
        raise PartitionMismatch("the hypergraph solvers ignore pairwise couplings; "
                                "convert them with pairwise_to_hyper")
    if set(problem.hyper) != set(factors):
        raise PartitionMismatch("problem factors differ from the partition's "
                                "hyperedges")


def _hyper_comm(hpartition, lay, impl):
    """Who exchanges messages, and the vectors relayed, in one hypergraph
    round, which sends 2 message_vectors over the exchanging incidences plus
    the relay. Hosted factors: an intra factor's non-host members send their
    aggregates to the host and receive their message back. Factor processors:
    all members exchange with the factor node. Inter-cluster factors relay
    iterates: every member ships x_i to the implementation, which returns the
    complement stack to each member."""
    exchanging = (impl == "factor_processor") | (lay.nodes != lay.hosts)
    relay = 0
    for a, w in enumerate(hpartition.hypergraph.hyperedges):
        if hpartition.factor_cluster[a] == -1:
            k = len(w)
            up = (k - 1) if impl == "hosted_factor" else k
            relay += up + k * (k - 1)
    return exchanging, relay


# ---------------------------------------------------------------------------
# baselines

_DRIVEN = ("max_rounds", "tol", "oracle")     # the params keys each kind reads
_BASELINE_PARAMS = {"jacobi": _DRIVEN + ("tau",), "gradient_descent": _DRIVEN + ("step",),
                    "block_jacobi_central": _DRIVEN + ("tau", "clusters"),
                    "dgd_cta": _DRIVEN, "dgd_atc": _DRIVEN, "minsum": _DRIVEN,
                    "minsum_splitting": ("W", "delta", "Gamma", "gamma", "max_rounds", "tol")}


def baseline(kind, problem, params=None, x0=None):
    """Classical iterations used for comparison curves. Kinds, and the
    ``params`` keys each reads besides max_rounds [10000], tol [1e-12] and
    oracle [None]:
      jacobi                node-wise Jacobi: tau [1.0]
      block_jacobi_central  centralized block Jacobi: tau [1.0], clusters
                            (a partition of the nodes 0..m-1)
      gradient_descent      step [1 / lambda_max(H)]
      dgd_cta, dgd_atc      diffusion on a CtaProblem, 2|E| vectors a round
      minsum                plain loopy min-sum, the exact engine on every
                            edge, undamped: max_rounds [1000]; it converges
                            on walk-summable couplings and can diverge
                            otherwise (Malioutov, Johnson & Willsky, 2006)
      minsum_splitting      :func:`minsum_splitting` on a list of (H_v, b_v):
                            W, delta, Gamma, gamma, max_rounds, tol only

    All run on :func:`_drive`: tol bounds the iterate increment (minsum: the
    gradient norm), a non-finite x0 raises ObjectiveError, and divergence is
    flagged, never raised. SolverError, before any work: an unknown kind or
    params key, a missing W or clusters, clusters that are no partition, dgd
    off a CtaProblem, an x0 for minsum_splitting, a malformed tau, step,
    max_rounds or tol. NotQuadratic: the other kinds off a
    QuadraticObjective. A singular block raises IllPosedSubproblem (minsum:
    or SingularSenderCurvature).
    """
    if kind not in _BASELINE_PARAMS:
        raise SolverError(f"unknown baseline {kind!r}; kinds: {list(_BASELINE_PARAMS)}")
    params = dict(params or {})
    unread = sorted(set(params) - set(_BASELINE_PARAMS[kind]))
    if unread:
        raise SolverError(f"baseline {kind!r} does not read {unread}; "
                          f"it reads {_BASELINE_PARAMS[kind]}")
    if kind == "minsum_splitting":
        if "W" not in params or x0 is not None:
            raise SolverError("minsum_splitting needs params['W'] and takes no x0")
        return minsum_splitting(problem, **params)
    minsum = kind == "minsum"
    config = SolverConfig(max_rounds=params.get("max_rounds", 1000 if minsum else 10000),
                          tol_x=params.get("tol", 1e-12), track_oracle=params.get("oracle"))
    if minsum:                          # stops on the gradient norm only
        config = replace(config, tol_x=0.0, tol_grad=config.tol_x)
        return _exact_run(problem, None, np.ones(problem.m), config, x0)
    tau_node = None                     # gradient and diffusion steps: undamped
    if kind in ("dgd_cta", "dgd_atc"):
        if not isinstance(problem, CtaProblem):
            raise SolverError(f"baseline {kind!r} needs a lifted consensus problem")
        W, gamma, atc = problem.gossip.W, problem.gamma, kind == "dgd_atc"
        sent = 2 * len(problem.graph_edges())

        def step(x):
            Wx = W @ x
            g = problem.own_local_grads(Wx if atc else x)
            return (W @ (Wx - gamma * g) if atc else Wx - gamma * g), sent
    elif not isinstance(problem, QuadraticObjective):
        raise NotQuadratic(f"baseline {kind!r} needs a quadratic problem")
    elif kind == "gradient_descent":
        alpha = params.get("step")
        if alpha is None:
            alpha = 1.0 / np.linalg.eigvalsh(problem.assemble()[0])[-1]
        else:
            alpha = _checked_stepsizes(alpha)

        def step(x):
            return x - alpha * problem.grad(x), 0
    else:
        tau_node = np.full(problem.m, float(_checked_stepsizes(params.get("tau", 1.0))))
        if kind == "block_jacobi_central":
            step = _central_step(problem, params.get("clusters"))
        else:
            def step(x):
                g = problem.grad(x)
                return x - np.linalg.solve(problem.diag, g[..., None])[..., 0], 0
    with _ill_posed:                    # a singular jacobi or central block
        return _drive(problem, tau_node, config, x0, lambda x: step)


def _central_step(problem, clusters):
    """Centralized block-Jacobi round: each cluster solves its rows of
    H x + b = 0 with the other coordinates frozen; the blocks of H are
    sliced once. SolverError unless ``clusters`` partition 0..m-1."""
    m, d = problem.m, problem.d
    if (clusters is None or not all(len(c) for c in clusters)
            or sorted(i for c in clusters for i in c) != list(range(m))):
        raise SolverError(f"clusters must partition the nodes 0..{m - 1}")
    H, b = problem.assemble()
    blocks = []
    for c in clusters:
        idx = (np.asarray(c, dtype=int)[:, None] * d + np.arange(d)).reshape(-1)
        rest = np.setdiff1d(np.arange(m * d), idx)
        blocks.append((idx, rest, b[idx], H[np.ix_(idx, idx)], H[np.ix_(idx, rest)]))

    def step(x):
        xf = x.reshape(-1)
        xhat = np.empty_like(xf)
        for idx, rest, b_c, H_cc, H_cr in blocks:
            xhat[idx] = np.linalg.solve(H_cc, -(b_c + H_cr @ xf[rest]))
        return xhat.reshape(m, d), 0

    return step


def minsum_splitting(consensus_locals, W, delta=None, Gamma=None, gamma=None,
                     max_rounds=2000, tol=1e-12):
    """Splitting recursion for quadratic consensus: minimize sum_v 1/2 <H_v z,
    z> - <b_v, z> subject to agreement.

    The per-node quadratic message parameters evolve linearly,
        (r^s; q^s) = K(delta, Gamma) (r^{s-1}; q^{s-1}),
        (R^s; Q^s) = K(delta, Gamma) (R^{s-1}; Q^{s-1}),
    with K(delta, Gamma) = [[(1-delta)I - (1-delta)diag(Gamma 1) + delta Gamma,
    delta I], [delta I - delta diag(Gamma 1) + (1-delta) Gamma, (1-delta)I]].
    Outputs x_v^s = (R_v^s)^{-1} r_v^s converge to Hbar^{-1} bbar; with
    delta=1 and Gamma = gamma W the asymptotic factor is
        rho_K = sqrt((1 - sqrt(1 - rho_W^2)) / (1 + sqrt(1 - rho_W^2)))
    at the optimal gamma = 2 / (1 + sqrt(1 - rho_W^2)).
    The rounds run undamped on :func:`_drive`, each sending 2 nnz(Gamma)
    vectors, from x = 0, with ``tol`` as ``tol_x``. The trace records the
    consensus objective held at each agent's estimate, sum_v F(x_v) with F(z)
    = sum_u 1/2 <H_u z, z> - <b_u, z>, against its minimizer Hbar^{-1} bbar
    on every node. A singular R_v raises IllPosedSubproblem; a W that is not
    n x n, or a max_rounds or tol that ``SolverConfig`` rejects, raises
    SolverError.
    """
    Hs = [np.asarray(H, dtype=float) for (H, _) in consensus_locals]
    bs = [np.asarray(b, dtype=float) for (_, b) in consensus_locals]
    n = len(Hs)
    d = bs[0].shape[0]
    W = np.asarray(W, dtype=float)
    if W.shape != (n, n):
        raise SolverError(f"W must be {n} x {n}, got shape {W.shape}")
    config = SolverConfig(max_rounds=max_rounds, tol_x=tol)
    rho_W = _rho_perp(W)
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

    H_sum, b_sum = sum(Hs), sum(bs)
    problem = QuadraticObjective(n, d, np.repeat(H_sum[None], n, axis=0),
                                 np.repeat(-b_sum[None], n, axis=0))
    x_star = np.repeat(np.linalg.solve(H_sum / n, b_sum / n)[None], n, axis=0)
    config.track_oracle = (x_star, problem.value(x_star))
    R = np.concatenate([np.stack(Hs), np.stack(Hs)], axis=0)   # (2n, d, d)
    rv = np.concatenate([np.stack(bs), np.stack(bs)], axis=0)  # (2n, d)
    sent = 2 * int((np.abs(Gamma) > 0).sum())

    def step(x):
        nonlocal R, rv
        R = np.einsum("ab,bij->aij", K, R)
        rv = np.einsum("ab,bi->ai", K, rv)
        with _ill_posed:
            return np.linalg.solve(R[:n], rv[:n, :, None])[..., 0], sent

    trace = _drive(problem, None, config, None, lambda x: step)
    rho_K = math.sqrt((1 - math.sqrt(max(1 - rho_W ** 2, 0.0)))
                      / (1 + math.sqrt(max(1 - rho_W ** 2, 0.0))))
    trace.monitor = {"rho_K": rho_K, "gamma": gamma, "rho_W": rho_W}
    return trace


def _rho_perp(W):
    n = W.shape[0]
    return float(np.max(np.abs(np.linalg.eigvals(W - np.ones((n, n)) / n))))


# ---------------------------------------------------------------------------
# stepsizes


def select_stepsize(partition, rate_inputs, mode="uniform_theorem",
                    manual_tau=None, surrogate=False):
    """Theorem-driven stepsize selection from one
    :func:`rate_analysis.rate_terms` report (surrogate when ``surrogate``);
    returns (tau, rho), tau a scalar (uniform, manual) or one per cluster.

    uniform_theorem: the report's tau_max = min{1/p, 2 kappa/(2D+1),
        sqrt(min_{r in J} mu_r / (8 (2D+1) A_J))} and rho, the surrogate
    analogue replacing (kappa, mu_r, A_J) by (kappa_t, mu_t_r, A_J + max_r
    At_r). heterogeneous_theorem: tau_r = 1/p and the report's rho when the
    window condition 2D+1 <= min(2 kappa p, mu_min p^2 / (8 A)), i.e.
    1/p <= min(II, III) (regime I), holds; else InfeasibleCondition.
    manual(tau): tau, unless it is not a finite nonnegative number
    (SolverError).
    """
    if mode == "manual":
        return float(_checked_stepsizes(manual_tau)), None
    if mode not in ("uniform_theorem", "heterogeneous_theorem"):
        raise SolverError(f"unknown stepsize mode {mode!r}")
    rep = rate_terms(partition, rate_inputs, surrogate=surrogate)
    if mode == "uniform_theorem":
        return rep.tau_max, rep.rho
    if rep.tau_max < rep.term_I:
        raise InfeasibleCondition(
            f"1/p = {rep.term_I:.3g} exceeds min(II, III) = {rep.tau_max:.3g} "
            f"(regime {rep.regime}); fall back to uniform_theorem")
    return np.full(partition.p, rep.term_I), rep.rho
