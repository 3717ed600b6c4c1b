"""Objective representations and problem builders.

Conventions (fixed across the package):
  node terms      phi_i(x_i)   = 1/2 <H_ii x_i, x_i> + <b_i, x_i>
  pair couplings  psi_ij(x_i, x_j) = <H_ij x_j, x_i>, stored once per edge
                  (i < j); the reverse orientation is H_ij^T.
  hyper factors   psi_w(x_w)   = <H_w x_w, x_w>  (no 1/2), H_w symmetric
                  over the stacked block order sorted(w).

Iterates are ndarrays of shape (m, d): block i is x[i].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .messages import GatheredProducts, PairCodes, PairProducts


class ObjectiveError(ValueError):
    pass


class NonStochasticW(ObjectiveError):
    pass


class SingularInconsistent(ObjectiveError):
    pass


class NotQuadratic(ObjectiveError):
    pass


def as_blocks(x, m, d):
    x = np.asarray(x, dtype=float)
    if x.shape == (m, d):
        return x
    if x.shape == (m * d,):
        return x.reshape(m, d)
    raise ObjectiveError(f"expected shape ({m},{d}) or ({m * d},), got {x.shape}")


def check_block_vector(x):
    """x, an (m, d) block vector from :func:`as_blocks`, unless it has
    non-finite entries."""
    if not np.all(np.isfinite(x)):
        raise ObjectiveError("block vector has non-finite entries")
    return x


def _frozen_stack(blocks, shape):
    """Read-only float stack of ``blocks``, each of ``shape``."""
    stack = np.array(blocks, dtype=float).reshape((len(blocks),) + shape)
    stack.flags.writeable = False
    return stack


class RowSum:
    """Precompiled, order-preserving sum of rows into ``n`` destination rows:
    ``scatter(vals, start)`` returns ``np.add.at(0.0 + start, idx, vals)``
    (zeros without a start) bit for bit, NaN signs exempt
    (``test_row_scatter_equals_add_at``). vals holds its rows on the axes from
    ``axis`` on, laid out like ``idx``; start holds n rows at ``axis``; the
    axes before ``axis`` hold a single entry (a stack is summed by
    :class:`RowScatter`). One ``np.bincount`` over flat indices compiled once
    per row shape, which adds its weights in input order, start first, into
    zeros; ``compiled`` and ``with_start`` compile a sum for repeated calls."""

    def __init__(self, idx, n):
        self.idx = np.asarray(idx, dtype=int).reshape(-1)
        self.row_shape, self.n = np.shape(idx), n
        self._flat = {}

    def _compiled(self, tail, started):
        """(flat, length): the bincount indices of rows of shape ``tail``,
        after those of a start when ``started``, and the output length."""
        compiled = self._flat.get((tail, started))
        if compiled is None:
            size = math.prod(tail)
            flat = (self.idx[:, None] * size + np.arange(size)).reshape(-1)
            if started:
                flat = np.concatenate([np.arange(self.n * size), flat])
            compiled = self._flat[(tail, started)] = (flat, self.n * size)
        return compiled

    def __call__(self, vals, start=None, axis=0):
        lead, tail = vals.shape[:axis], vals.shape[axis + len(self.row_shape):]
        flat, length = self._compiled(tail, start is not None)
        weights = vals.reshape(-1)
        if start is not None:
            weights = np.concatenate((start.reshape(-1), weights))
        return np.bincount(flat, weights, minlength=length).reshape(lead + (self.n,) + tail)

    def compiled(self, tail):
        """``self`` on rows (len(idx),) + tail, compiled: one bincount."""
        flat, length = self._compiled(tail, False)
        shape = (self.n,) + tail
        return lambda vals: np.bincount(flat, vals.reshape(-1), minlength=length).reshape(shape)

    def with_start(self, start):
        """A :class:`StartedSum` over these rows, starting from a copy of
        ``start`` (n, ...)."""
        return StartedSum(self, start)


class StartedSum:
    """A :class:`RowSum` with a start, over one weight buffer [start | vals]
    allocated once: ``start`` is the buffer's head as an (n, ...) view, which a
    caller may rewrite in place between calls, and ``sums(vals)`` copies vals
    into the tail and returns ``rowsum(vals, start)`` bit for bit
    (``test_started_sum_equals_row_sum_with_start``)."""

    def __init__(self, rowsum, start):
        self.flat, self.length = rowsum._compiled(start.shape[1:], True)
        self.shape = start.shape
        self.weights = np.empty(len(self.flat))
        head = math.prod(start.shape)
        self.start = self.weights[:head].reshape(start.shape)
        self._vals = self.weights[head:].reshape((len(rowsum.idx),) + start.shape[1:])
        self.start[...] = start

    def sums(self, vals):
        self._vals[...] = vals
        return np.bincount(self.flat, self.weights, minlength=self.length).reshape(self.shape)


class RowScatter(RowSum):
    """:class:`RowSum` that also sums stacks, whose axes before ``axis`` are
    batch axes, each entry summed apart in the same order: slot by slot,
    slots[j, i] the row of node i's (j+1)-th term or len(idx) for a pad:
    (0.0 + start) + term_0 + term_1 + ..., each term gathered by one ``take``
    from C-contiguous rows, or else by a fancy index in place (as
    :class:`~mpjacobi.messages.PairProducts` lays out its terms). A pad's term
    is +0.0, which never changes a sum that began at +0.0: such a sum is never
    -0.0, as a sum is -0.0 only when both addends are. A single entry takes
    RowSum's bincount, faster on sparse scatters."""

    def __init__(self, idx, n):
        super().__init__(idx, n)
        counts = np.bincount(self.idx, minlength=n)
        order = np.argsort(self.idx, kind="stable")
        rank = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
        self.slots = np.full((counts.max(initial=0), n), len(order))
        self.slots[rank, self.idx[order]] = order
        # per slot: its rows (row 0 for a pad), flat and on the row axes,
        # and the nodes it pads (None: none)
        pads = self.slots == len(order)
        self._gathers = [(flat, np.unravel_index(flat, self.row_shape),
                          np.flatnonzero(pad) if pad.any() else None)
                         for flat, pad in zip(np.where(pads, 0, self.slots), pads)]

    def __call__(self, vals, start=None, axis=0):
        lead, tail = vals.shape[:axis], vals.shape[axis + len(self.row_shape):]
        if math.prod(lead) == 1:
            return super().__call__(vals, start, axis)
        shape = lead + (self.n,) + tail
        out = np.zeros(shape) if start is None else 0.0 + start.reshape(shape)
        cut = (slice(None),) * len(tail)
        # C-contiguous rows are gathered by take from a view, the faster
        # ("clip" spares it a buffered copy); others by a fancy index in
        # place, as a reshape would copy them
        rows = vals.reshape(lead + (-1,) + tail) if vals.flags.c_contiguous else None
        term = np.empty(shape)
        for flat, at, pads in self._gathers:
            term = (vals[(Ellipsis,) + at + cut] if rows is None
                    else rows.take(flat, axis=axis, out=term, mode="clip"))
            if pads is not None:
                term[(Ellipsis, pads) + cut] = 0.0
            np.add(out, term, out=out)
        return out


def _transposed(B):
    """The (E, d, d) stack of B_e^T, as a view."""
    return np.transpose(B, (0, 2, 1))


@dataclass
class QuadraticObjective:
    """Block quadratic objective over a graph or hypergraph. The couplings are
    compiled once, at construction: ``pair_rows``/``pair_cols`` and the
    (E, d, d) stack ``pair_blocks`` list the pair couplings in ``pair`` order,
    and ``hyper_groups`` holds per factor arity k the factors' positions in
    ``hyper`` order (n,), their members (n, k) and blocks (n, kd, kd). ``pair``
    and ``hyper`` are read-only mappings onto read-only views of those stacks;
    ``diag`` and ``lin`` are plain attributes and may be reassigned."""

    m: int
    d: int
    diag: np.ndarray                    # (m, d, d) symmetric blocks H_ii
    lin: np.ndarray                     # (m, d) vectors b_i
    pair: dict = field(default_factory=dict)    # (i, j) i<j -> (d, d) block H_ij
    hyper: dict = field(default_factory=dict)   # sorted tuple w -> (|w|d, |w|d) sym

    def __post_init__(self):
        m, d = self.m, self.d
        self.diag = np.asarray(self.diag, dtype=float)
        self.lin = np.asarray(self.lin, dtype=float)
        if self.diag.shape != (m, d, d):
            raise ObjectiveError(f"diag has shape {self.diag.shape}, "
                                 f"expected {(m, d, d)}")
        if self.lin.shape != (m, d):
            raise ObjectiveError(f"lin has shape {self.lin.shape}, "
                                 f"expected {(m, d)}")
        self._compile_pairs({tuple(int(t) for t in k): np.asarray(v, dtype=float)
                             for k, v in self.pair.items()})
        self._compile_hyper({tuple(int(t) for t in k): np.asarray(v, dtype=float)
                             for k, v in self.hyper.items()})

    def _compile_pairs(self, pair):
        m, d = self.m, self.d
        if any(blk.shape != (d, d) for blk in pair.values()):
            raise ObjectiveError("bad coupling block shape")
        ij = np.array(list(pair), dtype=int).reshape(-1, 2)
        if np.any(ij[:, 0] >= ij[:, 1]):
            raise ObjectiveError("pair couplings must be keyed with i < j")
        if np.any(ij < 0) or np.any(ij >= m):
            raise ObjectiveError(f"pair coupling on a node outside 0..{m - 1}")
        self.pair_rows, self.pair_cols = ij[:, 0], ij[:, 1]
        self.pair_codes = PairCodes(ij, m)
        self.pair_blocks = _frozen_stack(list(pair.values()), (d, d))
        self._pair_products = PairProducts(self.pair_blocks, self.pair_rows, self.pair_cols)
        self.pair = MappingProxyType(dict(zip(pair, self.pair_blocks)))
        self._edge_set = frozenset(pair)

    def _compile_hyper(self, hyper):
        m, d = self.m, self.d
        for w, blk in hyper.items():
            k = len(w) * d
            if blk.shape != (k, k):
                raise ObjectiveError(f"bad hyper block shape for {w}")
            if not w or len(set(w)) != len(w) or min(w) < 0 or max(w) >= m:
                raise ObjectiveError(f"hyper factor {w} must list distinct "
                                     f"nodes in 0..{m - 1}")
        factors = list(hyper)
        groups = []
        for k in sorted({len(w) for w in factors}):
            ids = np.array([a for a, w in enumerate(factors) if len(w) == k])
            blocks = _frozen_stack([hyper[factors[a]] for a in ids], (k * d, k * d))
            asym = ~np.all(np.isclose(blocks, _transposed(blocks), atol=1e-12),
                           axis=(1, 2))
            if np.any(asym):
                w = factors[ids[np.argmax(asym)]]
                raise ObjectiveError(f"hyper block for {w} not symmetric")
            members = np.array([factors[a] for a in ids], dtype=int).reshape(-1, k)
            groups.append((ids, members, blocks))
        self.hyper_groups = tuple(groups)
        views = {factors[a]: blk for ids, _, blocks in groups
                 for a, blk in zip(ids, blocks)}
        self.hyper = MappingProxyType({w: views[w] for w in factors})
        # every factor's members in hyper order, and the permutation that
        # takes the groups' concatenated member rows to that order
        self._hyper_members = np.array([i for w in factors for i in w], dtype=int)
        start = np.cumsum([0] + [len(w) for w in factors])
        rows = [(start[ids, None] + np.arange(members.shape[1])).ravel()
                for ids, members, _ in groups]
        self._hyper_order = np.argsort(np.concatenate([np.zeros(0, dtype=int)] + rows))
        # grad adds the pair terms at rows[0], cols[0], rows[1], ..., laid
        # out (E, 2) as PairProducts makes them, then every factor's member
        # rows in hyper order
        ij = self.pair_codes.pairs
        self._grad_scatter = RowScatter(np.concatenate([ij.reshape(-1), self._hyper_members])
                                        if groups else ij, m)
        slots = self._grad_scatter.slots
        if d == 1 and not groups:       # grad's couplings and source nodes by slot
            self._slot_coef = np.append(np.repeat(self.pair_blocks.reshape(-1), 2), 0.0)[slots]
            self._slot_src = np.append(ij[:, ::-1].reshape(-1), m)[slots]
            self._slot_pads = bool(np.any(self._slot_src == m))

    # -- structure ---------------------------------------------------------

    @property
    def edges(self):
        return sorted(self.pair.keys())

    def coupling(self, i, j):
        """Oriented block B with psi(x_i, x_j) = <B x_j, x_i>."""
        if i < j:
            return self.pair[(i, j)]
        return self.pair[(j, i)].T

    def couplings(self, rows, cols):
        """Stacked oriented blocks B_e with psi = <B_e x_cols[e], x_rows[e]>,
        one per directed pair (rows[e], cols[e]); a new (E, d, d) array."""
        at, found = self.pair_codes.find(rows, cols)
        if not found.all():
            raise ObjectiveError("no coupling between some requested pairs")
        return self.oriented(self.pair_codes.order[at], rows, cols)

    def oriented(self, at, rows, cols):
        """:meth:`couplings` of the directed pairs (rows[e], cols[e]) whose
        blocks sit at positions ``at`` of ``pair_blocks``, without a search."""
        B = self.pair_blocks[at]
        return np.where((np.asarray(rows) < np.asarray(cols))[:, None, None], B, _transposed(B))

    # -- evaluation --------------------------------------------------------

    def _hyper_stacks(self, x):
        """Per arity group: (members, blocks, stacked x_w of shape
        (..., n, kd)) for x of shape (..., m, d)."""
        return [(members, blocks,
                 x[..., members, :].reshape(x.shape[:-2] + (len(members), -1)))
                for _, members, blocks in self.hyper_groups]

    def value(self, x):
        x = as_blocks(x, self.m, self.d)
        val = (0.5 * np.einsum("ik,ikl,il->", x, self.diag, x)
               + np.einsum("ik,ik->", self.lin, x)
               + np.einsum("ek,ekl,el->", x[self.pair_rows], self.pair_blocks,
                           x[self.pair_cols]))
        for _, H, xs in self._hyper_stacks(x):
            val += np.einsum("nk,nkl,nl->", xs, H, xs)
        return float(val)

    def _node_term(self, x):
        """The products H_ii x_i of x (..., m, d), with the bits of one
        unbatched einsum on C-contiguous operands
        (``test_d2_node_term_of_a_stack_equals_einsum_bitwise``). At d = 2 a
        stack on finite blocks takes the column planes of a
        :class:`~mpjacobi.messages.GatheredProducts` of ``diag``, compiled per
        call, as ``diag`` may be reassigned. Another stack is read against
        ``diag`` tiled K times, (K m, d, d), as einsum's sums at d >= 3 depend
        on the strides and its broadcast path is slow: K m d^2 floats, 288 KB
        for K = 32 (``solvers.RECORD_BATCH``), m = 128 and d = 3."""
        m, d = self.m, self.d
        K = math.prod(x.shape[:-2])
        diag = np.ascontiguousarray(self.diag)
        if K != 1 and d == 2:
            products = GatheredProducts(diag)
            if products.planes:
                return products(x)
        if K != 1:
            diag = np.broadcast_to(diag, (K, m, d, d)).reshape(K * m, d, d)
        return np.einsum("ikl,il->ik", diag,
                         np.ascontiguousarray(x).reshape(K * m, d)).reshape(x.shape)

    def grad(self, x):
        """Gradient of the iterate x, (m, d) or (md,), or of every iterate of a
        stack (..., m, d), shaped like the stack: node terms, then every pair
        term in ``pair`` order (B x_j at i, B^T x_i at j), then every factor's
        members in ``hyper`` order, the additions of the per-coupling loop in
        its order. A stack's products are made by one pass each
        (:meth:`_node_term`, :class:`~mpjacobi.messages.PairProducts`) and
        summed by :class:`RowScatter`, so each iterate holds the bits of its
        own gradient (``test_grad_of_a_stack_is_the_stacked_grads``). A
        pairwise stack at d = 1 folds the pair products into the slot sum, in
        (K, m) layout: g = (diag x + b) + 0.0, formed in place, then per slot
        g + coupling * x at the slot's node, a pad reading coupling 0 at a
        zero column appended when some slot pads; as g is never -0.0, the
        products need no + 0.0. Every path returns a new array, which
        ``RunTrace.record`` reuses."""
        m, d = self.m, self.d
        x = np.asarray(x, dtype=float)
        if x.shape == (m * d,):
            x = x.reshape(m, d)
        if x.shape[-2:] != (m, d):
            raise ObjectiveError(f"expected shape (..., {m}, {d}) or ({m * d},), "
                                 f"got {x.shape}")
        lead, K = x.shape[:-2], math.prod(x.shape[:-2])
        if d == 1 and K > 1 and not self.hyper_groups:
            g = np.multiply(self.diag.reshape(m), x.reshape(K, m))
            np.add(np.add(g, self.lin.reshape(m), out=g), 0.0, out=g)
            xs = x.reshape(K, m)
            if self._slot_pads:
                xs = np.concatenate((xs, np.zeros((K, 1))), axis=1)
            term = np.empty((K, m))
            for coef, src in zip(self._slot_coef, self._slot_src):
                np.add(g, np.multiply(coef, xs.take(src, axis=1, out=term, mode="clip"),
                                      out=term), out=g)
            return g.reshape(x.shape)
        g = self._node_term(x) + self.lin
        terms = self._pair_products(x)
        if self.hyper_groups:
            hyper = np.concatenate(
                [(2.0 * np.matmul(H, xs[..., None])).reshape(lead + (-1, d))
                 for _, H, xs in self._hyper_stacks(x)], axis=-2)
            terms = np.concatenate([terms.reshape(lead + (-1, d)),
                                    hyper[..., self._hyper_order, :]], axis=-2)
        return self._grad_scatter(terms, start=g, axis=len(lead))

    def assemble(self):
        """Dense (md, md) Hessian and (md,) linear term of the stacked problem:
        the diagonal blocks, the pair blocks B at (i, j) and B^T at (j, i),
        then 2 H_w per factor in ``hyper`` order. H is column-major: H^T is
        filled in row-major order and returned transposed, with the bits of a
        row-major build, so that ``numpy.linalg`` hands LAPACK H by one
        contiguous copy instead of a strided gather."""
        m, d = self.m, self.d
        Ht = np.zeros((m, d, m, d))         # Ht[j, b, i, a] = H[(i, a), (j, b)]
        nodes, rows, cols, B = np.arange(m), self.pair_rows, self.pair_cols, self.pair_blocks
        # every diagonal and pair block lands once, on zeros
        Ht[nodes, :, nodes, :] += _transposed(self.diag)
        Ht[cols, :, rows, :] += _transposed(B)
        Ht[rows, :, cols, :] += B
        if self.hyper_groups:
            # factors overlap: add entry by entry, factor by factor in hyper order
            at, vals, owner = [], [], []
            for ids, members, blocks in self.hyper_groups:
                coords = (members[:, :, None] * d + np.arange(d)).reshape(len(ids), -1)
                at.append((coords[:, None, :] * (m * d) + coords[:, :, None]).ravel())
                vals.append(2.0 * blocks.ravel())
                owner.append(np.repeat(ids, coords.shape[1] ** 2))
            order = np.argsort(np.concatenate(owner), kind="stable")
            np.add.at(Ht.reshape(-1), np.concatenate(at)[order],
                      np.concatenate(vals)[order])
        return Ht.reshape(m * d, m * d).T, self.lin.reshape(-1).copy()

    def graph_edges(self):
        """Edge set of the interaction graph (pairwise couplings only)."""
        return self._edge_set


@dataclass
class SmoothObjective:
    """Callback-backed smooth objective with the same block structure.

    phi[i] = (value, grad) callables on (d,) vectors.
    psi[(i, j)] = (value, grad_i, grad_j) callables on pairs, keyed i < j
    and symmetric: value(u, v) is psi evaluated at (x_i, x_j) = (u, v).
    """

    m: int
    d: int
    phi: list
    psi: dict = field(default_factory=dict)

    def __post_init__(self):
        for key in self.psi:
            if not (isinstance(key, tuple) and len(key) == 2 and 0 <= key[0] < key[1] < self.m):
                raise ObjectiveError(f"psi keys must be pairs (i, j) with 0 <= i < j < "
                                     f"{self.m}, got {key!r}")

    def pair_grad_first(self, i, j, xi, xj):
        """Gradient of psi_ij w.r.t. its first listed argument x_i."""
        if i < j:
            return self.psi[(i, j)][1](xi, xj)
        return self.psi[(j, i)][2](xj, xi)

    def value(self, x):
        x = as_blocks(x, self.m, self.d)
        val = sum(self.phi[i][0](x[i]) for i in range(self.m))
        for (i, j), (v, _, _) in self.psi.items():
            val += v(x[i], x[j])
        return float(val)

    def grad(self, x):
        x = as_blocks(x, self.m, self.d)
        g = np.stack([np.asarray(self.phi[i][1](x[i]), dtype=float)
                      for i in range(self.m)])
        for (i, j), (_, gi, gj) in self.psi.items():
            g[i] += gi(x[i], x[j])
            g[j] += gj(x[i], x[j])
        return g

    def graph_edges(self):
        return set(self.psi.keys())


@dataclass
class GossipMatrix:
    """Symmetric doubly stochastic mixing matrix; its off-diagonal support
    is the communication graph."""

    W: np.ndarray
    gamma: float = 1.0

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=float)
        if self.W.ndim != 2 or self.W.shape[0] != self.W.shape[1]:
            raise NonStochasticW("W must be square")
        m = self.W.shape[0]
        if self.gamma <= 0:
            raise NonStochasticW("gamma must be positive")
        if not (np.allclose(self.W @ np.ones(m), 1.0, atol=1e-10)
                and np.allclose(np.ones(m) @ self.W, 1.0, atol=1e-10)):
            raise NonStochasticW("W must be doubly stochastic")
        # CtaProblem reads the weights from W's upper triangle only
        if not np.allclose(self.W, self.W.T, rtol=0.0, atol=1e-10):
            raise NonStochasticW("W must be symmetric")

    @property
    def m(self):
        return self.W.shape[0]


def metropolis_weights(graph, gamma=1.0):
    """Metropolis mixing weights: w_ij = 1/(1+max(deg_i,deg_j)) on edges."""
    m = graph.m
    W = np.zeros((m, m))
    for (i, j) in graph.edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(graph.degree(i), graph.degree(j)))
    for i in range(m):
        W[i, i] = 1.0 - W[i].sum()
    return GossipMatrix(W, gamma)


# ---------------------------------------------------------------------------
# local loss terms for consensus problems


@dataclass
class QuadraticLocal:
    """f(x) = 1/2 <Q x, x> + <c, x>."""

    Q: np.ndarray
    c: np.ndarray

    def value(self, x):
        return float(0.5 * x @ self.Q @ x + self.c @ x)

    def grad(self, x):
        return self.Q @ x + self.c

    hessian = property(lambda self: self.Q)


@dataclass
class CallableLocal:
    f: object
    g: object

    def value(self, x):
        return float(self.f(x))

    def grad(self, x):
        return np.asarray(self.g(x), dtype=float)


def build_tanh_nn(samples):
    """Per-node one-layer-network losses f(x) = 1/(2n) sum (tanh(a^T x) - b)^2.

    ``samples`` is a list of (A_i, b_i) with A_i of shape (n_i, d).
    """
    locals_ = []
    for (A, b) in samples:
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)

        def value(x, A=A, b=b):
            r = np.tanh(A @ x) - b
            return float(0.5 * np.mean(r * r))

        def grad(x, A=A, b=b):
            t = np.tanh(A @ x)
            return ((t - b) * (1.0 - t * t)) @ A / len(b)

        locals_.append(CallableLocal(value, grad))
    return locals_


@dataclass
class CtaProblem:
    """Consensus objective in lifted form, sum_i f_i(x_i) + (1/(2 gamma))
    ||x||^2_{I - W (x) I_d}; pairwise, phi_i = f_i + (1-w_ii)/(2 gamma) ||.||^2
    and psi_ij = -(w_ij / gamma) <x_i, x_j>. The graph is the off-diagonal
    support of W, read once: ``edge_rows``/``edge_cols`` list its edges i < j
    in sorted order, ``edge_weights`` their w_ij and ``self_weights`` the
    diagonal w_ii. Quadratic local losses are stacked once and evaluated with
    one einsum (one matmul in :meth:`own_local_grads`); other losses are called
    node by node."""

    locals_: list
    gossip: GossipMatrix
    d: int

    def __post_init__(self):
        W = self.gossip.W
        self.edge_rows, self.edge_cols = np.nonzero(np.triu(np.abs(W) > 0, 1))
        self.edge_weights = W[self.edge_rows, self.edge_cols]
        self.self_weights = np.diag(W).copy()
        # the gossip term adds w_ij x_j at i, then w_ij x_i at j
        self._gossip_scatter = RowScatter(
            np.concatenate([self.edge_rows, self.edge_cols]), self.m)
        self._edge_set = frozenset(zip(self.edge_rows.tolist(), self.edge_cols.tolist()))
        self._local_Q = self._local_c = None
        self._own_matmul = False
        if self.is_quadratic():
            Qs = [np.asarray(f.Q, dtype=float) for f in self.locals_]
            self._local_Q = np.stack(Qs)
            self._local_c = np.stack([np.asarray(f.c, dtype=float) for f in self.locals_])
            # the stack is C-contiguous, so matmul takes the kernel of a
            # C-contiguous Q's own product
            self._own_matmul = all(Q.flags.c_contiguous for Q in Qs)

    @property
    def m(self):
        return self.gossip.m

    @property
    def gamma(self):
        return self.gossip.gamma

    def graph_edges(self):
        return self._edge_set

    def value(self, x):
        x = as_blocks(x, self.m, self.d)
        g = self.gamma
        if self._local_Q is None:
            val = sum(self.locals_[i].value(x[i]) for i in range(self.m))
        else:
            val = (0.5 * np.einsum("ik,ikl,il->", x, self._local_Q, x)
                   + np.einsum("ik,ik->", self._local_c, x))
        val += np.einsum("i,ik,ik->", (1.0 - self.self_weights) / (2 * g), x, x)
        val -= np.einsum("e,ek,ek->", self.edge_weights / g,
                         x[self.edge_rows], x[self.edge_cols])
        return float(val)

    def grad(self, x):
        x = as_blocks(x, self.m, self.d)
        g, w = self.gamma, self.edge_weights[:, None]
        out = self.local_grads(x)
        out += ((1.0 - self.self_weights) / g)[:, None] * x
        out -= self._gossip_scatter(np.concatenate(
            [w * x[self.edge_cols], w * x[self.edge_rows]])) / g
        return out

    def local_grads(self, x):
        """Stacked grad f_i(x_i) of the local losses at x (m, d)."""
        if self._local_Q is None:
            return np.stack([self.locals_[i].grad(x[i]) for i in range(self.m)])
        return np.einsum("ikl,il->ik", self._local_Q, x) + self._local_c

    def own_local_grads(self, x):
        """Stacked grad f_i(x_i) at x (m, d) with the bits of every local
        loss's own ``grad``: one batched matmul Q x + c on the stacked
        losses where each Q was C-contiguous at construction, else one
        ``grad`` call per node."""
        if self._own_matmul:
            return np.matmul(self._local_Q, x[..., None])[..., 0] + self._local_c
        return np.stack([f.grad(v) for f, v in zip(self.locals_, x)])

    def is_quadratic(self):
        return all(isinstance(f, QuadraticLocal) for f in self.locals_)

    def to_quadratic(self):
        if not self.is_quadratic():
            raise NotQuadratic("CTA problem has non-quadratic local losses")
        W, g = self.gossip.W, self.gamma
        diag = np.stack([f.Q + (1.0 - W[i, i]) / g * np.eye(self.d)
                         for i, f in enumerate(self.locals_)])
        lin = np.stack([f.c for f in self.locals_])
        pair = {(i, j): -(W[i, j] / g) * np.eye(self.d) for (i, j) in self.graph_edges()}
        return QuadraticObjective(self.m, self.d, diag, lin, pair)

    def to_smooth(self):
        phi = []
        W, g = self.gossip.W, self.gamma
        for i, f in enumerate(self.locals_):
            c = (1.0 - W[i, i]) / g

            def val(x, f=f, c=c):
                return f.value(x) + 0.5 * c * x @ x

            def grd(x, f=f, c=c):
                return f.grad(x) + c * x

            phi.append((val, grd))
        psi = {}
        for (i, j) in sorted(self.graph_edges()):
            wij = W[i, j] / g
            psi[(i, j)] = (
                lambda u, v, w=wij: -w * float(u @ v),
                lambda u, v, w=wij: -w * v,
                lambda u, v, w=wij: -w * u,
            )
        return SmoothObjective(self.m, self.d, phi, psi)


def build_cta(locals_, gossip, d=None):
    """Lifted combine-then-adapt consensus objective."""
    if d is None:
        d = _infer_d(locals_)
    return CtaProblem(list(locals_), gossip, d)


def _infer_d(locals_):
    for f in locals_:
        if isinstance(f, QuadraticLocal):
            return f.Q.shape[0]
    raise ObjectiveError("cannot infer block dimension; pass d explicitly")


def build_atc(locals_, gossip, d=None):
    """Adapt-then-combine objective as a hypergraph quadratic.

    Hyperedges are the supports of the rows of W^2; the factor built from
    row i wraps f_i(sum_j w_ij x_j) plus row i's share of the
    (1/(2 gamma)) ||x||^2_{I - W^2 (x) I} regularizer. Rows with identical
    support are merged into one factor. Quadratic local losses only.
    """
    if d is None:
        d = _infer_d(locals_)
    if not all(isinstance(f, QuadraticLocal) for f in locals_):
        raise NotQuadratic("ATC builder requires quadratic local losses")
    W = gossip.W
    g = gossip.gamma
    m = gossip.m
    W2 = W @ W
    R = np.eye(m) - W2  # scalar pattern of the regularizer

    supports = []
    for i in range(m):
        supp = tuple(sorted(np.nonzero(np.abs(W2[i]) > 1e-14)[0].tolist()))
        if i not in supp:
            supp = tuple(sorted(set(supp) | {i}))
        supports.append(supp)

    factors = {}
    lin = np.zeros((m, d))
    for i in range(m):
        w = supports[i]
        pos = {n: t for t, n in enumerate(w)}
        k = len(w) * d
        Hw = np.zeros((k, k))
        # f_i quadratic part: 1/2 (sum_j w_ij x_j)^T Q (sum...) as <H x, x>
        Q = locals_[i].Q
        for a in w:
            for b in w:
                Hw[pos[a] * d:(pos[a] + 1) * d, pos[b] * d:(pos[b] + 1) * d] += (
                    0.5 * W[i, a] * W[i, b] * Q)
        # f_i linear part -> node linear terms
        for a in w:
            lin[a] += W[i, a] * locals_[i].c
        # regularizer row i: (1/(2g)) <(I - W^2)_{i,:} x, x_i>
        Hw[pos[i] * d:(pos[i] + 1) * d, pos[i] * d:(pos[i] + 1) * d] += (
            R[i, i] / (2 * g) * np.eye(d))
        for a in w:
            if a == i:
                continue
            blk = R[i, a] / (4 * g) * np.eye(d)
            Hw[pos[i] * d:(pos[i] + 1) * d, pos[a] * d:(pos[a] + 1) * d] += blk
            Hw[pos[a] * d:(pos[a] + 1) * d, pos[i] * d:(pos[i] + 1) * d] += blk
        if w in factors:
            factors[w] = factors[w] + Hw
        else:
            factors[w] = Hw

    diag = np.zeros((m, d, d))
    return QuadraticObjective(m, d, diag, lin, pair={}, hyper=factors)


def build_laplacian_qp(weights, b):
    """Graph-signal quadratic 1/2 x^T L x - b^T x with L the weighted Laplacian."""
    weights = np.asarray(weights, dtype=float)
    b = np.asarray(b, dtype=float)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1] or b.size != len(weights):
        raise ObjectiveError(f"weights must be square and b as long as a side, got "
                             f"shapes {weights.shape} and {b.shape}")
    if not (np.isfinite(weights).all() and np.isfinite(b).all()):
        raise ObjectiveError("weights and b must be finite")
    m = weights.shape[0]
    if not np.allclose(weights, weights.T) or np.any(np.diag(weights) != 0):
        raise ObjectiveError("weights must be symmetric with zero diagonal")
    if np.any(weights < 0):
        raise ObjectiveError("weights must be nonnegative")
    deg = weights.sum(axis=1)
    diag = deg.reshape(m, 1, 1).copy()
    lin = -b.reshape(m, 1)
    pair = {(i, j): np.array([[-weights[i, j]]])
            for i in range(m) for j in range(i + 1, m) if weights[i, j] > 0}
    return QuadraticObjective(m, 1, diag, lin, pair)


def build_random_qp(graph, d, target_kappa, seed):
    """Random symmetric blocks on the graph sparsity, shifted to a target
    condition number. Deterministic under ``seed``.
    """
    if not 1.0 < target_kappa < math.inf:
        raise ObjectiveError(f"target_kappa must be a finite number above 1, got {target_kappa!r}")
    rng = np.random.default_rng(seed)
    m = graph.m
    diag = np.zeros((m, d, d))
    for i in range(m):
        A = rng.standard_normal((d, d))
        diag[i] = 0.5 * (A + A.T)
    pair = {}
    for (i, j) in sorted(graph.edges):
        pair[(i, j)] = rng.standard_normal((d, d))
    lin = rng.standard_normal((m, d))
    return _shift_to_kappa(QuadraticObjective(m, d, diag, lin, pair), target_kappa)


def _shift_to_kappa(q, kappa):
    """Shift ``q.diag`` by c I so that the assembled Hessian's condition
    number is ``kappa``; returns q."""
    H, _ = q.assemble()
    vals = np.linalg.eigvalsh(H)
    lo, hi = vals[0], vals[-1]
    # (hi + c) / (lo + c) = kappa  =>  c = (hi - kappa * lo) / (kappa - 1)
    c = (hi - kappa * lo) / (kappa - 1.0)
    q.diag = q.diag + c * np.eye(q.d)
    return q


_U = float(np.finfo(float).eps) / 2    # unit roundoff, 2^-53
_SCALED_STEPS = 8    # the test suite's scaled certificates take <= 8 steps, bar 3 of 27-61


def _oracle_shift(n, norm):
    """The certificate's shift s = (1e-12 + 5 n^2 u) max(N, 1) for an
    (n, n) matrix and a bound N on sqrt(2) ||H||_F."""
    return (1e-12 + 5.0 * n * n * _U) * max(norm, 1.0)


def _gershgorin_certified(q):
    """Whether Gershgorin's theorem on V^-1 H V, V = diag(v), v > 0, read
    from q's compiled blocks, proves lambda_min(H) > s for H =
    ``q.assemble()[0]`` and the oracle's shift s, with no dense pass.

    Per coordinate t, c_t sums the entries that land on H_tt and R_t(v) the
    products |h| v_u of the entries h at (t, u), so R_t(v) >= |c_t| v_t +
    sum_{u != t} |H_tu| v_u: if 2 c_t v_t - R_t(v) > s v_t for every t,
    every disc of V^-1 H V, which is similar to H, lies right of s. LAPACK
    reads H as symmetric, so diagonal and hyper blocks must be exactly so.
    ||H||_F <= sqrt(||diag||_F^2 + 2 ||B||_F^2) plus 2 sqrt(n_w) ||A||_F
    per arity group A of n_w factors. With K block entries, a slack of 16
    (K + 1) u R_t(v) per row and a factor 1 + 16 (K + 1) u on the norm
    cover the sums' gamma_{K+1} (a rounding a product) and the roundings
    after them (:func:`global_solve_oracle`); the test divides nothing. v
    in [2^-400, 2^400] lets nothing overflow (a finite norm keeps entries
    below 2^513); an underflow, 2^-1075 a product, is far below the slack
    of a passing row, where R_t(v) >= c_t v_t > s v_t / 2.

    v = 1, the plain bound, comes first; then, if every c_t > 0, up to
    ``_SCALED_STEPS`` Jacobi steps v <- (1 + R(v)) / c - v on M(H) v = 1,
    M(H) the comparison matrix (Varga, Gersgorin and His Circles, 2004,
    Ch. 1). Refused: the empty matrix, a c_t <= 0, asymmetric blocks,
    non-finite entries, v outside [2^-400, 2^400].
    """
    m, d, n = q.m, q.d, q.m * q.d
    if n == 0:
        return False
    D, B, k, nodes = q.diag, q.pair_blocks, np.arange(d), np.arange(m)
    # the blocks that land in H (diagonal, pair, each group's 2 H_w), by row
    parts = [(np.concatenate((D, B, _transposed(B))),
              np.concatenate((nodes, q.pair_rows, q.pair_cols))[:, None] * d + k)]
    parts += [(2.0 * blocks, (members[:, :, None] * d + k).reshape(len(members), -1))
              for _, members, blocks in q.hyper_groups]
    groups = [blocks for _, _, blocks in q.hyper_groups]
    with np.errstate(invalid="ignore", over="ignore"):
        R = sum(np.bincount(at.ravel(), np.abs(A).reshape(-1, A.shape[2]) @ np.ones(A.shape[2]),
                            minlength=n) for A, at in parts)
        c = sum((np.bincount(at.ravel(), np.diagonal(A, axis1=1, axis2=2).ravel(), minlength=n)
                 for A, at in parts[1:]), start=np.diagonal(D, axis1=1, axis2=2).ravel())
        slack = 16.0 * (sum(A.size for A, _ in parts) + 1) * _U
        low = float((2.0 * c - (1.0 + slack) * R).min())
        if (not (low > 0.0 or np.all(c > 0.0))
                or not all(np.array_equal(A, _transposed(A)) for A in [D] + groups)):
            return False
        frob = math.sqrt(float(np.vdot(D, D)) + 2.0 * float(np.vdot(B, B)))
        for A in groups:
            frob += 2.0 * math.sqrt(len(A) * float(np.vdot(A, A)))
        norm = math.sqrt(2.0) * frob * (1.0 + slack)
        shift = _oracle_shift(n, norm)
        if not math.isfinite(norm):
            return False
        if low > shift:
            return True
        # past v = 1: every entry's row, column and absolute value
        cols = [np.concatenate((nodes, q.pair_cols, q.pair_rows))[:, None] * d + k]
        rows = np.concatenate([np.repeat(at.ravel(), A.shape[2]) for A, at in parts])
        cols = np.concatenate([np.repeat(at, A.shape[2], axis=0).ravel() for (A, _), at
                               in zip(parts, cols + [at for _, at in parts[1:]])])
        vals = np.concatenate([np.abs(A).ravel() for A, _ in parts])
        v = np.ones(n)
        for _ in range(_SCALED_STEPS):
            v = (1.0 + R) / c - v
            if not (2.0 ** -400 <= v.min() and v.max() <= 2.0 ** 400):
                return False
            R = np.bincount(rows, vals * v[cols], minlength=n)
            if np.all(2.0 * c * v - (1.0 + slack) * R > shift * v):
                return True
    return False


def global_solve_oracle(q):
    """Ground-truth minimizer of an assembled quadratic.

    Positive definite Hessians are solved directly; PSD ones fall back to
    the min-norm solution provided the system is consistent.
    Returns (x_star, phi_star).

    The direct solve runs when the scaled Gershgorin bound
    (:func:`_gershgorin_certified`) proves lambda_min(H) > s - 3 n^2 u
    max(N, 1), s = (1e-12 + 5 n^2 u) max(N, 1) (:func:`_oracle_shift`), u =
    2^-53, N >= sqrt(2) ||H||_F: the condition lambda_min(H) > 1e-12
    max(|lambda_max(H)|, 1), with 2 n^2 u max(N, 1) to spare for computed
    eigenvalues. The bound tests computed sums with a slack above their
    gamma_K = K u / (1 - K u), the error bound of a sum of K terms in any
    order (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    Sec. 4.2). Where it refuses, the eigenvalues decide. It holds only where
    that test passes, so the result, or the exception type, is the same on
    both paths.
    """
    H, b = q.assemble()
    certified = _gershgorin_certified(q)
    if not certified:
        vals = np.linalg.eigvalsh(H)
        scale = max(abs(vals[-1]), 1.0)
    if certified or vals[0] > 1e-12 * scale:
        xs = np.linalg.solve(H, -b)
    else:
        if vals[0] < -1e-10 * scale:
            raise SingularInconsistent("Hessian is not positive semidefinite")
        xs = np.linalg.pinv(H, rcond=1e-12) @ (-b)
        resid = np.linalg.norm(H @ xs + b)
        if resid > 1e-8 * (np.linalg.norm(H) * np.linalg.norm(xs) + np.linalg.norm(b) + 1.0):
            raise SingularInconsistent("singular Hessian with inconsistent linear term")
    x = xs.reshape(q.m, q.d)
    return x, q.value(x)


# ---------------------------------------------------------------------------
# serialization


def _encode_array(a):
    return np.asarray(a, dtype=float).tolist()


def problem_to_json(q):
    """Stable JSON layout: {kind, m, d, diag, lin, pair, hyper}. Floats are
    written as their shortest round-trip repr, infinities and NaN as JSON's
    Infinity and NaN, so every float but a NaN comes back with its bits,
    -0.0 included, and a NaN as NaN."""
    doc = {
        "kind": "quadratic",
        "m": q.m,
        "d": q.d,
        "diag": _encode_array(q.diag),
        "lin": _encode_array(q.lin),
        "pair": [[i, j, _encode_array(B)] for (i, j), B in sorted(q.pair.items())],
        "hyper": [[list(w), _encode_array(H)] for w, H in sorted(q.hyper.items())],
    }
    return json.dumps(doc)


def problem_from_json(text):
    doc = json.loads(text)
    if doc["kind"] != "quadratic":
        raise ObjectiveError(f"unsupported problem kind {doc['kind']!r}")
    pair = {(int(i), int(j)): B for i, j, B in doc["pair"]}
    hyper = {tuple(int(t) for t in w): H for w, H in doc["hyper"]}
    return QuadraticObjective(int(doc["m"]), int(doc["d"]), doc["diag"], doc["lin"], pair, hyper)
