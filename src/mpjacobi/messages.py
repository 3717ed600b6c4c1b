"""Message parametrizations and every message-update rule.

A message is a quadratic form stored up to an additive constant as a pair
(H, h), mu(x) ~ 1/2 <H x, x> + <h, x>. The rules: exact pairwise partial
minimization, first-order (affine), structured-quadratic (Schur) and
partial-linearization surrogates, and hypergraph factor-to-variable messages
with their diagonal compression; the tests check each partial minimization by
brute force. Every rule, ``struct_solve`` and ``message_vectors`` take leading
batch axes, one entry per directed edge or (factor, receiver) incidence.

Curvature and linear halves. In every rule but the first-order one, H and the
sender matrix S read only incoming curvatures and problem data; only h reads x.
Each rule returns its curvature half as a :class:`Curvature`, whose ``solve``
maps a new linear sum to the rule's linear column by the full rule's operation,
so that a round that keeps it has the full rule's bits.

Bit contracts. Every kernel returns the bits of a named numpy call, which
``tests/test_messages.py`` checks against the installed numpy; a kernel's
docstring names that call, its dispatch, its exemptions and its test.
These hold for all of them:
  * NaN signs are exempt where two NaNs meet in a product or a sum: numpy
    orders the operands one way in its vector loops and the other in their
    scalar tails.
  * einsum and matmul sum a row from +0.0, ((+0.0 + p0) + p1), which is
    (p0 + p1) + 0.0 for every pair of products, signed zeros and
    infinities included; one product is p0 + 0.0.
  * einsum's sums at d >= 3, and its choice between two NaNs at d = 2,
    depend on the operands' strides, so a kernel multiplies blocks as given.
  * Column planes (d = 2) are taken only by C-contiguous stacks of finite
    blocks, so that a product meets at most one NaN, and are padded to a
    multiple of 16 entries, so that every add runs in numpy's vector loop,
    which keeps its first operand's NaN as einsum keeps p0 (on numpy 2.4
    with AVX-512 the scalar tail, the last n mod 8 entries, may keep the
    second). They may raise floating-point warnings where einsum does not.
  * The exact rule, whose iterates the golden traces freeze, solves by
    :class:`LapackSystem` (``np.linalg.solve``'s bits) and multiplies by
    :func:`block_matmul` (``np.matmul``'s). The others solve by
    ``struct_solve``, which divides exactly diagonal systems, so that
    diagonal message families stay exactly diagonal.
  * Column rule: where a rule solves S X = [F | c], a 1 x 1 LapackSystem
    (times the stored reciprocal) or an all-diagonal StructSystem solves F
    and c apart with one solve's bits; others solve [F | c] at once, as
    LAPACK's bits depend on which columns it solves together.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class MessageError(ValueError):
    pass


class SingularSenderCurvature(MessageError):
    pass


class SingularInnerMatrix(MessageError):
    pass


class SingularA(MessageError):
    pass


def _joint_columns(solve, F, c):
    """(X_F, col, column) of one solve of rhs = [F | c]; column(c) re-solves."""
    rhs = np.concatenate([F, c[..., None]], axis=-1)
    X = solve(rhs)

    def column(c):
        rhs[..., -1] = c
        return solve(rhs)[..., -1]

    return X[..., :-1], X[..., -1], column


class StructSystem:
    """Matrices A (..., d, d) with ``struct_solve``'s per-matrix choice made
    once: an exactly diagonal matrix (A - diag I is zero; -0.0 counts as zero,
    NaN and so inf - inf as nonzero) is solved by division, the others by
    LAPACK, so a batch equals its stacked single solves bit for bit. A batch
    whose nonzeros all lie on finite diagonals is all diagonal without a
    per-matrix test. A zero on the diagonal of a diagonal matrix raises
    ``np.linalg.LinAlgError``. Tested by
    ``test_struct_system_diagonal_where_a_minus_diag_identity_is_zero``."""

    def __init__(self, A):
        self.A = A = np.asarray(A, dtype=float)
        d = A.shape[-1]
        flat = A.reshape(A.shape[:-2] + (d * d,))
        self.diag = diag = flat[..., ::d + 1].copy()      # contiguous divisor
        finite = np.isfinite(diag)
        nonzero_diag = np.count_nonzero(diag)
        if np.count_nonzero(flat) == nonzero_diag and finite.all():
            self.is_diag = np.ones(A.shape[:-2], dtype=bool)
            self.all_diag, self.none_diag = True, not self.is_diag.size
            singular = nonzero_diag < diag.size
        else:
            nonzero = flat != 0
            nonzero[..., ::d + 1] = ~finite
            self.is_diag = ~nonzero.any(axis=-1)
            self.all_diag, self.none_diag = self.is_diag.all(), not self.is_diag.any()
            singular = (diag[self.is_diag] == 0.0).any()
        if singular:
            raise np.linalg.LinAlgError("singular diagonal system")

    def solve(self, rhs):
        """X with A @ X = rhs, for a vector (..., d) or matrix (..., d, k)
        right-hand side."""
        A, diag, is_diag = self.A, self.diag, self.is_diag
        rhs = np.asarray(rhs, dtype=float)
        vector = rhs.ndim == A.ndim - 1
        if self.all_diag:
            return rhs / diag if vector else rhs / diag[..., None]
        b = rhs[..., None] if vector else rhs
        if self.none_diag:
            X = np.linalg.solve(A, b)
        else:
            b = np.broadcast_to(b, A.shape[:-2] + b.shape[-2:])
            X = np.empty(b.shape)
            X[is_diag] = b[is_diag] / diag[is_diag][..., None]
            X[~is_diag] = np.linalg.solve(A[~is_diag], b[~is_diag])
        return X[..., 0] if vector else X

    def columns(self, F, c):
        """(X_F, col, column): the fixed and last columns of A X = [F | c] and
        the map from a new c to col, by the module's column rule."""
        if not self.all_diag:
            return _joint_columns(self.solve, F, c)
        return F / self.diag[..., None], c / self.diag, lambda c: c / self.diag


def struct_solve(A, rhs):
    """Solve A @ X = rhs, rhs a vector (..., d) or a matrix (..., d, k), over
    any leading batch axes of A (..., d, d) or of a :class:`StructSystem`."""
    system = A if isinstance(A, StructSystem) else StructSystem(A)
    return system.solve(rhs)


class LapackSystem:
    """Matrices A (..., d, d) whose solves have the bits of
    ``np.linalg.solve(A, rhs)`` (``test_lapack_solve_equals_numpy_bitwise``).
    d >= 2 calls it (numpy cannot repeat its FMA kernels), and a singular A
    raises there. d = 1 repeats OpenBLAS without LAPACK: one right-hand side is
    divided by the pivot (trsv), more are multiplied by its reciprocal (trsm),
    formed on first use, which differs in the last bit on about half of all
    inputs; an exact zero pivot (-0.0 too) raises
    ``np.linalg.LinAlgError("Singular matrix")``. ``solve`` and ``columns``
    ignore floating-point errors; ``vector`` and the column map do not, so a
    round takes them under one ``np.errstate``."""

    def __init__(self, A):
        self.A = A
        self.scalar = A.shape[-1] == 1
        if self.scalar and np.count_nonzero(A) < A.size:
            raise np.linalg.LinAlgError("Singular matrix")

    @cached_property
    def inverse(self):
        return 1.0 / self.A

    def solve(self, rhs):
        if not self.scalar:
            return np.linalg.solve(self.A, rhs)
        with np.errstate(all="ignore"):
            return rhs / self.A if rhs.shape[-1] == 1 else rhs * self.inverse

    def vector(self, v):
        """``solve(v[..., None])[..., 0]`` for one right-hand side v
        (..., d): at d = 1, v divided by the stored pivots."""
        if not self.scalar:
            return np.linalg.solve(self.A, v[..., None])[..., 0]
        return v / self.A[..., 0]

    def columns(self, F, c):
        """As :meth:`StructSystem.columns`; at d = 1 F and c times 1 / A."""
        if not self.scalar:
            return _joint_columns(self.solve, F, c)
        with np.errstate(all="ignore"):
            inverse = self.inverse[..., 0]
            return F * inverse[..., None], c * inverse, lambda c: c * inverse


def block_matmul(B, X):
    """``np.matmul(B, X)`` bit for bit, B (..., d, d) and X (..., d, k): at
    d = 1, B * X + 0.0."""
    if B.shape[-1] == 1:
        return B * X + 0.0
    return np.matmul(B, X)


def block_matvec(B, v):
    """``np.matmul(B, v[..., None])[..., 0]`` bit for bit, B (..., d, d):
    :func:`block_matmul` on the column v."""
    return block_matmul(B, v[..., None])[..., 0]


class PairProducts:
    """The two products of every pair coupling of a fixed block stack B
    (E, d, d) on nodes ``rows`` and ``cols``: for x (..., m, d), the terms
    (..., E, 2, d) B_e x[..., cols[e], :] and B_e^T x[..., rows[e], :], with
    the bits of :func:`block_matvec`
    (``test_pair_products_equal_matmul_bitwise``). At d = 2 a stack of K >= 2
    iterates on finite blocks is one matmul of 4 E gemv calls with K outputs
    each, in the order of matmul's own kernels (OpenBLAS 0.3.31, Haswell:
    dgemv_t on B, and on B^T with its columns reversed for dgemv_n); its output
    is strided, with the stack axis innermost. Other stacks call
    ``block_matvec``: at K = 1 matmul takes ddot, at d >= 3 the kernels' sums
    differ, and traded factors could hand on a NaN block entry."""

    def __init__(self, B, rows, cols):
        self.B, self.rows, self.cols = B, rows, cols
        self.regrouped = B.shape[-1] == 2 and bool(np.all(np.isfinite(B)))
        if self.regrouped:
            # B, then B^T with its two columns reversed, contiguous
            self._blocks = np.concatenate((B, np.swapaxes(B, -1, -2)[..., ::-1]))

    def __call__(self, x):
        lead, (m, d) = x.shape[:-2], x.shape[-2:]
        K, E = math.prod(lead), len(self.B)
        if not self.regrouped or K < 2:
            terms = np.empty(lead + (E, 2, d))
            terms[..., 0, :] = block_matvec(self.B, x.take(self.cols, axis=-2))
            terms[..., 1, :] = block_matvec(np.swapaxes(self.B, -1, -2),
                                            x.take(self.rows, axis=-2))
            return terms
        # node i's K vectors as one row of 16-byte complex pairs, so each
        # gather moves whole pairs; the B^T side is reversed as it is copied
        by_node = np.ascontiguousarray(x).reshape(K, m, 2).view(np.complex128)[..., 0].T
        at_cols, at_rows = (by_node.take(idx, axis=0).view(float).reshape(E, K, 2)
                            for idx in (self.cols, self.rows))
        X = np.concatenate((at_cols, at_rows[..., ::-1]))
        out = np.matmul(X[:, None], self._blocks[..., None])[..., 0]      # (2E, 2, K)
        return out.reshape(2, E, 2, K).transpose(3, 1, 0, 2).reshape(lead + (E, 2, 2))


@dataclass(frozen=True)
class Curvature:
    """The iterate-free half of a batch of messages from one rule: the message
    curvatures ``H``, and ``solve``, which maps the rule's linear aggregate c
    to the linear column X[..., -1] of its solve S X = [F | c]."""

    H: np.ndarray
    solve: object


def _solve_curvature(S, F, c, H_of, error, system=StructSystem):
    """X[..., -1] of the full rule's solve S X = [F | c] by ``system`` of S
    (a singular S raises ``error``) and its Curvature: H is ``H_of`` of the
    fixed columns' X, ``solve`` the system's column map for a new c."""
    try:
        X, col, column = system(S).columns(F, c)
    except np.linalg.LinAlgError as exc:
        raise error(str(exc)) from exc
    return col, Curvature(H_of(X), column)


def _sym(H):
    """1/2 (H + H^T) over the last two axes."""
    return 0.5 * (H + np.swapaxes(H, -1, -2))


def _mv(A, x):
    """Batched matrix-vector product A @ x over leading axes, by einsum; one
    batch axis is spelled out, as parsing an ellipsis costs about as much as
    the products of a hundred 2 x 2 blocks."""
    A, x = np.asarray(A), np.asarray(x)
    if A.ndim == 3 and x.ndim == 2 and len(A) == len(x):
        return np.einsum("eij,ej->ei", A, x)
    return np.einsum("...ij,...j->...i", A, x)


def _takes_planes(B):
    """Whether a block stack B (E, d, d) takes column planes: d = 2, finite
    and C-contiguous."""
    return B.shape[-1] == 2 and B.flags.c_contiguous and bool(np.isfinite(B).all())


class GatheredProducts:
    """x -> B_e x[at[e]] for a fixed block stack B (E, d, d) and rows at (E,)
    of x, with the bits of ``np.einsum("eij,ej->ei", B, x.take(at, axis=0))``;
    ``at=None`` reads x (E, d) as given
    (``test_gathered_products_equal_einsum_bitwise``,
    ``test_d2_products_from_column_planes_equal_einsum_bitwise``). The form is
    chosen once, by d. d = 1: B x + 0.0. d = 2 on a stack that takes column
    planes: b0 = B[:, :, 0] and b1 = B[:, :, 1] flattened to (2E,), with the
    flat indices of the entries of x they multiply, i0 = 2 at (each row twice)
    and i1 = i0 + 1, padded to a multiple of 16 entries
    (blocks 0.0, indices 0); a call is (b0 x[i0] + b1 x[i1]) + 0.0, also on a
    stack of iterates (..., rows, 2), each padded apart. Others: the einsum on
    B as given."""

    def __init__(self, B, at=None):
        self.scalar, self.planes = B.shape[-1] == 1, _takes_planes(B)
        if self.planes:
            self._compile(None, B, np.arange(len(B)) if at is None else at)
        else:
            self.B, self.at = np.ascontiguousarray(B[..., 0]) if self.scalar else B, at

    def _compile(self, head, B, rows):
        """The planes of ``head``'s stack (a GatheredProducts with planes,
        or None), copied, then those of B at ``rows``."""
        n0 = 0 if head is None else head.n
        self.n = n = n0 + 2 * len(B)
        N = n + -n % 16
        b, i0 = np.zeros((2, N)), np.zeros(N, dtype=np.intp)
        if head is not None:
            b[:, :n0], i0[:n0] = head.b[:, :n0], head.i0[:n0]
        b[:, n0:n] = B.reshape(-1, 2).T
        i0[n0:n].reshape(-1, 2)[...] = 2 * np.asarray(rows, dtype=np.intp)[:, None]
        self.b, self.i0, self.i1 = b, i0, i0 + 1
        self.b0, self.b1 = b

    def joined(self, B, at):
        """The GatheredProducts of the stack [self's blocks; B] on the rows
        [self's rows; at], where both take planes: self's planes are copied,
        then B's compiled."""
        joined = copy.copy(self)
        joined._compile(self, B, at)
        return joined

    def __call__(self, x):
        if self.planes:
            lead = x.shape[:-2]
            xf = x.reshape(lead + (-1,))
            out = xf.take(self.i0, axis=-1)
            out *= self.b0
            other = xf.take(self.i1, axis=-1)
            other *= self.b1
            out += other
            out += 0.0
            return out[..., :self.n].reshape(lead + (-1, 2))
        x_at = x if self.at is None else x.take(self.at, axis=0)
        if self.scalar:
            return self.B * x_at + 0.0
        return np.einsum("eij,ej->ei", self.B, x_at)


class StackedProducts:
    """The products B_k x[at_k] of parts (B_k, at_k), blocks (n_k, d, d) on
    rows at_k of one iterate x (m, d), each with the bits of
    ``_mv(B_k, x.take(at_k, axis=0))``
    (``test_stacked_products_equal_per_part_einsum_bitwise``). The C-contiguous
    parts share one :class:`GatheredProducts` of their stacked blocks and
    return views of its products; any other part keeps its own, on its blocks
    as given. ``extended(parts)`` returns these parts and then ``parts``, so
    that an engine compiles its fixed parts once: where the stack and the new
    parts take planes, its planes are copied, else it is built anew from all
    parts (``test_extended_products_equal_products_built_at_once_bitwise``)."""

    def __init__(self, parts):
        d = parts[0][0].shape[-1]
        self.parts, self.sources, self.own, self.size, self.stack = [], [], [], 0, None
        self._append(parts)
        if self.stack is None:
            self.stack = GatheredProducts(np.zeros((0, d, d)), np.zeros(0, dtype=int))

    def extended(self, parts):
        extended = copy.copy(self)
        extended._append(parts)
        return extended

    def _append(self, parts):
        self.parts, self.sources, own = self.parts + list(parts), list(self.sources), []
        for B, rows in parts:
            # the part's slice of the stack's products, or its own products
            if B.flags.c_contiguous:
                self.sources.append(slice(self.size, self.size + len(rows)))
                self.size += len(rows)
                own.append((B, np.asarray(rows, dtype=int)))
            else:
                self.sources.append(GatheredProducts(B, rows))
        self.own = self.own + own
        if own:
            B, at = map(np.concatenate, zip(*own))
            joins = self.stack is not None and self.stack.planes and _takes_planes(B)
            self.stack = (self.stack.joined(B, at) if joins
                          else GatheredProducts(*map(np.concatenate, zip(*self.own))))

    def __call__(self, x):
        out = self.stack(x)
        return [out[source] if isinstance(source, slice) else source(x)
                for source in self.sources]


@dataclass(frozen=True)
class QuadraticMessage:
    """mu(x) ~ 1/2 <H x, x> + <h, x>, H symmetric d x d."""

    H: np.ndarray
    h: np.ndarray
    # the rule's Curvature, when a batched rule made the message
    curvature: Curvature = field(default=None, compare=False, repr=False)

    @staticmethod
    def zero(d):
        return QuadraticMessage(np.zeros((d, d)), np.zeros(d))

    def value(self, x):
        return float(0.5 * x @ self.H @ x + self.h @ x)

    def grad(self, x):
        return self.H @ x + self.h


def message_vectors(H):
    """Vectors each message costs to send, over any leading batch axes of
    its curvature H (..., d, d): the matrix counts d unless it is diagonal
    (1) or identically zero (0); the linear part counts 1. -0.0 counts as
    zero, NaN as nonzero."""
    H = np.asarray(H)
    d = H.shape[-1]
    nonzero = H.reshape(H.shape[:-2] + (d * d,)) != 0
    dense = nonzero @ (1.0 - np.eye(d).reshape(-1)) > 0
    return np.where(dense, d, nonzero @ np.ones(d * d) > 0) + 1


def total_vectors(H):
    """``int(message_vectors(H).sum())`` over a stack H (..., d, d), from one
    ``count_nonzero`` at d = 1, and from two where no message is dense (every
    nonzero lies on a diagonal)."""
    d = H.shape[-1]
    if d == 1:
        return H.size + np.count_nonzero(H)
    flat = H.reshape(-1, d * d)
    diag = flat[:, ::d + 1]
    if np.count_nonzero(flat) == np.count_nonzero(diag):
        return len(flat) + int(np.count_nonzero(diag.any(axis=1)))
    return int(message_vectors(H).sum())


class MessageSet:
    """Double-buffered store with one message per directed incidence.

    Keys are arbitrary hashables (directed edges for pairwise runs,
    (factor, receiver) pairs for hypergraph runs). Reads during a round see
    the committed round-nu state only.
    """

    def __init__(self, keys, d):
        self.d = d
        self.cur = {k: QuadraticMessage.zero(d) for k in keys}
        self.nxt = {}

    def get(self, key):
        return self.cur[key]

    def put(self, key, msg):
        self.nxt[key] = msg

    def commit(self):
        missing = set(self.cur) - set(self.nxt)
        if missing:
            raise MessageError(f"round left {len(missing)} messages unset")
        self.cur, self.nxt = self.nxt, {}


class PairCodes:
    """Node pairs (P, 2), each i < j, coded i n + j and sorted once; n
    exceeds every node. ``order`` lists the pairs' positions in code order.
    The one pair search of the package."""

    def __init__(self, pairs, n):
        self.pairs, self.n = np.asarray(pairs, dtype=int).reshape(-1, 2), n
        codes = self.pairs[:, 0] * n + self.pairs[:, 1]
        self.order = np.argsort(codes)
        self.codes = codes[self.order]

    def find(self, rows, cols):
        """(at, found): per e, the place in code order of the pair
        {rows[e], cols[e]} and whether it is one of the pairs; a node
        outside 0..n-1 is in none."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        want = np.where((lo >= 0) & (hi < self.n), lo * self.n + hi, -1)
        at = np.searchsorted(self.codes, want)
        return at, np.append(self.codes, -2)[at] == want


@dataclass
class SurrogateSpec:
    """Which message/update family a solver run uses.

    families: 'exact', 'first_order' (needs alpha > 0),
    'schur_quadratic' (node curvatures Q, optional per-node M and per-edge
    cross matrices M_edge), 'partial_linearization' (node curvatures Q on a
    lifted consensus problem). References are always the latest iterates.
    """

    family: str = "exact"
    alpha: float = None
    Q: object = None            # (m,d,d) array, (d,d) shared, or scalar
    M_node: object = None       # same conventions, default zero
    M_edge: dict = field(default_factory=dict)   # (i,j) i<j -> (d,d) symmetric

    def __post_init__(self):
        if self.family not in ("exact", "first_order", "schur_quadratic",
                               "partial_linearization"):
            raise MessageError(f"unknown surrogate family {self.family!r}")
        if self.family == "first_order":
            if self.alpha is None or self.alpha <= 0:
                raise MessageError("first_order needs alpha > 0")

    def node_matrices(self, which, m, d):
        """The (m, d, d) stack of Q (``which="Q"``, default I) or M_node
        ("M", default 0) from a scalar, a shared (d, d) block or an
        (m, d, d) stack; a new array. Another shape raises MessageError."""
        src = self.Q if which == "Q" else self.M_node
        if src is None:
            src = 1.0 if which == "Q" else 0.0
        arr = float(src) * np.eye(d) if np.isscalar(src) else np.asarray(src, dtype=float)
        if arr.shape not in ((d, d), (m, d, d)):
            raise MessageError(f"{which} has shape {arr.shape}, expected "
                               f"{(d, d)} or {(m, d, d)}")
        return np.array(np.broadcast_to(arr, (m, d, d)))

    def edge_matrices(self, rows, cols, m, d):
        """The (E, d, d) stack of the blocks M_edge[(i, j)], i < j, of the
        pairs {rows[e], cols[e]} in either orientation, zero for pairs without
        one; a new array. A key that is not a pair (i, j), 0 <= i < j < m, or a
        block of another shape than (d, d) raises MessageError."""
        out = np.zeros((len(rows), d, d))
        if not self.M_edge:
            return out
        n_keys = len(self.M_edge)
        try:
            arity = set(map(len, self.M_edge))
            keys = np.fromiter(itertools.chain.from_iterable(self.M_edge), dtype=int,
                               count=2 * n_keys).reshape(n_keys, 2)
            blocks = np.array(list(self.M_edge.values()), dtype=float)
        except (TypeError, ValueError):     # a key or block that is no array of numbers
            arity = None
        if (arity != {2} or blocks.shape != (n_keys, d, d) or (keys[:, 0] < 0).any()
                or (keys[:, 0] >= keys[:, 1]).any() or (keys[:, 1] >= m).any()):
            raise MessageError(f"M_edge must map node pairs (i, j), 0 <= i < j < {m}, "
                               f"to {(d, d)} blocks")
        codes = PairCodes(keys, m)
        at, found = codes.find(rows, cols)
        out[found] = blocks[codes.order[at[found]]]
        return out


# ---------------------------------------------------------------------------
# pairwise update rules


def exact_quadratic_message(A_j, c_j, B_ij):
    """Exact min-sum message from sender j to receiver i: the partial
    minimization over x_j,
        H_msg = sym(-B_ij A_j^{-1} B_ij^T),   h_msg = -B_ij A_j^{-1} c_j,
    sym(H) = 1/2 (H + H^T), solved by :class:`LapackSystem` on [B_ij^T | c_j].
    B_ij is the oriented coupling, psi(x_i, x_j) = <B_ij x_j, x_i>; A_j and
    c_j are the sender's curvature and linear sums: its node term, the
    round-nu messages from its other in-cluster neighbors and, in c_j, B_jk x_k
    over its out-of-cluster neighbors k."""
    B_ij = np.asarray(B_ij, dtype=float)
    col, curvature = _solve_curvature(A_j, np.swapaxes(B_ij, -1, -2), c_j,
                                      lambda X: _sym(-block_matmul(B_ij, X)),
                                      SingularSenderCurvature, LapackSystem)
    return QuadraticMessage(curvature.H, exact_linear(B_ij, col), curvature)


def exact_linear(B_ij, col):
    """The exact message's linear part from the column col = A_j^{-1} c_j:
    h_msg = -B_ij col, with :func:`block_matvec`'s bits (at d = 1 in place)."""
    if B_ij.shape[-1] != 1:
        return -block_matvec(B_ij, col)
    h = np.multiply(B_ij[..., 0], col)
    return np.negative(np.add(h, 0.0, out=h), out=h)


def first_order_message(grad_i_psi):
    """Affine message carrying the receiver-side coupling gradient at the
    current references: mu(x_i) ~ <grad_i psi_ij(x_i^nu, x_j^nu), x_i>.
    """
    g = np.array(grad_i_psi, dtype=float)
    return QuadraticMessage(np.zeros(g.shape + g.shape[-1:]), g)


def schur_message_update(S_j, c_u, M_i, M_ij, grad_i_psi, x_i_ref):
    """Structured-quadratic surrogate message j -> i, with the sender's inner
    matrix S_j = (Q_j + M_j) + sum H_in and linear aggregate c_u
    (:func:`schur_aggregate`, u = x_j - x_j^nu):
        H_msg = M_i - M_ij S_j^{-1} M_ij^T,
        h_msg = grad_i psi_ij(ref) - M_ij S_j^{-1} c_u - H_msg x_i^ref,
    the linear part by :func:`schur_linear` on einsum's products (``_mv``)."""
    F = np.broadcast_to(np.swapaxes(M_ij, -1, -2), S_j.shape)
    col, curvature = _solve_curvature(S_j, F, c_u, lambda X: M_i - M_ij @ X,
                                      SingularInnerMatrix)
    return QuadraticMessage(curvature.H,
                            schur_linear(grad_i_psi, _mv(M_ij, col), _mv(curvature.H, x_i_ref)),
                            curvature)


def schur_aggregate(grad_phi_j, grad_j_psi, incoming_lin, boundary_grad=None):
    """The Schur rule's sender-side linear aggregate, summed in this order:
    c_u = (((grad phi_j + grad_j psi) + H_in x_j^nu) + h_in) ... + boundary,
    with ``incoming_lin`` the pairs (H_in x_j^nu, h_in)."""
    c_u = np.asarray(grad_phi_j, dtype=float) + np.asarray(grad_j_psi, dtype=float)
    for H_x, h in incoming_lin:
        c_u = c_u + H_x + h
    if boundary_grad is not None:
        c_u = c_u + boundary_grad
    return c_u


def schur_linear(grad_i_psi, M_col, H_x_i):
    """The Schur message's linear part from the products M_col = M_ij col,
    col = S^{-1} c_u, and H_x_i = H_msg x_i^ref:
    h_msg = (grad_i psi - M_col) - H_x_i."""
    return (np.asarray(grad_i_psi, dtype=float) - M_col) - H_x_i


def partial_linearization_message(S_i, ell, w_ij, gamma):
    """Partial-linearization message i -> j on a lifted consensus objective,
    with the sender's inner matrix S_i = (Q_i + ((1 - w_ii)/gamma) I) + sum
    H_in and linear aggregate ell = (lin_i + sum h_in) + boundary, where
    lin_i = grad f_i(x_i^nu) - Q_i x_i^nu and the boundary collects
    -(w_ik/gamma) x_k^nu over out-neighbors:
        H_msg = -(w_ij^2/gamma^2) S_i^{-1},   h_msg = (w_ij/gamma) S_i^{-1} ell.
    w_ij may be an array over the batch axes."""
    w_ij = np.asarray(w_ij, dtype=float)
    eye = np.broadcast_to(np.eye(S_i.shape[-1]), S_i.shape)
    col, curvature = _solve_curvature(
        S_i, eye, ell, lambda X: -(w_ij ** 2 / gamma ** 2)[..., None, None] * X,
        SingularInnerMatrix)
    return QuadraticMessage(curvature.H, (w_ij / gamma)[..., None] * col, curvature)


# ---------------------------------------------------------------------------
# hypergraph update rules (quadratic factors, <H_w x_w, x_w> convention)


def hyper_factor_message(H_w, H_agg, h_agg, frozen_lin, receiver_extra_lin,
                         curvature=None):
    """Factor-to-variable message for a quadratic factor psi = <H_w x, x>.

    ``H_w`` (..., k d, k d) is the factor block permuted receiver-first: the
    receiver's d coordinates, then those of the other k - 1 members ("rest")
    in a fixed order. ``H_agg`` (..., k-1, d, d) and ``h_agg`` (..., k-1, d)
    are the rest's variable-side aggregates in that order. ``frozen_lin``
    (..., k-1, d) adds the rest's linear terms from coordinates of a parent
    factor frozen by splitting; ``receiver_extra_lin`` (..., d) is the
    receiver's frozen linear term 2 (H_par)_{i, frozen} y. ``curvature``, the
    Curvature of an earlier call with the same H_w and H_agg, skips the
    curvature half (a factor with no other member has none):
        A     = 2 (H_w)_{rest,rest} + blockdiag(H_agg)
        dvec  = stacked h_agg + frozen_lin
        H_msg = 2 (H_w)_{ii} - 4 (H_w)_{i,rest} A^{-1} (H_w)_{rest,i}
        h_msg = -2 (H_w)_{i,rest} A^{-1} dvec + receiver_extra_lin.
    """
    H_w = np.asarray(H_w, dtype=float)
    h_agg = np.asarray(h_agg, dtype=float)
    n, d = h_agg.shape[-2:]
    if not n:
        return QuadraticMessage(2.0 * H_w[..., :d, :d],
                                np.array(receiver_extra_lin, dtype=float))
    cross = 2.0 * H_w[..., :d, d:]                       # 2 (H_w)_{i,rest}
    dvec = (h_agg + np.reshape(frozen_lin, h_agg.shape)).reshape(h_agg.shape[:-2] + (n * d,))
    if curvature is None:
        A = 2.0 * H_w[..., d:, d:]
        blk = np.arange(n * d).reshape(n, d, 1)
        rows = np.broadcast_to(blk, (n, d, d)).ravel()
        cols = np.broadcast_to(blk.reshape(n, 1, d), (n, d, d)).ravel()
        A[..., rows, cols] += np.reshape(H_agg, A.shape[:-2] + (-1,))
        col, curvature = _solve_curvature(
            A, np.swapaxes(cross, -1, -2), dvec,
            lambda X: _sym(2.0 * H_w[..., :d, :d] - cross @ X), SingularA)
    else:
        col = curvature.solve(dvec)
    h_msg = (-cross @ col[..., None])[..., 0] + receiver_extra_lin
    return QuadraticMessage(curvature.H, h_msg, curvature)


def diagonalize_message(msg, x_ref):
    """Proximal-linear compression of a message around x_ref: keep the exact
    gradient there, replace the curvature by its diagonal.
    """
    H = np.asarray(msg.H, dtype=float)
    x = np.asarray(x_ref, dtype=float)[..., None]
    i = np.arange(H.shape[-1])
    Hd = np.zeros_like(H)
    Hd[..., i, i] = H[..., i, i]
    h = ((H @ x)[..., 0] + msg.h) - (Hd @ x)[..., 0]
    return QuadraticMessage(Hd, h)
