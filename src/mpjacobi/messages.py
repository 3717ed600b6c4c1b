"""Message parametrizations and every message-update rule.

All messages are quadratic forms stored up to an additive constant as a
pair (H, h) meaning mu(x) ~ 1/2 <H x, x> + <h, x>. Constants never affect
argmins, so they are dropped throughout.

Update rules implemented here:
  * exact pairwise partial minimization (quadratic objectives),
  * first-order (affine) surrogate messages,
  * structured-quadratic (Schur-recursion) surrogate messages,
  * partial-linearization messages for lifted consensus objectives,
  * hypergraph factor-to-variable messages and their diagonal compression.

Every rule, ``struct_solve`` and ``message_vectors`` accept leading batch
axes: every argument may carry the same leading shape (one entry per
directed edge or per (factor, receiver) incidence). The pairwise rules
take the sums their engines hold: the sender's curvature sum and linear
sum over its own term and its other in-edges. The solvers call each rule
once per round (the hypergraph rule once per factor arity) on stacked
message arrays; a single call is the batch-free case.

The linear parts of the Schur and partial-linearization recursions are
derived once from the defining partial minimizations (see the docstrings),
and are covered by brute-force minimization oracles in the tests.

Curvature and linear halves. In every rule except the first-order one the
message curvature H and the sender matrix S it is solved against (A in the
exact and hypergraph rules) read only the incoming curvatures and the
problem data; only the linear part h reads x. So once a round returns the
curvatures it was given, bit for bit, every later round would return them
again. Each rule returns its curvature half as a :class:`Curvature`, whose
``solve`` maps a new linear sum to the rule's linear column by the full
rule's operation on it (the systems' column map), so a message built from
it has the full rule's bits. Each rule's kept round is written once. The
pairwise ones live in their engines: :func:`exact_linear` on the kept
column; :func:`schur_linear` on M_ij times it, by a
:class:`GatheredProducts` compiled once per run, and on H x_i, which the
Schur engine reads off one :class:`StackedProducts` per kept state with
the H_in x_j of :func:`schur_aggregate`; (w_ij/gamma) times the column in
the partial-linearization engine. The hypergraph rule takes its
Curvature back as ``curvature=`` and runs its own linear half.

Bit contracts. Every kernel here returns the bits of a named numpy call,
which ``tests/test_messages.py`` checks against the installed numpy. Where
two NaNs meet in a product either may be kept (numpy orders the operands
one way in its vector loops and the other in their scalar tails), so NaN
signs are exempt there; a kernel's docstring names its reference call, its
dispatch and any other exemption. The exact rule, the one implementation
of the paper's exact message, solves by :class:`LapackSystem`
(``np.linalg.solve``'s bits, at d = 1 without LAPACK) and multiplies by
:func:`block_matmul` (``np.matmul``'s): the exact engine's operations,
whose iterates the golden traces freeze. ``_mv``, :class:`StackedProducts`
and :class:`GatheredProducts` have einsum's bits; at d = 2 the last two
make them from column planes. An einsum row sums from +0.0, ((+0.0 + p0)
+ p1), which is (p0 + p1) + 0.0 for every pair of products, signed zeros
and infinities included. Two more rules keep the NaNs: only C-contiguous
stacks of finite blocks take the planes, so that a product meets at most
one NaN, and the planes are padded to a multiple of 16 entries, so that
every add runs in numpy's vector loop, which keeps its first operand's
NaN, as einsum keeps p0 (on numpy 2.4 with AVX-512 the scalar tail, the
last n mod 8 entries, may keep the second). The planes' products may
raise floating-point warnings where einsum raises none. The other rules
solve by ``struct_solve``, which divides exactly diagonal systems so
that diagonal message families stay exactly diagonal. The column rule: where a rule
solves S X = [F | c], F its fixed columns and c its linear column, a 1 x 1
:class:`LapackSystem` (times the stored reciprocal) or an all-diagonal
:class:`StructSystem` (division) solves F and c apart with one solve's
bits; others solve [F | c] at once, as LAPACK's bits depend on which
columns it solves together.
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
    once.

    Matrices that are exactly diagonal are solved by division, so diagonal
    message families stay exactly diagonal instead of merely numerically
    diagonal; the others go to LAPACK. The choice is made per matrix, so a
    batch equals its stacked single solves bit for bit, and ``__init__``
    decides once whether the batch is all diagonal, none diagonal or
    mixed. A matrix is diagonal where A - diag I is zero (-0.0 counts as
    zero, NaN and so inf - inf as nonzero). A zero on the diagonal of a
    diagonal matrix raises ``np.linalg.LinAlgError``. A batch whose
    nonzeros all lie on finite diagonals (one count of the batch's nonzeros
    against its diagonals') is all diagonal without a per-matrix test.
    """

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
        """(X_F, col, column): the fixed and last columns of A X = [F | c]
        and the map from a new c to col, with the joint solve's bits; by
        the module's column rule an all-diagonal batch divides apart."""
        if not self.all_diag:
            return _joint_columns(self.solve, F, c)
        return F / self.diag[..., None], c / self.diag, lambda c: c / self.diag


def struct_solve(A, rhs):
    """Solve A @ X = rhs over any leading batch axes of A (..., d, d).

    ``rhs`` is a vector (..., d) or a matrix (..., d, k). ``A`` may also be
    a :class:`StructSystem` that holds the matrices with their diagonal or
    LAPACK choice already made; see there for the choice.
    """
    system = A if isinstance(A, StructSystem) else StructSystem(A)
    return system.solve(rhs)


class LapackSystem:
    """Matrices A (..., d, d) whose solves of rhs (..., d, k) have the bits
    of ``np.linalg.solve(A, rhs)``.

    d >= 2 calls it (numpy cannot repeat its FMA kernels), so a singular A
    raises there when ``solve`` is called. d = 1 repeats OpenBLAS without
    LAPACK: one right-hand side is divided by the pivot (trsv), more are
    multiplied by its reciprocal (trsm), formed on first use; the two
    differ in the last bit on about half of all inputs. An exact zero pivot
    (-0.0 too) raises ``np.linalg.LinAlgError("Singular matrix")`` here.
    ``solve`` and ``columns`` (the module's column rule) ignore
    floating-point errors; ``vector`` and the column map hold no
    ``np.errstate``, so a round takes its node solve and columns under one.
    """

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
    d = 1 B * X + 0.0, as matmul sums from +0.0 (a -0.0 product gives
    +0.0)."""
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
    (..., E, 2, d) B_e x[..., cols[e], :] and B_e^T x[..., rows[e], :],
    with the bits of :func:`block_matvec` on B and on its transposed view.

    At d = 2 a stack of K >= 2 iterates on finite blocks is regrouped:
    one matmul of 4 E gemv calls with K outputs each (per block row, the
    iterates' (K, 2) matrix times the row), not one call per block and
    iterate. Each output keeps its two products in the order of matmul's
    kernel (OpenBLAS 0.3.31, Haswell): dgemv_t computes fma(a0, x0, a1 x1)
    for B; for B^T matmul calls dgemv_n, fma(a1, x1, a0 x0), which dgemv_t
    repeats on B^T stored with its columns reversed and on reversed
    vectors. Other stacks take ``block_matvec``: at K = 1 matmul takes
    ddot, at d >= 3 the kernels' sums differ, and with the factors traded
    a NaN block entry could hand on its own NaN.
    """

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
    """The iterate-free half of a batch of messages from one rule.

    ``H`` holds the message curvatures; ``solve`` maps the rule's
    sender-side linear aggregate c to the linear column X[..., -1] of the
    rule's solution of S X = [F | c], with S the sender matrices and F the
    rule's fixed right-hand-side columns.
    """

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
    """Batched matrix-vector product A @ x over leading axes, by einsum. A
    row's bits do not depend on how the subscripts are spelled, so one
    batch axis is spelled out: parsing an ellipsis costs about as much as
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
    """x -> B_e x[at[e]] for a fixed block stack B (E, d, d) and rows at
    (E,) of x: the bits of ``np.einsum("eij,ej->ei", B, x.take(at,
    axis=0))``; with ``at=None``, of the einsum on x (E, d) as given.

    The products' form is chosen once, by d. d = 1: the elementwise
    B x + 0.0, as einsum sums one product from +0.0 (a -0.0 product gives
    +0.0). d = 2, B finite and C-contiguous: column planes (see the module
    docstring), b0 = B[:, :, 0] and b1 = B[:, :, 1] flattened to (2E,),
    and the flat indices of x's entries they multiply, i0 = 2 at with each
    row twice and i1 = i0 + 1, all padded to a multiple of 16 entries
    (blocks 0.0, indices 0, cut off the result); a call is two takes, two
    products and two adds, (b0 x[i0] + b1 x[i1]) + 0.0. The planes also
    take a stack of iterates x (..., rows, 2): each row of the products is
    padded apart, so every iterate's products are those of its own call.
    Other stacks call einsum on B as given, whose sums at d >= 3, and
    whose choice between two NaNs at d = 2, depend on B's strides.
    """

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
        [self's rows; at], with its bits. Where both stacks take planes,
        this one's compiled planes are copied, not built again; otherwise
        the joined stack is built anew, with this one's blocks and rows read
        back from its planes, exact copies, where it has them."""
        if self.planes and _takes_planes(B):
            joined = copy.copy(self)
            joined._compile(self, B, at)
            return joined
        if self.planes:
            blocks, rows = self.b[:, :self.n].T.reshape(-1, 2, 2), self.i0[:self.n:2] // 2
        else:
            blocks = self.B[..., None] if self.scalar else self.B
            rows = np.arange(len(blocks)) if self.at is None else self.at
        return GatheredProducts(np.concatenate((blocks, B)), np.concatenate((rows, at)))

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
    """The products of several block stacks with rows of one iterate, from
    one :class:`GatheredProducts`.

    ``parts`` lists pairs (B_k, at_k): blocks (n_k, d, d) and the rows at_k
    (n_k,) of x they multiply. ``products(x)`` returns, for x (m, d), the
    list of the parts' (n_k, d) products B_k x[at_k], each with the bits of
    ``_mv(B_k, x.take(at_k, axis=0))``. einsum sums in an order set by the
    operands' strides (at d = 2 only the choice between two NaNs), so the
    C-contiguous parts share one GatheredProducts of their stacked blocks
    and are returned as views of its products, and any other part keeps
    one of its own on its blocks as given.

    ``extended(parts)`` is the StackedProducts of these parts and then
    ``parts``: an engine compiles its fixed parts once and extends them by
    each state's parts, so the fixed parts' planes are copied, not built
    again (:meth:`GatheredProducts.joined`).
    """

    def __init__(self, parts):
        d = parts[0][0].shape[-1]
        self.parts, self.sources, self.size, self.stack = [], [], 0, None
        self._append(parts)
        if self.stack is None:
            self.stack = GatheredProducts(np.zeros((0, d, d)), np.zeros(0, dtype=int))

    def extended(self, parts):
        extended = copy.copy(self)
        extended._append(parts)
        return extended

    def _append(self, parts):
        blocks, at, sources = [], [], []
        for B, rows in parts:
            # the part's slice of the stack's products, or its own products
            if not B.flags.c_contiguous:
                sources.append(GatheredProducts(B, rows))
                continue
            sources.append(slice(self.size, self.size + len(rows)))
            self.size += len(rows)
            blocks.append(B)
            at.append(np.asarray(rows, dtype=int))
        self.parts, self.sources = self.parts + list(parts), self.sources + sources
        if blocks:
            B, at = np.concatenate(blocks), np.concatenate(at)
            self.stack = GatheredProducts(B, at) if self.stack is None else self.stack.joined(B, at)

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

    @property
    def d(self):
        return self.h.shape[0]

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
    """``int(message_vectors(H).sum())`` over a stack H (..., d, d): at
    d = 1 one per message plus one per nonzero curvature, from one
    ``count_nonzero``; a stack whose nonzeros all lie on diagonals (one
    count against the diagonals') has no dense message, so it costs one per
    message plus one per message with a nonzero diagonal."""
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
        pairs {rows[e], cols[e]} in either orientation, zero for pairs
        without one; a new array. A key that is not a pair (i, j) of the m
        nodes, 0 <= i < j < m, or a block of another shape than (d, d)
        raises MessageError. Keys and blocks are read by one array
        conversion each."""
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
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
        if not len(rows):
            return out
        # one code lo * n + hi per pair
        n = 1 + max(int(keys.max()), int(rows.max()), int(cols.max()))
        codes = keys[:, 0] * n + keys[:, 1]
        order = np.argsort(codes)
        codes = codes[order]
        want = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        at = np.minimum(np.searchsorted(codes, want), n_keys - 1)
        found = codes[at] == want
        out[found] = blocks[order[at[found]]]
        return out


# ---------------------------------------------------------------------------
# pairwise update rules


def exact_quadratic_message(A_j, c_j, B_ij):
    """Exact min-sum message from sender j to receiver i.

    B_ij is the oriented coupling with psi(x_i, x_j) = <B_ij x_j, x_i>;
    A_j and c_j are the sender's curvature and linear sums: its own node
    term plus the round-nu messages from its other in-cluster neighbors
    (and, for c_j, B_jk x_k over its out-of-cluster neighbors k).

    Closed form, the partial minimization over x_j:
        H_msg = sym(-B_ij A_j^{-1} B_ij^T),   h_msg = -B_ij A_j^{-1} c_j,
    sym(H) = 1/2 (H + H^T), solved by :class:`LapackSystem` on
    [B_ij^T | c_j] for every A_j, diagonal or not: the exact engine's bits,
    which the golden traces freeze (see the module docstring).
    """
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
    """Structured-quadratic surrogate message j -> i.

    Curvature recursion, with the sender-side inner matrix
    S_j = (Q_j + M_j) + sum H_in:
        H_msg = M_i - M_ij S_j^{-1} M_ij^T.
    Linear part, derived from the same partial minimization with
    u = x_j - x_j^nu and the sender-side linear aggregate c_u
    (:func:`schur_aggregate`):
        h_msg = grad_i psi_ij(ref) - M_ij S_j^{-1} c_u - H_msg x_i^ref,
    by :func:`schur_linear` on einsum's products (``_mv``).
    """
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
    """Partial-linearization message i -> j on a lifted consensus objective.

    Curvature: H_msg = -(w_ij^2/gamma^2) S_i^{-1}, with the sender's inner
    matrix S_i = (Q_i + ((1 - w_ii)/gamma) I) + sum H_in.
    Linear part from the same minimization with the sender-side linear
    aggregate ell = (lin_i + sum h_in) + boundary, whose first term
    lin_i = grad f_i(x_i^nu) - Q_i x_i^nu an engine reads off the rows of
    its variable update's own grad f - Q x (the boundary collects
    -(w_ik/gamma) x_k^nu over out-neighbors):
        h_msg = (w_ij/gamma) S_i^{-1} ell.
    w_ij may be an array over the batch axes.
    """
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
    receiver's d coordinates, then those of the other k - 1 members
    ("rest") in a fixed order. ``H_agg`` (..., k-1, d, d) and ``h_agg``
    (..., k-1, d) are the rest's variable-side aggregates in that order.
    ``frozen_lin`` (..., k-1, d) adds the rest's linear terms from
    coordinates of a parent factor frozen by splitting;
    ``receiver_extra_lin`` (..., d) is the receiver-side frozen linear term
    2 (H_par)_{i, frozen} y. ``curvature``, the Curvature of an earlier
    call with the same H_w and H_agg, skips the curvature half (a factor
    with no other member has none: its message is 2 (H_w)_{ii}).

    Closed form (matches brute-force partial minimization):
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
