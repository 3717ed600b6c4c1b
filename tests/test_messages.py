import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjacobi.messages import (
    LapackSystem,
    MessageError,
    QuadraticMessage,
    GatheredProducts,
    MessageSet,
    PairProducts,
    StackedProducts,
    StructSystem,
    SingularInnerMatrix,
    SingularSenderCurvature,
    SurrogateSpec,
    block_matmul,
    block_matvec,
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
    struct_solve,
    total_vectors,
)


def is_diagonal(A):
    """Whether a square matrix is exactly diagonal."""
    return not np.any(A - np.diag(np.diag(A)))


def quad_min_oracle(S, c):
    """min_u 1/2 u^T S u + c^T u attained value coefficient extraction is
    done by the caller; here just the argmin."""
    return np.linalg.solve(S, -c)


def fit_quadratic_1d(f, lo=-2.0, hi=2.0, n=7):
    """Fit 1/2 h x^2 + g x + c to scalar samples (exact for quadratics)."""
    xs = np.linspace(lo, hi, n)
    A = np.stack([0.5 * xs ** 2, xs, np.ones_like(xs)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.array([f(x) for x in xs]), rcond=None)
    return coef  # (h, g, c)


def test_exact_message_scalar_hand():
    # phi_j = 1/2 a x^2 + b x, psi = c x_i x_j, no other neighbors
    a, b, c = 2.5, -1.2, 0.7
    msg = exact_quadratic_message(np.array([[a]]), np.array([b]), np.array([[c]]))
    assert msg.H[0, 0] == pytest.approx(-c * c / a)
    assert msg.h[0] == pytest.approx(-b * c / a)
    # zero coupling -> zero message
    z = exact_quadratic_message(np.array([[a]]), np.array([b]), np.array([[0.0]]))
    assert z.H[0, 0] == 0.0 and z.h[0] == 0.0


def test_exact_message_matches_partial_minimization():
    rng = np.random.default_rng(0)
    d = 3
    for _ in range(10):
        A0 = rng.standard_normal((d, d))
        H_jj = A0 @ A0.T + 2 * np.eye(d)
        b_j = rng.standard_normal(d)
        B = rng.standard_normal((d, d))
        inc = QuadraticMessage(np.eye(d) * 0.3, rng.standard_normal(d))
        bl = rng.standard_normal(d)
        # the sender's sums: its node term, an incoming message, a boundary
        S = H_jj + inc.H
        c0 = b_j + inc.h + bl
        msg = exact_quadratic_message(S, c0, B)
        # oracle: evaluate min over x_j at several x_i, compare quadratic
        for _ in range(4):
            xi = rng.standard_normal(d)
            c = c0 + B.T @ xi
            xj = quad_min_oracle(S, c)
            val = 0.5 * xj @ S @ xj + c @ xj
            assert msg.value(xi) == pytest.approx(val - _const_part(S, c0), rel=1e-9, abs=1e-9)


def _const_part(S, c0):
    xj = np.linalg.solve(S, -c0)
    return 0.5 * xj @ S @ xj + c0 @ xj


def test_exact_message_chain_left_value():
    # chain 0-1-2 (scalars): message into node 2 reproduces the left-subchain
    # curvature of min over (x0, x1)
    rng = np.random.default_rng(1)
    a = rng.uniform(1.5, 3.0, size=3)
    b = rng.standard_normal(3)
    c01, c12 = rng.standard_normal(2)
    m01 = exact_quadratic_message(np.array([[a[0]]]), np.array([b[0]]), np.array([[c01]]))
    m12 = exact_quadratic_message(np.array([[a[1]]]) + m01.H, np.array([b[1]]) + m01.h,
                                  np.array([[c12]]))

    def left_cost(x2):
        # min over x0, x1 of sum phi + couplings
        S = np.array([[a[0], c01], [c01, a[1]]])
        c = np.array([b[0], b[1] + c12 * x2])
        u = np.linalg.solve(S, -c)
        return 0.5 * u @ S @ u + c @ u

    h, g, _ = fit_quadratic_1d(left_cost)
    assert m12.H[0, 0] == pytest.approx(h, rel=1e-9, abs=1e-9)
    assert m12.h[0] == pytest.approx(g, rel=1e-9, abs=1e-9)


def test_exact_message_singular_raises():
    with pytest.raises(SingularSenderCurvature):
        exact_quadratic_message(np.zeros((1, 1)), np.zeros(1), np.array([[1.0]]))


def test_first_order_message():
    g = np.array([0.5, -1.0])
    msg = first_order_message(g)
    assert np.array_equal(msg.h, g)
    assert not np.any(msg.H)
    assert message_vectors(msg.H) == 1
    # quadratic psi = c x_i x_j: grad_i = c x_j
    c, xj = 0.8, 1.7
    assert first_order_message(np.array([c * xj])).h[0] == pytest.approx(c * xj)


def test_schur_scalar_recursion():
    # scalar case: M_j = 2, M_ji = 1, Q_i + M_i = 3, H^0 = 0 -> H^1 = 2 - 1/3
    # (sender i, receiver j in the displayed orientation; map onto the
    # function's sender/receiver names)
    zero = np.zeros(1)
    msg = schur_message_update(
        S_j=np.array([[3.0]]) + np.array([[0.0]]), c_u=schur_aggregate(zero, zero, []),
        M_i=np.array([[2.0]]), M_ij=np.array([[1.0]]), grad_i_psi=zero, x_i_ref=zero)
    assert msg.H[0, 0] == pytest.approx(2.0 - 1.0 / 3.0)
    # M_ij = 0: curvature constant M_i regardless of incoming
    inc = QuadraticMessage(np.array([[0.7]]), zero)
    msg0 = schur_message_update(
        S_j=np.array([[3.0]]) + np.array([[1.0]]) + inc.H,
        c_u=schur_aggregate(zero, zero, [(inc.H @ zero, inc.h)]),
        M_i=np.array([[2.0]]), M_ij=np.array([[0.0]]), grad_i_psi=zero, x_i_ref=zero)
    assert msg0.H[0, 0] == pytest.approx(2.0)


def test_schur_message_matches_symbolic_minimization():
    """Brute-force check of the frozen linear-part derivation."""
    rng = np.random.default_rng(2)
    d = 2
    for _ in range(8):
        Q = np.diag(rng.uniform(1.0, 2.0, d))
        Mj = np.diag(rng.uniform(0.0, 0.5, d))
        Mi = np.diag(rng.uniform(0.0, 0.5, d))
        Mij = rng.standard_normal((d, d))
        gphi = rng.standard_normal(d)
        gpsi_j = rng.standard_normal(d)
        gpsi_i = rng.standard_normal(d)
        xj = rng.standard_normal(d)
        xi = rng.standard_normal(d)
        inc = QuadraticMessage(np.eye(d) * 0.4, rng.standard_normal(d))
        bgrad = rng.standard_normal(d)
        c_u = schur_aggregate(gphi, gpsi_j, [(inc.H @ xj, inc.h)], bgrad)
        msg = schur_message_update(Q + Mj + inc.H, c_u, Mi, Mij, gpsi_i, xi)

        def surrogate_total(u, v):
            # u = x_j (sender), v = x_i (receiver); all pieces of the
            # message minimization in displaced coordinates
            du, dv = u - xj, v - xi
            val = gphi @ du + 0.5 * du @ Q @ du
            val += gpsi_j @ du + gpsi_i @ dv + du @ Mij.T @ dv
            val += 0.5 * du @ Mj @ du + 0.5 * dv @ Mi @ dv
            val += inc.value(u)
            val += bgrad @ du
            return val

        for _ in range(4):
            v = rng.standard_normal(d)
            # numeric min over u
            S = Q + Mj + inc.H
            lin = (gphi + gpsi_j + inc.H @ xj + inc.h + bgrad
                   + Mij.T @ (v - xi))
            # c_u in displaced coords: solve for du
            du = np.linalg.solve(S, -lin)
            ref = surrogate_total(xj + du, v)
            got = msg.value(v)
            # equal up to a v-independent constant: compare differences
            v2 = rng.standard_normal(d)
            lin2 = (gphi + gpsi_j + inc.H @ xj + inc.h + bgrad
                    + Mij.T @ (v2 - xi))
            du2 = np.linalg.solve(S, -lin2)
            ref2 = surrogate_total(xj + du2, v2)
            assert (got - msg.value(v2)) == pytest.approx(ref - ref2,
                                                          rel=1e-8, abs=1e-8)


def test_schur_diagonal_preservation_exact_zero():
    d = 3
    rng = np.random.default_rng(3)
    Q = np.diag(rng.uniform(1.0, 2.0, d))
    Mij = np.diag(rng.uniform(0.2, 0.8, d))
    H0 = np.diag(rng.uniform(0.0, 0.3, d))
    zero = np.zeros(d)
    msg = schur_message_update(Q + np.zeros((d, d)) + H0,
                               schur_aggregate(zero, zero, [(H0 @ zero, zero)]),
                               np.zeros((d, d)), Mij, zero, zero)
    off = msg.H - np.diag(np.diag(msg.H))
    assert not np.any(off)          # exactly zero, not just small


def test_cta_message_scalar_and_diag():
    # scalar: w_ij = 1/2, gamma = 1, Q = 1, w_ii = 0, no other msgs, so
    # S_i = Q + (1 - w_ii)/gamma; lin_i = grad f_i(x_i^nu) - Q_i x_i^nu
    S = np.array([[1.0]]) + (1.0 - 0.0) / 1.0 * np.eye(1)
    msg = partial_linearization_message(
        S_i=S, ell=np.zeros(1) - np.array([[1.0]]) @ np.zeros(1), w_ij=0.5, gamma=1.0)
    assert msg.H[0, 0] == pytest.approx(-0.25 / 2.0)
    # w_ij = 0 -> zero curvature
    z = partial_linearization_message(
        S_i=S, ell=np.ones(1) - np.array([[1.0]]) @ np.zeros(1), w_ij=0.0, gamma=1.0)
    assert not np.any(z.H)
    # diagonal inputs stay exactly diagonal
    d = 3
    rng = np.random.default_rng(4)
    Q = np.diag(rng.uniform(0.5, 1.5, d))
    inc = QuadraticMessage(np.diag(rng.uniform(0.0, 0.4, d)), rng.standard_normal(d))
    gf, xr = rng.standard_normal(d), rng.standard_normal(d)
    m2 = partial_linearization_message(Q + (1.0 - 0.3) / 0.01 * np.eye(d) + inc.H,
                                       gf - Q @ xr + inc.h, 0.25, 0.01)
    assert not np.any(m2.H - np.diag(np.diag(m2.H)))


def test_cta_message_matches_minimization():
    rng = np.random.default_rng(5)
    d = 2
    Q = np.diag(rng.uniform(1.0, 2.0, d))
    w_ii, w_ij, gamma = 0.4, 0.3, 0.05
    gf = rng.standard_normal(d)
    xr = rng.standard_normal(d)
    inc = QuadraticMessage(-np.eye(d) * 0.1, rng.standard_normal(d))
    bl = rng.standard_normal(d)
    S = Q + (1 - w_ii) / gamma * np.eye(d) + inc.H
    ell = gf - Q @ xr + inc.h + bl
    msg = partial_linearization_message(S, ell, w_ij, gamma)

    def value_at(xj):
        c = ell - (w_ij / gamma) * xj
        u = np.linalg.solve(S, -c)
        return 0.5 * u @ S @ u + c @ u

    x1, x2 = rng.standard_normal(d), rng.standard_normal(d)
    assert (msg.value(x1) - msg.value(x2)) == pytest.approx(
        value_at(x1) - value_at(x2), rel=1e-9, abs=1e-9)


def test_hyper_factor_message_pairwise_reduction():
    rng = np.random.default_rng(6)
    d = 2
    B = rng.standard_normal((d, d))
    Hw = np.zeros((2 * d, 2 * d))
    Hw[:d, d:] = 0.5 * B
    Hw[d:, :d] = 0.5 * B.T
    H_jj = np.eye(d) * 2.0
    b_j = rng.standard_normal(d)
    # aggregate at the sender node (index 1 in support (0,1))
    msg = hyper_factor_message(Hw, H_jj[None], b_j[None], np.zeros((1, d)), np.zeros(d))
    ref = exact_quadratic_message(H_jj, b_j, B)
    assert np.allclose(msg.H, ref.H, atol=1e-12)
    assert np.allclose(msg.h, ref.h, atol=1e-12)


def test_hyper_factor_message_no_cross():
    d = 1
    Hw = np.diag([1.0, 2.0])     # (H_w)_{i, rest} = 0
    msg = hyper_factor_message(Hw, np.array([[[3.0]]]), np.zeros((1, 1)),
                               np.zeros((1, 1)), np.zeros(1))
    assert msg.H[0, 0] == pytest.approx(2.0)   # 2 (H_w)_{ii}
    assert msg.h[0] == 0.0


def test_hyper_factor_message_matches_dense_minimization():
    rng = np.random.default_rng(7)
    d = 1
    k = 3
    A0 = rng.standard_normal((k, k))
    Hw = 0.5 * (A0 + A0.T)
    aggs = {}
    for j in (1, 2):
        aggs[j] = (np.array([[rng.uniform(3.0, 5.0)]]), rng.standard_normal(1))

    msg = hyper_factor_message(Hw, np.stack([aggs[j][0] for j in (1, 2)]),
                               np.stack([aggs[j][1] for j in (1, 2)]),
                               np.zeros((k - 1, d)), np.zeros(d))

    def brute(x0):
        def total(rest):
            z = np.concatenate([[x0], rest])
            val = z @ Hw @ z
            for t, j in enumerate((1, 2)):
                H, h = aggs[j]
                val += 0.5 * H[0, 0] * rest[t] ** 2 + h[0] * rest[t]
            return val
        # exact quadratic minimization over rest
        S = 2 * Hw[1:, 1:] + np.diag([aggs[1][0][0, 0], aggs[2][0][0, 0]])
        c = 2 * Hw[1:, 0] * x0 + np.array([aggs[1][1][0], aggs[2][1][0]])
        rest = np.linalg.solve(S, -c)
        return total(rest)

    h, g, _ = fit_quadratic_1d(lambda x: brute(x))
    assert msg.H[0, 0] == pytest.approx(h, rel=1e-9, abs=1e-10)
    assert msg.h[0] == pytest.approx(g, rel=1e-9, abs=1e-10)


def test_message_set_round_snapshot():
    ms = MessageSet([(0, 1), (1, 0)], 1)
    ms.put((0, 1), QuadraticMessage(np.array([[1.0]]), np.zeros(1)))
    # reads still see the zero initialization until commit
    assert not np.any(ms.get((0, 1)).H)
    ms.put((1, 0), QuadraticMessage(np.array([[2.0]]), np.zeros(1)))
    ms.commit()
    assert ms.get((0, 1)).H[0, 0] == 1.0
    # a round that leaves a message unset cannot commit
    ms.put((0, 1), QuadraticMessage(np.array([[3.0]]), np.zeros(1)))
    with pytest.raises(MessageError, match="1 messages unset"):
        ms.commit()
    assert ms.get((0, 1)).H[0, 0] == 1.0


@pytest.mark.parametrize("form", ["default", "scalar", "shared", "stacked"])
def test_spec_stacks_hold_the_per_node_and_per_edge_blocks(form):
    """node_matrices stacks Q and M_node from each of their forms;
    edge_matrices holds M_edge[(min, max)] per pair in either orientation
    and zeros for pairs without a block, as a per-pair dict lookup does."""
    rng = np.random.default_rng(3)
    m, d = 5, 2
    stack = rng.standard_normal((m, d, d))
    src = {"default": None, "scalar": 2.5, "shared": stack[0], "stacked": stack}[form]
    M_edge = {(0, 1): stack[1], (1, 3): stack[2], (2, 4): stack[3]}
    spec = SurrogateSpec(family="schur_quadratic", Q=src, M_node=src, M_edge=M_edge)
    for which, default in (("Q", np.eye(d)), ("M", np.zeros((d, d)))):
        expected = {"default": np.broadcast_to(default, (m, d, d)),
                    "scalar": np.broadcast_to(2.5 * np.eye(d), (m, d, d)),
                    "shared": np.broadcast_to(stack[0], (m, d, d)), "stacked": stack}[form]
        got = spec.node_matrices(which, m, d)
        assert got.shape == (m, d, d) and np.array_equal(got, expected)
        got[0] = 7.0                    # a new array: the spec is untouched
    assert not np.any(spec.node_matrices("Q", m, d) == 7.0)
    rows, cols = np.array([0, 1, 3, 1, 4, 2, 0]), np.array([1, 0, 1, 2, 2, 4, 4])
    expected = np.stack([M_edge.get((min(i, j), max(i, j)), np.zeros((d, d)))
                         for i, j in zip(rows, cols)])
    assert np.array_equal(spec.edge_matrices(rows, cols, m, d), expected)
    assert spec.edge_matrices([], [], m, d).shape == (0, d, d)


def test_vector_cost_and_diagonalize():
    d = 4
    dense = QuadraticMessage(np.ones((d, d)), np.ones(d))
    diag = QuadraticMessage(np.diag(np.ones(d)), np.ones(d))
    zero = QuadraticMessage(np.zeros((d, d)), np.ones(d))
    assert message_vectors(dense.H) == d + 1
    assert message_vectors(diag.H) == 2
    assert message_vectors(zero.H) == 1
    x = np.arange(d, dtype=float)
    comp = diagonalize_message(dense, x)
    assert is_diagonal(comp.H)
    assert np.allclose(comp.grad(x), dense.grad(x))


@given(st.integers(0, 50))
@settings(max_examples=20, deadline=None)
def test_struct_solve_matches_dense(seed):
    rng = np.random.default_rng(seed)
    d = 3
    A = np.diag(rng.uniform(0.5, 2.0, d))
    rhs = rng.standard_normal((d, 2))
    assert np.allclose(struct_solve(A, rhs), np.linalg.solve(A, rhs))
    B = A + 0.1 * rng.standard_normal((d, d))
    assert np.allclose(struct_solve(B, rhs), np.linalg.solve(B, rhs))


def _spd_batch(rng, B, d, diagonal):
    if diagonal:
        return np.stack([np.diag(rng.uniform(1.0, 2.0, d)) for _ in range(B)])
    A = rng.standard_normal((B, d, d))
    return np.einsum("bij,bkj->bik", A, A) / d + np.eye(d)


@given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_batched_rules_equal_stacked_single_calls(seed, B, d, diagonal):
    rng = np.random.default_rng(seed)

    def vecs():
        return rng.standard_normal((B, d))

    def stacked(fn):
        msgs = [fn(b) for b in range(B)]
        return (np.stack([m.H for m in msgs]), np.stack([m.h for m in msgs]))

    def close(batched, singles):
        assert batched.H.shape == singles[0].shape
        assert np.max(np.abs(batched.H - singles[0])) <= 1e-12
        assert np.max(np.abs(batched.h - singles[1])) <= 1e-12

    # incoming messages: two per batch entry, summed batched or one by one
    inc_H = [0.2 * _spd_batch(rng, B, d, diagonal) for _ in range(2)]
    inc_h = [vecs() for _ in range(2)]

    A = _spd_batch(rng, B, d, diagonal)
    rhs_m, rhs_v = rng.standard_normal((B, d, 2)), vecs()
    for rhs in (rhs_m, rhs_v):
        want = np.stack([struct_solve(A[b], rhs[b]) for b in range(B)])
        assert np.max(np.abs(struct_solve(A, rhs) - want)) <= 1e-12

    Q, Mj, Mi = (_spd_batch(rng, B, d, diagonal) for _ in range(3))
    Mij = rng.standard_normal((B, d, d))
    g_phi, g_j, g_i, xj, xi, bnd = (vecs() for _ in range(6))

    def schur_args(b=slice(None)):
        products = [(np.einsum("...ij,...j->...i", H[b], xj[b]), h[b])
                    for H, h in zip(inc_H, inc_h)]
        return (Q[b] + Mj[b] + inc_H[0][b] + inc_H[1][b],
                schur_aggregate(g_phi[b], g_j[b], products, bnd[b]), Mi[b], Mij[b], g_i[b], xi[b])

    close(schur_message_update(*schur_args()),
          stacked(lambda b: schur_message_update(*schur_args(b))))

    w_ii, w_ij = rng.uniform(0.2, 0.5, B), rng.uniform(0.0, 0.3, B)
    gamma = 0.05
    lin_i = g_phi - np.einsum("bij,bj->bi", Q, xj)      # grad f_i - Q_i x_i^nu

    def plin_args(b=slice(None)):
        self_weight = ((1.0 - w_ii[b]) / gamma)[..., None, None] * np.eye(d)
        return (Q[b] + self_weight + inc_H[0][b] + inc_H[1][b],
                lin_i[b] + inc_h[0][b] + inc_h[1][b] + bnd[b], w_ij[b], gamma)

    close(partial_linearization_message(*plin_args()),
          stacked(lambda b: partial_linearization_message(*plin_args(b))))

    close(first_order_message(g_i),
          stacked(lambda b: first_order_message(g_i[b])))

    def exact_args(b=slice(None)):
        return (A[b] + inc_H[0][b] + inc_H[1][b],
                g_phi[b] + inc_h[0][b] + inc_h[1][b] + bnd[b], Mij[b])

    close(exact_quadratic_message(*exact_args()),
          stacked(lambda b: exact_quadratic_message(*exact_args(b))))


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(2, 4))
@settings(max_examples=20, deadline=None)
def test_struct_solve_diagonal_batch_keeps_exact_zeros(seed, B, d):
    rng = np.random.default_rng(seed)
    A = np.stack([np.diag(rng.uniform(0.1, 3.0, d)) for _ in range(B)])
    X = struct_solve(A, np.broadcast_to(np.eye(d), (B, d, d)))
    assert not np.any(X * (1.0 - np.eye(d)))
    assert np.array_equal(np.einsum("bii->bi", X), 1.0 / np.einsum("bii->bi", A))


def test_struct_solve_mixed_batch_equals_single_solves():
    rng = np.random.default_rng(9)
    d = 3
    A = np.stack([np.diag(rng.uniform(0.5, 2.0, d)) if b % 2 else
                  _spd_batch(rng, 1, d, False)[0] for b in range(6)])
    for rhs in (rng.standard_normal((6, d)), rng.standard_normal((6, d, 2))):
        got = struct_solve(A, rhs)
        assert np.array_equal(got, np.stack([struct_solve(A[b], rhs[b])
                                             for b in range(6)]))
    X = struct_solve(A, np.broadcast_to(np.eye(d), (6, d, d)))
    assert not np.any(X[1::2] * (1.0 - np.eye(d)))
    with pytest.raises(np.linalg.LinAlgError):
        struct_solve(np.stack([A[0], np.zeros((d, d))]), np.ones((2, d)))


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 3), st.booleans())
@settings(max_examples=40, deadline=None)
def test_batched_hyper_rule_equals_single_incidence_calls(seed, B, k, d, frozen):
    rng = np.random.default_rng(seed)
    diagonal = rng.random(B) < 0.5          # a mixed stack of both kinds

    def block(diag):
        S = 0.3 * _spd_batch(rng, 1, k * d, False)[0] - 0.2 * np.eye(k * d)
        if diag:            # the other members' block, hence A, is diagonal
            S[d:, d:] = np.diag(np.diag(S[d:, d:]))
        return S

    blocks = np.stack([block(diag) for diag in diagonal])
    H_agg = np.stack([_spd_batch(rng, k, d, diag)[1:] + 2.0 * np.eye(d)
                      for diag in diagonal])
    h_agg = rng.standard_normal((B, k - 1, d))
    fz = rng.standard_normal((B, k - 1, d)) if frozen else np.zeros((B, k - 1, d))
    recv = rng.standard_normal((B, d)) if frozen else np.zeros((B, d))
    got = hyper_factor_message(blocks, H_agg, h_agg, frozen_lin=fz,
                               receiver_extra_lin=recv)
    x = rng.standard_normal((B, d))
    diag_got = diagonalize_message(got, x)
    for b in range(B):
        one = hyper_factor_message(blocks[b], H_agg[b], h_agg[b],
                                   frozen_lin=fz[b], receiver_extra_lin=recv[b])
        assert np.array_equal(got.H[b], one.H) and np.array_equal(got.h[b], one.h)
        one_diag = diagonalize_message(one, x[b])
        assert np.array_equal(diag_got.H[b], one_diag.H)
        assert np.array_equal(diag_got.h[b], one_diag.h)


def _brute_vectors(H):
    """message_vectors of one (d, d) curvature, entry by entry."""
    d = H.shape[0]
    off = any(H[i, j] != 0 for i in range(d) for j in range(d) if i != j)
    on = any(H[i, i] != 0 for i in range(d))
    return (d if off else int(on)) + 1


@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_message_vectors_match_per_message_count(seed, K, d):
    rng = np.random.default_rng(seed)
    kinds = ("zero", "negzero", "diag", "dense", "nan_diag", "nan_off", "one_off")
    H = np.zeros((K, d, d))
    for k in range(K):
        kind = kinds[rng.integers(len(kinds))]
        if kind == "negzero":
            H[k] = -0.0
        elif kind == "diag":
            H[k] = np.diag(rng.standard_normal(d))
            H[k, rng.integers(d), rng.integers(d)] *= 0.0
        elif kind == "dense":
            H[k] = rng.standard_normal((d, d))
        elif kind == "nan_diag":
            H[k, rng.integers(d), rng.integers(d)] = np.nan
            H[k][~np.eye(d, dtype=bool)] = -0.0
        elif kind == "nan_off" and d > 1:
            H[k, 0, d - 1] = np.nan
        elif kind == "one_off" and d > 1:
            H[k, d - 1, 0] = 1e-300
    got = message_vectors(H)
    assert got.shape == (K,)
    assert got.tolist() == [_brute_vectors(H[k]) for k in range(K)]
    assert int(message_vectors(H[0])) == _brute_vectors(H[0])
    assert total_vectors(H) == sum(_brute_vectors(H[k]) for k in range(K))


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _sender_batch(rng, B, d, kinds):
    """B curvature matrices, each diagonal, dense or an unbatched single
    one (B = 0), from the kinds cycled over the batch."""
    return np.stack([_spd_batch(rng, 1, d, kinds[b % len(kinds)] == "diag")[0]
                     for b in range(max(B, 1))])


@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(1, 3),
       st.sampled_from([("diag",), ("dense",), ("diag", "dense")]))
@settings(max_examples=40, deadline=None)
def test_stationary_shortcut_equals_full_rule(seed, B, d, kinds):
    """The engines' kept round, the Curvature of a call with the same
    sender matrix and fixed inputs solving for a new linear sum c' and then
    ``exact_linear``, ``schur_linear`` or (w_ij/gamma) col, returns the
    full rule's message at c' bit for bit for any linear inputs; the
    hypergraph rule takes the Curvature back as ``curvature=``. B = 0 is
    the unbatched call."""
    rng = np.random.default_rng(seed)
    lead = (B,) if B else ()

    def vec():
        return rng.standard_normal(lead + (d,))

    def mat(kind_list=kinds):
        M = _sender_batch(rng, B, d, kind_list)
        return M if B else M[0]

    def mv(H, x):
        return np.einsum("...ij,...j->...i", H, x)

    inc_H = [0.2 * mat() for _ in range(2)]
    Q, Mj, Mi = mat(), mat(), mat()
    Mij = rng.standard_normal(lead + (d, d))
    w_ii, w_ij = rng.uniform(0.2, 0.5, lead), rng.uniform(0.0, 0.3, lead)
    A = mat()
    Bc = rng.standard_normal(lead + (d, d))
    S_schur = Q + Mj + inc_H[0] + inc_H[1]
    S_plin = Q + ((1.0 - w_ii) / 0.05)[..., None, None] * np.eye(d) + inc_H[0] + inc_H[1]
    A_j = A + inc_H[0] + inc_H[1] + 0.1 * Q

    def c_u():
        return schur_aggregate(vec(), vec(), [(mv(H, vec()), vec()) for H in inc_H], vec())

    # per rule: the sender's linear sum, the rule at (c, receiver-side
    # inputs a) and the engine's kept round on its Curvature
    rules = {
        "schur": (c_u, lambda c, a: schur_message_update(S_schur, c, Mi, Mij, a[0], a[1]),
                  lambda kept, c, a: schur_linear(a[0], mv(Mij, kept.solve(c)),
                                                  mv(kept.H, a[1]))),
        "partial_linearization": (
            vec, lambda c, a: partial_linearization_message(S_plin, c, w_ij, 0.05),
            lambda kept, c, a: (np.asarray(w_ij) / 0.05)[..., None] * kept.solve(c)),
        "exact": (vec, lambda c, a: exact_quadratic_message(A_j, c, Bc),
                  lambda kept, c, a: exact_linear(Bc, kept.solve(c))),
    }
    for linear_sum, make, kept_round in rules.values():
        first = make(linear_sum(), [vec(), vec()])
        c, a = linear_sum(), [vec(), vec()]
        full = make(c, a)
        _assert_same_bits(first.curvature.H, full.H)
        _assert_same_bits(kept_round(first.curvature, c, a), full.h)

    # hypergraph factors of arity k = 3, the rest's aggregates diagonal or dense
    k = 3
    blocks = np.stack([0.3 * _spd_batch(rng, 1, k * d, False)[0]
                       for _ in range(max(B, 1))])
    H_agg = np.stack([np.stack([_sender_batch(rng, 1, d, kinds)[0] + 2.0 * np.eye(d)
                                for _ in range(k - 1)]) for _ in range(max(B, 1))])
    if not B:
        blocks, H_agg = blocks[0], H_agg[0]

    def hyper(curvature):
        return hyper_factor_message(
            blocks, H_agg, rng_lin["h"], frozen_lin=rng_lin["f"],
            receiver_extra_lin=rng_lin["r"], curvature=curvature)

    rng_lin = {"h": rng.standard_normal(lead + (k - 1, d)),
               "f": rng.standard_normal(lead + (k - 1, d)), "r": vec()}
    first = hyper(None)
    rng_lin = {"h": rng.standard_normal(lead + (k - 1, d)),
               "f": rng.standard_normal(lead + (k - 1, d)), "r": vec()}
    full, short = hyper(None), hyper(first.curvature)
    _assert_same_bits(short.H, full.H)
    _assert_same_bits(short.h, full.h)


@given(st.integers(0, 10_000), st.integers(0, 4), st.integers(1, 3),
       st.integers(1, 3), st.sampled_from([("diag",), ("dense",), ("diag", "dense")]))
@settings(max_examples=60, deadline=None)
def test_kept_column_equals_full_solve_column(seed, B, d, k, kinds):
    """A system's ``columns`` of rhs = [F | c] (..., d, k + 1) returns the
    full solve's fixed columns and last column, and a map that returns the
    last column of the full solve with a new c written in, bit for bit:
    F and c divided by diag apart on an all-diagonal StructSystem, times
    (1/A) apart on a d = 1 LapackSystem, a full solve otherwise; B = 0 is
    the unbatched case."""
    rng = np.random.default_rng(seed)
    lead = (B,) if B else ()
    A = _sender_batch(rng, B, d, kinds)
    A = A if B else A[0]
    diag = [d == 1 or kinds[b % len(kinds)] == "diag" for b in range(max(B, 1))]
    rhs = rng.standard_normal(lead + (d, k + 1))
    for system in (StructSystem(A), LapackSystem(A)):
        if isinstance(system, StructSystem):
            assert system.all_diag == all(diag)
            assert system.none_diag == (not any(diag))
        X, col, column = system.columns(rhs[..., :-1], rhs[..., -1])
        _assert_same_bits(X, system.solve(rhs)[..., :-1])
        _assert_same_bits(col, system.solve(rhs)[..., -1])
        for _ in range(2):
            c = rng.standard_normal(lead + (d,))
            full = rhs.copy()
            full[..., -1] = c
            _assert_same_bits(column(c), system.solve(full)[..., -1])


# pivots and right-hand-side entries beyond the normal range: subnormals,
# the largest finite magnitudes, infinities and NaN
_SPECIAL = np.array([5e-324, -5e-324, 1e-310, -2.5e-320, 2.2e-308, 1e-300,
                     1e300, -1.7e308, np.inf, -np.inf, np.nan])


def _same_bits_but_nan_signs(got, want):
    """got has want's shape and bits, except that a NaN of want may be any
    NaN (where two NaNs meet in a product either may be kept)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def _draw_1x1(rng, shape, specials):
    """Random signs and magnitudes 1e-300 to 1e300, about a third of the
    entries drawn from ``specials``."""
    out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    special = rng.random(shape) < 0.3
    out[special] = rng.choice(specials, np.count_nonzero(special))
    return out


def _concatenated(solve, F, c):
    """The fixed columns and last column of one solve of [F | c]."""
    X = solve(np.concatenate([F, c[..., None]], axis=-1))
    return X[..., :-1], X[..., -1]


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (9,), (3, 4)]),
       st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scalar_exact_message_equals_concatenated_solve(seed, batch, zero_pivot, huge):
    """At d = 1 the exact rule solves [B^T | c] column by column: its
    columns, H, h and kept column map hold the bits of one
    ``np.linalg.solve`` of the concatenated right-hand side followed by
    the same H_of, for pivots and entries with subnormals, infinities and
    NaN. With ``huge`` some |B^2 / A| exceed DBL_MAX / 2, where
    1/2 (H + H^T) is inf and H is not. A zero pivot, -0.0 too, raises
    SingularSenderCurvature("Singular matrix"), as LAPACK's does."""
    rng = np.random.default_rng(seed)
    specials = np.r_[_SPECIAL, 0.0, -0.0]
    A = _draw_1x1(rng, batch + (1, 1), _SPECIAL)
    B, c, c2 = (_draw_1x1(rng, batch + shape, specials)
                for shape in ((1, 1), (1,), (1,)))
    if huge:
        big = rng.random(A.shape) < 0.5
        big.reshape(-1)[0] = True
        A[big] = rng.choice([1.0, -1.0], np.count_nonzero(big))
        B[big] = rng.choice([1.2e154, -1.2e154], np.count_nonzero(big))
    if zero_pivot:
        A.reshape(-1)[rng.integers(A.size)] = rng.choice([0.0, -0.0])
    F = np.swapaxes(B, -1, -2)
    with np.errstate(all="ignore"):
        if zero_pivot:
            with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
                np.linalg.solve(A, np.concatenate([F, c[..., None]], axis=-1))
            with pytest.raises(SingularSenderCurvature, match="^Singular matrix$"):
                exact_quadratic_message(A, c, B)
            return
        X, col = _concatenated(lambda rhs: np.linalg.solve(A, rhs), F, c)
        H = -np.matmul(B, X)
        H, h = 0.5 * (H + np.swapaxes(H, -1, -2)), -np.matmul(B, col[..., None])[..., 0]
        got_X, got_col, _ = LapackSystem(A).columns(F, c)
        msg = exact_quadratic_message(A, c, B)
        kept = msg.curvature.solve(c2)
        want_kept = _concatenated(lambda rhs: np.linalg.solve(A, rhs), F, c2)[1]
    for got, want in ((got_X, X), (got_col, col), (msg.H, H), (msg.h, h), (kept, want_kept)):
        _same_bits_but_nan_signs(got, want)
    if huge:
        assert np.any(np.isinf(msg.H) & np.isfinite(X))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (1,), (9,), (3, 4)]),
       st.booleans())
@settings(max_examples=150, deadline=None)
def test_scalar_struct_rules_equal_concatenated_solve(seed, batch, zero_pivot):
    """At d = 1 the Schur and partial-linearization rules solve their
    sender systems column by column where every system is diagonal (a
    finite pivot) and [F | c] at once otherwise: H, h and the kept column
    map hold the bits of the rule's solve of the concatenated right-hand
    side by StructSystem, for pivots and entries with subnormals,
    infinities and NaN. A zero pivot, -0.0 too, raises
    SingularInnerMatrix("singular diagonal system") from both rules."""
    rng = np.random.default_rng(seed)
    specials = np.r_[_SPECIAL, 0.0, -0.0]

    def draw(shape=(1,), values=specials):
        return _draw_1x1(rng, batch + shape, values)

    Q, M_i, M_ij = draw((1, 1), _SPECIAL), draw((1, 1)), draw((1, 1))
    if zero_pivot:
        Q.reshape(-1)[rng.integers(Q.size)] = rng.choice([0.0, -0.0])
    M_j = np.zeros_like(Q)
    g_phi, g_j, g_i, x_i, bnd, c2 = (draw() for _ in range(6))
    w_ii, w_ij, gamma = rng.uniform(0.2, 0.5, batch), rng.uniform(0.0, 0.3, batch), 0.05
    S_plin = Q + ((1.0 - w_ii) / gamma)[..., None, None]
    eye = np.broadcast_to(np.eye(1), S_plin.shape)
    with np.errstate(all="ignore"):
        if zero_pivot:
            with pytest.raises(SingularInnerMatrix, match="^singular diagonal system$"):
                schur_message_update(Q + M_j, schur_aggregate(g_phi, g_j, []), M_i, M_ij,
                                     g_i, x_i)
            with pytest.raises(SingularInnerMatrix, match="^singular diagonal system$"):
                # the sender matrix of w_ii = 1, no self weight, on a zero Q
                partial_linearization_message(np.zeros_like(Q), g_phi, w_ij, gamma)
            return
        F = np.broadcast_to(np.swapaxes(M_ij, -1, -2), Q.shape)
        c_u = schur_aggregate(g_phi, g_j, [], bnd)
        X, col = _concatenated(StructSystem(Q + M_j).solve, F, c_u)
        H = M_i - M_ij @ X
        schur = (H, schur_linear(g_i, np.einsum("...ij,...j->...i", M_ij, col),
                                 np.einsum("...ij,...j->...i", H, x_i)),
                 _concatenated(StructSystem(Q + M_j).solve, F, c2)[1])
        msg = schur_message_update(Q + M_j, c_u, M_i, M_ij, g_i, x_i)
        got_schur = (msg.H, msg.h, msg.curvature.solve(c2))
        X, col = _concatenated(StructSystem(S_plin).solve, eye, g_phi + bnd)
        plin = (-(w_ij ** 2 / gamma ** 2)[..., None, None] * X, (w_ij / gamma)[..., None] * col,
                _concatenated(StructSystem(S_plin).solve, eye, c2)[1])
        msg = partial_linearization_message(S_plin, g_phi + bnd, w_ij, gamma)
        got_plin = (msg.H, msg.h, msg.curvature.solve(c2))
    for got, want in zip(got_schur + got_plin, schur + plin):
        _same_bits_but_nan_signs(got, want)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 6))
@settings(max_examples=100, deadline=None)
def test_struct_system_diagonal_where_a_minus_diag_identity_is_zero(seed, d, B):
    """StructSystem calls a matrix diagonal exactly where A - diag I is all
    zero: -0.0 off the diagonal leaves it diagonal, a NaN there does not,
    and a +-inf or NaN on the diagonal makes it not diagonal (inf - inf and
    NaN - NaN are NaN); a zero, -0.0 too, on the diagonal of a diagonal
    matrix raises. B = 0 is the unbatched case."""
    rng = np.random.default_rng(seed)
    lead = (B,) if B else ()
    A = np.zeros(lead + (d, d))
    off = ~np.eye(d, dtype=bool)
    A[..., off] = rng.choice([0.0, -0.0, 0.0, -0.0, 0.0, np.nan, 1.5], A[..., off].shape)
    i = np.arange(d)
    A[..., i, i] = rng.choice([1.0, -2.5, 3e-320, np.inf, -np.inf, np.nan, 0.0, -0.0],
                              lead + (d,))
    diag = np.diagonal(A, axis1=-2, axis2=-1)
    with np.errstate(invalid="ignore"):
        want = ~np.any(A - diag[..., None] * np.eye(d), axis=(-2, -1))
    if np.any(want & np.any(diag == 0.0, axis=-1)):
        with pytest.raises(np.linalg.LinAlgError, match="^singular diagonal system$"):
            StructSystem(A)
        return
    system = StructSystem(A)
    assert np.array_equal(system.is_diag, want)
    assert system.all_diag == bool(np.all(want)) and system.none_diag == (not np.any(want))
    _assert_same_bits(system.diag, diag)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5),
       st.sampled_from([(), (7,), (3, 4)]), st.sampled_from([1, 1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_lapack_solve_equals_numpy_bitwise(seed, k, batch, d):
    """LapackSystem returns np.linalg.solve's bits: at d = 1 ``vector``
    divides one right-hand side (..., d) by the pivots and ``columns``
    multiplies more by the reciprocal, which is how OpenBLAS solves 1 x 1
    systems; ``solve``, and d >= 2, delegate."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        """Random signs and magnitudes 1e-300 to 1e300, about a third of
        the entries special values."""
        out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(_SPECIAL, np.count_nonzero(special))
        return out

    rhs = draw(batch + (d, k))
    A = draw(batch + (1, 1)) if d == 1 else rng.standard_normal(batch + (d, d))
    system = LapackSystem(A)
    with np.errstate(all="ignore"):         # the solvers' policy
        expected = np.linalg.solve(A, rhs)
        got = system.solve(rhs)
        if k == 1:
            columns = system.vector(rhs[..., 0])[..., None]
        else:
            X, col, _ = system.columns(rhs[..., :-1], rhs[..., -1])
            columns = np.concatenate((X, col[..., None]), axis=-1)
    for out in (got, columns):
        assert out.shape == expected.shape
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (7,), (3, 4)]),
       st.sampled_from([1, 1, 2, 3]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_block_matvec_equals_matmul_bitwise(seed, batch, d, transposed):
    """block_matvec returns np.matmul's bits: at d = 1 the elementwise
    product plus 0.0, since matmul sums from +0.0 and so turns a -0.0
    product into +0.0; d >= 2 delegates, on a transposed view as given."""
    rng = np.random.default_rng(seed)

    def draw(shape):
        """Random signs and magnitudes 1e-300 to 1e300, about a third of
        the entries special values or signed zeros."""
        out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(np.r_[_SPECIAL, 0.0, -0.0], np.count_nonzero(special))
        return out

    B, v = draw(batch + (d, d)), draw(batch + (d,))
    if transposed:      # a view, as objective._transposed makes on (E, d, d)
        B = np.swapaxes(B, -1, -2)
    with np.errstate(all="ignore"):
        expected = np.matmul(B, v[..., None])[..., 0]
        got = block_matvec(B, v)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(), (7,), (3, 4)]),
       st.integers(1, 5), st.booleans())
@settings(max_examples=150, deadline=None)
def test_scalar_block_matmul_equals_matmul_bitwise(seed, batch, k, stacked):
    """block_matmul on (..., 1, 1) blocks and (..., 1, k) right-hand sides,
    as the exact rule forms B X at d = 1, returns np.matmul's bits: the
    products plus 0.0, matmul's sum from +0.0. Entries of every magnitude
    with signed zeros, subnormals and infinities, on a batch of blocks
    matching the right-hand sides' or broadcast against a stack of them.
    (A NaN times a NaN may keep either one; see
    ``test_scalar_grad_of_a_stack_with_nans_is_the_stacked_grads``.)"""
    rng = np.random.default_rng(seed)

    def draw(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
        special = rng.random(shape) < 0.3
        out[special] = rng.choice(np.r_[_SPECIAL[:-1], 0.0, -0.0], np.count_nonzero(special))
        return out

    B, X = draw(batch + (1, 1)), draw(((5,) if stacked else ()) + batch + (1, k))
    with np.errstate(all="ignore"):
        expected = np.matmul(B, X)
        got = block_matmul(B, X)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(0, 8),
       st.integers(1, 20), st.sampled_from(["flat", "single", "split"]),
       st.sampled_from([1, 2, 2, 3]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_pair_products_equal_matmul_bitwise(seed, m, E, K, layout, d, finite):
    """PairProducts returns np.matmul's bits for both products of every
    pair, B_e on x[cols[e]] and the transposed view B_e^T on x[rows[e]],
    on stacks of K iterates: regrouped at d = 2 and K >= 2, per block at
    K = 1, on an unbatched x and at d = 3, and at d = 1 as one elementwise
    pass. Entries of unit magnitude, where the kernels' FMA rounding shows,
    with signed zeros, subnormals, infinities and NaNs of both signs among
    the iterates' entries. Blocks with a non-finite entry take the
    per-block products: regrouped, a NaN block entry times a NaN of the
    other sign could keep the other sign. At d = 1 such a product may keep
    either NaN, so with non-finite blocks NaNs are matched by position."""
    rng = np.random.default_rng(seed)
    lead = {"flat": (K,), "single": (), "split": (K, 1) if K % 2 else (2, K // 2)}[layout]
    nonfinite = np.array([np.inf, -np.inf, np.nan, -np.nan])
    B = rng.uniform(-1.0, 1.0, (E, d, d))
    if not finite and E:
        special = rng.random(B.shape) < 0.3
        special[rng.integers(E), rng.integers(d), rng.integers(d)] = True
        B[special] = rng.choice(nonfinite, np.count_nonzero(special))
    B.flags.writeable = False           # as QuadraticObjective.pair_blocks
    rows, cols = rng.integers(0, m, E), rng.integers(0, m, E)
    x = rng.uniform(-1.0, 1.0, lead + (m, d))
    special = rng.random(x.shape) < 0.3
    x[special] = rng.choice(np.r_[_SPECIAL, nonfinite, 0.0, -0.0], np.count_nonzero(special))
    products = PairProducts(B, rows, cols)
    assert products.regrouped == (d == 2 and bool(np.all(np.isfinite(B))))
    with np.errstate(all="ignore"):
        expected = np.stack([np.matmul(B, x.take(cols, axis=-2)[..., None])[..., 0],
                             np.matmul(np.swapaxes(B, -1, -2),
                                       x.take(rows, axis=-2)[..., None])[..., 0]], axis=-2)
        got = products(x)
    assert got.shape == expected.shape == lead + (E, 2, d)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    exact = np.ones_like(nan) if d > 1 or finite else ~nan
    assert np.array_equal(got[exact].view(np.int64), expected[exact].view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.lists(st.integers(0, 300), min_size=1, max_size=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_products_equal_per_part_einsum_bitwise(seed, d, sizes, transposed):
    """StackedProducts returns every part's own einsum bits, B_k times x
    gathered at at_k, for stacks of 0-300 blocks at d = 1-3: entries of
    unit magnitude (where another order of the sums rounds otherwise) with
    signed zeros, subnormals, infinities and NaNs of both signs. At d = 3
    the first part may be a transposed view, as a non-contiguous
    ``problem.diag`` is, whose einsum sums in another order: it keeps an
    einsum of its own. At d = 1 einsum's loop runs over the rows and a NaN
    times a NaN may keep either one, so NaNs are matched by position."""
    rng = np.random.default_rng(seed)
    m = 20

    def draw(shape):
        out = rng.uniform(-1.0, 1.0, shape)
        special = rng.random(shape) < 0.2
        out[special] = rng.choice(np.r_[_SPECIAL, -np.inf, -np.nan, 0.0, -0.0],
                                  np.count_nonzero(special))
        return out

    parts = [(draw((n, d, d)), rng.integers(0, m, n)) for n in sizes]
    if transposed and d == 3 and sizes[0]:
        B, at = parts[0]
        parts[0] = (np.swapaxes(np.swapaxes(B, 1, 2).copy(), 1, 2), at)
        assert not parts[0][0].flags.c_contiguous
    x = draw((m, d))
    with np.errstate(all="ignore"):
        expected = [np.einsum("...ij,...j->...i", B, x.take(at, axis=0)) for B, at in parts]
        got = StackedProducts(parts)(x)
    assert len(got) == len(parts)
    for g, want in zip(got, expected):
        assert g.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(g), nan)
        exact = ~nan if d == 1 else np.ones_like(nan)
        assert np.array_equal(g[exact].view(np.int64), want[exact].view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 300), st.booleans())
@settings(max_examples=100, deadline=None)
def test_gathered_products_equal_einsum_bitwise(seed, d, n, transposed):
    """GatheredProducts returns ``np.einsum("eij,ej->ei")`` of its blocks
    and x gathered at its rows, bit for bit, for 0-300 blocks at d = 1-3:
    unit magnitudes with signed zeros, subnormals, huge values, infinities
    and NaNs of both signs (at d = 1, the elementwise B x + 0.0). Where two
    NaNs meet either may be kept, so those entries are matched only as
    NaNs; at d = 3 the blocks may be a transposed view, whose einsum sums
    in its own order."""
    rng = np.random.default_rng(seed)
    m = 20

    def draw(shape):
        out = rng.uniform(-1.0, 1.0, shape)
        special = rng.random(shape) < 0.2
        out[special] = rng.choice(np.r_[_SPECIAL, -np.inf, -np.nan, 0.0, -0.0],
                                  np.count_nonzero(special))
        return out

    B, at, x = draw((n, d, d)), rng.integers(0, m, n), draw((m, d))
    if transposed:
        B = np.swapaxes(np.swapaxes(B, 1, 2).copy(), 1, 2)
    with np.errstate(all="ignore"):
        want = np.einsum("eij,ej->ei", B, x.take(at, axis=0))
        got = GatheredProducts(B, at)(x)
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    exact = ~(np.isnan(B[:, :, 0]) & np.isnan(x.take(at, axis=0))) if d == 1 else True
    assert np.array_equal(np.where(exact, got, 0.0).view(np.int64),
                          np.where(exact, want, 0.0).view(np.int64))


def _quiet_nans(rng, n):
    """n quiet NaNs of random signs and payloads."""
    bits = (rng.integers(0, 2 ** 51, n, dtype=np.uint64) | np.uint64(0x7FF8 << 48)
            | rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63))
    return bits.view(float)


@given(st.integers(0, 2 ** 32 - 1), st.lists(st.integers(0, 300), min_size=2, max_size=5),
       st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_d2_products_from_column_planes_equal_einsum_bitwise(seed, sizes, special):
    """At d = 2 a C-contiguous stack of finite blocks takes its products
    from column planes with ``np.einsum("eij,ej->ei")``'s bits, NaN signs
    and payloads included: blocks of unit magnitude with signed zeros,
    subnormals and +-1e308; iterates whose entries are, with probability
    ``special`` each, NaNs of both signs and random payloads, +-inf,
    signed zeros or 1e308 (so products overflow and sum to NaN); 0-300
    blocks a stack, so that every length mod 16 occurs. Cases: a
    GatheredProducts; a StackedProducts of several parts, the first a
    transposed view, which keeps an einsum of its own; the Schur engine's
    kept M_ij col, a GatheredProducts without a gather on a strided
    column."""
    rng = np.random.default_rng(seed)
    m = 20

    def blocks(n):
        B = rng.uniform(-1.0, 1.0, (n, 2, 2))
        mask = rng.random(B.shape) < 0.2
        B[mask] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308], np.count_nonzero(mask))
        return B

    def iterate(shape):
        x = rng.uniform(-1.0, 1.0, shape)
        mask = rng.random(shape) < special
        x[mask] = rng.choice([np.inf, -np.inf, 0.0, -0.0, 1e308], np.count_nonzero(mask))
        mask = rng.random(shape) < special
        x[mask] = _quiet_nans(rng, np.count_nonzero(mask))
        return x

    def rows(n):
        return rng.integers(0, m, n)

    x = iterate((m, 2))
    B, at = blocks(sizes[0]), rows(sizes[0])
    parts = [(np.swapaxes(np.swapaxes(B, 1, 2).copy(), 1, 2), at)]
    parts += [(blocks(n), rows(n)) for n in sizes[1:]]
    M = blocks(sizes[-1])
    col = iterate((sizes[-1], 2, 3))[..., 1]
    gathered, stacked, kept = GatheredProducts(B, at), StackedProducts(parts), GatheredProducts(M)
    assert gathered.planes and stacked.stack.planes and kept.planes
    with np.errstate(all="ignore"):
        cases = [(gathered(x), np.einsum("eij,ej->ei", B, x.take(at, axis=0))),
                 (kept(col), np.einsum("eij,ej->ei", M, col))]
        cases += [(got, np.einsum("eij,ej->ei", B, x.take(at, axis=0)))
                  for got, (B, at) in zip(stacked(x), parts)]
    for got, want in cases:
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.lists(st.integers(0, 150), min_size=1, max_size=4),
       st.lists(st.integers(0, 150), min_size=2, max_size=2), st.floats(0.0, 1.0),
       st.sampled_from(["finite", "nonfinite", "transposed"]))
@settings(max_examples=100, deadline=None)
def test_extended_products_equal_products_built_at_once_bitwise(seed, d, fixed_sizes,
                                                                state_sizes, special, state):
    """A StackedProducts compiled once from fixed parts and extended by a
    state's two parts, as the Schur engine extends its fixed parts per
    curvature state, equals the StackedProducts of all the parts built at
    once, bit for bit, NaN payloads included, with the same dispatch. The
    draws follow ``test_d2_products_from_column_planes_equal_einsum_bitwise``
    (blocks of unit magnitude with signed zeros, subnormals and +-1e308;
    iterates with NaNs of random payloads, +-inf, signed zeros and 1e308;
    0-150 blocks a part, so every stack length mod 16 occurs), at d = 1-3.
    The state parts are finite, hold a NaN or inf block (the whole stack
    then takes einsum) or are a transposed view (an einsum of its own).
    A second state extended from the same fixed parts leaves the first
    one's products as they were. At d = 2 on finite blocks every part
    also equals its einsum."""
    rng = np.random.default_rng(seed)
    m = 20

    def blocks(n):
        B = rng.uniform(-1.0, 1.0, (n, d, d))
        mask = rng.random(B.shape) < 0.2
        B[mask] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308], np.count_nonzero(mask))
        return B

    def parts(sizes):
        return [(blocks(n), rng.integers(0, m, n)) for n in sizes]

    x = rng.uniform(-1.0, 1.0, (m, d))
    mask = rng.random(x.shape) < special
    x[mask] = rng.choice([np.inf, -np.inf, 0.0, -0.0, 1e308], np.count_nonzero(mask))
    mask = rng.random(x.shape) < special
    x[mask] = _quiet_nans(rng, np.count_nonzero(mask))
    fixed, first, second = parts(fixed_sizes), parts(state_sizes), parts(state_sizes[::-1])
    B, at = first[0]
    if state == "nonfinite" and len(B):
        B[rng.integers(len(B)), rng.integers(d), rng.integers(d)] = rng.choice([np.nan, np.inf])
    elif state == "transposed":
        first[0] = (np.swapaxes(np.swapaxes(B, 1, 2).copy(), 1, 2), at)
    compiled = StackedProducts(fixed)
    extended = compiled.extended(first)
    compiled.extended(second)
    at_once = StackedProducts(fixed + first)
    assert extended.stack.planes == at_once.stack.planes
    assert [p for p, _ in extended.parts] == [p for p, _ in at_once.parts]
    with np.errstate(all="ignore"):
        got, want = extended(x), at_once(x)
        reference = [np.einsum("eij,ej->ei", B, x.take(at, axis=0)) for B, at in fixed + first]
    assert len(got) == len(want) == len(fixed) + 2
    for g, w, r in zip(got, want, reference):
        assert g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
        if d == 2 and state == "finite":
            assert np.array_equal(g.view(np.int64), r.view(np.int64))


def _edge_spec(rng, m, d, n_keys):
    """A schur_quadratic spec with n_keys blocks M_edge[(i, j)], i < j, of
    random nodes below m and random entries, signed zeros included."""
    pairs = {tuple(sorted(rng.choice(m, 2, replace=False).tolist())) for _ in range(n_keys)}
    M_edge = {}
    for i, j in pairs:
        blk = rng.standard_normal((d, d))
        blk[rng.random((d, d)) < 0.2] = -0.0
        M_edge[(i, j)] = blk
    return SurrogateSpec(family="schur_quadratic", M_edge=M_edge)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 40),
       st.integers(1, 60),
       st.sampled_from([None, "reversed", "equal", "negative", "outside", "arity",
                        "scalar_key", "block_shape", "ragged", "scalar_block",
                        "not_a_number"]))
@settings(max_examples=150, deadline=None)
def test_edge_matrices_equal_a_per_pair_lookup(seed, d, n_keys, n_pairs, malformed):
    """``edge_matrices`` holds M_edge[(min, max)] per directed pair in
    either orientation, zeros for pairs without a block, equal to a
    per-pair dict lookup bit for bit (signed zeros included) on random
    specs; node pairs are drawn at random, so most have no block and both
    orientations occur. Every malformed key or block raises MessageError:
    a key (j, i) with j > i, a key (i, i), a negative node, a node m or
    above, a key of another arity or not a tuple, a block of another shape, blocks of
    mixed shapes, a scalar block, and a block that is not a number."""
    rng = np.random.default_rng(seed)
    m = 12
    spec = _edge_spec(rng, m, d, n_keys)
    rows, cols = rng.integers(0, m, n_pairs), rng.integers(0, m, n_pairs)
    if malformed is None:
        expected = np.zeros((n_pairs, d, d))
        for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
            expected[e] = spec.M_edge.get((min(i, j), max(i, j)), expected[e])
        got = spec.edge_matrices(rows, cols, m, d)
        assert got.shape == (n_pairs, d, d)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert spec.edge_matrices([], [], m, d).shape == (0, d, d)
        return
    key = {"reversed": (5, 2), "equal": (3, 3), "negative": (-1, 4), "outside": (4, m),
           "arity": (1, 2, 3), "scalar_key": 7}.get(malformed, (0, 1))
    block = {"block_shape": np.eye(d + 1), "ragged": [[1.0] * d] * (d + 1),
             "scalar_block": 1.0, "not_a_number": [["a"] * d] * d}.get(malformed, np.eye(d))
    spec.M_edge[key] = block
    with pytest.raises(MessageError, match="M_edge must map node pairs"):
        spec.edge_matrices(rows, cols, m, d)


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("k", [1, 2])
def test_lapack_solve_zero_pivot_raises(zero, k):
    A = np.array([2.0, zero, 5e-324]).reshape(3, 1, 1)
    rhs = np.ones((3, 1, k))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(A, rhs)
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        LapackSystem(A).solve(rhs)
