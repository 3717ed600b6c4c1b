import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpjacobi import objective
from mpjacobi.objective import (
    CallableLocal,
    CtaProblem,
    GossipMatrix,
    NonStochasticW,
    NotQuadratic,
    ObjectiveError,
    QuadraticLocal,
    QuadraticObjective,
    RowScatter,
    RowSum,
    SingularInconsistent,
    SmoothObjective,
    _gershgorin_certified,
    build_atc,
    build_cta,
    build_laplacian_qp,
    build_random_qp,
    build_tanh_nn,
    global_solve_oracle,
    metropolis_weights,
    problem_from_json,
    problem_to_json,
)
from mpjacobi.topology import Graph, generate_topology
from mpjacobi.verify import check_gradient, finite_diff_grad


def random_qp(seed=0, m=5, d=2, kappa=50.0):
    g = generate_topology("ring", m=m)
    return build_random_qp(g, d, kappa, seed)


def test_blockwise_value_matches_assembled():
    rng = np.random.default_rng(0)
    q = random_qp()
    H, b = q.assemble()
    for _ in range(10):
        x = rng.standard_normal((q.m, q.d))
        xf = x.reshape(-1)
        ref = 0.5 * xf @ H @ xf + b @ xf
        assert abs(q.value(x) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_gradient_matches_assembled():
    rng = np.random.default_rng(1)
    q = random_qp(seed=2)
    H, b = q.assemble()
    x = rng.standard_normal((q.m, q.d))
    assert np.allclose(q.grad(x).reshape(-1), H @ x.reshape(-1) + b, atol=1e-12)


def test_psi_symmetry_sampled():
    q = random_qp(seed=3)
    rng = np.random.default_rng(3)
    for (i, j) in q.edges:
        for _ in range(5):
            u = rng.standard_normal(q.d)
            v = rng.standard_normal(q.d)
            # psi_ij(u, v) = <B_ij v, u> must equal psi_ji(v, u)
            a = u @ q.coupling(i, j) @ v
            b_ = v @ q.coupling(j, i) @ u
            assert abs(a - b_) <= 1e-12 * (1 + abs(a))


def test_hyper_value_and_grad():
    rng = np.random.default_rng(4)
    d = 2
    Hw = rng.standard_normal((3 * d, 3 * d))
    Hw = 0.5 * (Hw + Hw.T)
    q = QuadraticObjective(4, d, np.stack([np.eye(d)] * 4), np.zeros((4, d)),
                           {}, {(0, 1, 3): Hw})
    chk = check_gradient(q, points=5, seed=4)
    assert chk.passed, str(chk)
    H, b = q.assemble()
    x = rng.standard_normal((4, d))
    xf = x.reshape(-1)
    assert abs(q.value(x) - (0.5 * xf @ H @ xf + b @ xf)) < 1e-10


def test_metropolis_weights():
    g2 = Graph(2, {(0, 1)})
    W = metropolis_weights(g2).W
    assert W[0, 1] == pytest.approx(0.5)
    assert W[0, 0] == pytest.approx(0.5)
    k3 = Graph(3, {(0, 1), (1, 2), (0, 2)})
    W3 = metropolis_weights(k3).W
    assert np.allclose(W3[0, 1], 1 / 3)
    assert np.allclose(W3.sum(axis=1), 1.0)
    assert np.allclose(W3.sum(axis=0), 1.0)


def test_gossip_validation():
    with pytest.raises(NonStochasticW):
        GossipMatrix(np.array([[0.5, 0.4], [0.5, 0.5]]))


def test_gossip_rejects_asymmetric_w():
    # doubly stochastic but not symmetric: CtaProblem reads one triangle
    P = np.roll(np.eye(3), 1, axis=1)
    with pytest.raises(NonStochasticW):
        GossipMatrix(0.5 * np.eye(3) + 0.5 * P)


def test_cta_identity():
    """Blockwise CTA equals sum f_i + (1/(2 gamma)) ||x||^2_{I-W}."""
    g = generate_topology("ring", m=6)
    W = metropolis_weights(g, gamma=0.37)
    rng = np.random.default_rng(5)
    d = 3
    locs = []
    for i in range(6):
        A = rng.standard_normal((d, d))
        locs.append(QuadraticLocal(A @ A.T + np.eye(d), rng.standard_normal(d)))
    prob = build_cta(locs, W)
    for _ in range(10):
        x = rng.standard_normal((6, d))
        lift = np.kron(np.eye(6) - W.W, np.eye(d))
        ref = sum(locs[i].value(x[i]) for i in range(6))
        xf = x.reshape(-1)
        ref += xf @ lift @ xf / (2 * W.gamma)
        assert abs(prob.value(x) - ref) <= 1e-12 * max(1.0, abs(ref))
    # quadratic view agrees
    q = prob.to_quadratic()
    x = rng.standard_normal((6, d))
    assert q.value(x) == pytest.approx(prob.value(x), rel=1e-12)
    assert np.allclose(q.grad(x), prob.grad(x), atol=1e-10)


def test_cta_two_node_example():
    # 2 nodes, f = 0, w12 = 1/2, gamma = 1: Phi = 1/4||x1||^2 + 1/4||x2||^2
    # - 1/2 <x1, x2>
    W = GossipMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]), gamma=1.0)
    locs = [QuadraticLocal(np.zeros((1, 1)), np.zeros(1)) for _ in range(2)]
    prob = build_cta(locs, W, d=1)
    x = np.array([[2.0], [-1.0]])
    ref = 0.25 * 4 + 0.25 * 1 - 0.5 * (2 * -1)
    assert prob.value(x) == pytest.approx(ref)


def test_cta_global_hessian_is_lifted():
    g = generate_topology("ring", m=5)
    W = metropolis_weights(g, gamma=0.2)
    d = 2
    rng = np.random.default_rng(6)
    locs = [QuadraticLocal(np.eye(d) * (1 + i), rng.standard_normal(d))
            for i in range(5)]
    q = build_cta(locs, W).to_quadratic()
    H, _ = q.assemble()
    Lam = np.zeros((10, 10))
    for i in range(5):
        Lam[i * d:(i + 1) * d, i * d:(i + 1) * d] = locs[i].Q
    ref = Lam + np.kron(np.eye(5) - W.W, np.eye(d)) / W.gamma
    assert np.allclose(H, ref, atol=1e-12)


def test_atc_supports_and_value():
    g = Graph(3, {(0, 1), (1, 2)})
    W = metropolis_weights(g, gamma=0.5)
    d = 2
    rng = np.random.default_rng(7)
    locs = [QuadraticLocal(np.eye(d), rng.standard_normal(d)) for _ in range(3)]
    q = build_atc(locs, W)
    assert (0, 1, 2) in q.hyper       # row 1 of W^2 touches everything
    # objective value equals the lifted ATC form
    for _ in range(10):
        x = rng.standard_normal((3, d))
        mixed = W.W @ x
        ref = sum(locs[i].value(mixed[i]) for i in range(3))
        lift = np.kron(np.eye(3) - W.W @ W.W, np.eye(d))
        xf = x.reshape(-1)
        ref += xf @ lift @ xf / (2 * W.gamma)
        assert abs(q.value(x) - ref) <= 1e-10 * max(1.0, abs(ref))


def test_atc_identity_gossip_separable():
    W = GossipMatrix(np.eye(4), gamma=1.0)
    locs = [QuadraticLocal(np.eye(1), np.zeros(1)) for _ in range(4)]
    q = build_atc(locs, W)
    assert all(len(w) == 1 for w in q.hyper)


def test_atc_fig15_merges_to_six_factors():
    edges = {(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)}
    g = Graph(8, edges)
    W = metropolis_weights(g, gamma=1e-3)
    locs = [QuadraticLocal(np.eye(1), np.zeros(1)) for _ in range(8)]
    q = build_atc(locs, W)
    assert len(q.hyper) == 6


def test_laplacian_qp():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    q = build_laplacian_qp(w, np.array([1.0, -1.0]))
    xs, phi = global_solve_oracle(q)
    assert xs[0, 0] - xs[1, 0] == pytest.approx(1.0, abs=1e-10)
    # b = 0: constants optimal
    q0 = build_laplacian_qp(w, np.zeros(2))
    ones = np.ones((2, 1))
    assert q0.value(ones) == pytest.approx(0.0, abs=1e-14)
    # star graph center degree
    star = np.zeros((4, 4))
    star[0, 1:] = star[1:, 0] = 1.0
    qs = build_laplacian_qp(star, np.zeros(4))
    assert qs.diag[0, 0, 0] == 3.0


def test_random_qp_kappa_and_determinism():
    q = random_qp(seed=11, m=6, d=2, kappa=400.0)
    H, _ = q.assemble()
    vals = np.linalg.eigvalsh(H)
    assert vals[-1] / vals[0] == pytest.approx(400.0, rel=0.01)
    q2 = random_qp(seed=11, m=6, d=2, kappa=400.0)
    assert np.array_equal(q.diag, q2.diag) and np.array_equal(q.lin, q2.lin)


def test_global_solve_identities():
    d = 3
    q = QuadraticObjective(2, d, np.stack([np.eye(d)] * 2),
                           -np.ones((2, d)), {})
    xs, phi = global_solve_oracle(q)
    assert np.allclose(xs, 1.0)
    # PSD Laplacian with b perpendicular to ones: min-norm solution
    w = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    b = np.array([1.0, 0.0, -1.0])
    qL = build_laplacian_qp(w, b)
    xs, _ = global_solve_oracle(qL)
    assert abs(xs.sum()) < 1e-9
    # inconsistent singular system
    with pytest.raises(SingularInconsistent):
        global_solve_oracle(build_laplacian_qp(w, np.array([1.0, 1.0, 1.0])))


def _eigvalsh_gated_oracle(q):
    """Reference: the oracle gated by the full spectrum, with no
    certificate."""
    H, b = q.assemble()
    vals = np.linalg.eigvalsh(H)
    scale = max(abs(vals[-1]), 1.0)
    if vals[0] > 1e-12 * scale:
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


def _spectrum_qp(lam, seed=0):
    """One-block quadratic with Hessian U diag(lam) U^T, U a random
    orthogonal basis, and a random linear term."""
    rng = np.random.default_rng(seed)
    n = len(lam)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    H = (U * lam) @ U.T
    return QuadraticObjective(1, n, 0.5 * (H + H.T)[None], rng.standard_normal((1, n)))


def _near_singular_qp(ratio, n=40, seed=0):
    """lambda_max = 1 and lambda_min = ratio * 1e-12, the oracle's threshold."""
    lam = np.random.default_rng(seed).uniform(0.1, 1.0, n)
    lam[0], lam[-1] = ratio * 1e-12, 1.0
    return _spectrum_qp(lam, seed)


def _oracle_cases():
    w = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
    nan_diag = _near_singular_qp(1e6)
    nan_diag.diag = nan_diag.diag.copy()
    nan_diag.diag[0, 3, 3] = np.nan
    return {
        **{f"spd_{ratio:g}x": _near_singular_qp(ratio) for ratio in (0.5, 1, 2, 10, 1e6)},
        "laplacian_consistent": build_laplacian_qp(w, np.array([1.0, 0.0, -1.0])),
        "laplacian_inconsistent": build_laplacian_qp(w, np.array([1.0, 1.0, 1.0])),
        "indefinite": _spectrum_qp(np.linspace(-0.5, 2.0, 12)),
        # both tests read the lower triangle, the solve reads all of H
        "nonsymmetric": QuadraticObjective(1, 2, np.array([[[2.0, -100.0], [0.5, 2.0]]]),
                                           np.ones((1, 2))),
        "nan_diagonal": nan_diag,
        "empty_m": QuadraticObjective(0, 2, np.zeros((0, 2, 2)), np.zeros((0, 2))),
        "empty_d": QuadraticObjective(3, 0, np.zeros((3, 0, 0)), np.zeros((3, 0))),
        "random_qp": random_qp(seed=5, m=9, d=3),
    }


@pytest.mark.parametrize("name", sorted(_oracle_cases()))
def test_certified_oracle_equals_eigvalsh_gated_oracle(name):
    """The certificate changes how the direct solve is chosen, never what
    the oracle returns: the same bits, or the same exception type."""
    q = _oracle_cases()[name]
    try:
        want = _eigvalsh_gated_oracle(q)
    except Exception as exc:
        with pytest.raises(Exception) as got:
            global_solve_oracle(q)
        assert type(got.value) is type(exc)
        return
    x, phi = global_solve_oracle(q)
    assert np.array_equal(x, want[0]) and phi == want[1]


def test_tanh_nn_gradients():
    rng = np.random.default_rng(8)
    locs = build_tanh_nn([(rng.standard_normal((6, 3)), rng.uniform(size=6))])
    f = locs[0]
    x = rng.standard_normal(3)
    g = f.grad(x)
    gf = finite_diff_grad(lambda z: f.value(z), x)
    assert np.linalg.norm(g - gf) <= 1e-6 * (1 + np.linalg.norm(gf))
    # a = 0 -> constant
    locs0 = build_tanh_nn([(np.zeros((4, 3)), np.full(4, 0.3))])
    assert np.allclose(locs0[0].grad(x), 0.0)
    # zero residual point is stationary for a single sample
    a = rng.standard_normal(3)
    x0 = rng.standard_normal(3)
    locs1 = build_tanh_nn([(a[None, :], np.array([np.tanh(a @ x0)]))])
    assert np.linalg.norm(locs1[0].grad(x0)) < 1e-12


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=10, deadline=None)
def test_json_roundtrip(seed):
    """The text form brings back every block bit for bit: random pair and
    hyper blocks, and a linear term holding -0.0, the smallest subnormal,
    NaN and 1e300."""
    q = random_qp(seed=seed, m=4, d=2, kappa=30.0)
    A = np.random.default_rng(seed).standard_normal((6, 6))
    q.lin[0], q.lin[1] = [-0.0, 5e-324], [np.nan, 1e300]
    q = QuadraticObjective(q.m, q.d, q.diag, q.lin, dict(q.pair), {(0, 1, 3): A + A.T})
    q2 = problem_from_json(problem_to_json(q))
    assert np.array_equal(_bits(q.diag), _bits(q2.diag))
    assert np.array_equal(_bits(q.lin), _bits(q2.lin))
    for blocks, blocks2 in ((q.pair, q2.pair), (q.hyper, q2.hyper)):
        assert sorted(blocks) == sorted(blocks2)
        for key, B in blocks.items():
            assert np.array_equal(_bits(B), _bits(blocks2[key]))


def test_quadratic_objective_shape_errors_are_typed():
    with pytest.raises(ObjectiveError):
        QuadraticObjective(2, 1, np.zeros((3, 1, 1)), np.zeros((2, 1)))
    with pytest.raises(ObjectiveError):
        QuadraticObjective(2, 1, np.zeros((2, 1, 1)), np.zeros(2))
    q = QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)))
    for x in (np.zeros(3), np.zeros((2, 2)), np.zeros((4, 3, 1))):
        with pytest.raises(ObjectiveError):
            q.grad(x)


# -- the compiled objective against the per-coupling loop ---------------------


def _loop_value(q, x):
    """Reference: the objective summed coupling by coupling."""
    val = 0.0
    for i in range(q.m):
        val += 0.5 * x[i] @ q.diag[i] @ x[i] + q.lin[i] @ x[i]
    for (i, j), B in q.pair.items():
        val += x[i] @ B @ x[j]
    for w, H in q.hyper.items():
        xs = np.concatenate([x[i] for i in w])
        val += xs @ H @ xs
    return float(val)


def _loop_grad(q, x):
    """Reference: the gradient added coupling by coupling, in dict order."""
    d = q.d
    g = np.einsum("ikl,il->ik", q.diag, x) + q.lin
    for (i, j), B in q.pair.items():
        g[i] += B @ x[j]
        g[j] += B.T @ x[i]
    for w, H in q.hyper.items():
        xs = np.concatenate([x[i] for i in w])
        gw = 2.0 * (H @ xs)
        for t, i in enumerate(w):
            g[i] += gw[t * d:(t + 1) * d]
    return g


def _loop_assemble(q):
    """Reference: the dense Hessian filled block by block, in dict order."""
    d = q.d
    H = np.zeros((q.m * d, q.m * d))
    for i in range(q.m):
        H[i * d:(i + 1) * d, i * d:(i + 1) * d] += q.diag[i]
    for (i, j), B in q.pair.items():
        H[i * d:(i + 1) * d, j * d:(j + 1) * d] += B
        H[j * d:(j + 1) * d, i * d:(i + 1) * d] += B.T
    for w, Hw in q.hyper.items():
        idx = np.concatenate([np.arange(i * d, (i + 1) * d) for i in w])
        H[np.ix_(idx, idx)] += 2.0 * Hw
    return H


@st.composite
def quadratic_objectives(draw):
    """Random objectives, d in 1..3: pairs only, factors of mixed arity
    (1..4) only, or both; couplings in random dict order, factors overlap."""
    m = draw(st.integers(min_value=2, max_value=9))
    d = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["pairs", "hyper", "both"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    diag = rng.standard_normal((m, d, d))
    diag = diag + np.transpose(diag, (0, 2, 1))
    pair, hyper = {}, {}
    if kind != "hyper":
        cand = [(i, j) for i in range(m) for j in range(i + 1, m)]
        for t in rng.permutation(len(cand))[:rng.integers(1, len(cand) + 1)]:
            pair[cand[t]] = rng.standard_normal((d, d))
    if kind != "pairs":
        for _ in range(rng.integers(1, 2 * m)):
            k = int(rng.integers(1, min(4, m) + 1))
            w = tuple(sorted(rng.choice(m, size=k, replace=False).tolist()))
            A = rng.standard_normal((k * d, k * d))
            hyper[w] = A + A.T
    return QuadraticObjective(m, d, diag, rng.standard_normal((m, d)), pair, hyper)


@given(quadratic_objectives(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_compiled_objective_equals_per_coupling_loop(q, seed):
    rng = np.random.default_rng(seed)
    assert np.array_equal(q.assemble()[0], _loop_assemble(q))
    for _ in range(3):
        x = rng.standard_normal((q.m, q.d))
        assert np.array_equal(q.grad(x), _loop_grad(q, x))
        ref = _loop_value(q, x)
        # floating-point scale of the sum: every term taken in absolute value
        H, b = _loop_assemble(q), q.lin.reshape(-1)
        xa = np.abs(x.reshape(-1))
        scale = 0.5 * xa @ np.abs(H) @ xa + np.abs(b) @ xa
        assert abs(q.value(x) - ref) <= 1e-13 * scale


@given(quadratic_objectives(), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(build_random_qp(generate_topology("ring", m=9), 1, 30.0, 1), 20, 1)
@example(build_random_qp(Graph(9, {(i, i + 1) for i in range(8)}), 1, 30.0, 1), 20, 1)
@settings(max_examples=150, deadline=None)
def test_grad_of_a_stack_is_the_stacked_grads(q, K, seed):
    """grad on a (K, m, d) stack holds the single-iterate gradients, bit for
    bit, as a C-contiguous stack; flat (md,) iterates are the unbatched
    case. Entries span 1e-100 to 1e100 with signed zeros among them. The
    d = 1 ring and path examples take the pairwise slot sum without and
    with a padded slot."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((K, q.m, q.d)) * 10.0 ** rng.uniform(-100, 100, (K, q.m, q.d))
    zeros = rng.random(xs.shape) < 0.2
    xs[zeros] = rng.choice([0.0, -0.0], np.count_nonzero(zeros))
    with np.errstate(all="ignore"):
        got = q.grad(xs)
        expected = np.stack([q.grad(x) for x in xs])
        flat = np.stack([q.grad(x.reshape(-1)) for x in xs])
    assert got.shape == expected.shape == (K, q.m, q.d) and got.flags.c_contiguous
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(flat.view(np.int64), expected.view(np.int64))


@given(quadratic_objectives(), st.integers(min_value=1, max_value=20),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_grad_of_a_unit_scale_stack_is_the_stacked_grads(q, K, seed):
    """As above with entries of unit magnitude, where the products' FMA
    rounding shows: the tiled node term and, at d = 2, the regrouped pair
    products give every iterate of a (K, m, d) stack, K = 1 included, the
    bits of its own gradient and of the per-coupling loop."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, (K, q.m, q.d))
    got = q.grad(xs)
    expected = np.stack([q.grad(x) for x in xs])
    loop = np.stack([_loop_grad(q, x) for x in xs])
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(expected.view(np.int64), loop.view(np.int64))


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 70), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_d2_node_term_of_a_stack_equals_einsum_bitwise(seed, m, K, special):
    """At d = 2 the node term of a (K, m, 2) stack comes from the column
    planes of ``diag`` with the bits of every iterate's own
    ``np.einsum("ikl,il->ik", diag, x)``, NaN payloads included: finite
    blocks of unit magnitude with signed zeros, subnormals and +-1e308;
    iterates whose entries are, with probability ``special`` each, NaNs
    of both signs and random payloads, +-inf, signed zeros or 1e308, so
    products overflow and sum to NaN; K m of every residue mod 8. A
    ``diag`` with a NaN keeps the tiled einsum, whose NaNs match by
    position."""
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-1.0, 1.0, (m, 2, 2))
    mask = rng.random(diag.shape) < 0.2
    diag[mask] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308], np.count_nonzero(mask))
    xs = rng.uniform(-1.0, 1.0, (K, m, 2))
    mask = rng.random(xs.shape) < special
    xs[mask] = rng.choice([np.inf, -np.inf, 0.0, -0.0, 1e308], np.count_nonzero(mask))
    mask = rng.random(xs.shape) < special
    bits = (rng.integers(0, 2 ** 51, np.count_nonzero(mask), dtype=np.uint64)
            | np.uint64(0x7FF8 << 48)
            | rng.integers(0, 2, np.count_nonzero(mask), dtype=np.uint64) << np.uint64(63))
    xs[mask] = bits.view(float)
    q = QuadraticObjective(m, 2, diag, np.zeros((m, 2)))
    with np.errstate(all="ignore"):
        got = q._node_term(xs)
        expected = np.stack([np.einsum("ikl,il->ik", diag, x) for x in xs])
    assert got.shape == expected.shape == (K, m, 2)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    q.diag[rng.integers(m), rng.integers(2), rng.integers(2)] = np.nan
    with np.errstate(all="ignore"):
        got = q._node_term(xs)
        expected = np.stack([np.einsum("ikl,il->ik", q.diag, x) for x in xs])
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    finite = ~np.isnan(expected)
    assert np.array_equal(got[finite].view(np.int64), expected[finite].view(np.int64))


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_scalar_grad_of_a_stack_with_nans_is_the_stacked_grads(seed, m, K):
    """d = 1 with NaNs of both signs in the pair blocks, ``diag`` and the
    iterates, next to signed zeros and infinities: a (K, m, 1) stack's
    gradient has NaNs where the single-iterate gradients have them and
    their bits everywhere else. Where a NaN block meets a NaN iterate the
    product may keep either NaN (numpy's multiply takes its operands in
    one order in its vector loop and in the other in its scalar tail), so
    the NaNs' signs are not compared."""
    rng = np.random.default_rng(seed)
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -0.75])
    cand = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pair = {cand[t]: rng.choice(values, (1, 1))
            for t in rng.permutation(len(cand))[:rng.integers(1, len(cand) + 1)]}
    q = QuadraticObjective(m, 1, rng.choice(values, (m, 1, 1)), rng.choice(values, (m, 1)),
                           pair)
    xs = rng.choice(values, (K, m, 1))
    with np.errstate(invalid="ignore"):
        got = q.grad(xs)
        expected = np.stack([q.grad(x) for x in xs])
    _same_bits_but_nan_signs(got, expected, exact=False)


def test_couplings_are_frozen():
    q = random_qp(seed=6)
    e = q.edges[0]
    with pytest.raises(TypeError):
        q.pair[e] = 2.0 * q.pair[e]
    with pytest.raises(ValueError):
        q.pair[e] *= 2.0
    qh = build_atc([QuadraticLocal(np.eye(1), np.ones(1)) for _ in range(3)],
                   metropolis_weights(Graph(3, {(0, 1), (1, 2)})))
    with pytest.raises(TypeError):
        qh.hyper[(0, 1, 2)] = np.zeros((3, 3))
    # the stacks are what the solvers read: the views cannot drift from them
    assert all(np.shares_memory(B, q.pair_blocks) for B in q.pair.values())


def test_couplings_stack_oriented_blocks():
    q = random_qp(seed=7, m=6)
    rows, cols = [0, 1, 5, 2], [1, 0, 0, 3]
    got = q.couplings(rows, cols)
    assert np.array_equal(got, np.array([q.coupling(i, j) for i, j in zip(rows, cols)]))
    with pytest.raises(ObjectiveError):
        q.couplings([0], [2])


def test_malformed_coupling_keys_are_typed():
    d1 = np.ones((3, 1, 1)), np.zeros((3, 1))
    for pair, hyper in [({(0, 3): np.eye(1)}, {}), ({(-1, 2): np.eye(1)}, {}),
                        ({}, {(0, 0): np.eye(2)}), ({}, {(1, 3): np.eye(2)})]:
        with pytest.raises(ObjectiveError):
            QuadraticObjective(3, 1, *d1, pair, hyper)


def _same_bits_but_nan_signs(got, want, exact):
    """got has want's shape and bits; where ``exact`` is false, a NaN of
    want may be any NaN in got."""
    assert got.shape == want.shape
    if exact:
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


_SCATTER_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan])


@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["none", "flat", "split", "pairs", "pairs_unpadded"]),
       st.integers(1, 20), st.integers(1, 7), st.integers(0, 16),
       st.sampled_from([(), (1,), (2,), (2, 3), (2, 2)]), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_row_scatter_equals_add_at(seed, layout, K, n, k, tail, with_start, nans):
    """Rows at axis len(lead): no batch axes, a stack of K (K >= 2 sums by
    the ordered gather over ``slots``, K = 1 by bincount) or a (2, K/2)
    stack. The pair layouts lay a stack's rows out (E, 2), as
    :class:`~mpjacobi.messages.PairProducts` makes its (K, E, 2, d) terms,
    with idx of shape (E, 2): C-contiguous, or strided with the stack axis
    innermost, as PairProducts' regrouped products are; ``pairs_unpadded``
    sends two rows to every node, so that no slot pads. Every batch entry
    equals ``np.add.at(0.0 + start, idx, vals)``,
    bit for bit: repeated destinations, nodes that receive nothing, -0.0
    starts, values of magnitudes 1e-8 to 1e8 (so that another order rounds
    otherwise), signed zeros and infinities. With NaNs of both signs among
    the values, a sum of two NaNs may keep either one (numpy's add loops
    and ``np.add.at`` order their operands differently), so NaNs are
    matched by position only."""
    rng = np.random.default_rng(seed)
    lead = {"none": (), "split": (2, K // 2) if K % 2 == 0 else (K, 1)}.get(layout, (K,))
    specials = _SCATTER_SPECIALS if nans else _SCATTER_SPECIALS[:4]

    def draw(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        special = rng.random(shape) < 0.2
        out[special] = rng.choice(specials, np.count_nonzero(special))
        return out

    if layout.startswith("pairs"):
        idx = (rng.permutation(np.repeat(np.arange(n), 2)) if layout == "pairs_unpadded"
               else rng.integers(0, n, 2 * (k // 2))).reshape(-1, 2)
        vals = draw(lead + idx.shape + tail)
        if rng.random() < 0.5:      # PairProducts' strides: (2, E, *tail, K) transposed
            axes = (2 + len(tail), 1, 0) + tuple(range(2, 2 + len(tail)))
            vals = np.ascontiguousarray(vals.transpose(np.argsort(axes))).transpose(axes)
    else:
        idx = rng.integers(0, n, k)
        vals = draw(lead + (k,) + tail)
    start = draw(lead + (n,) + tail) if with_start else None
    want = np.zeros(lead + (n,) + tail) if start is None else 0.0 + start
    scatter = RowScatter(idx, n)
    with np.errstate(invalid="ignore"):
        for b in np.ndindex(lead):
            np.add.at(want[b], idx.reshape(-1), vals[b].reshape((-1,) + tail))
        for _ in range(2):              # the second call reuses the flat indices
            got = scatter(vals, start=start, axis=len(lead))
            _same_bits_but_nan_signs(got, want, exact=not nans)


@given(st.integers(0, 2**32 - 1), st.integers(1, 7), st.integers(0, 16),
       st.sampled_from([(), (1,), (2,), (2, 2)]), st.booleans())
@settings(max_examples=100, deadline=None)
def test_started_sum_equals_row_sum_with_start(seed, n, k, tail, nans):
    """A compiled :class:`StartedSum` returns ``RowSum(vals, start)`` bit
    for bit, NaNs included (both are the same bincount), for a start given
    at compile time or rewritten in place between calls, and matches
    ``np.add.at(0.0 + start, idx, vals)`` as RowSum does; a sum without a
    start compiled by ``RowSum.compiled`` returns ``RowSum(vals)``."""
    rng = np.random.default_rng(seed)
    specials = _SCATTER_SPECIALS if nans else _SCATTER_SPECIALS[:4]

    def draw(shape):
        out = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        special = rng.random(shape) < 0.2
        out[special] = rng.choice(specials, np.count_nonzero(special))
        return out

    idx = rng.integers(0, n, k)
    rows = RowSum(idx, n)
    start = draw((n,) + tail)
    compiled = rows.with_start(start)
    with np.errstate(invalid="ignore"):
        for call in range(3):
            if call:                    # a new start, written in place
                start = draw((n,) + tail)
                compiled.start[...] = start
            vals = draw((k,) + tail)
            got = compiled.sums(vals)
            want = 0.0 + start
            np.add.at(want, idx, vals)
            _same_bits_but_nan_signs(got, rows(vals, start=start), exact=True)
            _same_bits_but_nan_signs(got, want, exact=not nans)
            _same_bits_but_nan_signs(rows.compiled(tail)(vals), rows(vals), exact=True)


def _loop_cta(prob, x):
    """Reference: CtaProblem value and grad with every local called node by
    node, as before the quadratic locals were stacked, and the gossip term
    added edge by edge: w_ij x_j at i for every edge, then w_ij x_i at j."""
    W, g = prob.gossip.W, prob.gamma
    val = sum(prob.locals_[i].value(x[i]) for i in range(prob.m))
    val += np.einsum("i,ik,ik->", (1.0 - np.diag(W)) / (2 * g), x, x)
    val -= np.einsum("e,ek,ek->", prob.edge_weights / g,
                     x[prob.edge_rows], x[prob.edge_cols])
    grad = np.stack([prob.locals_[i].grad(x[i]) for i in range(prob.m)])
    grad += ((1.0 - np.diag(W)) / g)[:, None] * x
    off = np.zeros_like(x)
    for i, j in zip(prob.edge_rows, prob.edge_cols):
        off[i] += W[i, j] * x[j]
    for i, j in zip(prob.edge_rows, prob.edge_cols):
        off[j] += W[i, j] * x[i]
    grad -= off / g
    return float(val), grad


@pytest.mark.parametrize("callable_local", [False, True])
def test_cta_stacked_locals_match_per_node_calls(callable_local):
    rng = np.random.default_rng(11)
    m, d = 7, 3
    W = metropolis_weights(generate_topology("ring", m=m), gamma=0.05)
    locs = []
    for _ in range(m):
        A = rng.standard_normal((d, d))
        locs.append(QuadraticLocal(A @ A.T + np.eye(d), rng.standard_normal(d)))
    if callable_local:              # one non-quadratic local: every node is called
        locs[3] = build_tanh_nn([(rng.standard_normal((4, d)), rng.standard_normal(4))])[0]
    prob = build_cta(locs, W, d=d)
    for _ in range(5):
        x = rng.standard_normal((m, d))
        val, grad = _loop_cta(prob, x)
        if callable_local:
            assert prob.value(x) == val and np.array_equal(prob.grad(x), grad)
        else:
            scale = sum(0.5 * np.abs(x[i]) @ np.abs(f.Q) @ np.abs(x[i])
                        + np.abs(f.c) @ np.abs(x[i]) for i, f in enumerate(locs))
            scale += np.abs(x).ravel() @ np.abs(x).ravel() / W.gamma
            assert abs(prob.value(x) - val) <= 1e-13 * scale
            assert np.max(np.abs(prob.grad(x) - grad)) <= 1e-13 * (
                1.0 + np.max(np.abs(grad)))


# -- the oracle's set-up: column-major H and the block certificate -----------


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@given(quadratic_objectives(), st.booleans(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_assemble_is_column_major_and_bit_equal_to_a_row_major_build(q, asymmetric, seed):
    """Against the row-major block-by-block build, bit for bit: pairwise,
    hyper and mixed problems, with asymmetric diagonal blocks or not; a
    fifth of the diagonal and pair entries are signed zeros."""
    rng = np.random.default_rng(seed)

    def signed_zeros(a):
        a = np.array(a)
        hit = rng.random(a.shape) < 0.2
        a[hit] = rng.choice([0.0, -0.0], np.count_nonzero(hit))
        return a

    diag = q.diag + rng.standard_normal(q.diag.shape) if asymmetric else q.diag
    q = QuadraticObjective(q.m, q.d, signed_zeros(diag), q.lin,
                           {e: signed_zeros(B) for e, B in q.pair.items()}, dict(q.hyper))
    H, b = q.assemble()
    assert H.flags.f_contiguous and H.shape == (q.m * q.d,) * 2
    assert np.array_equal(_bits(H), _bits(_loop_assemble(q)))
    assert np.array_equal(b, q.lin.reshape(-1))


def _dominant(q, margin):
    """q with its diagonal blocks shifted by t I, t the shift at which the
    widest Gershgorin disc of its Hessian reaches zero, plus ``margin``."""
    H = _loop_assemble(q)
    centre = np.diag(H)
    radius = np.abs(H).sum(axis=1) - np.abs(centre)
    t = float(np.max(radius - centre)) + margin
    return QuadraticObjective(q.m, q.d, q.diag + t * np.eye(q.d), q.lin,
                              dict(q.pair), dict(q.hyper))


@given(quadratic_objectives(), st.floats(min_value=-16.0, max_value=2.0),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=150, deadline=None)
def test_block_certificate_implies_the_eigenvalue_test(q, exponent, sign):
    """Problems shifted to within 1e-16 to 100 times their scale of the
    Gershgorin threshold, on either side (hyper problems need the wide
    margins: the certificate bounds overlapping factors one by one). Where
    the block certificate holds, the eigenvalue test
    it stands in for passes and the oracle's x* is LAPACK's solve of
    H x = -b, bit for bit; on pairwise problems it holds from a margin of
    1e-9 of the scale on."""
    scale = max(float(np.abs(_loop_assemble(q)).max()), 1.0)
    margin = sign * 10.0 ** exponent * scale
    q = _dominant(q, margin)
    H, b = q.assemble()
    certified = _gershgorin_certified(q)
    if certified:
        vals = np.linalg.eigvalsh(H)
        assert vals[0] > 1e-12 * max(abs(vals[-1]), 1.0)
        x, _ = global_solve_oracle(q)
        assert np.array_equal(_bits(x.reshape(-1)), _bits(np.linalg.solve(H, -b)))
    if not q.hyper and margin >= 1e-9 * math.sqrt(2.0) * np.linalg.norm(H):
        assert certified


@pytest.mark.parametrize("blocks, factor, certified", [
    ("diag", 0.5, False), ("diag", 0.99, False), ("diag", 1.01, True), ("diag", 2.0, True),
    ("hyper", 0.99, False), ("hyper", 100.0, True)])
def test_block_certificate_threshold_is_the_cholesky_shift(blocks, factor, certified):
    """On a diagonal H, whose smallest Gershgorin disc is its smallest
    eigenvalue, the block certificate holds exactly from the oracle's
    shift s = (1e-12 + 5 n^2 u) sqrt(2) ||H||_F on when H
    is held by diagonal blocks. Held by one-node factors, its norm bound
    is looser, so it holds only further out, and never below s."""
    n = 40
    lam = np.random.default_rng(0).uniform(0.1, 1.0, n)
    lam[-1] = 1.0
    lam[0] = 0.0
    norm = math.sqrt(2.0) * np.linalg.norm(lam)
    lam[0] = factor * (1e-12 + 5.0 * n * n * 2.0 ** -53) * norm
    if blocks == "diag":
        q = QuadraticObjective(n, 1, lam.reshape(n, 1, 1), np.ones((n, 1)))
    else:
        q = QuadraticObjective(n, 1, np.zeros((n, 1, 1)), np.ones((n, 1)), {},
                               {(i,): np.array([[0.5 * v]]) for i, v in enumerate(lam)})
    assert np.array_equal(np.diag(q.assemble()[0]), lam)
    assert _gershgorin_certified(q) is certified


def _dominant_ring(d=2, seed=0):
    """A diagonally dominant ring problem whose blocks are exactly symmetric."""
    rng = np.random.default_rng(seed)
    m = 6
    A = rng.standard_normal((m, d, d))
    pair = {tuple(sorted((i, (i + 1) % m))): 0.3 * rng.standard_normal((d, d))
            for i in range(m)}
    return QuadraticObjective(m, d, 10.0 * np.eye(d) + A + np.transpose(A, (0, 2, 1)),
                              rng.standard_normal((m, d)), pair)


def _with(q, diag=None, pair=None, hyper=None):
    return QuadraticObjective(q.m, q.d, q.diag if diag is None else diag, q.lin,
                              {**q.pair, **(pair or {})}, {**q.hyper, **(hyper or {})})


def _refused_cases():
    q = _dominant_ring()
    asym = q.diag.copy()
    asym[2, 0, 1] = np.nextafter(asym[2, 0, 1], np.inf)
    Hw = np.eye(3 * q.d)
    Hw_asym = Hw.copy()
    Hw_asym[0, 1] = 1e-13                    # within the constructor's 1e-12
    inf_diag, nan_pair = q.diag.copy(), np.full((q.d, q.d), np.nan)
    inf_diag[4, 1, 1] = np.inf
    one = np.ones((2, 2))
    return {
        "asymmetric_diagonal": _with(q, diag=asym),
        "asymmetric_hyper": _with(q, hyper={(1, 2, 4): Hw_asym}),
        # positive definite (eigenvalues 2.2, 0.4, 0.4), discs reach below 0
        "hyper_not_dominant": QuadraticObjective(
            3, 1, np.zeros((3, 1, 1)), np.ones((3, 1)), {},
            {(0, 1, 2): 0.4 * np.eye(3) + 0.6 * np.ones((3, 3))}),
        # H = diag(4, 4, 2), but the factors' off-diagonal entries cancel
        "hyper_cancelling": QuadraticObjective(
            3, 1, np.zeros((3, 1, 1)), np.ones((3, 1)), {},
            {(0, 1): one, (0, 1, 2): np.block([[2 * np.eye(2) - one, np.zeros((2, 1))],
                                               [np.zeros((1, 2)), np.ones((1, 1))]])}),
        "inf_diagonal": _with(q, diag=inf_diag),
        "nan_pair": _with(q, pair={(0, 1): nan_pair}),
        "inf_pair": _with(q, pair={(0, 1): np.full((q.d, q.d), np.inf)}),
        "empty": QuadraticObjective(0, 2, np.zeros((0, 2, 2)), np.zeros((0, 2))),
    }


def test_block_certificate_holds_where_the_refusals_do_not_apply():
    """The base problem of the refusals, its twin with an exactly symmetric
    hyper block, and a diagonally dominant ATC problem (all hyper) are
    certified."""
    q = _dominant_ring()
    assert _gershgorin_certified(q)
    assert _gershgorin_certified(_with(q, hyper={(1, 2, 4): np.eye(3 * q.d)}))
    g = generate_topology("ring", m=6)
    assert _gershgorin_certified(build_atc([QuadraticLocal(np.eye(2), np.ones(2))] * 6,
                                           metropolis_weights(g, 0.1)))


@pytest.mark.parametrize("name", sorted(_refused_cases()))
def test_block_certificate_refuses(name):
    """Refused: asymmetric diagonal or hyper blocks, hyper problems it
    cannot bound, non-finite entries and the empty matrix. A refused
    problem takes the eigenvalue path, which
    ``test_certified_oracle_equals_eigvalsh_gated_oracle`` covers."""
    assert not _gershgorin_certified(_refused_cases()[name])


def _z_matrix(q):
    """q with every off-diagonal entry of its blocks replaced by -|h|, so
    that every off-diagonal entry of its Hessian is a sum of nonpositive
    terms: H is its own comparison matrix, where weights can be tight."""
    def negated(A):
        return np.where(np.eye(A.shape[-1], dtype=bool), A, -np.abs(A))

    return QuadraticObjective(q.m, q.d, negated(q.diag), q.lin,
                              {e: -np.abs(B) for e, B in q.pair.items()},
                              {w: negated(A) for w, A in q.hyper.items()})


def _assert_certified_solve_is_sound(q):
    """Where the block certificate holds, the eigenvalue test it stands in
    for passes and the oracle's x* is LAPACK's solve of H x = -b, bit for
    bit. Returns whether it holds."""
    H, b = q.assemble()
    certified = _gershgorin_certified(q)
    if certified:
        vals = np.linalg.eigvalsh(H)
        assert vals[0] > 1e-12 * max(abs(vals[-1]), 1.0)
        x, _ = global_solve_oracle(q)
        assert np.array_equal(_bits(x.reshape(-1)), _bits(np.linalg.solve(H, -b)))
    return certified


@given(quadratic_objectives(), st.booleans(), st.floats(min_value=-16.0, max_value=0.0),
       st.sampled_from([-1.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_scaled_certificate_implies_the_eigenvalue_test(q, z_matrix, exponent, sign):
    """Random problems, or their Z-matrix twins, shifted so that
    lambda_min(H) is +-10^exponent times their scale: from far inside the
    threshold to far below it, where only rounding separates the scaled
    bound from lambda_min."""
    if z_matrix:
        q = _z_matrix(q)
    vals = np.linalg.eigvalsh(_loop_assemble(q))
    t = sign * 10.0 ** exponent * max(float(np.abs(vals).max()), 1.0) - vals[0]
    _assert_certified_solve_is_sound(QuadraticObjective(
        q.m, q.d, q.diag + t * np.eye(q.d), q.lin, dict(q.pair), dict(q.hyper)))


@given(st.sampled_from(["ring", "grid2d"]), st.integers(min_value=2, max_value=12),
       st.sampled_from([2.0, 10.0, 100.0]), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_scaled_certificate_on_random_rings_and_grids(kind, size, kappa, d, seed):
    """``build_random_qp`` problems: the plain bound certifies them at
    kappa = 2 and the scaled one about half at kappa = 10; at kappa = 100
    the eigenvalue test decides most."""
    g = (generate_topology("ring", m=size + 1) if kind == "ring"
         else generate_topology("grid2d", side=2 + size % 4))
    _assert_certified_solve_is_sound(build_random_qp(g, d, kappa, seed))


def test_scaled_steps_keep_the_rounding_slack():
    """On a diagonal H every weighting gives the bound of unit weights,
    c_t (1 - slack) against the shift s, so lambda_min = s (1 + slack / 2)
    is refused by the steps as by the plain bound, though it exceeds s."""
    n = 40
    lam = np.random.default_rng(0).uniform(0.1, 1.0, n)
    lam[0], lam[-1] = 0.0, 1.0
    slack = 16.0 * (n + 1) * 2.0 ** -53
    shift = (1e-12 + 5.0 * n * n * 2.0 ** -53) * math.sqrt(2.0) * np.linalg.norm(lam) * (1 + slack)
    for factor, certified in ((1.0 + 0.5 * slack, False), (1.0 + 4.0 * slack, True)):
        lam[0] = factor * shift
        assert _gershgorin_certified(
            QuadraticObjective(n, 1, lam.reshape(n, 1, 1), np.ones((n, 1)))) is certified


def test_ring_operator_is_certified_without_cholesky(monkeypatch):
    """The 128-ring at d = 2 and kappa = 10 that the ``ring_schur``
    benchmark solves is not diagonally dominant, and the scaled bound
    certifies it: the oracle solves it without an eigenvalue pass, to
    LAPACK's bits."""
    q = build_random_qp(generate_topology("ring", m=128), 2, 10.0, 0)
    H, b = q.assemble()
    want = np.linalg.solve(H, -b)
    with monkeypatch.context() as plain:
        plain.setattr(objective, "_SCALED_STEPS", 0)
        assert not _gershgorin_certified(q)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle took the eigenvalues of H")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    x, phi = global_solve_oracle(q)
    assert np.array_equal(_bits(x.reshape(-1)), _bits(want)) and phi == q.value(x)


# -- typed errors --------------------------------------------------------------


def _callable_locals(n=2):
    return [CallableLocal(lambda x: float(x @ x), lambda x: 2.0 * x)] * n


_Q2 = QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)))


@pytest.mark.parametrize("exc, make", [
    (ObjectiveError, lambda: _Q2.value(np.zeros(3))),
    (ObjectiveError, lambda: QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)),
                                                {(0, 1): np.zeros((2, 2))})),
    (ObjectiveError, lambda: QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)),
                                                {(1, 0): np.ones((1, 1))})),
    (ObjectiveError, lambda: QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)),
                                                hyper={(0, 1): np.zeros((3, 3))})),
    (ObjectiveError, lambda: QuadraticObjective(2, 1, np.ones((2, 1, 1)), np.zeros((2, 1)),
                                                hyper={(0, 1): np.array([[1.0, 1.0],
                                                                         [0.0, 1.0]])})),
    (NonStochasticW, lambda: GossipMatrix(np.full((2, 3), 0.5))),
    (NonStochasticW, lambda: GossipMatrix(np.array(1.0))),
    (NonStochasticW, lambda: GossipMatrix(np.eye(2), gamma=0.0)),
    (NotQuadratic, lambda: build_cta(_callable_locals(), GossipMatrix(np.eye(2)), d=1)
     .to_quadratic()),
    (ObjectiveError, lambda: build_cta(_callable_locals(), GossipMatrix(np.eye(2)))),
    (NotQuadratic, lambda: build_atc(_callable_locals(), GossipMatrix(np.eye(2)), d=1)),
    (ObjectiveError, lambda: build_laplacian_qp(np.array([[0.0, 1.0], [2.0, 0.0]]), np.zeros(2))),
    (ObjectiveError, lambda: build_laplacian_qp(-np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))),
    (ObjectiveError, lambda: build_laplacian_qp(np.zeros((2, 3)), np.zeros(2))),
    (ObjectiveError, lambda: build_laplacian_qp(np.zeros((2, 2)), np.zeros(3))),
    (ObjectiveError, lambda: build_laplacian_qp(np.array([[0.0, np.inf], [np.inf, 0.0]]),
                                                np.zeros(2))),
    (ObjectiveError, lambda: build_laplacian_qp(np.zeros((2, 2)), np.array([0.0, np.nan]))),
    (ObjectiveError, lambda: build_random_qp(generate_topology("ring", m=4), 1, 1.0, 0)),
    (ObjectiveError, lambda: build_random_qp(generate_topology("ring", m=4), 1, float("nan"), 0)),
    (ObjectiveError, lambda: problem_from_json('{"kind": "smooth"}')),
    (ObjectiveError, lambda: SmoothObjective(3, 1, [None] * 3, {(1, 0): None})),
    (ObjectiveError, lambda: SmoothObjective(3, 1, [None] * 3, {(0, 3): None})),
], ids=["block_shape", "pair_block_shape", "pair_key_order", "hyper_block_shape",
        "hyper_asymmetric", "gossip_not_square", "gossip_scalar", "gossip_gamma",
        "cta_not_quadratic", "cta_no_d", "atc_not_quadratic", "laplacian_asymmetric",
        "laplacian_negative", "laplacian_not_square", "laplacian_b_length",
        "laplacian_inf_weight", "laplacian_nan_b", "random_qp_kappa", "random_qp_kappa_nan",
        "json_kind", "smooth_psi_key_order", "smooth_psi_key_node"])
def test_objective_raises_typed_errors(exc, make):
    """One row per raise of ``objective`` that no other test reaches, each
    with the smallest malformed input that reaches it; the exception is of
    that exact type."""
    with pytest.raises(Exception) as got:
        make()
    assert type(got.value) is exc
