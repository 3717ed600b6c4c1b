import numpy as np
import pytest

from mpjacobi.objective import QuadraticObjective, global_solve_oracle
from mpjacobi.splitting import (
    CyclicSplitCluster,
    SplitError,
    SplitMap,
    SplitQuadraticView,
    apply_split,
    build_split_surrogate,
    split_surrogate_components,
    validate_split_partition,
)
from mpjacobi.solvers import SolverConfig, h_mp_jacobi_split
from mpjacobi.topology import Hypergraph
from mpjacobi.verify import check_split_consistency


def toy_hypergraph():
    """V = {0..3}, factors {0,1,2} and {1,2,3} overlapping on {1, 2}."""
    return Hypergraph(4, [(0, 1, 2), (1, 2, 3)])


def toy_quadratic(seed=0, scale=0.15):
    rng = np.random.default_rng(seed)
    hg = toy_hypergraph()
    diag = np.stack([np.eye(1) * rng.uniform(3.0, 4.0) for _ in range(4)])
    lin = rng.standard_normal((4, 1))
    hyper = {}
    for w in hg.hyperedges:
        k = len(w)
        A = rng.standard_normal((k, k))
        hyper[w] = scale * (A + A.T)
    return hg, QuadraticObjective(4, 1, diag, lin, {}, hyper)


def test_identity_split_is_noop():
    hg = toy_hypergraph()
    split = apply_split(hg, SplitMap.identity())
    assert split.hypergraph.hyperedges == hg.hyperedges
    assert split.parent_of == (0, 1)


def test_pairwise_split_components():
    hg = toy_hypergraph()
    sm = SplitMap({1: ((1, 3), (1, 2), (2, 3))})
    split = apply_split(hg, sm)
    assert split.component_of == ((0, 1, 2), (1, 3), (1, 2), (2, 3))
    assert split.parent_of == (0, 1, 1, 1)


def test_singleton_split_count():
    hg = toy_hypergraph()
    sm = SplitMap({1: ((1,), (2,), (3,))})
    split = apply_split(hg, sm)
    assert len(split.component_of) == 1 + 3


def test_split_map_text_roundtrip():
    sm = SplitMap({1: ((1, 3), (1, 2), (2, 3))})
    assert SplitMap.parse(sm.format()).components == {1: ((1, 3), (1, 2), (2, 3))}


def _quadratic_psi(Hw):
    def val(z):
        return float(z @ Hw @ z)

    def grad(z):
        return 2.0 * (Hw @ z)

    return val, grad


@pytest.mark.parametrize("family,supports", [
    ("pairwise", [(1, 2), (1, 3), (2, 3)]),
    ("two_component", [(1, 2), (2, 3)]),
    ("singleton", [(1,), (2,), (3,)]),
])
def test_gradient_sum_identity(family, supports):
    rng = np.random.default_rng(1)
    d = 2
    parent = (1, 2, 3)
    A = rng.standard_normal((3 * d, 3 * d))
    Hw = 0.5 * (A + A.T)
    val, grad = _quadratic_psi(Hw)
    comps = build_split_surrogate(7, parent, supports, family)
    rep = check_split_consistency({7: comps}, {7: val}, {7: grad},
                                  {7: parent}, d, samples=50, seed=2)
    assert rep.passed, str(rep)


def test_singleton_split_bilinear_hand_gradient():
    # psi(x2, x3) = x2 x3 (d = 1): component gradients at consistent refs
    Hw = np.array([[0.0, 0.5], [0.5, 0.0]])   # <H z, z> = x2 x3
    val, grad = _quadratic_psi(Hw)
    comps = build_split_surrogate(0, (2, 3), [(2,), (3,)], "singleton")
    x = {2: np.array([1.3]), 3: np.array([-0.4])}
    g2 = sum(c.grad(grad, {n: x[n] for n in c.support}, x, 2)
             for c in comps if 2 in c.support)
    g3 = sum(c.grad(grad, {n: x[n] for n in c.support}, x, 3)
             for c in comps if 3 in c.support)
    assert g2[0] == pytest.approx(x[3][0])
    assert g3[0] == pytest.approx(x[2][0])


def test_zero_factor_gives_zero_components():
    comps = build_split_surrogate(0, (0, 1, 2), [(0, 1), (0, 2), (1, 2)],
                                  "pairwise")
    val, grad = _quadratic_psi(np.zeros((3, 3)))
    x = {i: np.zeros(1) for i in (0, 1, 2)}
    for c in comps:
        assert c.value(val, {n: x[n] for n in c.support}, x) == 0.0


def test_corrupted_weights_fail_consistency():
    rng = np.random.default_rng(3)
    parent = (0, 1, 2)
    A = rng.standard_normal((3, 3))
    Hw = 0.5 * (A + A.T)
    val, grad = _quadratic_psi(Hw)
    comps = build_split_surrogate(0, parent, [(0, 1), (0, 2), (1, 2)],
                                  "custom",
                                  custom_primitives=[
                                      [(0.6, (0, 1))],
                                      [(0.5, (0, 2))],
                                      [(0.5, (1, 2))]])
    rep = check_split_consistency({0: comps}, {0: val}, {0: grad},
                                  {0: parent}, 1, samples=20, seed=4)
    assert not rep.passed
    assert rep.worst_violation > 1e-3


def test_validate_split_partition_tree_vs_cycle():
    hg = toy_hypergraph()
    sm = SplitMap({1: ((1, 3), (1, 2), (2, 3))})
    split = apply_split(hg, sm)
    # keep parent factor 0 and component {1,3}: tree
    part = validate_split_partition(split, [[0, 1, 2, 3]], [[0, 1]])
    assert part.intra_factors[0] == (0, 1)
    # keeping {1,2} alongside the parent closes a cycle
    with pytest.raises(CyclicSplitCluster):
        validate_split_partition(split, [[0, 1, 2, 3]], [[0, 2]])
    # empty intra set is fine (singleton-style)
    ok = validate_split_partition(split, [[0, 1, 2, 3]], [[]])
    assert ok.intra_factors[0] == ()


def test_split_view_value_matches_reassembly():
    """Identity-family components reproduce the objective exactly."""
    hg, q = toy_quadratic(seed=5)
    split = apply_split(hg, SplitMap.identity())
    comps = split_surrogate_components(split, {})
    view = SplitQuadraticView(q, split, comps)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal((4, 1))
        assert view.split_value(x, x) == pytest.approx(q.value(x), rel=1e-12)


def test_split_solver_identity_equals_plain():
    from mpjacobi.solvers import h_mp_jacobi
    from mpjacobi.topology import validate_hyper_partition

    hg, q = toy_quadratic(seed=7)
    hpart = validate_hyper_partition(hg, [[0, 1, 2], [3]])
    split = apply_split(hg, SplitMap.identity())
    comps = split_surrogate_components(split, {})
    view = SplitQuadraticView(q, split, comps)
    spart = validate_split_partition(split, [[0, 1, 2], [3]],
                                     [[0], []])
    x0 = np.random.default_rng(8).standard_normal((4, 1))
    cfg = SolverConfig(tau=0.4, max_rounds=25, tol_x=0.0)
    ta = h_mp_jacobi_split(q, view, spart, cfg, x0=x0)
    tb = h_mp_jacobi(q, hpart, cfg, x0=x0)
    assert np.array_equal(ta.x_final, tb.x_final)


@pytest.mark.parametrize("family,supports,keep", [
    ("pairwise", ((1, 3), (1, 2), (2, 3)), 1),      # keep {1,3}
    ("singleton", ((1,), (2,), (3,)), 1),
    ("two_component", ((1, 2), (2, 3)), 2),         # keep {2,3}
])
def test_split_solver_reaches_stationary_point(family, supports, keep):
    hg, q = toy_quadratic(seed=9, scale=0.12)
    sm = SplitMap({1: supports})
    split = apply_split(hg, sm)
    comps = split_surrogate_components(split, {1: family})
    view = SplitQuadraticView(q, split, comps)
    intra = [[0, keep], []]
    spart = validate_split_partition(split, [[0, 1, 2, 3]], [[0, keep]])
    cfg = SolverConfig(tau=0.45, max_rounds=4000, tol_x=0.0, tol_grad=1e-9)
    tr = h_mp_jacobi_split(q, view, spart, cfg)
    assert tr.converged
    g0 = np.linalg.norm(q.grad(np.zeros((4, 1))))
    assert np.linalg.norm(q.grad(tr.x_final)) <= 1e-8 * (1 + g0)
    xs, _ = global_solve_oracle(q)
    assert np.max(np.abs(tr.x_final - xs)) <= 1e-6


def _identity_split_run_inputs(q, hg):
    split = apply_split(hg, SplitMap.identity())
    view = SplitQuadraticView(q, split, split_surrogate_components(split, {}))
    return view, validate_split_partition(split, [[0, 1, 2], [3]], [[0], []])


def test_split_solver_rejects_partition_of_another_split():
    from mpjacobi.solvers import PartitionMismatch

    hg, q = toy_quadratic(seed=7)
    view, _ = _identity_split_run_inputs(q, hg)
    other = apply_split(hg, SplitMap({1: ((1, 3), (1, 2), (2, 3))}))
    spart = validate_split_partition(other, [[0, 1, 2, 3]], [[0, 1]])
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi_split(q, view, spart, SolverConfig(max_rounds=5))


def test_split_solver_rejects_pairwise_couplings():
    from mpjacobi.solvers import PartitionMismatch

    hg, q = toy_quadratic(seed=7)
    view, spart = _identity_split_run_inputs(q, hg)
    mixed = QuadraticObjective(4, 1, q.diag, q.lin, {(0, 3): np.eye(1)}, q.hyper)
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi_split(mixed, view, spart, SolverConfig(max_rounds=5))


def test_split_solver_rejects_factors_outside_the_original():
    from mpjacobi.solvers import PartitionMismatch

    hg, q = toy_quadratic(seed=7)
    view, spart = _identity_split_run_inputs(q, hg)
    extra = QuadraticObjective(4, 1, q.diag, q.lin, {},
                               {**q.hyper, (0, 3): 0.1 * np.eye(2)})
    with pytest.raises(PartitionMismatch):
        h_mp_jacobi_split(extra, view, spart, SolverConfig(max_rounds=5))
