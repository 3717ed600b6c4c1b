import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjacobi.bench import split_toy_instance
from mpjacobi.objective import QuadraticObjective, global_solve_oracle
from mpjacobi.splitting import (
    CyclicSplitCluster,
    DuplicateComponentAcrossParents,
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


def parent_view(parent, Hw, supports, family, m=4, node_terms=False, seed=0,
                custom_primitives=None):
    """Compiled view of one parent factor <Hw z, z> on m nodes, split into
    ``supports`` under ``family``, with random node terms if ``node_terms``
    (else none)."""
    d = Hw.shape[0] // len(parent)
    rng = np.random.default_rng(seed)
    diag = np.zeros((m, d, d))
    lin = np.zeros((m, d))
    if node_terms:
        diag += np.eye(d) * rng.uniform(1.0, 2.0, (m, 1, 1))
        lin += rng.standard_normal((m, d))
    q = QuadraticObjective(m, d, diag, lin, {}, {tuple(parent): Hw})
    split = apply_split(Hypergraph(m, [parent]), SplitMap({0: tuple(supports)}))
    if family == "custom":
        comps = build_split_surrogate(0, parent, supports, "custom",
                                      custom_primitives=custom_primitives)
    else:
        comps = split_surrogate_components(split, {0: family})
    return SplitQuadraticView(q, split, comps)


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


@pytest.mark.parametrize("family,supports", [
    ("pairwise", [(1, 2), (1, 3), (2, 3)]),
    ("two_component", [(1, 2), (2, 3)]),
    ("singleton", [(1,), (2,), (3,)]),
])
def test_gradient_sum_identity(family, supports):
    rng = np.random.default_rng(1)
    d = 2
    A = rng.standard_normal((3 * d, 3 * d))
    view = parent_view((1, 2, 3), 0.5 * (A + A.T), supports, family,
                       node_terms=True)
    rep = check_split_consistency(view, samples=50, seed=2)
    assert rep.passed, str(rep)


def test_singleton_split_bilinear_hand_gradient():
    # psi(x2, x3) = x2 x3 (d = 1): component gradients at consistent refs
    Hw = np.array([[0.0, 0.5], [0.5, 0.0]])   # <H z, z> = x2 x3
    view = parent_view((2, 3), Hw, [(2,), (3,)], "singleton")
    x = np.array([[0.7], [2.1], [1.3], [-0.4]])
    g = view.grad(x)
    assert g[2, 0] == pytest.approx(x[3, 0])
    assert g[3, 0] == pytest.approx(x[2, 0])
    assert not np.any(g[:2])


def test_zero_factor_gives_zero_components():
    view = parent_view((0, 1, 2), np.zeros((3, 3)), [(0, 1), (0, 2), (1, 2)],
                       "pairwise", node_terms=True)
    assert not any(np.any(blk) for blk in view.blocks)
    assert not any(np.any(M) for _, _, _, M, _ in view.frozen)
    q = view.problem
    x = np.random.default_rng(0).standard_normal((4, 1))
    assert np.array_equal(view.grad(x), np.einsum("ikl,il->ik", q.diag, x) + q.lin)


def test_corrupted_weights_fail_consistency():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    view = parent_view((0, 1, 2), 0.5 * (A + A.T), [(0, 1), (0, 2), (1, 2)],
                       "custom", m=3, custom_primitives=[
                           [(0.6, (0, 1))],
                           [(0.5, (0, 2))],
                           [(0.5, (1, 2))]])
    rep = check_split_consistency(view, samples=20, seed=4)
    assert not rep.passed
    assert rep.worst_violation > 1e-3
    assert rep.witness["node"] in (0, 1)      # the nodes of the corrupted weight


def _family_supports(family, parent, rng):
    """Supports of a built-in ``family`` on ``parent``, in a random order."""
    k = len(parent)
    if family == "identity":
        return [parent]
    if family == "pairwise":
        out = [(parent[i], parent[j]) for i in range(k) for j in range(i + 1, k)]
    elif family == "singleton":
        out = [(i,) for i in parent]
    else:   # two covering supports perm[:b] and perm[a:], overlap perm[a:b]
        perm = [int(i) for i in rng.permutation(parent)]
        a, b = 0, k
        while (a, b) == (0, k):
            a, b = sorted(int(t) for t in rng.choice(k + 1, 2, replace=False))
        out = [tuple(sorted(perm[:b])), tuple(sorted(perm[a:]))]
    return [out[t] for t in rng.permutation(len(out))]


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 5), st.integers(1, 3),
       st.sampled_from(["identity", "pairwise", "two_component", "singleton"]))
@settings(max_examples=150, deadline=None)
def test_gradient_sum_identity_on_random_parents(seed, k, d, family):
    """Every built-in family meets the gradient-sum identity on a random
    parent with a random symmetric block, to 1e-12, and one perturbed
    custom weight breaks it."""
    rng = np.random.default_rng(seed)
    m = k + int(rng.integers(0, 3))
    parent = tuple(int(i) for i in sorted(rng.choice(m, k, replace=False)))
    A = rng.standard_normal((k * d, k * d))
    Hw = A + A.T
    supports = _family_supports(family, parent, rng)
    view = parent_view(parent, Hw, supports, family, m=m, node_terms=True, seed=seed)
    rep = check_split_consistency(view, samples=5, seed=seed, tol=1e-12)
    assert rep.passed, str(rep)
    prims = [list(comp.primitives) for comp in view.components]
    a = int(rng.integers(len(prims)))
    t = int(rng.integers(len(prims[a])))
    coef, active = prims[a][t]
    prims[a][t] = (coef + 0.25, active)
    bad = parent_view(parent, Hw, [comp.support for comp in view.components],
                      "custom", m=m, node_terms=True, seed=seed,
                      custom_primitives=prims)
    assert not check_split_consistency(bad, samples=5, seed=seed, tol=1e-12).passed


def _toy_split(components):
    return apply_split(toy_hypergraph(), SplitMap(components))


def _custom(primitives):
    return lambda: build_split_surrogate(0, (0, 1, 2), [(0, 1), (1, 2)], "custom",
                                         custom_primitives=primitives)


def _with_pair_coupling():
    hg, q = toy_quadratic()
    mixed = QuadraticObjective(4, 1, q.diag, q.lin, {(0, 3): np.eye(1)}, q.hyper)
    split = apply_split(hg, SplitMap.identity())
    return check_split_consistency(
        SplitQuadraticView(mixed, split, split_surrogate_components(split, {})))


# the smallest malformed input for each raise of the splitting module, and
# for the split check's own raise: (type, message fragment, call)
MALFORMED = {
    "split_map/outside_parent": (SplitError, "not inside parent",
                                 lambda: _toy_split({0: ((0, 3),)})),
    "split_map/duplicate": (DuplicateComponentAcrossParents, "listed twice",
                            lambda: _toy_split({0: ((0, 1), (1, 0))})),
    "split_map/unknown_parent": (SplitError, "split map key 5 names no parent",
                                 lambda: _toy_split({5: ((1, 2),)})),
    "family/unknown_parent": (SplitError, "family key 7 names no parent",
                              lambda: split_surrogate_components(
                                  _toy_split({}), {7: "pairwise"})),
    "identity/split_parent": (SplitError, r"parent 1 \(1, 2, 3\) .* no split family",
                              lambda: split_surrogate_components(apply_split(
                                  split_toy_instance(0)[0],
                                  SplitMap({1: ((1, 2), (2, 3))})), {})),
    "pairwise/supports": (SplitError, "all 2-subsets", lambda: build_split_surrogate(
        0, (0, 1, 2), [(0, 1)], "pairwise")),
    "singleton/supports": (SplitError, "one component per node",
                           lambda: build_split_surrogate(
                               0, (0, 1, 2), [(0,), (1,)], "singleton")),
    "two_component/count": (SplitError, "exactly two", lambda: build_split_surrogate(
        0, (0, 1, 2), [(0, 1, 2)], "two_component")),
    "two_component/cover": (SplitError, "cover", lambda: build_split_surrogate(
        0, (0, 1, 2), [(0, 1), (1,)], "two_component")),
    "two_component/overlap": (SplitError, "overlap", lambda: build_split_surrogate(
        0, (0, 1, 2), [(0, 1), (2,)], "two_component")),
    "custom/no_primitives": (SplitError, "one primitive list per support",
                             lambda: build_split_surrogate(
                                 0, (0, 1, 2), [(0, 1), (1, 2)], "custom")),
    "custom/leaves_support": (SplitError, "leaves its component's support",
                              _custom([[(1.0, (0, 1, 2))], [(0.0, (1, 2))]])),
    "custom/empty_active": (SplitError, r"primitive on \[\] is empty",
                            _custom([[(1.0, ())], [(1.0, (1, 2))]])),
    "family/unknown": (SplitError, "unknown split family", lambda: build_split_surrogate(
        0, (0, 1, 2), [(0, 1, 2)], "triples")),
    "view/not_quadratic": (SplitError, "needs a QuadraticObjective",
                           lambda: SplitQuadraticView(None, None, [])),
    "partition/cycle": (CyclicSplitCluster, "not induce a tree",
                        lambda: validate_split_partition(
                            _toy_split({1: ((1, 3), (1, 2), (2, 3))}),
                            [[0, 1, 2, 3]], [[0, 2]])),
    "consistency/pair_couplings": (SplitError, "pair couplings", _with_pair_coupling),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_split_input_raises_typed_error(case):
    error, message, call = MALFORMED[case]
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


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


def test_split_view_grad_matches_reassembly():
    """Identity-family components reproduce the objective's gradient."""
    hg, q = toy_quadratic(seed=5)
    split = apply_split(hg, SplitMap.identity())
    comps = split_surrogate_components(split, {})
    view = SplitQuadraticView(q, split, comps)
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.standard_normal((4, 1))
        assert np.allclose(view.grad(x), q.grad(x), rtol=1e-12, atol=1e-14)


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
