import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpjacobi.splitting import CyclicSplitCluster, SplitMap, apply_split, validate_split_partition
from mpjacobi.topology import (
    DisconnectedQuery,
    Graph,
    Hypergraph,
    IncompatiblePartition,
    InvalidParams,
    NonOverlapWarning,
    NonTreeCluster,
    NotAPartition,
    TopologyError,
    generate_partition,
    generate_topology,
    minimal_external_cover,
    read_graph,
    read_partition_clusters,
    validate_hyper_partition,
    validate_tree_partition,
    write_graph,
    write_partition,
)


def ring(m):
    return generate_topology("ring", m=m)


def test_path_whole_tree():
    g = Graph(3, {(0, 1), (1, 2)})
    part = validate_tree_partition(g, [[0, 1, 2]])
    assert part.p == 1
    assert part.max_diameter == 2
    assert part.external_cover == frozenset()


def test_triangle_rejected():
    g = Graph(3, {(0, 1), (1, 2), (0, 2)})
    with pytest.raises(NonTreeCluster):
        validate_tree_partition(g, [[0, 1, 2]])


def test_ring6_neighborhoods():
    g = ring(6)
    part = validate_tree_partition(g, [[0, 1, 2], [3], [4], [5]])
    assert part.max_diameter == 2
    assert part.cluster_ext[0] == frozenset({3, 5})
    # J must be the singleton clusters holding nodes 3 and 5
    named = {part.clusters[r] for r in part.external_cover}
    assert named == {(3,), (5,)}


def test_not_a_partition():
    g = ring(4)
    with pytest.raises(NotAPartition):
        validate_tree_partition(g, [[0, 1], [1, 2, 3]])
    with pytest.raises(NotAPartition):
        validate_tree_partition(g, [[0, 1], [2]])


def test_cover_all_singletons_empty():
    g = ring(5)
    part = generate_partition("all_singletons", g)
    assert minimal_external_cover(part) == frozenset()


def test_cover_ring_p2_is_all_clusters():
    g = ring(8)
    part = generate_partition("ring_P2", g, D=1)
    assert part.p == 4
    assert part.external_cover == frozenset(range(4))


def test_cover_matches_exhaustive_small():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(4, 13))
        g = ring(m)
        # random contiguous chunks
        cuts = sorted(rng.choice(np.arange(1, m), size=min(3, m - 1), replace=False))
        bounds = [0] + list(cuts) + [m]
        clusters = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        part = validate_tree_partition(g, clusters)
        J = minimal_external_cover(part)
        universe = set()
        for r, c in enumerate(part.clusters):
            if len(c) > 1:
                universe |= part.cluster_ext[r]
        # exhaustive minimum cover over all subsets
        best = None
        for mask in range(1 << part.p):
            chosen = [r for r in range(part.p) if mask >> r & 1]
            cov = set().union(*[set(part.clusters[r]) for r in chosen]) if chosen else set()
            if universe <= cov and (best is None or len(chosen) < best[0]):
                best = (len(chosen), frozenset(chosen))
        assert len(J) == (best[0] if best else 0)
        if best:
            assert J == best[1]


def test_nonoverlap_warning():
    # external node adjacent to two nodes of one cluster: ring of 4,
    # cluster {0,1,2} leaves node 3 adjacent to both 0 and 2
    g = ring(4)
    with pytest.warns(NonOverlapWarning):
        part = validate_tree_partition(g, [[0, 1, 2], [3]])
    assert not part.nonoverlap_ok


def test_tree_partition_edge_union_and_sizes():
    g = generate_topology("grid2d", side=3)
    part = generate_partition("grid_rows", g, D=1)
    assert sum(len(c) for c in part.clusters) == g.m
    union = set().union(*part.intra_edges)
    assert union <= g.edges
    assert part.p == 9 - 1 * 3


@pytest.mark.filterwarnings("ignore::mpjacobi.topology.NonOverlapWarning")
@given(st.integers(min_value=4, max_value=24), st.integers(min_value=1, max_value=5))
@settings(max_examples=30, deadline=None)
def test_ring_p1_p2_counts(m, D):
    g = ring(m)
    if D <= m - 2:
        p1 = generate_partition("ring_P1", g, D=D)
        assert p1.p == m - D
        assert p1.diameters[0] == D
    if m % (D + 1) == 0 and D + 1 < m:
        p2 = generate_partition("ring_P2", g, D=D)
        assert p2.p == m // (D + 1)
        assert all(dd == D for dd in p2.diameters)


def test_intra_distance_vs_bfs():
    g = ring(9)
    part = generate_partition("ring_P1", g, D=4)
    c = part.clusters[0]
    for i in c:
        for j in c:
            assert part.d(i, j) == abs(i - j)
            assert part.d(i, j) <= part.diameters[0] <= len(c) - 1


def test_generate_topology_shapes():
    g = ring(4)
    assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}
    grid = generate_topology("grid2d", side=3)
    assert grid.m == 9 and len(grid.edges) == 12
    hyper = generate_topology("hyper_ring", n_edges=5, edge_size=5)
    assert hyper.m == 20 and len(hyper.hyperedges) == 5
    for a in range(5):
        w1 = set(hyper.hyperedges[a])
        w2 = set(hyper.hyperedges[(a + 1) % 5])
        assert len(w1 & w2) == 1
    db = generate_topology("dumbbell", clique=7, path=3)
    assert db.m == 17
    assert db.degree(0) == 6


def test_hypertree_acceptance():
    # a hyper ring of 3 closes a loop, so one cluster over all of it is no tree
    ring3 = Hypergraph(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    with pytest.raises(NonTreeCluster):
        validate_hyper_partition(ring3, [list(range(6))])
    chain = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    part = validate_hyper_partition(chain, [list(range(5))])
    assert part.intra_factors == ((0, 1),) and part.d(0, 4) == 2


def test_hyper_partition_validation():
    hg = Hypergraph(6, [(0, 1, 2), (2, 3, 4)])
    part = validate_hyper_partition(hg, [[0, 1, 2, 3, 4], [5]])
    assert part.p == 2
    assert part.intra_factors[0] == (0, 1)
    assert part.d(0, 4) == 2
    assert part.max_delay == part.diameters[0] // 2
    with pytest.raises(NonTreeCluster):
        bad = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        validate_hyper_partition(bad, [[0, 1, 2, 3]])


def test_hyper_partition_distance_queries():
    hg = Hypergraph(6, [(0, 1, 2), (2, 3, 4)])
    part = validate_hyper_partition(hg, [[0, 1, 2, 3, 4], [5]])
    assert part.d(4, 0) == 2 and part.d(3, 3) == 0
    with pytest.raises(TopologyError):
        part.d(0, 5)
    split = validate_hyper_partition(hg, [[0, 1, 2, 3, 4], [5]],
                                     intra_factors=[[0], []])
    assert split.diameters[0] == 2
    with pytest.raises(DisconnectedQuery):
        split.d(0, 3)


def test_hyper_partition_explicit_factors_skips_maximality():
    bad = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
    part = validate_hyper_partition(bad, [[0, 1, 2, 3]], intra_factors=[[0]])
    assert part.intra_factors[0] == (0,)
    assert part.factor_cluster[1] == -1


def test_text_roundtrip():
    g = ring(5)
    assert read_graph(write_graph(g)).edges == g.edges
    hg = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
    assert read_graph(write_graph(hg)).hyperedges == hg.hyperedges
    part = generate_partition("ring_P1", g, D=2)
    assert read_partition_clusters(write_partition(part)) == [list(c) for c in part.clusters]


def test_incompatible_partition_errors():
    g = ring(9)
    with pytest.raises(IncompatiblePartition):
        generate_partition("ring_P2", g, D=1)   # 2 does not divide 9
    with pytest.raises(IncompatiblePartition):
        generate_partition("grid_rows", ring(10), D=1)  # not a perfect square


# ---------------------------------------------------------------------------
# property tests: validators against brute-force references


def _floyd(nodes, edges):
    """All-pairs hop counts on the graph (nodes, edges); inf when apart."""
    inf = float("inf")
    dist = {(u, v): 0 if u == v else inf for u in nodes for v in nodes}
    for (a, b) in edges:
        dist[(a, b)] = dist[(b, a)] = 1
    for k in nodes:
        for u in nodes:
            for v in nodes:
                if dist[(u, k)] + dist[(k, v)] < dist[(u, v)]:
                    dist[(u, v)] = dist[(u, k)] + dist[(k, v)]
    return dist


def _first_closing_edge(edges):
    """First edge in sorted order whose ends the earlier edges already join."""
    done = []
    for (a, b) in sorted(edges):
        nodes = {a, b} | {u for e in done for u in e}
        if _floyd(sorted(nodes), done)[(a, b)] < float("inf"):
            return (a, b)
        done.append((a, b))
    return None


@st.composite
def tree_partition_cases(draw):
    """A random tree plus random extra edges, and a random clustering: either
    random labels or the components left after cutting random tree edges."""
    m = draw(st.integers(min_value=1, max_value=11))
    perm = draw(st.permutations(range(m)))
    tree = [(perm[i], perm[draw(st.integers(min_value=0, max_value=i - 1))])
            for i in range(1, m)]
    extra = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                          max_size=4))
    edges = {(min(a, b), max(a, b)) for (a, b) in tree + extra if a != b}
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    else:
        keep = [e for e in tree if not draw(st.booleans())]
        dist = _floyd(list(range(m)), keep)
        labels = [min(v for v in range(m) if dist[(u, v)] < float("inf"))
                  for u in range(m)]
    clusters = [[i for i in range(m) if labels[i] == r] for r in sorted(set(labels))]
    if draw(st.booleans()):
        clusters.reverse()
    return Graph(m, edges), clusters


@given(tree_partition_cases())
@settings(max_examples=150, deadline=None)
def test_tree_partition_matches_brute_force(case):
    g, clusters = case
    adj = {u: {v for e in g.edges for v in e if u in e and v != u} for u in range(g.m)}
    induced = [{e for e in g.edges if e[0] in c and e[1] in c} for c in clusters]
    dists = [_floyd(c, es) for c, es in zip(clusters, induced)]
    is_tree = [len(es) == len(c) - 1 and max(dd.values()) < float("inf")
               for c, es, dd in zip(clusters, induced, dists)]
    if not all(is_tree):
        r = is_tree.index(False)
        with pytest.raises(NonTreeCluster) as info:
            validate_tree_partition(g, clusters, warn_nonoverlap=False)
        assert info.value.cluster_index == r
        closing = _first_closing_edge(induced[r])
        if len(induced[r]) > len(clusters[r]) - 1:
            assert info.value.cycle_edge is not None
        if info.value.cycle_edge is not None:
            assert info.value.cycle_edge == closing
        return

    part = validate_tree_partition(g, clusters, warn_nonoverlap=False)
    assert part.clusters == tuple(tuple(sorted(c)) for c in clusters)
    cluster_of = {i: r for r, c in enumerate(clusters) for i in c}
    assert part.cluster_of == tuple(cluster_of[i] for i in range(g.m))
    assert part.intra_edges == tuple(frozenset(es) for es in induced)
    assert part.intra_pairs.tolist() == [list(e) for es in induced for e in sorted(es)]
    assert part.intra_pairs.shape == (g.m - len(clusters), 2)
    assert part.node_cluster.tolist() == list(part.cluster_of)
    assert not (part.intra_pairs.flags.writeable or part.node_cluster.flags.writeable)
    for i in range(g.m):
        c = set(clusters[cluster_of[i]])
        assert part.n_in[i] == adj[i] & c
        assert part.n_out[i] == adj[i] - c
    ext = [{k for i in c for k in adj[i] if k not in c} for c in clusters]
    assert part.cluster_ext == tuple(frozenset(e) for e in ext)
    assert part.diameters == tuple(max(dd.values()) for dd in dists)
    covered = {k for c, e in zip(clusters, ext) if len(c) > 1 for k in e}
    assert part.external_cover == {cluster_of[k] for k in covered}
    overlap = any(len(adj[k] & set(c)) > 1 for c, e in zip(clusters, ext) for k in e)
    assert part.nonoverlap_ok == (not overlap)
    for c, dd in zip(clusters, dists):
        for i in c:
            for j in c:
                assert part.d(i, j) == dd[(i, j)]
    if len(clusters) > 1:
        with pytest.raises(TopologyError):
            part.d(clusters[0][0], clusters[1][0])


def _per_cluster_sort_reference(graph, clusters):
    """Reference: the tree check and ``intra_pairs`` by per-cluster sorts.
    Each cluster's edges are sorted and run through a union-find; the first
    cluster whose sorted edges close a cycle, or whose count is not |c| - 1,
    raises NonTreeCluster(r, first closing edge or None). Otherwise the
    sorted lists, chained cluster by cluster, are the pairs."""
    cl = [sorted(set(c)) for c in clusters]
    cluster_of = {i: r for r, c in enumerate(cl) for i in c}
    ordered = [sorted(e for e in graph.edges
                      if cluster_of[e[0]] == r == cluster_of[e[1]]) for r in range(len(cl))]
    for r, (c, edges) in enumerate(zip(cl, ordered)):
        parent, cyc = {}, None

        def find(u):
            while parent.setdefault(u, u) != u:
                u = parent[u]
            return u

        for a, b in edges:
            if find(a) == find(b):
                cyc = (a, b)
                break
            parent[find(a)] = find(b)
        if cyc is not None or len(edges) != len(c) - 1:
            raise NonTreeCluster(r, cyc)
    return np.array([e for edges in ordered for e in edges], dtype=int).reshape(-1, 2)


def _assert_tree_check_equals_reference(g, clusters):
    try:
        want = _per_cluster_sort_reference(g, clusters)
    except NonTreeCluster as exc:
        with pytest.raises(NonTreeCluster) as got:
            validate_tree_partition(g, clusters, warn_nonoverlap=False)
        assert (got.value.cluster_index, got.value.cycle_edge, str(got.value)) == (
            exc.cluster_index, exc.cycle_edge, str(exc))
        return
    pairs = validate_tree_partition(g, clusters, warn_nonoverlap=False).intra_pairs
    assert pairs.dtype == want.dtype and np.array_equal(pairs, want)


@given(tree_partition_cases())
@settings(max_examples=200, deadline=None)
def test_tree_check_and_intra_pairs_equal_the_per_cluster_sorts(case):
    """The connectivity test and the one array sort give the reference's
    verdict, NonTreeCluster (index, cycle edge and message) and
    ``intra_pairs`` exactly."""
    _assert_tree_check_equals_reference(*case)


@pytest.mark.parametrize("g, clusters", [
    (ring(128), [list(range(i, i + 4)) for i in range(0, 128, 4)]),
    (Graph(605, [(i, i + 1) for i in range(604)]), [list(range(601)), [601], [602], [603], [604]]),
    (generate_topology("grid2d", side=6), [list(range(36))]),
    (generate_topology("grid2d", side=6), [list(range(i, i + 6)) for i in range(0, 36, 6)]),
    (Graph(5, [(0, 1), (1, 2), (0, 2), (3, 4)]), [[4], [0, 1, 2, 3]]),
    (Graph(5, [(0, 1), (2, 3), (3, 4)]), [[0, 1, 2, 3], [4]]),
], ids=["ring_P2", "long_path", "grid_one_cluster", "grid_rows", "cycle_and_isolated_node",
        "forest"])
def test_tree_check_equals_the_per_cluster_sorts_at_size(g, clusters):
    _assert_tree_check_equals_reference(g, clusters)


def _hyper_reference(m, factors, clusters, intra):
    """Intra/inter incidences, acyclicity, diameters and variable distances of
    each cluster's factor graph, from all-pairs hop counts."""
    cluster_of = {i: r for r, c in enumerate(clusters) for i in c}
    factor_cluster = [-1] * len(factors)
    for r, lst in enumerate(intra):
        for a in lst:
            factor_cluster[a] = r
    n_in = tuple(tuple(a for a, w in enumerate(factors)
                       if i in w and factor_cluster[a] == cluster_of[i])
                 for i in range(m))
    n_out = tuple(tuple(a for a, w in enumerate(factors)
                        if i in w and factor_cluster[a] != cluster_of[i])
                  for i in range(m))
    acyclic, diameters, dists = [], [], []
    for c, lst in zip(clusters, intra):
        nodes = [("v", i) for i in c] + [("f", a) for a in lst]
        inc = [(("v", i), ("f", a)) for a in lst for i in factors[a]]
        dist = _floyd(nodes, inc)
        comps = len({frozenset(v for v in nodes if dist[(u, v)] < float("inf"))
                     for u in nodes})
        acyclic.append(len(inc) == len(nodes) - comps)
        diameters.append(max(val for (u, _), val in dist.items()
                             if u[0] == "v" and val < float("inf")))
        dists.append(dist)
    return factor_cluster, n_in, n_out, acyclic, diameters, dists


def _check_hyper_partition(part, clusters, intra, ref):
    factor_cluster, n_in, n_out, _, diameters, dists = ref
    assert part.clusters == tuple(tuple(sorted(c)) for c in clusters)
    assert part.intra_factors == tuple(tuple(lst) for lst in intra)
    assert part.factor_cluster == tuple(factor_cluster)
    assert part.n_in == n_in
    assert part.n_out == n_out
    assert part.diameters == tuple(diameters)
    for c, dist in zip(clusters, dists):
        for i in c:
            for j in c:
                if dist[(("v", i), ("v", j))] < float("inf"):
                    assert part.d(i, j) == dist[(("v", i), ("v", j))] // 2


@st.composite
def hypergraph_cases(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    raw = draw(st.lists(st.sets(st.integers(0, m - 1), min_size=2, max_size=min(4, m)),
                        min_size=1, max_size=6))
    factors = list(dict.fromkeys(tuple(sorted(w)) for w in raw))
    labels = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    clusters = [[i for i in range(m) if labels[i] == r] for r in sorted(set(labels))]
    return m, factors, clusters


@given(hypergraph_cases())
@settings(max_examples=150, deadline=None)
def test_hyper_partition_matches_brute_force(case):
    m, factors, clusters = case
    hg = Hypergraph(m, factors)
    intra = [[a for a, w in enumerate(factors) if set(w) <= set(c)] for c in clusters]
    ref = _hyper_reference(m, factors, clusters, intra)
    if not all(ref[3]):
        with pytest.raises(NonTreeCluster) as info:
            validate_hyper_partition(hg, clusters)
        assert info.value.cluster_index == ref[3].index(False)
        return
    _check_hyper_partition(validate_hyper_partition(hg, clusters), clusters, intra, ref)


@given(hypergraph_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_split_partition_matches_brute_force(case, data):
    m, factors, clusters = case
    hg = Hypergraph(m, factors)
    components = {}
    for a, w in enumerate(factors):
        if data.draw(st.booleans()):
            subsets = data.draw(st.lists(st.sets(st.sampled_from(w), min_size=1),
                                         min_size=1, max_size=3))
            components[a] = tuple(dict.fromkeys(tuple(sorted(s)) for s in subsets))
    split = apply_split(hg, SplitMap(components))
    supports = split.hypergraph.hyperedges
    intra = []
    for c in clusters:
        inside = [a for a, s in enumerate(supports) if set(s) <= set(c)]
        intra.append(sorted(data.draw(st.sets(st.sampled_from(inside))) if inside else []))
    ref = _hyper_reference(m, supports, clusters, intra)
    if not all(ref[3]):
        with pytest.raises(CyclicSplitCluster):
            validate_split_partition(split, clusters, intra)
        return
    _check_hyper_partition(validate_split_partition(split, clusters, intra),
                           clusters, intra, ref)


_HG = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])


@pytest.mark.parametrize("exc, make", [
    (TopologyError, lambda: Graph(3, [(1, 1)])),
    (TopologyError, lambda: Graph(0, [])),
    (TopologyError, lambda: Graph(3, [(0, 3)])),
    (DisconnectedQuery, lambda: Graph(3, [(0, 1)]).diameter()),
    (TopologyError, lambda: Hypergraph(0, [])),
    (TopologyError, lambda: Hypergraph(3, [(1, 1)])),
    (TopologyError, lambda: Hypergraph(3, [(0, 3)])),
    (TopologyError, lambda: Hypergraph(3, [(0, 1, 2), (2, 1, 0)])),
    (IncompatiblePartition, lambda: validate_hyper_partition(_HG, [[0, 1, 2, 3, 4]],
                                                             intra_factors=[[0], [1]])),
    (IncompatiblePartition, lambda: validate_hyper_partition(_HG, [[0, 1, 2], [3, 4]],
                                                             intra_factors=[[0, 1], []])),
    (IncompatiblePartition, lambda: validate_hyper_partition(_HG, [[0, 1, 2, 3, 4]],
                                                             intra_factors=[[-1]])),
    (IncompatiblePartition, lambda: validate_hyper_partition(_HG, [[0, 1, 2, 3, 4]],
                                                             intra_factors=[[2]])),
    (InvalidParams, lambda: generate_topology("ring", m=2)),
    (InvalidParams, lambda: generate_topology("grid2d", side=1)),
    (InvalidParams, lambda: generate_topology("grid2d")),
    (InvalidParams, lambda: generate_topology("dumbbell", clique=1, path=2)),
    (InvalidParams, lambda: generate_topology("hyper_ring", n_edges=1, edge_size=3)),
    (InvalidParams, lambda: generate_topology("star", m=5)),
    (IncompatiblePartition, lambda: generate_partition("ring_P1", ring(5), D=4)),
    (IncompatiblePartition, lambda: generate_partition("ring_P2", ring(5), D=-1)),
    (IncompatiblePartition, lambda: generate_partition(
        "grid_rows", generate_topology("grid2d", side=3), D=3)),
    (IncompatiblePartition, lambda: generate_partition("stars", ring(5))),
    (TopologyError, lambda: read_graph("n 3\n0 1\n")),
], ids=["self_loop", "graph_no_nodes", "edge_out_of_range", "diameter_disconnected",
        "hypergraph_no_nodes", "hyperedge_one_node", "hyperedge_out_of_range",
        "duplicate_hyperedge", "intra_lists_per_cluster", "factor_outside_cluster",
        "factor_index_negative", "factor_index_too_large",
        "ring_too_small", "grid_too_small", "grid_no_side", "dumbbell_params",
        "hyper_ring_params", "unknown_topology", "ring_P1_D", "ring_P2_negative_D", "grid_rows_D",
        "unknown_partition", "read_graph_header"])
def test_topology_raises_typed_errors(exc, make):
    """One row per raise of ``topology`` that no other test reaches, each
    with a small malformed input, and two for the factor index check; the
    exception is of that exact type. A factor index outside 0..n-1 used to
    pick a factor from the end (negative) or raise IndexError."""
    with pytest.raises(Exception) as got:
        make()
    assert type(got.value) is exc
