"""Graphs, hypergraphs, factor graphs and tree/hypertree partitions.

Node ids are dense 0-based integers. Cluster ids follow input order.
Intra-cluster edge/factor sets are always derived from the clusters
(edge-maximality), never user-supplied.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class TopologyError(ValueError):
    pass


class NotAPartition(TopologyError):
    pass


class NonTreeCluster(TopologyError):
    def __init__(self, cluster_index, cycle_edge=None):
        self.cluster_index = cluster_index
        self.cycle_edge = cycle_edge
        msg = f"cluster {cluster_index} does not induce a tree"
        if cycle_edge is not None:
            msg += f" (cycle closed by edge {cycle_edge})"
        super().__init__(msg)


class DisconnectedQuery(TopologyError):
    pass


class InvalidParams(TopologyError):
    pass


class IncompatiblePartition(TopologyError):
    pass


class NonOverlapWarning(UserWarning):
    """Single-gateway condition violated; rate bookkeeping may be loose."""


def _normalize_edge(i, j):
    if i == j:
        raise TopologyError(f"self-loop at node {i}")
    return (i, j) if i < j else (j, i)


def _bfs(src, nbrs):
    """Hop counts from src to every node it reaches; nbrs(u) lists u's
    neighbours."""
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        du = dist[u] + 1
        for v in nbrs(u):
            if v not in dist:
                dist[v] = du
                q.append(v)
    return dist


def _first_cycle_edge(edges):
    """The first edge, in the given order, that closes a cycle (union-find
    over the edges before it), or None when the edges form a forest."""
    parent = {}

    def find(u):
        while parent.setdefault(u, u) != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for (a, b) in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return (a, b)
        parent[ra] = rb
    return None


def _max_eccentricity(sources, nbrs):
    """Largest hop count from any source to any node of its component, on a
    forest. Per component: BFS to a far end a, BFS from a to the far end b;
    on a tree every node's eccentricity is max(d(v, a), d(v, b)).
    """
    ecc = {}
    for s in sources:
        if s in ecc:
            continue
        from_s = _bfs(s, nbrs)
        from_a = _bfs(max(from_s, key=from_s.get), nbrs)
        from_b = _bfs(max(from_a, key=from_a.get), nbrs)
        for v, da in from_a.items():
            ecc[v] = max(da, from_b[v])
    return max((ecc[s] for s in sources), default=0)


def _tree_diameter(nodes, nbrs):
    """Diameter of the tree on ``nodes`` by two BFS (a far end of any node
    ends a longest path); None if the first BFS misses a node."""
    from_s = _bfs(nodes[0], nbrs)
    if len(from_s) == len(nodes):
        return max(_bfs(max(from_s, key=from_s.get), nbrs).values())


def _incidence_nbrs(var_factors, factors):
    """Neighbours in a variable/factor incidence graph whose nodes are
    ('v', i) and ('f', a): variable i touches the factors var_factors[i],
    factor a the variables factors[a]."""

    def nbrs(node):
        kind, u = node
        if kind == "v":
            return [("f", a) for a in var_factors[u]]
        return [("v", i) for i in factors[u]]

    return nbrs


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..m-1."""

    node_count: int
    edges: frozenset

    def __init__(self, node_count, edges):
        if node_count <= 0:
            raise TopologyError("node_count must be positive")
        norm = set()
        for (i, j) in edges:
            e = _normalize_edge(int(i), int(j))
            if not (0 <= e[0] < node_count and 0 <= e[1] < node_count):
                raise TopologyError(f"edge {e} out of range")
            norm.add(e)
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def m(self):
        return self.node_count

    def adjacency(self):
        adj = getattr(self, "_adj", None)
        if adj is None:
            adj = [set() for _ in range(self.m)]
            for (i, j) in self.edges:
                adj[i].add(j)
                adj[j].add(i)
            adj = [frozenset(s) for s in adj]
            object.__setattr__(self, "_adj", adj)
        return adj

    def bfs_dist(self, src):
        """Hop counts from src to every node; -1 where unreachable."""
        dist = [-1] * self.m
        for v, h in _bfs(src, self.adjacency().__getitem__).items():
            dist[v] = h
        return dist

    def diameter(self):
        best = 0
        for s in range(self.m):
            d = self.bfs_dist(s)
            if any(x < 0 for x in d):
                raise DisconnectedQuery("diameter of a disconnected graph")
            best = max(best, max(d))
        return best

    def degree(self, i):
        return len(self.adjacency()[i])


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph with hyperedges of size >= 2; |w|=2 is the pairwise case."""

    node_count: int
    hyperedges: tuple

    def __init__(self, node_count, hyperedges):
        if node_count <= 0:
            raise TopologyError("node_count must be positive")
        seen = set()
        norm = []
        for w in hyperedges:
            t = tuple(sorted(set(int(i) for i in w)))
            if len(t) < 2:
                raise TopologyError(f"hyperedge {w} has fewer than 2 nodes")
            if not all(0 <= i < node_count for i in t):
                raise TopologyError(f"hyperedge {t} out of range")
            if t in seen:
                raise TopologyError(f"duplicate hyperedge {t}")
            seen.add(t)
            norm.append(t)
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "hyperedges", tuple(norm))

    @property
    def m(self):
        return self.node_count


def _int_array(values, count):
    """The ``count`` ints of ``values`` as a read-only array."""
    out = np.fromiter(values, dtype=int, count=count)
    out.flags.writeable = False
    return out


def _check_clusters(m, clusters):
    """Sorted clusters and the node -> cluster map of a partition of 0..m-1."""
    cl = [tuple(sorted(set(int(i) for i in c))) for c in clusters]
    flat = [i for c in cl for i in c]
    if len(flat) != len(set(flat)) or set(flat) != set(range(m)):
        raise NotAPartition("clusters must be disjoint and cover all nodes")
    cluster_of = [0] * m
    for r, c in enumerate(cl):
        for i in c:
            cluster_of[i] = r
    return cl, cluster_of


@dataclass
class TreePartition:
    """Tree-cluster partition of a graph with all derived quantities.

    Fields follow the validated construction in :func:`validate_tree_partition`;
    construct through that function rather than directly. ``intra_pairs``
    (m - p, 2) lists the intra edges (i, j), i < j, cluster by cluster and
    sorted within each; ``node_cluster`` is ``cluster_of``. Both are
    read-only int arrays.
    """

    graph: Graph
    clusters: tuple                 # tuple of tuples of node ids
    intra_edges: tuple              # per-cluster frozenset of edges
    intra_pairs: np.ndarray = field(compare=False, repr=False)
    cluster_of: tuple               # node -> cluster index
    node_cluster: np.ndarray = field(compare=False, repr=False)
    diameters: tuple                # D_r per cluster
    n_in: tuple                     # node -> frozenset of in-cluster neighbors
    n_out: tuple                    # node -> frozenset of out-of-cluster neighbors
    cluster_ext: tuple              # N_{C_r}: frozenset of external neighbor nodes
    external_cover: frozenset       # J: cluster indices covering all ext neighborhoods
    nonoverlap_ok: bool
    nonoverlap_violations: tuple = field(default_factory=tuple)

    @property
    def p(self):
        return len(self.clusters)

    @property
    def max_diameter(self):
        return max(self.diameters) if self.diameters else 0

    def distances_from(self, i):
        """Tree distances from i to every node of its cluster (one BFS)."""
        return _bfs(i, self.n_in.__getitem__)

    def d(self, i, j):
        """Intra-cluster tree distance; i and j must share a cluster."""
        if self.cluster_of[j] != self.cluster_of[i]:
            raise TopologyError(f"{i} and {j} are in different clusters")
        return self.distances_from(i)[j]

    def gateway(self, r, k):
        """The boundary node(s) of cluster r adjacent to external node k."""
        return sorted(j for j in self.graph.adjacency()[k] if self.cluster_of[j] == r)


def validate_tree_partition(graph, clusters, warn_nonoverlap=True):
    """Validate clusters and derive the full TreePartition in O(m + |E|)
    (plus one sort of the intra edges).

    Raises NotAPartition / NonTreeCluster on structural failures; the
    single-gateway condition is only a warning (the surrogate machinery
    stays valid without it).
    """
    cl, cluster_of = _check_clusters(graph.m, clusters)
    intra = [set() for _ in cl]
    for e in graph.edges:
        r = cluster_of[e[0]]
        if cluster_of[e[1]] == r:
            intra[r].add(e)
    intra = [frozenset(edges) for edges in intra]

    adj = graph.adjacency()
    csets = [set(c) for c in cl]
    n_in = [None] * graph.m
    n_out = [None] * graph.m
    for i in range(graph.m):
        cset = csets[cluster_of[i]]
        n_in[i] = frozenset(adj[i] & cset)
        n_out[i] = frozenset(adj[i] - cset)

    diameters = [_tree_diameter(c, n_in.__getitem__) if len(intra[r]) == len(c) - 1 else None
                 for r, c in enumerate(cl)]
    if None in diameters:
        r = diameters.index(None)
        raise NonTreeCluster(r, _first_cycle_edge(sorted(intra[r])))
    node_cluster = _int_array(cluster_of, graph.m)
    pairs = np.fromiter(chain.from_iterable(chain.from_iterable(intra)), int).reshape(-1, 2)
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0], node_cluster[pairs[:, 0]]))]
    pairs.flags.writeable = False
    cluster_ext = [frozenset().union(*[n_out[i] for i in c]) for c in cl]

    violations = [(k, r) for r, cset in enumerate(csets) for k in cluster_ext[r]
                  if len(adj[k] & cset) > 1]
    nonoverlap_ok = not violations
    if violations and warn_nonoverlap:
        warnings.warn(
            f"external nodes touching a cluster at more than one gateway: {violations[:5]}",
            NonOverlapWarning,
            stacklevel=2,
        )

    part = TreePartition(
        graph=graph,
        clusters=tuple(cl),
        intra_edges=tuple(intra),
        intra_pairs=pairs,
        cluster_of=tuple(cluster_of),
        node_cluster=node_cluster,
        diameters=tuple(diameters),
        n_in=tuple(n_in),
        n_out=tuple(n_out),
        cluster_ext=tuple(cluster_ext),
        external_cover=frozenset(),
        nonoverlap_ok=nonoverlap_ok,
        nonoverlap_violations=tuple(violations),
    )
    part.external_cover = minimal_external_cover(part)
    return part


def minimal_external_cover(partition):
    """Minimal cluster index set J whose clusters cover all external
    neighborhoods of non-singleton clusters.

    Clusters are disjoint, so each node of the union is covered by exactly
    one cluster and the minimal cover is unique (lowest-index tie-breaking
    is therefore vacuous).
    """
    universe = set()
    for r, c in enumerate(partition.clusters):
        if len(c) > 1:
            universe |= partition.cluster_ext[r]
    return frozenset(partition.cluster_of[k] for k in universe)


@dataclass
class HyperPartition:
    """Hypertree-cluster partition of a hypergraph (factor-graph view).

    Factors are indexed by their position in ``hypergraph.hyperedges``; for
    a split partition the hypergraph is the split one, whose factors are
    the labeled components (see ``splitting.apply_split``).
    """

    hypergraph: Hypergraph
    clusters: tuple
    cluster_of: tuple
    node_cluster: np.ndarray = field(compare=False, repr=False)   # cluster_of, read-only
    intra_factors: tuple        # per-cluster tuple of factor indices
    factor_cluster: tuple       # factor index -> cluster index or -1 (inter-cluster)
    n_in: tuple                 # node -> tuple of intra factor indices
    n_out: tuple                # node -> tuple of inter factor indices
    diameters: tuple            # D_r = diam(F_r) per cluster (factor-graph hops)

    @property
    def p(self):
        return len(self.clusters)

    @property
    def max_delay(self):
        """Bound on delays: max_r diam(F_r)/2."""
        return max((d // 2 for d in self.diameters), default=0)

    def d(self, i, j):
        """d(i, j): half the hop count between variables i and j on their
        cluster's factor forest."""
        if self.cluster_of[j] != self.cluster_of[i]:
            raise TopologyError(f"{i} and {j} are in different clusters")
        nbrs = _incidence_nbrs(self.n_in, self.hypergraph.hyperedges)
        dist = _bfs(("v", i), nbrs).get(("v", j))
        if dist is None:
            raise DisconnectedQuery(f"{i} and {j} share no factor tree")
        return dist // 2


def validate_hyper_partition(hypergraph, clusters, intra_factors=None):
    """Validate a hypertree partition.

    With ``intra_factors=None`` the intra sets are derived maximally
    (every factor fully inside a cluster is intra). Passing explicit
    per-cluster factor index lists disables maximality (the split-cluster
    case), but each chosen factor must be a factor index, 0 <= a < n, and
    still sit inside its cluster. Each induced factor graph must be acyclic
    (forest; singleton-style clusters with no factors are fine).
    """
    cl, cluster_of = _check_clusters(hypergraph.m, clusters)
    factors = hypergraph.hyperedges
    if intra_factors is None:
        intra = [[] for _ in cl]
        for a, w in enumerate(factors):
            rs = {cluster_of[i] for i in w}
            if len(rs) == 1:
                intra[next(iter(rs))].append(a)
    else:
        if len(intra_factors) != len(cl):
            raise IncompatiblePartition("one intra factor list per cluster required")
        intra = [sorted(set(int(a) for a in lst)) for lst in intra_factors]
        for r, lst in enumerate(intra):
            for a in lst:
                if not (0 <= a < len(factors) and set(factors[a]) <= set(cl[r])):
                    raise IncompatiblePartition(
                        f"factor {a} not contained in cluster {r}")

    # the clusters are disjoint, so no factor lies inside two of them
    factor_cluster = [-1] * len(factors)
    for r, lst in enumerate(intra):
        for a in lst:
            factor_cluster[a] = r

    n_in = [[] for _ in range(hypergraph.m)]
    n_out = [[] for _ in range(hypergraph.m)]
    for a, w in enumerate(factors):
        for i in w:
            if factor_cluster[a] == cluster_of[i]:
                n_in[i].append(a)
            else:
                n_out[i].append(a)

    nbrs = _incidence_nbrs(n_in, factors)
    diameters = []
    for r, c in enumerate(cl):
        inc = [(("v", i), ("f", a)) for a in intra[r] for i in factors[a]]
        if _first_cycle_edge(inc) is not None:
            raise NonTreeCluster(r)
        diameters.append(_max_eccentricity([("v", i) for i in c], nbrs))

    return HyperPartition(
        hypergraph=hypergraph,
        clusters=tuple(cl),
        cluster_of=tuple(cluster_of),
        node_cluster=_int_array(cluster_of, hypergraph.m),
        intra_factors=tuple(tuple(lst) for lst in intra),
        factor_cluster=tuple(factor_cluster),
        n_in=tuple(tuple(lst) for lst in n_in),
        n_out=tuple(tuple(lst) for lst in n_out),
        diameters=tuple(diameters),
    )


# ---------------------------------------------------------------------------
# deterministic topology / partition families


def generate_topology(kind, **params):
    """Deterministic test topologies.

    kinds: ring(m), grid2d(side), dumbbell(clique, path) /
    two_cliques_path(clique, path), hyper_ring(n_edges, edge_size).
    """
    def param(name):
        if name not in params:
            raise InvalidParams(f"{kind} needs the parameter {name!r}")
        return int(params[name])

    if kind == "ring":
        m = param("m")
        if m < 3:
            raise InvalidParams("ring needs m >= 3")
        return Graph(m, {(i, (i + 1) % m) for i in range(m)})
    if kind == "grid2d":
        s = param("side")
        if s < 2:
            raise InvalidParams("grid2d needs side >= 2")
        edges = set()
        for r in range(s):
            for c in range(s):
                u = r * s + c
                if c + 1 < s:
                    edges.add((u, u + 1))
                if r + 1 < s:
                    edges.add((u, u + s))
        return Graph(s * s, edges)
    if kind in ("dumbbell", "two_cliques_path"):
        k = int(params.get("clique", 7))
        path = param("path")
        if k < 2 or path < 1:
            raise InvalidParams("need clique >= 2 and path >= 1")
        # nodes: clique A = 0..k-1, path = k..k+path-1, clique B = k+path..k+path+k-1
        edges = set()
        for i in range(k):
            for j in range(i + 1, k):
                edges.add((i, j))
                edges.add((k + path + i, k + path + j))
        chain = [k - 1] + list(range(k, k + path)) + [k + path]
        for a, b in zip(chain, chain[1:]):
            edges.add(_normalize_edge(a, b))
        return Graph(2 * k + path, edges)
    if kind == "hyper_ring":
        ne, sz = param("n_edges"), param("edge_size")
        if ne < 2 or sz < 2:
            raise InvalidParams("need n_edges >= 2 and edge_size >= 2")
        m = ne * (sz - 1)
        hyperedges = []
        for k in range(ne):
            start = k * (sz - 1)
            hyperedges.append(tuple((start + t) % m for t in range(sz)))
        return Hypergraph(m, hyperedges)
    raise InvalidParams(f"unknown topology kind {kind!r}")


def generate_partition(kind, graph, D=None, clusters=None):
    """Parametric partition families used throughout the benchmarks."""
    m = graph.m
    if kind == "all_singletons":
        return validate_tree_partition(graph, [[i] for i in range(m)])
    if kind == "whole_tree":
        return validate_tree_partition(graph, [list(range(m))])
    if kind == "ring_P1":
        if D is None or not (1 <= D <= m - 2):
            raise IncompatiblePartition("ring_P1 needs 1 <= D <= m-2")
        cl = [list(range(D + 1))] + [[i] for i in range(D + 1, m)]
        return validate_tree_partition(graph, cl)
    if kind == "ring_P2":
        if D is None or D < 0 or m % (D + 1) != 0:
            raise IncompatiblePartition("ring_P2 needs D >= 0 and (D+1) | m")
        step = D + 1
        cl = [list(range(r * step, (r + 1) * step)) for r in range(m // step)]
        return validate_tree_partition(graph, cl)
    if kind == "grid_rows":
        s = int(round(m ** 0.5))
        if s * s != m:
            raise IncompatiblePartition("grid_rows needs a perfect square m")
        if D is None or not (1 <= D <= s - 1):
            raise IncompatiblePartition("grid_rows needs 1 <= D <= sqrt(m)-1")
        cl = [list(range(r * s, r * s + D + 1)) for r in range(s)]
        taken = {i for c in cl for i in c}
        cl += [[i] for i in range(m) if i not in taken]
        return validate_tree_partition(graph, cl)
    if kind == "custom":
        return validate_tree_partition(graph, clusters)
    raise IncompatiblePartition(f"unknown partition kind {kind!r}")


# ---------------------------------------------------------------------------
# text formats


def write_graph(g):
    """Text format: header 'm <int>', one line per (hyper)edge."""
    lines = [f"m {g.m}"]
    if isinstance(g, Graph):
        for (i, j) in sorted(g.edges):
            lines.append(f"{i} {j}")
    else:
        for w in g.hyperedges:
            lines.append(" ".join(str(i) for i in w))
    return "\n".join(lines) + "\n"


def read_graph(text):
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "m":
        raise TopologyError("expected header 'm <int>'")
    m = int(head[1])
    rows = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
    if all(len(r) == 2 for r in rows):
        return Graph(m, set(rows))
    return Hypergraph(m, rows)


def write_partition(partition):
    return "\n".join(" ".join(str(i) for i in c) for c in partition.clusters) + "\n"


def read_partition_clusters(text):
    return [[int(t) for t in ln.split()] for ln in text.strip().splitlines() if ln.strip()]
