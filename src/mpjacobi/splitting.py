"""Hyperedge splitting: split maps, split hypergraphs, component surrogate
factors, and the structural checks the splitting solver relies on.

A split replaces a factor psi_w by lower-arity component factors whose
removed coordinates are frozen at reference values (the latest iterates in
the solver). Components are labeled by (parent index, component index), so
identical supports produced by different parents never collide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Hypergraph, NonTreeCluster, validate_hyper_partition
from .objective import QuadraticObjective


class SplitError(ValueError):
    pass


class DuplicateComponentAcrossParents(SplitError):
    pass


class CyclicSplitCluster(SplitError):
    pass


@dataclass(frozen=True)
class SplitMap:
    """Per-parent component supports. parent index -> tuple of supports.

    Parents not mentioned keep their identity component. Each component
    support must be a nonempty subset of its parent.
    """

    components: dict

    def supports_for(self, parent_idx, parent):
        if parent_idx not in self.components:
            return (tuple(parent),)
        out = []
        seen = set()
        for s in self.components[parent_idx]:
            t = tuple(sorted(set(int(i) for i in s)))
            if not t or not set(t) <= set(parent):
                raise SplitError(f"component {t} not inside parent {parent}")
            if t in seen:
                raise DuplicateComponentAcrossParents(
                    f"component {t} listed twice for parent {parent_idx}")
            seen.add(t)
            out.append(t)
        return tuple(out)

    @staticmethod
    def identity():
        return SplitMap({})

    @staticmethod
    def parse(text):
        """Lines 'parent_idx : i j ; i k ; ...'."""
        comp = {}
        for ln in text.strip().splitlines():
            if not ln.strip():
                continue
            head, rest = ln.split(":", 1)
            comp[int(head)] = tuple(
                tuple(int(t) for t in grp.split()) for grp in rest.split(";"))
        return SplitMap(comp)

    def format(self):
        lines = []
        for parent, supports in sorted(self.components.items()):
            lines.append(f"{parent} : " + " ; ".join(
                " ".join(str(i) for i in s) for s in supports))
        return "\n".join(lines) + "\n"


@dataclass
class SplitHypergraph:
    """Expanded factor set with parent labels.

    ``hypergraph`` holds one (possibly repeated-support) factor per labeled
    component; ``parent_of[a]`` gives the parent hyperedge index in the
    original hypergraph, ``component_of[a]`` the support tuple.
    """

    original: Hypergraph
    hypergraph: Hypergraph
    parent_of: tuple
    component_of: tuple


def apply_split(hg, split_map):
    """Expand the factor set: E~ = union of the component supports.

    Labeled components keep their parent; the split hypergraph's factor
    list enumerates components in (parent, declaration) order. Supports of
    size one are allowed for components even though plain hyperedges
    require two nodes.
    """
    parent_of = []
    component_of = []
    for a, w in enumerate(hg.hyperedges):
        for s in split_map.supports_for(a, w):
            parent_of.append(a)
            component_of.append(s)
    # Hypergraph forbids duplicates and singletons; store components directly.
    split = _LabeledHypergraph(hg.m, tuple(component_of))
    return SplitHypergraph(hg, split, tuple(parent_of), tuple(component_of))


class _LabeledHypergraph(Hypergraph):
    """Hypergraph variant admitting singleton and repeated supports
    (components are distinguished by their label, not their support)."""

    def __init__(self, node_count, hyperedges):
        norm = []
        for w in hyperedges:
            t = tuple(sorted(set(int(i) for i in w)))
            if not t:
                raise SplitError("empty component support")
            if not all(0 <= i < node_count for i in t):
                raise SplitError(f"component {t} out of range")
            norm.append(t)
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "hyperedges", tuple(norm))


# ---------------------------------------------------------------------------
# component surrogate families
#
# Each component evaluator is a list of primitives (coef, active) meaning
# coef * psi_parent(x restricted to `active`, references elsewhere). The
# families below satisfy the gradient-sum identity at consistent references:
#
#   pairwise:      all 2-subsets, each weighted 1/(|w| - 1);
#   two_component: two covering supports with overlap O, each as
#                  psi(x_support; y) - 1/2 psi(x_O; y);
#   singleton:     one free coordinate per component, weight 1.


@dataclass
class ComponentSurrogate:
    parent_idx: int
    parent: tuple
    support: tuple
    primitives: tuple            # ((coef, active-subset-of-parent), ...)

    def value(self, psi_value, x_active, y_parent):
        """Evaluate given psi_value(x_parent_stack); x_active maps node->vec,
        y_parent maps node->vec for every parent coordinate."""
        total = 0.0
        for coef, active in self.primitives:
            xs = [x_active[i] if i in active else y_parent[i] for i in self.parent]
            total += coef * psi_value(np.concatenate(xs))
        return total

    def grad(self, psi_grad, x_active, y_parent, wrt):
        d = next(iter(y_parent.values())).shape[0]
        g = np.zeros(d)
        pos = {n: t for t, n in enumerate(self.parent)}
        for coef, active in self.primitives:
            if wrt not in active:
                continue
            xs = [x_active[i] if i in active else y_parent[i] for i in self.parent]
            full = psi_grad(np.concatenate(xs))
            g += coef * full[pos[wrt] * d:(pos[wrt] + 1) * d]
        return g


def build_split_surrogate(parent_idx, parent, supports, family,
                          custom_primitives=None):
    """Component evaluators for one parent factor.

    family in {'pairwise', 'two_component', 'singleton', 'custom',
    'identity'}; supports must match the family's shape. Custom families
    pass explicit primitive lists and must pass the consistency check
    before use in a solver.
    """
    parent = tuple(parent)
    supports = [tuple(sorted(s)) for s in supports]
    comps = []
    if family == "identity":
        comps.append(ComponentSurrogate(parent_idx, parent, parent,
                                        ((1.0, frozenset(parent)),)))
        return comps
    if family == "pairwise":
        expect = [tuple(sorted(s)) for s in _all_pairs(parent)]
        if sorted(supports) != sorted(expect):
            raise SplitError("pairwise split needs all 2-subsets of the parent")
        wgt = 1.0 / (len(parent) - 1)
        for s in supports:
            comps.append(ComponentSurrogate(parent_idx, parent, s,
                                            ((wgt, frozenset(s)),)))
        return comps
    if family == "singleton":
        expect = [(i,) for i in parent]
        if sorted(supports) != sorted(expect):
            raise SplitError("singleton split needs one component per node")
        for s in supports:
            comps.append(ComponentSurrogate(parent_idx, parent, s,
                                            ((1.0, frozenset(s)),)))
        return comps
    if family == "two_component":
        if len(supports) != 2:
            raise SplitError("two_component split needs exactly two supports")
        s1, s2 = supports
        if set(s1) | set(s2) != set(parent):
            raise SplitError("two_component supports must cover the parent")
        overlap = frozenset(set(s1) & set(s2))
        if not overlap:
            raise SplitError("two_component supports must overlap")
        for s in (s1, s2):
            comps.append(ComponentSurrogate(
                parent_idx, parent, s,
                ((1.0, frozenset(s)), (-0.5, overlap))))
        return comps
    if family == "custom":
        if custom_primitives is None or len(custom_primitives) != len(supports):
            raise SplitError("custom family needs one primitive list per support")
        for s, prim in zip(supports, custom_primitives):
            comps.append(ComponentSurrogate(
                parent_idx, parent, s,
                tuple((float(c), frozenset(a)) for (c, a) in prim)))
        return comps
    raise SplitError(f"unknown split family {family!r}")


def _all_pairs(w):
    return [(w[i], w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]


def split_surrogate_components(split, family_by_parent):
    """ComponentSurrogate list aligned with ``split.hypergraph.hyperedges``."""
    by_parent = {}
    for a, parent_idx in enumerate(split.parent_of):
        by_parent.setdefault(parent_idx, []).append(a)
    out = [None] * len(split.parent_of)
    for parent_idx, comp_ids in by_parent.items():
        parent = split.original.hyperedges[parent_idx]
        supports = [split.component_of[a] for a in comp_ids]
        fam = family_by_parent.get(parent_idx, "identity")
        if fam == "identity" and supports == [parent]:
            comps = build_split_surrogate(parent_idx, parent, [parent], "identity")
        else:
            comps = build_split_surrogate(parent_idx, parent, supports, fam)
        comps_by_support = {}
        for c in comps:
            comps_by_support.setdefault(c.support, []).append(c)
        for a in comp_ids:
            lst = comps_by_support[split.component_of[a]]
            out[a] = lst.pop(0)
    return out


def _coords(nodes, order, d):
    """Coordinate indices of ``nodes`` in a stack of d-blocks ordered as
    ``order``."""
    return np.concatenate([np.arange(order.index(n) * d, (order.index(n) + 1) * d)
                           for n in nodes])


class SplitQuadraticView:
    """Split components of quadratic factors, compiled once for the solver.

    Component a on support s is the sum over its primitives of
    coef * <H_parent x, x> with the non-active coordinates frozen at the
    round references (the latest iterates). ``blocks[a]`` is its quadratic
    block on the active coordinates, in support order. The cross terms
    between active and frozen coordinates are linear in the references:
    ``frozen`` lists them as (a, i, c, M, nodes), one per component, member
    i and primitive (in primitive order), meaning the term
    c * M @ stack(x[nodes]) in the linear part at i, with c = 2 coef and
    M = (H_parent)_{i, nodes}.
    """

    def __init__(self, problem, split, components):
        if not isinstance(problem, QuadraticObjective):
            raise SplitError("quadratic split view needs a QuadraticObjective")
        self.problem = problem
        self.split = split
        self.components = components
        d = problem.d
        self.blocks = []
        self.frozen = []
        for a, comp in enumerate(components):
            Hpar = problem.hyper[tuple(comp.parent)]
            s, par = comp.support, comp.parent
            Hw = np.zeros((len(s) * d, len(s) * d))
            for coef, active in comp.primitives:
                act = [n for n in s if n in active]
                if act:
                    ridx, sidx = _coords(act, par, d), _coords(act, s, d)
                    Hw[np.ix_(sidx, sidx)] += coef * Hpar[np.ix_(ridx, ridx)]
            self.blocks.append(Hw)
            for i in s:
                for coef, active in comp.primitives:
                    frozen = [n for n in par if n not in active]
                    if i in active and frozen:
                        M = Hpar[np.ix_(_coords([i], par, d),
                                        _coords(frozen, par, d))]
                        self.frozen.append((a, i, coef * 2.0, M, tuple(frozen)))

    def split_value(self, x, y):
        """Value of the split-surrogate objective at x with references y."""
        total = 0.0
        for i in range(self.problem.m):
            total += 0.5 * x[i] @ self.problem.diag[i] @ x[i] + self.problem.lin[i] @ x[i]
        for a, comp in enumerate(self.components):
            Hpar = self.problem.hyper[tuple(comp.parent)]

            def val(z, Hpar=Hpar):
                return float(z @ Hpar @ z)

            total += comp.value(val, {n: x[n] for n in comp.support},
                                {n: y[n] for n in comp.parent})
        return float(total)


def validate_split_partition(split, clusters, intra_components):
    """Hypertree validation on the split factor graph.

    ``intra_components`` lists, per cluster, the labeled component ids kept
    intra-cluster; maximality is NOT required (components fully inside a
    cluster may still be treated as inter-cluster to keep trees acyclic).
    Raises CyclicSplitCluster when a kept component closes a cycle.
    """
    try:
        return validate_hyper_partition(split.hypergraph, clusters,
                                        intra_factors=intra_components)
    except NonTreeCluster as exc:
        raise CyclicSplitCluster(str(exc)) from exc
