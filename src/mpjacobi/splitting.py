"""Hyperedge splitting: split maps, split hypergraphs, component surrogate
factors, and their compiled quadratic form.

A split replaces a factor psi_w by lower-arity component factors whose
removed coordinates are frozen at reference values (the latest iterates in
the solver). Components are labeled by (parent index, component index), so
identical supports produced by different parents never collide. A
:class:`ComponentSurrogate` only records a component's primitives;
:class:`SplitQuadraticView` compiles them once into quadratic blocks and
frozen-reference terms. That compiled view is the only evaluation of a
split surrogate: the split solver runs on it, and
``verify.check_split_consistency`` checks its gradient
(:meth:`SplitQuadraticView.grad`) against the problem's.
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

    Parents not mentioned keep their identity component. Each key must
    index a parent and each component support must be a nonempty subset of
    it; ``apply_split`` raises ``SplitError`` otherwise.
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
    _reject_unknown_parents(split_map.components, len(hg.hyperedges), "split map")
    parent_of = []
    component_of = []
    for a, w in enumerate(hg.hyperedges):
        for s in split_map.supports_for(a, w):
            parent_of.append(a)
            component_of.append(s)
    # Hypergraph forbids duplicates and singletons; store components directly.
    split = _LabeledHypergraph(hg.m, tuple(component_of))
    return SplitHypergraph(hg, split, tuple(parent_of), tuple(component_of))


def _reject_unknown_parents(keys, n_parents, what):
    unknown = [k for k in keys if k not in range(n_parents)]
    if unknown:
        raise SplitError(f"{what} key {unknown[0]!r} names no parent hyperedge "
                         f"(there are {n_parents})")


class _LabeledHypergraph(Hypergraph):
    """Hypergraph variant admitting singleton and repeated supports
    (components are distinguished by their label, not their support).
    Supports arrive sorted, nonempty and in range: ``SplitMap.supports_for``
    keeps them inside hyperedges of a validated hypergraph."""

    def __init__(self, node_count, hyperedges):
        object.__setattr__(self, "node_count", int(node_count))
        object.__setattr__(self, "hyperedges", tuple(hyperedges))


# ---------------------------------------------------------------------------
# component surrogate families
#
# Each component is a list of primitives (coef, active) meaning
# coef * psi_parent(x restricted to `active`, references elsewhere), with
# `active` a nonempty subset of the component's support. The families below
# satisfy the gradient-sum identity at consistent references:
#
#   pairwise:      all 2-subsets, each weighted 1/(|w| - 1);
#   two_component: two covering supports with overlap O, each as
#                  psi(x_support; y) - 1/2 psi(x_O; y);
#   singleton:     one free coordinate per component, weight 1.


@dataclass
class ComponentSurrogate:
    """One component's primitives; :class:`SplitQuadraticView` compiles them."""

    parent_idx: int
    parent: tuple
    support: tuple
    primitives: tuple            # ((coef, active-subset-of-support), ...)


def build_split_surrogate(parent_idx, parent, supports, family,
                          custom_primitives=None):
    """The components of one parent factor, in ``supports`` order.

    family in {'pairwise', 'two_component', 'singleton', 'custom',
    'identity'}; supports must match the family's shape ('identity' takes
    the parent as its only support). Custom families pass explicit
    primitive lists, each primitive's active set a nonempty subset of its
    component's support, and must pass the consistency check before use in
    a solver.
    """
    parent = tuple(parent)
    supports = [tuple(sorted(s)) for s in supports]
    comps = []
    if family == "identity":
        if supports != [parent]:
            raise SplitError(f"parent {parent_idx} {parent} is split into "
                             f"{supports} but has no split family")
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
            prim = tuple((float(c), frozenset(act)) for c, act in prim)
            for _, act in prim:
                if not act or not act <= set(s):
                    raise SplitError(f"custom primitive on {sorted(act)} is empty "
                                     f"or leaves its component's support {s}")
            comps.append(ComponentSurrogate(parent_idx, parent, s, prim))
        return comps
    raise SplitError(f"unknown split family {family!r}")


def _all_pairs(w):
    return [(w[i], w[j]) for i in range(len(w)) for j in range(i + 1, len(w))]


def split_surrogate_components(split, family_by_parent):
    """ComponentSurrogate list aligned with ``split.hypergraph.hyperedges``.
    A parent missing from ``family_by_parent`` keeps the identity family; a
    key that names no parent raises ``SplitError``."""
    _reject_unknown_parents(family_by_parent, len(split.original.hyperedges),
                            "family")
    by_parent = {}
    for a, parent_idx in enumerate(split.parent_of):
        by_parent.setdefault(parent_idx, []).append(a)
    out = [None] * len(split.parent_of)
    for parent_idx, comp_ids in by_parent.items():
        comps = build_split_surrogate(
            parent_idx, split.original.hyperedges[parent_idx],
            [split.component_of[a] for a in comp_ids],
            family_by_parent.get(parent_idx, "identity"))
        for a, comp in zip(comp_ids, comps):
            out[a] = comp
    return out


def _coords(nodes, order, d):
    """Coordinate indices of ``nodes`` in a stack of d-blocks ordered as
    ``order``."""
    return np.concatenate([np.arange(order.index(n) * d, (order.index(n) + 1) * d)
                           for n in nodes])


class SplitQuadraticView:
    """Split components of quadratic factors, compiled once: the one
    evaluation of a split surrogate, read by the split solver and by
    ``verify.check_split_consistency``.

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

    def grad(self, x):
        """(m, d) gradient of the split surrogate in x at consistent
        references (every reference at x): the node terms, 2 blocks[a] x
        over each component's support, then every ``frozen`` term."""
        p = self.problem
        x = np.asarray(x, dtype=float).reshape(p.m, p.d)
        g = np.einsum("ikl,il->ik", p.diag, x) + p.lin
        for comp, Hw in zip(self.components, self.blocks):
            s = list(comp.support)
            g[s] += (2.0 * Hw @ x[s].ravel()).reshape(len(s), p.d)
        for _, i, c, M, nodes in self.frozen:
            g[i] += c * M @ x[list(nodes)].ravel()
        return g


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
