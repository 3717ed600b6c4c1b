"""Span tracing at the library's layer boundaries, from outside the library.

``Tracer`` replaces each public callable named in ``BOUNDARIES`` by a
wrapper that records one span per call: (name, start, end, parent). Spans
stay in memory; ``layer_stats`` folds them into per-layer counts and times.
Leaving the ``with`` block puts every original callable back, so untraced
runs execute the library's own code.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

from mpjacobi import messages, objective, rate_analysis, solvers, topology

# (owner, attribute, layer). Message rules and struct_solve are wrapped as
# bound in mpjacobi.solvers, so struct_solve spans are the engines' variable
# solves, not the solves inside the message rules.
BOUNDARIES = (
    (topology, "validate_tree_partition", "topology.validate"),
    (topology, "validate_hyper_partition", "topology.validate"),
    (rate_analysis, "estimate_constants", "rate_analysis.constants"),
    (rate_analysis, "rate_terms", "rate_analysis.rate_terms"),
    (objective, "global_solve_oracle", "objective.oracle"),
    (solvers, "mp_jacobi", "solvers.solve"),
    (solvers, "mp_jacobi_surrogate", "solvers.solve"),
    (solvers, "h_mp_jacobi", "solvers.solve"),
    (solvers.RunTrace, "record", "solvers.record"),
    (objective.QuadraticObjective, "value", "objective.value"),
    (objective.QuadraticObjective, "grad", "objective.grad"),
    (objective.CtaProblem, "value", "objective.value"),
    (objective.CtaProblem, "grad", "objective.grad"),
    (solvers, "schur_message_update", "messages.update"),
    (solvers, "hyper_factor_message", "messages.update"),
    (solvers, "first_order_message", "messages.update"),
    (solvers, "diagonalize_message", "messages.update"),
    (solvers, "struct_solve", "messages.struct_solve"),
    (messages.MessageSet, "get", "messages.store_get"),
    (messages.MessageSet, "put", "messages.store_put"),
    (messages.MessageSet, "commit", "messages.store_commit"),
)


def qualified_name(owner, attr):
    """Span name: the wrapped callable's import path."""
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


class Tracer:
    """Context manager that wraps ``BOUNDARIES`` while it is active.

    ``spans`` holds (name, start, end, parent) tuples in call order; parent
    is the index of the enclosing span or -1. Times are perf_counter
    seconds.
    """

    def __init__(self):
        self.spans = []
        self.layer_of = {}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def __enter__(self):
        for owner, attr, layer in BOUNDARIES:
            original = vars(owner)[attr]
            name = qualified_name(owner, attr)
            self.layer_of[name] = layer
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def layer_stats(spans, layer_of):
    """Per (root layer, layer): calls, total seconds and self seconds.

    The root layer is the layer of a span's outermost ancestor, so calls made
    inside a solve ("solvers.solve") are kept apart from the same calls made
    during set-up (the oracle evaluates the objective once, for instance).
    Self time is a span's duration minus the durations of its children;
    calls are sequential, so children never overlap.
    """
    root = [0] * len(spans)
    child_time = [0.0] * len(spans)
    for idx, (_, start, end, parent) in enumerate(spans):
        if parent < 0:
            root[idx] = idx
        else:
            root[idx] = root[parent]
            child_time[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _) in enumerate(spans):
        entry = stats[(layer_of[spans[root[idx]][0]], layer_of[name])]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[idx]
    return dict(stats)
