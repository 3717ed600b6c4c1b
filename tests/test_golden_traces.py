"""Frozen per-round traces of every solver family.

``tests/data/golden_traces.npz`` holds, for each case below, the recorded
``grad_norm``, ``dist_to_opt`` and ``vectors_sent`` histories and
``x_final`` of a 30-round run with ``tol_x=0``. Exact, delayed and
hypergraph runs must reproduce them bit for bit; the surrogate families
(first-order, structured-quadratic, partial linearization) must agree to
1e-12 and send exactly the same number of vectors.

Regenerate the file (only when a change of iterates is intended) with

    PYTHONPATH=src python tests/test_golden_traces.py --write
"""

from pathlib import Path
import sys

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_acceptance import random_valid_instance  # noqa: E402

from mpjacobi.bench import cta_instance, hyperring_qp  # noqa: E402
from mpjacobi.messages import SurrogateSpec  # noqa: E402
from mpjacobi.objective import global_solve_oracle  # noqa: E402
from mpjacobi.solvers import (  # noqa: E402
    SolverConfig,
    delayed_block_jacobi,
    h_mp_jacobi,
    h_mp_jacobi_split,
    mp_jacobi,
    mp_jacobi_surrogate,
)
from mpjacobi.splitting import (  # noqa: E402
    SplitMap,
    SplitQuadraticView,
    apply_split,
    split_surrogate_components,
    validate_split_partition,
)
from mpjacobi.topology import generate_partition, validate_hyper_partition  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_traces.npz"
ROUNDS = 30
FIELDS = ("grad_norm", "dist_to_opt", "vectors_sent", "x_final")
BITWISE = ("exact", "delayed", "hyper", "split")


def _cfg(tau, oracle, **kw):
    return SolverConfig(tau=tau, max_rounds=ROUNDS, tol_x=0.0,
                        track_oracle=oracle, **kw)


def _pairwise_cases(tag, q, part, x0):
    """Exact, first-order, structured-quadratic and delayed runs on one
    pairwise quadratic with a tree partition."""
    m, d = q.m, q.d
    oracle = global_solve_oracle(q)
    tau = 1.0 / part.p
    schur = SurrogateSpec(
        family="schur_quadratic",
        Q=np.stack([np.diag(np.diag(q.diag[i])) + 0.2 * np.eye(d)
                    for i in range(m)]),
        M_node=0.05 * np.eye(d),
        M_edge={e: np.diag(np.diag(q.pair[e])) for e in q.pair})
    first = SurrogateSpec(family="first_order", alpha=0.01)
    return {
        f"exact/{tag}": lambda: mp_jacobi(q, part, _cfg(tau, oracle), x0=x0),
        f"exact/warm/{tag}": lambda: mp_jacobi(
            q, part, _cfg(tau, oracle, message_init="warm_start"), x0=x0),
        f"first_order/{tag}": lambda: mp_jacobi_surrogate(
            q, part, _cfg(tau, oracle, surrogate=first), x0=x0),
        f"schur/{tag}": lambda: mp_jacobi_surrogate(
            q, part, _cfg(tau, oracle, surrogate=schur), x0=x0),
        f"schur_exact_update/{tag}": lambda: mp_jacobi_surrogate(
            q, part, _cfg(tau, oracle, surrogate=schur,
                          exact_variable_update=True), x0=x0),
        f"delayed/{tag}": lambda: delayed_block_jacobi(
            q, part, _cfg(tau, oracle), x0=x0),
    }


def cases():
    """Case name -> zero-argument callable returning a RunTrace."""
    out = {}

    # d = 1: random ring QP with a single-gateway tree partition
    q, part = random_valid_instance(2)
    assert q.d == 1
    x0 = np.random.default_rng(2).standard_normal((q.m, q.d))
    out.update(_pairwise_cases("ring_d1", q, part, x0))

    # d = 2: lifted consensus problem; the pairwise families run on its
    # quadratic form, partial linearization on the lifted problem itself
    g, _, prob = cta_instance(m=8, d=2, gamma=0.01, seed=1)
    cpart = generate_partition("ring_P2", g, D=1)
    cq = prob.to_quadratic()
    cx0 = np.random.default_rng(3).standard_normal((prob.m, prob.d))
    out.update(_pairwise_cases("cta_d2", cq, cpart, cx0))
    coracle = global_solve_oracle(cq)
    plin = SurrogateSpec(family="partial_linearization", Q=2.0)
    out["partial_linearization/cta_d2"] = lambda: mp_jacobi_surrogate(
        prob, cpart, _cfg(0.25, coracle, surrogate=plin), x0=cx0)
    first = SurrogateSpec(family="first_order", alpha=0.002)
    out["first_order_smooth/cta_d2"] = lambda: mp_jacobi_surrogate(
        prob.to_smooth(), cpart, _cfg(0.25, coracle, surrogate=first), x0=cx0)

    # d = 3: hyper ring with one path cluster of two factors
    hg, hq = hyperring_qp(n_edges=4, edge_size=3, d=3, seed=4)
    hx0 = np.random.default_rng(4).standard_normal((hq.m, hq.d))
    horacle = global_solve_oracle(hq)
    clusters = [[0, 1, 2, 3, 4], [5], [6], [7]]
    hpart = validate_hyper_partition(hg, clusters)
    tau = 1.0 / hpart.p
    for impl in ("hosted_factor", "factor_processor"):
        out[f"hyper/{impl}/hyper_d3"] = lambda impl=impl: h_mp_jacobi(
            hq, hpart, _cfg(tau, horacle, factor_impl=impl), x0=hx0)
    out["hyper/diagonal/hyper_d3"] = lambda: h_mp_jacobi(
        hq, hpart, _cfg(tau, horacle, surrogate=SurrogateSpec(
            family="first_order", alpha=1.0)), x0=hx0)
    split = apply_split(hg, SplitMap({0: ((0, 1), (1, 2))}))
    comps = split_surrogate_components(split, {0: "two_component"})
    view = SplitQuadraticView(hq, split, comps)
    kept = [a for a, w in enumerate(split.hypergraph.hyperedges)
            if set(w) <= set(clusters[0])]
    spart = validate_split_partition(split, clusters, [kept, [], [], []])
    out["split/hyper_d3"] = lambda: h_mp_jacobi_split(
        hq, view, spart, _cfg(1.0 / spart.p, horacle), x0=hx0)
    return out


def _arrays(trace):
    return {
        "grad_norm": np.asarray(trace.grad_norm, dtype=float),
        "dist_to_opt": np.asarray(trace.dist_to_opt, dtype=float),
        "vectors_sent": np.asarray(trace.vectors_sent, dtype=np.int64),
        "x_final": np.asarray(trace.x_final, dtype=float),
    }


def write_golden():
    data = {}
    for name, run in cases().items():
        trace = run()
        assert trace.rounds == ROUNDS
        for fld, arr in _arrays(trace).items():
            assert np.all(np.isfinite(arr)), (name, fld)
            data[f"{name}:{fld}"] = arr
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(GOLDEN, **data)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as f:
        return {k: f[k] for k in f.files}


@pytest.mark.parametrize("name", sorted(cases()))
def test_golden_trace(name, golden):
    trace = cases()[name]()
    assert trace.rounds == ROUNDS
    got = _arrays(trace)
    bitwise = name.split("/")[0] in BITWISE
    for fld in FIELDS:
        want = golden[f"{name}:{fld}"]
        assert got[fld].shape == want.shape, fld
        if bitwise or fld == "vectors_sent":
            assert np.array_equal(got[fld], want), fld
        else:
            err = np.max(np.abs(got[fld] - want) / np.maximum(1.0, np.abs(want)))
            assert err <= 1e-12, (fld, err)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_traces.py --write")
    write_golden()
