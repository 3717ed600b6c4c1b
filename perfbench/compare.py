"""Summarize one result set of the mpjacobi benchmark, or compare two.

    python3 perfbench/compare.py A.jsonl            # medians, quartiles, spread
    python3 perfbench/compare.py A.jsonl B.jsonl    # B against A

A result set is the JSON-lines file that ``run.py --out FILE`` appends to,
one record per run (typically one run per seed). For every workload and
metric the report gives each side's median and quartiles, as
``statistics.quantiles(values, n=4)`` computes them. With one set it also
gives the spread, (q3 - q1) / median, against the metric's bound in
BENCHMARK.json. With two it gives the delta of B's median from A's, signed
so that a positive delta is worse, and marks the end-to-end deltas that
exceed the bound. Per-layer metrics have no bound and are never marked.

Both modes also give each workload's failed solves out of those attempted.
A workload whose B runs fail a larger share of their solves than A's, or
report ``correct`` false, is marked WORSE whatever its deltas are: the
metrics of a failed run are taken from its failed solves and can look
better than those of a working one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path):
    """{(workload, metric): [values]} from a result set, the environment
    blocks of its runs, and {workload: health}: the solves attempted and
    failed over its runs, and whether every run reported correct."""
    values = defaultdict(list)
    envs = []
    health = defaultdict(lambda: {"attempted": 0, "failed": 0, "correct": True})
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        envs.append(rec.get("env", {}))
        result, h = rec["result"], health[rec["workload"]]
        h["attempted"] += result["attempted"]
        h["failed"] += result["failed"]
        h["correct"] &= result["correct"]
        for metric, entry in result["metrics"].items():
            values[(rec["workload"], metric)].append(entry["value"])
    return dict(values), envs, dict(health)


def quartiles(vals):
    """(q1, median, q3); a single value is all three."""
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return q1, med, q3


def worse_delta(base, new, better):
    """Relative change from base to new, positive when new is worse."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    delta = (new - base) / abs(base)
    return delta if better == "lower" else -delta


def metric_specs(spec):
    """Every metric of BENCHMARK.json by name; only end-to-end ones carry a
    bound."""
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarize(values, spec):
    """Rows for one result set: spread of each metric against its bound."""
    specs = metric_specs(spec)
    rows = []
    for (workload, metric), vals in sorted(values.items()):
        q1, med, q3 = quartiles(vals)
        bound = specs.get(metric, {}).get("bound")
        spread = (q3 - q1) / med if med else 0.0
        rows.append({"workload": workload, "metric": metric, "n": len(vals),
                     "median": med, "q1": q1, "q3": q3, "spread": spread,
                     "bound": bound,
                     "within": None if bound is None else spread <= bound})
    return rows


def compare(base, new, spec):
    """Rows comparing result set ``new`` against ``base``."""
    specs = metric_specs(spec)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        a, b = quartiles(base[key]), quartiles(new[key])
        mspec = specs.get(metric, {})
        delta = worse_delta(a[1], b[1], mspec.get("better", "lower"))
        bound = mspec.get("bound")
        rows.append({"workload": workload, "metric": metric,
                     "base": a, "new": b, "delta": delta, "bound": bound,
                     "exceeds": None if bound is None else delta > bound})
    return rows


def failed_share(h):
    return h["failed"] / h["attempted"] if h["attempted"] else 0.0


def compare_health(base, new):
    """Rows comparing each workload's failures; ``worse`` when ``new``
    fails a larger share of its solves than ``base`` or is not correct."""
    return [{"workload": w, "base": base[w], "new": new[w],
             "worse": (failed_share(new[w]) > failed_share(base[w])
                       or not new[w]["correct"])}
            for w in sorted(set(base) & set(new))]


def _health_text(h):
    return (f"failed {h['failed']}/{h['attempted']}"
            + ("" if h["correct"] else ", not correct"))


def _fmt(x):
    return f"{x:.5g}"


def _quartile_text(q):
    q1, med, q3 = q
    return f"{_fmt(med)} [{_fmt(q1)}, {_fmt(q3)}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    base, envs, base_health = load_results(args.base)
    print("environment:", json.dumps(envs[0] if envs else {}, sort_keys=True))
    if args.new is None:
        for workload, h in sorted(base_health.items()):
            print(f"{workload:<14} {_health_text(h)}")
        print(f"{'workload':<14} {'metric':<28} {'n':>3} {'median':>11} "
              f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for r in summarize(base, spec):
            flag = "" if r["within"] is None else ("ok" if r["within"] else "WIDE")
            bound = "" if r["bound"] is None else f"{r['bound']:g}"
            print(f"{r['workload']:<14} {r['metric']:<28} {r['n']:>3} "
                  f"{_fmt(r['median']):>11} {_fmt(r['q1']):>11} "
                  f"{_fmt(r['q3']):>11} {r['spread']:>7.3f} {bound:>6} {flag}")
        return 0
    new, _, new_health = load_results(args.new)
    regressions = 0
    for r in compare_health(base_health, new_health):
        regressions += r["worse"]
        print(f"{r['workload']:<14} A {_health_text(r['base'])}; "
              f"B {_health_text(r['new'])}" + ("  WORSE" if r["worse"] else ""))
    print(f"{'workload':<14} {'metric':<28} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'delta':>8} {'bound':>6}")
    for r in compare(base, new, spec):
        flag = "" if r["exceeds"] is None else ("WORSE" if r["exceeds"] else "ok")
        regressions += bool(r["exceeds"])
        bound = "" if r["bound"] is None else f"{r['bound']:g}"
        print(f"{r['workload']:<14} {r['metric']:<28} "
              f"{_quartile_text(r['base']):<36} {_quartile_text(r['new']):<36} "
              f"{r['delta']:>+8.3f} {bound:>6} {flag}")
    print(f"{regressions} workload failure(s) or end-to-end metric(s) "
          "worse than their bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
