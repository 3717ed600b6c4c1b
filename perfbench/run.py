"""Run the mpjacobi benchmark from the root of a checkout.

    python3 perfbench/run.py --workload path_exact --seed 1 --seconds 55 --trace 0

Builds the workload's inputs from the seed, then solves in a closed loop
for the given seconds and checks every solve against the dense oracle. It
prints an environment line and a table, then as its last line one JSON
object with the keys correct, attempted, failed and metrics:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, tracing off;
* ``--trace 1``: its per-layer metrics, from a separate run that wraps the
  library's layer boundaries; the spans go to perfbench/results/.

``--workload all`` runs every workload in its own process, one after the
other. ``--out FILE`` appends the run's record, environment included, to a
JSON-lines file that compare.py reads. The library is imported from the
checkout's ``src``; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# One BLAS thread: each workload is one single-threaded process, which
# keeps timings steady on a shared two-core machine.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

WORKLOAD_NAMES = ("path_exact", "ring_schur")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_library():
    """Import mpjacobi from this checkout's src and the benchmark modules;
    return None when the checkout has no importable library."""
    src = ROOT / "src"
    sys.path[:0] = [str(BENCH_DIR), str(src)]
    try:
        import mpjacobi
    except ImportError as exc:
        print(f"perfbench: cannot import mpjacobi from {src}: {exc}",
              file=sys.stderr)
        return None
    if not Path(mpjacobi.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: mpjacobi came from {mpjacobi.__file__}, not {src}",
              file=sys.stderr)
        return None
    import measure
    return measure


def result_metrics(spec_entries, values, units):
    """The result's metrics: every metric the spec names, with its unit."""
    out = {}
    for entry in spec_entries:
        name, unit = entry["name"], entry["unit"]
        if units[name] != unit:
            raise ValueError(f"{name}: measured in {units[name]}, spec says {unit}")
        out[name] = {"value": values[name], "unit": unit}
    return out


def print_table(title, values, units):
    print(title)
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<30} {shown:>14} {units[name]}")


def run_one(args, measure):
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.generate(args.seed, **wl.size)
    env = measure.environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    spec = measure.load_spec()
    if args.trace:
        values, attempted, failed, tracers = measure.per_layer(
            wl, inputs, args.seconds)
        path = measure.write_spans(wl.name, args.seed, tracers)
        print_table(f"{wl.name}: per-layer (traced, spans in {path.name})",
                    values, measure.LAYER_UNITS)
        metrics = result_metrics(spec["per_layer"], values, measure.LAYER_UNITS)
    else:
        values, attempted, failed = measure.end_to_end(wl, inputs, args.seconds)
        values_shown = dict(values, failed_frac=failed / attempted)
        units = dict(measure.END_TO_END_UNITS, **measure.WALL_UNITS,
                     failed_frac="ratio")
        print_table(f"{wl.name}: end to end ({attempted} solves)",
                    values_shown, units)
        metrics = result_metrics(spec["end_to_end"], values,
                                 measure.END_TO_END_UNITS)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out is not None:
        record = {"workload": wl.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, "env": env,
                  "result": result}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    return result


def run_all(args):
    """Each workload in a fresh process (peak memory is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with "
                             f"{proc.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, entry in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    return merged


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    if args.workload == "all":
        result = run_all(args)
    else:
        measure = import_library()
        if measure is None:
            return 2
        result = run_one(args, measure)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
