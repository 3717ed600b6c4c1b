"""Timed and traced runs of one workload, and the metrics they yield.

A run is a closed loop: one client sets up and solves, then sets up and
solves again, until the run's seconds are spent (at least one solve). A
warm-up set-up and solve comes first and is left out of every statistic.
Timings are medians over the run's solves; the three counts (rounds,
rounds_to_tol, vectors_sent) must repeat exactly from solve to solve.

The end-to-end timings are corrected for the machine's speed at the time
they were taken. On a shared host the same code runs up to 1.8 times
slower for seconds to minutes at a time (other tenants, clock changes),
and no run length averages that out across runs. So a fixed calibration
kernel runs before the loop and after every set-up and solve; each
timing is multiplied by CALIBRATION_REFERENCE_S over the mean of the two
calibrations around it. The result is the time the step takes when the
kernel takes its reference time. The program cannot move the kernel's
time, so a faster or slower program still shows in full. The wall-clock
medians are printed beside the corrected ones.
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
from workloads import IncorrectSolve, check_solve, rounds_to_tol

BENCH_DIR = Path(__file__).resolve().parent
SPEC_PATH = BENCH_DIR.parent / "BENCHMARK.json"
RESULTS_DIR = BENCH_DIR / "results"

# At least this many set-up timings feed the setup_s median; a run with
# fewer solves times set-ups alone to make up the number.
MIN_SETUPS = 9

# A round figure near the median time of one calibration() on the machine
# of the first baseline (a 2-vCPU Intel Xeon virtual machine at 2.1 GHz,
# Python 3.11, numpy 2.4), where it ranged from 0.09 to 0.19 s.
CALIBRATION_REFERENCE_S = 0.15

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_solution_s": "s",
    "round_ms": "ms",
    "rounds": "count",
    "rounds_to_tol": "count",
    "vectors_sent": "count",
    "peak_rss_mb": "MB",
}

# Printed beside the end-to-end metrics, not part of the result: the
# uncorrected medians and the median speed factor that links them.
WALL_UNITS = {
    "wall_setup_s": "s",
    "wall_solve_s": "s",
    "speed_factor": "ratio",
}

# Every per-layer figure the traced run measures, with its unit. The
# ``per_layer`` list of BENCHMARK.json names the subset printed as the
# result; the times of layers that some workload never calls stay out of
# it (they would read 0 on every run there) and are printed only in the
# table above the result.
LAYER_UNITS = {
    "topology.validate_s": "s",
    "topology.clusters": "count",
    "topology.max_diameter": "hops",
    "rate_analysis.constants_s": "s",
    "rate_analysis.rate_terms_s": "s",
    "objective.oracle_s": "s",
    "objective.grad_calls": "count",
    "objective.grad_s": "s",
    "objective.value_calls": "count",
    "objective.value_s": "s",
    "solvers.solve_s": "s",
    "solvers.record_calls": "count",
    "solvers.record_s": "s",
    "solvers.record_self_s": "s",
    "solvers.record_to_kernel": "ratio",
    "solvers.kernel_s": "s",
    "solvers.kernel_ms_per_round": "ms",
    "messages.update_calls": "count",
    "messages.update_s": "s",
    "messages.struct_solve_calls": "count",
    "messages.struct_solve_s": "s",
    "messages.store_gets": "count",
    "messages.store_puts": "count",
    "messages.vectors_per_round": "vectors/round",
    "trace.overhead_frac": "ratio",
}

# Figures in these units repeat exactly from solve to solve.
EXACT_UNITS = ("count", "hops", "vectors/round")


def load_spec():
    return json.loads(SPEC_PATH.read_text())


_CAL_BLOCKS = [np.eye(2) * (1 + k) for k in range(16)]
_CAL_VECTOR = np.ones(2)


def calibration():
    """Run the calibration kernel once; return its wall seconds.

    The kernel does the kinds of work the library's inner loops do: Python
    integer arithmetic, dict and list stores, and products of small numpy
    blocks. Its work is fixed, so its time tracks the machine's speed only.
    """
    gc.collect()
    t0 = time.perf_counter()
    acc, store = 0, {}
    for i in range(500_000):
        acc += i * i
    for i in range(60_000):
        store[i] = [i]
    vec = np.zeros(2)
    for i in range(30_000):
        vec = vec + _CAL_BLOCKS[i & 15] @ _CAL_VECTOR
        store[i & 255] = float(vec[0])
    return time.perf_counter() - t0


class SpeedCorrection:
    """Scale factors for timings bracketed by calibrations: create it
    before the first timing, call ``next_factor`` after each."""

    def __init__(self):
        self.last = calibration()

    def next_factor(self):
        before, self.last = self.last, calibration()
        return 2 * CALIBRATION_REFERENCE_S / (before + self.last)


@dataclass
class Sample:
    """One set-up and solve of the closed loop. ``speed`` scales its wall
    times to the machine's reference speed."""

    setup_s: float
    solve_s: float
    ok: bool
    rounds: int = 0
    rounds_to_tol: int = 0
    vectors_sent: int = 0
    vectors_total: int = 0
    clusters: int = 0
    max_diameter: int = 0
    speed: float = 1.0


def solve_once(workload, inputs, reference=None):
    """Set up and solve once; check the result. Never raises for a failed
    solve: the failure is reported on stderr and returned as ok=False.
    ``reference`` is an earlier good sample whose counts this one must
    repeat exactly.
    """
    clock = time.perf_counter
    gc.collect()        # the previous solve's garbage is not this one's cost
    t0 = clock()
    t1 = None
    try:
        prepared = workload.setup(inputs)
        t1 = clock()
        trace = prepared.solve()
        t2 = clock()
        check_solve(trace, prepared.x_star, workload.accuracy)
        k = rounds_to_tol(trace, workload.accuracy)
        sample = Sample(t1 - t0, t2 - t1, True, trace.rounds, k,
                        int(trace.vectors_sent[k]), int(trace.vectors_sent[-1]),
                        prepared.clusters, prepared.max_diameter)
        if reference is not None and (
                (sample.rounds, sample.rounds_to_tol, sample.vectors_sent)
                != (reference.rounds, reference.rounds_to_tol,
                    reference.vectors_sent)):
            raise IncorrectSolve("counts differ from the run's first solve")
        return sample
    except Exception:  # a failed solve is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        t_fail = clock()
        t1 = t1 if t1 is not None else t_fail
        return Sample(t1 - t0, t_fail - t1, False)


def closed_loop(workload, inputs, seconds, traced=False):
    """Solve repeatedly for ``seconds`` (at least once) after one warm-up.

    Untraced, each sample carries the speed factor of the calibrations
    around it. With ``traced`` every loop step first takes an untraced
    sample, then a sample with the tracer's wrappers installed, and no
    calibration runs. Returns (samples, untraced
    samples, tracers); ``samples`` are the traced ones when tracing.
    """
    solve_once(workload, inputs)            # warm-up, not counted
    samples, untraced, tracers = [], [], []
    reference = None
    deadline = time.perf_counter() + seconds
    speed = None if traced else SpeedCorrection()
    while not samples or time.perf_counter() < deadline:
        if traced:
            untraced.append(solve_once(workload, inputs, reference))
            with tracer.Tracer() as tr:
                sample = solve_once(workload, inputs, reference)
            tracers.append(tr)
        else:
            sample = solve_once(workload, inputs, reference)
            sample.speed = speed.next_factor()
        if sample.ok and reference is None:
            reference = sample
        samples.append(sample)
    return samples, untraced, tracers


def setup_times(workload, inputs, samples):
    """Corrected set-up durations of the loop's solves, topped up with
    set-ups alone to MIN_SETUPS timings."""
    times = [s.setup_s * s.speed for s in samples if s.ok]
    if not times:           # set-up itself may be what failed
        return [s.setup_s * s.speed for s in samples]
    speed = SpeedCorrection() if len(times) < MIN_SETUPS else None
    while len(times) < MIN_SETUPS:
        gc.collect()
        t0 = time.perf_counter()
        workload.setup(inputs)
        wall = time.perf_counter() - t0
        times.append(wall * speed.next_factor())
    return times


def summarize(samples):
    good = [s for s in samples if s.ok]
    return good or samples, len(samples), len(samples) - len(good)


def end_to_end(workload, inputs, seconds):
    """The timed run: every end-to-end metric (tracing off), and the
    figures of WALL_UNITS for display."""
    samples, _, _ = closed_loop(workload, inputs, seconds)
    used, attempted, failed = summarize(samples)
    first = used[0]
    med = statistics.median
    values = {
        "setup_s": med(setup_times(workload, inputs, samples)),
        "solve_s": med(s.solve_s * s.speed for s in used),
        "time_to_solution_s": med((s.setup_s + s.solve_s) * s.speed
                                  for s in used),
        "round_ms": med(1e3 * s.solve_s * s.speed / max(s.rounds, 1)
                        for s in used),
        "rounds": first.rounds,
        "rounds_to_tol": first.rounds_to_tol,
        "vectors_sent": first.vectors_sent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_setup_s": med(s.setup_s for s in used),
        "wall_solve_s": med(s.solve_s for s in used),
        "speed_factor": med(s.speed for s in used),
    }
    return values, attempted, failed


def layer_values(stats, sample, untraced_solve_s):
    """Per-layer figures of one traced set-up and solve."""

    def get(root, layer, key="total_s"):
        return stats.get((root, layer), {}).get(key, 0)

    solve = "solvers.solve"
    solve_s = get(solve, solve)
    record_s = get(solve, "solvers.record")
    kernel_s = solve_s - record_s
    rounds = max(sample.rounds, 1)
    return {
        "topology.validate_s": get("topology.validate", "topology.validate"),
        "topology.clusters": sample.clusters,
        "topology.max_diameter": sample.max_diameter,
        "rate_analysis.constants_s": get("rate_analysis.constants",
                                         "rate_analysis.constants"),
        "rate_analysis.rate_terms_s": get("rate_analysis.rate_terms",
                                          "rate_analysis.rate_terms"),
        "objective.oracle_s": get("objective.oracle", "objective.oracle"),
        "objective.grad_calls": get(solve, "objective.grad", "calls"),
        "objective.grad_s": get(solve, "objective.grad"),
        "objective.value_calls": get(solve, "objective.value", "calls"),
        "objective.value_s": get(solve, "objective.value"),
        "solvers.solve_s": solve_s,
        "solvers.record_calls": get(solve, "solvers.record", "calls"),
        "solvers.record_s": record_s,
        "solvers.record_self_s": get(solve, "solvers.record", "self_s"),
        "solvers.record_to_kernel": record_s / kernel_s if kernel_s else 0.0,
        "solvers.kernel_s": kernel_s,
        "solvers.kernel_ms_per_round": 1e3 * kernel_s / rounds,
        "messages.update_calls": get(solve, "messages.update", "calls"),
        "messages.update_s": get(solve, "messages.update"),
        "messages.struct_solve_calls": get(solve, "messages.struct_solve", "calls"),
        "messages.struct_solve_s": get(solve, "messages.struct_solve"),
        "messages.store_gets": get(solve, "messages.store_get", "calls"),
        "messages.store_puts": get(solve, "messages.store_put", "calls"),
        "messages.vectors_per_round": sample.vectors_total / rounds,
        "trace.overhead_frac": (solve_s / untraced_solve_s - 1.0
                                if untraced_solve_s else 0.0),
    }


def per_layer(workload, inputs, seconds):
    """The traced run: median per-layer figures over the traced solves,
    with the spans of each traced solve."""
    samples, untraced, tracers = closed_loop(workload, inputs, seconds,
                                             traced=True)
    base = statistics.median(s.solve_s for s in summarize(untraced)[0])
    pairs = [(s, tr) for s, tr in zip(samples, tracers) if s.ok] or list(
        zip(samples, tracers))
    rows = [layer_values(tracer.layer_stats(tr.spans, tr.layer_of), s, base)
            for s, tr in pairs]
    values = {k: rows[0][k] if unit in EXACT_UNITS
              else statistics.median(r[k] for r in rows)
              for k, unit in LAYER_UNITS.items()}
    _, attempted, failed = summarize(samples + untraced)
    return values, attempted, failed, tracers


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked of the library itself;
    None when no OpenBLAS query function is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit(root):
    """HEAD of the checkout read from .git, or "unknown" outside a clone."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(BENCH_DIR.parent),
        "seed": seed,
    }


def write_spans(workload_name, seed, tracers, results_dir=RESULTS_DIR):
    """Write every span of a traced run to one .npz file: per traced solve k,
    arrays name_k (index into ``names``), start_k and end_k (seconds from
    the solve's first span) and parent_k (span index, -1 for a root)."""
    results_dir.mkdir(parents=True, exist_ok=True)
    path = results_dir / f"trace-{workload_name}.npz"
    names = sorted({span[0] for tr in tracers for span in tr.spans})
    index = {name: k for k, name in enumerate(names)}
    arrays = {"names": np.array(names), "seed": np.array(seed)}
    for k, tr in enumerate(tracers):
        name, start, end, parent = zip(*tr.spans) if tr.spans else ((),) * 4
        t0 = start[0] if start else 0.0
        arrays[f"name_{k}"] = np.array([index[n] for n in name], dtype=np.int16)
        arrays[f"start_{k}"] = np.array(start, dtype=float) - t0
        arrays[f"end_{k}"] = np.array(end, dtype=float) - t0
        arrays[f"parent_{k}"] = np.array(parent, dtype=np.int64)
    np.savez(path, **arrays)
    return path
