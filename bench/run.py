#!/usr/bin/env python3
"""Run a workload of the prgd benchmark, check its outputs and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from `src/` beside this
directory. Without --workload, every workload runs in turn, each in a fresh
process. The last line of output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER, Tracer
from workloads import make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# the light traced pass times the tangent loop with nothing inside it wrapped
LOOP_ONLY = {"descent.tangent_space_steps"}

# one BLAS thread keeps the load one single-threaded process per workload
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# set-up is timed in this many fresh processes besides the measuring one
SETUP_PROBES = 6

# The shared machine's speed swings by up to 2x within seconds and drifts over
# minutes, as other tenants come and go. So every time is scaled to nominal
# machine speed with a reference kernel timed next to the work it scales, of
# the same kind as that work: "loop", a Python loop of small numpy operations
# like the descent and sampling hot loops (and set-up), or "grid", a large
# matrix product and row-wise dot like the FD Hessian's value grid. A workload
# whose time goes to both mixes the two kernels by weight. REF_S is one call's
# typical time on the machine the baseline was recorded on (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4, one BLAS thread).
REF_S = {"loop": 0.025, "grid": 0.04}
REF_CALLS_PER_BATCH = 4
REF_CALLS_PER_SETUP = 4

END_TO_END = [("units_per_s", "1/s", "higher"), ("setup_s", "s", "lower"), ("peak_rss_mb", "MiB", "lower")]


def use_checkout_source():
    """Import `prgd` from this checkout's src/, and fail when the checkout has none."""
    if not (SRC / "prgd" / "__init__.py").is_file():
        raise SystemExit(f"error: no prgd source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "src_prgd_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                              for p in sorted((SRC / "prgd").glob("*.py"))),
    }


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of the workload in a fresh process."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                           "--workload", name, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def reference_s(kind: str, calls: int) -> float:
    """Seconds per call of the reference kernel `kind`, over `calls` calls."""
    import numpy as np

    rng = np.random.default_rng(0)
    if kind == "loop":
        a, v = rng.standard_normal((50, 50)), rng.standard_normal(50)
        start = time.perf_counter()
        for _ in range(calls * 3000):
            w = a @ v
            v = w / float(np.linalg.norm(w))
    else:
        points, m = rng.standard_normal((20000, 150)), rng.standard_normal((150, 150))
        start = time.perf_counter()
        for _ in range(calls):
            np.einsum("ij,ij->i", points @ m, points)
    return (time.perf_counter() - start) / calls


def slowness(weights: dict) -> float:
    """Machine slowness against nominal speed: the weighted reference kernel time over its REF_S."""
    return sum(w * reference_s(kind, REF_CALLS_PER_BATCH) / REF_S[kind] for kind, w in weights.items())


def timed_setup(wl, seed: int):
    """Build the workload's state; returns (state, set-up seconds at nominal machine speed)."""
    start = time.perf_counter()
    state = wl.setup(seed)
    elapsed = time.perf_counter() - start
    import prgd

    if not Path(prgd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported prgd from {prgd.__file__}, not from {SRC}")
    reference_s("loop", 1)  # warm-up
    return state, elapsed * REF_S["loop"] / reference_s("loop", REF_CALLS_PER_SETUP)


def run_batch(wl, state, v: int, tracer=None):
    """Run one batch of variant v, traced when a tracer is given; returns (seconds, attempted, failed)."""
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        out = wl.run(state, v)
        elapsed = time.perf_counter() - start
    attempted, failed = wl.check(state, v, out)
    return elapsed, attempted, failed


def run_round(wl, state, tracer=None):
    """One batch of every variant; returns the summed (seconds, attempted, failed)."""
    runs = [run_batch(wl, state, v, tracer) for v in range(wl.variants)]
    return tuple(sum(column) for column in zip(*runs))


def measure(wl, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES) -> dict:
    """Run a warm-up round, then rounds of the workload for `seconds`, at least one; return the result record.

    A round is one batch of every variant. Untraced, the metrics are
    end-to-end: `units_per_s` is the units of one round over its time at
    nominal machine speed. The workload's reference kernels run between
    batches; each batch's wall time is divided by the mean slowness measured
    just before and just after it, and the round time is the sum over
    variants of the median of these nominal batch times.

    Traced, rounds run in turn untraced, fully traced and with only the
    tangent loop traced; the metrics are the per-layer medians over the fully
    traced rounds, with `descent.tangent_step_us` from the loop-only rounds so
    that it holds no tracer cost of the loop's children, plus the ratio of
    traced to untraced round time.
    """
    setup_times = [setup_probe(wl.name, seed) for _ in range(probes if not trace else 0)]
    state, elapsed = timed_setup(wl, seed)
    setup_times.append(elapsed)

    # a warm-up round, untimed; the peak memory is read after it, before any
    # reference kernel runs, since every later round repeats its work
    _, warm_units, failed = run_round(wl, state)
    attempted = warm_units
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    batch_s = slow_sum = 0.0  # summed batch wall times; summed slowness, one per batch
    nominal = [[] for _ in range(wl.variants)]  # per variant: batch times at nominal machine speed
    slow_before = None if trace else slowness(wl.reference)
    plain_times, traced_times, layer_runs = [], [], []  # per traced-mode round
    first_tracer = None
    start = time.perf_counter()
    rounds = 0
    while True:
        if trace:
            plain, n, bad = run_round(wl, state)
            plain_times.append(plain)
            tracer = Tracer()
            traced, n_traced, bad_traced = run_round(wl, state, tracer)
            traced_times.append(traced)
            loop_tracer = Tracer(only=LOOP_ONLY)
            _, n_loop, bad_loop = run_round(wl, state, loop_tracer)
            layers = tracer.layer_metrics()
            layers["descent.tangent_step_us"] = loop_tracer.layer_metrics()["descent.tangent_step_us"]
            layer_runs.append(layers)
            first_tracer = first_tracer or tracer
            n, bad = n + n_traced + n_loop, bad + bad_traced + bad_loop
        else:
            n = bad = 0
            for v in range(wl.variants):
                elapsed, n_v, bad_v = run_batch(wl, state, v)
                slow_after = slowness(wl.reference)
                slow = (slow_before + slow_after) / 2
                batch_s += elapsed
                slow_sum += slow
                nominal[v].append(elapsed / slow)
                slow_before = slow_after
                n, bad = n + n_v, bad + bad_v
        attempted, failed = attempted + n, failed + bad
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break

    record = {"workload": wl.name, "seed": seed, "unit": wl.unit, "rounds": rounds,
              "measured_s": time.perf_counter() - start, "attempted": attempted, "failed": failed}
    if trace:
        values = {name: statistics.median_low([run[name] for run in layer_runs]) for name in layer_runs[0]}
        values["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)
        metric_units = {name: unit for name, unit, _ in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.jsonl"
        first_tracer.write(spans_path, {"workload": wl.name, "seed": seed, "environment": environment()})
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        timed_units = attempted - warm_units
        values = {
            "units_per_s": timed_units / rounds / sum(map(statistics.median, nominal)),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        metric_units = {name: unit for name, unit, _ in END_TO_END}
        record["wall_units_per_s"] = timed_units / batch_s
        record["slowness"] = slow_sum / (rounds * wl.variants)
        record["setup_samples"] = setup_times
    record["metrics"] = {name: {"value": value, "unit": metric_units[name]} for name, value in values.items()}
    return record


def report(record: dict, env: dict):
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{record['workload']} seed {record['seed']}: {record['rounds']} rounds, "
          f"{record['attempted']} {record['unit']}s in {record['measured_s']:.1f} s")
    better = {name: b for name, _, b in END_TO_END + PER_LAYER}
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']} ({better[name]} is better)")
    if "wall_units_per_s" in record:
        print(f"  (unscaled wall-clock rate {record['wall_units_per_s']:.6g} 1/s; mean slowness "
              f"{record['slowness']:.4g}; scaled set-up samples "
              f"{', '.join(f'{t:.4g}' for t in record['setup_samples'])} s)")
    if "spans" in record:
        print(f"  spans written to {record['spans']}")
    print(f"  error_rate = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']} {record['unit']}s failed their output check)")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    workloads = make_workloads(OUT_DIR)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    use_checkout_source()

    if args.workload is None:
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in workloads]
        return max(codes)

    wl = workloads[args.workload]
    if args.setup_only:
        _, elapsed = timed_setup(wl, args.seed)
        print(repr(elapsed))
        return 0
    record = measure(wl, args.seed, args.seconds, bool(args.trace))
    report(record, environment())
    return 0


if __name__ == "__main__":
    sys.exit(main())
