#!/usr/bin/env python3
"""Smoke test of the benchmark itself, in a few seconds.

    python3 bench/smoke.py

- Runs every workload at a tiny size, untraced and traced, and checks that
  the metric names are exactly those of BENCHMARK.json and that every output
  check passes.
- Shows that each output check fires when it is given a wrong expected value.
- Shows that the benchmark fails, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import run
from workloads import Certify, Escape, Lipschitz

FAILURES = []


def expect(ok: bool, what: str):
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def tiny_workloads():
    return [Escape(run.OUT_DIR / "smoke", dim=10, trials=2, variants=2),
            Lipschitz(dim=5, grad_samples=5, hess_samples=5),
            Certify(dim=12)]


def check_metric_names(bench: dict):
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    per_layer = [m["name"] for m in bench["per_layer"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for wl in tiny_workloads():
        for trace, names in ((False, end_to_end), (True, per_layer)):
            record = run.measure(wl, seed=1, seconds=0, trace=trace, probes=0)
            metrics = record["metrics"]
            expect(list(metrics) == names and all(metrics[n]["unit"] == units[n] for n in names),
                   f"{wl.name} trace={int(trace)}: metric names and units match BENCHMARK.json")
            expect(record["attempted"] > 0 and record["failed"] == 0,
                   f"{wl.name} trace={int(trace)}: every output check passes")


def fires(wl, state, out, what: str):
    attempted, failed = wl.check(state, 0, out)
    expect(failed > 0, f"{wl.name}: check fires on {what} ({failed} of {attempted} failed)")


def check_checks_fire():
    escape, lipschitz, certify = tiny_workloads()

    # an escape check consumes the study's summary, so every check gets a fresh study
    state = escape.setup(1)
    for algorithm in ("prgd", "rgd"):
        wrong = copy.copy(escape)
        wrong.expect_escape = dict(escape.expect_escape, **{algorithm: not escape.expect_escape[algorithm]})
        fires(wrong, state, escape.run(state, 0), f"the wrong escape outcome for {algorithm}")
    wrong = copy.copy(escape)
    wrong.min_alignment = 1.5
    fires(wrong, state, escape.run(state, 0), "an alignment no unit vector reaches")
    out = escape.run(state, 0)
    escape.check(state, 0, out)
    fires(escape, state, out, "a study whose summary is missing")

    state = lipschitz.setup(1)
    out = lipschitz.run(state, 0)
    lipschitz.check(state, 0, out)
    for field in ("grad_factor", "hess_factor"):
        wrong = copy.copy(lipschitz)
        setattr(wrong, field, 1e-9)
        fires(wrong, state, out, f"a {field} too small for the ratio")
    fires(lipschitz, dict(state, first=(out[0] + 1.0, out[1])), out, "a ratio that differs from the first batch")

    state = certify.setup(1)
    out = certify.run(state, 0)
    fires(certify, dict(state, lams=state["lams"] * (1 + 1e-4)), out, "a spectrum off by 1e-4 relative")
    fires(certify, dict(state, indices=[1, 0] + state["indices"][2:]), out, "the top eigenvector at the wrong index")


def check_bare_directory_fails():
    bare = run.OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, os.path.join(run.HERE.name, "run.py"), "--workload", "escape-pca-d50",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without the program the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = run.BLAS_THREADS
    run.use_checkout_source()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metric_names(bench)
    check_checks_fire()
    check_bare_directory_fails()
    print(f"{len(FAILURES)} smoke check(s) failed" if FAILURES else "smoke test passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
