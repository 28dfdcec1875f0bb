"""The benchmark's three workloads: inputs made from a seed, one batch of work, output checks.

Each workload calls the program only through its public entry points: the
`prgd.cli.main` argument list for studies and the names exported by the
`prgd` package for everything else. `prgd` is imported inside `setup`, so
that set-up time includes the import.

A workload object has
- `reference`: the weights of the reference kernels that scale its times (see run.py);
- `variants`: how many different batches it has; the inputs of each are fixed
  by the seed, so repeating a variant repeats its work exactly;
- `setup(seed)`: build the inputs and return them as a state dict;
- `run(state, v)`: the timed work of one batch of variant v, returning its
  raw output;
- `check(state, v, out)`: the untimed output checks, returning
  (units attempted, units whose check failed).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from pathlib import Path

# the stream id the CLI uses for synthetic spectra
STREAM_SPECTRUM = 2**48


class Escape:
    """The acceptance escape study: PRGD and RGD trials from the second eigenvector.

    Variant v is the study at seed + 1000 v, with `trials` trials of each
    algorithm; together the variants hold variants x trials trials, enough to
    average over the random number of phases a trial takes.
    """

    name = "escape-pca-d50"
    unit = "trial"
    # the tangent loop is loop-like work, the certificates grid-like
    reference = {"loop": 0.75, "grid": 0.25}
    min_alignment = 0.99
    # PRGD leaves the saddle; RGD starts at its exact critical point and stays
    expect_escape = {"prgd": True, "rgd": False}

    def __init__(self, out_dir: Path, dim: int = 50, trials: int = 10, variants: int = 5):
        self.out_dir = out_dir
        self.dim = dim
        self.trials = trials
        self.variants = variants

    def _argv(self, command: str, seed: int) -> list[str]:
        return [command, "--problem", "pca", "--dim", str(self.dim), "--seed", str(seed),
                "--chi", "4", "--eps", "1e-3", "--start", "saddle"]

    def _prefix(self, algorithm: str) -> str:
        # one prefix per process, so that runs sharing a checkout never read each other's trials
        return str(self.out_dir / f"study-{algorithm}-{os.getpid()}")

    def setup(self, seed: int) -> dict:
        import prgd.cli

        # `prgd params` builds the problem and derives the parameters, as a study does
        with contextlib.redirect_stdout(io.StringIO()):
            rc = prgd.cli.main(self._argv("params", seed))
        if rc != 0:
            raise RuntimeError(f"prgd params exited with {rc}")
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed, "cli": prgd.cli}

    def run(self, state: dict, v: int) -> dict:
        return {
            algorithm: state["cli"].main(self._argv("study", state["seed"] + 1000 * v) + [
                "--algorithm", algorithm, "--trials", str(self.trials), "--out", self._prefix(algorithm)])
            for algorithm in ("prgd", "rgd")
        }

    def check(self, state: dict, v: int, out: dict) -> tuple[int, int]:
        failed = 0
        for algorithm, rc in out.items():
            summary = Path(self._prefix(algorithm) + ".summary.json")
            if rc != 0 or not summary.is_file():
                failed += self.trials
                continue
            # the summary is removed once read, so a study that writes none fails its next check
            with open(summary, encoding="utf-8") as fh:
                records = json.load(fh)["trial_records"]
            summary.unlink()
            failed += self.trials - len(records)
            failed += sum(not self.trial_ok(algorithm, rec) for rec in records)
        return 2 * self.trials, failed

    def trial_ok(self, algorithm: str, rec: dict) -> bool:
        # `terminated` is not checked: its reason turns on round-off in the gap test
        if rec["escaped"] is not self.expect_escape[algorithm]:
            return False
        return not rec["escaped"] or rec["alignment"] >= self.min_alignment


class Lipschitz:
    """Criterion 3's inputs: empirical gradient and Hessian Lipschitz ratios at d = 20."""

    name = "lipschitz-pca-d20"
    unit = "sample"
    # the samples are loop-like work, the k=19 FD Hessians grid-like
    reference = {"loop": 0.75, "grid": 0.25}
    variants = 1
    ball = 5.0
    # each ratio must stay below this multiple of the operator norm ||A||
    grad_factor = 2.5
    hess_factor = 9.0

    def __init__(self, dim: int = 20, grad_samples: int = 200, hess_samples: int = 200):
        self.dim = dim
        self.grad_samples = grad_samples
        self.hess_samples = hess_samples

    def setup(self, seed: int) -> dict:
        import prgd

        # seed 1 gives criterion 3's streams: matrix 11, gradient 40, Hessian 41
        a, lams, _, _ = prgd.synthetic_matrix(self.dim, prgd.RngStream(10 + seed, STREAM_SPECTRUM))
        return {"seed": seed, "prgd": prgd, "problem": prgd.PcaProblem(a),
                "norm": float(lams[0]), "first": None}

    def run(self, state: dict, v: int) -> tuple[float, float]:
        prgd, seed = state["prgd"], state["seed"]
        grad = prgd.empirical_grad_lipschitz(state["problem"], ball=self.ball, n_samples=self.grad_samples,
                                             rng=prgd.RngStream(39 + seed, 0))
        hess = prgd.empirical_hess_lipschitz(state["problem"], ball=self.ball, n_samples=self.hess_samples,
                                             rng=prgd.RngStream(40 + seed, 0))
        return grad, hess

    def check(self, state: dict, v: int, out: tuple[float, float]) -> tuple[int, int]:
        # every batch draws the same samples, so its ratios must repeat the first batch's exactly
        if state["first"] is None:
            state["first"] = out
        grad, hess = out
        grad_ok = math.isfinite(grad) and grad <= self.grad_factor * state["norm"] and grad == state["first"][0]
        hess_ok = math.isfinite(hess) and hess <= self.hess_factor * state["norm"] and hess == state["first"][1]
        failed = (0 if grad_ok else self.grad_samples) + (0 if hess_ok else self.hess_samples)
        return self.grad_samples + self.hess_samples, failed


class Certify:
    """Second-order certificates at eigenvectors of a large synthetic PCA matrix."""

    name = "certify-pca-n150"
    unit = "certificate"
    reference = {"grid": 1.0}
    variants = 1
    eps = 1e-3
    # how far the certificate's lambda_min may be from the analytic spectrum
    tol = 1e-6

    def __init__(self, dim: int = 150):
        self.dim = dim

    def setup(self, seed: int) -> dict:
        import prgd

        a, lams, vecs, _ = prgd.synthetic_matrix(self.dim, prgd.RngStream(seed, STREAM_SPECTRUM))
        problem = prgd.PcaProblem(a)
        # the top eigenvector, the saddle below it, and one further saddle picked by the seed
        indices = [0, 1, random.Random(seed).randrange(2, self.dim)]
        return {
            "prgd": prgd,
            "problem": problem,
            "lams": lams,
            "indices": indices,
            "points": [problem.manifold.point(vecs[:, i]) for i in indices],
            "rho": 9.0 * float(lams[0]),
        }

    def run(self, state: dict, v: int) -> list:
        check = state["prgd"].check_second_order_point
        return [check(state["problem"], x, self.eps, state["rho"]) for x in state["points"]]

    def check(self, state: dict, v: int, out: list) -> tuple[int, int]:
        lams = state["lams"]
        failed = 0
        for i, report in zip(state["indices"], out):
            # the Riemannian Hessian at eigenvector i has eigenvalues lams[i] - lams[j], j != i
            expected = lams[0] - lams[1] if i == 0 else lams[i] - lams[0]
            ok = report.verdict == (i == 0) and abs(report.min_eig_pullback - expected) <= self.tol
            failed += not ok
        return len(out), failed


def make_workloads(out_dir: Path) -> dict:
    """The benchmark's workloads at their measured sizes, by name."""
    return {wl.name: wl for wl in (Escape(out_dir), Lipschitz(), Certify())}
