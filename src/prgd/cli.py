"""Experiment command line: seeded runs, escape-rate studies, parameter inspection, verification.

Subcommands: `run` (one seeded run, CSV trace + JSON summary), `study`
(multi-trial escape rates), `params` (print the derived parameter set),
`verify` (run the verification battery). Exit codes: 0 success, 2
configuration error, 3 numerical failure or failed verification.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .descent import PrgdParams, derive_params, prgd
from .manifolds import Point
from .numerics import NumericalError, RngStream, _check_count, _check_eig_dim, _eigenvector_rows
from .problems import PcaProblem, QuadraticSaddle, load_matrix, start_vector, synthetic_matrix
from .verify import RGD_MAX_ITERS, check_second_order_point, escape_study, random_point, verification_checks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# reserved stream ids, far above any trial index
STREAM_SPECTRUM = 2**48
STREAM_START = 2**48 + 1

DEFAULT_QUAD_RHO = 1.0
DEFAULT_QUAD_GAP = 1.0
CSV_HEADER = ["t", "kind", "f", "grad_norm", "tangent_norm"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="prgd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--problem", required=True, choices=["pca", "quadratic_saddle"])
        p.add_argument("--dim", type=int, help="ambient dimension for synthetic problems")
        p.add_argument("--matrix", help="path to a matrix file (problems-module text format)")
        p.add_argument("--eps", type=float, default=1e-3, help="gradient tolerance")
        p.add_argument("--delta", type=float, default=0.1, help="failure probability")
        p.add_argument("--mode", choices=["practical", "theoretical"], default="practical")
        p.add_argument("--chi", type=float, help="chi for practical mode (verify: default 4)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--start", choices=["random", "saddle", "file"], default=None)
        p.add_argument("--start-file", help="path to start coordinates when --start file")
        p.add_argument("--gap", type=float, help="upper bound on f(x0) - inf f (default: exact for pca)")
        p.add_argument("--ell", type=float, help="override the pullback gradient Lipschitz bound")
        p.add_argument("--rho", type=float, help="override the pullback Hessian Lipschitz bound")
        p.add_argument("--ball", type=float, default=math.inf, help="tangent ball radius b (default +inf)")

    def add_terminate(p):
        # None when not given, so that a study can tell an explicit flag from its default
        p.add_argument("--terminate", action=argparse.BooleanOptionalAction,
                       help="halt once a perturbation phase fails to decrease (default: off for run, on for study)")

    run_p = sub.add_parser("run", help="one seeded PRGD run")
    add_common(run_p)
    add_terminate(run_p)
    run_p.add_argument("--out", required=True, help="output prefix for .trace.csv and .summary.json")

    study_p = sub.add_parser("study", help="multi-trial escape-rate study from a saddle")
    add_common(study_p)
    add_terminate(study_p)
    study_p.add_argument("--out", required=True, help="output prefix for .summary.json")
    study_p.add_argument("--trials", type=int, default=1)
    study_p.add_argument("--algorithm", choices=["prgd", "rgd"], default="prgd")
    study_p.add_argument("--max-iters", type=int, help=f"step budget for the rgd baseline (default {RGD_MAX_ITERS})")

    params_p = sub.add_parser("params", help="print the derived parameter set as JSON")
    add_common(params_p)

    verify_p = sub.add_parser("verify", help="run the verification battery")
    add_common(verify_p)
    verify_p.add_argument("--samples", type=int, default=2000, help="Monte-Carlo sample count")

    return parser


@dataclass
class ProblemSetup:
    problem: object
    x0: Point
    saddle: Point | None
    v_max: np.ndarray | None
    params: PrgdParams


def _build_problem(args) -> tuple[object, np.ndarray | None, Point | None, float, float]:
    """Instantiate the cost; returns (problem, dominant eigenvector, saddle point, lip_grad, default lip_hess)."""
    if args.problem == "pca":
        if args.matrix:
            problem = PcaProblem(load_matrix(args.matrix))
            v_max, second = _eigenvector_rows(problem.matrix, [-1, -2])
        else:
            if args.start == "file":
                raise ValueError("matrix required when --problem pca starts from a file")
            if args.dim is None:
                raise ValueError("pca requires --matrix or --dim for the synthetic spectrum")
            a, _, vecs, _ = synthetic_matrix(args.dim, RngStream(args.seed, STREAM_SPECTRUM))
            problem = PcaProblem(a)
            v_max, second = vecs[:, 0], vecs[:, 1]
        consts = problem.constants()
        return problem, v_max, problem.manifold.point(second), consts.lip_grad, consts.lip_hess
    # the library takes a 1x1 saddle, but the CLI's has one smallest size, whether read or built
    if args.matrix:
        h = load_matrix(args.matrix)
        _check_count(2, dim=len(h))
    else:
        if args.dim is None:
            raise ValueError("quadratic_saddle requires --matrix or --dim")
        _check_count(2, dim=args.dim)
        _check_eig_dim(args.dim)
        h = np.diag(np.concatenate(([-1.0], np.ones(args.dim - 1))))
    problem = QuadraticSaddle(h)
    saddle = problem.manifold.point(np.zeros(problem.manifold.ambient_dim))
    return problem, None, saddle, problem.norm, DEFAULT_QUAD_RHO


def _resolve_start(args, problem, saddle) -> Point:
    start = args.start if args.start is not None else ("saddle" if args.command == "study" else "random")
    if start != "file" and args.start_file is not None:
        raise ValueError("--start-file requires --start file")
    if start == "saddle":
        return saddle
    if start == "file":
        if not args.start_file:
            raise ValueError("--start file requires --start-file")
        return problem.manifold.point(start_vector(args.start_file))
    return random_point(problem.manifold, RngStream(args.seed, STREAM_START))[0]


def _setup(args) -> ProblemSetup:
    """Build the problem and its start point, and derive the one parameter record of the run."""
    if args.chi is not None and args.mode == "theoretical":
        raise ValueError("--chi applies to --mode practical only")
    problem, v_max, saddle, lip_grad, lip_hess = _build_problem(args)
    x0 = _resolve_start(args, problem, saddle)
    # pca's f* = -lambda_max / 2 is exact, so its default gap is exact
    gap = (args.gap if args.gap is not None else
           max(problem.value(x0) - problem.f_star, 1e-12) if args.problem == "pca" else DEFAULT_QUAD_GAP)
    params = derive_params(
        epsilon=args.eps, delta=args.delta, dim=problem.manifold.intrinsic_dim,
        ell=args.ell if args.ell is not None else lip_grad, lip_grad=lip_grad,
        lip_hess=args.rho if args.rho is not None else lip_hess, ball=args.ball, gap=gap, mode=args.mode,
        chi=4.0 if args.chi is None and args.command == "verify" and args.mode == "practical" else args.chi,
    )
    return ProblemSetup(problem=problem, x0=x0, saddle=saddle, v_max=v_max, params=params)


def _json(payload) -> str:
    """The text of every JSON output: a non-finite float is written as its repr, such as "inf"."""

    def plain(obj):
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [plain(v) for v in obj]
        # float() first: under numpy 2 the repr of np.float64("inf") is 'np.float64(inf)'
        return repr(float(obj)) if isinstance(obj, float) and not math.isfinite(obj) else obj

    return json.dumps(plain(payload), indent=2, sort_keys=True)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json(payload) + "\n")


def _write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ev in trace.events:
            writer.writerow([ev.t, ev.kind] + ["" if v is None else repr(float(v))
                                               for v in (ev.f, ev.grad_norm, ev.tangent_norm)])


def _outcome(trace) -> dict:
    """How a run ended: the fields that a run's summary and a study's trial record share."""
    return {"final_f": trace.final_f, "final_grad_norm": trace.final_grad_norm, "final_t": trace.final_t,
            "gradient_queries": trace.gradient_queries, "terminated": trace.terminated}


def run_single(args) -> int:
    setup = _setup(args)
    params = setup.params
    trace = prgd(setup.problem, setup.x0, params, RngStream(args.seed, 0),
                 terminate_on_no_decrease=args.terminate is True)
    _write_trace_csv(f"{args.out}.trace.csv", trace)
    point = trace.last_small_grad_point
    summary = {
        **_outcome(trace),
        "n_perturbations": trace.n_perturbations,
        "n_manifold_steps": trace.n_manifold_steps,
        "suspected_second_order": trace.suspected_second_order,
        "second_order": (None if point is None else
                         check_second_order_point(setup.problem, point, params.epsilon, params.lip_hess).as_dict()),
        "params": asdict(params),
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


def run_escape_study(args) -> int:
    if args.algorithm == "prgd" and args.max_iters is not None:
        raise ValueError("--max-iters applies to --algorithm rgd only")
    if args.algorithm == "rgd" and args.terminate is not None:
        raise ValueError(f"--{'' if args.terminate else 'no-'}terminate applies to --algorithm prgd only")
    setup = _setup(args)
    params = setup.params
    results = escape_study(
        setup.problem, setup.x0, params, args.seed, args.trials,
        algorithm=args.algorithm, terminate=args.terminate is not False,
        rgd_max_iters=RGD_MAX_ITERS if args.max_iters is None else args.max_iters, v_max=setup.v_max,
    )
    records = []
    for res in results:
        rec = {
            "seed": res.seed,
            "stream": res.stream,
            **_outcome(res.trace),
            "escaped": res.report.verdict,
            "min_eig_pullback": res.report.min_eig_pullback,
        }
        if res.alignment is not None:
            rec["alignment"] = res.alignment
        records.append(rec)
    summary = {
        "algorithm": args.algorithm,
        "trials": args.trials,
        "escape_rate": sum(r["escaped"] for r in records) / args.trials,
        "trial_records": records,
        "params": asdict(params),
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


def derive_params_cmd(args) -> int:
    print(_json(asdict(_setup(args).params)))
    return EXIT_OK


def verify_cmd(args) -> int:
    setup = _setup(args)
    checks = verification_checks(setup.problem, setup.saddle, setup.v_max, setup.params, args.seed, args.samples)
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    passed = sum(ok for _, ok, _ in checks)
    print(f"{passed}/{len(checks)} checks passed")
    return EXIT_OK if passed == len(checks) else EXIT_NUMERICAL


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": run_single,
        "study": run_escape_study,
        "params": derive_params_cmd,
        "verify": verify_cmd,
    }
    try:
        # a non-finite value is reported once, as the numerical failure it raises, not also as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return handlers[args.command](args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main():  # pragma: no cover - thin wrapper
    raise SystemExit(main())
