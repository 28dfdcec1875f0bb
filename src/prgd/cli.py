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

from .descent import PrgdParams, derive_params, prgd, prgd_lockstep, rgd
from .errors import NumericalError
from .manifolds import Point
from .numerics import RngStream, _check_eig_dim, _eigenvector_rows
from .problems import PcaProblem, QuadraticSaddle, load_matrix, start_vector, synthetic_matrix
from .verify import (
    check_second_order_point,
    check_second_order_points,
    audit_trace,
    coupling_experiment,
    empirical_grad_lipschitz,
    empirical_hess_lipschitz,
    random_point,
)

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
        p.add_argument("--chi", type=float, help="chi for practical mode")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--start", choices=["random", "saddle", "file"], default=None)
        p.add_argument("--start-file", help="path to start coordinates when --start file")
        p.add_argument("--gap", type=float, help="upper bound on f(x0) - inf f (default: exact for pca)")
        p.add_argument("--ell", type=float, help="override the pullback gradient Lipschitz bound")
        p.add_argument("--rho", type=float, help="override the pullback Hessian Lipschitz bound")
        p.add_argument("--ball", type=float, default=math.inf, help="tangent ball radius b (default +inf)")

    def add_terminate(p, default):
        p.add_argument("--terminate", action=argparse.BooleanOptionalAction,
                       help="halt once a perturbation phase fails to decrease (default: off for run, on for study)")
        p.set_defaults(terminate=default)

    run_p = sub.add_parser("run", help="one seeded PRGD run")
    add_common(run_p)
    add_terminate(run_p, False)
    run_p.add_argument("--out", required=True, help="output prefix for .trace.csv and .summary.json")

    study_p = sub.add_parser("study", help="multi-trial escape-rate study from a saddle")
    add_common(study_p)
    add_terminate(study_p, True)
    study_p.add_argument("--out", required=True, help="output prefix for .summary.json")
    study_p.add_argument("--trials", type=int, default=1)
    study_p.add_argument("--algorithm", choices=["prgd", "rgd"], default="prgd")
    study_p.add_argument("--max-iters", type=int, default=100_000, help="step budget for the rgd baseline")

    params_p = sub.add_parser("params", help="print the derived parameter set as JSON")
    add_common(params_p)

    verify_p = sub.add_parser("verify", help="run the verification battery")
    add_common(verify_p)
    verify_p.add_argument("--samples", type=int, default=2000, help="Monte-Carlo sample count")
    verify_p.set_defaults(chi=4.0)

    return parser


@dataclass
class ProblemSetup:
    problem: object
    x0: Point
    saddle: Point | None
    v_max: np.ndarray | None
    params: PrgdParams


def _build_problem(args) -> tuple[object, np.ndarray | None, Point | None]:
    """Instantiate the cost; returns (problem, dominant eigenvector, saddle point)."""
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
        return problem, v_max, problem.manifold.point(second)
    if args.matrix:
        h = load_matrix(args.matrix)
        problem = QuadraticSaddle(h)
    else:
        if args.dim is None:
            raise ValueError("quadratic_saddle requires --matrix or --dim")
        if args.dim < 2:
            raise ValueError("quadratic_saddle requires --dim >= 2")
        _check_eig_dim(args.dim)
        h = np.diag(np.concatenate(([-1.0], np.ones(args.dim - 1))))
        problem = QuadraticSaddle(h)
    saddle = problem.manifold.point(np.zeros(problem.manifold.ambient_dim))
    return problem, None, saddle


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
    problem, v_max, saddle = _build_problem(args)
    x0 = _resolve_start(args, problem, saddle)
    if args.problem == "pca":
        consts = problem.constants()
        lip_grad = consts.lip_grad
        lip_hess = args.rho if args.rho is not None else consts.lip_hess
        # f* = -lambda_max / 2 exactly, so the supplied gap can be exact
        gap = args.gap if args.gap is not None else max(problem.value(x0) - problem.f_star, 1e-12)
    else:
        lip_grad = problem.norm
        lip_hess = args.rho if args.rho is not None else DEFAULT_QUAD_RHO
        gap = args.gap if args.gap is not None else DEFAULT_QUAD_GAP
    params = derive_params(
        epsilon=args.eps, delta=args.delta, dim=problem.manifold.intrinsic_dim,
        ell=args.ell if args.ell is not None else lip_grad, lip_grad=lip_grad, lip_hess=lip_hess,
        ball=args.ball, gap=gap, mode=args.mode, chi=args.chi,
    )
    return ProblemSetup(problem=problem, x0=x0, saddle=saddle, v_max=v_max, params=params)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        val = float(obj)
        return val if math.isfinite(val) else repr(val)
    return obj


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace_csv(path, trace):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for ev in trace.events:
            writer.writerow([ev.t, ev.kind] + [_csv_float(v) for v in (ev.f, ev.grad_norm, ev.tangent_norm)])


def _csv_float(value) -> str:
    return "" if value is None else repr(float(value))


def _second_order_summary(problem, trace, params):
    point = trace.last_small_grad_point
    if point is None:
        return None
    report = check_second_order_point(problem, point, params.epsilon, params.lip_hess)
    return report.as_dict()


def run_single(args) -> int:
    setup = _setup(args)
    params = setup.params
    trace = prgd(setup.problem, setup.x0, params, RngStream(args.seed, 0),
                 terminate_on_no_decrease=args.terminate)
    _write_trace_csv(f"{args.out}.trace.csv", trace)
    summary = {
        "final_f": trace.final_f,
        "final_grad_norm": trace.final_grad_norm,
        "n_perturbations": trace.n_perturbations,
        "n_manifold_steps": trace.n_manifold_steps,
        "gradient_queries": trace.gradient_queries,
        "final_t": trace.final_t,
        "terminated": trace.terminated,
        "suspected_second_order": trace.suspected_second_order,
        "second_order": _second_order_summary(setup.problem, trace, params),
        "params": asdict(params),
    }
    _write_json(f"{args.out}.summary.json", summary)
    return EXIT_OK


@dataclass
class TrialResult:
    seed: int
    stream: int
    trace: object
    report: object
    alignment: float | None


def escape_study(problem, x0: Point, params: PrgdParams, base_seed: int, trials: int,
                 algorithm: str = "prgd", terminate: bool = True,
                 rgd_max_iters: int = 100_000, v_max=None) -> list[TrialResult]:
    """Run `trials` seeded runs from x0; consecutive seeds, stream id = trial index.

    PRGD trials run in lockstep, as one `prgd_lockstep` block, whose traces
    keep each phase's steps in an array of its own until their events are read.
    `rgd` draws nothing, so its trials are one run: it runs and is certified
    once, and every trial record repeats it. The final points are certified
    by one `check_second_order_points` call, in stacked blocks of about
    `verify.SWEEP_BLOCK_FLOATS` floats (at d=50, all of a 10-trial study).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if algorithm == "rgd":
        traces = [rgd(problem, x0, params.eta, params.epsilon, rgd_max_iters)]
    else:
        traces = prgd_lockstep(problem, x0, params, [RngStream(base_seed + i, i) for i in range(trials)],
                               terminate_on_no_decrease=terminate)
    reports = check_second_order_points(problem, [trace.final_point for trace in traces], params.epsilon,
                                        params.lip_hess)
    outcomes = []
    for trace, report in zip(traces, reports):
        alignment = None
        if v_max is not None:
            alignment = abs(float(trace.final_point.coords @ v_max))
        outcomes.append((trace, report, alignment))
    if algorithm == "rgd":
        outcomes *= trials
    return [TrialResult(base_seed + i, i, *outcome) for i, outcome in enumerate(outcomes)]


def run_escape_study(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    setup = _setup(args)
    params = setup.params
    results = escape_study(
        setup.problem, setup.x0, params, args.seed, args.trials,
        algorithm=args.algorithm, terminate=args.terminate,
        rgd_max_iters=args.max_iters, v_max=setup.v_max,
    )
    records = []
    for res in results:
        rec = {
            "seed": res.seed,
            "stream": res.stream,
            "final_f": res.trace.final_f,
            "final_grad_norm": res.trace.final_grad_norm,
            "final_t": res.trace.final_t,
            "gradient_queries": res.trace.gradient_queries,
            "terminated": res.trace.terminated,
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
    setup = _setup(args)
    print(json.dumps(_jsonable(asdict(setup.params)), indent=2, sort_keys=True))
    return EXIT_OK


def verify_cmd(args) -> int:
    setup = _setup(args)
    problem = setup.problem
    manifold = problem.manifold
    checks = []

    rng = RngStream(args.seed, 101)
    worst_acc = 0.0
    for _ in range(100):
        x, rng = random_point(manifold, rng)
        direction, rng = manifold.sample_ball(x, 1.0, rng)
        if direction.norm < 1e-12:
            continue
        unit = manifold.project(x, direction.coords / direction.norm)
        worst_acc = max(worst_acc, manifold.check_second_order(x, unit))
    checks.append(("retraction_second_order", worst_acc <= 1e-6, f"max acceleration residual {worst_acc:.3e}"))

    if isinstance(problem, PcaProblem):
        consts = problem.constants()
        grad_bound, hess_bound = consts.lip_grad, consts.lip_hess
    else:
        grad_bound = problem.norm * (1.0 + 1e-9)
        hess_bound = 1e-4 * max(problem.norm, 1.0)
    grad_ratio = empirical_grad_lipschitz(problem, 5.0, args.samples, RngStream(args.seed, 102))
    checks.append(("gradient_lipschitz_bound", grad_ratio <= grad_bound,
                   f"max ratio {grad_ratio:.6f} vs bound {grad_bound:.6f}"))
    hess_samples = max(args.samples // 10, 10)
    hess_ratio = empirical_hess_lipschitz(problem, 5.0, hess_samples, rng=RngStream(args.seed, 103))
    checks.append(("hessian_lipschitz_bound", hess_ratio <= hess_bound,
                   f"max ratio {hess_ratio:.6f} vs bound {hess_bound:.6f}"))

    params = setup.params
    if setup.v_max is not None:
        rep_top = check_second_order_point(problem, manifold.point(setup.v_max), params.epsilon, params.lip_hess)
        checks.append(("criticality_at_dominant", rep_top.verdict, f"min eig {rep_top.min_eig_pullback:.6f}"))
    rep_saddle = check_second_order_point(problem, setup.saddle, params.epsilon, params.lip_hess)
    checks.append(("criticality_at_saddle", not rep_saddle.verdict, f"min eig {rep_saddle.min_eig_pullback:.6f}"))

    trace = prgd(problem, setup.saddle, params, RngStream(args.seed, 0), terminate_on_no_decrease=True)
    audit = audit_trace(trace, params)
    checks.append(("trace_audit", audit.ok,
                   audit.first_violation or
                   f"{audit.n_manifold_steps} manifold steps, {audit.n_phases} phases clean"))

    coupling_chi = 24.0 if isinstance(problem, PcaProblem) else 20.0
    coupling_eps = args.eps if isinstance(problem, PcaProblem) else 0.01
    cparams = derive_params(
        epsilon=coupling_eps, delta=params.delta, dim=params.dim,
        ell=params.ell, lip_grad=params.lip_grad, lip_hess=params.lip_hess,
        ball=params.ball, gap=params.gap, mode="practical", chi=coupling_chi,
    )
    try:
        drops = coupling_experiment(problem, setup.saddle, cparams, 2.0 * cparams.radius)
        ok = min(drops) <= -cparams.score_drop
        detail = f"min drop {min(drops):.3e} vs -score_drop {-cparams.score_drop:.3e}"
    except ValueError as exc:
        ok, detail = False, str(exc)
    checks.append(("coupling_escape", ok, detail))

    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


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
