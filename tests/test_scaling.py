"""Scale equivariance as a bit-exact oracle: a cost scaled by c = 4^k repeats every run bit for bit.

Scale A (or H) by c, and epsilon, rho, ell, the gradient Lipschitz constant and the gap with it. Every parameter
formula is homogeneous in that scale, and multiplying by a power of 4, or taking the square root of one, is
exact in binary. So the horizon, the budget, chi, the locality and every tangent norm stay the same, and f, the
gradient norms, epsilon, the radius, the score drop, the gap, ell, lambda_min and the Lipschitz ratios are c
times their unscaled values, to the bit. A formula with the wrong units (an exponent off, ell in place of
ell^2) or an absolute constant on a scaled quantity breaks this.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from prgd.cli import EXIT_OK, main
from prgd.descent import derive_params, prgd_lockstep
from prgd.numerics import RngStream
from prgd.problems import PcaProblem, QuadraticSaddle, save_matrix, synthetic_matrix
from prgd.verify import check_second_order_points, empirical_grad_lipschitz, empirical_hess_lipschitz

# (problem, ball, mode); theoretical mode needs a finite ball, and a ball of 0.5 or 1.0 truncates a step
CASES = [
    ("pca", math.inf, "practical"),
    ("pca", 0.5, "practical"),
    ("pca", 0.5, "theoretical"),
    ("quadratic_saddle", 1.0, "practical"),
    ("quadratic_saddle", 1.0, "theoretical"),
]
# epsilon 0.1 keeps a theoretical horizon near 700 ticks
EPSILON = {"practical": 1e-3, "theoretical": 0.1}
# the parameters that do not scale, and those that scale by c; eta = 1/ell scales by 1/c
SAME = ("delta", "dim", "ball", "chi", "horizon", "locality", "budget", "mode")
SCALED = ("epsilon", "lip_grad", "lip_hess", "ell", "gap", "radius", "score_drop")
# the fields of a study's trial record that scale by c; every other field is equal
SCALED_RECORD = ("final_f", "final_grad_norm", "min_eig_pullback")


def scaled_run(name, d, ball, mode, seed, c):
    """derive_params on inputs scaled by c, then a two-row `prgd_lockstep` from the saddle with terminate,
    the certificates at its final points and both Lipschitz sweeps."""
    matrix, _, q, _ = synthetic_matrix(d, RngStream(1, 2**48))
    if name == "pca":
        problem = PcaProblem(c * matrix)
        consts = problem.constants()
        lip_grad, lip_hess = consts.lip_grad, consts.lip_hess
        x0 = problem.manifold.point(q[:, 1])
        gap = problem.value(x0) - problem.f_star
    else:
        # H has the eigenvalues 0.5, -0.5, -0.5 - 1/d, ...: the origin is a strict saddle
        problem = QuadraticSaddle(c * (matrix - 1.5 * np.eye(d)))
        lip_grad, lip_hess, gap = problem.norm, c * 1.0, c * 1.0
        x0 = problem.manifold.point(np.zeros(d))
    params = derive_params(epsilon=c * EPSILON[mode], delta=0.1, dim=problem.manifold.intrinsic_dim, ell=lip_grad,
                           lip_grad=lip_grad, lip_hess=lip_hess, ball=ball, gap=gap, mode=mode,
                           chi=4.0 if mode == "practical" else None)
    traces = prgd_lockstep(problem, x0, params, [RngStream(seed + i, i) for i in range(2)],
                           terminate_on_no_decrease=True)
    reports = check_second_order_points(problem, [trace.final_point for trace in traces], params.epsilon,
                                        params.lip_hess)
    sweeps = (empirical_grad_lipschitz(problem, 5.0, 16, RngStream(seed, 102)),
              empirical_hess_lipschitz(problem, 5.0, 4, RngStream(seed, 103)))
    return params, traces, reports, sweeps


def times(c, value):
    return None if value is None else c * value


# 26 examples, about 1 s on one core; the two explicit ones are the ends of the k range
@settings(max_examples=24, deadline=None)
@given(case=st.sampled_from(CASES), d=st.integers(3, 8), seed=st.integers(0, 2**32), k=st.integers(-20, 20))
@example(case=CASES[0], d=8, seed=1, k=20)
@example(case=CASES[4], d=3, seed=2, k=-20)
def test_a_cost_scaled_by_a_power_of_four_repeats_every_run_bit_for_bit(case, d, seed, k):
    name, ball, mode = case
    c = 4.0**k
    params, traces, reports, sweeps = scaled_run(name, d, ball, mode, seed, 1.0)
    params_c, traces_c, reports_c, sweeps_c = scaled_run(name, d, ball, mode, seed, c)

    for field in SAME:
        assert getattr(params_c, field) == getattr(params, field), field
    for field in SCALED:
        assert getattr(params_c, field) == c * getattr(params, field), field
    assert params_c.eta == params.eta / c

    for trace, trace_c in zip(traces, traces_c, strict=True):
        expected = [ev._replace(f=c * ev.f, grad_norm=times(c, ev.grad_norm), f_before=times(c, ev.f_before))
                    for ev in trace.events]
        assert trace_c.events == expected
        assert (trace_c.terminated, trace_c.gradient_queries, trace_c.final_t, trace_c.suspected_second_order) == (
            trace.terminated, trace.gradient_queries, trace.final_t, trace.suspected_second_order)
        assert (trace_c.final_f, trace_c.final_grad_norm) == (c * trace.final_f, c * trace.final_grad_norm)
        assert np.array_equal(trace_c.final_point.coords, trace.final_point.coords)
        assert np.array_equal(trace_c.last_small_grad_point.coords, trace.last_small_grad_point.coords)

    for report, report_c in zip(reports, reports_c, strict=True):
        assert (report_c.grad_norm, report_c.min_eig_pullback) == (c * report.grad_norm, c * report.min_eig_pullback)
        assert report_c.verdict == report.verdict

    assert sweeps_c == tuple(c * ratio for ratio in sweeps)


def cli_outputs(tmp_path, capsys, name, c):
    """`params`, a 3-trial `study` and `verify` through `cli.main` on c times the d=12 matrix of `scaled_run`, with
    --eps (and for the quadratic saddle --rho and --gap) scaled by c: the parameter record, the study summary,
    and verify's check verdicts and exit code."""
    matrix = synthetic_matrix(12, RngStream(1, 2**48))[0]
    if name == "pca":
        flags = ["--start", "saddle"]
    else:
        matrix = matrix - 1.5 * np.eye(12)
        flags = ["--start", "random", "--rho", repr(c * 1.0), "--gap", repr(c * 1.0)]
    folder = tmp_path / repr(c)
    folder.mkdir()
    path = folder / "matrix.txt"
    save_matrix(path, c * matrix)
    common = ["--problem", name, "--matrix", str(path), "--chi", "4", "--seed", "1", "--eps", repr(c * 1e-3), *flags]
    assert main(["params", *common]) == EXIT_OK
    params = json.loads(capsys.readouterr().out)
    assert main(["study", *common, "--trials", "3", "--out", str(folder / "study")]) == EXIT_OK
    summary = json.loads((folder / "study.summary.json").read_text(encoding="utf-8"))
    code = main(["verify", *common, "--samples", "100"])
    # "PASS name" or "FAIL name" per check, then the count line
    verdicts = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    return params, summary, verdicts, code


@pytest.mark.parametrize("name", ["pca", "quadratic_saddle"])
def test_the_cli_on_a_matrix_scaled_by_a_power_of_four_scales_its_outputs(name, tmp_path, capsys):
    params, summary, verdicts, code = cli_outputs(tmp_path, capsys, name, 1.0)
    records = summary.pop("trial_records")
    for k in (-1, 1):
        c = 4.0**k
        params_c, summary_c, verdicts_c, code_c = cli_outputs(tmp_path, capsys, name, c)
        for record, record_c in ((params, params_c), (summary["params"], summary_c.pop("params"))):
            assert record_c == record | {field: c * record[field] for field in SCALED} | {"eta": record["eta"] / c}
        assert summary_c.pop("trial_records") == [rec | {field: c * rec[field] for field in SCALED_RECORD}
                                                  for rec in records]
        assert summary_c == {key: val for key, val in summary.items() if key != "params"}
        assert (verdicts_c, code_c) == (verdicts, code)
