"""Acceptance suite: one test per criterion, each printing its own PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from prgd.cli import escape_study
from prgd.descent import (
    BOUNDARY_TRUNCATION,
    MANIFOLD_STEP,
    TANGENT_STEP,
    PrgdParams,
    boundary_alpha,
    derive_params,
    prgd,
)
from prgd.manifolds import Euclidean, Sphere
from prgd.numerics import RngStream
from prgd.problems import PcaProblem, QuadraticSaddle, synthetic_matrix
from prgd.pullback import Pullback
from prgd.verify import audit_trace, coupling_experiment, random_point
from fd_oracles import fd_gradient
from near_bar import near_bar_matrix
from conftest import collapsed, evaluated_points, recorded
from reference_pgd import reference_pgd


def report(num, name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def reduction_runs():
    """20 seeded flat-space runs with the independently coded PGD comparator."""
    h = np.diag([-0.5, 0.8, 1.0, 0.3, 0.9, -0.2, 0.6, 1.0, 0.7, 0.4])
    problem = QuadraticSaddle(h)
    params = PrgdParams(epsilon=0.3, delta=0.1, dim=10, ell=1.0, lip_grad=1.0,
                        lip_hess=1.0, ball=math.inf, gap=2.0, chi=4.0,
                        eta=1.0, radius=0.05, horizon=10, score_drop=1e-6,
                        locality=1e-2, budget=200, mode="practical")
    f = lambda v: 0.5 * float(v @ (h @ v))
    grad_f = lambda v: h @ v
    start = time.perf_counter()
    runs = []
    for i in range(20):
        raw, _ = RngStream(1000 + i, 500).standard_normal(10)
        x0 = problem.manifold.point(0.01 * raw)
        with evaluated_points(problem) as points:
            trace = prgd(problem, x0, params, RngStream(100 + i, i))
        ref_points = []
        ref_f = reference_pgd(recorded(f, ref_points), recorded(grad_f, ref_points), x0.coords, params.eta,
                              params.radius, params.horizon, params.epsilon, params.budget, params.gap,
                              RngStream(100 + i, i))
        runs.append((trace, collapsed(points), collapsed(ref_points), ref_f))
    elapsed = time.perf_counter() - start
    return {"problem": problem, "params": params, "runs": runs, "elapsed": elapsed}


@pytest.fixture(scope="module")
def pca_study():
    """The d=50 escape study (50 PRGD trials plus the RGD baseline)."""
    a, lams, vecs, _ = synthetic_matrix(50, RngStream(1, 2**48))
    problem = PcaProblem(a)
    saddle = problem.manifold.point(vecs[:, 1])
    consts = problem.constants()
    gap = problem.value(saddle) - (-0.5 * lams[0])
    params = derive_params(epsilon=1e-3, delta=0.1, dim=49, ell=consts.lip_grad,
                           lip_grad=consts.lip_grad, lip_hess=consts.lip_hess,
                           ball=math.inf, gap=gap, mode="practical", chi=4.0)
    start = time.perf_counter()
    trials = escape_study(problem, saddle, params, base_seed=1, trials=50,
                          algorithm="prgd", terminate=True, v_max=vecs[:, 0])
    baseline = escape_study(problem, saddle, params, base_seed=1, trials=50,
                            algorithm="rgd", terminate=True, v_max=vecs[:, 0])
    elapsed = time.perf_counter() - start
    return {"problem": problem, "params": params, "trials": trials,
            "baseline": baseline, "elapsed": elapsed}


def acceptance_traces(reduction_runs, pca_study):
    for trace, _, _, _ in reduction_runs["runs"]:
        yield trace, reduction_runs["params"]
    for res in pca_study["trials"]:
        yield res.trace, pca_study["params"]
    for res in pca_study["baseline"]:
        yield res.trace, pca_study["params"]


# ---------------------------------------------------------------- criteria


def test_criterion_01_euclidean_reduction(reduction_runs):
    mismatches = 0
    for trace, points, ref_points, ref_f in reduction_runs["runs"]:
        mine = [ev.f for ev in trace.events
                if ev.kind in (MANIFOLD_STEP, TANGENT_STEP, BOUNDARY_TRUNCATION)]
        # the fused oracle's points, consecutive repeats collapsed, are the reference's; the run ends at the last
        if not (points == ref_points and mine == ref_f and trace.final_point.coords.tobytes() == points[-1]):
            mismatches += 1
    ok = mismatches == 0 and reduction_runs["elapsed"] < 5.0
    report(1, "euclidean reduction", ok,
           f"20 runs bit-identical to reference PGD, {reduction_runs['elapsed']:.2f}s")


def test_criterion_02_pca_escape(pca_study):
    trials = pca_study["trials"]
    escape_rate = sum(res.report.verdict for res in trials) / len(trials)
    escz = [res for res in trials if res.report.verdict]
    min_alignment = min(res.alignment for res in escz) if escz else 0.0
    baseline_escapes = sum(res.report.verdict for res in pca_study["baseline"])
    ok = (escape_rate >= 0.9 and min_alignment >= 0.99 and baseline_escapes == 0
          and pca_study["elapsed"] < 60.0)
    report(2, "pca escape", ok,
           f"escape_rate={escape_rate:.2f}, min alignment={min_alignment:.6f}, "
           f"rgd escapes={baseline_escapes}, {pca_study['elapsed']:.1f}s")


def test_criterion_03_lipschitz_constants():
    from prgd.verify import empirical_grad_lipschitz, empirical_hess_lipschitz

    a, _, _, _ = synthetic_matrix(20, RngStream(11, 2**48))
    problem = PcaProblem(a)
    start = time.perf_counter()
    grad_ratio = empirical_grad_lipschitz(problem, ball=5.0, n_samples=10_000,
                                          rng=RngStream(40, 0))
    hess_ratio = empirical_hess_lipschitz(problem, ball=5.0, n_samples=10_000,
                                          rng=RngStream(41, 0))
    elapsed = time.perf_counter() - start
    ok = grad_ratio <= 2.5 * problem.norm and hess_ratio <= 9.0 * problem.norm and elapsed < 120.0
    report(3, "lipschitz constants", ok,
           f"grad {grad_ratio:.4f} <= {2.5 * problem.norm:.4f}, "
           f"hess {hess_ratio:.4f} <= {9.0 * problem.norm:.4f}, {elapsed:.1f}s")


def test_criterion_04_pullback_gradient():
    a, _, _, _ = synthetic_matrix(6, RngStream(21, 2**48))
    problems = [PcaProblem(a), QuadraticSaddle(np.diag([-0.4, 0.7, 1.0, 0.2, 0.9]))]
    worst = 0.0
    rng = RngStream(42)
    for problem in problems:
        manifold = problem.manifold
        for _ in range(100):
            x, rng = random_point(manifold, rng)
            s, rng = manifold.sample_ball(x, 0.5, rng)
            pull = Pullback(problem, x)
            basis = manifold.tangent_basis(x)
            u = basis.T @ s.coords

            def phi(uu):
                return problem.value(manifold.point(manifold._retract_array(x.coords, basis @ uu)))

            fd = fd_gradient(phi, u)
            got = basis.T @ pull.gradient(s).coords
            worst = max(worst, float(np.linalg.norm(got - fd)) / max(float(np.linalg.norm(fd)), 1e-12))
    report(4, "pullback gradient vs finite differences", worst <= 1e-6,
           f"worst relative error {worst:.3e} over 200 samples")


def test_criterion_05_large_gradient_decrease(reduction_runs, pca_study):
    violations = []
    n_steps = 0
    for trace, params in acceptance_traces(reduction_runs, pca_study):
        audit = audit_trace(trace, params)
        violations.extend(v for v in audit.violations if "large-gradient" in v)
        n_steps += audit.n_manifold_steps
    report(5, "large-gradient decrease", not violations,
           f"{n_steps} manifold steps, {len(violations)} violations")


def test_criterion_06_improve_or_localize(reduction_runs, pca_study):
    violations = []
    n_steps = 0
    for trace, params in acceptance_traces(reduction_runs, pca_study):
        audit = audit_trace(trace, params)
        violations.extend(v for v in audit.violations if "localization" in v)
        n_steps += audit.n_tangent_steps
    report(6, "improve or localize", not violations,
           f"{n_steps} tangent steps, {len(violations)} violations")


def test_criterion_07_coupling():
    problem = QuadraticSaddle(np.diag([-0.2, 1.0]))
    x = problem.manifold.point([0.0, 0.0])
    params = derive_params(epsilon=0.01, delta=0.1, dim=2, ell=1.0, lip_grad=1.0,
                           lip_hess=1.0, ball=math.inf, gap=1.0, mode="practical", chi=20.0)
    assert params.horizon == 200
    omega = 2.0 ** (2.0 - params.chi) * params.ell * params.locality
    assert omega < 2.0 * params.radius
    start = time.perf_counter()
    drops = [coupling_experiment(problem, x, params, r0) for r0 in (1.5 * omega, 2.0 * params.radius)]
    elapsed = time.perf_counter() - start
    ok = all(min(d1, d2) <= -params.score_drop for d1, d2 in drops) and elapsed < 1.0
    report(7, "coupling escape", ok,
           f"min drops {[f'{min(d):.2e}' for d in drops]} <= {-params.score_drop:.2e}, {elapsed:.3f}s")


def test_criterion_08_boundary_truncation():
    rng = RngStream(8)
    failures = 0
    for _ in range(1000):
        dims, rng = rng.uniform()
        dim = 2 + int(dims * 7)
        raw, rng = rng.standard_normal(dim)
        frac, rng = rng.uniform()
        scale, rng = rng.uniform()
        ball = 0.5 + 2.0 * scale
        s = raw / np.linalg.norm(raw) * (0.98 * ball * frac)
        g, rng = rng.standard_normal(dim)
        eta_frac, rng = rng.uniform()
        eta = 0.1 + eta_frac
        boost, rng = rng.uniform()
        need = (ball + float(np.linalg.norm(s)) + 1e-3) / (eta * float(np.linalg.norm(g)))
        g = g * need * (1.0 + boost)
        alpha = boundary_alpha(s, g, eta, ball)
        if not (0.0 < alpha <= 1.0 and abs(np.linalg.norm(s - alpha * eta * g) - ball) <= 1e-12 * ball):
            failures += 1
    report(8, "boundary truncation", failures == 0, f"1000 random instances, {failures} failures")


def test_criterion_09_second_order_retraction():
    sphere = Sphere(8)
    rng = RngStream(9)
    worst = 0.0
    for _ in range(100):
        x, rng = random_point(sphere, rng)
        raw, rng = sphere.sample_ball(x, 1.0, rng)
        unit = sphere.project(x, raw.coords / raw.norm)
        worst = max(worst, sphere.check_second_order(x, unit))
    euclid = Euclidean(8)
    flat_exact = True
    for _ in range(10):
        x, rng = random_point(euclid, rng)
        raw, rng = euclid.sample_ball(x, 1.0, rng)
        unit = euclid.project(x, raw.coords / raw.norm)
        flat_exact = flat_exact and euclid.check_second_order(x, unit) == 0.0
    ok = worst <= 1e-6 and flat_exact
    report(9, "second-order retraction", ok,
           f"sphere max residual {worst:.3e}, euclidean exactly zero: {flat_exact}")


def test_criterion_10_parameter_pipeline():
    eps, delta, dim, ell, rho, gap = 0.01, 0.1, 4, 1.0, 1.0, 1.0
    # oracle: direct numeric evaluation of the balancing equations
    chi0 = 4.0 * math.log2(2**31 * ell**2 * math.sqrt(dim) * gap / (delta * math.sqrt(rho) * eps**2.5))
    root = math.sqrt(rho * eps)
    horizon = math.ceil(ell * chi0 / root)
    chi = horizon * root / ell
    eta = 1.0 / ell
    radius = eps / (400.0 * chi**3)
    score = eps**1.5 / (50.0 * chi**3 * math.sqrt(rho))
    locality = math.sqrt(eps / rho) / (4.0 * chi)
    budget = math.ceil(8.0 * max(horizon / 3.0, gap * horizon / score, gap / (eta * eps**2)))

    params = derive_params(epsilon=eps, delta=delta, dim=dim, ell=ell, lip_grad=ell,
                           lip_hess=rho, ball=1.0, gap=gap, mode="theoretical")
    checks = {
        "chi": (params.chi, chi),
        "eta": (params.eta, eta),
        "radius": (params.radius, radius),
        "score_drop": (params.score_drop, score),
        "locality": (params.locality, locality),
        "horizon": (float(params.horizon), float(horizon)),
        "budget": (float(params.budget), float(budget)),
    }
    worst = max(abs(got - want) / abs(want) for got, want in checks.values())
    report(10, "parameter pipeline", worst <= 1e-12,
           f"chi0={chi0:.12f}, horizon={horizon}, worst relative mismatch {worst:.2e}")


@pytest.mark.parametrize("kappa", [1.1, 3.0])
def test_theoretical_mode_escapes_saddles_near_the_curvature_bar(kappa):
    # fixed before the first run, not tuned: d = 20, ball 1.0, eps = 1e-3, 20 trials on RngStream(1 + i, i)
    eps = 1e-3
    matrix, q = near_bar_matrix(20, kappa, eps)
    problem = PcaProblem(matrix)
    saddle = problem.manifold.point(q[:, 1])
    consts = problem.constants()
    params = derive_params(epsilon=eps, delta=0.1, dim=19, ell=consts.lip_grad, lip_grad=consts.lip_grad,
                           lip_hess=consts.lip_hess, ball=1.0, gap=problem.value(saddle) - problem.f_star,
                           mode="theoretical")
    trials = escape_study(problem, saddle, params, base_seed=1, trials=20, v_max=q[:, 0])
    escaped = [res for res in trials if res.alignment >= 0.99]
    assert len(escaped) >= 0.9 * len(trials), f"{len(escaped)}/20 escaped at kappa {kappa}"
    assert all(res.report.verdict for res in escaped), [res.report.as_dict() for res in escaped]
