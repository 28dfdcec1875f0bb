"""Executable checks: criticality reports, Lipschitz bounds, trace audits, coupled escapes, `prgd verify`, studies."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .descent import (
    BOUNDARY_TRUNCATION,
    MANIFOLD_STEP,
    PERTURBATION,
    TANGENT_STEP,
    PrgdParams,
    RunTrace,
    derive_params,
    prgd,
    prgd_lockstep,
    rgd,
    tangent_space_steps,
)
from .manifolds import Point, Sphere, Tangent
from .numerics import (
    NumericalError,
    RngStream,
    _check_count,
    _check_finite,
    _check_positive_finite,
    _eigenvalues,
    _min_eigenvalue,
    _norm,
    _operator_norm_bounds,
    _rekey,
    _unit_ball_rows,
    fd_hessian_from_gradients,
    min_eigpair,
    sample_unit_ball,
)
from .problems import PcaProblem
from .pullback import Pullback, pullback_gradient_rows, pullback_step

AUDIT_SLACK = 1e-9
DECREASE_SLACK = 1e-12
# a Lipschitz sample needs ||s|| >= MIN_SAMPLE_NORM, so the ball must be wider
MIN_SAMPLE_NORM = 1e-8
# a draw with ball * u^(1/k) below this may round to a tangent shorter than MIN_SAMPLE_NORM; the
# tangent's norm is ball * u^(1/k) to a relative round-off far below this margin
MAYBE_SHORT = MIN_SAMPLE_NORM * (1.0 + 1e-6)
# samples per stacked block of a Lipschitz sweep, and a cap on one block's floats: a sweep sample's n
# or 2k*n gradient rows, or a certificate point's 2k*n. At d=20 the sample cap binds for both sweeps (the
# float cap allows 172 Hessian samples); at n=300 a Hessian block holds one sample. On lipschitz-pca-d20
# (one BLAS thread, 2 vCPUs, median of 3 10-s runs) a cap of 8, 16, 32 and 64 gave 11,014, 13,754,
# 15,607 and 16,618 samples/s at 39.1, 39.6, 39.8 and 40.8 MiB peak RSS.
SWEEP_CHUNK = 64
SWEEP_BLOCK_FLOATS = 2**17
# the step budget of an rgd study when none is given
RGD_MAX_ITERS = 100_000


@dataclass(frozen=True)
class CriticalityReport:
    """Second-order criticality check at one point.

    `min_eig_pullback` is lambda_min of the pullback Hessian at the origin, in
    one orthonormal tangent basis, from an eigenvalues-only solve; both
    retractions here are second order, so it is also lambda_min of the
    Riemannian Hessian. The report holds only the numbers it reports.
    """

    grad_norm: float
    min_eig_pullback: float
    eps: float
    rho: float
    verdict: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _bottom_eigpair(pull: Pullback) -> tuple[float, Tangent]:
    """`min_eigpair` of the pullback Hessian at the origin, which is exactly symmetric, so `as_sym_matrix` gives it
    back bit for bit, the vector mapped to an ambient tangent by the frame. The sign rule holds in the tangent
    basis: the vector's largest-magnitude basis coordinate is positive."""
    lam, vec = min_eigpair(pull.hessian_at_zero())
    ambient = pull.manifold._basis_apply_array(pull.frame, vec)
    return lam, Tangent(pull.base, pull.manifold._project_array(pull.base.coords, ambient))


def riemannian_hessian_matrix(problem, x: Point) -> np.ndarray:
    """Riemannian Hessian in an orthonormal tangent basis, by differencing the gradient field.

    Hess f(x)[u] is the tangent projection of the derivative of the gradient
    field along the retraction curve through u. Central differences of the exact
    gradient, 2k gradient evaluations, O(k*n) memory, give it to O(h^2); taking
    them in the tangent basis applies the projection.
    """
    manifold = problem.manifold
    manifold._check_point(x)
    return fd_hessian_from_gradients(
        lambda tangents: problem.riemannian_gradient_many(manifold.retract_many(x.coords, tangents)),
        manifold, x.coords, manifold._tangent_frame_array(x.coords), 0.0)


def check_second_order_point(problem, x: Point, eps: float, rho: float) -> CriticalityReport:
    """Evaluate the eps-second-order conditions at x: the one-point call of `check_second_order_points`."""
    return check_second_order_points(problem, [x], eps, rho)[0]


def check_second_order_points(problem, points, eps: float, rho: float) -> list[CriticalityReport]:
    """Evaluate the eps-second-order conditions at each point: small gradient, bounded negative curvature.

    lambda_min comes from an eigenvalues-only solve. The FD Hessians are built in stacked blocks of about
    SWEEP_BLOCK_FLOATS floats of gradient rows, 2k*n a point (at least one point a block): one FD Hessian
    stack and one `eigvalsh` stack per block, and no tangent basis. Each matrix of a stack gets its own
    gemv and LAPACK call, so every report has the bits of a one-point call.
    """
    _check_positive_finite(eps=eps, rho=rho)
    # the validated gradient checks each point too
    grad_norms = [float(np.linalg.norm(problem.riemannian_gradient(x).coords)) for x in points]
    manifold = problem.manifold
    k = manifold.intrinsic_dim
    block = max(1, SWEEP_BLOCK_FLOATS // (2 * k * manifold.ambient_dim))
    lams = []
    for first in range(0, len(points), block):
        x = np.stack([point.coords for point in points[first:first + block]])
        # the FD Hessians are exactly symmetric, so the eigensolver skips `min_eigpair`'s symmetry check
        hess = fd_hessian_from_gradients(partial(pullback_gradient_rows, problem, x), manifold, x,
                                         manifold._tangent_frame_array(x), 0.0)
        lams += _min_eigenvalue(hess)
    bar = -math.sqrt(rho * eps)
    return [CriticalityReport(grad_norm, lam, eps, rho, bool(grad_norm <= eps and lam >= bar))
            for grad_norm, lam in zip(grad_norms, lams)]


def random_point(manifold, rng: RngStream) -> tuple[Point, RngStream]:
    """Uniform point on the sphere (normalized Gaussian) or standard Gaussian in R^d: one row of `_random_points`."""
    gauss, rng = rng.standard_normal(manifold.ambient_dim)
    return Point(manifold, _random_points(manifold, gauss)), rng


def _random_points(manifold, gauss: np.ndarray) -> np.ndarray:
    """Points from rows of standard normals, normalized on the sphere, with `manifold.point`'s checks."""
    x = gauss / _norm(gauss, keepdims=True) if isinstance(manifold, Sphere) else gauss
    _check_finite(x)
    manifold._check_point_rows(x)
    return x


def _draw_chunk(manifold, ball, count, rng):
    """Up to `count` samples (x, tangent frames at x, s) and the advanced stream, drawn in stream order.

    Each sample draws a random point x, then unit-ball draws until its tangent s in
    the ball has ||s|| >= MIN_SAMPLE_NORM. Per sample only the raw draws are made,
    into preallocated rows; the points, unit-ball draws, tangent frames and tangents
    of the whole chunk follow in one stacked pass. A row whose tangent might be short
    (ball * u^(1/k) < MAYBE_SHORT) ends the chunk, since its redraws move every
    later row's draws down the stream; so no draw is made and then thrown away, and
    only that last row can need redraws, which follow one at a time.
    """
    k = manifold.intrinsic_dim
    inv_k = 1.0 / k
    gauss = np.empty((count, manifold.ambient_dim))
    direction = np.empty((count, k))
    u = []
    seed, stream, index = rng.seed, rng.stream, rng.index
    for row, ball_row in zip(gauss, direction):
        if index >= 2**64 - 2:
            # the sample's second advance would step past the last index: `_next`'s error
            RngStream(seed, stream, 2**64 - 1)._next()
        # the draws of `random_point` at one index, then those of `sample_unit_ball` at the next
        _rekey(seed, stream, index).standard_normal(out=row)
        gen = _rekey(seed, stream, index + 1)
        gen.standard_normal(out=ball_row)
        u.append(gen.random())
        index += 2
        # the radius `_unit_ball_rows` gives this row, by the same Python float power
        if ball * u[-1] ** inv_k < MAYBE_SHORT:
            break
    rng = RngStream(seed, stream, index)
    count = len(u)
    x = _random_points(manifold, gauss[:count])
    frame = manifold._tangent_frame_array(x)
    s = manifold._ball_tangent_array(x, frame, ball, _unit_ball_rows(direction[:count], u))
    # a row flagged as maybe short can still turn out long, and keep its first draw; its redraws take its own frame
    while _norm(s[-1]) < MIN_SAMPLE_NORM:
        unit, rng = sample_unit_ball(k, rng)
        s[-1] = manifold._ball_tangent_array(x[-1], manifold._tangent_frame_array(x[-1]), ball, unit)
    return x, frame, s, rng


def _sweep(problem, ball, n_samples, rng, block_ratios, rows_per_sample):
    """Max of the ratios over n_samples samples, drawn in stream order.

    Each chunk of samples is evaluated as one stacked block: at most SWEEP_CHUNK = 64 samples
    and about SWEEP_BLOCK_FLOATS floats of their rows_per_sample rows, ended early at a sample
    whose tangent might be short (see `_draw_chunk`). `block_ratios(x, s, frame, worst)` returns
    the ratios of the block's samples that may exceed the running max `worst`, given the block's
    tangent frame; a non-finite one raises.
    """
    _check_count(1, n_samples=n_samples)
    if not (MIN_SAMPLE_NORM < ball < math.inf):
        raise ValueError(f"ball must lie in ({MIN_SAMPLE_NORM}, inf), got {ball!r}")
    manifold = problem.manifold
    n = manifold.ambient_dim
    chunk = max(1, min(SWEEP_CHUNK, SWEEP_BLOCK_FLOATS // (rows_per_sample * n)))
    worst = 0.0
    done = 0
    while done < n_samples:
        x, frame, s, rng = _draw_chunk(manifold, ball, min(chunk, n_samples - done), rng)
        ratios = block_ratios(x, s, frame, worst)
        if not np.all(np.isfinite(ratios)):
            raise NumericalError("non-finite pullback gradient or Lipschitz ratio")
        worst = max(worst, float(ratios.max(initial=0.0)))
        done += len(x)
    return worst


def empirical_grad_lipschitz(problem, ball: float, n_samples: int, rng: RngStream) -> float:
    """Max of ||grad-pullback(s) - grad-pullback(0)|| / ||s|| over random base points and s."""

    def block_ratios(x, s, _, __):
        g_s = pullback_step(problem, x, s)[3]
        g_0 = problem._value_and_gradient_array(x)[1]
        return _norm(g_s - g_0) / _norm(s)

    return _sweep(problem, ball, n_samples, rng, block_ratios, 1)


def empirical_hess_lipschitz(problem, ball: float, n_samples: int, rng: RngStream) -> float:
    """Max operator-norm ratio ||hess-pullback(s) - hess-pullback(0)|| / ||s||, intrinsic basis.

    Each block bounds before it solves: `_operator_norm_bounds` gives every difference an upper bound
    on its operator norm from one stacked matmul and one `vecdot`, and only the samples whose bound
    over ||s|| exceeds the running max are solved, largest bound first, each raising the max. A skipped
    sample's ratio is at most its bound over ||s|| (correctly rounded division keeps the order), which
    is at most the max, so the max has the bits of solving every sample. On criterion 3's d=20 PCA
    problem (stream 41) the 200-sample sweep solves 3 samples and the 10^4-sample sweep 9. Non-finite
    entries, a size above EIG_DIM_LIMIT or entries of 2^1023 or more raise what `operator_norm` raises, solved or not.
    """
    manifold = problem.manifold

    def block_ratios(x, s, frame, worst):
        gradients = partial(pullback_gradient_rows, problem, x)
        # s projected onto the tangent space, as `Pullback.hessian_at` centres it
        center = manifold._project_array(x, s)[:, None, :]
        diff = (fd_hessian_from_gradients(gradients, manifold, x, frame, center)
                - fd_hessian_from_gradients(gradients, manifold, x, frame, 0.0))
        norms = _norm(s)
        bounds = _operator_norm_bounds(diff) / norms
        ratios = []
        for i in np.argsort(bounds)[::-1]:
            if bounds[i] <= worst:
                break
            # a difference of two exactly symmetric FD Hessians is exactly symmetric, and
            # `operator_norm`'s symmetrizing pass 0.5 * (m + m.mT) would give it back bit for bit
            ratios.append(np.abs(_eigenvalues(diff[i])).max() / norms[i])
            worst = max(worst, ratios[-1])
        return np.array(ratios)

    return _sweep(problem, ball, n_samples, rng, block_ratios, 2 * manifold.intrinsic_dim)


@dataclass
class TraceAuditReport:
    """Outcome of auditing a trace against the decrease and localization inequalities."""

    violations: list[str] = field(default_factory=list)
    n_manifold_steps: int = 0
    n_phases: int = 0
    n_tangent_steps: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> str | None:
        return self.violations[0] if self.violations else None


def audit_trace(trace: RunTrace, params: PrgdParams) -> TraceAuditReport:
    """Audit every step of a trace: sufficient decrease, large-gradient progress, localization.

    Checks, with round-off slack only: each step decreases the (pullback)
    value by at least (alpha*eta/2)*||grad||^2; each manifold step with
    ||grad|| > epsilon decreases f by at least eta*epsilon^2/2; and along
    each tangent phase, ||s_j - s_0|| <= sqrt(2*eta*j*(f(s_0) - f(s_j))).
    """
    report = TraceAuditReport()
    eta = params.eta
    phase_f0 = None
    f_prev = None
    for ev in trace.events:
        if ev.kind == MANIFOLD_STEP:
            report.n_manifold_steps += 1
            if ev.f_before is None or ev.alpha is None or ev.grad_norm is None:
                report.violations.append(f"t={ev.t}: manifold step lacks audit fields")
                continue
            bound = -(ev.alpha * eta / 2.0) * ev.grad_norm**2
            if ev.f - ev.f_before > bound + DECREASE_SLACK:
                report.violations.append(
                    f"t={ev.t}: step decrease {ev.f - ev.f_before:.6e} above sufficient-decrease bound {bound:.6e}"
                )
            if ev.grad_norm > params.epsilon:
                drop = ev.f_before - ev.f
                need = eta * params.epsilon**2 / 2.0
                if drop < need - AUDIT_SLACK:
                    report.violations.append(
                        f"t={ev.t}: large-gradient step dropped f by {drop:.6e} < {need:.6e}"
                    )
        elif ev.kind == PERTURBATION:
            report.n_phases += 1
            phase_f0 = ev.f
            f_prev = ev.f
        elif ev.kind in (TANGENT_STEP, BOUNDARY_TRUNCATION):
            report.n_tangent_steps += 1
            if phase_f0 is None or f_prev is None or ev.alpha is None or ev.grad_norm is None:
                report.violations.append(f"t={ev.t}: tangent step outside a phase or lacking fields")
                continue
            bound = -(ev.alpha * eta / 2.0) * ev.grad_norm**2
            if ev.f - f_prev > bound + DECREASE_SLACK:
                report.violations.append(
                    f"t={ev.t} j={ev.step}: tangent decrease {ev.f - f_prev:.6e} above bound {bound:.6e}"
                )
            if ev.dist_start is not None and ev.step is not None:
                # recorded f values carry ~ulp(|f|) error; a drop below that
                # resolution must not collapse the localization bound
                drop = phase_f0 - ev.f + 4.0 * np.finfo(float).eps * max(abs(phase_f0), abs(ev.f))
                budget = math.sqrt(max(2.0 * eta * ev.step * drop, 0.0))
                if ev.dist_start > budget + AUDIT_SLACK:
                    report.violations.append(
                        f"t={ev.t} j={ev.step}: moved {ev.dist_start:.6e} beyond localization bound {budget:.6e}"
                    )
            f_prev = ev.f
    return report


def coupling_experiment(problem, x: Point, params: PrgdParams, r0: float) -> tuple[float, float]:
    """Deterministic two-start escape test along the most negative curvature direction.

    Starts the tangent loop at +/-(eta*r0/2) times the bottom eigenvector of
    the pullback Hessian (`_bottom_eigpair`), and returns both value
    decreases after the full horizon; when the hypotheses hold, the smaller
    decrease is at most -score_drop. One FD Hessian gives lambda_min and the vector.
    """
    _check_positive_finite(r0=r0)
    pull = Pullback(problem, x)
    lam, eigvec = _bottom_eigpair(pull)
    bar = -math.sqrt(params.lip_hess * params.epsilon)
    if lam > bar:
        raise ValueError(
            f"hypothesis failed: lambda_min of the pullback Hessian is {lam:.6e} > -sqrt(rho*eps) = {bar:.6e}"
        )
    omega = 2.0 ** (2.0 - params.chi) * params.ell * params.locality
    if not r0 > omega:
        raise ValueError(f"hypothesis failed: r0 = {r0:.6e} must exceed omega = {omega:.6e}")
    half = params.eta * r0 / 2.0
    if half > params.ball:
        raise ValueError("hypothesis failed: the starts do not fit in the tangent ball of radius b")
    reach = math.sqrt(2.0 * params.eta * params.horizon * params.score_drop) + half
    if reach > params.locality:
        raise ValueError(
            f"hypothesis failed: localization budget {reach:.6e} exceeds the locality radius {params.locality:.6e}"
        )
    drops = []
    for step in (half, -half):
        s0 = Tangent(x, step * eigvec.coords)
        f_start = pull.value(s0)
        _, events = tangent_space_steps(pull, s0, params.eta, params.ball, params.horizon)
        drops.append(events[-1].f - f_start)  # the last step's value is f at the phase's end
    return drops[0], drops[1]


def verification_checks(problem, saddle: Point, v_max, params: PrgdParams, seed: int,
                        samples: int) -> list[tuple[str, bool, str]]:
    """The `prgd verify` battery: (name, passed, detail) per check, in print order.

    Seven checks for a `PcaProblem`, whose dominant eigenvector `v_max` is certified beside the saddle,
    and six for a quadratic saddle. Each check draws from its own stream of `seed`.
    """
    manifold = problem.manifold
    if isinstance(problem, PcaProblem):
        consts = problem.constants()
        grad_bound, hess_bound = consts.lip_grad, consts.lip_hess
        coupling_chi, coupling_eps = 24.0, params.epsilon
        points = [manifold.point(v_max), saddle]
    else:
        grad_bound = problem.norm * (1.0 + 1e-9)
        hess_bound = 1e-4 * problem.norm
        coupling_chi, coupling_eps = 20.0, 0.01 * params.ell**2 / params.lip_hess
        points = [saddle]

    rng = RngStream(seed, 101)
    worst_acc = 0.0
    for _ in range(100):
        x, rng = random_point(manifold, rng)
        direction, rng = manifold.sample_ball(x, 1.0, rng)
        if direction.norm < 1e-12:
            continue
        unit = manifold.project(x, direction.coords / direction.norm)
        worst_acc = max(worst_acc, manifold.check_second_order(x, unit))
    checks = [("retraction_second_order", worst_acc <= 1e-6, f"max acceleration residual {worst_acc:.3e}")]
    grad_ratio = empirical_grad_lipschitz(problem, 5.0, samples, RngStream(seed, 102))
    checks.append(("gradient_lipschitz_bound", grad_ratio <= grad_bound,
                   f"max ratio {grad_ratio:.6f} vs bound {grad_bound:.6f}"))
    hess_ratio = empirical_hess_lipschitz(problem, 5.0, max(samples // 10, 10), rng=RngStream(seed, 103))
    checks.append(("hessian_lipschitz_bound", hess_ratio <= hess_bound,
                   f"max ratio {hess_ratio:.6f} vs bound {hess_bound:.6f}"))
    *top, rep_saddle = check_second_order_points(problem, points, params.epsilon, params.lip_hess)
    for rep in top:
        checks.append(("criticality_at_dominant", rep.verdict, f"min eig {rep.min_eig_pullback:.6f}"))
    checks.append(("criticality_at_saddle", not rep_saddle.verdict, f"min eig {rep_saddle.min_eig_pullback:.6f}"))
    audit = audit_trace(prgd(problem, saddle, params, RngStream(seed, 0), terminate_on_no_decrease=True), params)
    checks.append(("trace_audit", audit.ok,
                   audit.first_violation or f"{audit.n_manifold_steps} manifold steps, {audit.n_phases} phases clean"))
    cparams = derive_params(epsilon=coupling_eps, delta=params.delta, dim=params.dim, ell=params.ell,
                            lip_grad=params.lip_grad, lip_hess=params.lip_hess, ball=params.ball, gap=params.gap,
                            mode="practical", chi=coupling_chi)
    try:
        drops = coupling_experiment(problem, saddle, cparams, 2.0 * cparams.radius)
        ok = min(drops) <= -cparams.score_drop
        detail = f"min drop {min(drops):.3e} vs -score_drop {-cparams.score_drop:.3e}"
    except ValueError as exc:
        ok, detail = False, str(exc)
    checks.append(("coupling_escape", ok, detail))
    return checks


@dataclass
class TrialResult:
    seed: int
    stream: int
    trace: object
    report: object
    alignment: float | None


def escape_study(problem, x0: Point, params: PrgdParams, base_seed: int, trials: int,
                 algorithm: str = "prgd", terminate: bool = True,
                 rgd_max_iters: int = RGD_MAX_ITERS, v_max=None) -> list[TrialResult]:
    """Run `trials` seeded runs from x0; consecutive seeds, stream id = trial index.

    PRGD trials run in lockstep, as one `prgd_lockstep` block, whose traces
    keep each phase's steps in an array of its own until their events are read.
    `rgd` draws nothing, so its trials are one run: it runs and is certified
    once, and every trial record repeats it. The final points are certified
    by one `check_second_order_points` call, in stacked blocks of about
    `SWEEP_BLOCK_FLOATS` floats (at d=50, all of a 10-trial study).
    """
    _check_count(1, trials=trials)
    if algorithm == "rgd":
        traces = [rgd(problem, x0, params.eta, params.epsilon, rgd_max_iters)]
    else:
        traces = prgd_lockstep(problem, x0, params, [RngStream(base_seed + i, i) for i in range(trials)],
                               terminate_on_no_decrease=terminate)
    reports = check_second_order_points(problem, [trace.final_point for trace in traces], params.epsilon,
                                        params.lip_hess)
    if algorithm == "rgd":
        traces, reports = traces * trials, reports * trials
    return [TrialResult(base_seed + i, i, trace, report,
                        None if v_max is None else abs(float(trace.final_point.coords @ v_max)))
            for i, (trace, report) in enumerate(zip(traces, reports))]
