"""Executable checks: criticality reports, empirical Lipschitz bounds, trace audits, coupled escapes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .descent import (
    BOUNDARY_TRUNCATION,
    MANIFOLD_STEP,
    PERTURBATION,
    TANGENT_STEP,
    PrgdParams,
    RunTrace,
    tangent_space_steps,
)
from .errors import NumericalError
from .manifolds import Point, Sphere, Tangent
from .numerics import (
    RngStream,
    _check_finite,
    _min_eigpair,
    _norm,
    _unit_ball_rows,
    fd_hessian_from_gradients,
    operator_norm,
    sample_unit_ball,
)
from .pullback import Pullback, pullback_gradient_rows, pullback_step

AUDIT_SLACK = 1e-9
DECREASE_SLACK = 1e-12
# a Lipschitz sample needs ||s|| >= MIN_SAMPLE_NORM, so the ball must be wider
MIN_SAMPLE_NORM = 1e-8
# samples per stacked block of a Lipschitz sweep, and a cap on one block's floats (rows and tangent bases)
SWEEP_CHUNK = 8
SWEEP_BLOCK_FLOATS = 2**17


@dataclass(frozen=True)
class CriticalityReport:
    """Second-order criticality check at one point.

    `min_eig_pullback` is lambda_min of the pullback Hessian at the origin, in
    one orthonormal tangent basis; `eigvec` is its eigenvector in ambient
    coordinates. Both retractions here are second order, so this is also
    lambda_min of the Riemannian Hessian. The pair is `min_eigpair`'s: lambda
    from an eigenvalues-only solve, the vector from one inverse-iteration
    solve, with ||H v - lambda v|| <= 1e-9 * ||H|| in the tangent basis. Sign
    rule: the basis coordinates of the vector have their largest-magnitude
    entry positive (the first one on a tie), so `eigvec` does not depend on the
    LAPACK routine.
    """

    grad_norm: float
    min_eig_pullback: float
    eps: float
    rho: float
    verdict: bool
    eigvec: Tangent

    def as_dict(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "min_eig_pullback": self.min_eig_pullback,
            "eps": self.eps,
            "rho": self.rho,
            "verdict": self.verdict,
        }


def riemannian_hessian_matrix(problem, x: Point) -> np.ndarray:
    """Riemannian Hessian in an orthonormal tangent basis, by differencing the gradient field.

    Hess f(x)[u] is the tangent projection of the derivative of the gradient
    field along the retraction curve through u. Central differences of the exact
    gradient, 2k gradient evaluations, O(k*n) memory, give it to O(h^2); taking
    them in the tangent basis applies the projection.
    """
    manifold = problem.manifold
    return fd_hessian_from_gradients(
        lambda tangents: problem.riemannian_gradient_many(manifold.retract_many(x.coords, tangents)),
        0.0, manifold.tangent_basis(x))


def check_second_order_point(problem, x: Point, eps: float, rho: float) -> CriticalityReport:
    """Evaluate the eps-second-order conditions at x: small gradient, bounded negative curvature."""
    if not (eps > 0 and rho > 0):
        raise ValueError("eps and rho must be positive")
    problem._check_point(x)
    grad_norm = float(np.linalg.norm(problem.riemannian_gradient(x).coords))
    pull = Pullback(problem, x)
    # the FD Hessian is exactly symmetric, so the eigensolver skips `min_eigpair`'s symmetry check
    lam, vec = _min_eigpair(pull.hessian_at_zero())
    ambient = problem.manifold._project_array(x.coords, pull.basis @ vec)
    return CriticalityReport(
        grad_norm=grad_norm,
        min_eig_pullback=lam,
        eps=eps,
        rho=rho,
        verdict=bool(grad_norm <= eps and lam >= -math.sqrt(rho * eps)),
        eigvec=Tangent(x, ambient),
    )


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
    """Up to `count` samples (x, tangent bases at x, s) and the advanced stream, drawn in stream order.

    Each sample draws a random point x, then unit-ball draws until its tangent s in
    the ball has ||s|| >= MIN_SAMPLE_NORM. Per sample only the raw draws are made,
    into preallocated rows; the points, unit-ball draws, bases and tangents of the
    whole chunk follow in one stacked pass. A row that needs a redraw ends the
    chunk there, since every later row's draws move down the stream.
    """
    k = manifold.intrinsic_dim
    gauss = np.empty((count, manifold.ambient_dim))
    direction = np.empty((count, k))
    u, after = [], []
    for row, ball_row in zip(gauss, direction):
        # the draws of `random_point` at one index, then those of `sample_unit_ball` at the next
        rng._generator().standard_normal(out=row)
        rng = rng._next()
        gen = rng._generator()
        gen.standard_normal(out=ball_row)
        u.append(gen.random())
        rng = rng._next()
        after.append(rng)
    x = _random_points(manifold, gauss)
    bases = manifold._tangent_basis_array(x)
    s = manifold._ball_tangent_array(x, bases, ball, _unit_ball_rows(direction, u))
    short = np.flatnonzero(_norm(s) < MIN_SAMPLE_NORM)
    if short.size:
        last = short[0]
        x, bases, s, rng = x[:last + 1], bases[:last + 1], s[:last + 1], after[last]
        while _norm(s[last]) < MIN_SAMPLE_NORM:
            unit, rng = sample_unit_ball(k, rng)
            s[last] = manifold._ball_tangent_array(x[last], bases[last], ball, unit)
    return x, bases, s, rng


def _sweep(problem, ball, n_samples, rng, block_ratios, rows_per_sample):
    """Max of `block_ratios(x, s, bases)` over n_samples samples, drawn in stream order.

    Each chunk of samples is evaluated as one stacked block: at most SWEEP_CHUNK samples and
    about SWEEP_BLOCK_FLOATS floats of their tangent bases and rows_per_sample rows. A
    non-finite ratio raises.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not (MIN_SAMPLE_NORM < ball < math.inf):
        raise ValueError(f"ball must lie in ({MIN_SAMPLE_NORM}, inf), got {ball!r}")
    manifold = problem.manifold
    n = manifold.ambient_dim
    chunk = max(1, min(SWEEP_CHUNK, SWEEP_BLOCK_FLOATS // ((rows_per_sample + manifold.intrinsic_dim) * n)))
    worst = 0.0
    done = 0
    while done < n_samples:
        x, bases, s, rng = _draw_chunk(manifold, ball, min(chunk, n_samples - done), rng)
        ratios = block_ratios(x, s, bases)
        if not np.all(np.isfinite(ratios)):
            raise NumericalError("non-finite pullback gradient or Lipschitz ratio")
        worst = max(worst, float(ratios.max()))
        done += len(x)
    return worst


def empirical_grad_lipschitz(problem, ball: float, n_samples: int, rng: RngStream) -> float:
    """Max of ||grad-pullback(s) - grad-pullback(0)|| / ||s|| over random base points and s."""

    def block_ratios(x, s, _):
        g_s = pullback_step(problem, x, s)[3]
        g_0 = problem._value_and_gradient_array(x)[1]
        return _norm(g_s - g_0) / _norm(s)

    return _sweep(problem, ball, n_samples, rng, block_ratios, 1)


def empirical_hess_lipschitz(problem, ball: float, n_samples: int, rng: RngStream) -> float:
    """Max operator-norm ratio ||hess-pullback(s) - hess-pullback(0)|| / ||s||, intrinsic basis."""
    k = problem.manifold.intrinsic_dim

    def block_ratios(x, s, bases):
        gradients = partial(pullback_gradient_rows, problem, x)
        # s projected onto the basis span, as `Pullback.hessian_at` centres it
        center = (bases @ (bases.mT @ s[..., None])).mT
        diff = fd_hessian_from_gradients(gradients, center, bases) - fd_hessian_from_gradients(gradients, 0.0, bases)
        return operator_norm(diff) / _norm(s)

    return _sweep(problem, ball, n_samples, rng, block_ratios, 2 * k)


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
    the pullback Hessian, as `check_second_order_point` finds it, and returns
    both value decreases after the full horizon; when the hypotheses hold, the
    smaller decrease is at most -score_drop.
    """
    if not (r0 > 0):
        raise ValueError("r0 must be positive")
    report = check_second_order_point(problem, x, params.epsilon, params.lip_hess)
    lam = report.min_eig_pullback
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
    pull = Pullback(problem, x)
    drops = []
    for step in (half, -half):
        s0 = Tangent(x, step * report.eigvec.coords)
        f_start = pull.value(s0)
        s_end, _ = tangent_space_steps(pull, s0, params.eta, params.ball, params.horizon)
        drops.append(pull.value(s_end) - f_start)
    return drops[0], drops[1]
