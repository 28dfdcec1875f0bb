"""Perturbed Riemannian gradient descent, its tangent-space inner loop, and parameter balancing."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .manifolds import Point, Tangent
from .numerics import NumericalError, RngStream, _check_count, _check_positive_finite, _norm, sample_unit_ball
from .pullback import Pullback, pullback_step

MANIFOLD_STEP = "manifold_step"
PERTURBATION = "perturbation"
TANGENT_STEP = "tangent_step"
BOUNDARY_TRUNCATION = "boundary_truncation"
SMALL_GRAD_VISIT = "small_grad_visit"

_CHI_FLOOR = 0.25 + 1e-9
_BUDGET_LIMIT = 2**63


def _check_inputs(mode: str, epsilon: float, delta: float, dim: int, ell: float, lip_hess: float, gap: float,
                  chi: float | None) -> None:
    """The input checks `PrgdParams` shares with `derive_params`, run before its formulas; a None chi is skipped."""
    if mode not in ("theoretical", "practical"):
        raise ValueError(f"mode must be 'theoretical' or 'practical', got {mode!r}")
    _check_positive_finite(epsilon=epsilon, ell=ell, lip_hess=lip_hess, gap=gap)
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    _check_count(1, dim=dim)
    if chi is not None and not 0.25 < chi < math.inf:
        raise ValueError(f"requires finite chi > 1/4, got {chi!r}")


@dataclass(frozen=True)
class PrgdParams:
    """The balanced parameter set driving one PRGD run.

    `horizon`, `radius`, `score_drop`, `locality` and `budget` are the inner
    step count, perturbation radius, required escape decrease, localization
    radius and total counter budget; `derive_params` computes them from the
    problem constants.
    """

    epsilon: float
    delta: float
    dim: int
    ell: float
    lip_grad: float
    lip_hess: float
    ball: float
    gap: float
    chi: float
    eta: float
    radius: float
    horizon: int
    score_drop: float
    locality: float
    budget: int
    mode: str

    def __post_init__(self):
        _check_inputs(self.mode, self.epsilon, self.delta, self.dim, self.ell, self.lip_hess, self.gap, self.chi)
        for name in ("lip_grad", "ball", "eta", "radius", "score_drop", "locality"):
            val = getattr(self, name)
            if not val > 0:
                raise ValueError(f"{name} must be positive, got {val!r}")
        _check_count(1, horizon=self.horizon, budget=self.budget)
        if abs(self.eta * self.ell - 1.0) > 1e-12:
            raise ValueError("requires eta == 1/ell")
        if not self.epsilon <= self.ball**2 * self.lip_hess:
            raise ValueError("requires epsilon <= ball^2 * lip_hess")
        if not self.lip_grad >= math.sqrt(self.lip_hess * self.epsilon):
            raise ValueError("requires lip_grad >= sqrt(lip_hess * epsilon)")
        if not self.lip_grad <= self.ell <= self.lip_grad + self.lip_hess * self.ball:
            raise ValueError("requires ell in [lip_grad, lip_grad + lip_hess * ball]")


def derive_params(
    epsilon: float,
    delta: float,
    dim: int,
    ell: float,
    lip_grad: float,
    lip_hess: float,
    ball: float,
    gap: float,
    mode: str = "theoretical",
    chi: float | None = None,
) -> PrgdParams:
    """Balance step size, radius, horizon, thresholds and budget from the constants.

    Theoretical mode derives chi from the high-probability bound; practical
    mode takes a user chi and keeps every other formula. Either way the
    horizon is rounded up to an integer and chi recomputed so that
    horizon = ell * chi / sqrt(lip_hess * epsilon) holds exactly.
    """
    _check_inputs(mode, epsilon, delta, dim, ell, lip_hess, gap, chi if mode == "practical" else None)
    try:
        root = math.sqrt(lip_hess * epsilon)
        if mode == "theoretical":
            if not math.isfinite(ball):
                raise ValueError("theoretical mode requires a finite ball (the +inf sentinel is practical-mode only)")
            if not epsilon**1.5 <= 3.0 * math.sqrt(lip_hess) * gap:
                raise ValueError("requires epsilon^(3/2) <= 3 * sqrt(lip_hess) * gap")
            chi0 = max(_CHI_FLOOR, 4.0 * math.log2(2.0**31 * ell**2 * math.sqrt(dim) * gap
                                                   / (delta * math.sqrt(lip_hess) * epsilon**2.5)))
        elif chi is None:
            raise ValueError("practical mode requires chi")
        else:
            chi0 = float(chi)
        horizon = math.ceil(ell * chi0 / root)
        chi_adj = horizon * root / ell
        eta = 1.0 / ell
        radius = epsilon / (400.0 * chi_adj**3)
        score_drop = epsilon**1.5 / (50.0 * chi_adj**3 * math.sqrt(lip_hess))
        locality = math.sqrt(epsilon / lip_hess) / (4.0 * chi_adj)
        budget_raw = 8.0 * max(horizon / 3.0, gap * horizon / score_drop, gap / (eta * epsilon**2))
        # a product that leaves the float range gives inf or 0, and the formulas after it inf, 0 or nan
        in_range = all(0 < val < math.inf for val in (chi_adj, eta, radius, score_drop, locality, budget_raw))
    except (ZeroDivisionError, OverflowError):  # a power or quotient left the float range, or ceil met inf
        in_range = False
    if not in_range:
        # the input farthest from 1 in magnitude is the one that drove a power or product out of range
        name, val = max(zip(("epsilon", "delta", "ell", "lip_hess", "gap"), (epsilon, delta, ell, lip_hess, gap)),
                        key=lambda item: abs(math.log(item[1])))
        given = "" if mode == "theoretical" else f" and chi {chi!r}"
        raise ValueError(f"the parameter formulas leave the float range at {name} {val!r}{given}")
    if budget_raw > _BUDGET_LIMIT:
        raise OverflowError(
            f"counter budget {budget_raw:.3e} exceeds 2^63; the theoretical constants are intentionally conservative"
        )
    return PrgdParams(
        epsilon=epsilon,
        delta=delta,
        dim=dim,
        ell=ell,
        lip_grad=lip_grad,
        lip_hess=lip_hess,
        ball=ball,
        gap=gap,
        chi=chi_adj,
        eta=eta,
        radius=radius,
        horizon=horizon,
        score_drop=score_drop,
        locality=locality,
        budget=math.ceil(budget_raw),
        mode=mode,
    )


class TraceEvent(NamedTuple):
    """One algorithm event, an immutable named tuple; `f` is the value after the event's step where applicable."""

    t: int
    kind: str
    f: float
    grad_norm: float | None = None
    tangent_norm: float | None = None
    alpha: float | None = None
    dist_start: float | None = None
    step: int | None = None
    f_before: float | None = None


class _PhaseSpan(NamedTuple):
    """The tangent steps 1 ... n of one phase at counter t: `rows` is its own (n, 4) array of f after each step,
    the gradient norm before it, ||s|| and ||s - s0|| after it; `alpha` is step n's truncation fraction or None."""

    rows: np.ndarray
    t: int
    alpha: float | None

    def events(self) -> list[TraceEvent]:
        events = [TraceEvent(self.t, TANGENT_STEP, f, grad_norm, tangent_norm, 1.0, dist, step)
                  for step, (f, grad_norm, tangent_norm, dist) in enumerate(self.rows.tolist(), 1)]
        if self.alpha is not None:
            events[-1] = events[-1]._replace(kind=BOUNDARY_TRUNCATION, alpha=self.alpha)
        return events


@dataclass
class RunTrace:
    """Ordered record of everything a run did, plus the points needed to audit it.

    `events` is the run's list of `TraceEvent`s. `prgd_lockstep` records a row's visits, perturbations and
    manifold steps as events when they happen, but keeps each phase's tangent steps, its last step and any
    truncation included, as one `_PhaseSpan`, an array the trace shares with no other, so that such a step
    makes no Python object; `events` builds their events from the spans on its first read, field for field.
    """

    last_small_grad_point: Point | None = None
    final_point: Point | None = None
    final_f: float = math.nan
    final_grad_norm: float = math.nan
    final_t: int = 0
    gradient_queries: int = 0
    terminated: str = ""
    suspected_second_order: bool = False
    # TraceEvents and _PhaseSpans in run order
    _log: list = field(default_factory=list, init=False, repr=False)

    @property
    def events(self) -> list[TraceEvent]:
        if any(type(item) is _PhaseSpan for item in self._log):
            self._log = [ev for item in self._log
                         for ev in (item.events() if type(item) is _PhaseSpan else (item,))]
        return self._log

    @property
    def n_manifold_steps(self) -> int:
        return sum(1 for ev in self.events if ev.kind == MANIFOLD_STEP)

    @property
    def n_perturbations(self) -> int:
        return sum(1 for ev in self.events if ev.kind == PERTURBATION)

    def finish(self, point: Point, f: float, t: int, grad_norm: float, queries: int, terminated: str):
        self.final_point, self.final_f, self.final_t = point, f, t
        self.final_grad_norm, self.gradient_queries, self.terminated = grad_norm, queries, terminated


def boundary_alpha(s: np.ndarray, g: np.ndarray, eta: float, ball: float) -> float:
    """Step fraction alpha in (0, 1] with ||s - alpha*eta*g|| = ball.

    `s` and `g` are coordinate arrays. Solves the boundary quadratic with the
    numerically stable root; requires ||s|| < ball and ||s - eta*g|| >= ball.
    """
    _check_positive_finite(eta=eta, ball=ball)
    s_norm = float(np.linalg.norm(s))
    if s_norm >= ball:
        raise NumericalError(f"boundary step requires ||s|| < ball, got {s_norm!r} >= {ball!r}")
    if float(np.linalg.norm(s - eta * g)) < ball:
        raise NumericalError("boundary step requires the full step to leave the ball")
    g_sq = float(g @ g)
    p = float(s @ g)
    q = g_sq * (ball - s_norm) * (ball + s_norm)
    disc = math.sqrt(p * p + q)
    if p >= 0:
        alpha = (p + disc) / (eta * g_sq)
    else:
        alpha = q / (eta * g_sq * (disc - p))
    alpha = min(alpha, 1.0)
    if not (math.isfinite(alpha) and 0 < alpha <= 1):
        raise NumericalError(f"no feasible boundary step fraction in (0, 1], got {alpha!r}")
    return float(alpha)


def _gradient_step(problem, x: np.ndarray, s: np.ndarray, grad: np.ndarray, eta: float, ball: float):
    """One pullback gradient step on every row of a block of tangent-space states.

    Row i moves s_i to P_{x_i}(s_i - alpha_i * eta * g_i), with alpha_i = 1
    unless the full step would leave the ball, where `boundary_alpha`
    truncates it onto the boundary. One projection, retraction, fused cost
    call and adjoint serve all rows. Returns the new s, the truncated rows as
    {row: alpha}, y = Retr_x(s), f(y), the Riemannian gradient at y and the
    pullback gradient at the new s.
    """
    candidate = s - eta * grad
    alphas = {}
    # no finite step leaves an infinite ball
    for i, norm in enumerate(_norm(candidate).tolist() if ball < math.inf else ()):
        if norm < ball:
            continue
        alphas[i] = alpha = boundary_alpha(s[i], grad[i], eta, ball)
        candidate[i] = s[i] - (alpha * eta) * grad[i]
    s = problem.manifold._project_array(x, candidate)
    return s, alphas, *pullback_step(problem, x, s)


def tangent_space_steps(pull: Pullback, s0: Tangent, eta: float, ball: float, horizon: int):
    """Run up to `horizon` gradient steps on the pullback inside the ball of radius `ball`.

    Iterates s_{j+1} = s_j - eta * grad; if an iterate would leave the ball the
    final step is truncated onto the boundary and the loop stops. Returns the
    final tangent vector and the events of the phase's `_PhaseSpan`. Arguments
    are validated once, here; the steps are `prgd_lockstep`'s on a one-row block,
    each making one retraction and one fused cost call.
    """
    _check_positive_finite(eta=eta)
    if not ball > 0:
        raise ValueError("ball must be positive")
    _check_count(1, horizon=horizon)
    pull.manifold._check_tangent(s0, at=pull.base)
    if s0.norm > ball:
        raise ValueError(f"requires ||s0|| <= ball, got {s0.norm!r} > {ball!r}")

    problem = pull.problem
    x = pull.base.coords[None]
    start = s0.coords[None]
    grad = pullback_step(problem, x, start)[3]
    s = start
    rows = np.empty((horizon, 4))  # the phase's `_PhaseSpan` rows
    for j in range(horizon):
        grad_norm = float(_norm(grad[0]))
        if not math.isfinite(grad_norm):
            raise NumericalError("pullback gradient is non-finite")
        s, alphas, _, f, _, grad = _gradient_step(problem, x, s, grad, eta, ball)
        rows[j] = f[0], grad_norm, _norm(s[0]), _norm(s[0] - start[0])
        if alphas:
            break
    return Tangent(pull.base, s[0]), _PhaseSpan(rows[:j + 1], 0, alphas.get(0)).events()


def prgd(
    problem,
    x0: Point,
    params: PrgdParams,
    rng: RngStream,
    terminate_on_no_decrease: bool = False,
) -> RunTrace:
    """Perturbed Riemannian gradient descent from x0.

    While the gradient is large, take retracted gradient steps on the
    manifold; when it is small, perturb uniformly in the tangent ball of
    radius `params.radius` and run `params.horizon` pullback steps before
    retracting. The counter advances by 1 per manifold step and by the
    horizon per perturbation phase, and the run stops once it exceeds
    `params.budget`.

    With `terminate_on_no_decrease`, a perturbation phase that fails to
    decrease the pullback by score_drop/2 halts the run and flags the
    pre-perturbation point as a suspected second-order point. The run always
    halts once f has decreased by more than `params.gap` below f(x0), since
    the promised gap is then exhausted.

    One run is the one-row case of `prgd_lockstep`.
    """
    return prgd_lockstep(problem, x0, params, [rng], terminate_on_no_decrease)[0]


class _Trial:
    """The scalars of one lockstep run; its arrays, the anchor x among them, are one row of each block.

    `f_x` and `grad_norm` are f and the gradient norm at the anchor, and `row` the run's row of the block.
    During a perturbation phase `phase` is the tick of its first step; it is None during a manifold step.
    `end` is the tick whose step moves the anchor.
    """

    __slots__ = ("trace", "rng", "f_x", "grad_norm", "t", "queries", "row", "phase", "end")

    def __init__(self, trace: RunTrace, rng: RngStream, f_x: float, row: int):
        self.trace, self.rng, self.f_x, self.row = trace, rng, f_x, row
        self.grad_norm, self.phase = math.nan, None
        self.t = self.queries = 0

    def finish(self, point: Point, terminated: str, grad_norm: float):
        self.trace.finish(point, self.f_x, self.t, grad_norm, self.queries + 1, terminated)


def prgd_lockstep(
    problem,
    x0: Point,
    params: PrgdParams,
    rngs: list[RngStream],
    terminate_on_no_decrease: bool = False,
) -> list[RunTrace]:
    """Independent `prgd` runs from x0, one per stream in `rngs`, advanced in lockstep.

    The runs form a block with one row each: the anchor x, the tangent vector
    s, the phase start s0 and the pullback gradient at s. Every tick takes one
    gradient step on every row, a manifold step or step j of a perturbation
    phase, through one projection, retraction, fused cost call and adjoint for
    the whole block. A row's loop-top gradient is the Riemannian gradient that
    its last fused call computed at its new anchor. One `np.vecdot` over the
    stacked (3, rows, n) buffer of the new s, s - s0 and the next tick's
    gradients then gives every norm of the tick, and one slice copy writes the
    tick's values into a row-keyed ring that holds the block's last `horizon`
    ticks, the longest a phase runs. Phase starts are block work too: each
    starting row draws on its own stream, and one stacked pass maps the tick's
    draws into the tangent balls and retracts them. Python runs per row only to
    decide and record: at a new anchor (stop, manifold step or phase start), at
    a phase's end and at a truncation; when a phase ends, all its steps are
    copied out of the ring as one `_PhaseSpan`. A stopped run leaves the block
    at a new anchor, never in the middle of a phase. Rows share no arithmetic,
    so trace i is bit-identical to `prgd(problem, x0, params, rngs[i], ...)`.
    """
    manifold = problem.manifold
    manifold._check_point(x0)
    eta, ball, horizon = params.eta, params.ball, params.horizon
    start = np.ascontiguousarray(x0.coords)
    f0, grad0 = problem._value_and_gradient_array(start)
    f0 = float(f0)
    trials = [_Trial(RunTrace(), rng, f0, row) for row, rng in enumerate(rngs)]
    traces = [trial.trace for trial in trials]
    # tick k's vals[:4] at recent[k % len(recent)]; it doubles as the ticks reach its length, up to horizon
    recent = np.empty((1, 4, len(trials)))
    x = np.tile(start, (len(trials), 1))
    # the norm buffer: s, s - s0 and the loop-top gradient; rows 0 and 2 are the block's s and gradient
    stack = np.zeros((3,) + x.shape)
    stack[2] = grad0
    s0 = np.zeros_like(x)
    # per row: f after the tick's step, the gradient norm before it (patched where a phase starts), ||s|| and
    # ||s - s0|| after it, and the next tick's pre-step gradient norm
    vals = np.empty((5, len(trials)))
    vals[1] = _norm(stack[2])
    tick = 0
    top = list(range(len(trials)))  # rows at a new anchor, whose loop top runs before the next tick
    stopped: list[int] = []
    while True:
        top_norms = vals[1].tolist() if top else ()
        s, grad = stack[0], stack[2]  # the block's s and loop-top gradient
        starts, units = [], []  # the rows that start a phase at this tick, and their unit-ball draws
        for i in top:
            trial = trials[i]
            grad_norm = top_norms[i]
            if not math.isfinite(grad_norm):
                raise NumericalError("Riemannian gradient is non-finite")
            stop = "budget" if trial.t > params.budget else "gap_exhausted" if trial.f_x < f0 - params.gap else ""
            if stop:
                trial.finish(Point(manifold, x[i].copy()), stop, grad_norm)
                stopped.append(i)
                continue
            trial.queries += 1
            trial.grad_norm = grad_norm
            trial.phase = None
            if grad_norm > params.epsilon:
                trial.end = tick
                continue
            trial.trace._log.append(TraceEvent(t=trial.t, kind=SMALL_GRAD_VISIT, f=trial.f_x, grad_norm=grad_norm))
            trial.trace.last_small_grad_point = Point(manifold, x[i].copy())
            unit, trial.rng = sample_unit_ball(manifold.intrinsic_dim, trial.rng)
            starts.append(i)
            units.append(unit)
            trial.phase, trial.end = tick, tick + horizon - 1
        if starts:
            # s0 = eta * xi for every start, xi the row's draw mapped into the tangent ball of radius params.radius
            xs = x[starts]
            start_s = eta * manifold._ball_tangent_array(xs, manifold._tangent_frame_array(xs), params.radius,
                                                         np.array(units))
            start_norms = _norm(start_s).tolist()
            for norm in start_norms:
                if norm > ball:
                    raise ValueError(f"requires ||s0|| <= ball, got {norm!r} > {ball!r}")
            # one retraction of s0 gives the event value and the phase's first gradient
            _, f_s0, _, grad[starts] = pullback_step(problem, xs, start_s)
            s[starts] = s0[starts] = start_s
            vals[1, starts] = _norm(grad[starts])
            for i, f_start, norm in zip(starts, f_s0.tolist(), start_norms):
                trial = trials[i]
                trial.trace._log.append(TraceEvent(trial.t, PERTURBATION, f_start, trial.grad_norm, norm))
        if stopped:
            keep = np.ones(len(trials), dtype=bool)
            keep[stopped] = False
            trials = [trial for trial, kept in zip(trials, keep) if kept]
            for row, trial in enumerate(trials):
                trial.row = row
            x, s0, stack, vals, recent = x[keep], s0[keep], stack[:, keep], vals[:, keep], recent[..., keep]
            s, grad = stack[0], stack[2]
            stopped = []
        if not trials:
            return traces

        if not all(map(math.isfinite, vals[1].tolist())):
            raise NumericalError("pullback gradient is non-finite")
        s_new, alphas, y, f, grad_y, grad_new = _gradient_step(problem, x, s, grad, eta, ball)
        vals[0] = f
        s[...] = s_new
        np.subtract(s, s0, out=stack[1])
        grad[...] = grad_new
        for i in alphas:  # a truncated step ends its phase early
            trials[i].end = tick
        changed = [trial for trial in trials if trial.end == tick]
        anchored = [trial.row for trial in changed]
        if anchored:
            # a new anchor is the retracted point, and its loop-top gradient the fused one there
            x[anchored] = y[anchored]
            grad[anchored] = grad_y[anchored]
        norms = vals[2:]
        np.vecdot(stack, stack, out=norms)
        np.sqrt(norms, out=norms)
        if tick == len(recent) < horizon:
            recent = np.concatenate((recent, np.empty((min(tick, horizon - tick),) + recent.shape[1:])))
        recent[tick % len(recent)] = vals[:4]
        top = []
        if anchored:
            s[anchored] = 0.0  # after the norms, since ||s|| is the step's tangent_norm
            values, grad_before, tangent_norms = vals[:3].tolist()
        for trial in changed:
            i, trace = trial.row, trial.trace
            if trial.phase is None:
                trace._log.append(TraceEvent(t=trial.t, kind=MANIFOLD_STEP, f=values[i], grad_norm=grad_before[i],
                                             tangent_norm=tangent_norms[i], alpha=alphas.get(i, 1.0),
                                             f_before=trial.f_x))
                trial.t += 1
            else:
                step = tick - trial.phase + 1
                # the phase's steps, ticks [phase, tick], are all still in the ring
                trace._log.append(_PhaseSpan(recent[..., i].take(np.arange(trial.phase, tick + 1), 0, mode="wrap"),
                                             trial.t, alphas.get(i)))
                # the phase ran (and spent its queries), so the counter advances even if the run stops here
                trial.queries += step
                trial.t += horizon
                if terminate_on_no_decrease and values[i] - trial.f_x > -params.score_drop / 2.0:
                    trace.suspected_second_order = True
                    # the phase started at the anchor of the run's last small-gradient visit
                    trial.finish(trace.last_small_grad_point, "decrease_threshold", trial.grad_norm)
                    stopped.append(i)
                    continue
            trial.f_x = values[i]
            top.append(i)
        vals[1] = vals[4]
        tick += 1


def rgd(problem, x0: Point, eta: float, epsilon: float, max_iters: int) -> RunTrace:
    """Plain Riemannian gradient descent until ||grad f|| <= epsilon or the budget runs out."""
    _check_positive_finite(eta=eta)
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon!r}")
    _check_count(0, max_iters=max_iters)
    manifold = problem.manifold
    manifold._check_point(x0)
    x = x0.coords
    # one fused call per iterate gives its value and the next loop-top gradient
    f_x, grad = problem._value_and_gradient_array(x)
    trace = RunTrace()
    events = trace.events
    queries = 0
    t = 0
    terminated = "budget"

    while True:
        queries += 1
        grad_norm = _norm(grad)
        if not math.isfinite(grad_norm):
            raise NumericalError("Riemannian gradient is non-finite")
        if grad_norm <= epsilon:
            terminated = "gradient_converged"
            break
        if t >= max_iters:
            break
        step = -eta * grad
        x = manifold._retract_array(x, step)
        f_new, grad = problem._value_and_gradient_array(x)
        events.append(
            TraceEvent(
                t=t,
                kind=MANIFOLD_STEP,
                f=f_new,
                grad_norm=grad_norm,
                tangent_norm=_norm(step),
                alpha=1.0,
                f_before=f_x,
            )
        )
        f_x = f_new
        t += 1

    trace.finish(Point(manifold, x), f_x, t, grad_norm, queries, terminated)
    return trace
