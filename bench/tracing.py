"""Per-layer tracing of `prgd` from outside the program.

`Tracer` replaces each module's public functions, and the public methods of
its classes, by wrappers that record a span (id, parent id, name, start,
end) per call and a few counts, and restores the originals on exit. A
function that another module imported by name (such as `verify`'s
`tangent_space_steps`) is replaced in every `prgd` module that holds it.
Spans stay in memory until `write` saves them.

A layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# (span name, module, attribute paths); one span name may cover several methods
TARGETS = [
    ("cli.escape_study", "prgd.cli", ["escape_study"]),
    ("descent.prgd", "prgd.descent", ["prgd"]),
    ("descent.rgd", "prgd.descent", ["rgd"]),
    ("descent.tangent_space_steps", "prgd.descent", ["tangent_space_steps"]),
    ("pullback.value", "prgd.pullback", ["Pullback.value"]),
    ("pullback.gradient", "prgd.pullback", ["Pullback.gradient"]),
    ("pullback.hessian", "prgd.pullback", ["Pullback.hessian_at_zero", "Pullback.hessian_at"]),
    ("manifolds.retract", "prgd.manifolds", ["Manifold.retract"]),
    ("manifolds.retraction_adjoint", "prgd.manifolds",
     ["Sphere.retraction_adjoint", "Euclidean.retraction_adjoint"]),
    ("manifolds.tangent_basis", "prgd.manifolds", ["Sphere.tangent_basis", "Euclidean.tangent_basis"]),
    ("manifolds.sample_ball", "prgd.manifolds", ["Sphere.sample_ball", "Euclidean.sample_ball"]),
    ("manifolds.retract_many", "prgd.manifolds", ["Sphere.retract_many", "Euclidean.retract_many"]),
    ("problems.value", "prgd.problems", ["PcaProblem.value", "QuadraticSaddle.value"]),
    ("problems.riemannian_gradient", "prgd.problems", ["CostFunction.riemannian_gradient"]),
    ("problems.value_many", "prgd.problems",
     ["CostFunction.value_many", "PcaProblem.value_many", "QuadraticSaddle.value_many"]),
    ("numerics.standard_normal", "prgd.numerics", ["RngStream.standard_normal"]),
    ("numerics.uniform", "prgd.numerics", ["RngStream.uniform"]),
    ("numerics.sample_unit_ball", "prgd.numerics", ["sample_unit_ball"]),
    ("numerics.min_eigpair", "prgd.numerics", ["min_eigpair"]),
    ("numerics.operator_norm", "prgd.numerics", ["operator_norm"]),
    ("verify.check_second_order_point", "prgd.verify", ["check_second_order_point"]),
    ("verify.riemannian_hessian_matrix", "prgd.verify", ["riemannian_hessian_matrix"]),
    ("verify.empirical_grad_lipschitz", "prgd.verify", ["empirical_grad_lipschitz"]),
    ("verify.empirical_hess_lipschitz", "prgd.verify", ["empirical_hess_lipschitz"]),
]

# per-layer metrics in report order: (name, unit, better)
PER_LAYER = (
    [("cli.escape_study.self_s", "s", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for span in ("descent.prgd", "descent.rgd", "descent.tangent_space_steps")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("descent.tangent_steps", "count", "lower"),
       ("descent.manifold_steps", "count", "lower"),
       ("descent.phases", "count", "lower"),
       ("descent.gradient_queries", "count", "lower"),
       ("descent.useful_phase_ratio", "ratio", "higher"),
       ("descent.tangent_step_us", "us", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for span in ("pullback.value", "pullback.gradient", "pullback.hessian")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("pullback.hessian.bytes_computed", "B", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for span in ("manifolds.retract", "manifolds.retraction_adjoint",
                    "manifolds.tangent_basis", "manifolds.sample_ball")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("manifolds.retract_many.rows", "count", "lower"),
       ("manifolds.retract_many.self_s", "s", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for span in ("problems.value", "problems.riemannian_gradient")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("problems.value_many.rows", "count", "lower"),
       ("problems.value_many.self_s", "s", "lower"),
       ("numerics.rng_draws", "count", "lower"),
       ("numerics.sample_unit_ball.self_s", "s", "lower")]
    + [(f"{span}.{kind}", unit, "lower")
       for span in ("numerics.min_eigpair", "numerics.operator_norm",
                    "verify.check_second_order_point", "verify.riemannian_hessian_matrix")
       for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [("verify.empirical_grad_lipschitz.self_s", "s", "lower"),
       ("verify.empirical_hess_lipschitz.self_s", "s", "lower"),
       ("trace.overhead_ratio", "ratio", "lower")]
)


def _trace_counts(tracer, args, kwargs, trace):
    """Step, phase and query counts from a RunTrace returned by prgd or rgd (which has no phases)."""
    from prgd.descent import BOUNDARY_TRUNCATION, MANIFOLD_STEP, PERTURBATION, SMALL_GRAD_VISIT, TANGENT_STEP

    params = args[2] if len(args) > 2 else kwargs.get("params")
    counts = tracer.counts
    counts["descent.gradient_queries"] += trace.gradient_queries
    f_visit = f_end = None
    for ev in trace.events + [None]:
        kind = ev.kind if ev is not None else None
        if kind in (TANGENT_STEP, BOUNDARY_TRUNCATION):
            counts["descent.tangent_steps"] += 1
            f_end = ev.f
            continue
        if f_end is not None:
            # prgd's own test of a phase: did it cut f by at least score_drop / 2?
            counts["descent.useful_phases"] += f_end - f_visit <= -params.score_drop / 2.0
            f_end = None
        if kind == MANIFOLD_STEP:
            counts["descent.manifold_steps"] += 1
        elif kind == PERTURBATION:
            counts["descent.phases"] += 1
        elif kind == SMALL_GRAD_VISIT:
            f_visit = ev.f


def _loop_steps(tracer, args, kwargs, result):
    tracer.counts["descent.tangent_space_steps.steps"] += len(result[1])


def _retract_rows(tracer, args, kwargs, result):
    tracer.counts["manifolds.retract_many.rows"] += len(result)


def _value_rows(tracer, args, kwargs, result):
    tracer.counts["problems.value_many.rows"] += len(result)
    if any(frame[1] == "pullback.hessian" for frame in tracer.stack):
        points = args[1] if len(args) > 1 else kwargs["coords"]
        tracer.counts["pullback.hessian.bytes_computed"] += points.shape[0] * points.shape[1] * 8


HOOKS = {
    "descent.prgd": _trace_counts,
    "descent.rgd": _trace_counts,
    "descent.tangent_space_steps": _loop_steps,
    "manifolds.retract_many": _retract_rows,
    "problems.value_many": _value_rows,
}


class Tracer:
    """Context manager that traces every target, or the spans named in `only`, while active.

    It may be entered many times.
    """

    def __init__(self, only=None):
        self.only = only
        self.spans = []  # (id, parent id, name, start, end)
        self.stack = []  # open frames: [id, name, start, child time]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._next_id = 0
        self._saved = []  # (owner, attribute, original)
        self.start = perf_counter()

    def __enter__(self):
        for name, module_name, paths in TARGETS:
            if self.only is not None and name not in self.only:
                continue
            module = importlib.import_module(module_name)
            for path in paths:
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    self._replace(owner, attr, owner.__dict__[attr], name)
                else:
                    original = getattr(module, path)
                    for mod_name, mod in list(sys.modules.items()):
                        if (mod_name == "prgd" or mod_name.startswith("prgd.")) and getattr(mod, path, None) is original:
                            self._replace(mod, path, original, name)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _replace(self, owner, attr, original, name):
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, HOOKS.get(name)))

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            frame = [tracer._next_id, name, perf_counter(), 0.0]
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[2]
                tracer.spans.append((frame[0], parent[0] if parent else None, name, frame[2], end))
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[3]
                tracer.total_s[name] += duration
                if parent is not None:
                    parent[3] += duration
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def layer_metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_ratio, which needs an untraced run too."""
        counts, calls, self_s = self.counts, self.calls, self.self_s
        phases = counts["descent.phases"]
        loop_steps = counts["descent.tangent_space_steps.steps"]
        values = {
            "descent.tangent_steps": counts["descent.tangent_steps"],
            "descent.manifold_steps": counts["descent.manifold_steps"],
            "descent.phases": phases,
            "descent.gradient_queries": counts["descent.gradient_queries"],
            "descent.useful_phase_ratio": counts["descent.useful_phases"] / phases if phases else 0.0,
            # inclusive loop time per step the loop took, manifold steps (horizon 1) included;
            # it holds the cost of tracing the loop's children unless only the loop is traced
            "descent.tangent_step_us": 1e6 * self.total_s["descent.tangent_space_steps"] / loop_steps
            if loop_steps else 0.0,
            "pullback.hessian.bytes_computed": counts["pullback.hessian.bytes_computed"],
            "manifolds.retract_many.rows": counts["manifolds.retract_many.rows"],
            "problems.value_many.rows": counts["problems.value_many.rows"],
            "numerics.rng_draws": calls["numerics.standard_normal"] + calls["numerics.uniform"]
            + calls["numerics.sample_unit_ball"],
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if metric in values:
                out[metric] = values[metric]
            elif kind == "calls":
                out[metric] = calls[span]
            elif kind == "self_s":
                out[metric] = self_s[span]
        return out

    def write(self, path, header: dict):
        """Save the spans, one JSON array per line between a header and a totals line.

        Times are seconds since the tracer was made.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps([span_id, parent, name, start - self.start, end - self.start]) + "\n")
            fh.write(json.dumps({"calls": self.calls, "self_s": self.self_s, "counts": self.counts}) + "\n")
