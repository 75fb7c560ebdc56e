"""Spans and counters attached to procache from outside, and the per-layer metrics.

``Tracer.install`` replaces each instrumented function at every module
attribute that binds it (``procache.proactive.expected_cycle_cost`` as well
as ``procache.evaluate.expected_cycle_cost``, the package re-exports, and the
``CostModel`` methods on the class), and ``Tracer.uninstall`` puts the
originals back.  No procache source file changes.

Layer-boundary functions record a span (name, start, end, parent, task) kept
in memory.  The innermost hot helpers (``project_simplex_slice``,
``project_ball_slice``, ``substream`` and the ``CostModel`` methods) only
bump counters; the cost methods also time themselves so their time leaves
the calling span's self time.  A span's self time is its duration minus the
time covered by its child spans and timed helpers.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

# (defining module, function) -> span name
SPANS = {
    ("procache.scenario", "load_scenario"): "scenario.load",
    ("procache.scenario", "parse_scenario"): "scenario.parse",
    ("procache.evaluate", "expected_cycle_cost"): "evaluate.value",
    ("procache.evaluate", "cost_gradient_x"): "evaluate.grad_x",
    ("procache.evaluate", "cost_gradient_p"): "evaluate.grad_p",
    ("procache.optim", "box_projected_descent"): "optim.descent",
    ("procache.optim", "linear_min_over_ball_slice"): "optim.linear_step",
    ("procache.proactive", "solve_proactive"): "proactive.solve",
    ("procache.proactive", "scaling_curve"): "proactive.scaling_curve",
    ("procache.shaping", "shape_demand"): "shaping.shape_demand",
    ("procache.demand", "sample_outcomes"): "demand.sample",
    ("procache.recommend", "solve_rating"): "recommend.solve_rating",
    ("procache.experiments", "reproduce_two_user"): "experiments.two_user",
    ("procache.experiments", "reproduce_scaling"): "experiments.scaling",
}
COUNTERS = {
    ("procache.optim", "project_simplex_slice"): "optim.simplex_projections",
    ("procache.optim", "project_ball_slice"): "optim.ball_projections",
    ("procache.rng", "substream"): "rng.streams",
}
COST_METHODS = ("cost", "marginal", "in_domain")
TASK_SPAN = "cli.task"

# per-layer metrics, all per pass of the workload (see layer_metrics)
PER_LAYER = (
    ("evaluate.value.calls", "count"), ("evaluate.value.s", "s"),
    ("evaluate.value.self_s", "s"),
    ("evaluate.grad_x.calls", "count"), ("evaluate.grad_x.s", "s"),
    ("evaluate.grad_x.self_s", "s"),
    ("evaluate.grad_p.calls", "count"), ("evaluate.grad_p.s", "s"),
    ("evaluate.grad_p.self_s", "s"),
    ("evaluate.cells_per_s", "1/s"),
    ("optim.descent.self_s", "s"), ("optim.evals_per_iter", "count"),
    ("optim.linear_step.calls", "count"), ("optim.linear_step.s", "s"),
    ("optim.ball_projections", "count"), ("optim.simplex_projections", "count"),
    ("proactive.solves", "count"), ("proactive.self_s", "s"),
    ("proactive.iterations", "count"), ("proactive.converged_share", "ratio"),
    ("demand.sample.calls", "count"), ("demand.sample.s", "s"),
    ("demand.draws", "count"), ("demand.distinct_draw_share", "ratio"),
    ("rng.streams", "count"),
    ("costs.points", "count"), ("costs.s", "s"), ("costs.domain_errors", "count"),
    ("shaping.outer_rounds", "count"), ("shaping.self_s", "s"),
    ("shaping.step_backtracks", "count"),
    ("recommend.solve_rating.calls", "count"), ("recommend.solve_rating.s", "s"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"), ("scenario.parse_s", "s"),
    ("process.cpu_s", "s"), ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans: list = []         # (name, start, end, parent index, task, self seconds)
        self.counts = defaultdict(float)
        self.task = None
        self._stack: list = []        # open frames: [span index, covered seconds]
        self._patched: list = []      # (owner, attribute, original)
        self._draws: dict = {}        # (seed, slot) -> per-user largest sample count

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, task: str):
        """A root span opened by the benchmark itself; later spans carry ``task``."""
        self.task = task
        token = self._open()
        try:
            yield
        finally:
            self._close(token, name)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, 0.0]
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _close(self, token, name: str) -> None:
        frame, parent, start = token
        end = time.perf_counter()
        self._stack.pop()
        self.spans[frame[0]] = (name, start, end, parent, self.task, end - start - frame[1])
        if self._stack:
            self._stack[-1][1] += end - start

    def _span_wrapper(self, name: str, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(token, name)
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cost_wrapper(self, fn):
        tracer = self
        counts = self.counts
        from procache.costs import CostDomainError

        @functools.wraps(fn)
        def wrapper(model, load):
            start = time.perf_counter()
            try:
                return fn(model, load)
            except CostDomainError:
                counts["costs.domain_errors"] += 1
                raise
            finally:
                took = time.perf_counter() - start
                counts["costs.points"] += np.size(load)
                counts["costs.s"] += took
                if tracer._stack:
                    tracer._stack[-1][1] += took

        return wrapper

    # -- per-call details --------------------------------------------------

    def _on_evaluate_value(self, args, result):
        self.counts["evaluate.cells"] += float(np.prod(args[0].probs.shape))

    _on_evaluate_grad_x = _on_evaluate_value
    _on_evaluate_grad_p = _on_evaluate_value

    def _on_optim_descent(self, args, result):
        self.counts["optim.descent.iterations"] += result.iterations

    def _on_proactive_solve(self, args, result):
        self.counts["proactive.iterations"] += result.iterations
        self.counts["proactive.converged"] += bool(result.converged)

    def _on_shaping_shape_demand(self, args, result):
        self.counts["shaping.outer_rounds"] += len(result.trace) - 1

    def _on_demand_sample(self, args, result):
        profile, slot, seed, count = args[:4]
        users = profile.num_users
        self.counts["demand.draws"] += users * count
        key = (int(seed), int(slot) % profile.num_slots)
        seen = self._draws.get(key)
        if seen is None or seen.size < users:
            grown = np.zeros(users, dtype=np.int64)
            if seen is not None:
                grown[: seen.size] = seen
            seen = self._draws[key] = grown
        np.maximum(seen[:users], count, out=seen[:users])

    def end_pass(self) -> None:
        """Close the distinct-draw count of one pass (passes repeat the same draws)."""
        self.counts["demand.distinct_draws"] += sum(int(v.sum()) for v in self._draws.values())
        self._draws.clear()

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import procache.costs

        wrappers = {}
        for (module, name), span in SPANS.items():
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._span_wrapper(span, fn))
        for (module, name), counter in COUNTERS.items():
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._count_wrapper(counter, fn))
        for modname, module in list(sys.modules.items()):
            if modname != "procache" and not modname.startswith("procache."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        model = procache.costs.CostModel
        for attr in COST_METHODS:
            self._patch(model, attr, self._cost_wrapper(vars(model)[attr]))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def patched_attributes(self) -> list:
        """(owner, attribute, original) for every binding currently replaced."""
        return list(self._patched)

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass, from the spans and counters collected so far."""
        spans = self.spans                                # every span is closed by now
        by_name = defaultdict(lambda: [0, 0.0, 0.0])      # calls, seconds, self seconds
        under = defaultdict(int)                          # (child name, parent name) -> calls
        for name, start, end, parent, _task, own in spans:
            rec = by_name[name]
            rec[0] += 1
            rec[1] += end - start
            rec[2] += own
            if parent >= 0:
                under[(name, spans[parent][0])] += 1
        c = self.counts
        k = max(passes, 1)

        def calls(name):
            return by_name[name][0]

        def total(name):
            return by_name[name][1]

        def own(*names):
            return sum(by_name[n][2] for n in names)

        def outer(prefix):
            """Seconds in spans of a layer not nested in another span of that layer."""
            return sum(end - start for name, start, end, parent, _t, _o in spans
                       if name.startswith(prefix)
                       and (parent < 0 or not spans[parent][0].startswith(prefix)))

        eval_names = ("evaluate.value", "evaluate.grad_x", "evaluate.grad_p")
        eval_self = own(*eval_names)
        iterations = c["optim.descent.iterations"]
        distinct = c["demand.distinct_draws"]
        solves = calls("proactive.solve")
        shapes = calls("shaping.shape_demand")
        solves_in_shaping = under[("proactive.solve", "shaping.shape_demand")]
        out = {}
        for kind in ("value", "grad_x", "grad_p"):
            name = f"evaluate.{kind}"
            out[f"{name}.calls"] = calls(name) / k
            out[f"{name}.s"] = total(name) / k
            out[f"{name}.self_s"] = own(name) / k
        out.update({
            "evaluate.cells_per_s": c["evaluate.cells"] / eval_self if eval_self else 0.0,
            "optim.descent.self_s": own("optim.descent") / k,
            "optim.evals_per_iter": (under[("evaluate.value", "optim.descent")] / iterations
                                     if iterations else 0.0),
            "optim.linear_step.calls": calls("optim.linear_step") / k,
            "optim.linear_step.s": total("optim.linear_step") / k,
            "optim.ball_projections": c["optim.ball_projections"] / k,
            "optim.simplex_projections": c["optim.simplex_projections"] / k,
            "proactive.solves": solves / k,
            "proactive.self_s": own("proactive.solve", "proactive.scaling_curve") / k,
            "proactive.iterations": c["proactive.iterations"] / k,
            "proactive.converged_share": c["proactive.converged"] / solves if solves else 0.0,
            "demand.sample.calls": calls("demand.sample") / k,
            "demand.sample.s": total("demand.sample") / k,
            "demand.draws": c["demand.draws"] / k,
            "demand.distinct_draw_share": distinct / c["demand.draws"] if c["demand.draws"] else 0.0,
            "rng.streams": c["rng.streams"] / k,
            "costs.points": c["costs.points"] / k,
            "costs.s": c["costs.s"] / k,
            "costs.domain_errors": c["costs.domain_errors"] / k,
            "shaping.outer_rounds": c["shaping.outer_rounds"] / k,
            "shaping.self_s": own("shaping.shape_demand") / k,
            # inner solves beyond the first one and one per accepted round
            "shaping.step_backtracks": max(
                solves_in_shaping - shapes - c["shaping.outer_rounds"], 0) / k,
            "recommend.solve_rating.calls": calls("recommend.solve_rating") / k,
            "recommend.solve_rating.s": total("recommend.solve_rating") / k,
            "experiments.self_s": own("experiments.two_user", "experiments.scaling") / k,
            "cli.self_s": own(TASK_SPAN) / k,
            "scenario.parse_s": outer("scenario.") / k,
        })
        return out

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        return {
            "fields": ["name", "start", "end", "parent", "task", "self_s"],
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counts),
        }
