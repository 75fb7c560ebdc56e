"""Demand shaping inside per-user entropy balls.

A user's slot demand may be nudged away from its intrinsic profile p~ as
long as the shaped profile keeps the same activity level (sum of request
probabilities), stays nonnegative, and moves at most

    radius = activity * alpha * H(p~ / activity)

in Euclidean norm, where H is the natural-log entropy of the conditional
preference.  Users with concentrated preferences thus concede little;
indifferent users concede more.  ``ebc_regions`` computes every (row, slot)
ball at once as one :class:`Regions` record of arrays, and it is the one
place the budget ``alpha`` is checked.

``shape_demand`` alternates a linearized profile step inside each ball with
a full re-optimization of the proactive downloads, driving the cycle cost
monotonically down.  At a shaped optimum interior to the simplex face
constraints, the profile lands on the ball boundary; the :class:`ShapingTrace`
records, for every accepted iterate, the cycle cost, the largest
activity-scaled distance from that boundary and the linear step's gap.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog, entropy
from .evaluate import EvalConfig, UnsupportedEngineError, cost_gradient_p
from .optim import _arc_search, linear_min_over_ball_slice
from .proactive import SolveResult, solve_proactive

log = logging.getLogger(__name__)


class Regions(NamedTuple):
    """Every (row, slot) region: ball centers (K, T, M), radii and activities
    (K, T), in the argument order of :func:`~procache.optim.linear_min_over_ball_slice`."""

    center: np.ndarray
    radius: np.ndarray
    activity: np.ndarray


def ebc_regions(profile: DemandProfile, alpha) -> Regions:
    """Every (row, slot) ball: radius ``activity * alpha * H(probs / activity)``, 0 for
    a silent slot or a zero budget.  ``alpha`` is a scalar or one budget per row, each
    finite and nonnegative, else ``ValueError``.  On a profile of classes a row's
    region is that of each of its users."""
    alphas = np.asarray(alpha, dtype=float)
    valid = np.isfinite(alphas) & (alphas >= 0.0)
    if alphas.shape not in ((), (profile.num_classes,)) or not valid.all():
        raise ValueError(f"alpha must be finite and nonnegative, one value or one per row "
                         f"({profile.num_classes})")
    activity, alphas = 1.0 - profile.silence, alphas.reshape(-1, 1)
    live = (activity > 0.0) & (alphas > 0.0)
    pi = np.divide(profile.probs, activity[..., None], out=np.zeros(profile.probs.shape),
                   where=live[..., None])
    radius = np.where(live, activity * alphas * entropy(pi), 0.0)
    return Regions(center=profile.probs, radius=radius, activity=activity)


def _max_residual(probs, regions: Regions) -> float:
    """Largest | |p - center| - radius | / activity over the cells of positive radius
    (a positive radius implies a positive activity); 0 when there are none."""
    live = regions.radius > 0.0
    moved = np.linalg.norm(probs - regions.center, axis=-1)
    raw = np.where(live, np.abs(moved - regions.radius), 0.0)
    return np.divide(raw, regions.activity, out=np.zeros_like(raw), where=live).max()


@dataclass(frozen=True)
class ShapingTrace:
    """Objective, boundary residual and linear-step gap of each accepted outer iterate."""

    objectives: np.ndarray                  # (k+1,) cycle cost per outer iterate
    residuals: np.ndarray                   # (k+1,) max boundary residual per iterate
    gaps: np.ndarray                        # (k+1,) linear step's gap; the last is the stop's

    def __len__(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True)
class ShapeResult:
    profile: DemandProfile
    solve: SolveResult
    regions: Regions
    trace: ShapingTrace
    converged: bool    # stop is "tol" or "rounding"
    stop: str          # "tol", "rounding", "stalled" or "cap"; see shape_demand


def shape_demand(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    alpha,
    tol_outer: float = 1e-8,
    max_outer: int = 100,
) -> ShapeResult:
    """Alternate shaped-profile steps and download re-optimization.

    Each outer round minimizes the cycle cost's linear model over every
    (user, slot) region.  The run stops with ``"tol"`` once that step's gap
    ``-sum g (target - p)``, over the finite entries of the probability
    gradient ``g``, is at most ``tol_outer * |f|``, or ``"cap"`` after
    ``max_outer`` rounds.  Otherwise the descent's Armijo search
    (:func:`~procache.optim._arc_search`) walks toward ``target`` (the model
    ignores cross-user curvature, so the full step can overshoot), valuing
    each trial by a warm-started re-solve of the downloads, ``inf`` where
    even the zero allocation overflows; it ends the run ``"rounding"`` or
    ``"stalled"`` as it ends a solve.  ``converged`` is ``"tol"`` or
    ``"rounding"``; the trace strictly decreases.

    On a profile of classes the regions and ``alpha`` are per row.  A row's
    probability gradient is its count times a user's, and the linear step's
    minimizer does not change under that positive scale, so the classes
    follow the per-user path exactly.  An engine with no probability gradient
    raises ``UnsupportedEngineError`` before any solve if a radius is positive.
    """
    regions = ebc_regions(profile, alpha)
    if regions.radius.any() and cfg.kernels.gradient_p is None:
        raise UnsupportedEngineError(f"shaping needs a probability gradient: {cfg.engine} has none")
    solved = solve_proactive(profile, catalog, cost, cfg)
    current, held = profile, (None,)   # held: the last trial's probabilities, profile, re-solve
    objectives, residuals = [solved.cost], [_max_residual(profile.probs, regions)]

    def value(p):
        nonlocal held
        if held[0] is not p:
            cand = profile.with_probs(p)
            try:
                held = p, cand, solve_proactive(cand, catalog, cost, cfg, x0=solved.allocation.x)
            except CostDomainError:
                return np.inf
        return held[2].cost

    gaps, stop = ([], None) if regions.radius.any() else ([0.0], "tol")   # zero radii: no gradient
    work = np.empty(profile.probs.shape)
    while stop is None:
        grad = cost_gradient_p(current, solved.allocation, cost, cfg)
        g = np.where(np.isfinite(grad), grad, 0.0)   # the step holds diverging items at 0
        step = linear_min_over_ball_slice(grad, *regions) - current.probs
        gaps.append(-float(np.vdot(g, step)))
        stop = ("tol" if gaps[-1] <= tol_outer * abs(solved.cost)
                else "cap" if len(gaps) > max_outer else None)
        if stop:
            break
        found, flat = _arc_search(value, lambda z: z, current.probs, solved.cost, g, step, work)
        if found is None:
            stop = "rounding" if flat else "stalled"
            break
        _, current, solved = held   # the accepted trial is the last one valued
        objectives.append(solved.cost)
        residuals.append(_max_residual(current.probs, regions))
    converged = stop in ("tol", "rounding")
    if not converged:
        log.warning("shape_demand did not reach tol_outer=%.1e (stop: %s): %d rounds, gap %.3g",
                    tol_outer, stop, len(objectives) - 1, gaps[-1])
    trace = ShapingTrace(objectives=np.array(objectives), residuals=np.array(residuals),
                         gaps=np.array(gaps))
    return ShapeResult(profile=current, solve=solved, regions=regions, trace=trace,
                       converged=converged, stop=stop)
