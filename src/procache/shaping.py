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
records, for every accepted iterate, the cycle cost and the largest
activity-scaled distance from that boundary.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog, entropy
from .evaluate import EvalConfig, cost_gradient_p
from .optim import linear_min_over_ball_slice
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
    """Objective and boundary residual of each accepted outer iterate."""

    objectives: np.ndarray                  # (k+1,) cycle cost per outer iterate
    residuals: np.ndarray                   # (k+1,) max boundary residual per iterate

    def __len__(self) -> int:
        return len(self.objectives)


@dataclass(frozen=True)
class ShapeResult:
    profile: DemandProfile
    solve: SolveResult
    regions: Regions
    trace: ShapingTrace
    converged: bool


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

    Each outer round linearizes the cycle cost at the current pair, moves
    every (user, slot) profile to the minimizer of the linear model over its
    region, then re-solves the downloads warm-started from the previous
    allocation (so the download half-step can only lower the cost).  Stops
    when successive objectives differ by at most ``tol_outer * (1 + |f|)``.
    A step is accepted only below the last cost, so the trace strictly decreases.

    On a profile of classes the regions and ``alpha`` are per row.  A row's
    probability gradient is its count times a user's, and the linear step's
    minimizer does not change under that positive scale, so the classes
    follow the per-user path exactly.
    """
    regions = ebc_regions(profile, alpha)

    solved = solve_proactive(profile, catalog, cost, cfg)
    f_prev = solved.cost
    current = profile
    objectives = [f_prev]
    residuals = [_max_residual(current.probs, regions)]

    converged = False
    if not regions.radius.any():
        converged = True  # nothing to shape; the trace is the initial point
    else:
        for _ in range(max_outer):
            grad = cost_gradient_p(current, solved.allocation, cost, cfg)
            target = linear_min_over_ball_slice(grad, *regions)
            d = target - current.probs
            fin = np.isfinite(grad)
            pred = float(np.sum(grad[fin] * d[fin]))
            if pred >= -1e-15 * (1.0 + abs(f_prev)):
                converged = True  # linear subproblem returns the iterate itself
                break

            # The exact profile step can overshoot (the linear model ignores
            # cross-user curvature, which is violent for bounded-capacity
            # costs), so backtrack toward the previous profile until the true
            # cycle cost drops.  Full steps pass the test whenever the plain
            # split already descends.
            tau = 1.0
            for _ in range(60):
                cand = profile.with_probs(current.probs + tau * d)
                try:
                    cand_solved = solve_proactive(cand, catalog, cost, cfg, x0=solved.allocation.x)
                except CostDomainError:
                    tau *= 0.5   # even the zero allocation overflows here
                    continue
                if cand_solved.cost <= f_prev + 1e-4 * tau * pred:
                    break
                tau *= 0.5
            else:
                log.warning(
                    "profile step found no descent despite predicted decrease "
                    "%.3g; stopping at the last iterate", pred,
                )
                break

            current, solved = cand, cand_solved
            f_new = solved.cost
            objectives.append(f_new)
            residuals.append(_max_residual(current.probs, regions))
            if abs(f_new - f_prev) <= tol_outer * (1.0 + abs(f_new)):
                converged = True
                break
            f_prev = f_new

    trace = ShapingTrace(objectives=np.array(objectives), residuals=np.array(residuals))
    return ShapeResult(profile=current, solve=solved, regions=regions, trace=trace,
                       converged=converged)
