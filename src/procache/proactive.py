"""Proactive download optimization and cost-reduction accounting.

``solve_proactive`` minimizes the cycle cost over the box of feasible
allocations.  ``active_sets`` identifies, slot by slot and item by item, the
users whose requests are worth prefetching at all under the non-proactive
loads; ``policy_a`` turns those sets into a one-scalar-per-slot allocation
whose cost reduction admits closed-form bounds, computed by
``reduction_bounds``.  ``scaling_curve`` sweeps a generator scenario over a
user-count ladder and fits the growth exponent of the reduction.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog
from .evaluate import (
    EvalConfig,
    EvalResult,
    Point,
    ProactiveAllocation,
    cost_gradient_x,
    cost_hess_vec,
    expected_cycle_cost,
    nonproactive_cost,
    weigh_classes,
)
from .optim import box_projected_descent, increasing_root

log = logging.getLogger(__name__)

_MEMBER_MARGIN = 1e-12
_MC_SIGMAS = 4.0


@dataclass(frozen=True)
class ActiveSets:
    """Users for whom prefetching item m ahead of slot t pays off.

    ``member[n, t, m]`` is True when the expected marginal saving of moving
    one unit of that user's slot-t demand into slot t-1 is positive under
    non-proactive loads.  With the Monte Carlo engine, cells whose statistic
    is within 4 standard errors of zero are excluded from membership and
    listed in ``undecided``.  On a profile of classes the rows are classes
    and ``counts`` their sizes as float weights (``None`` when every row is
    one user).
    """

    member: np.ndarray            # (N, T, M) bool
    stat: np.ndarray              # (N, T, M) the decision statistic
    undecided: tuple = field(default=())
    counts: np.ndarray | None = None

    def pair_counts(self) -> np.ndarray:
        """Number of active (user, item) pairs per slot, each class row counted once per user."""
        return weigh_classes(self.member.sum(axis=2), self.counts).sum(axis=0)

    @property
    def any_active(self) -> bool:
        return bool(self.member.any())


def active_sets(profile: DemandProfile, catalog: ItemCatalog, cost: CostModel, cfg: EvalConfig,
                zero: Point | None = None) -> ActiveSets:
    """Decide membership from E[I_{n,t}(m) C'(L_t)] - E[C'(L_{t-1})] at x = 0,
    read from ``zero``, the zero allocation's point (built when omitted)."""
    zero = zero or Point(profile, np.zeros(profile.probs.shape), catalog.sizes, cost, cfg)
    a, b, a_se, b_se = cfg.kernels.marginal_stats(zero.tables, cost)
    stat = b - np.roll(a, 1)[None, :, None]
    if cfg.kernels.sampled:
        sigma = np.sqrt(b_se**2 + np.roll(a_se, 1)[None, :, None] ** 2)
        member = stat > _MC_SIGMAS * sigma
        undecided_mask = ~member & (stat >= -_MC_SIGMAS * sigma)
        undecided = tuple(map(tuple, np.argwhere(undecided_mask)))
    else:
        member = stat > _MEMBER_MARGIN
        undecided = ()
    return ActiveSets(member=member, stat=stat, undecided=undecided, counts=profile.weights)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the box-constrained cycle-cost minimization."""

    allocation: ProactiveAllocation
    cost: float
    converged: bool               # stop is "tol" or "rounding"
    iterations: int
    gap: float                    # certificate: cost - gap <= the least cost
    objective_trace: np.ndarray
    stop: str                     # why the descent stopped: "tol", "rounding", "stalled" or "cap"


def solve_proactive(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    tol: float = 1e-8,
    max_iters: int = 5000,
    x0: np.ndarray | None = None,
) -> SolveResult:
    """Minimize the cycle cost over allocations in [0, S(m)] per coordinate.

    Projected Newton-CG (:func:`~procache.optim.box_projected_descent`):
    conjugate gradient on the coordinates off their bounds, with exact
    Hessian-vector products from the engine's curvature kernel
    (:func:`~procache.evaluate.cost_hess_vec`), then an Armijo search along
    the projection arc.  ``tol`` is relative to the cost: the run stops with
    ``"tol"`` once the box's Frank-Wolfe gap, which bounds ``cost`` minus the
    least cost, is at most ``tol * cost``, whatever the scale or the start
    ``x0``.  ``stop`` is ``"rounding"`` (converged too) when no decrease is
    left to represent, ``"stalled"`` when none is found above that, ``"cap"``
    at ``max_iters``.  Under Monte Carlo the gap certifies the sample-average
    cost only.
    Descent is monotone and the run is deterministic for a given
    configuration (the Monte Carlo engine re-uses its fixed sample streams,
    so even stochastic evaluation yields a repeatable trajectory, and its
    Hessian is exact for that sample average).  An allocation that overflows
    an outage-capacity cost during the line search is rejected as an
    infinite-cost trial, never clipped.  A warm start that
    overflows under the given profile falls back to the zero allocation,
    which is feasible whenever the non-proactive cost is.

    Each iterate is one :class:`~procache.evaluate.Point`, kept while the
    descent passes the same array: the trial value, the gradient once the
    trial is accepted and every Hessian product at it share its tables and
    curvature state, and its value is computed once.  The descent starts
    from the start array itself, so the start is built once too.
    The descent holds the start only until its first accepted step.
    """
    sizes = catalog.sizes
    if x0 is not None:
        x0 = np.array(x0, dtype=float)   # a point makes its x read-only: not the caller's
    point, point_value = None, None

    def at(x):
        nonlocal point, point_value
        if point is None or point.x is not x:
            point, point_value = Point(profile, x, sizes, cost, cfg), None
        return point

    def value(x):
        nonlocal point_value
        at(x)
        if point_value is None:
            try:
                point_value = expected_cycle_cost(profile, point, cost, cfg).value
            except CostDomainError:
                point_value = np.inf
        return point_value

    def grad(x):
        return cost_gradient_x(profile, at(x), cost, cfg)

    def hess(x, d):
        # the descent holds d for the whole solve: the product overwrites it
        return cost_hess_vec(profile, at(x), d, cost, cfg, out=d)

    if x0 is None or not np.isfinite(value(x0)):
        x0 = np.zeros(profile.probs.shape)
        if not np.isfinite(value(x0)):
            # nothing to optimize: even pure reactive service overflows;
            # surface the untranslated domain error
            expected_cycle_cost(profile, at(x0), cost, cfg)
    # the start's point is the last one built, so the descent reuses it; the
    # start is passed as point.x alone, so it is freed once the descent moves off
    del x0
    res = box_projected_descent(value, grad, hess, point.x, 0.0, sizes, tol, max_iters)
    if not res.converged:
        log.warning("solve_proactive did not reach tol=%.1e (stop: %s): %d iterations, gap %.3g",
                    tol, res.stop, res.iterations, res.gap)
    return SolveResult(
        allocation=ProactiveAllocation(res.x, catalog),
        cost=res.value,
        converged=res.converged,
        iterations=res.iterations,
        gap=res.gap,
        objective_trace=res.trace,
        stop=res.stop,
    )


@dataclass(frozen=True)
class PolicyAResult:
    """One-scalar-per-slot prefetch policy built on the active sets."""

    allocation: ProactiveAllocation
    x_hat: np.ndarray             # (T,) unreduced per-slot scalars
    x_tilde: np.ndarray           # (T,) scalars actually allocated
    reduction_step: float         # the r subtracted from x_hat
    sets: ActiveSets
    cost: EvalResult
    all_empty: bool
    slopes: dict                  # slot t -> phi_t', for every slot with active pairs


def _exchange_slope(tables, cost, cfg, sets, t):
    """phi_t'(x), where phi_t(x) is the expected cost of slots t-1 and t when
    every active pair of slot t prefetches exactly x units; ``tables`` hold
    the cycle at x = 0.  Past an outage capacity the slope is ``+inf``."""
    prev, cur = tables.slot(t - 1), tables.slot(t)
    pairs = sets.pair_counts()[t]
    member = sets.member[:, t:t + 1]
    marginal_stats = cfg.kernels.marginal_stats

    def slope(xv: float) -> float:
        try:
            a, _, _, _ = marginal_stats(prev._replace(const=prev.const + xv * pairs), cost)
            _, b, _, _ = marginal_stats(cur._replace(v=cur.v - xv * member), cost)
        except CostDomainError:
            return np.inf
        return float(pairs * a[0] - np.sum(weigh_classes(b * member, sets.counts)))

    return slope


def policy_a(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    sets: ActiveSets | None = None,
    zero: Point | None = None,
) -> PolicyAResult:
    """Per-slot scalar prefetch for every active (user, item) pair.

    For each slot with a nonempty active set, x_hat[t] minimizes the convex
    two-slot exchange cost phi_t over [0, min_m S(m)]: it is the root of the
    exact, nondecreasing slope phi_t' (:func:`_exchange_slope`), found by
    bisection down to adjacent floats.  The allocated amount x_tilde[t]
    backs off by r, 1e-3 times the smallest x_hat over slots with active
    pairs.  ``zero`` is the zero allocation's point, built here when omitted.
    """
    zero = zero or Point(profile, np.zeros(profile.probs.shape), catalog.sizes, cost, cfg)
    sets = sets or active_sets(profile, catalog, cost, cfg, zero)
    pair_counts = sets.pair_counts()
    x_hat = np.zeros(profile.num_slots)
    slopes = {t: _exchange_slope(zero.tables, cost, cfg, sets, t)
              for t in np.flatnonzero(pair_counts)}
    for t, slope in slopes.items():
        x_hat[t] = increasing_root(slope, catalog.min_size)

    all_empty = not sets.any_active
    r = 0.0 if all_empty else 1e-3 * float(x_hat[pair_counts > 0].min())
    x_tilde = np.where(pair_counts > 0, np.maximum(x_hat - r, 0.0), 0.0)

    x = np.where(sets.member, x_tilde[None, :, None], 0.0)
    allocation = ProactiveAllocation(x, catalog)
    cost_res = expected_cycle_cost(profile, allocation, cost, cfg)
    return PolicyAResult(
        allocation=allocation,
        x_hat=x_hat,
        x_tilde=x_tilde,
        reduction_step=r,
        sets=sets,
        cost=cost_res,
        all_empty=all_empty,
        slopes=slopes,
    )


@dataclass(frozen=True)
class CostReductionReport:
    """Sandwich of the achievable cost reduction delta = C_nonproactive - C_opt."""

    nonproactive: float
    optimized: float
    delta: float
    lower: float
    upper: float
    policy_cost: float
    sets: ActiveSets
    policy: PolicyAResult
    solve: SolveResult


def reduction_bounds(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
) -> CostReductionReport:
    """Bound and measure the cost reduction from proactive downloads.

    The upper bound charges every active pair its full item size against the
    at-zero exchange statistic.  The lower bound is the sum over slots of
    ``x_tilde[t] * -phi_t'(x_tilde[t]) / T``: each slot's backed-off policy
    scalar against the exact exchange slope whose root is ``x_hat[t]``
    (:func:`policy_a`).  Both bounds come from the same active sets, so
    ``lower <= delta <= upper`` holds for exact engines, with ``lower > 0``
    as soon as any set is nonempty.  One zero-allocation point serves the
    sets, the policy, both bounds and the non-proactive cost.
    """
    zero = Point(profile, np.zeros(profile.probs.shape), catalog.sizes, cost, cfg)
    sets = active_sets(profile, catalog, cost, cfg, zero)
    n_slots, counts = profile.num_slots, profile.weights
    upper = float(np.sum(weigh_classes(sets.stat * sets.member * catalog.sizes[None, None, :],
                                       counts))) / n_slots

    pol = policy_a(profile, catalog, cost, cfg, sets=sets, zero=zero)
    lower = float(sum(
        pol.x_tilde[t] * -slope(pol.x_tilde[t]) for t, slope in pol.slopes.items()
    )) / n_slots

    base = expected_cycle_cost(profile, zero, cost, cfg)
    solved = solve_proactive(profile, catalog, cost, cfg)
    delta = base.value - solved.cost
    return CostReductionReport(
        nonproactive=base.value,
        optimized=solved.cost,
        delta=delta,
        lower=lower,
        upper=upper,
        policy_cost=pol.cost.value,
        sets=sets,
        policy=pol,
        solve=solved,
    )


@dataclass(frozen=True)
class ScalingPoint:
    num_users: int
    nonproactive: float
    optimized: float
    delta: float
    ratio: float
    stderr: float


@dataclass(frozen=True)
class ScalingCurve:
    points: tuple
    exponent: float | None        # None when some ladder point has no reduction


def scaling_curve(family, ladder, tol: float = 1e-8, max_iters: int = 5000) -> ScalingCurve:
    """Cost reduction across a user-count ladder plus its log-log growth rate.

    ``family`` is a generator :class:`~procache.scenario.Scenario`; ladder
    point N is ``family.with_users(N)``, so every point shares its catalog,
    cost and evaluation config.  The exponent is the least-squares slope of
    log(delta) against log(N) and needs at least three ladder points.  It is
    ``None``, with a warning naming the points, when some ladder point shows
    no reduction (``delta <= 0``), since its logarithm is undefined.
    """
    ladder = [int(n) for n in ladder]
    if len(ladder) < 3:
        raise ValueError("exponent fit needs at least 3 ladder points")
    points = []
    for n in ladder:
        scn = family.with_users(n)
        base = nonproactive_cost(scn.profile, scn.catalog, scn.cost, scn.cfg)
        solved = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg,
                                 tol=tol, max_iters=max_iters)
        delta = base.value - solved.cost
        points.append(
            ScalingPoint(
                num_users=n,
                nonproactive=base.value,
                optimized=solved.cost,
                delta=delta,
                ratio=delta / base.value if base.value else 0.0,
                stderr=base.stderr,
            )
        )
    flat = [p.num_users for p in points if not p.delta > 0.0]
    if flat:
        log.warning("no cost reduction at N=%s: the growth exponent is undefined",
                    ",".join(map(str, flat)))
        return ScalingCurve(points=tuple(points), exponent=None)
    slope = float(
        np.polyfit(np.log([p.num_users for p in points]), np.log([p.delta for p in points]), 1)[0]
    )
    return ScalingCurve(points=tuple(points), exponent=slope)
