"""Proactive download optimization and cost-reduction accounting.

``solve_proactive`` minimizes the cycle cost over the box of feasible
allocations.  ``active_sets`` identifies, slot by slot and item by item, the
users whose requests are worth prefetching at all under the non-proactive
loads; ``policy_a`` turns those sets into a one-scalar-per-slot allocation
whose cost reduction admits closed-form bounds, computed by
``reduction_bounds``.  ``scaling_curve`` sweeps a generator scenario over a
user-count ladder and fits the growth exponent of the reduction; it solves
each point after the first from the previous one's plan (``solve_continued``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .costs import CostDomainError, CostModel
from .demand import DemandProfile, ItemCatalog
from .evaluate import (
    EvalConfig,
    EvalResult,
    Point,
    cost_gradient_x,
    expected_cycle_cost,
    hess_operator,
    nonproactive_cost,
    weigh_classes,
)
from .optim import RESOLUTION, box_projected_descent, increasing_root

log = logging.getLogger(__name__)

_MC_SIGMAS = 4.0
# reduction_bounds' solve tolerance: its gap certifies delta to 1e-10 of the cost
REDUCTION_TOL = 1e-10
_OVERFLOW = EvalResult(np.inf, 0.0, np.empty(0), np.empty(0))   # loads past the cost's domain


@dataclass(frozen=True)
class ActiveSets:
    """Users for whom prefetching item m ahead of slot t pays off.

    ``member[n, t, m]`` is True when ``stat``, the expected marginal saving
    ``b - a_{t-1}`` of moving one unit of that user's slot-t demand into slot
    t-1 under non-proactive loads, clears ``max(4 sigma, 16 eps (|b| +
    |a_{t-1}|))``: its Monte Carlo standard error (0 on exact engines) or its
    rounding, whatever the unit of the loads.  ``undecided`` lists the cells
    within that floor of zero.  On a profile of classes the rows are classes
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


def active_sets(profile: DemandProfile, catalog: ItemCatalog, cost: CostModel, cfg: EvalConfig,
                zero: Point | None = None) -> ActiveSets:
    """Decide membership from E[I_{n,t}(m) C'(L_t)] - E[C'(L_{t-1})] at x = 0,
    read from ``zero``, the zero allocation's point (built when omitted)."""
    zero = zero or Point(profile, np.zeros(profile.probs.shape), catalog.sizes, cost, cfg)
    a, b = cfg.kernels.marginal_stats(zero.tables, zero.state, cost)
    a_se, b_se = cfg.kernels.marginal_errors(zero.tables, zero.state, cost, b)
    prev = np.concatenate((a[-1:], a[:-1]))[None, :, None]
    prev_se = np.concatenate((a_se[-1:], a_se[:-1]))[None, :, None]
    stat = b - prev
    floor = np.maximum(_MC_SIGMAS * np.sqrt(b_se**2 + prev_se**2),
                       RESOLUTION * (np.abs(b) + np.abs(prev)))
    member = stat > floor
    undecided = tuple(map(tuple, np.argwhere(~member & (stat >= -floor))))
    return ActiveSets(member=member, stat=stat, undecided=undecided, counts=profile.weights)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the box-constrained cycle-cost minimization.  ``allocation``
    is the answer as a :class:`~procache.evaluate.Point`: on a ``"tol"`` or
    ``"cap"`` stop the descent's last one, its tables and state built."""

    allocation: Point
    cost: float
    converged: bool               # stop is "tol" or "rounding"
    iterations: int
    gap: float                    # certificate: cost - gap <= the least cost
    objective_trace: np.ndarray
    stop: str                     # why the descent stopped: "tol", "rounding", "stalled" or "cap"
    start: EvalResult             # at the start; on a cold one, the non-proactive cost
    final: EvalResult             # at the answer, the last accepted iterate


def solve_proactive(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    tol: float = 1e-8,
    max_iters: int = 5000,
    x0: np.ndarray | Point | None = None,
) -> SolveResult:
    """Minimize the cycle cost over allocations in [0, S(m)] per coordinate.

    Projected Newton-CG (:func:`~procache.optim.box_projected_descent`):
    conjugate gradient on the coordinates off their bounds, re-solved on the
    face the step lands on, with exact Hessian-vector products on those
    coordinates from one curvature operator per iteration
    (:func:`~procache.evaluate.hess_operator`), then an Armijo search along
    the projection arc.  ``tol`` is relative to the cost: the run stops with
    ``"tol"`` once the box's Frank-Wolfe gap, which bounds ``cost`` minus the
    least cost, is at most ``tol * cost``, whatever the scale or the start
    ``x0``.  ``stop`` is ``"rounding"`` (converged too) when no decrease is
    left to represent and the full step does not lower the gap within the
    cost's resolution, ``"stalled"`` when no decrease is found above that,
    ``"cap"`` at ``max_iters``.  Under Monte Carlo the gap certifies the
    sample-average cost only.
    Descent is monotone up to ``16 eps`` of the cost, and the run is
    deterministic for a given configuration (the Monte Carlo engine re-uses
    its fixed sample streams, so even stochastic evaluation yields a
    repeatable trajectory, and its Hessian is exact for that sample
    average).  An allocation that overflows
    an outage-capacity cost during the line search is rejected as an
    infinite-cost trial, never clipped; after a full step that overflows,
    the search tries ``TO_LIMIT`` (0.99) of the way to the capacity along
    the secant of the heaviest load, from the iterate's (the engine's
    ``heaviest``) to the one the trial's :class:`CostDomainError` names,
    then halves as usual.  A warm start that
    overflows under the given profile falls back to the zero allocation,
    which is feasible whenever the non-proactive cost is.

    ``x0`` is an allocation or a :class:`~procache.evaluate.Point` built for
    the same profile, cost and config, whose tables the solve then reuses.
    The start is evaluated once; that evaluation is the result's ``start``,
    and the answer's, made by the descent, is its ``final``.  The answer
    itself, ``allocation``, is a point (see :class:`SolveResult`).

    Each iterate is one :class:`~procache.evaluate.Point`, kept while the
    descent passes the same array: the trial value, the gradient once the
    trial is accepted and the curvature operator at it share its tables and
    engine state, and its value is computed once.  The descent starts
    from the start point's own array, so the start is built once too, and
    holds it only until its first accepted step.
    """
    sizes = catalog.sizes
    point, evaluated = None, None   # the point at hand, and its evaluation once made
    accepted = None                 # the evaluation of the last accepted iterate
    over = None                     # the load the last overflowing trial's error names

    def at(x):
        nonlocal point, evaluated
        if point is None or point.x is not x:
            point, evaluated = Point(profile, x, sizes, cost, cfg), None
        return point

    def value(x):
        nonlocal evaluated, over
        at(x)
        if evaluated is None:
            try:
                evaluated = expected_cycle_cost(profile, point, cost, cfg)
            except CostDomainError as err:
                evaluated, over = _OVERFLOW, err.load
        return evaluated.value

    def grad(x):
        # the descent takes gradients at the iterates it accepts, and at a
        # flat step's trial, which it may reject and end on the iterate before
        nonlocal accepted
        value(x)
        accepted = x, evaluated
        return cost_gradient_x(profile, point, cost, cfg)

    def to_limit(x, trial):
        # called right after ``trial`` overflowed, so ``over`` is its load; the
        # trial's point replaced the iterate's, so the iterate gets a new one,
        # whose heaviest load reads no loads grid.  The heaviest load is convex
        # along the step, so the secant reaches the capacity no later than it
        here = Point(profile, x, sizes, cost, cfg)
        heaviest = cfg.kernels.heaviest(here.tables, here.state)
        return (cost.domain_limit - heaviest) / (over - heaviest)

    def hess(x, free):
        return hess_operator(profile, at(x), cost, cfg, free)

    if isinstance(x0, Point):
        point = x0   # evaluating it checks that it was built for this solve
    elif x0 is not None:
        at(np.array(x0, dtype=float))   # a point makes its x read-only: not the caller's
    if point is None or not np.isfinite(value(point.x)):
        at(np.zeros(profile.probs.shape))
        if not np.isfinite(value(point.x)):
            # nothing to optimize: even pure reactive service overflows;
            # surface the untranslated domain error
            expected_cycle_cost(profile, point, cost, cfg)
    start = evaluated
    # only a capacity makes a trial's value inf, and only through a domain error
    res = box_projected_descent(value, grad, hess, point.x, 0.0, sizes, tol, max_iters,
                                to_limit if cost.domain_limit < np.inf else None)
    if not res.converged:
        log.warning("solve_proactive did not reach tol=%.1e (stop: %s): %d iterations, gap %.3g",
                    tol, res.stop, res.iterations, res.gap)
    allocation = at(res.x)
    if accepted[0] is not res.x:   # a refused flat step took the last gradient
        value(res.x)
        accepted = res.x, evaluated
    return SolveResult(
        allocation=allocation,
        cost=res.value,
        converged=res.converged,
        iterations=res.iterations,
        gap=res.gap,
        objective_trace=res.trace,
        stop=res.stop,
        start=start,
        final=accepted[1],
    )


def solve_continued(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    plan: np.ndarray | None,
    **solver,
) -> tuple[SolveResult, EvalResult]:
    """One point of a sweep over near-identical problems: :func:`solve_proactive`
    started from ``plan``, the previous point's answer, when it has this
    profile's shape, and from zero otherwise (numerical continuation;
    Allgower & Georg 1990).  Returns the solve and the non-proactive cost:
    a cold solve's own start, or on a warm one the same zero-plan evaluation
    made apart, so it has the same bits either way.  ``solver`` goes to
    :func:`solve_proactive`."""
    warm = plan is not None and plan.shape == profile.probs.shape
    solved = solve_proactive(profile, catalog, cost, cfg, x0=plan if warm else None, **solver)
    return solved, nonproactive_cost(profile, catalog, cost, cfg) if warm else solved.start


@dataclass(frozen=True)
class PolicyAResult:
    """One-scalar-per-slot prefetch policy built on the active sets; its
    ``allocation`` is a :class:`~procache.evaluate.Point`, valued as ``cost``."""

    allocation: Point
    x_hat: np.ndarray             # (T,) unreduced per-slot scalars
    x_tilde: np.ndarray           # (T,) scalars actually allocated
    reduction_step: float         # the r subtracted from x_hat
    sets: ActiveSets
    cost: EvalResult


def _exchange_slope(profile, catalog, cost, cfg, sets, t, xv) -> float:
    """phi_t'(xv) = T <cost_gradient_x(xv M_t), M_t>, where phi_t(x) is the
    expected cost of slots t-1 and t when every active pair of slot t (M_t
    marks them) prefetches exactly x units.  Past an outage capacity it is ``+inf``."""
    pairs = np.zeros(sets.member.shape)
    pairs[:, t] = sets.member[:, t]
    try:
        grad = cost_gradient_x(profile, xv * pairs, cost, cfg, catalog=catalog)
    except CostDomainError:
        return np.inf
    return profile.num_slots * float(np.sum(grad * pairs))


def policy_a(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    sets: ActiveSets | None = None,
) -> PolicyAResult:
    """Per-slot scalar prefetch for every active (user, item) pair.

    For each slot with a nonempty active set, x_hat[t] minimizes the convex
    two-slot exchange cost phi_t over [0, min_m S(m)]: it is the root of the
    exact, nondecreasing slope phi_t' (:func:`_exchange_slope`), found by
    bisection down to adjacent floats.  The allocated amount x_tilde[t]
    backs off by r, 1e-3 times the smallest x_hat over slots with active
    pairs.  ``sets`` are built here when omitted.
    """
    sets = sets or active_sets(profile, catalog, cost, cfg)
    live = sets.pair_counts() > 0
    x_hat = np.zeros(profile.num_slots)
    for t in np.flatnonzero(live):
        x_hat[t] = increasing_root(partial(_exchange_slope, profile, catalog, cost, cfg, sets, t),
                                   catalog.min_size)

    r = 1e-3 * float(x_hat[live].min()) if live.any() else 0.0
    x_tilde = np.where(live, np.maximum(x_hat - r, 0.0), 0.0)

    x = np.where(sets.member, x_tilde[None, :, None], 0.0)
    allocation = Point(profile, x, catalog.sizes, cost, cfg)
    return PolicyAResult(
        allocation=allocation,
        x_hat=x_hat,
        x_tilde=x_tilde,
        reduction_step=r,
        sets=sets,
        cost=expected_cycle_cost(profile, allocation, cost, cfg),
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
    ``lower <= delta <= upper`` holds for exact engines in any unit of the
    sizes, with ``lower > 0`` as soon as any set is nonempty.  One zero
    point serves the sets and the solve's cold start, the non-proactive cost.
    The solve runs at ``tol = REDUCTION_TOL`` (1e-10), so its gap certifies
    ``delta`` to within 1e-10 of the optimized cost.
    """
    zero = Point(profile, np.zeros(profile.probs.shape), catalog.sizes, cost, cfg)
    sets = active_sets(profile, catalog, cost, cfg, zero)
    n_slots = profile.num_slots
    upper = float(np.sum(weigh_classes(sets.stat * sets.member * catalog.sizes[None, None, :],
                                       profile.weights))) / n_slots

    pol = policy_a(profile, catalog, cost, cfg, sets=sets)
    lower = float(sum(
        pol.x_tilde[t] * -_exchange_slope(profile, catalog, cost, cfg, sets, t, pol.x_tilde[t])
        for t in np.flatnonzero(sets.pair_counts())
    )) / n_slots

    solved = solve_proactive(profile, catalog, cost, cfg, tol=REDUCTION_TOL, x0=zero)
    base = solved.start
    return CostReductionReport(
        nonproactive=base.value,
        optimized=solved.cost,
        delta=base.value - solved.cost,
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
    point N is ``family.with_users(N)``, derived from the parsed family
    without a second parse, so every point shares its catalog, cost and
    evaluation config.  Each point after the first starts warm, from the
    previous point's plan, when that plan has the new profile's shape: a
    profile of classes keeps one row per class at every N, while a
    per-user engine's rows grow with N and its points start cold.  The
    descent stops on the same relative gap from any start, but the last bits
    of a warm point's optimized cost (and of its ``delta`` and ``ratio``)
    can depend on the ladder it is in.  Its non-proactive cost and standard
    error are the zero plan's, as on a cold start.  The exponent is the
    least-squares slope of log(delta) against log(N) and needs at least
    three distinct user counts.  It is ``None``, with a warning naming the
    points, when some ladder point shows no reduction (``delta <= 0``),
    since its logarithm is undefined.
    """
    ladder = [int(n) for n in ladder]
    if len(set(ladder)) < 3:
        raise ValueError("exponent fit needs at least 3 ladder points with distinct user counts")
    points, plan = [], None
    for n in ladder:
        scn = family.with_users(n)
        solved, base = solve_continued(scn.profile, scn.catalog, scn.cost, scn.cfg, plan,
                                       tol=tol, max_iters=max_iters)
        plan = solved.allocation.x
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
