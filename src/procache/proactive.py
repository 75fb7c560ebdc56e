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
    ProactiveAllocation,
    cost_gradient_x,
    cost_hess_vec,
    cycle_tables,
    expected_cycle_cost,
    nonproactive_cost,
    slot_marginal_stats,
)
from .optim import box_projected_descent, golden_section_min, projected_gradient_norm

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
    listed in ``undecided``.
    """

    member: np.ndarray            # (N, T, M) bool
    stat: np.ndarray              # (N, T, M) the decision statistic
    undecided: tuple = field(default=())

    def users(self, t: int, m: int) -> tuple[int, ...]:
        return tuple(int(n) for n in np.nonzero(self.member[:, t, m])[0])

    def pair_counts(self) -> np.ndarray:
        """Number of active (user, item) pairs per slot."""
        return self.member.sum(axis=(0, 2)).astype(int)

    @property
    def any_active(self) -> bool:
        return bool(self.member.any())


def active_sets(
    profile: DemandProfile, catalog: ItemCatalog, cost: CostModel, cfg: EvalConfig
) -> ActiveSets:
    """Decide membership from E[I_{n,t}(m) C'(L_t)] - E[C'(L_{t-1})] at x = 0."""
    cfg.kernels.check(profile, cost)
    a, b, a_se, b_se = slot_marginal_stats(
        profile, np.zeros_like(profile.probs), catalog.sizes, cost, cfg
    )
    stat = b - np.roll(a, 1)[None, :, None]
    if cfg.kernels.sampled:
        sigma = np.sqrt(b_se**2 + np.roll(a_se, 1)[None, :, None] ** 2)
        member = stat > _MC_SIGMAS * sigma
        undecided_mask = ~member & (stat >= -_MC_SIGMAS * sigma)
        undecided = tuple(map(tuple, np.argwhere(undecided_mask)))
    else:
        member = stat > _MEMBER_MARGIN
        undecided = ()
    return ActiveSets(member=member, stat=stat, undecided=undecided)


@dataclass(frozen=True)
class SolveResult:
    """Outcome of the box-constrained cycle-cost minimization."""

    allocation: ProactiveAllocation
    cost: float
    converged: bool
    iterations: int
    grad_norm: float
    objective_trace: np.ndarray
    stop: str                     # why the descent stopped: "tol", "stalled" or "cap"


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
    the projection arc.  ``tol`` is relative: the run stops once the
    projected gradient norm is at most ``tol`` times its value at the zero
    allocation, so a warm start ``x0`` changes how fast the solve gets there
    but not how accurate it is (a warm start under which the zero
    allocation overflows, or where zero is already optimal, measures from
    ``x0`` instead).
    Descent is monotone and the run is deterministic for a given
    configuration (the Monte Carlo engine re-uses its fixed sample streams,
    so even stochastic evaluation yields a repeatable trajectory, and its
    Hessian is exact for that sample average).  An allocation that overflows
    an outage-capacity cost during the line search is rejected as an
    infinite-cost trial, never clipped.  A warm start that
    overflows under the given profile falls back to the zero allocation,
    which is feasible whenever the non-proactive cost is.
    """
    cfg.kernels.check(profile, cost)
    sizes = catalog.sizes
    n_users, n_slots, m_items = profile.probs.shape

    def value(x):
        try:
            return expected_cycle_cost(profile, x, cost, cfg, catalog=catalog).value
        except CostDomainError:
            return np.inf

    def grad(x):
        return cost_gradient_x(profile, x, cost, cfg, catalog=catalog)

    def hess(x, d):
        return cost_hess_vec(profile, x, d, cost, cfg, catalog=catalog)

    upper = np.broadcast_to(sizes, (n_users, n_slots, m_items))
    zero = np.zeros(upper.shape)
    scale = None     # None measures from x0, the zero allocation on a cold start
    if x0 is None or not np.isfinite(value(x0)):
        x0 = zero
        if not np.isfinite(value(x0)):
            # nothing to optimize: even pure reactive service overflows;
            # surface the untranslated domain error
            expected_cycle_cost(profile, x0, cost, cfg, catalog=catalog)
    else:
        try:
            scale = projected_gradient_norm(zero, grad(zero), 0.0, upper) or None
        except CostDomainError:
            pass     # the zero allocation overflows: measure from the warm start

    res = box_projected_descent(
        value, grad, hess, x0, 0.0, upper, tol=tol, max_iters=max_iters, scale=scale
    )
    if not res.converged:
        log.warning(
            "solve_proactive did not reach tol=%.1e (stop: %s): %d iterations, grad norm %.3g",
            tol, res.stop, res.iterations, res.grad_norm,
        )
    return SolveResult(
        allocation=ProactiveAllocation(res.x, catalog),
        cost=res.value,
        converged=res.converged,
        iterations=res.iterations,
        grad_norm=res.grad_norm,
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


def _policy_slot_objective(tables, cost, cfg, sets, t):
    """phi_t(x): expected cost of slots t-1 and t when every active pair
    prefetches exactly x units; ``tables`` hold the cycle at x = 0."""
    prev, cur = tables.slot(t - 1), tables.slot(t)
    pairs = int(sets.member[:, t, :].sum())
    member = sets.member[:, t:t + 1]
    expected_cost = cfg.kernels.expected_cost

    def phi(xv: float) -> float:
        try:
            first, _ = expected_cost(prev._replace(const=prev.const + xv * pairs), cost)
            second, _ = expected_cost(cur._replace(v=cur.v - xv * member), cost)
        except CostDomainError:
            return np.inf
        return float(first[0] + second[0])

    return phi


def policy_a(
    profile: DemandProfile,
    catalog: ItemCatalog,
    cost: CostModel,
    cfg: EvalConfig,
    sets: ActiveSets | None = None,
    r_rule=None,
    line_tol: float = 1e-8,
) -> PolicyAResult:
    """Per-slot scalar prefetch for every active (user, item) pair.

    For each slot with a nonempty active set, the scalar x_hat[t] minimizes
    the two-slot exchange cost over [0, min_m S(m)] (golden section to
    ``line_tol``); the allocated amount x_tilde[t] backs off by r, which by
    default is 1e-3 times the smallest x_hat over slots with active pairs.
    ``r_rule`` may be a float (absolute r) or a callable mapping the x_hat
    vector to r.
    """
    if sets is None:
        sets = active_sets(profile, catalog, cost, cfg)
    n_slots = profile.num_slots
    pair_counts = sets.pair_counts()
    x_hat = np.zeros(n_slots)
    tables = cycle_tables(profile, np.zeros_like(profile.probs), catalog.sizes, cfg)
    for t in range(n_slots):
        if pair_counts[t] == 0:
            continue
        phi = _policy_slot_objective(tables, cost, cfg, sets, t)
        x_hat[t] = golden_section_min(phi, 0.0, catalog.min_size, tol=line_tol)

    all_empty = not sets.any_active
    if all_empty:
        r = 0.0
    elif r_rule is None:
        r = 1e-3 * float(x_hat[pair_counts > 0].min())
    elif callable(r_rule):
        r = float(r_rule(x_hat))
    else:
        r = float(r_rule)
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
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> CostReductionReport:
    """Bound and measure the cost reduction from proactive downloads.

    The upper bound charges every active pair its full item size against the
    at-zero exchange statistic; the lower bound charges the policy scalars
    against the statistic re-evaluated at the policy's own loads.  Both
    bounds come from the same active sets, so ``lower <= delta <= upper``
    holds for exact engines, with ``lower > 0`` as soon as any set is
    nonempty.
    """
    sets = active_sets(profile, catalog, cost, cfg)
    n_slots = profile.num_slots
    upper = float(np.sum(sets.stat * sets.member * catalog.sizes[None, None, :])) / n_slots

    # the at-zero statistic re-evaluated with slot t's own pairs prefetching
    # x_tilde[t] and slot t-1 carrying that traffic
    pol = policy_a(profile, catalog, cost, cfg, sets=sets)
    tables = cycle_tables(profile, np.zeros_like(profile.probs), catalog.sizes, cfg)
    stats = cfg.kernels.marginal_stats
    _, b_mod, _, _ = stats(tables._replace(v=tables.v - pol.allocation.x), cost)
    shifted = np.roll(pol.x_tilde * sets.pair_counts(), -1)
    a_shift, _, _, _ = stats(tables._replace(const=shifted), cost)
    gain = np.sum((b_mod - np.roll(a_shift, 1)[None, :, None]) * sets.member, axis=(0, 2))
    lower = float(np.sum(pol.x_tilde * gain)) / n_slots

    base = nonproactive_cost(profile, catalog, cost, cfg)
    solved = solve_proactive(profile, catalog, cost, cfg, tol=tol, max_iters=max_iters)
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


def marginal_cost_ratio(
    profile: DemandProfile, catalog: ItemCatalog, cost: CostModel, cfg: EvalConfig
) -> np.ndarray:
    """Diagnostic per-slot ratio E[C'(L_t)] / E[C'(L_{t-1})] at zero allocation.

    A slot whose ratio exceeds 1 is a load peak relative to its predecessor;
    sustained ratios above 1 on slots with nonempty active sets indicate the
    regime where the reduction keeps growing superlinearly with the user
    count.  Purely informational; no algorithm branches on it.
    """
    a, _, _, _ = slot_marginal_stats(
        profile, np.zeros_like(profile.probs), catalog.sizes, cost, cfg
    )
    return a / np.roll(a, 1)


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


def scaling_curve(family, ladder, tol: float = 1e-6, max_iters: int = 5000) -> ScalingCurve:
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
