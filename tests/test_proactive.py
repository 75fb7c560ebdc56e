"""Download optimization, active sets, the scalar policy, bounds, scaling."""

import numpy as np
import pytest

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    active_sets,
    cost_gradient_x,
    marginal_cost_ratio,
    nonproactive_cost,
    parse_scenario,
    policy_a,
    reduction_bounds,
    scaling_curve,
    solve_proactive,
)
from procache import proactive
from procache.costs import CostDomainError
from procache.evaluate import slot_marginal_stats
from procache.experiments import SCALING_SCENARIO

from conftest import random_instance, two_user_pair

OPTIMIZED_QUAD = 15.410789534883722
OPTIMAL_COORD = (0, 1, 0)  # the only download worth making in the pilot
OPTIMAL_VALUE = 2.1965116279069767
OPTIMIZED_OUTAGE = 0.7623816508182035
POLICY_XHAT = (0.0, 0.6527649306301605)
POLICY_XTILDE = (0.0, 0.6521121656995303)
POLICY_STEP = 0.0006527649306301605
POLICY_COST = 17.068072282808103
BOUNDS_LOWER = 0.004979049267887226
BOUNDS_UPPER = 25.873000000000005
DELTA_QUAD = 4.149210465116283
TINY_X = 27.0 / 19.0
TINY_COST = 2.1315789473684212


def test_solve_two_user_quadratic_frozen(two_user, quad, enum_cfg):
    catalog, prof = two_user
    res = solve_proactive(prof, catalog, quad, enum_cfg)
    assert res.converged
    assert res.cost == pytest.approx(OPTIMIZED_QUAD, abs=1e-9)
    assert res.allocation.x[OPTIMAL_COORD] == pytest.approx(OPTIMAL_VALUE, abs=1e-6)
    rest = np.delete(res.allocation.x.ravel(), np.ravel_multi_index(OPTIMAL_COORD, (2, 2, 3)))
    assert np.max(np.abs(rest)) < 1e-6
    assert np.all(np.diff(res.objective_trace) <= 1e-12)


def test_solve_matches_across_exact_engines(two_user, quad, enum_cfg, analytic_cfg):
    catalog, prof = two_user
    a = solve_proactive(prof, catalog, quad, enum_cfg)
    b = solve_proactive(prof, catalog, quad, analytic_cfg)
    assert b.cost == pytest.approx(a.cost, abs=1e-10)


def test_solve_two_user_outage_frozen(two_user, outage, enum_cfg):
    catalog, prof = two_user
    res = solve_proactive(prof, catalog, outage, enum_cfg)
    assert res.converged
    assert res.cost == pytest.approx(OPTIMIZED_OUTAGE, abs=1e-9)


def test_solution_is_stationary(two_user, quad, enum_cfg):
    catalog, prof = two_user
    res = solve_proactive(prof, catalog, quad, enum_cfg)
    g = cost_gradient_x(prof, res.allocation, quad, enum_cfg, catalog=catalog)
    x = res.allocation.x
    interior = (x > 1e-9) & (x < catalog.sizes[None, None, :] - 1e-9)
    assert np.max(np.abs(g[interior])) < 1e-6
    assert np.min(g[x <= 1e-9]) > -1e-6  # pushing off the floor cannot help


def test_warm_start_is_a_fixed_point(two_user, quad, enum_cfg):
    catalog, prof = two_user
    first = solve_proactive(prof, catalog, quad, enum_cfg)
    again = solve_proactive(prof, catalog, quad, enum_cfg, x0=first.allocation.x)
    assert again.iterations <= 2
    assert again.cost == pytest.approx(first.cost, abs=1e-12)


def test_warm_solve_meets_the_same_tolerance_as_a_cold_one(outage, enum_cfg):
    # shaping re-solves each nudged profile from the last plan: the stop is
    # measured against the zero allocation, not against that good start
    catalog, prof = two_user_pair(0.9)
    first = solve_proactive(prof, catalog, outage, enum_cfg)
    _, nudged = two_user_pair(0.899)
    warm = solve_proactive(nudged, catalog, outage, enum_cfg, x0=first.allocation.x)
    cold = solve_proactive(nudged, catalog, outage, enum_cfg)
    g0 = cost_gradient_x(nudged, None, outage, enum_cfg, catalog=catalog)
    assert warm.stop == "tol"
    assert warm.grad_norm <= 1e-8 * np.linalg.norm(np.clip(-g0, 0.0, catalog.sizes))
    assert warm.cost == pytest.approx(cold.cost, rel=1e-12)


def test_tiny_instance_closed_form(tiny, quad, enum_cfg):
    catalog, prof = tiny
    res = solve_proactive(prof, catalog, quad, enum_cfg, tol=1e-12)
    assert res.allocation.x[0, 1, 0] == pytest.approx(TINY_X, abs=1e-8)
    assert res.cost == pytest.approx(TINY_COST, abs=1e-12)


def test_active_sets_structure(two_user, quad, enum_cfg):
    catalog, prof = two_user
    sets = active_sets(prof, catalog, quad, enum_cfg)
    expect = np.zeros((2, 2, 3), dtype=bool)
    expect[0, 1, 0] = expect[1, 1, 0] = expect[1, 1, 2] = True
    assert np.array_equal(sets.member, expect)
    assert sets.pair_counts().tolist() == [0, 3]
    assert sets.users(1, 0) == (0, 1)
    assert sets.users(0, 0) == ()
    assert sets.any_active
    assert sets.undecided == ()
    assert sets.stat[0, 1, 0] > 0.0
    assert np.all(sets.stat[:, 0, :] <= 0.0)  # the quiet slot never pays


def test_active_sets_monte_carlo_keeps_strong_cells(two_user, quad, mc_cfg):
    catalog, prof = two_user
    sets = active_sets(prof, catalog, quad, mc_cfg(20000, seed=3))
    assert sets.member[0, 1, 0]
    assert sets.member[1, 1, 2]


def test_active_sets_monte_carlo_flags_knife_edge_cells():
    # perfectly symmetric demand: every exchange statistic is exactly zero,
    # so a sampled version must abstain rather than claim membership
    catalog = ItemCatalog([3.0])
    prof = DemandProfile(np.full((1, 2, 1), 0.5))
    sets = active_sets(
        prof, catalog, CostModel.quadratic(), EvalConfig(engine="monte_carlo", samples=4000, seed=2)
    )
    assert not sets.member.any()
    assert len(sets.undecided) > 0


def test_policy_frozen_values(two_user, quad, enum_cfg):
    catalog, prof = two_user
    pol = policy_a(prof, catalog, quad, enum_cfg)
    assert np.allclose(pol.x_hat, POLICY_XHAT, atol=1e-9)
    assert np.allclose(pol.x_tilde, POLICY_XTILDE, atol=1e-9)
    assert pol.reduction_step == pytest.approx(POLICY_STEP, rel=1e-9)
    assert pol.cost.value == pytest.approx(POLICY_COST, abs=1e-9)
    assert not pol.all_empty
    # every active pair downloads the slot scalar, everybody else nothing
    x = pol.allocation.x
    assert np.allclose(x[pol.sets.member], pol.x_tilde[1])
    assert np.all(x[~pol.sets.member] == 0.0)
    assert OPTIMIZED_QUAD <= pol.cost.value <= 19.5601


def test_policy_respects_explicit_reduction(two_user, quad, enum_cfg):
    catalog, prof = two_user
    pol = policy_a(prof, catalog, quad, enum_cfg, r_rule=0.1)
    assert pol.reduction_step == 0.1
    assert pol.x_tilde[1] == pytest.approx(pol.x_hat[1] - 0.1)
    ruled = policy_a(prof, catalog, quad, enum_cfg, r_rule=lambda xh: 0.5 * xh.max())
    assert ruled.reduction_step == pytest.approx(0.5 * ruled.x_hat.max())


def test_policy_and_bounds_collapse_without_active_pairs(quad, enum_cfg):
    catalog = ItemCatalog([3.0])
    prof = DemandProfile(np.full((1, 2, 1), 0.5))  # flat demand, nothing to shift
    pol = policy_a(prof, catalog, quad, enum_cfg)
    assert pol.all_empty
    assert np.all(pol.allocation.x == 0.0)
    rep = reduction_bounds(prof, catalog, quad, enum_cfg)
    assert rep.lower == 0.0
    assert rep.upper == 0.0
    assert abs(rep.delta) <= 1e-9


def test_reduction_bounds_frozen(two_user, quad, enum_cfg):
    catalog, prof = two_user
    rep = reduction_bounds(prof, catalog, quad, enum_cfg)
    assert rep.nonproactive == pytest.approx(19.560000000000006, abs=1e-12)
    assert rep.optimized == pytest.approx(OPTIMIZED_QUAD, abs=1e-9)
    assert rep.delta == pytest.approx(DELTA_QUAD, abs=1e-9)
    assert rep.lower == pytest.approx(BOUNDS_LOWER, rel=1e-9)
    assert rep.upper == pytest.approx(BOUNDS_UPPER, rel=1e-12)
    assert rep.policy_cost == pytest.approx(POLICY_COST, abs=1e-9)
    assert rep.lower > 0.0
    assert rep.lower <= rep.delta <= rep.upper


def test_full_prefetch_needs_a_peak_to_dodge(quad, enum_cfg):
    # user A's whole item is worth downloading only because user B floods
    # the peak slot; alone, splitting the load across both slots wins
    catalog = ItemCatalog([1.0, 6.0])
    probs = np.zeros((2, 2, 2))
    probs[0, 1, 0] = 1.0
    probs[1, 1, 1] = 0.9
    prof = DemandProfile(probs)
    res = solve_proactive(prof, catalog, quad, enum_cfg, tol=1e-12, max_iters=20000)
    assert res.allocation.x[0, 1, 0] == pytest.approx(1.0, abs=1e-7)
    assert res.allocation.x[1, 1, 1] == pytest.approx(4.4 / 1.9, abs=1e-7)
    others = np.delete(res.allocation.x.ravel(), [2, 7])
    assert np.max(np.abs(others)) < 1e-7

    solo_catalog = ItemCatalog([3.0])
    solo = np.zeros((1, 2, 1))
    solo[0, 1, 0] = 1.0
    solo_res = solve_proactive(DemandProfile(solo), solo_catalog, quad, enum_cfg, tol=1e-12)
    assert solo_res.allocation.x[0, 1, 0] == pytest.approx(1.5, abs=1e-7)
    assert solo_res.cost == pytest.approx(2.25, abs=1e-10)


def test_marginal_cost_ratio_flags_the_peak(two_user, quad, enum_cfg):
    catalog, prof = two_user
    ratios = marginal_cost_ratio(prof, catalog, quad, enum_cfg)
    assert ratios.shape == (2,)
    assert ratios[1] > 1.0  # slot 1 is the peak
    assert float(np.prod(ratios)) == pytest.approx(1.0)  # the cycle closes


# four Zipf items over a uniformly drawn catalog, a busy slot before a quiet one
SMALL_FAMILY = {
    "sizes": {"kind": "uniform", "count": 4, "low": 1.0, "high": 2.0},
    "generator": {"kind": "zipf", "users": 1, "power": 3.0, "activity": [0.8, 0.2]},
    "cost": {"kind": "quadratic"},
    "eval": {"engine": "analytic_quadratic"},
    "seed": 3,
}


def test_scaling_curve_needs_three_points():
    with pytest.raises(ValueError, match="3 ladder points"):
        scaling_curve(parse_scenario(SMALL_FAMILY), (4, 8))


def test_scaling_curve_small_family():
    curve = scaling_curve(parse_scenario(SMALL_FAMILY), (4, 8, 16), tol=1e-8)
    users = [p.num_users for p in curve.points]
    deltas = [p.delta for p in curve.points]
    assert users == [4, 8, 16]
    assert all(d > 0 for d in deltas)
    assert deltas == sorted(deltas)  # reductions grow with the crowd
    assert np.isfinite(curve.exponent)
    for p in curve.points:
        assert p.optimized <= p.nonproactive
        assert p.ratio == pytest.approx(p.delta / p.nonproactive)


def test_newton_solve_of_the_paper_family_ends_on_its_relative_tolerance():
    # 600k coordinates at an objective of 4e8: the stop must not depend on that scale
    scn = parse_scenario(SCALING_SCENARIO).with_users(1500)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg, tol=1e-6)
    assert (res.stop, res.converged) == ("tol", True)
    assert res.iterations <= 3
    g = cost_gradient_x(scn.profile, res.allocation, scn.cost, scn.cfg, catalog=scn.catalog)
    x, sizes = res.allocation.x, scn.catalog.sizes
    pg0 = cost_gradient_x(scn.profile, None, scn.cost, scn.cfg, catalog=scn.catalog)
    assert res.grad_norm == pytest.approx(np.linalg.norm(x - np.clip(x - g, 0.0, sizes)))
    assert res.grad_norm <= 1e-6 * np.linalg.norm(np.clip(-pg0, 0.0, sizes))


def test_newton_steps_that_overflow_the_outage_capacity_are_rejected(monkeypatch):
    # six Zipf users near capacity: full Newton steps push a slot past mu
    sizes = np.linspace(1.0, 2.0, 4)
    rows = np.array([a * (1.0 / np.arange(1, 5)) / np.sum(1.0 / np.arange(1, 5))
                     for a in (0.2, 0.95, 0.6)])
    prof, catalog = DemandProfile(np.broadcast_to(rows, (6, 3, 4)).copy()), ItemCatalog(sizes)
    cost, cfg = CostModel.outage(1.05 * 6 * 2.0), EvalConfig(engine="enumerate")
    overflows = []
    evaluate = proactive.expected_cycle_cost

    def counted(*args, **kwargs):
        try:
            return evaluate(*args, **kwargs)
        except CostDomainError:
            overflows.append(1)
            raise

    monkeypatch.setattr(proactive, "expected_cycle_cost", counted)
    res = solve_proactive(prof, catalog, cost, cfg)
    assert overflows and res.converged
    assert res.cost < nonproactive_cost(prof, catalog, cost, cfg).value
    assert np.all(np.diff(res.objective_trace) < 0.0)
    x = res.allocation.x
    assert np.all((x >= 0.0) & (x <= sizes))   # a feasible plan, not a clipped overflow
    peak = np.max(np.roll(x.sum(axis=(0, 2)), -1) + np.sum(np.max(sizes - x, axis=2), axis=0))
    assert peak < cost.mu


def test_solver_reports_per_iteration_objective(tiny, quad, enum_cfg):
    catalog, prof = tiny
    res = solve_proactive(prof, catalog, quad, enum_cfg)
    base = nonproactive_cost(prof, catalog, quad, enum_cfg)
    assert res.objective_trace[0] == pytest.approx(base.value)
    assert res.objective_trace[-1] == pytest.approx(res.cost)
    assert len(res.objective_trace) == res.iterations + 1


def test_descent_stops_below_the_reachable_tolerance(two_user):
    # a tol under the rounding floor of the gradient used to run the descent to
    # its iteration cap, accepting trial steps that did not lower the objective
    rng = np.random.default_rng(3)
    cases = [two_user] + [random_instance(rng) for _ in range(45)]
    for catalog, prof in cases:
        for engine in ("enumerate", "analytic_quadratic"):
            cfg = EvalConfig(engine=engine)
            res = solve_proactive(prof, catalog, CostModel.quadratic(), cfg, tol=1e-16, max_iters=1000)
            ref = solve_proactive(prof, catalog, CostModel.quadratic(), cfg, tol=1e-15)
            assert res.iterations < 100 and res.converged
            assert res.cost == pytest.approx(ref.cost, rel=1e-12)


def _lower_per_slot(prof, catalog, cost, cfg, rep):
    """The lower bound slot by slot: only slot t's active pairs prefetch x_tilde[t].

    With T = 1 no pair is ever active (b <= a in the same slot), so both are 0."""
    member, x_tilde, n_slots = rep.sets.member, rep.policy.x_tilde, prof.num_slots
    lower = 0.0
    for t in range(n_slots):
        x = np.zeros(prof.probs.shape)
        x[:, t][member[:, t]] = x_tilde[t]
        a, b, _, _ = slot_marginal_stats(prof, x, catalog.sizes, cost, cfg)
        lower += x_tilde[t] * float(np.sum((b[:, t] - a[t - 1]) * member[:, t]))
    return lower / n_slots


def test_policy_and_bounds_agree_across_exact_engines(two_user):
    # x_hat minimizes phi_t, which is flat to rounding within ~1e-7 of its argmin
    # (relative to the search interval [0, min size]), so the two engines'
    # golden-section searches part by that much; a small x_hat is held to the
    # interval's scale.  The lower bound is x_tilde times a statistic that
    # vanishes at x_hat and sits only ~1e-3 x_hat away from it, so its error is
    # that gap amplified; it is held to the scale of the upper bound.
    rng = np.random.default_rng(19)
    cases = [two_user] + [random_instance(rng) for _ in range(20)]
    quad = CostModel.quadratic()
    for catalog, prof in cases:
        ref = reduction_bounds(prof, catalog, quad, EvalConfig(engine="enumerate"))
        got = reduction_bounds(prof, catalog, quad, EvalConfig(engine="analytic_quadratic"))
        assert np.allclose(got.policy.x_hat, ref.policy.x_hat, rtol=1e-6, atol=1e-6 * catalog.min_size)
        assert got.policy_cost == pytest.approx(ref.policy_cost, rel=1e-6)
        assert got.upper == pytest.approx(ref.upper, rel=1e-6)
        assert got.delta == pytest.approx(ref.delta, rel=1e-6, abs=1e-12)
        assert got.lower == pytest.approx(ref.lower, rel=1e-6, abs=1e-6 * ref.upper)
        for rep, cfg in ((ref, EvalConfig(engine="enumerate")),
                         (got, EvalConfig(engine="analytic_quadratic"))):
            oracle = _lower_per_slot(prof, catalog, quad, cfg, rep)
            assert rep.lower == pytest.approx(oracle, rel=1e-12, abs=1e-15)
        assert np.array_equal(got.sets.member, ref.sets.member)


def test_solve_reports_why_it_stopped(two_user, quad, enum_cfg, analytic_cfg):
    catalog, prof = two_user
    assert solve_proactive(prof, catalog, quad, enum_cfg).stop == "tol"
    # the closed-form gradient bottoms out at 4.4e-16: no decrease left to represent
    stalled = solve_proactive(prof, catalog, quad, analytic_cfg, tol=1e-16)
    assert stalled.stop == "stalled" and stalled.converged and stalled.grad_norm > 1e-16
    capped = solve_proactive(prof, catalog, quad, enum_cfg, max_iters=1)
    assert (capped.stop, capped.converged, capped.iterations) == ("cap", False, 1)
