"""Download optimization, active sets, the scalar policy, bounds, scaling."""

import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    active_sets,
    cost_gradient_x,
    expected_cycle_cost,
    nonproactive_cost,
    parse_scenario,
    policy_a,
    reduction_bounds,
    scaling_curve,
    solve_proactive,
)
from procache import evaluate, optim, proactive
from procache.costs import CostDomainError
from procache.evaluate import ENGINES, Point
from procache.optim import RESOLUTION
from procache.experiments import (
    OUTAGE_CAPACITY,
    SCALING_LADDER,
    SCALING_SCENARIO,
    two_user_scenario_dict,
)

from conftest import cost_for, random_instance, two_user_pair
from oracles import (
    active_users,
    box_gap,
    cyclic_outage_scenario,
    marginal_cost_ratio,
    policy_vertex,
    shuffled_zipf,
    slot_marginal_stats,
    solve_gap,
)

OPTIMIZED_QUAD = 15.410789534883722
OPTIMAL_COORD = (0, 1, 0)  # the only download worth making in the pilot
OPTIMAL_VALUE = 2.1965116279069767
OPTIMIZED_OUTAGE = 0.7623816508182035
# the policy and its lower bound in closed form: under the quadratic cost the
# cycle cost is a parabola in the slot-1 scalar u (cost F(u)), so x_hat is the
# vertex through F(0), F(S/2), F(S) (``oracles.policy_vertex``), x_tilde =
# x_hat - 1e-3 x_hat, POLICY_COST = F(x_tilde), and the lower bound is
# x_tilde * -F'(x_tilde) = x_tilde * F'' * (x_hat - x_tilde)
POLICY_XHAT = (0.0, 0.6527649533189699)
POLICY_XTILDE = (0.0, 0.6521121883656509)
POLICY_STEP = 0.0006527649533189699
POLICY_COST = 17.068072282635043
BOUNDS_LOWER = 0.004978876558172027
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
    # shaping re-solves each nudged profile from the last plan: the gap
    # certifies the plan's cost against the least one, whatever the start
    catalog, prof = two_user_pair(0.9)
    first = solve_proactive(prof, catalog, outage, enum_cfg)
    _, nudged = two_user_pair(0.899)
    warm = solve_proactive(nudged, catalog, outage, enum_cfg, x0=first.allocation.x)
    cold = solve_proactive(nudged, catalog, outage, enum_cfg)
    assert warm.stop == "tol"
    assert warm.gap == pytest.approx(solve_gap(nudged, catalog, outage, enum_cfg, warm), rel=1e-12)
    assert warm.gap <= 1e-8 * warm.cost
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
    assert active_users(sets, 1, 0) == (0, 1)
    assert active_users(sets, 0, 0) == ()
    assert sets.member.any()
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
    assert pol.sets.member.any()
    # every active pair downloads the slot scalar, everybody else nothing
    x = pol.allocation.x
    assert np.allclose(x[pol.sets.member], pol.x_tilde[1])
    assert np.all(x[~pol.sets.member] == 0.0)
    assert OPTIMIZED_QUAD <= pol.cost.value <= 19.5601


def test_policy_backs_off_by_a_thousandth_of_the_smallest_scalar(quad, enum_cfg):
    live_counts = []
    for seed in range(30):
        catalog, prof = random_instance(np.random.default_rng(seed))
        pol = policy_a(prof, catalog, quad, enum_cfg)
        live = pol.sets.pair_counts() > 0
        live_counts.append(int(live.sum()))
        if not live.any():
            assert pol.reduction_step == 0.0 and not pol.x_tilde.any()
            continue
        assert pol.reduction_step == 1e-3 * pol.x_hat[live].min()
        assert np.array_equal(pol.x_tilde[live], pol.x_hat[live] - pol.reduction_step)
        assert not pol.x_tilde[~live].any()
    assert max(live_counts) >= 2   # some case has a smallest scalar to pick


def test_policy_scalar_is_the_vertex_of_the_quadratic_exchange_cost(quad):
    # under the quadratic cost phi_t is a parabola, so its minimizer over
    # [0, S] is the clipped vertex through three cycle-cost values
    for engine in ("enumerate", "analytic_quadratic"):
        cfg, rng, checked = EvalConfig(engine=engine), np.random.default_rng(23), 0
        while checked < 24:
            catalog, prof = random_instance(rng)
            pol = policy_a(prof, catalog, quad, cfg)
            for t in np.flatnonzero(pol.sets.pair_counts()):
                vertex = policy_vertex(prof, catalog, quad, cfg, pol.sets, t)
                assert pol.x_hat[t] == pytest.approx(vertex, rel=1e-11, abs=0.0)
                checked += 1


def test_policy_and_bounds_collapse_without_active_pairs(quad, enum_cfg):
    catalog = ItemCatalog([3.0])
    prof = DemandProfile(np.full((1, 2, 1), 0.5))  # flat demand, nothing to shift
    pol = policy_a(prof, catalog, quad, enum_cfg)
    assert not pol.sets.member.any()
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


def test_the_solve_inside_reduction_bounds_builds_no_zero_allocation_tables(monkeypatch, two_user,
                                                                           quad, enum_cfg):
    # the solve starts on the zero point the active sets were read from, and
    # its evaluation there is the report's non-proactive cost
    catalog, prof = two_user
    builds, solving = [], []
    build, solve = evaluate.cycle_tables, proactive.solve_proactive

    def counted(profile, x, sizes, cfg):
        builds.append((not np.any(x), bool(solving)))
        return build(profile, x, sizes, cfg)

    def solved(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.clear()

    monkeypatch.setattr(evaluate, "cycle_tables", counted)
    monkeypatch.setattr(proactive, "solve_proactive", solved)
    rep = reduction_bounds(prof, catalog, quad, enum_cfg)
    assert (True, False) in builds and (False, True) in builds   # the sets and the descent
    assert (True, True) not in builds
    assert rep.nonproactive == rep.solve.start.value
    assert rep.nonproactive == nonproactive_cost(prof, catalog, quad, enum_cfg).value


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_reduction_bounds_do_not_depend_on_the_unit_of_the_sizes(kind):
    # membership is relative to the loads' magnitude, so no unit of the sizes,
    # however small it makes the costs, changes a set or a relative bound
    reference = None
    for k in (-16, -13, -12, -6, 0, 4):
        data = two_user_scenario_dict(0.9, kind)
        data["sizes"] = [s * 10.0**k for s in data["sizes"]]
        if kind == "outage":
            data["cost"]["mu"] *= 10.0**k
        scn = parse_scenario(data)
        rep = reduction_bounds(scn.profile, scn.catalog, scn.cost, scn.cfg)
        assert rep.sets.member.sum() == (3 if kind == "quadratic" else 4), k
        assert 0.0 < rep.lower <= rep.delta <= rep.upper, k
        relative = np.array([rep.lower, rep.upper]) / rep.nonproactive
        reference = relative if reference is None else reference
        np.testing.assert_allclose(relative, reference, rtol=1e-12, atol=0.0, err_msg=str(k))


@pytest.mark.parametrize("users", [25, 200, 10**3, 10**4, 10**6])
def test_zipf_family_bounds_hold_as_one_class(users):
    scn = parse_scenario(SCALING_SCENARIO).with_users(users)
    rep = reduction_bounds(scn.profile, scn.catalog, scn.cost, scn.cfg)
    assert rep.solve.stop == "tol"
    assert 0.0 < rep.lower <= rep.delta <= rep.upper


@pytest.mark.parametrize("engine", ENGINES)
def test_a_solve_reports_the_evaluation_it_started_from(engine, two_user, quad, outage):
    catalog, prof = two_user
    cfg = EvalConfig(engine=engine, samples=300, seed=3)
    for cost in (quad, outage) if engine == "enumerate" else (quad,):
        cold = solve_proactive(prof, catalog, cost, cfg)
        base = nonproactive_cost(prof, catalog, cost, cfg)
        assert (cold.start.value, cold.start.stderr) == (base.value, base.stderr)
        assert np.array_equal(cold.start.slot_values, base.slot_values)
        assert np.array_equal(cold.start.slot_stderrs, base.slot_stderrs)
        # a warm start is evaluated where it starts: at the cold solve's plan
        warm = solve_proactive(prof, catalog, cost, cfg, x0=cold.allocation.x)
        assert warm.start.value == cold.cost
        # and the descent's evaluation of its answer is the one a caller gets
        # by evaluating the returned plan again, to the last bit
        for solved in (cold, warm):
            again = expected_cycle_cost(prof, solved.allocation.x, cost, cfg, catalog=catalog)
            assert solved.final.value == solved.cost == again.value
            assert solved.final.stderr == again.stderr
            assert np.array_equal(solved.final.slot_values, again.slot_values)
            assert np.array_equal(solved.final.slot_stderrs, again.slot_stderrs)
        # a start point is taken only from the solve's own profile, cost and config
        zero = Point(prof, np.zeros(prof.probs.shape), catalog.sizes, cost, cfg)
        assert solve_proactive(prof, catalog, cost, cfg, x0=zero).cost == cold.cost
        with pytest.raises(ValueError, match="another profile"):
            solve_proactive(prof.with_probs(prof.probs), catalog, cost, cfg, x0=zero)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_solve_returns_its_answer_as_a_point(engine, two_user, quad, monkeypatch):
    # stopped on tol, the answer is the descent's last point, its tables and
    # state built; when the descent valued a trial past its answer (a search
    # that ends rounding or stalled), the answer is a new point that builds
    # them on first use
    catalog, prof = two_user
    cfg = EvalConfig(engine=engine, samples=300, seed=3)
    build, built = evaluate.cycle_tables, []
    descent = proactive.box_projected_descent

    def counted(profile, x, sizes, cfg):
        built.append(x)
        return build(profile, x, sizes, cfg)

    def then_a_trial(value_fn, *args):
        res = descent(value_fn, *args)
        value_fn(res.x.copy())
        return res

    monkeypatch.setattr(evaluate, "cycle_tables", counted)
    for trial_after in (False, True):
        if trial_after:
            monkeypatch.setattr(proactive, "box_projected_descent", then_a_trial)
        solved = solve_proactive(prof, catalog, quad, cfg)
        answer, count = solved.allocation, len(built)
        assert solved.stop == "tol"
        assert isinstance(answer, Point) and answer.profile is prof
        assert answer.sizes is catalog.sizes and not answer.x.flags.writeable
        assert ({"tables", "state"} <= vars(answer).keys()) != trial_after
        assert (built[-1] is answer.x) != trial_after
        assert expected_cycle_cost(prof, answer, quad, cfg).value == solved.final.value
        cost_gradient_x(prof, answer, quad, cfg)
        assert len(built) == count + trial_after


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
    for ladder in ((4, 8), (4, 4, 4), (4, 8, 4)):
        with pytest.raises(ValueError, match="3 ladder points with distinct user counts"):
            scaling_curve(parse_scenario(SMALL_FAMILY), ladder)


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


BENCH_LADDER = (250, 500, 1000, 1500)   # perfbench's scale_analytic ladder on this family
# a degree-2 polynomial cost with a constant and a linear term, on the paper's family
POLY2_FAMILY = {**SCALING_SCENARIO, "cost": {"kind": "polynomial", "coeffs": [0.5, 0.3, 1.0]}}


def _cold_solves(family, ladder):
    for n in ladder:
        scn = family.with_users(n)
        yield solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)


@pytest.mark.parametrize("source, ladder", [
    (SCALING_SCENARIO, SCALING_LADDER),
    (SCALING_SCENARIO, BENCH_LADDER),
    (SCALING_SCENARIO, (200, 25, 100, 50)),
    (SCALING_SCENARIO, (1500, 250, 1000, 500)),
    (POLY2_FAMILY, (25, 50, 100, 200)),
])
def test_a_warm_ladder_point_agrees_with_its_cold_solve(source, ladder):
    # class-form points start from the previous point's plan: the zero-plan
    # columns keep their bits, the optimized cost moves by a few ulps at most
    family = parse_scenario(source)
    curve = scaling_curve(family, ladder)
    for p, cold in zip(curve.points, _cold_solves(family, ladder), strict=True):
        base = cold.start.value
        assert (p.nonproactive, p.stderr) == (base, cold.start.stderr)
        assert p.optimized == pytest.approx(cold.cost, rel=1e-12, abs=0)
        assert p.delta == pytest.approx(base - cold.cost, rel=1e-12, abs=0)
        assert p.ratio == pytest.approx((base - cold.cost) / base, rel=1e-12, abs=0)


@pytest.mark.parametrize("engine", ["monte_carlo", "enumerate"])
def test_a_per_user_ladder_is_its_cold_solves(engine):
    # a per-user engine's plan grows a row per user, so no point starts warm
    if engine == "monte_carlo":
        family, ladder = parse_scenario(SCALING_SCENARIO).with_eval("monte_carlo", 100), (5, 10, 20)
    else:
        family = parse_scenario({**SMALL_FAMILY, "eval": {"engine": "enumerate"}})
        ladder = (2, 3, 4)
    curve = scaling_curve(family, ladder)
    for p, cold in zip(curve.points, _cold_solves(family, ladder), strict=True):
        base = cold.start
        assert p == proactive.ScalingPoint(p.num_users, base.value, cold.cost,
                                           base.value - cold.cost,
                                           (base.value - cold.cost) / base.value, base.stderr)


def test_a_warm_ladder_point_takes_one_newton_iteration(monkeypatch):
    # the benchmark's and the paper's ladders: 2 + 1 + 1 + 1 iterations each,
    # where eight cold solves take 2 each
    solve, iterations = proactive.solve_proactive, []

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(proactive, "solve_proactive", counted)
    family = parse_scenario(SCALING_SCENARIO)
    for ladder in (BENCH_LADDER, SCALING_LADDER):
        scaling_curve(family, ladder)
    assert iterations == [2, 1, 1, 1] * 2
    cold = [res.iterations for ladder in (BENCH_LADDER, SCALING_LADDER)
            for res in _cold_solves(family, ladder)]
    assert cold == [2] * 8


def test_newton_solve_of_the_paper_family_ends_on_its_relative_tolerance():
    # 600k coordinates at an objective of 4e8: the stop must not depend on that scale
    scn = parse_scenario(SCALING_SCENARIO).with_users(1500)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg, tol=1e-6)
    assert (res.stop, res.converged) == ("tol", True)
    assert res.iterations <= 3
    assert res.gap == pytest.approx(solve_gap(scn.profile, scn.catalog, scn.cost, scn.cfg, res),
                                    rel=1e-12)
    assert res.gap <= 1e-6 * res.cost


def test_a_cold_solve_holds_few_full_size_arrays():
    # Hessian products reuse the descent's one work buffer, and the start is
    # freed once the descent moves off it: the traced peak is the iterate, its
    # trial's tables, two gradients, the step and that buffer, about 6.3
    # allocation-sized arrays; one more full-size temporary alive at the peak
    # passes 7
    scn = parse_scenario(SCALING_SCENARIO).with_users(200)
    prof = scn.profile.expanded()   # the full-N path
    tracemalloc.start()
    try:
        res = solve_proactive(prof, scn.catalog, scn.cost, scn.cfg, tol=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stop == "tol"
    assert peak < 7 * prof.probs.nbytes, peak / prof.probs.nbytes


def test_a_cold_solve_builds_the_tables_once_per_iterate(monkeypatch):
    # tables are built for allocations only; a direction enters the kernel as itself
    scn = parse_scenario(SCALING_SCENARIO).with_users(200)
    iterates, directions = [], []
    build = evaluate.cycle_tables
    engine = scn.cfg.kernels

    def counted(profile, x, sizes, cfg):
        assert np.array_equal(sizes, scn.catalog.sizes)
        iterates.append(x)
        return build(profile, x, sizes, cfg)

    def operator(tables, curv, cost, free):
        product = engine.hess_op(tables, curv, cost, free)

        def recorded(v, *args):
            directions.append(v)
            return product(v, *args)
        return recorded

    monkeypatch.setattr(evaluate, "cycle_tables", counted)
    monkeypatch.setitem(evaluate._ENGINES, scn.cfg.engine,
                        dataclasses.replace(engine, hess_op=operator))
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg, tol=1e-6)
    assert res.converged and directions
    # the list keeps every iterate alive, so no two of them share an id
    assert len({id(x) for x in iterates}) == len(iterates)
    assert len(iterates) < len(directions)


def test_a_monte_carlo_solve_takes_c2_once_per_newton_iteration(monkeypatch):
    # each iteration builds one curvature operator on its free set, and that
    # operator evaluates C''(Y) once for all of the iteration's CG products
    scn = parse_scenario(SCALING_SCENARIO).with_users(10).with_eval("monte_carlo", 300)
    engine, second = scn.cfg.kernels, CostModel.second
    seconds, builds, products = [], [], []

    def counted_second(self, load):
        seconds.append(load)
        return second(self, load)

    def operator(tables, loads, cost, free):
        builds.append(free)
        product = engine.hess_op(tables, loads, cost, free)

        def counted(v, *args):
            products.append(v)
            return product(v, *args)
        return counted

    monkeypatch.setattr(CostModel, "second", counted_second)
    monkeypatch.setitem(evaluate._ENGINES, "monte_carlo",
                        dataclasses.replace(engine, hess_op=operator))
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    assert res.stop == "tol"
    # every iteration had a free set; a stop on tol starts no iteration
    assert len(seconds) == len(builds) == res.iterations
    assert len(products) > 2 * len(builds)
    assert all(0 < free.size < scn.profile.probs.size for free in builds)


# the Monte Carlo answers, frozen: SHA-256 of the plan's and the objective
# trace's bytes, the gap's hex form, the iterations and the stop
FROZEN_MONTE_CARLO = {
    ("zipf10", 300): ("a10200956a3a9e2146b0ed5a6e232a7a8e1b709bc48043c054a43941719803c7",
                      "7049866e898676399889a317d4e0e65a260a4a29ec6811f76bbc2edfeb27fb9b",
                      "0x1.18add8f4e10bep-17", 4, "tol"),
    ("quadratic", 300): ("dd2ccb74f9e9a710281a370aee2ef21aff161b0b63d06019cc1c617b526f8db8",
                         "a5a5763922744235b99f1433c82edd9932bc24e1316c498abf4eec59d13362bf",
                         "0x1.b0427157f05e4p-46", 2, "tol"),
    ("outage", 300): ("f4fa3a0a8de0980792267f92ae16d0f3746641794eeeb1c0d899280ebcf731f8",
                      "9fcb0822e1534c0ec0c8560366da5f99e296d4938154b763ccac54f576a0d08b",
                      "0x1.8210ae151ca11p-37", 5, "tol"),
    ("outage", 1): ("a7426421d1b647ccdafd08082171f101800d86774ea5c821698321d87877a847",
                    "5f49c8c392d3d3eca53ed110813e91d2e958c23d049d080e2848a04cc7611a19",
                    "0x0.0p+0", 5, "tol"),
}


@pytest.mark.parametrize("study, samples", list(FROZEN_MONTE_CARLO))
def test_monte_carlo_answers_are_frozen(study, samples):
    # the Zipf family at 10 users and the two-user studies, each solved at
    # its scenario seed; a change to the sample streams, to the order in
    # which the curvature product adds up, or to the Newton step re-freezes
    # these (the two-user quadratic entry was last re-frozen when the face
    # step began fixing only its pinned crossers past its gate: the same
    # plan and gap, one iteration fewer)
    if study == "zipf10":
        scn = parse_scenario(SCALING_SCENARIO).with_users(10)
    else:
        scn = parse_scenario(two_user_scenario_dict(0.9, study))
    scn = scn.with_eval("monte_carlo", samples)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    got = (hashlib.sha256(res.allocation.x.tobytes()).hexdigest(),
           hashlib.sha256(res.objective_trace.tobytes()).hexdigest(),
           res.gap.hex(), res.iterations, res.stop)
    assert got == FROZEN_MONTE_CARLO[study, samples]


def test_cold_and_warm_solves_build_their_start_once(monkeypatch, outage, enum_cfg):
    # the descent starts from the solve's own start array, so its probe of
    # the start value and the descent's first iterate share one point; a
    # warm solve builds no point at the zero allocation
    catalog, prof = two_user_pair(0.9)
    first = solve_proactive(prof, catalog, outage, enum_cfg)
    _, nudged = two_user_pair(0.899)
    built, values = [], []
    build, value = evaluate.cycle_tables, proactive.expected_cycle_cost

    def counted(profile, x, sizes, cfg):
        if np.any(sizes):
            built.append(np.array(x))
        return build(profile, x, sizes, cfg)

    def valued(*args, **kwargs):
        values.append(1)
        return value(*args, **kwargs)

    monkeypatch.setattr(evaluate, "cycle_tables", counted)
    monkeypatch.setattr(proactive, "expected_cycle_cost", valued)
    for start in (None, first.allocation.x):
        built.clear()
        values.clear()
        res = solve_proactive(nudged, catalog, outage, enum_cfg, x0=start)
        assert res.converged
        x0 = np.zeros_like(first.allocation.x) if start is None else start
        assert sum(np.array_equal(x, x0) for x in built) == 1
        assert start is None or all(np.any(x) for x in built)
        assert len(values) == len(built)   # one value per point


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
        a, b = slot_marginal_stats(prof, x, catalog.sizes, cost, cfg)
        lower += x_tilde[t] * float(np.sum((b[:, t] - a[t - 1]) * member[:, t]))
    return lower / n_slots


def test_policy_and_bounds_agree_across_exact_engines(two_user):
    # x_hat is the root of the exact exchange slope, to the last bit, and the
    # lower bound reads the same slope at x_tilde: both engines agree to rounding
    rng = np.random.default_rng(19)
    cases = [two_user] + [random_instance(rng) for _ in range(20)]
    quad = CostModel.quadratic()
    for catalog, prof in cases:
        ref = reduction_bounds(prof, catalog, quad, EvalConfig(engine="enumerate"))
        got = reduction_bounds(prof, catalog, quad, EvalConfig(engine="analytic_quadratic"))
        assert np.allclose(got.policy.x_hat, ref.policy.x_hat, rtol=1e-12, atol=0.0)
        assert got.policy_cost == pytest.approx(ref.policy_cost, rel=1e-6)
        assert got.upper == pytest.approx(ref.upper, rel=1e-6)
        assert got.delta == pytest.approx(ref.delta, rel=1e-6, abs=1e-12)
        assert got.lower == pytest.approx(ref.lower, rel=1e-12, abs=0.0)
        for rep, cfg in ((ref, EvalConfig(engine="enumerate")),
                         (got, EvalConfig(engine="analytic_quadratic"))):
            oracle = _lower_per_slot(prof, catalog, quad, cfg, rep)
            assert rep.lower == pytest.approx(oracle, rel=1e-12, abs=1e-15)
        assert np.array_equal(got.sets.member, ref.sets.member)


def test_solve_reports_why_it_stopped(two_user, quad, outage, enum_cfg, analytic_cfg):
    catalog, prof = two_user
    assert solve_proactive(prof, catalog, quad, enum_cfg).stop == "tol"
    # the closed-form gradient bottoms out at 4.4e-16, and the gap it leaves
    # is below 1e-16 of the cost: even that tolerance is certified
    tight = solve_proactive(prof, catalog, quad, analytic_cfg, tol=1e-16)
    assert (tight.stop, tight.converged) == ("tol", True)
    assert 0.0 < tight.gap <= 1e-16 * tight.cost
    # the quadratic solve ends tol in one Newton step; the outage one takes more
    capped = solve_proactive(prof, catalog, outage, enum_cfg, max_iters=1)
    assert (capped.stop, capped.converged, capped.iterations) == ("cap", False, 1)
    assert capped.gap > 1e-8 * capped.cost


def test_solve_that_ends_flat_reports_rounding():
    # the cyclic outage instance near its capacity: at tol 1e-14 its descent
    # ends with no decrease left to represent, its gap above tol * cost, and
    # the certified flat step's trial does not lower it
    scn = parse_scenario(cyclic_outage_scenario())
    tol = 1e-14
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg, tol=tol)
    assert (res.stop, res.converged) == ("rounding", True)
    assert res.gap == pytest.approx(solve_gap(scn.profile, scn.catalog, scn.cost, scn.cfg, res),
                                    rel=1e-12)
    assert tol * res.cost < res.gap < 1e-8 * res.cost
    # the rejected trial took the last gradient: the answer is still the one valued
    assert (res.final.value, res.objective_trace[-1]) == (res.cost, res.cost)


def test_a_flat_search_takes_the_certified_step(monkeypatch):
    # instance 1 of the exhaustive grid search: at tol 1e-10 its outage Newton
    # search ends flat above tol; the full trial lowers the gap, within the
    # resolution of the value, and the solve ends on tol
    catalog = ItemCatalog([0.8252071899905918])
    prof = DemandProfile(np.array([0.35514134217454163, 0.8425204285868225]).reshape(1, 2, 1))
    cost, cfg = cost_for("outage", 1, 2, catalog.sizes), EvalConfig(engine="enumerate")
    searches, search = [], optim._arc_search

    def recorded(value_fn, clip, x, fx, g, step, work, *to_limit):
        found, flat = search(value_fn, clip, x, fx, g, step, work, *to_limit)
        searches.append((found is None and flat, box_gap(x, g, 0.0, catalog.sizes)))
        return found, flat

    monkeypatch.setattr(optim, "_arc_search", recorded)
    res = solve_proactive(prof, catalog, cost, cfg, tol=1e-10)
    flat = [gap for ended_flat, gap in searches if ended_flat]
    assert len(flat) == 1 and flat[0] > 1e-10 * res.cost
    assert (res.stop, res.converged) == ("tol", True)
    assert res.gap < flat[0]
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= RESOLUTION * np.abs(trace[:-1]))


# the cyclic outage instance cut to N users at mu = ratio * N * max size, and
# the costs its solves reached when the arc search only halved; halving ended
# N = 6 at 1.01 "stalled" (gap/f 2.1e-7) and N = 6 at 1.1 "rounding" (gap/f
# 2.2e-6, reported converged)
NEAR_CAPACITY = {
    3: (1.0674817020464702, 1.0091264160584859, 0.9040765139131409, 0.7865407129477772,
        0.6410580556410864),
    4: (0.9568639112671639, 0.9209887010161686, 0.8374755227601302, 0.7397082175399055,
        0.6142043883640871),
    5: (0.90956865419852, 0.8796894056713574, 0.8053051552330793, 0.7153996431621689,
        0.5992430441223636),
    6: (0.884053726963797, 0.8563301639040017, 0.786213600171235, 0.7005461338455555,
        0.5897301895464665),
}
CAPACITY_RATIOS = (1.01, 1.02, 1.05, 1.1, 1.2)


def near_capacity(users, ratio):
    data = cyclic_outage_scenario()
    data["profiles"] = data["profiles"][:users]
    data["cost"] = {"kind": "outage", "mu": ratio * users * max(data["sizes"])}
    return parse_scenario(data)


@pytest.mark.parametrize("users", sorted(NEAR_CAPACITY))
def test_near_capacity_solves_end_on_tol(users):
    for ratio, before in zip(CAPACITY_RATIOS, NEAR_CAPACITY[users]):
        scn = near_capacity(users, ratio)
        res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
        assert (res.stop, res.converged) == ("tol", True), (ratio, res.stop)
        assert res.gap <= 1e-8 * res.cost
        assert res.cost == pytest.approx(before, rel=1e-12)
        assert res.cost - res.gap <= before


def _recorded_searches(monkeypatch):
    """Every arc search of the solves that follow, as (trials, result, shares,
    arguments): each valued trial with its value, and the capacity shares
    asked for.  The descent's own search runs."""
    searches, search = [], optim._arc_search

    def recorded(value_fn, clip, x, fx, g, step, work, to_limit=None):
        trials, shares = [], []

        def valued(trial):
            trials.append((trial.copy(), value_fn(trial)))
            return trials[-1][1]

        def limited(x, trial):
            shares.append(to_limit(x, trial))
            return shares[-1]

        found = search(valued, clip, x, fx, g, step, work, to_limit and limited)
        searches.append((trials, found, shares, (clip, x.copy(), fx, g.copy(), step.copy())))
        return found

    monkeypatch.setattr(optim, "_arc_search", recorded)
    return searches


@pytest.mark.parametrize("engine", ["enumerate", "monte_carlo"])
def test_an_overflowing_full_step_tries_the_capacity_next(monkeypatch, engine):
    # the cyclic outage cold solve made 48 value calls, 35 of them
    # overflowing trials, while its searches halved from the full step; now
    # no search values more than one overflowing trial, its first, the next
    # trial lies TO_LIMIT of the secant share along the arc, inside the
    # domain, and the solve values at most 12 trials.  On 100 samples (seed
    # 0) the capacity 0.9 N max size lies below the heaviest load a draw can
    # make, and only sampled loads meet it
    data = cyclic_outage_scenario()
    if engine == "monte_carlo":
        data["eval"] = {"engine": "monte_carlo", "samples": 100}
        data["cost"]["mu"] = 0.9 * 6 * max(data["sizes"])
    scn = parse_scenario(data)
    searches = _recorded_searches(monkeypatch)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    assert res.stop == "tol"
    assert sum(len(trials) for trials, *_ in searches) <= 12
    overflowed = 0
    for trials, _, shares, (clip, x, _, _, step) in searches:
        over = [k for k, (_, value) in enumerate(trials) if value == np.inf]
        assert over in ([], [0]) and len(shares) == len(over)
        if over:
            overflowed += 1
            assert 0.0 < shares[0] < 1.0 and np.isfinite(trials[1][1])
            assert trials[1][0].tobytes() == clip(x + optim.TO_LIMIT * shares[0] * step).tobytes()
    assert overflowed >= 1


def test_a_face_step_without_its_pinned_crossers_needs_no_long_search(monkeypatch):
    # the cyclic cold solve's third Newton step moved 6 coordinates at 0
    # outward and 6 interior ones past a bound; clipped whole, its arc search
    # valued 13 trials.  Re-solved without the 6 pinned ones, no search
    # values more than 2
    scn = parse_scenario(cyclic_outage_scenario())
    searches = _recorded_searches(monkeypatch)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    assert res.stop == "tol"
    assert searches and max(len(trials) for trials, *_ in searches) <= 2


# the benchmark's three Monte Carlo `optimize` instances: the Zipf family at
# 10 users, power 4, eight slots and 50 items of sizes uniform in [10, 30]
# drawn from key (20130426, index), quadratic cost, 300 samples at seed
# index; with the cost each solve reached when its face step clipped every
# step whose crossers were half or more of its coordinates (6, 6 and 8
# Newton iterations)
MC_SILENCE = (0.1, 0.05, 0.7, 0.2, 0.8, 0.01, 0.4, 0.9)
MC_BENCH_COSTS = (8161.468291000166, 7564.534936948258, 18180.787847377665)


@pytest.mark.parametrize("index", range(3))
def test_the_benchmark_monte_carlo_solves_take_four_newton_iterations(index):
    sizes = np.random.default_rng([20130426, index]).uniform(10.0, 30.0, size=50)
    scn = parse_scenario({
        "sizes": sizes.tolist(),
        "generator": {"kind": "zipf", "users": 10, "power": 4.0,
                      "activity": [1.0 - q for q in MC_SILENCE]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "monte_carlo", "samples": 300},
        "alpha": 0.2,
        "seed": index,
    })
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    assert res.stop == "tol" and res.iterations <= 4
    assert res.cost == pytest.approx(MC_BENCH_COSTS[index], rel=1e-12, abs=0.0)


def test_a_full_step_inside_the_domain_makes_the_same_trials(monkeypatch):
    # a search whose full trial is finite never asks for the capacity share,
    # and without it, it values the same trials and ends the same, bit for bit
    scn = parse_scenario(cyclic_outage_scenario())
    searches = _recorded_searches(monkeypatch)
    solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    fits = [s for s in searches if s[0] and np.isfinite(s[0][0][1])]
    assert fits
    for trials, (found, flat), shares, (clip, x, fx, g, step) in fits:
        assert shares == []
        values, again = {t.tobytes(): v for t, v in trials}, []

        def value_fn(trial):
            again.append(trial.tobytes())
            return values[again[-1]]

        other, other_flat = optim._arc_search(value_fn, clip, x, fx, g, step, np.empty(x.shape))
        assert again == [t.tobytes() for t, _ in trials] and other_flat == flat
        assert (other is None) == (found is None)
        if found is not None:
            assert (other[0].tobytes(), other[1]) == (found[0].tobytes(), found[1])


@pytest.mark.parametrize("seed, cost, gap", [
    (1000, 182059937.85207674, 1.5614621409501905),
    (2, 183812260.84597695, 3.7393566478877896e-08),
], ids=["seed1000", "seed2"])
def test_shuffled_per_user_solves_find_their_face(seed, cost, gap):
    # shuffled Zipf at N = 1000, per user: 30 and 29 Newton iterations before
    # the face re-solve; ``cost`` and ``gap`` are that solve's answer, and each
    # solve's certificate holds the other's cost
    scn, prof = shuffled_zipf(1000, seed)
    res = solve_proactive(prof, scn.catalog, scn.cost, scn.cfg)
    assert res.stop == "tol" and res.iterations <= 12
    assert res.gap <= 1e-8 * res.cost
    assert res.cost - res.gap <= cost and cost - gap <= res.cost
    trace = res.objective_trace
    assert np.all(np.diff(trace) <= RESOLUTION * np.abs(trace[:-1]))


@pytest.mark.parametrize("users", [25, 200, 10**3, 10**4, 10**5, 10**6])
@pytest.mark.parametrize("tol", [1e-6, 1e-8])
def test_zipf_ladder_solves_end_on_a_certified_gap(users, tol):
    # the reduction grows like the cost in N, so every point needs the same
    # relative accuracy: the gap certifies it from N = 25 to 10^6
    scn = parse_scenario(SCALING_SCENARIO).with_users(users)
    res = solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg, tol=tol)
    assert (res.stop, res.converged) == ("tol", True)
    assert res.gap == pytest.approx(solve_gap(scn.profile, scn.catalog, scn.cost, scn.cfg, res),
                                    rel=1e-12)
    assert res.gap <= tol * res.cost


def _gap_instances():
    """Each instance with the iterations its early stop takes: the two-user
    quadratic objectives, exact and sample-average, are quadratic in the
    plan and end tol after one Newton step, so they stop at their start."""
    catalog, prof = two_user_pair(0.9)
    scn = parse_scenario(SCALING_SCENARIO).with_users(200)
    yield "quadratic", prof, catalog, CostModel.quadratic(), EvalConfig(engine="enumerate"), 0
    yield ("outage", prof, catalog, CostModel.outage(OUTAGE_CAPACITY),
           EvalConfig(engine="enumerate"), 1)
    yield "classes", scn.profile, scn.catalog, scn.cost, scn.cfg, 1
    # in-sample: the gap bounds the sample-average cost the engine minimizes
    yield ("monte_carlo", prof, catalog, CostModel.quadratic(),
           EvalConfig(engine="monte_carlo", samples=500, seed=3), 0)


def test_an_early_gap_bounds_the_least_cost_from_below():
    for name, prof, catalog, cost, cfg, early_iters in _gap_instances():
        early = solve_proactive(prof, catalog, cost, cfg, max_iters=early_iters)
        tight = solve_proactive(prof, catalog, cost, cfg)
        assert early.stop == "cap" and early.gap > 1e-8 * early.cost, name
        assert early.cost - early.gap <= tight.cost, name
        assert early.gap == pytest.approx(solve_gap(prof, catalog, cost, cfg, early), rel=1e-12)
