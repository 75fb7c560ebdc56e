"""Entropy-ball regions, the shaping descent, boundary residuals, ratings gain."""

import numpy as np
import pytest

from procache import (
    DemandProfile,
    ItemCatalog,
    UnsupportedEngineError,
    cost_gradient_p,
    ebc_regions,
    entropy,
    shape_demand,
    parse_scenario,
    solve_proactive,
)
from procache import evaluate, optim, shaping
from procache.experiments import SCALING_SCENARIO, two_user_scenario_dict
from procache.optim import FACE_CROSSED, FACE_PASSES, linear_min_over_ball_slice

from oracles import (
    boundary_check,
    cell_radius,
    conditional,
    cyclic_outage_scenario,
    fully_flexible_optimum,
    region_contains,
    shuffled_zipf,
    strictly_inside_slice,
)


def one_cell(probs_row, silence, alpha):
    """The regions of a one-user, one-slot profile."""
    return ebc_regions(DemandProfile([[probs_row]], [[silence]]), alpha)


def linear_min_over_ebc(gradient, regions, n=0, t=0):
    """The shaping step on one region: minimize a linear functional of its profile."""
    return linear_min_over_ball_slice(gradient, regions.center[n, t], regions.radius[n, t],
                                      regions.activity[n, t])


def shaping_gain_condition(p_orig, p_candidate, x_row, sizes):
    """Leftover-demand alignment test for one (user, slot) pair.

    ``sum_m (S(m) - x(m)) * (p_orig(m) - p_candidate(m))``: the unprefetched
    parts of the load, weighted by how the candidate profile shifts mass away
    from the original.  A positive value certifies that adopting the candidate
    lowers the cycle cost once the downloads are re-optimized.
    """
    p0, p1, x, s = (np.asarray(a, dtype=float) for a in (p_orig, p_candidate, x_row, sizes))
    if not (p0.shape == p1.shape == x.shape == s.shape):
        raise ValueError("all arguments must share the item dimension")
    return float(np.sum((s - x) * (p0 - p1)))

RADIUS_U0_PEAK = 0.11502573473703187  # 0.9 * 0.2 * H(0.8, 0.1, 0.1)
RADIUS_U1_PEAK = 0.16163023047422043  # 0.9 * 0.2 * H(0.3, 0.1, 0.6)

QUAD_TRACE = (
    15.410789534883722,
    12.803003429550049,
    12.802924121135616,
    12.802924091413765,
)
# the shaped rows after two rounds, the first iterate whose linear-step gap
# meets the default tolerance
QUAD_PEAK_U0 = (0.877506363522242, 0.12175968516094618, 0.0007339513168118372)
QUAD_PEAK_U1 = (0.31111854994169225, 0.2210638425123644, 0.46781760754594337)
QUAD_OFFPEAK_U0 = (0.805374424973705, 0.18756560475510833, 0.007059970271186682)

OUTAGE_TRACE = (
    0.7623816508182035,
    0.6172906238564329,
    0.6077413061682974,
    0.6077410640189669,
    0.6077410640187284,
)
OUTAGE_PEAK_U0 = (0.8758308798319185, 0.1241691201680813, 0.0)
OUTAGE_PEAK_U1 = (0.31508932955606500, 0.21876988147825860, 0.46614078896567634)

# six users, three slots and four items under a tight outage cost, on the
# enumerate engine: bits frozen at the commit whose Newton steps fix only
# the crossers pinned on their bound once half or more of a pass's
# coordinates cross.  The peak rows of users 0 and 1, of users 2 and 3, of
# user 4 and of user 5 differ in their last bits, because each user's
# marginal is summed along its own axis.
CYCLIC_TRACE = (0.7862136001712351, 0.5434108134956123, 0.5429416301909108, 0.5429415118271775)
CYCLIC_OFFPEAK = (   # slots 0 and 2, every user
    (0.1327469884014378, 0.0568307511678516, 0.010422260430710564, 0.0),
    (0.3981352166756894, 0.17069474617710578, 0.03117003714720482, 0.0),
)
CYCLIC_PEAK = 2 * [(0.6424556990797904, 0.24344892002083793, 0.06409538089937157, 0.0)] + 2 * [
    (0.6424556990797904, 0.24344892002083796, 0.06409538089937175, 0.0),
] + [
    (0.6424556990797903, 0.24344892002083798, 0.06409538089937171, 0.0),
    (0.6424556990797904, 0.243448920020838, 0.06409538089937174, 0.0),
]

SPLIT_ALPHA_FINAL = 0.5565801553451664  # outage run with alpha = (0.1, 0.6)
SPLIT_PEAK_U0 = (0.83140845952391829, 0.12037817718367866, 0.04821336329240311)
SPLIT_PEAK_U1 = (0.35370337639743610, 0.45126487449667452, 0.19503174910588944)


def test_region_radius_formula(two_user):
    _, prof = two_user
    regions = ebc_regions(prof, 0.2)
    assert regions.radius[0, 1] == pytest.approx(RADIUS_U0_PEAK, abs=1e-15)
    assert regions.radius[0, 1] == pytest.approx(
        0.9 * 0.2 * entropy(np.asarray(prof.probs[0, 1]) / 0.9)
    )
    assert regions.radius[1, 1] == pytest.approx(RADIUS_U1_PEAK, abs=1e-15)
    assert regions.center is prof.probs
    assert np.array_equal(regions.activity, 1.0 - prof.silence)


def test_region_degenerate_radii():
    assert one_cell((0.4, 0.4), 0.2, 0.0).radius[0, 0] == 0.0
    assert one_cell((0.0, 0.0), 1.0, 0.5).radius[0, 0] == 0.0  # silent slot
    assert one_cell((1.0, 0.0), 0.0, 0.5).radius[0, 0] == 0.0  # point mass
    with pytest.raises(ValueError, match="nonnegative"):
        one_cell((0.5, 0.4), 0.1, -0.1)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, (0.2, np.nan), (0.2,), (0.1, 0.2, 0.3)])
def test_regions_refuse_a_bad_alpha(two_user, alpha):
    _, prof = two_user
    with pytest.raises(ValueError, match="alpha"):
        ebc_regions(prof, alpha)


def _random_rows(rng, rows, m_items, zero_share):
    """Activities in (0, 1] and probability rows on them, some entries exactly 0."""
    probs = rng.random((rows, 1, m_items)) ** 3
    probs[rng.random(probs.shape) < zero_share] = 0.0
    probs[:, :, 0] += 1e-3
    activity = rng.uniform(0.05, 1.0, size=(rows, 1))
    probs *= (activity / probs.sum(axis=2))[:, :, None]
    return DemandProfile(probs, 1.0 - activity)


def _oracle_radii(profile, alpha):
    alphas = np.broadcast_to(np.asarray(alpha, dtype=float), (profile.num_classes,))
    return np.array([[cell_radius(profile.probs[n, t], profile.silence[n, t], alphas[n])
                      for t in range(profile.num_slots)] for n in range(profile.num_classes)])


def test_row_wise_radii_equal_the_per_cell_oracle(two_user):
    rng = np.random.default_rng(13)
    _, prof = two_user
    exact = [(prof, 0.2), (prof, (0.1, 0.6))]
    for power in (0.5, 1.0, 4.0):
        zipf = parse_scenario(dict(SCALING_SCENARIO, generator=dict(
            SCALING_SCENARIO["generator"], users=3, power=power)))
        exact.append((zipf.profile, 0.2))
    for m_items in range(1, 8):
        exact.append((_random_rows(rng, 40, m_items, 0.3), rng.uniform(0.0, 1.0, 40)))
    for m_items in (8, 13, 50):
        exact.append((_random_rows(rng, 40, m_items, 0.0), 0.37))
    for profile, alpha in exact:
        assert np.array_equal(ebc_regions(profile, alpha).radius, _oracle_radii(profile, alpha))

    # past 7 items numpy's pairwise sum groups the terms by position, so
    # zero entries move the grouping: equal to roundoff
    for m_items in (8, 13, 50):
        profile = _random_rows(rng, 40, m_items, 0.3)
        got, want = ebc_regions(profile, 0.6).radius, _oracle_radii(profile, 0.6)
        assert np.all(np.abs(got - want) <= 1e-15 * want)


def test_region_contains(two_user):
    _, prof = two_user
    regions = ebc_regions(prof, 0.2)
    center, radius = np.asarray(prof.probs[0, 1]), regions.radius[0, 1]
    assert region_contains(regions, 0, 1, center)
    step = np.array([1.0, -0.5, -0.5])
    boundary = center + radius * step / np.linalg.norm(step)
    assert region_contains(regions, 0, 1, boundary, tol=1e-9)
    assert not region_contains(regions, 0, 1, center + 2.0 * radius * step / np.linalg.norm(step))
    assert not region_contains(regions, 0, 1, np.array([0.95, 0.05, -0.1]))  # leaves the orthant


def test_region_face_contact_detection(two_user):
    _, prof = two_user
    # every pilot region can push some coordinate to zero within its budget
    regions = ebc_regions(prof, 0.2)
    for n in range(2):
        for t in range(2):
            assert not strictly_inside_slice(regions, n, t)
    roomy = one_cell(np.full(3, 0.3), 0.1, 0.05)
    assert strictly_inside_slice(roomy, 0, 0)
    assert strictly_inside_slice(one_cell((0.9,), 0.1, 0.3), 0, 0)  # one item


def test_regions_broadcast_alpha(two_user):
    _, prof = two_user
    flat = ebc_regions(prof, 0.2)
    split = ebc_regions(prof, (0.1, 0.6))
    assert flat.radius[0, 1] == pytest.approx(RADIUS_U0_PEAK)
    assert split.radius[0, 1] == pytest.approx(RADIUS_U0_PEAK / 2.0)
    assert split.radius[1, 1] == pytest.approx(3.0 * RADIUS_U1_PEAK)
    with pytest.raises(ValueError):
        ebc_regions(prof, -0.2)


def test_fully_flexible_optimum_points_at_smallest_item(two_user):
    catalog, prof = two_user
    best, tied = fully_flexible_optimum(catalog, prof.silence)
    assert not tied
    assert np.allclose(best.probs[:, :, 1], 1.0 - prof.silence)  # item 2 is smallest
    assert np.allclose(best.probs[:, :, [0, 2]], 0.0)
    assert np.array_equal(best.silence, prof.silence)

    _, tie_flag = fully_flexible_optimum(ItemCatalog([2.0, 2.0, 4.0]), prof.silence)
    assert tie_flag
    with pytest.raises(ValueError, match="users, slots"):
        fully_flexible_optimum(catalog, np.array([0.1, 0.9]))


def test_linear_min_over_ebc_basics():
    region = one_cell(np.full(3, 0.3), 0.1, 0.05)
    center, radius = region.center[0, 0], region.radius[0, 0]
    g = np.array([1.0, 0.0, -1.0])
    x = linear_min_over_ebc(g, region)
    gp = g - g.mean()
    assert np.allclose(x, center - radius * gp / np.linalg.norm(gp), atol=1e-9)

    frozen = one_cell(np.full(3, 0.3), 0.1, 0.0)
    assert np.allclose(linear_min_over_ebc(g, frozen), frozen.center[0, 0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        linear_min_over_ebc(np.ones(4), region)


def test_linear_min_over_ebc_avoids_diverging_items():
    region = one_cell(np.array([0.05, 0.85]), 0.1, 0.37)
    center, radius = region.center[0, 0], region.radius[0, 0]
    assert radius > 0.05  # enough budget to zero the first item
    x = linear_min_over_ebc(np.array([np.inf, 1.0]), region)
    assert x[0] == 0.0
    assert x[1] == pytest.approx(0.9)
    assert np.linalg.norm(x - center) <= radius + 1e-12


def test_linear_min_over_ebc_cannot_shed_enough_mass():
    region = one_cell(np.array([0.5, 0.4]), 0.1, 0.12)
    with pytest.raises(ValueError, match="diverging"):
        linear_min_over_ebc(np.array([np.inf, 1.0]), region)
    with pytest.raises(ValueError, match="diverging"):
        linear_min_over_ebc(np.array([np.inf, np.inf]), region)


def test_linear_step_ignores_a_power_of_two_scale_of_the_gradient():
    # each row is scaled to |g - mean g| < 1 before the ball path, so a
    # gradient near the float range gives the same bits as a unit one
    rng = np.random.default_rng(29)
    center = rng.dirichlet(np.ones(5), size=(4, 3)) * 0.9
    radius = np.full((4, 3), 0.05)
    g = rng.normal(size=(4, 3, 5))
    unit = linear_min_over_ball_slice(g, center, radius, 0.9)
    with np.errstate(all="raise"):
        for k in (-1000, -300, 300, 1000):
            assert np.array_equal(linear_min_over_ball_slice(g * 2.0**k, center, radius, 0.9), unit)


def _two_user_shaped(sizes):
    data = two_user_scenario_dict(0.9, "quadratic") | {"sizes": list(sizes)}
    scn = parse_scenario(data)
    return shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_shaping_near_the_float_range_takes_the_unit_size_steps():
    # sizes 2^500 times the study's scale every load, cost and gradient by
    # an exact power of two, so the shaped profiles are the unit-size ones;
    # sizes 1e150 pass the parse-time check (8e150 squares to 6.4e301) and
    # the shaping gradient's squares would leave the float range
    unit, big = _two_user_shaped((3.0, 2.0, 4.0)), _two_user_shaped(2.0**500 * np.array([3, 2, 4]))
    assert big.stop == unit.stop == "tol" and len(big.trace) == len(unit.trace)
    assert np.array_equal(big.profile.probs, unit.profile.probs)
    assert np.array_equal(big.profile.silence, unit.profile.silence)
    near, ones = _two_user_shaped([1e150] * 3), _two_user_shaped([1.0] * 3)
    assert near.stop == ones.stop == "tol" and len(near.trace) == len(ones.trace) > 1
    assert np.allclose(near.profile.probs, ones.profile.probs, rtol=0.0, atol=1e-16)


def test_shape_demand_quadratic_frozen(two_user, quad, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, quad, enum_cfg, alpha=0.2)
    assert (result.stop, result.converged) == ("tol", True)
    assert np.allclose(result.trace.objectives, QUAD_TRACE[:3], atol=1e-9)
    assert len(result.trace.gaps) == len(result.trace)
    assert result.trace.gaps[-1] <= 1e-8 * result.trace.objectives[-1] < result.trace.gaps[-2]
    assert np.all(np.diff(result.trace.objectives) < 0.0)
    assert result.trace.residuals[-1] < 1e-9  # lands on the ball boundary
    assert len(result.trace.residuals) == len(result.trace)

    peak0 = conditional(result.profile, 0, 1).pi
    peak1 = conditional(result.profile, 1, 1).pi
    off0 = conditional(result.profile, 0, 0).pi
    assert np.allclose(peak0, QUAD_PEAK_U0, atol=1e-9)
    assert np.allclose(peak1, QUAD_PEAK_U1, atol=1e-9)
    assert np.allclose(off0, QUAD_OFFPEAK_U0, atol=1e-9)


def test_shape_demand_outage_frozen(two_user, outage, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, outage, enum_cfg, alpha=0.2)
    assert (result.stop, result.converged) == ("tol", True)
    assert np.allclose(result.trace.objectives, OUTAGE_TRACE[:4], atol=1e-9)
    assert result.trace.gaps[-1] <= 1e-8 * result.trace.objectives[-1] < result.trace.gaps[-2]
    assert np.all(np.diff(result.trace.objectives) < 0.0)
    assert np.allclose(conditional(result.profile, 0, 1).pi, OUTAGE_PEAK_U0, atol=1e-9)
    assert np.allclose(conditional(result.profile, 1, 1).pi, OUTAGE_PEAK_U1, atol=1e-9)
    # the first user's peak ball reaches the nonnegativity face and pins
    # the unpopular item at exactly zero mass
    assert result.profile.probs[0, 1, 2] == 0.0


def test_shape_demand_cyclic_outage_frozen():
    scn = parse_scenario(cyclic_outage_scenario())
    result = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)
    assert result.stop == "tol"
    assert tuple(result.trace.objectives) == CYCLIC_TRACE
    assert result.profile.probs.tolist() == [
        [list(CYCLIC_OFFPEAK[0]), list(peak), list(CYCLIC_OFFPEAK[1])] for peak in CYCLIC_PEAK
    ]
    assert np.array_equal(result.profile.silence, scn.profile.silence)


def test_a_newton_step_that_mostly_leaves_the_box_keeps_one_cg_pass(monkeypatch):
    # shaping shuffled Zipf lands its profile on a face of the ball, and the
    # re-solve's Newton steps push most free coordinates past a bound.  Past
    # the face re-solve's gate, a step with a crosser pinned on its bound (a
    # move of 0) re-solves without it, and one with none is left to the arc
    # search after one CG pass; below the gate every crossing step re-solves
    scn, prof = shuffled_zipf(20, 20)
    steps, face_step, cg = [], optim._face_step, optim._cg

    def recorded(hv, b, rtol, land):
        out, move = land(cg(hv, b, rtol))   # the first pass, recomputed
        pinned = int(np.count_nonzero(out & (move() == 0.0)))
        passes = []

        def counted(*args):
            passes.append(1)
            return cg(*args)

        monkeypatch.setattr(optim, "_cg", counted)
        p = face_step(hv, b, rtol, land)
        monkeypatch.setattr(optim, "_cg", cg)
        steps.append((np.count_nonzero(out) / b.size, pinned, len(passes)))
        return p

    monkeypatch.setattr(optim, "_face_step", recorded)
    shape_demand(prof, scn.catalog, scn.cost, scn.cfg, alpha=0.2)
    assert all(1 <= passes <= FACE_PASSES for _, _, passes in steps)
    assert any(share >= FACE_CROSSED and not pinned and passes == 1
               for share, pinned, passes in steps)
    assert any(share >= FACE_CROSSED and pinned and passes > 1 for share, pinned, passes in steps)
    assert any(0.0 < share < FACE_CROSSED and passes > 1 for share, _, passes in steps)
    for share, pinned, passes in steps:
        one = share == 0.0 or (share >= FACE_CROSSED and not pinned)
        assert (passes == 1) == one, (share, pinned, passes)


def test_shape_demand_is_stationary_at_its_answer(two_user, quad, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, quad, enum_cfg, alpha=0.2)
    # the linear step's gap, recomputed row by row from a fresh gradient
    grad = cost_gradient_p(result.profile, result.solve.allocation, quad, enum_cfg)
    gap = 0.0
    for n in range(2):
        for t in range(2):
            target = linear_min_over_ebc(grad[n, t], result.regions, n, t)
            d = target - result.profile.probs[n, t]
            fin = np.isfinite(grad[n, t])
            gap -= float(grad[n, t][fin] @ d[fin])
    assert gap == pytest.approx(result.trace.gaps[-1], rel=1e-9)
    assert 0.0 <= gap <= 1e-8 * abs(result.trace.objectives[-1])


def test_shape_demand_zero_alpha_returns_input(two_user, quad, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, quad, enum_cfg, alpha=0.0)
    assert (result.stop, result.converged) == ("tol", True)
    assert result.trace.gaps.tolist() == [0.0]
    assert len(result.trace) == 1
    assert np.array_equal(result.profile.probs, prof.probs)
    assert result.trace.objectives[0] == pytest.approx(15.410789534883722, abs=1e-9)


def test_monte_carlo_shaping_at_zero_alpha_returns_input(two_user, quad, mc_cfg):
    # a zero budget takes no gradient, which Monte Carlo does not offer
    catalog, prof = two_user
    result = shape_demand(prof, catalog, quad, mc_cfg(200), alpha=0.0)
    assert (result.stop, len(result.trace)) == ("tol", 1)
    assert np.array_equal(result.profile.probs, prof.probs)
    assert result.trace.objectives[0] == result.solve.cost


def test_monte_carlo_shaping_refuses_before_it_solves(two_user, quad, mc_cfg, monkeypatch):
    # Monte Carlo has no probability gradient: a positive budget is refused
    # up front, not after a full download solve
    catalog, prof = two_user
    solve, calls = shaping.solve_proactive, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(shaping, "solve_proactive", counted)
    with pytest.raises(UnsupportedEngineError, match="monte_carlo has none"):
        shape_demand(prof, catalog, quad, mc_cfg(200), alpha=0.2)
    assert calls == []


@pytest.mark.parametrize("kind", ["outage", "quadratic"])
def test_shaping_builds_the_tables_of_a_plan_once(kind, monkeypatch):
    # each accepted round's probability gradient reads the tables its
    # re-solve built at the answer, instead of building them again
    scn = parse_scenario(two_user_scenario_dict(0.9, kind))
    build, built = evaluate.cycle_tables, []

    def counted(profile, x, sizes, cfg):
        built.append((profile, x.tobytes()))   # keeps each profile alive: ids stay unique
        return build(profile, x, sizes, cfg)

    monkeypatch.setattr(evaluate, "cycle_tables", counted)
    result = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)
    assert len(result.trace) > 1 and built
    keys = [(id(profile), x) for profile, x in built]
    assert len(set(keys)) == len(keys)


def test_one_item_shaping_keeps_the_profile(quad, enum_cfg, analytic_cfg):
    # center / activity rounds off 1 for one item; the radii must still be 0
    catalog, prof = ItemCatalog([2.0]), DemandProfile([[[0.3], [0.7]], [[0.2], [0.9]]])
    for cfg in (enum_cfg, analytic_cfg):
        result = shape_demand(prof, catalog, quad, cfg, alpha=0.2)
        assert np.all(result.regions.radius == 0.0)
        assert result.converged and len(result.trace) == 1
        assert np.array_equal(result.profile.probs, prof.probs)


def test_shape_demand_per_user_budgets(two_user, outage, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, outage, enum_cfg, alpha=(0.1, 0.6))
    assert result.converged
    assert result.trace.objectives[-1] == pytest.approx(SPLIT_ALPHA_FINAL, abs=1e-9)
    assert np.allclose(conditional(result.profile, 0, 1).pi, SPLIT_PEAK_U0, atol=1e-7)
    assert np.allclose(conditional(result.profile, 1, 1).pi, SPLIT_PEAK_U1, atol=1e-7)


def test_boundary_check_flags_face_contact(two_user, quad, enum_cfg):
    catalog, prof = two_user
    result = shape_demand(prof, catalog, quad, enum_cfg, alpha=0.2)
    report = boundary_check(result.profile, result.regions)
    assert report.raw_residual.shape == (2, 2)
    assert np.max(report.raw_residual) < 1e-9
    assert not report.hypothesis_ok.any()  # every pilot ball touches a face
    assert report.passed


def test_boundary_check_interior_case(quad, enum_cfg):
    # uniform preferences leave room on every side, so the boundary claim
    # holds with the hypothesis actually satisfied
    catalog = ItemCatalog([3.0, 2.0, 4.0])
    probs = np.stack([np.stack([np.full(3, 0.1 / 3), np.full(3, 0.3)])])
    prof = DemandProfile(probs)
    result = shape_demand(prof, catalog, quad, enum_cfg, alpha=0.05)
    regions = result.regions
    assert strictly_inside_slice(regions, 0, 0)
    assert strictly_inside_slice(regions, 0, 1)
    report = boundary_check(result.profile, regions)
    assert report.hypothesis_ok.all()
    assert report.passed
    assert np.max(report.scaled_residual) < 1e-3


def test_gain_condition_certifies_the_pilot_step(two_user, quad, enum_cfg):
    catalog, prof = two_user
    solved = solve_proactive(prof, catalog, quad, enum_cfg)
    p0 = prof.probs[0, 1]
    cand = np.array([p0[0] + 0.05, p0[1] - 0.03, p0[2] - 0.02])
    gain = shaping_gain_condition(p0, cand, solved.allocation.x[0, 1], catalog.sizes)
    assert gain > 0.0

    shaped = prof.probs.copy()
    shaped[0, 1] = cand
    resolved = solve_proactive(prof.with_probs(shaped), catalog, quad, enum_cfg)
    assert resolved.cost < solved.cost  # the certificate pays off

    assert shaping_gain_condition(p0, p0, solved.allocation.x[0, 1], catalog.sizes) == 0.0
    with pytest.raises(ValueError, match="item dimension"):
        shaping_gain_condition(p0, cand[:2], solved.allocation.x[0, 1], catalog.sizes)
