"""End-to-end checks of every headline number the package promises.

Each test measures one claim at its stated tolerance and wall-clock budget
and prints the measured values, so a verbose run doubles as a report.
"""

import time

import numpy as np
import pytest
from conftest import cost_for, random_instance, two_user_pair
from oracles import fully_flexible_optimum

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    cost_gradient_p,
    cost_gradient_x,
    entropy,
    expected_cycle_cost,
    nonproactive_cost,
    parse_scenario,
    reduction_bounds,
    scaling_curve,
    shape_demand,
    solve_proactive,
    solve_rating,
)
from procache.experiments import (
    OUTAGE_CAPACITY,
    SCALING_LADDER,
    SCALING_SCENARIO,
    two_user_scenario_dict,
)

ENUM = EvalConfig(engine="enumerate")

# two-user pilot, busy slot: shaped share, intrinsic rating, expected rating;
# first two rows are the quadratic study, last two the outage study
REFERENCE_RATING_ROWS = (
    ((0.8772, 0.1222, 0.0006), (0.8, 0.1, 0.1), (0.7985, 0.1112, 0.0005)),
    ((0.3111, 0.2211, 0.4678), (0.3, 0.1, 0.6), (0.3381, 0.2403, 0.5084)),
    ((0.8298, 0.1222, 0.0480), (0.8, 0.1, 0.1), (0.8005, 0.1179, 0.0463)),
    ((0.3546, 0.4507, 0.1947), (0.3, 0.1, 0.6), (0.2594, 0.3297, 0.1424)),
)

# reference shaped busy-slot shares (quadratic, alpha = 0.2) per user
REFERENCE_SHAPED_SHARES = (
    (0.8772, 0.1222, 0.0006),
    (0.3111, 0.2211, 0.4678),
)


def test_two_user_nonproactive_cost_closed_form():
    t0 = time.perf_counter()
    catalog, profile = two_user_pair(0.9)
    res = nonproactive_cost(profile, catalog, CostModel.quadratic(), ENUM)
    elapsed = time.perf_counter() - t0
    print(f"baseline cost {res.value!r}, error {abs(res.value - 19.56):.2e} [{elapsed:.2f}s]")
    assert abs(res.value - 19.56) <= 1e-10
    assert elapsed < 1.0


def test_rating_solver_reproduces_reference_rows():
    t0 = time.perf_counter()
    worst = 0.0
    for share, intrinsic, expected in REFERENCE_RATING_ROWS:
        pi = np.asarray(share)
        res = solve_rating(0.9 * pi, 0.1, intrinsic)
        worst = max(worst, float(np.max(np.abs(res.ratings.v - np.asarray(expected)))))
        # componentwise proportional to the shaped share
        assert np.max(np.abs(res.ratings.v - res.scale * pi)) <= 1e-9
    elapsed = time.perf_counter() - t0
    print(f"worst rating-entry deviation {worst:.2e} (tol 5e-3) [{elapsed:.2f}s]")
    assert worst <= 5e-3
    assert elapsed < 1.0


def test_shaped_profiles_land_on_entropy_ball_boundary():
    t0 = time.perf_counter()
    catalog, profile = two_user_pair(0.9)
    result = shape_demand(profile, catalog, CostModel.quadratic(), ENUM, 0.2)
    elapsed = time.perf_counter() - t0

    worst_residual = 0.0
    for n in range(profile.num_users):
        for t in range(profile.num_slots):
            activity = 1.0 - float(profile.silence[n, t])
            orig = profile.probs[n, t] / activity
            shaped = result.profile.probs[n, t] / activity
            moved = float(np.linalg.norm(shaped - orig))
            budget = 0.2 * entropy(orig)
            worst_residual = max(worst_residual, abs(moved - budget))

    shares = result.profile.probs[:, 1] / (1.0 - result.profile.silence[:, 1, None])
    worst_share = float(np.max(np.abs(shares - np.asarray(REFERENCE_SHAPED_SHARES))))
    print(
        f"boundary residual {worst_residual:.2e} (tol 1e-3), "
        f"share deviation {worst_share:.4f} (tol 0.02) [{elapsed:.2f}s]"
    )
    assert worst_residual <= 1e-3
    assert worst_share <= 0.02
    assert elapsed < 30.0


def test_shaping_objective_strictly_decreases():
    t0 = time.perf_counter()
    catalog, profile = two_user_pair(0.9)
    for cost in (CostModel.quadratic(), CostModel.outage(OUTAGE_CAPACITY)):
        result = shape_demand(profile, catalog, cost, ENUM, 0.2)
        trace = np.asarray(result.trace.objectives)
        assert result.converged
        assert np.all(np.diff(trace) < 0.0), f"{cost.kind} trace not strictly decreasing"
        print(f"{cost.kind}: f0 {trace[0]:.6f} -> {trace[-1]:.6f} in {len(trace) - 1} steps")
    elapsed = time.perf_counter() - t0
    print(f"[{elapsed:.2f}s]")
    assert elapsed < 30.0


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_the_two_user_studies_read_the_same_in_any_size_unit(kind):
    # sizes (and the outage capacity) in units 1e-12 to 1e4 times the study's:
    # every stop is relative, so each solve and each shaping run takes the
    # same steps, and the relative costs and the shaping gain do not move.
    # The outage cost is dimensionless, so its case is the control.
    runs = {}
    for k in (-12, -8, -5, 0, 4):
        scn = two_user_scenario_dict(0.9, kind)
        scn["sizes"] = [size * 10.0**k for size in scn["sizes"]]
        if kind == "outage":
            scn["cost"] = dict(scn["cost"], mu=scn["cost"]["mu"] * 10.0**k)
        scn = parse_scenario(scn)
        report = reduction_bounds(scn.profile, scn.catalog, scn.cost, scn.cfg)
        shaped = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)
        assert report.lower <= report.delta <= report.upper, f"10^{k}: sandwich broken"
        final = shaped.trace.objectives[-1]
        runs[k] = ((report.solve.stop, report.solve.iterations, shaped.stop, len(shaped.trace)),
                   (report.optimized / report.nonproactive, final / report.nonproactive,
                    1.0 - final / report.optimized))
    steps, ratios = runs[0]
    print(f"{kind}: solve and shaping steps {steps}, gain {float(ratios[2])!r}")
    assert steps[0] == steps[2] == "tol"
    for k, (k_steps, k_ratios) in runs.items():
        assert k_steps == steps, f"10^{k}: {k_steps} against {steps}"
        assert k_ratios == pytest.approx(ratios, rel=1e-12, abs=0.0), f"10^{k}"


def test_reduction_bounds_sandwich_on_random_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    kinds = ("quadratic", "outage", "polynomial")
    active_count = 0
    for i in range(50):
        catalog, profile = random_instance(rng)
        cost = cost_for(kinds[i % 3], profile.num_users, profile.num_slots, catalog.sizes)
        report = reduction_bounds(profile, catalog, cost, ENUM)
        slack = 1e-9 * (1.0 + abs(report.nonproactive))
        # the solve's gap certifies delta to within slack of the exact reduction
        assert report.solve.gap <= slack, f"instance {i}: gap {report.solve.gap:.2e}"
        assert report.lower <= report.delta + slack, f"instance {i}: lower bound broken"
        assert report.delta <= report.upper + slack, f"instance {i}: upper bound broken"
        if report.sets.member.any():
            assert report.lower > 0.0, f"instance {i}: active sets but zero lower bound"
            active_count += 1
    elapsed = time.perf_counter() - t0
    print(f"50 instances sandwiched, {active_count} with active sets [{elapsed:.2f}s]")
    assert active_count >= 10  # the positive branch really ran
    assert elapsed < 120.0


def test_solver_matches_exhaustive_grid_search():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    kinds = ("quadratic", "outage", "polynomial")
    worst = 0.0
    for i in range(10):
        size = float(rng.uniform(0.6, 1.6))
        catalog = ItemCatalog([size])
        if i == 9:
            # one-slot cycle: a request always costs C(size), so x* = 0
            probs = np.array([[[float(rng.uniform(0.3, 0.9))]]])
        else:
            probs = rng.uniform(0.1, 0.95, size=2).reshape(1, 2, 1)
        profile = DemandProfile(probs)
        cost = cost_for(kinds[i % 3], 1, profile.num_slots, catalog.sizes)
        solved = solve_proactive(profile, catalog, cost, ENUM, tol=1e-10)
        assert solved.converged

        grid = np.unique(np.append(np.arange(0.0, size, 1e-3), size))
        if profile.num_slots == 1:
            p = probs[0, 0, 0]
            values = p * cost.cost(np.array([size])) + (1.0 - p) * cost.cost(grid)
        else:
            p0, p1 = probs[0, :, 0]
            x0, x1 = np.meshgrid(grid, grid, indexing="ij")
            values = 0.5 * (
                p0 * cost.cost(size - x0 + x1)
                + (1.0 - p0) * cost.cost(x1)
                + p1 * cost.cost(size - x1 + x0)
                + (1.0 - p1) * cost.cost(x0)
            )
        gap = abs(solved.cost - float(values.min()))
        worst = max(worst, gap)
        assert gap <= 1e-5, f"instance {i} ({cost.kind}): off the grid optimum by {gap:.2e}"
    elapsed = time.perf_counter() - t0
    print(f"worst solver-vs-grid gap {worst:.2e} (tol 1e-5) [{elapsed:.2f}s]")
    assert elapsed < 120.0


def test_cost_reduction_scaling_with_user_count():
    t0 = time.perf_counter()
    curve = scaling_curve(parse_scenario(SCALING_SCENARIO), SCALING_LADDER)
    elapsed = time.perf_counter() - t0
    last = curve.points[-1]
    print(
        f"ratio at N={last.num_users}: {last.ratio:.4f} (window [0.147, 0.207]), "
        f"exponent {curve.exponent:.4f} (window [1.8, 2.2]) [{elapsed:.2f}s]"
    )
    assert last.num_users == 200
    assert 0.147 <= last.ratio <= 0.207
    assert 1.8 <= curve.exponent <= 2.2
    assert curve.points[0].delta > 0.0
    assert elapsed < 120.0


def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    catalog, profile = two_user_pair(0.9)
    costs = (CostModel.quadratic(), CostModel.outage(OUTAGE_CAPACITY))
    shape = profile.probs.shape
    worst = 0.0

    # allocation gradient at a random interior point, loads clear of capacity
    x = rng.uniform(0.05, 0.15, size=shape)
    h = 1e-5
    for cost in costs:
        g = cost_gradient_x(profile, x, cost, ENUM, catalog=catalog)
        for _ in range(15):
            idx = tuple(int(rng.integers(d)) for d in shape)
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            up = expected_cycle_cost(profile, xp, cost, ENUM, catalog=catalog).value
            dn = expected_cycle_cost(profile, xm, cost, ENUM, catalog=catalog).value
            fd = (up - dn) / (2.0 * h)
            rel = abs(g[idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5, f"grad_x[{idx}] {cost.kind}: {g[idx]!r} vs FD {fd!r}"

    # probability gradient at x = 0; the silent state absorbs the mass
    for cost in costs:
        gp = cost_gradient_p(profile, np.zeros(shape), cost, ENUM, catalog=catalog)
        for _ in range(15):
            idx = tuple(int(rng.integers(d)) for d in shape)
            pp, pm = profile.probs.copy(), profile.probs.copy()
            pp[idx] += h
            pm[idx] -= h
            up = nonproactive_cost(DemandProfile(pp), catalog, cost, ENUM).value
            dn = nonproactive_cost(DemandProfile(pm), catalog, cost, ENUM).value
            fd = (up - dn) / (2.0 * h)
            rel = abs(gp[idx] - fd) / max(1.0, abs(fd))
            worst = max(worst, rel)
            assert rel <= 1e-5, f"grad_p[{idx}] {cost.kind}: {gp[idx]!r} vs FD {fd!r}"

    elapsed = time.perf_counter() - t0
    print(f"worst gradient relative error {worst:.2e} (tol 1e-5) [{elapsed:.2f}s]")
    assert elapsed < 60.0


def test_point_mass_shaping_beats_random_profiles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    catalog = ItemCatalog([3.0, 1.5, 2.5])
    silence = np.array([[0.6, 0.1], [0.6, 0.1]])
    activity = 1.0 - silence

    point_mass, tied = fully_flexible_optimum(catalog, silence)
    assert not tied
    pm_cost = solve_proactive(point_mass, catalog, CostModel.quadratic(), ENUM, tol=1e-10).cost

    best_random = np.inf
    for _ in range(200):
        shares = rng.dirichlet(np.ones(catalog.num_items), size=silence.shape)
        probs = activity[:, :, None] * shares
        solved = solve_proactive(DemandProfile(probs), catalog, CostModel.quadratic(), ENUM)
        best_random = min(best_random, solved.cost)
        assert pm_cost <= solved.cost + 1e-9
    elapsed = time.perf_counter() - t0
    print(
        f"point mass {pm_cost:.6f} vs best of 200 random {best_random:.6f} [{elapsed:.2f}s]"
    )
    assert elapsed < 120.0
