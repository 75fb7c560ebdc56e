"""User classes: a profile row standing for several identical users.

The analytic engine solves on classes; every result must equal the per-user
solve on ``expanded()``, folded by class sums where it is a gradient.
"""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from procache import (
    CostModel,
    DemandProfile,
    EvalConfig,
    ItemCatalog,
    UnsupportedEngineError,
    active_sets,
    cost_gradient_p,
    cost_gradient_x,
    expected_cycle_cost,
    parse_scenario,
    policy_a,
    reduction_bounds,
    shape_demand,
    solve_proactive,
)
from procache import proactive
from procache.cli import main
from procache.evaluate import cycle_tables, prefetch_volume
from procache.experiments import SCALING_SCENARIO, two_user_scenario_dict
from procache.scenario import ScenarioError, save_scenario

from oracles import (coeff_expected_cost, coeff_gradient_p, coeff_hess_vec, coeff_marginal_stats,
                     hess_vec, kernel_hess_vec)

ANALYTIC = EvalConfig(engine="analytic_quadratic")
EXACT = 1e-12


def _rel(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


def _class_cases(count=30):
    """Random class instances: 1-4 classes of 1-7 users, with a class of one
    in every other case, random rows, costs, allocations and directions."""
    for seed in range(count):
        rng = np.random.default_rng(seed)
        k, t, m = (int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(2, 5)))
        counts = rng.integers(1, 8, size=k)
        if seed % 2:
            counts[int(rng.integers(k))] = 1
        sizes = rng.uniform(0.5, 3.0, size=m)
        raw = rng.uniform(0.0, 1.0, size=(k, t, m + 1))
        raw /= raw.sum(axis=2, keepdims=True)
        profile = DemandProfile(raw[:, :, 1:], counts=counts)
        x = rng.uniform(0.0, 1.0, size=(k, t, m)) * sizes
        d = rng.uniform(-1.0, 1.0, size=x.shape)
        cost = (CostModel.quadratic() if seed % 3 else
                CostModel.polynomial([0.5, float(rng.uniform(0, 1)), float(rng.uniform(0.1, 1))]))
        alpha = rng.uniform(0.0, 0.4, size=k)
        yield ItemCatalog(sizes), profile, x, d, cost, alpha


def _fold(profile):
    """Per-user rows summed over each class: the derivative in the class rows."""
    starts = np.cumsum(profile.counts) - profile.counts
    return lambda rows: np.add.reduceat(rows, starts, axis=0)


def _rep(profile):
    return lambda rows: np.repeat(rows, profile.counts, axis=0)


def test_class_kernels_equal_the_per_user_kernels_folded_by_class():
    for catalog, pc, x, d, cost, _ in _class_cases():
        pe, fold, rep = pc.expanded(), _fold(pc), _rep(pc)
        got = expected_cycle_cost(pc, x, cost, ANALYTIC, catalog=catalog)
        want = expected_cycle_cost(pe, rep(x), cost, ANALYTIC, catalog=catalog)
        assert _rel(got.slot_values, want.slot_values) <= EXACT
        for fn in (cost_gradient_x, cost_gradient_p):
            got = fn(pc, x, cost, ANALYTIC, catalog=catalog)
            assert _rel(got, fold(fn(pe, rep(x), cost, ANALYTIC, catalog=catalog))) <= EXACT
        got = hess_vec(pc, x, d, cost, ANALYTIC, catalog=catalog)
        want = hess_vec(pe, rep(x), rep(d), cost, ANALYTIC, catalog=catalog)
        assert _rel(got, fold(want)) <= EXACT


@pytest.mark.parametrize("per_user", [False, True], ids=["classes", "per-user"])
def test_analytic_kernels_equal_the_coefficient_form(per_user):
    # bit for bit on the quadratic (C' = 2y scales exactly); a degree-2
    # polynomial may round differently by an ulp or so
    engine = ANALYTIC.kernels
    for catalog, profile, x, d, cost, _ in _class_cases():
        if per_user:
            profile, x, d = profile.expanded(), _rep(profile)(x), _rep(profile)(d)
        tables = cycle_tables(profile, x, catalog.sizes, ANALYTIC)
        state, dconst = engine.state(tables, cost), prefetch_volume(d, tables.counts)
        pairs = [
            ((engine.expected_cost(tables, state, cost)[0],), (coeff_expected_cost(tables, cost),)),
            (engine.marginal_stats(tables, state, cost)[:2], coeff_marginal_stats(tables, cost)),
            (kernel_hess_vec(engine, tables, state, cost, d, dconst),
             coeff_hess_vec(tables, d, dconst, cost)),
            ((engine.gradient_p(tables, state, cost),), (coeff_gradient_p(tables, cost),)),
        ]
        for got, want in pairs:
            for g, w in zip(got, want, strict=True):
                if cost.kind == "quadratic":
                    assert np.array_equal(g, w)
                else:
                    np.testing.assert_allclose(g, w, rtol=1e-15, atol=0.0)


def test_class_solve_and_shaping_equal_the_per_user_ones():
    for catalog, pc, _, _, cost, alpha in _class_cases():
        pe, rep = pc.expanded(), _rep(pc)
        got = solve_proactive(pc, catalog, cost, ANALYTIC, tol=1e-10)
        want = solve_proactive(pe, catalog, cost, ANALYTIC, tol=1e-10)
        assert got.converged and want.converged
        assert _rel(got.cost, want.cost) <= EXACT
        assert np.max(np.abs(rep(got.allocation.x) - want.allocation.x)) <= EXACT * catalog.sizes.max()

        got = shape_demand(pc, catalog, cost, ANALYTIC, alpha)
        want = shape_demand(pe, catalog, cost, ANALYTIC, rep(alpha))
        assert len(got.trace) == len(want.trace) and got.converged == want.converged
        assert _rel(got.trace.objectives, want.trace.objectives) <= EXACT
        assert _rel(rep(got.profile.probs), want.profile.probs) <= EXACT
        assert np.array_equal(got.profile.counts, pc.counts)


def test_class_sets_policy_and_bounds_equal_the_per_user_ones():
    for catalog, pc, _, _, cost, _ in _class_cases():
        pe, rep = pc.expanded(), _rep(pc)
        got, want = active_sets(pc, catalog, cost, ANALYTIC), active_sets(pe, catalog, cost, ANALYTIC)
        assert np.array_equal(rep(got.member), want.member)
        assert _rel(rep(got.stat), want.stat) <= EXACT
        assert np.array_equal(got.pair_counts(), want.pair_counts())

        # the policy's per-slot exchange slope, on a grid of prefetch amounts
        for t in np.flatnonzero(got.pair_counts()):
            grid = np.linspace(0.0, catalog.min_size, 7)
            assert _rel([proactive._exchange_slope(pc, catalog, cost, ANALYTIC, got, t, xv)
                         for xv in grid],
                        [proactive._exchange_slope(pe, catalog, cost, ANALYTIC, want, t, xv)
                         for xv in grid]) <= EXACT

        pol_c, pol_e = policy_a(pc, catalog, cost, ANALYTIC), policy_a(pe, catalog, cost, ANALYTIC)
        assert _rel(pol_c.x_hat, pol_e.x_hat) <= EXACT
        x_e = np.where(want.member, pol_c.x_tilde[None, :, None], 0.0)
        assert _rel(pol_c.cost.value,
                    expected_cycle_cost(pe, x_e, cost, ANALYTIC, catalog=catalog).value) <= EXACT

        got, want = (reduction_bounds(pc, catalog, cost, ANALYTIC),
                     reduction_bounds(pe, catalog, cost, ANALYTIC))
        for key in ("nonproactive", "optimized", "delta", "upper"):
            assert _rel(getattr(got, key), getattr(want, key)) <= EXACT, key
        assert _rel(got.lower, want.lower) <= EXACT


def test_profile_counts_are_validated():
    probs = np.full((2, 1, 2), 0.25)
    prof = DemandProfile(probs, counts=[3, 1])
    assert (prof.num_users, prof.num_classes, prof.per_user) == (4, 2, False)
    assert prof.counts.tolist() == [3, 1] and not prof.counts.flags.writeable
    assert DemandProfile(probs).counts.tolist() == [1, 1]
    assert DemandProfile(probs, counts=[2**53, 2**53]).num_users == 2**54   # no int64 overflow
    for bad in ([0, 1], [1], [1.5, 1], [2**53 + 1, 1], [[1, 1]], ["a", "b"]):
        with pytest.raises(ValueError, match="counts"):
            DemandProfile(probs, counts=bad)


def test_expanded_repeats_each_class_row_once_per_user_in_order():
    probs = np.array([[[0.1, 0.2]], [[0.3, 0.4]]])
    prof = DemandProfile(probs, counts=[2, 3])
    full = prof.expanded()
    assert full.per_user and full.num_users == 5
    assert np.array_equal(full.probs, probs[[0, 0, 1, 1, 1]])
    assert np.array_equal(full.silence, prof.silence[[0, 0, 1, 1, 1]])
    assert full.expanded() is full
    assert prof.with_probs(probs[:, :, ::-1]).counts.tolist() == [2, 3]


def test_per_user_engines_refuse_a_class_of_several_users():
    catalog, prof = ItemCatalog([1.0, 2.0]), DemandProfile(np.full((1, 2, 2), 0.3), counts=[3])
    for cfg in (EvalConfig(engine="enumerate"), EvalConfig(engine="monte_carlo", samples=5)):
        with pytest.raises(UnsupportedEngineError, match=r"expanded\(\)"):
            expected_cycle_cost(prof, None, CostModel.quadratic(), cfg, catalog=catalog)
        expected_cycle_cost(prof.expanded(), None, CostModel.quadratic(), cfg, catalog=catalog)
    with pytest.raises(ValueError, match=r"expanded\(\)"):
        prof.draws(0, 5)


def _profiles_scenario(**extra):
    data = dict(two_user_scenario_dict(0.9, "quadratic"), eval={"engine": "analytic_quadratic"})
    data.update(extra)
    return data


@pytest.mark.parametrize("counts", [
    [1], [1, 2, 3], [0, 1], [-1, 2], [1.5, 1], [True, 1], [2**53 + 1, 1], ["2", 1], [None, 1],
    3, {"a": 1},
])
def test_counts_are_parsed_strictly(counts):
    with pytest.raises(ScenarioError, match="'counts'"):
        parse_scenario(_profiles_scenario(counts=counts))


def test_counts_belong_to_profiles():
    data = dict(SCALING_SCENARIO, counts=[2])
    with pytest.raises(ScenarioError, match="'counts'"):
        parse_scenario(data)


def test_a_scenario_holds_the_form_its_engine_solves_on():
    scn = parse_scenario(_profiles_scenario(counts=[3, 2.0], alpha=0.1))
    assert scn.profile.counts.tolist() == [3, 2] and scn.alpha.tolist() == [0.1, 0.1]
    per_user = scn.with_eval("enumerate")
    assert per_user.profile.per_user and per_user.profile.num_users == 5
    assert per_user.alpha.tolist() == [0.1] * 5
    assert np.array_equal(per_user.profile.probs, scn.profile.expanded().probs)
    back = per_user.with_eval("analytic_quadratic")
    assert back.profile.counts.tolist() == [3, 2] and back.hash == scn.hash
    # the same file under enumerate parses to the expansion
    enum = parse_scenario(dict(_profiles_scenario(counts=[3, 2]), eval={"engine": "enumerate"}))
    assert np.array_equal(enum.profile.probs, per_user.profile.probs)


def test_a_per_user_alpha_that_varies_inside_a_class_splits_it():
    scn = parse_scenario(_profiles_scenario(counts=[3, 2], alpha=[0.1, 0.1, 0.1, 0.2, 0.3]))
    assert scn.profile.counts.tolist() == [3, 1, 1]
    assert scn.alpha.tolist() == [0.1, 0.2, 0.3]
    assert np.array_equal(scn.profile.expanded().probs,
                          parse_scenario(_profiles_scenario(counts=[3, 2])).profile.expanded().probs)
    gen = dict(SCALING_SCENARIO, alpha=[0.2] * 199 + [0.3])
    gen["generator"] = dict(gen["generator"], users=200)
    scn = parse_scenario(gen)
    assert scn.profile.num_classes == 200 and scn.alpha[-1] == 0.3
    assert parse_scenario(dict(gen, alpha=[0.2] * 200)).profile.counts.tolist() == [200]
    with pytest.raises(ScenarioError, match="'alpha' lists 4 budgets for 5 users"):
        parse_scenario(_profiles_scenario(counts=[3, 2], alpha=[0.1] * 4))


def test_the_generator_emits_one_class_and_reaches_a_million_users():
    scn = parse_scenario(SCALING_SCENARIO).with_users(10**6)
    assert scn.profile.counts.tolist() == [10**6] and scn.profile.probs.shape == (1, 8, 50)
    with pytest.raises(ScenarioError, match="'users' in generator.*limit"):
        scn.with_eval("enumerate")       # the expansion is bounded by the cell limit
    with pytest.raises(ScenarioError, match="'users' in generator.*limit"):
        scn.per_user(np.zeros((1, 8, 50)))


def test_a_plan_too_large_to_expand_per_user_is_refused_before_any_output(tmp_path):
    # a million-user class solves, but its one-row-per-user outputs pass the
    # cell limit: the command writes nothing instead of failing half way
    path = tmp_path / "fam.json"
    save_scenario(dict(SCALING_SCENARIO, generator=dict(SCALING_SCENARIO["generator"],
                                                        users=10**6)), path)
    runner = CliRunner()
    for argv in (["optimize", "--out", str(tmp_path / "opt.csv")],
                 ["shape", "--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "s.json")]):
        res = runner.invoke(main, [argv[0], "--scenario", str(path), *argv[1:]])
        assert res.exit_code == 1
        err = json.loads(res.stderr)
        assert err["error"] == "ScenarioError" and "'users' in generator" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fam.json"]


def test_optimize_and_shape_write_one_row_per_user(tmp_path):
    path = tmp_path / "fam.json"
    data = dict(SCALING_SCENARIO, alpha=0.2)
    data["generator"] = dict(data["generator"], users=6)
    save_scenario(data, path)
    runner = CliRunner()
    res = runner.invoke(main, ["optimize", "--scenario", str(path), "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 0, res.output
    rows = (tmp_path / "o_alloc.csv").read_text().splitlines()[1:]
    users = {int(r.split(",")[0]) for r in rows}
    assert users == set(range(6))
    by_user = [sorted(r.split(",", 1)[1] for r in rows if r.startswith(f"{n},")) for n in users]
    assert all(b == by_user[0] for b in by_user)   # identical users, identical plans

    res = runner.invoke(main, ["shape", "--scenario", str(path), "--max-iters", "3",
                               "--out", str(tmp_path / "s.json")])
    assert res.exit_code == 0, res.output
    shaped = json.loads((tmp_path / "s.json").read_text())
    assert np.asarray(shaped["profiles"]).shape == (6, 8, 50)
    assert np.asarray(shaped["silence"]).shape == (6, 8)

    # a per-user engine takes the same file
    res = runner.invoke(main, ["optimize", "--scenario", str(path), "--engine", "monte_carlo",
                               "--samples", "20", "--out", str(tmp_path / "mc.csv")])
    assert res.exit_code == 0, res.output
