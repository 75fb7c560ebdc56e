"""Strict scenario parsing, hashing, and file round trips."""

import json

import numpy as np
import pytest

from procache import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    save_scenario,
    zipf_profile,
)
from procache.experiments import two_user_instance, two_user_scenario_dict
from procache.scenario import scenario_hash


def test_parse_two_user_scenario():
    data = two_user_scenario_dict(0.9, "quadratic")
    sc = parse_scenario(data)
    assert sc.catalog.num_items == 3
    assert sc.profile.num_users == 2
    assert sc.profile.num_slots == 2
    assert sc.cost.kind == "quadratic"
    assert sc.cfg.engine == "enumerate"
    assert sc.alpha.tolist() == [0.2, 0.2]
    assert sc.seed == 0
    assert sc.hash == scenario_hash(data)
    _, prof = two_user_instance(0.9)
    assert np.allclose(sc.profile.probs, prof.probs, atol=1e-15)


def test_parse_generator_scenario():
    data = {
        "sizes": [1.0, 2.0, 3.0],
        "generator": {"kind": "zipf", "users": 4, "power": 4, "activity": [0.9, 0.5]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "analytic_quadratic"},
        "seed": 3,
    }
    sc = parse_scenario(data)
    assert sc.profile.probs.shape == (4, 2, 3)
    assert np.allclose(sc.profile.probs[2, 0], zipf_profile(3, 4.0, 0.9))
    assert np.allclose(sc.profile.probs[0, 1], zipf_profile(3, 4.0, 0.5))
    # users share one preference ranking; only activity varies by slot
    assert np.allclose(sc.profile.probs[0], sc.profile.probs[3])
    assert sc.alpha.tolist() == [0.2] * 4  # default budget


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(bogus=1), "unknown key 'bogus' in scenario"),
        (lambda d: d["cost"].update(mu=5.0), "unknown key 'mu' in cost"),
        (lambda d: d["eval"].update(extra=2), "unknown key 'extra' in eval"),
        (lambda d: d.pop("sizes"), "missing key 'sizes' in scenario"),
        (lambda d: d.pop("cost"), "missing key 'cost' in scenario"),
        (lambda d: d.update(slots=3), "'slots' is 3 but profiles have 2 slots"),
        (lambda d: d.pop("profiles"), "needs exactly one of 'profiles' or 'generator'"),
        (lambda d: d["cost"].update(kind="cubic"), "unknown cost kind 'cubic'"),
        (lambda d: d.update(alpha=-0.1), "alpha must be nonnegative"),
    ],
)
def test_scenario_rejections(mutate, fragment):
    data = two_user_scenario_dict(0.9, "quadratic")
    mutate(data)
    with pytest.raises(ScenarioError, match=None) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_profiles_and_generator_are_exclusive():
    data = two_user_scenario_dict(0.9, "quadratic")
    data["generator"] = {"kind": "zipf", "users": 2, "power": 4, "activity": [0.9]}
    with pytest.raises(ScenarioError, match="exactly one of"):
        parse_scenario(data)


def test_profile_shape_rejections():
    data = two_user_scenario_dict(0.9, "quadratic")
    data["profiles"] = [row[0] for row in data["profiles"]]  # drop the slot axis
    with pytest.raises(ScenarioError, match="users x slots x items"):
        parse_scenario(data)

    data = two_user_scenario_dict(0.9, "quadratic")
    data["profiles"] = [[r[:2] for r in user] for user in data["profiles"]]
    with pytest.raises(ScenarioError, match="profiles cover 2 items, catalog has 3"):
        parse_scenario(data)

    data = two_user_scenario_dict(0.9, "quadratic")
    data["profiles"][0][1][0] = -0.2
    with pytest.raises(ScenarioError, match="invalid profiles:"):
        parse_scenario(data)


def test_generator_rejections():
    base = {
        "sizes": [1.0, 2.0],
        "generator": {"kind": "zipf", "users": 2, "power": 3, "activity": [0.8]},
        "cost": {"kind": "quadratic"},
        "seed": 1,
    }
    data = json.loads(json.dumps(base))
    data["generator"]["kind"] = "poisson"
    with pytest.raises(ScenarioError, match="unknown generator kind 'poisson'"):
        parse_scenario(data)

    data = json.loads(json.dumps(base))
    data["generator"]["junk"] = 0
    with pytest.raises(ScenarioError, match="unknown key 'junk' in generator"):
        parse_scenario(data)

    data = json.loads(json.dumps(base))
    data["slots"] = 2
    with pytest.raises(ScenarioError, match="'slots' is 2 but generator lists 1"):
        parse_scenario(data)


def test_uniform_sizes_are_seeded():
    def build(seed):
        return parse_scenario(
            {
                "sizes": {"kind": "uniform", "count": 6, "low": 10.0, "high": 30.0},
                "generator": {"kind": "zipf", "users": 2, "power": 4, "activity": [0.9]},
                "cost": {"kind": "quadratic"},
                "seed": seed,
            }
        )

    a, b, c = build(7), build(7), build(8)
    assert a.catalog.num_items == 6
    assert np.all(a.catalog.sizes == b.catalog.sizes)
    assert not np.all(a.catalog.sizes == c.catalog.sizes)
    assert np.all((a.catalog.sizes >= 10.0) & (a.catalog.sizes < 30.0))

    with pytest.raises(ScenarioError, match="unknown sizes kind 'normal'"):
        parse_scenario(
            {
                "sizes": {"kind": "normal", "count": 6, "low": 1.0, "high": 2.0},
                "generator": {"kind": "zipf", "users": 2, "power": 4, "activity": [0.9]},
                "cost": {"kind": "quadratic"},
            }
        )


def test_invalid_cost_and_eval_are_wrapped():
    data = two_user_scenario_dict(0.9, "outage")
    data["cost"]["mu"] = -1.0
    with pytest.raises(ScenarioError, match="invalid cost:"):
        parse_scenario(data)

    data = two_user_scenario_dict(0.9, "quadratic")
    data["eval"] = {"engine": "monte_carlo", "samples": 0}
    with pytest.raises(ScenarioError, match="invalid eval config:"):
        parse_scenario(data)


def test_engine_mismatch_is_caught_at_parse():
    data = two_user_scenario_dict(0.9, "outage", engine="analytic_quadratic")
    with pytest.raises(ScenarioError, match="engine mismatch:"):
        parse_scenario(data)

    # enumeration over (M+1)^N outcomes per slot is refused once it blows up
    data = {
        "sizes": [1.0, 2.0, 3.0],
        "generator": {"kind": "zipf", "users": 12, "power": 4, "activity": [0.9]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "enumerate"},
    }
    with pytest.raises(ScenarioError, match="engine mismatch:"):
        parse_scenario(data)


def test_alpha_per_user():
    data = two_user_scenario_dict(0.9, "quadratic")
    data["alpha"] = [0.1, 0.6]
    assert parse_scenario(data).alpha.tolist() == [0.1, 0.6]
    data["alpha"] = [0.1, 0.2, 0.3]
    with pytest.raises(ValueError):
        parse_scenario(data)


def test_hash_ignores_key_order_but_not_content():
    data = two_user_scenario_dict(0.9, "quadratic")
    reordered = dict(reversed(list(data.items())))
    assert scenario_hash(reordered) == scenario_hash(data)
    assert parse_scenario(reordered).hash == parse_scenario(data).hash
    assert scenario_hash(two_user_scenario_dict(0.8, "quadratic")) != scenario_hash(data)


def test_save_load_round_trip(tmp_path):
    data = two_user_scenario_dict(0.9, "outage")
    path = tmp_path / "two_user.json"
    save_scenario(data, path)
    sc = load_scenario(path)
    assert sc.hash == scenario_hash(data)
    assert sc.cost.kind == "outage"
    _, prof = two_user_instance(0.9)
    assert np.allclose(sc.profile.probs, prof.probs, atol=1e-15)


def test_save_refuses_unparseable_dict(tmp_path):
    data = two_user_scenario_dict(0.9, "quadratic")
    data["bogus"] = 1
    path = tmp_path / "bad.json"
    with pytest.raises(ScenarioError):
        save_scenario(data, path)
    assert not path.exists()


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON:"):
        load_scenario(path)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_load_rejects_non_finite_json_tokens(tmp_path, token):
    path = tmp_path / "scenario.json"
    text = json.dumps(two_user_scenario_dict(0.9, "outage"))
    path.write_text(text.replace('"mu": 9.8', f'"mu": {token}'))
    assert token in path.read_text()
    with pytest.raises(ScenarioError, match=f"{token} is not a strict JSON number"):
        load_scenario(path)


def _generated(**generator):
    spec = {"kind": "zipf", "users": 2, "power": 3, "activity": [0.8]}
    spec.update(generator)
    return {"sizes": [1.0, 2.0], "generator": spec, "cost": {"kind": "quadratic"}}


@pytest.mark.parametrize(
    "data, fragment",
    [
        (dict(two_user_scenario_dict(0.9, "quadratic"), alpha=float("nan")), "'alpha' must be finite"),
        (dict(two_user_scenario_dict(0.9, "outage"), cost={"kind": "outage", "mu": float("inf")}),
         "'mu' in cost must be finite"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), sizes=[3.0, float("nan"), 4.0]),
         "'sizes' must be finite"),
        (dict(_generated(), sizes={"kind": "uniform", "count": 3, "low": 1.0, "high": float("inf")}),
         "'high' in sizes must be finite"),
        (_generated(power=float("nan")), "'power' in generator must be finite"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), alpha=[0.1, 0.2, 0.3]),
         "'alpha' lists 3 budgets for 2 users"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), alpha="0.2"), "'alpha' must be numbers"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), alpha=[0.1, True]), "'alpha' must be numbers"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), sizes=[3.0, True, 4.0]), "'sizes' must be numbers"),
    ],
)
def test_non_finite_and_non_numeric_values_are_rejected(data, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_nan_profile_probability_is_rejected():
    data = two_user_scenario_dict(0.9, "quadratic")
    data["profiles"][0][1][0] = float("nan")
    with pytest.raises(ScenarioError, match="'profiles' must be finite"):
        parse_scenario(data)


@pytest.mark.parametrize(
    "data, fragment",
    [
        (dict(two_user_scenario_dict(0.9, "quadratic"), seed=1.7), "'seed' must be an integer"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), seed=True), "'seed' must be an integer"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), eval={"engine": "monte_carlo", "samples": True}),
         "'samples' in eval must be an integer"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), eval={"engine": "monte_carlo", "samples": 2.5}),
         "'samples' in eval must be an integer"),
        (_generated(users=0), "'users' in generator must be at least 1"),
        (_generated(users=-3), "'users' in generator must be at least 1"),
        (_generated(users=2.5), "'users' in generator must be an integer"),
        (_generated(users=True), "'users' in generator must be an integer"),
        (dict(_generated(), sizes={"kind": "uniform", "count": True, "low": 1.0, "high": 2.0}),
         "'count' in sizes must be an integer"),
        (dict(_generated(), sizes={"kind": "uniform", "count": 2.5, "low": 1.0, "high": 2.0}),
         "'count' in sizes must be an integer"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), slots=2.5), "'slots' must be an integer"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), slots=True), "'slots' must be an integer"),
    ],
)
def test_integer_keys_are_strict(data, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_integral_floats_still_count_as_integers():
    data = dict(_generated(users=3.0), seed=4.0, slots=1)
    sc = parse_scenario(data)
    assert sc.profile.num_users == 3 and sc.seed == 4
