"""Strict scenario parsing, hashing, and file round trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache import (
    ScenarioError,
    load_scenario,
    parse_scenario,
    save_scenario,
    zipf_profile,
)
from procache.experiments import two_user_scenario_dict
from procache import scenario
from procache.scenario import CELL_LIMIT, scenario_hash

# the two-user study at peak activity 0.9: users x (off-peak, peak) x items
TWO_USER_PROBS = [
    [[0.08, 0.01, 0.01], [0.72, 0.09, 0.09]],
    [[0.03, 0.01, 0.06], [0.27, 0.09, 0.54]],
]

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
    assert np.allclose(sc.profile.probs, TWO_USER_PROBS, atol=1e-15)


def test_parse_generator_scenario():
    data = {
        "sizes": [1.0, 2.0, 3.0],
        "generator": {"kind": "zipf", "users": 4, "power": 4, "activity": [0.9, 0.5]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "analytic_quadratic"},
        "seed": 3,
    }
    sc = parse_scenario(data)
    # the analytic engine solves on one class of the 4 identical users
    assert sc.profile.counts.tolist() == [4] and sc.profile.num_users == 4
    assert sc.alpha.tolist() == [0.2]  # default budget, per class
    prof = sc.profile.expanded()
    assert prof.probs.shape == (4, 2, 3)
    assert np.allclose(prof.probs[2, 0], zipf_profile(3, 4.0, 0.9))
    assert np.allclose(prof.probs[0, 1], zipf_profile(3, 4.0, 0.5))
    # users share one preference ranking; only activity varies by slot
    assert np.allclose(prof.probs[0], prof.probs[3])
    assert sc.with_eval("enumerate").alpha.tolist() == [0.2] * 4


def test_overrides_that_change_nothing_keep_the_scenario(tmp_path, monkeypatch):
    # optimize --engine monte_carlo --samples 300 on a scenario that already
    # says so: one expansion of the 10 users, and the profile that holds the
    # draws is the parsed one
    data = two_user_scenario_dict(0.9, "quadratic")
    data["generator"] = {"kind": "zipf", "users": 10, "power": 4, "activity": [0.9, 0.5]}
    data.pop("profiles")
    data["eval"] = {"engine": "monte_carlo", "samples": 300}
    path = tmp_path / "mc.json"
    save_scenario(data, path)
    built, engine_form = [], scenario._engine_form
    monkeypatch.setattr(scenario, "_engine_form",
                        lambda *a: built.append(a[2]) or engine_form(*a))
    sc = load_scenario(path)
    draws = sc.profile.draw_index(sc.cfg.seed, 300)
    same = sc.with_eval("monte_carlo", 300, sc.cfg.seed)
    assert same is sc and len(built) == 1
    assert same.profile.draw_index(sc.cfg.seed, 300) is draws
    # an override that changes a field still rebuilds the profile
    other = sc.with_eval(samples=200)
    assert len(built) == 2 and other.profile is not sc.profile and other.cfg.samples == 200


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
    # the largest seed keys its stream exactly, apart from its neighbour's
    assert not np.all(build(2**53).catalog.sizes == build(2**53 - 1).catalog.sizes)
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
    data = dict(two_user_scenario_dict(0.9, "outage"), eval={"engine": "analytic_quadratic"})
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
    assert np.allclose(sc.profile.probs, TWO_USER_PROBS, atol=1e-15)


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
        # past 2**53 numpy rounds a Philox key through float64: seeds would collide
        (dict(two_user_scenario_dict(0.9, "quadratic"), seed=2**53 + 1),
         "'seed' must be at most"),
        (dict(two_user_scenario_dict(0.9, "quadratic"), seed=2**64 - 1),
         "'seed' must be at most"),
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


@pytest.mark.parametrize(
    "data, fragment",
    [
        (_generated() | {"generator": 5}, "'generator' must be an object"),
        (_generated() | {"generator": None}, "'generator' must be an object"),
        (_generated() | {"generator": [[1, 2], [3]]}, "'generator' must be an object"),
        (_generated() | {"cost": 2.5}, "'cost' must be an object"),
        (_generated() | {"cost": True}, "'cost' must be an object"),
        (_generated() | {"eval": None}, "'eval' must be an object"),
        (_generated() | {"eval": [[0]]}, "'eval' must be an object"),
        (_generated() | {"eval": {"engine": ["enumerate"]}}, "'engine' in eval must be a string"),
        (_generated() | {"eval": {"engine": {"kind": 1}}}, "'engine' in eval must be a string"),
        (_generated() | {"sizes": {"kind": "uniform", "count": 3, "low": 3.0, "high": 1.0}},
         "sizes need 0 < 'low' <= 'high'"),
        (_generated() | {"sizes": {"kind": "uniform", "count": 3, "low": 0.0, "high": -0.0}},
         "sizes need 0 < 'low' <= 'high'"),
        (_generated() | {"sizes": {"kind": "uniform", "count": 3, "low": -1e308, "high": 1e308}},
         "sizes need 0 < 'low' <= 'high'"),
        (_generated(activity=[0.5, 1.2]), "invalid generator: activity must lie in [0, 1]"),
        (_generated(activity=[-0.1]), "invalid generator: activity must lie in [0, 1]"),
        (_generated(power=-2e3), "invalid generator: overflow"),
    ],
)
def test_malformed_blocks_raise_scenario_error_naming_the_key(data, fragment):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_with_users_regrows_the_generator_population():
    base = parse_scenario(_generated())
    grown = base.with_users(5)
    assert grown.profile.probs.shape == (5,) + base.profile.probs.shape[1:]
    assert np.array_equal(grown.profile.probs[4], base.profile.probs[0])
    assert np.array_equal(grown.catalog.sizes, base.catalog.sizes)
    assert (grown.cost, grown.cfg, grown.seed) == (base.cost, base.cfg, base.seed)
    assert grown.source["generator"]["users"] == 5
    assert base.source["generator"]["users"] == 2   # the source is copied, not edited
    with pytest.raises(ScenarioError, match="'generator' block"):
        parse_scenario(two_user_scenario_dict(0.9, "quadratic")).with_users(3)


_HUGE = 10**12


@pytest.mark.parametrize(
    "data, fragment",
    [
        (dict(_generated(), sizes={"kind": "uniform", "count": _HUGE, "low": 1.0, "high": 2.0}),
         "'count' in sizes"),
        (_generated(users=_HUGE), "'users' in generator"),
        (_generated(users=CELL_LIMIT // 2 + 1), "'users' in generator"),   # x 1 slot x 2 items
        (dict(_generated(), eval={"engine": "monte_carlo", "samples": _HUGE}), "'samples' in eval"),
        (dict(_generated(), eval={"engine": "monte_carlo", "samples": CELL_LIMIT // 2 + 1}),
         "'samples' in eval"),                                            # x 2 users x 1 slot
    ],
)
def test_oversized_arrays_are_refused_naming_the_key(data, fragment):
    with pytest.raises(ScenarioError, match="limit") as err:
        parse_scenario(data)
    assert fragment in str(err.value)


def test_the_cell_limit_itself_parses(monkeypatch):
    monkeypatch.setattr(scenario, "CELL_LIMIT", 20)     # 10 users x 1 slot x 2 items
    assert parse_scenario(_generated(users=10)).profile.num_users == 10
    with pytest.raises(ScenarioError, match="'users' in generator"):
        parse_scenario(_generated()).with_users(11)      # a ladder point runs the same check
    mc = dict(_generated(users=2), eval={"engine": "monte_carlo", "samples": 10})
    assert parse_scenario(mc).cfg.samples == 10
    with pytest.raises(ScenarioError, match="'samples' in eval"):
        parse_scenario(dict(mc, eval={"engine": "monte_carlo", "samples": 11}))


def _point_or_refusal(build):
    """A scenario's fields as exact bits, or the text of the ScenarioError it raised."""
    try:
        scn = build()
    except ScenarioError as exc:
        return str(exc)
    arrays = (scn.profile.probs, scn.profile.silence, scn.profile.counts, scn.alpha,
              scn.classes.probs, scn.classes.silence, scn.classes.counts, scn.class_alpha,
              scn.catalog.sizes)
    return ([(a.shape, a.dtype.str, a.tobytes()) for a in arrays],
            scn.cost, scn.cfg, scn.seed, scn.source, scn.hash)


def _family(engine, **changes):
    """A generator family on a drawn catalog: 3 users, 2 slots, 3 items."""
    data = {"sizes": {"kind": "uniform", "count": 3, "low": 1.0, "high": 2.0},
            "generator": {"kind": "zipf", "users": 3, "power": 2.5, "activity": [0.7, 0.3]},
            "cost": {"kind": "quadratic"}, "eval": engine, "seed": 5}
    return data | changes


def _edited(data, users):
    return data | {"generator": data["generator"] | {"users": users}}


_ENGINES = {"analytic_quadratic": {"engine": "analytic_quadratic"},
            "enumerate": {"engine": "enumerate"},
            "monte_carlo": {"engine": "monte_carlo", "samples": 4}}


@pytest.mark.parametrize("users", [1, 2, 7, 250])
@pytest.mark.parametrize("budgets", [{}, {"alpha": [0.2, 0.2, 0.2]}, {"alpha": [0.1, 0.2, 0.3]}])
@pytest.mark.parametrize("engine", list(_ENGINES))
def test_a_ladder_point_is_the_parse_of_its_edited_source(engine, budgets, users):
    # the class form (analytic) and the expansion (enumerate, Monte Carlo),
    # a split per-user budget list, and refusals (the list's length, 250
    # users past the enumeration limit) read the same either way
    data = _family(_ENGINES[engine], **budgets)
    base = parse_scenario(data)
    want = _point_or_refusal(lambda: parse_scenario(_edited(data, users)))
    assert _point_or_refusal(lambda: base.with_users(users)) == want
    assert base.source == data and data["generator"]["users"] == 3   # not edited


@pytest.mark.parametrize(
    "data, users, fragment",
    [
        (_generated(), 11, "'users' in generator asks for 11 x 1 x 2"),   # with CELL_LIMIT 20
        (_family(_ENGINES["monte_carlo"], sizes=[1e100, 1e100],
                 cost={"kind": "polynomial", "coeffs": [0, 0, 1, 0.01]}), 1000,
         "'sizes' and 'coeffs' in cost overflow a float"),
        (_family(_ENGINES["analytic_quadratic"], alpha=[0.1, 0.2, 0.3]), 4,
         "'alpha' lists 3 budgets for 4 users"),
        (_generated(), 30, "engine mismatch: enumeration would visit"),
        (_generated(), 0, "'users' in generator must be at least 1"),
        (_generated(), 2**53 + 1, "'users' in generator must be at most"),
    ],
)
def test_a_ladder_point_refuses_as_a_fresh_parse_does(monkeypatch, data, users, fragment):
    if "asks for" in fragment:
        monkeypatch.setattr(scenario, "CELL_LIMIT", 20)     # 10 users x 1 slot x 2 items
    base = parse_scenario(data)
    refusal = _point_or_refusal(lambda: base.with_users(users))
    assert fragment in refusal
    assert refusal == _point_or_refusal(lambda: parse_scenario(_edited(data, users)))


# Every count-like value stays small so that no example allocates a large array.
_SMALL = st.integers(-1, 5)
_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
_NAMES = st.sampled_from(["uniform", "zipf", "quadratic", "outage", "polynomial",
                          "enumerate", "analytic_quadratic", "monte_carlo", "x"])
_JUNK = st.recursive(
    st.none() | st.booleans() | _SMALL | _NAMES
    | st.sampled_from([0.5, 1.5, -0.5, np.nan, np.inf]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["kind", "users", "count", "engine", "z"]), inner, max_size=3),
    max_leaves=6,
)
_UNIT = st.floats(0.0, 1.0) | _ANY_FLOAT


def _object(**fields):
    return st.fixed_dictionaries(fields) | _JUNK


_SCENARIOS = st.fixed_dictionaries({
    "sizes": st.lists(st.floats(0.1, 5.0) | _ANY_FLOAT, min_size=1, max_size=3)
    | _object(kind=st.just("uniform") | _JUNK, count=_SMALL, low=_ANY_FLOAT, high=_ANY_FLOAT),
    "cost": _object(kind=st.just("quadratic") | _JUNK)
    | _object(kind=st.just("outage"), mu=_ANY_FLOAT)
    | _object(kind=st.just("polynomial"), coeffs=st.lists(_ANY_FLOAT, max_size=3) | _JUNK),
}, optional={
    "slots": _SMALL | _JUNK,
    "profiles": st.lists(st.lists(st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3),
                                  min_size=1, max_size=2), min_size=1, max_size=2) | _JUNK,
    "generator": _object(kind=st.just("zipf") | _JUNK, users=_SMALL, power=_ANY_FLOAT,
                         activity=st.lists(_UNIT, min_size=1, max_size=3) | _JUNK),
    "eval": _object(engine=_NAMES | _JUNK, samples=_SMALL | _JUNK),
    "alpha": _UNIT | st.lists(_UNIT, max_size=3) | _JUNK,
    "seed": _SMALL | _JUNK,
})


@given(_SCENARIOS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_any_small_json_dict_parses_cleanly_or_raises_scenario_error(data):
    try:
        scn = parse_scenario(data)
    except ScenarioError:
        return
    probs = scn.profile.probs
    assert probs.ndim == 3 and probs.shape[2] == scn.catalog.num_items
    assert scn.profile.silence.shape == probs.shape[:2]
    assert scn.alpha.shape == (probs.shape[0],)
    for arr in (probs, scn.profile.silence, scn.catalog.sizes, scn.alpha):
        assert np.all(np.isfinite(arr))
