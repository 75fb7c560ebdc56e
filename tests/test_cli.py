"""End-to-end CLI runs against real scenario files in a temp directory."""

import csv
import dataclasses
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

import procache.cli
from procache import evaluate, experiments, proactive, scenario, shaping
from procache.cli import main
from procache.experiments import (
    PP_GRID,
    SCALING_LADDER,
    SCALING_SCENARIO,
    SHAPED_P_PEAK,
    reproduce_two_user,
    two_user_scenario_dict,
    write_json,
)
from procache.evaluate import expected_cycle_cost
from procache.scenario import load_scenario, parse_scenario, save_scenario, scenario_hash
from procache.shaping import shape_demand

from oracles import boundary_check, cyclic_outage_scenario

BASE_QUAD = 19.560000000000006
OPTIMIZED_QUAD = 15.410789534883722


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def quad_scenario(tmp_path):
    path = tmp_path / "two_user.json"
    save_scenario(two_user_scenario_dict(0.9, "quadratic"), path)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_version(runner):
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0
    assert "procache" in res.output


def test_optimize_outputs(runner, quad_scenario, tmp_path):
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(quad_scenario), "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "nonproactive" in res.output

    rows = read_rows(out)
    assert [r["slot"] for r in rows] == ["0", "1"]
    assert all(r["engine"] == "enumerate" for r in rows)
    assert all(float(r["stderr"]) == 0.0 for r in rows)

    alloc_rows = read_rows(tmp_path / "opt_alloc.csv")
    assert len(alloc_rows) == 1  # one download does all the work here
    only = alloc_rows[0]
    assert (only["user"], only["slot"], only["item"]) == ("0", "1", "1")
    assert float(only["x"]) == pytest.approx(2.1965116279069767, abs=1e-9)

    summary = json.loads((tmp_path / "opt.json").read_text())
    assert summary["engine"] == "enumerate"
    assert summary["c_nonproactive"] == pytest.approx(BASE_QUAD, abs=1e-10)
    assert summary["c_proactive"] == pytest.approx(OPTIMIZED_QUAD, abs=1e-8)
    assert summary["delta_c"] > 4.0
    assert summary["converged"] is True
    assert summary["scenario_hash"] == scenario_hash(two_user_scenario_dict(0.9, "quadratic"))


@pytest.mark.parametrize("mu", [1e200, 1e300])
def test_optimize_under_an_extreme_outage_capacity(runner, tmp_path, mu):
    # C(L) = L / (mu - L) is L / mu to within L / mu here, so a prefetch pays
    # its whole size for an expected saving of p times it: no prefetch is optimal
    data = two_user_scenario_dict(0.9, "outage")
    data["cost"] = {"kind": "outage", "mu": mu}
    path, out = tmp_path / "two_user.json", tmp_path / "opt.csv"
    save_scenario(data, path)
    res = runner.invoke(main, ["optimize", "--scenario", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["converged"] and summary["iterations"] == 0 and summary["delta_c"] == 0.0
    scn = load_scenario(path)
    mean_load = float((scn.profile.probs * scn.catalog.sizes).sum()) / scn.profile.probs.shape[1]
    assert summary["c_nonproactive"] == pytest.approx(mean_load / mu, rel=1e-12)


def test_optimize_switches_to_monte_carlo_with_its_samples(runner, quad_scenario, tmp_path):
    # the scenario has no samples; both overrides apply before the config is checked
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(quad_scenario), "--engine",
                               "monte_carlo", "--samples", "50", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "opt.json").read_text())["engine"] == "monte_carlo"
    assert all(float(r["stderr"]) > 0.0 for r in read_rows(out))


@pytest.mark.parametrize("engine", ["enumerate", "monte_carlo"])
def test_optimize_makes_no_value_call_after_the_solve(engine, runner, quad_scenario, tmp_path,
                                                      monkeypatch):
    # the per-slot rows come from the solve's own evaluation of its answer
    solved, calls = [], []
    kernels = evaluate._ENGINES[engine]

    def value(*args):
        calls.append(bool(solved))
        return kernels.expected_cost(*args)

    def solve(*args, original=procache.cli.solve_proactive, **kwargs):
        solved.append(original(*args, **kwargs))
        return solved[-1]

    monkeypatch.setitem(evaluate._ENGINES, engine,
                        dataclasses.replace(kernels, expected_cost=value))
    monkeypatch.setattr(procache.cli, "solve_proactive", solve)
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(quad_scenario), "--engine", engine,
                               "--samples", "50", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert len(solved) == 1 and calls and not any(calls)
    final = solved[0].final
    rows = read_rows(out)
    assert [float(r["value"]) for r in rows] == final.slot_values.tolist()
    assert [float(r["stderr"]) for r in rows] == final.slot_stderrs.tolist()


def test_simulate_is_seeded_and_unbiased(runner, quad_scenario, tmp_path):
    out_a = tmp_path / "a" / "sim.csv"
    out_b = tmp_path / "b" / "sim.csv"
    out_a.parent.mkdir()
    out_b.parent.mkdir()
    for out in (out_a, out_b):
        res = runner.invoke(
            main,
            ["simulate", "--scenario", str(quad_scenario), "--samples", "2000",
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
    assert out_a.read_bytes() == out_b.read_bytes()
    json_a = out_a.with_suffix(".json").read_bytes()
    json_b = out_b.with_suffix(".json").read_bytes()
    assert json_a == json_b

    summary = json.loads(json_a)
    assert summary["stderr"] > 0.0
    assert abs(summary["value"] - BASE_QUAD) <= 5.0 * summary["stderr"]
    assert len(read_rows(out_a)) == 2


def test_simulate_rejects_nonpositive_samples(runner, quad_scenario, tmp_path):
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(quad_scenario), "--samples", "0",
         "--out", str(tmp_path / "sim.csv")],
    )
    assert res.exit_code == 2
    assert "positive" in res.output


def test_optimize_then_simulate_roundtrip(runner, quad_scenario, tmp_path):
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(quad_scenario), "--out", str(out)])
    assert res.exit_code == 0, res.output

    sim = tmp_path / "sim.csv"
    res = runner.invoke(
        main,
        ["simulate", "--scenario", str(quad_scenario), "--samples", "4000",
         "--alloc", str(tmp_path / "opt_alloc.csv"), "--out", str(sim)],
    )
    assert res.exit_code == 0, res.output
    summary = json.loads(sim.with_suffix(".json").read_text())
    # sampling the optimized plan lands on its exact cost, far below the base
    assert abs(summary["value"] - OPTIMIZED_QUAD) <= 5.0 * summary["stderr"]
    assert summary["value"] < BASE_QUAD - 2.0


@pytest.mark.parametrize(
    "rows, line, column",
    [
        (["5,0,1,0.5"], 2, "'user'"),
        (["-1,0,1,0.5"], 2, "'user'"),
        (["0,0,1,0.5", "0,1.5,1,0.5"], 3, "'slot'"),
        (["0,0,0,0.5"], 2, "'item'"),
        (["0,0,1,7.5"], 2, "'x'"),
        (["0,0,1,nan"], 2, "'x'"),
        (["0,0,1,0.5", "1,1,2,1.0", "0,0,1,0.25"], 4, "'item'"),
    ],
    ids=["user-past-end", "user-negative", "slot-fraction", "item-zero", "x-past-size", "x-nan",
         "duplicate"],
)
def test_simulate_refuses_a_bad_allocation_row(runner, tmp_path, rows, line, column):
    # two users, two slots, items of size 1 and 2
    scenario = dict(two_user_scenario_dict(0.9, "quadratic"), sizes=[1.0, 2.0],
                    profiles=[[[0.2, 0.1], [0.5, 0.3]], [[0.1, 0.1], [0.6, 0.2]]])
    save_scenario(scenario, tmp_path / "s.json")
    (tmp_path / "alloc.csv").write_text("\n".join(["user,slot,item,x", *rows]) + "\n")
    res = runner.invoke(main, ["simulate", "--scenario", str(tmp_path / "s.json"),
                               "--samples", "10", "--alloc", str(tmp_path / "alloc.csv"),
                               "--out", str(tmp_path / "sim.csv")])
    assert res.exit_code == 1
    lines = [ln for ln in res.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError"
    assert f"allocation CSV line {line}, column" in err["message"] and column in err["message"]


def test_shape_payload_and_trace(runner, quad_scenario, tmp_path):
    out = tmp_path / "shaped.json"
    trace = tmp_path / "trace.csv"
    res = runner.invoke(
        main,
        ["shape", "--scenario", str(quad_scenario), "--out", str(out),
         "--trace", str(trace)],
    )
    assert res.exit_code == 0, res.output

    payload = json.loads(out.read_text())
    assert payload["converged"] is True
    assert payload["stop"] == "tol"
    assert 0.0 <= payload["gap"] <= 1e-8 * payload["f0_final"]
    assert payload["f0_initial"] == pytest.approx(OPTIMIZED_QUAD, abs=1e-8)
    assert payload["f0_final"] == pytest.approx(12.802924091413765, abs=1e-6)
    assert payload["max_boundary_residual"] < 1e-9
    probs = np.asarray(payload["profiles"])
    silence = np.asarray(payload["silence"])
    assert probs.shape == (2, 2, 3)
    assert silence.shape == (2, 2)
    assert np.allclose(probs.sum(axis=2) + silence, 1.0, atol=1e-12)

    rows = read_rows(trace)
    assert list(rows[0]) == ["iter", "f0", "max_boundary_residual"]
    f0 = [float(r["f0"]) for r in rows]
    assert f0[0] == pytest.approx(OPTIMIZED_QUAD, abs=1e-8)
    assert all(b < a for a, b in zip(f0, f0[1:]))


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_shape_reports_the_last_trace_residual(runner, tmp_path, kind):
    scenario, out, trace = tmp_path / "s.json", tmp_path / "shaped.json", tmp_path / "trace.csv"
    save_scenario(two_user_scenario_dict(0.9, kind), scenario)
    res = runner.invoke(main, ["shape", "--scenario", str(scenario), "--out", str(out),
                               "--trace", str(trace)])
    assert res.exit_code == 0, res.output
    reported = json.loads(out.read_text())["max_boundary_residual"]
    assert reported == float(read_rows(trace)[-1]["max_boundary_residual"])
    scn = load_scenario(scenario)
    result = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)
    assert reported == float(np.max(boundary_check(result.profile, result.regions).scaled_residual))


def test_recommend_realizes_shaped_demand(runner, quad_scenario, tmp_path):
    shaped = tmp_path / "shaped.json"
    res = runner.invoke(main, ["shape", "--scenario", str(quad_scenario), "--out", str(shaped)])
    assert res.exit_code == 0, res.output

    ratings_in = tmp_path / "prefs.json"
    ratings_in.write_text(json.dumps({"rows": [[0.8, 0.1, 0.1], [0.3, 0.1, 0.6]]}))
    out = tmp_path / "ratings.csv"
    res = runner.invoke(
        main,
        ["recommend", "--profile", str(shaped), "--ratings", str(ratings_in),
         "--out", str(out)],
    )
    assert res.exit_code == 0, res.output

    rows = read_rows(out)
    assert len(rows) == 2 * 2 * 3  # users x slots x items
    payload = json.loads(shaped.read_text())
    for row in rows:
        rating = float(row["rating"])
        assert 0.0 <= rating <= 1.0 + 1e-12
        n, t, m = int(row["user"]), int(row["slot"]), int(row["item"]) - 1
        prob = payload["profiles"][n][t][m]
        activity = 1.0 - payload["silence"][n][t]
        # proportional choice: the rating is the common scale times the share
        assert rating == pytest.approx(float(row["scale"]) * prob / activity, abs=1e-9)


def test_recommend_rejects_malformed_inputs(runner, tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profiles": [[[0.9]]]}))  # no silence
    ratings = tmp_path / "prefs.json"
    ratings.write_text(json.dumps({"rows": [[1.0]]}))
    out = tmp_path / "ratings.csv"
    res = runner.invoke(
        main,
        ["recommend", "--profile", str(profile), "--ratings", str(ratings),
         "--out", str(out)],
    )
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert "silence" in err["message"]

    profile.write_text(json.dumps({"profiles": [[[0.9]], [[0.8]]], "silence": [[0.1], [0.2]]}))
    res = runner.invoke(
        main,
        ["recommend", "--profile", str(profile), "--ratings", str(ratings),
         "--out", str(out)],
    )
    assert res.exit_code == 1
    assert "rating rows" in json.loads(res.stderr)["message"]


def _recommend_error(runner, tmp_path, profile_text, ratings_text):
    """The error payload of ``recommend`` on the given file texts."""
    profile, ratings = tmp_path / "profile.json", tmp_path / "prefs.json"
    profile.write_text(profile_text)
    ratings.write_text(ratings_text)
    res = runner.invoke(main, ["recommend", "--profile", str(profile), "--ratings", str(ratings),
                               "--out", str(tmp_path / "ratings.csv")])
    assert res.exit_code == 1, res.output
    lines = [ln for ln in res.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    return json.loads(lines[0])


ONE_USER = json.dumps({"profiles": [[[0.5, 0.4]]], "silence": [[0.1]]})


@pytest.mark.parametrize(
    "profile_text, ratings_text, fragment",
    [
        (ONE_USER, '{"rows": [[NaN, 0.5]]}', "NaN"),
        (ONE_USER, '{"rows": [[Infinity, 0.5]]}', "Infinity"),
        ('{"profiles": [[[NaN, 0.4]]], "silence": [[0.1]]}', '{"rows": [[0.5, 0.5]]}', "NaN"),
        (ONE_USER, '{"rows": [[1.5, 0.5]]}', "'rows'"),
        (ONE_USER, '{"rows": [[-0.5, 0.5]]}', "'rows'"),
        (ONE_USER, '{"rows": [["high", 0.5]]}', "'rows'"),
        (ONE_USER, '{"rows": [[0.5, 0.5, 0.5]]}', "'rows'"),
        ('{"profiles": [[[1.5, 0.4]]], "silence": [[0.1]]}', '{"rows": [[0.5, 0.5]]}',
         "'profiles'"),
        ('{"profiles": [[[0.5, 0.4]]], "silence": [[-0.1]]}', '{"rows": [[0.5, 0.5]]}',
         "'silence'"),
        ('{"profiles": [[[0.5, 0.4], [0.2, 0.3]]], "silence": [[0.1]]}',
         '{"rows": [[0.5, 0.5]]}', "'silence'"),
        ('{"profiles": [[0.5, 0.4]], "silence": [0.1]}', '{"rows": [[0.5, 0.5]]}', "'profiles'"),
        ('{"profiles": [[[0.5, 0.1]]], "silence": [[0.1]]}', '{"rows": [[0.5, 0.5]]}',
         "'profiles' and 'silence' of user 0, slot 0"),
        ('{"profiles": [[[0.5, 0.4], [0.5, 0.4]], [[0.5, 0.4], [0.3, 0.3]]],'
         ' "silence": [[0.1, 0.1], [0.1, 0.1]]}', '{"rows": [[0.5, 0.5], [0.5, 0.5]]}',
         "user 1, slot 1"),
    ],
    ids=["nan-rating", "infinite-rating", "nan-probability", "rating-above-1",
         "negative-rating", "text-rating", "rating-row-too-long", "probability-above-1",
         "negative-silence", "silence-short-of-the-slots", "profiles-not-3d",
         "row-short-of-1", "last-cell-short-of-1"],
)
def test_recommend_parses_strictly(runner, tmp_path, profile_text, ratings_text, fragment):
    err = _recommend_error(runner, tmp_path, profile_text, ratings_text)
    assert err["error"] == "ScenarioError"
    assert fragment in err["message"]


@pytest.mark.parametrize(
    "command, option",
    [
        (["optimize", "--tol", "nan"], "--tol"),
        (["optimize", "--tol", "inf"], "--tol"),
        (["optimize", "--tol", "-1e-3"], "--tol"),
        (["optimize", "--max-iters", "-3"], "--max-iters"),
        (["optimize", "--max-iters", "0"], "--max-iters"),
        (["shape", "--tol", "nan"], "--tol"),
        (["shape", "--max-iters", "0"], "--max-iters"),
        (["scale", "--N", "2,3,4", "--tol", "-1"], "--tol"),
        (["scale", "--N", "2,3,4", "--max-iters", "0"], "--max-iters"),
        # past [0, 2**53] a seed ends in a numpy cast warning or shares its
        # streams with another seed
        (["simulate", "--samples", "300", "--seed", "-1"], "--seed"),
        (["simulate", "--samples", "300", "--seed", str(2**64 - 1)], "--seed"),
        (["scale", "--N", "2,3,4", "--seed", str(2**53 + 1)], "--seed"),
        # the exponent fit needs three distinct points, not three entries
        (["scale", "--N", "25,25,25"], "--N"),
        (["scale", "--N", "2,3,2"], "--N"),
        # a repeated count is solved, written and fitted twice; a count below 1
        # was refused naming the generator's 'users'
        (["scale", "--N", "1,1,2,3"], "--N"),
        (["scale", "--N", "0,1,2"], "--N"),
        (["scale", "--N", "-4,2,3,5"], "--N"),
        # overrides are refused like the scenario keys they replace: a negative
        # count was accepted, and a sampled engine with no samples or a budget
        # outside [0, inf) raised a bare ValueError naming no option
        (["optimize", "--samples", "-5"], "--samples"),
        (["optimize", "--engine", "monte_carlo"], "--samples"),
        (["optimize", "--engine", "monte_carlo", "--samples", "0"], "--samples"),
        (["shape", "--alpha", "-1"], "--alpha"),
        (["shape", "--alpha", "nan"], "--alpha"),
    ],
)
def test_solver_options_are_checked(runner, quad_scenario, tmp_path, command, option):
    flag = "--family" if command[0] == "scale" else "--scenario"
    out = tmp_path / "o.csv"
    res = runner.invoke(main, [*command, flag, str(quad_scenario), "--out", str(out)])
    assert res.exit_code == 1, res.output
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert option in err["message"]
    assert not any(tmp_path.glob("o*"))


def test_an_engine_override_the_cost_refuses_is_named(runner, tmp_path):
    # the closed-form engine prices the quadratic cost only: under an outage
    # cost the override raised UnsupportedEngineError, naming no option
    scenario = tmp_path / "s.json"
    save_scenario(two_user_scenario_dict(0.9, "outage"), scenario)
    res = runner.invoke(main, ["optimize", "--scenario", str(scenario), "--engine",
                               "analytic_quadratic", "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 1, res.output
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert "--engine" in err["message"] and "engine mismatch" in err["message"]
    assert not any(tmp_path.glob("o*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["optimize", "shape", "simulate"])
@pytest.mark.parametrize(
    "change, keys",
    [
        ({"sizes": [1e200] * 3}, ["'sizes'"]),
        ({"sizes": [1e160] * 3, "eval": {"engine": "analytic_quadratic"}}, ["'sizes'"]),
        ({"cost": {"kind": "polynomial", "coeffs": [0, 0, 1e308]}},
         ["'sizes'", "'coeffs' in cost"]),
        ({"sizes": [1e80] * 3, "cost": {"kind": "polynomial", "coeffs": [1, 0, 0, 0, 1]}},
         ["'sizes'", "'coeffs' in cost"]),
    ],
    ids=["sizes-1e200", "sizes-1e160-analytic", "coeffs-1e308", "quartic-sizes-1e80"],
)
def test_a_load_past_the_float_range_is_refused_at_parse_time(runner, tmp_path, command, change,
                                                               keys):
    # unrefused, the solve fails naming no key, and simulate writes non-finite rows
    scenario = tmp_path / "big.json"
    scenario.write_text(json.dumps({**two_user_scenario_dict(0.9, "quadratic"), **change}))
    samples = ["--samples", "50"] if command == "simulate" else []
    res = runner.invoke(main, [command, "--scenario", str(scenario), *samples,
                               "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 1, res.output
    line, = res.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "ScenarioError"
    assert all(key in err["message"] for key in keys), err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["big.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["optimize", "shape"])
@pytest.mark.parametrize("size", [1e-300, 5e-324, 1e-160])
def test_a_cost_below_the_float_range_is_refused_at_parse_time(runner, tmp_path, command, size):
    # unrefused, sizes 1e-300 and 5e-324 gave "0 -> 0, converged=True" (the
    # cost underflows to 0), and 1e-160 a subnormal cost on which the solve
    # stalled
    scenario = tmp_path / "small.json"
    scenario.write_text(json.dumps({**two_user_scenario_dict(0.9, "quadratic"),
                                    "sizes": [size] * 3}))
    res = runner.invoke(main, [command, "--scenario", str(scenario),
                               "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 1, res.output
    line, = res.stderr.splitlines()
    err = json.loads(line)
    assert err["error"] == "ScenarioError"
    assert "'sizes'" in err["message"] and "subnormal" in err["message"], err["message"]
    assert [p.name for p in tmp_path.iterdir()] == ["small.json"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["optimize", "shape"])
@pytest.mark.parametrize("size", [1e-150, 1e150])
def test_sizes_of_1e150_either_way_still_solve(runner, tmp_path, command, size):
    # optimize writes its JSON summary beside the CSV; shape's --out is the JSON
    scenario, out = tmp_path / "scaled.json", tmp_path / ("o.csv" if command == "optimize"
                                                          else "o.json")
    scenario.write_text(json.dumps({**two_user_scenario_dict(0.9, "quadratic"),
                                    "sizes": [size] * 3}))
    res = runner.invoke(main, [command, "--scenario", str(scenario), "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["converged"] is True and summary["stop"] == "tol"
    final = summary["c_proactive" if command == "optimize" else "f0_final"]
    assert np.finfo(float).tiny <= final < np.inf


@pytest.mark.parametrize("alpha", ["nan", "inf", "-0.1"])
def test_shape_refuses_a_bad_alpha(runner, quad_scenario, tmp_path, alpha):
    out = tmp_path / "shaped.json"
    res = runner.invoke(main, ["shape", "--scenario", str(quad_scenario), "--alpha", alpha,
                               "--out", str(out)])
    assert res.exit_code == 1, res.output
    assert "alpha" in json.loads(res.stderr)["message"]
    assert not out.exists()


def test_write_json_leaves_no_file_when_encoding_fails(tmp_path):
    out = tmp_path / "report.json"
    with pytest.raises(ValueError):
        write_json(out, {"ok": 1.0, "bad": float("inf")})
    assert not out.exists()


def test_scale_fits_growth(runner, tmp_path):
    scenario = tmp_path / "family.json"
    save_scenario(
        {
            "sizes": [1.0, 2.0],
            "generator": {"kind": "zipf", "users": 2, "power": 3.0,
                          "activity": [0.8, 0.2]},
            "cost": {"kind": "quadratic"},
            "eval": {"engine": "analytic_quadratic"},
            "seed": 3,
        },
        scenario,
    )
    out = tmp_path / "scaling.csv"
    res = runner.invoke(
        main,
        ["scale", "--family", str(scenario), "--N", "2,3,4", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output

    rows = read_rows(out)
    assert [r["N"] for r in rows] == ["2", "3", "4"]
    deltas = [float(r["delta_c"]) for r in rows]
    assert all(d > 0 for d in deltas)
    assert deltas == sorted(deltas)

    summary = json.loads(out.with_suffix(".json").read_text())
    assert summary["ladder"] == [2, 3, 4]
    assert np.isfinite(summary["exponent"])
    assert 0.0 < summary["ratio_at_max"] < 1.0


def test_scale_without_reduction_writes_a_null_exponent(runner, tmp_path, caplog):
    # equally busy slots: prefetching moves no load, so log(delta) is undefined
    family = tmp_path / "flat.json"
    save_scenario({
        "sizes": [1.0, 2.0],
        "generator": {"kind": "zipf", "users": 1, "power": 1.0, "activity": [0.5, 0.5]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "analytic_quadratic"},
    }, family)
    out = tmp_path / "scale.csv"   # flat.csv's summary would be the family file itself
    res = runner.invoke(main, ["scale", "--family", str(family), "--N", "2,3,4",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "exponent undefined" in res.output
    assert "no cost reduction at N=2,3,4" in caplog.text
    summary = json.loads(out.with_suffix(".json").read_text(), parse_constant=pytest.fail)
    assert summary["exponent"] is None
    assert [float(r["delta_c"]) for r in read_rows(out)] == [0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "command, change, fragment",
    [
        (["optimize"], {"sizes": {"kind": "uniform", "count": 10**12, "low": 1.0, "high": 2.0}},
         "'count' in sizes"),
        (["optimize"], {"eval": {"engine": "monte_carlo", "samples": 10**12}}, "'samples' in eval"),
        (["optimize", "--engine", "monte_carlo", "--samples", str(10**12)], {}, "--samples"),
        (["simulate", "--samples", str(10**12)], {}, "--samples"),
    ],
)
def test_oversized_input_fails_with_one_json_line(runner, tmp_path, command, change, fragment):
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps(dict(two_user_scenario_dict(0.9, "quadratic"), **change)))
    res = runner.invoke(main, [*command, "--scenario", str(bad), "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 1
    lines = [ln for ln in res.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError"
    assert fragment in err["message"] and "limit" in err["message"]


def test_scale_seed_overrides_every_seed(runner, tmp_path):
    # the seed draws the catalog and, under Monte Carlo, the samples and the hash
    family = {
        "sizes": {"kind": "uniform", "count": 3, "low": 1.0, "high": 2.0},
        "generator": {"kind": "zipf", "users": 1, "power": 3.0, "activity": [0.8, 0.2]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "monte_carlo", "samples": 40},
        "seed": 0,
    }
    save_scenario(family, tmp_path / "seed0.json")
    save_scenario(dict(family, seed=5), tmp_path / "seed5.json")
    for name, extra in (("override", ["--family", str(tmp_path / "seed0.json"), "--seed", "5"]),
                        ("saved", ["--family", str(tmp_path / "seed5.json")])):
        res = runner.invoke(main, ["scale", *extra, "--N", "2,3,4",
                                   "--out", str(tmp_path / f"{name}.csv")])
        assert res.exit_code == 0, res.output
    for suffix in (".csv", ".json"):
        assert ((tmp_path / "override").with_suffix(suffix).read_bytes()
                == (tmp_path / "saved").with_suffix(suffix).read_bytes())


def test_simulate_seed_replaces_only_the_sampling_seed(runner, tmp_path):
    # the catalog is the draw of the file's own seed, unlike scale --seed
    data = dict(two_user_scenario_dict(0.9, "quadratic"),
                sizes={"kind": "uniform", "count": 3, "low": 1.0, "high": 2.0})
    path, out = tmp_path / "uniform.json", tmp_path / "sim.csv"
    save_scenario(data, path)
    res = runner.invoke(main, ["simulate", "--scenario", str(path), "--samples", "300",
                               "--seed", "5", "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads(out.with_suffix(".json").read_text())
    scn = load_scenario(path).with_eval("monte_carlo", 300, 5)
    want = expected_cycle_cost(scn.profile, None, scn.cost, scn.cfg, catalog=scn.catalog)
    assert summary["seed"] == 5 and summary["scenario_hash"] == scn.hash
    assert summary["value"] == want.value
    reseeded = load_scenario(path).source | {"seed": 5}
    assert not np.array_equal(parse_scenario(reseeded).catalog.sizes, scn.catalog.sizes)


def _overwrite_inputs(d):
    """Valid inputs for every command, named so that a default output lands on them."""
    d.joinpath("sub").mkdir()
    for name in ("run.json", "opt_alloc.csv", "s.json"):
        save_scenario(two_user_scenario_dict(0.9, "quadratic"), d / name)
    save_scenario(SCALING_SCENARIO, d / "fam.json")
    (d / "a.csv").write_text("user,slot,item,x\n")
    (d / "p.json").write_text(json.dumps({"profiles": [[[0.5, 0.3, 0.1], [0.2, 0.2, 0.2]]],
                                          "silence": [[0.1, 0.4]]}))
    (d / "r.json").write_text(json.dumps({"rows": [[0.8, 0.1, 0.1]]}))


_PATH_OPTIONS = {"--scenario", "--out", "--alloc", "--family", "--trace", "--profile", "--ratings"}


@pytest.mark.parametrize(
    "argv, target, options",
    [
        (["simulate", "--scenario", "s.json", "--samples", "10", "--alloc", "a.csv",
          "--out", "sub/../a.csv"], "a.csv", ("--out", "--alloc")),
        (["shape", "--scenario", "run.json", "--out", "run.json"], "run.json",
         ("--out", "--scenario")),
        (["shape", "--scenario", "run.json", "--trace", "run.json", "--out", "shaped.json"],
         "run.json", ("--trace", "--scenario")),
        (["recommend", "--profile", "p.json", "--ratings", "r.json", "--out", "r.json"], "r.json",
         ("--out", "--ratings")),
    ],
)
def test_an_output_option_naming_an_input_is_refused(runner, tmp_path, argv, target, options):
    _overwrite_inputs(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [str(tmp_path / a) if prev in _PATH_OPTIONS else a
            for prev, a in zip([None] + argv, argv)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert all(option in err["message"] for option in options), err["message"]
    # refused before any compute: every file as it was, and no new one
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert (tmp_path / target).read_bytes() == before[tmp_path / target]


@pytest.mark.parametrize(
    "argv, names",
    [
        (["optimize", "--scenario", "run.json", "--out", "o.json"],
         ("--out", "the JSON summary of --out")),
        (["shape", "--scenario", "run.json", "--out", "t.csv", "--trace", "sub/../t.csv"],
         ("--out", "--trace")),
    ],
)
def test_two_outputs_naming_one_file_are_refused(runner, tmp_path, argv, names):
    # the later output would be written over the earlier one
    _overwrite_inputs(tmp_path)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    argv = [str(tmp_path / a) if prev in _PATH_OPTIONS else a
            for prev, a in zip([None] + argv, argv)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert all(name in err["message"] for name in names), err["message"]
    # refused before any compute: every file as it was, and no new one
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize(
    "argv, target, what, option",
    [
        (["optimize", "--scenario", "run.json", "--out", "run.csv"], "run.json",
         "the JSON summary", "--scenario"),
        (["optimize", "--scenario", "opt_alloc.csv", "--out", "opt.csv"], "opt_alloc.csv",
         "the allocation CSV", "--scenario"),
        (["simulate", "--scenario", "run.json", "--samples", "10", "--out", "run.csv"], "run.json",
         "the JSON summary", "--scenario"),
        (["scale", "--family", "fam.json", "--N", "2,3,4", "--out", "fam.csv"], "fam.json",
         "the JSON summary", "--family"),
    ],
)
def test_a_file_out_implies_is_not_written_over_an_input(runner, tmp_path, caplog, argv, target,
                                                         what, option):
    # the run goes on and writes --out itself; only the implied file is left out
    _overwrite_inputs(tmp_path)
    before = (tmp_path / target).read_bytes()
    argv = [str(tmp_path / a) if prev in _PATH_OPTIONS else a
            for prev, a in zip([None] + argv, argv)]
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert (tmp_path / target).read_bytes() == before
    assert read_rows(argv[argv.index("--out") + 1])
    assert f"not writing {what}" in caplog.text and option in caplog.text


def test_scale_needs_a_generator(runner, quad_scenario, tmp_path):
    res = runner.invoke(
        main,
        ["scale", "--family", str(quad_scenario), "--N", "2,3,4",
         "--out", str(tmp_path / "s.csv")],
    )
    assert res.exit_code == 1
    assert "generator" in json.loads(res.stderr)["message"]


def test_error_payload_is_one_json_line(runner, tmp_path):
    bad = tmp_path / "bad.json"
    data = two_user_scenario_dict(0.9, "quadratic")
    data["bogus"] = 1
    bad.write_text(json.dumps(data))
    res = runner.invoke(
        main,
        ["optimize", "--scenario", str(bad), "--out", str(tmp_path / "o.csv")],
    )
    assert res.exit_code == 1
    lines = [ln for ln in res.stderr.splitlines() if ln.strip()]
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ScenarioError"
    assert "unknown key 'bogus'" in err["message"]


def test_non_object_block_fails_with_one_json_line(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(two_user_scenario_dict(0.9, "quadratic"), cost=5)))
    res = runner.invoke(main, ["optimize", "--scenario", str(bad),
                               "--out", str(tmp_path / "o.csv")])
    assert res.exit_code == 1
    err = json.loads(res.stderr)
    assert err["error"] == "ScenarioError"
    assert "'cost' must be an object" in err["message"]


def test_optimize_summary_parses_after_a_flat_descent(runner, tmp_path):
    # at tol 1e-14 the cyclic outage descent ends flat, on rounding, with a
    # gap above the tolerance that still counts as converged
    path = tmp_path / "outage.json"
    save_scenario(cyclic_outage_scenario(), path)
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(path), "--tol", "1e-14",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "opt.json").read_text())
    assert (summary["converged"], summary["stop"]) == (True, "rounding")
    assert summary["gap"] > 1e-14 * summary["c_proactive"]


@pytest.mark.parametrize("which", ["two-user-quadratic", "two-user-outage", "scaling"])
def test_reference_study_csv_cells_are_plain_numbers(runner, tmp_path, which):
    out_dir = tmp_path / "study"
    res = runner.invoke(main, ["reproduce-paper", which, "--out", str(out_dir)])
    assert res.exit_code == 0, res.output
    tables = sorted(out_dir.glob("*.csv"))
    assert tables
    for table in tables:
        with open(table, newline="") as fh:
            body = list(csv.reader(fh))[1:]
        assert body, table.name
        for row in body:
            for cell in row:
                float(cell)   # a numpy repr such as "np.float64(0.5)" fails here


def test_reference_study_two_user_quadratic(runner, tmp_path):
    out_dir = tmp_path / "study"
    res = runner.invoke(main, ["reproduce-paper", "two-user-quadratic", "--out", str(out_dir)])
    assert res.exit_code == 0, res.output

    for name in ("sweep.csv", "trace.csv", "ratings.csv", "two_user_quadratic_report.json"):
        assert (out_dir / name).exists()

    report = json.loads((out_dir / "two_user_quadratic_report.json").read_text())
    metrics = report["metrics"]
    assert metrics["c_nonproactive"] == pytest.approx(BASE_QUAD, abs=1e-9)
    assert metrics["f0_final"] == pytest.approx(12.802924091413765, abs=1e-6)
    assert metrics["converged"] is True
    assert metrics["max_boundary_residual"] < 1e-9
    assert set(metrics["ratings"]) == {"user_0", "user_1"}

    for name, digest in report["files"].items():
        blob = (out_dir / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest

    sweep = read_rows(out_dir / "sweep.csv")
    assert len(sweep) == 9
    assert all(float(r["c_proactive"]) <= float(r["c_nonproactive"]) + 1e-12 for r in sweep)


def _counted(monkeypatch, fn, *modules):
    """Replace ``fn`` by a wrapper in each of ``modules``; returns the list of calls."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, fn.__name__, counting)
    return calls


@pytest.mark.parametrize("extra", [[], ["--seed", "11"]])
def test_scale_parses_its_family_once(runner, tmp_path, monkeypatch, extra):
    # each ladder point is derived from the parsed family, and --seed edits
    # the file's object before its one parse
    family = tmp_path / "fam.json"
    save_scenario(SCALING_SCENARIO, family)
    parses = _counted(monkeypatch, parse_scenario, scenario, procache.cli, experiments)
    res = runner.invoke(main, ["scale", "--family", str(family), *extra, "--N", "25,50,100,200",
                               "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 0, res.output
    assert len(parses) == 1
    assert parses[0][0]["seed"] == (int(extra[1]) if extra else SCALING_SCENARIO["seed"])
    assert len(read_rows(tmp_path / "s.csv")) == 4


def test_the_scaling_study_parses_once(runner, tmp_path, monkeypatch):
    parses = _counted(monkeypatch, parse_scenario, scenario, procache.cli, experiments)
    res = runner.invoke(main, ["reproduce-paper", "scaling", "--out", str(tmp_path / "s")])
    assert res.exit_code == 0, res.output
    assert len(parses) == 1
    assert len(read_rows(tmp_path / "s" / "scaling.csv")) == len(SCALING_LADDER)


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_the_two_user_study_parses_once(runner, tmp_path, monkeypatch, kind):
    # the sweep points are derived from the one parsed study: each solves its
    # own profile under the study's catalog, cost and config, and that
    # profile is the parse of its own scenario's, bit for bit
    parses = _counted(monkeypatch, parse_scenario, scenario, procache.cli, experiments)
    solves = _counted(monkeypatch, proactive.solve_continued, experiments)
    res = runner.invoke(main, ["reproduce-paper", f"two-user-{kind}", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert len(parses) == 1
    study = parse_scenario(two_user_scenario_dict(SHAPED_P_PEAK, kind))
    points = [p_peak for p_peak in PP_GRID if p_peak != SHAPED_P_PEAK]
    for p_peak, (profile, catalog, cost, cfg, _) in zip(points, solves, strict=True):
        parsed = parse_scenario(two_user_scenario_dict(p_peak, kind))
        for field in ("probs", "silence", "counts"):
            got, want = getattr(profile, field), getattr(parsed.profile, field)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (p_peak, field)
        assert catalog.sizes.tobytes() == parsed.catalog.sizes.tobytes()
        assert (cost, cfg) == (parsed.cost, parsed.cfg) == (study.cost, study.cfg)


@pytest.mark.parametrize("kind", ["quadratic", "outage"])
def test_the_two_user_study_solves_its_shaped_point_once(tmp_path, monkeypatch, kind):
    # the sweep's p_peak = 0.9 row is the shaping run's first (cold) solve
    scn = parse_scenario(two_user_scenario_dict(SHAPED_P_PEAK, kind))
    cold = proactive.solve_proactive(scn.profile, scn.catalog, scn.cost, scn.cfg)
    solves = _counted(monkeypatch, proactive.solve_proactive, shaping, proactive)
    shaped = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)
    shaping_solves = len(solves)
    assert (shaped.start.value, shaped.trace.objectives[0]) == (cold.start.value, cold.cost)

    solves.clear()
    reproduce_two_user(kind, tmp_path)
    assert len(solves) == shaping_solves + len(PP_GRID) - 1
    row = read_rows(tmp_path / "sweep.csv")[PP_GRID.index(SHAPED_P_PEAK)]
    assert float(row["p_peak"]) == SHAPED_P_PEAK
    assert (float(row["c_nonproactive"]), float(row["c_proactive"])) == (cold.start.value,
                                                                        cold.cost)


@pytest.mark.parametrize("kind, warm_iterations, cold_iterations",
                         [("quadratic", 7, 6), ("outage", 17, 22)], ids=["quadratic", "outage"])
def test_a_warm_sweep_row_agrees_with_its_cold_solve(tmp_path, monkeypatch, kind,
                                                     warm_iterations, cold_iterations):
    # sweep points after the first start from the previous plan: the zero-plan
    # column keeps its bits, the optimized cost moves by a few ulps at most
    solve, iterations, cold_total = proactive.solve_proactive, [], 0

    def counted(*args, **kwargs):
        res = solve(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(proactive, "solve_proactive", counted)
    reproduce_two_user(kind, tmp_path)
    assert sum(iterations) == warm_iterations
    rows = read_rows(tmp_path / "sweep.csv")
    for p_peak, row in zip(PP_GRID, rows, strict=True):
        scn = parse_scenario(two_user_scenario_dict(p_peak, kind))
        cold = solve(scn.profile, scn.catalog, scn.cost, scn.cfg)
        assert float(row["p_peak"]) == p_peak
        assert float(row["c_nonproactive"]) == cold.start.value
        assert float(row["c_proactive"]) == pytest.approx(cold.cost, rel=1e-12, abs=0)
        if p_peak == SHAPED_P_PEAK:
            assert float(row["c_proactive"]) == cold.cost
        else:
            cold_total += cold.iterations
    assert cold_total == cold_iterations


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("which", ["two-user-quadratic", "two-user-outage", "scaling"])
def test_reference_study_is_its_subcommand_run_twice_over(runner, tmp_path, which):
    """A study's table is the subcommand's output on its scenario, and reruns are identical."""
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for out_dir in runs:
        res = runner.invoke(main, ["reproduce-paper", which, "--out", str(out_dir)])
        assert res.exit_code == 0, res.output
    assert _tree(runs[0]) == _tree(runs[1])

    scenario = tmp_path / "scenario.json"
    if which == "scaling":
        save_scenario(SCALING_SCENARIO, scenario)
        ladder = ",".join(map(str, SCALING_LADDER))
        argv = ["scale", "--family", str(scenario), "--N", ladder, "--out", str(tmp_path / "t.csv")]
        study_table, report = "scaling.csv", "scaling_report.json"
    else:
        kind = which.rsplit("-", 1)[1]
        save_scenario(two_user_scenario_dict(0.9, kind), scenario)
        argv = ["shape", "--scenario", str(scenario), "--trace", str(tmp_path / "t.csv"),
                "--out", str(tmp_path / "t.json")]
        study_table, report = "trace.csv", f"two_user_{kind}_report.json"
    res = runner.invoke(main, argv)
    assert res.exit_code == 0, res.output
    assert (tmp_path / "t.csv").read_bytes() == (runs[0] / study_table).read_bytes()
    summary = json.loads((tmp_path / "t.json").read_text())
    assert json.loads((runs[0] / report).read_text())["scenario_hash"] == summary["scenario_hash"]
