"""End-to-end CLI runs against real scenario files in a temp directory."""

import csv
import hashlib
import json

import numpy as np
import pytest
from click.testing import CliRunner

from procache.cli import main
from procache.experiments import SCALING_LADDER, SCALING_SCENARIO, two_user_scenario_dict
from procache.scenario import save_scenario, scenario_hash

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


def test_optimize_switches_to_monte_carlo_with_its_samples(runner, quad_scenario, tmp_path):
    # the scenario has no samples; both overrides apply before the config is checked
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(quad_scenario), "--engine",
                               "monte_carlo", "--samples", "50", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads((tmp_path / "opt.json").read_text())["engine"] == "monte_carlo"
    assert all(float(r["stderr"]) > 0.0 for r in read_rows(out))


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
    out = tmp_path / "flat.csv"
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


def test_optimize_summary_parses_after_a_stalled_descent(runner, tmp_path):
    # at tol 1e-12 the outage descent stops in its stall branch, whose
    # convergence flag is computed with numpy scalars
    path = tmp_path / "outage.json"
    save_scenario(two_user_scenario_dict(0.9, "outage"), path)
    out = tmp_path / "opt.csv"
    res = runner.invoke(main, ["optimize", "--scenario", str(path), "--tol", "1e-12",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    summary = json.loads((tmp_path / "opt.json").read_text())
    assert summary["converged"] is True
    assert summary["grad_norm"] > 1e-12


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
