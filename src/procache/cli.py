"""Command-line front end.

Every subcommand reads a scenario file, runs one pipeline stage, and writes
CSV/JSON outputs whose bytes depend only on the inputs (fixed float
formatting, seeded sampling).  Failures exit nonzero with a one-line JSON
error object on stderr.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .costs import CostDomainError
from .demand import DemandProfile
from .evaluate import (
    ENGINES,
    EvalConfig,
    UnsupportedEngineError,
    expected_cycle_cost,
    nonproactive_cost,
)
from .experiments import (
    reproduce_scaling,
    reproduce_two_user,
    write_csv,
    write_json,
    write_scaling_csv,
    write_trace_csv,
)
from .proactive import scaling_curve, solve_proactive
from .recommend import solve_rating
from .scenario import Scenario, ScenarioError, check_cells, load_scenario, parse_scenario
from .shaping import boundary_check, shape_demand


_TOL_HELP = "Solver tolerance, relative to the projected-gradient norm at zero prefetch."


def _fail(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ScenarioError, UnsupportedEngineError, CostDomainError,
                ValueError, OSError) as exc:
            _fail(exc)

    return wrapper


def _summary(scn: Scenario, extra: dict) -> dict:
    return {"version": __version__, "scenario_hash": scn.hash, **extra}


def _write_slot_rows(path, engine: str, res) -> None:
    """Per-slot value and standard error of one cycle-cost evaluation."""
    write_csv(path, ["slot", "engine", "value", "stderr"],
              [(t, engine, v, e)
               for t, (v, e) in enumerate(zip(res.slot_values, res.slot_stderrs))])


@click.group()
@click.version_option(version=__version__, prog_name="procache")
def main():
    """Proactive download planning, demand shaping, and rating design."""


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--samples", type=int, required=True, help="Monte Carlo sample count (> 0).")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--alloc", "alloc_path", type=click.Path(exists=True), default=None,
              help="Allocation CSV from 'optimize'; default is no prefetching.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def simulate(scenario_path, samples, seed, alloc_path, out_path):
    """Monte Carlo estimate of the cycle cost, slot by slot."""
    if samples < 1:
        raise click.BadParameter("--samples must be a positive integer")
    scn = load_scenario(scenario_path)
    cfg = _override_eval(scn, "monte_carlo", samples, seed)
    allocation = None
    if alloc_path is not None:
        allocation = _read_alloc(alloc_path, scn)
    res = expected_cycle_cost(scn.profile, allocation, scn.cost, cfg, catalog=scn.catalog)
    _write_slot_rows(out_path, cfg.engine, res)
    write_json(Path(out_path).with_suffix(".json"), _summary(scn, {
        "engine": cfg.engine, "samples": samples, "seed": cfg.seed,
        "value": res.value, "stderr": res.stderr,
    }))
    click.echo(f"cycle cost {res.value:.6g} +- {res.stderr:.2g} ({samples} samples/slot)")


def _read_alloc(path, scn: Scenario) -> np.ndarray:
    x = np.zeros(scn.profile.probs.shape)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"user", "slot", "item", "x"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ScenarioError(f"allocation CSV needs columns {sorted(needed)}")
        for row in reader:
            x[int(row["user"]), int(row["slot"]), int(row["item"]) - 1] = float(row["x"])
    return x


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--engine", type=click.Choice(ENGINES),
              default=None, help="Override the scenario engine.")
@click.option("--samples", type=int, default=None, help="Sample count for monte_carlo.")
@click.option("--tol", type=float, default=1e-8, show_default=True, help=_TOL_HELP)
@click.option("--max-iters", type=int, default=5000, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def optimize(scenario_path, engine, samples, tol, max_iters, out_path):
    """Minimize the cycle cost over proactive downloads."""
    scn = load_scenario(scenario_path)
    cfg = _override_eval(scn, engine, samples)
    base = nonproactive_cost(scn.profile, scn.catalog, scn.cost, cfg)
    solved = solve_proactive(scn.profile, scn.catalog, scn.cost, cfg,
                             tol=tol, max_iters=max_iters)
    res = expected_cycle_cost(scn.profile, solved.allocation, scn.cost, cfg)
    _write_slot_rows(out_path, cfg.engine, res)
    x = solved.allocation.x
    n, t, m = np.nonzero(x)
    alloc_path = Path(out_path).with_name(Path(out_path).stem + "_alloc.csv")
    write_csv(alloc_path, ["user", "slot", "item", "x"], zip(n, t, m + 1, x[n, t, m]))
    write_json(Path(out_path).with_suffix(".json"), _summary(scn, {
        "engine": cfg.engine,
        "c_nonproactive": base.value,
        "c_proactive": solved.cost,
        "delta_c": base.value - solved.cost,
        "converged": solved.converged,
        "iterations": solved.iterations,
        "grad_norm": solved.grad_norm,
    }))
    click.echo(
        f"nonproactive {base.value:.6g} -> proactive {solved.cost:.6g} "
        f"({solved.iterations} iterations, converged={solved.converged})"
    )


def _override_eval(scn: Scenario, engine, samples, seed=None) -> EvalConfig:
    """The scenario's evaluation config with the options that were given; None keeps a field."""
    changes = {"engine": engine, "samples": samples, "seed": seed}
    cfg = replace(scn.cfg, **{key: v for key, v in changes.items() if v is not None})
    if cfg.kernels.sampled:
        check_cells("--samples", cfg.samples, scn.profile.num_users, scn.profile.num_slots)
    return cfg


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", type=float, default=None, help="Override the scenario alpha for all users.")
@click.option("--tol", type=float, default=1e-8, show_default=True, help="Outer stopping tolerance.")
@click.option("--max-iters", type=int, default=100, show_default=True, help="Outer iteration cap.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the per-iteration objective trace CSV here.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def shape(scenario_path, alpha, tol, max_iters, trace_path, out_path):
    """Shape demand inside the per-user entropy balls, then re-optimize."""
    scn = load_scenario(scenario_path)
    alphas = scn.alpha if alpha is None else alpha
    result = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, alphas,
                          tol_outer=tol, max_outer=max_iters)
    boundary = boundary_check(result.profile, result.regions)
    if trace_path is not None:
        write_trace_csv(trace_path, result.trace)
    payload = _summary(scn, {
        "converged": result.converged,
        "f0_initial": float(result.trace.objectives[0]),
        "f0_final": float(result.trace.objectives[-1]),
        "outer_iterations": len(result.trace) - 1,
        "max_boundary_residual": float(np.max(boundary.scaled_residual)),
        "profiles": result.profile.probs.tolist(),
        "silence": result.profile.silence.tolist(),
    })
    write_json(out_path, payload)
    click.echo(
        f"f0 {payload['f0_initial']:.6g} -> {payload['f0_final']:.6g} "
        f"in {payload['outer_iterations']} outer iterations"
    )


@main.command()
@click.option("--profile", "profile_path", required=True, type=click.Path(exists=True),
              help="Shaped profile JSON (as written by 'shape').")
@click.option("--ratings", "ratings_path", required=True, type=click.Path(exists=True),
              help='Intrinsic ratings JSON: {"rows": [[..M..] per user]}.')
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def recommend(profile_path, ratings_path, out_path):
    """Ratings closest to the intrinsic ones that realize the shaped demand."""
    with open(profile_path) as fh:
        shaped = json.load(fh)
    for key in ("profiles", "silence"):
        if key not in shaped:
            raise ScenarioError(f"profile file lacks key {key!r}")
    with open(ratings_path) as fh:
        ratings_doc = json.load(fh)
    if not isinstance(ratings_doc, dict) or "rows" not in ratings_doc:
        raise ScenarioError("ratings file needs a top-level 'rows' list")
    rows_in = ratings_doc["rows"]
    profiles = shaped["profiles"]
    silence = shaped["silence"]
    if len(rows_in) != len(profiles):
        raise ScenarioError(
            f"{len(rows_in)} rating rows for {len(profiles)} users"
        )
    out_rows = []
    for n, (user_slots, user_silence) in enumerate(zip(profiles, silence)):
        for t, (p_row, q) in enumerate(zip(user_slots, user_silence)):
            res = solve_rating(np.asarray(p_row, dtype=float), float(q), rows_in[n])
            for m, v in enumerate(res.ratings.v):
                out_rows.append((n, t, m + 1, float(v), res.scale, int(res.clamped)))
    write_csv(out_path, ["user", "slot", "item", "rating", "scale", "clamped"], out_rows)
    click.echo(f"wrote ratings for {len(profiles)} users to {out_path}")


@main.command()
@click.option("--family", "family_path", required=True, type=click.Path(exists=True),
              help="Scenario file with a generator block; its user count is ignored.")
@click.option("--N", "ladder_text", required=True,
              help="Comma-separated user-count ladder, e.g. 25,50,100,200.")
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--tol", type=float, default=1e-6, show_default=True, help=_TOL_HELP)
@click.option("--max-iters", type=int, default=5000, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def scale(family_path, ladder_text, seed, tol, max_iters, out_path):
    """Sweep the user count and fit the reduction's growth exponent."""
    scn = load_scenario(family_path)
    if seed is not None:
        scn = parse_scenario(dict(scn.source, seed=seed))
    try:
        ladder = [int(s) for s in ladder_text.split(",") if s.strip()]
    except ValueError as exc:
        raise ScenarioError(f"bad --N ladder {ladder_text!r}: {exc}") from exc
    curve = scaling_curve(scn, ladder, tol=tol, max_iters=max_iters)
    write_scaling_csv(out_path, curve)
    write_json(Path(out_path).with_suffix(".json"), _summary(scn, {
        "ladder": ladder,
        "exponent": curve.exponent,
        "ratio_at_max": curve.points[-1].ratio,
    }))
    click.echo(
        f"exponent {_exponent_text(curve.exponent)}, ratio at N={curve.points[-1].num_users}: "
        f"{curve.points[-1].ratio:.4f}"
    )


def _exponent_text(exponent) -> str:
    return "undefined" if exponent is None else f"{exponent:.3f}"


@main.command("reproduce-paper")
@click.argument("which", type=click.Choice(["two-user-quadratic", "two-user-outage", "scaling"]))
@click.option("--out", "out_dir", required=True, type=click.Path())
@_guarded
def reproduce_paper(which, out_dir):
    """Re-run a reference study end to end into the given directory."""
    if which == "scaling":
        report = reproduce_scaling(out_dir)
        click.echo(
            f"scaling: exponent {_exponent_text(report.metrics['exponent'])}, "
            f"ratio at N={max(report.metrics['ladder'])}: {report.metrics['ratio_at_max']:.4f}"
        )
    else:
        kind = "quadratic" if which.endswith("quadratic") else "outage"
        report = reproduce_two_user(kind, out_dir)
        click.echo(
            f"two-user {kind}: c_nonproactive {report.metrics['c_nonproactive']:.6g}, "
            f"f0 {report.metrics['f0_initial']:.6g} -> {report.metrics['f0_final']:.6g}, "
            f"max boundary residual {report.metrics['max_boundary_residual']:.2e}"
        )


if __name__ == "__main__":
    main()
