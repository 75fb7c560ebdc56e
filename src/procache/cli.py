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
import logging
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .evaluate import ENGINES, expected_cycle_cost
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
from .scenario import (
    Scenario,
    ScenarioError,
    check_seed,
    load_scenario,
    parse_rating_inputs,
    parse_scenario,
    read_json,
)
from .shaping import shape_demand


log = logging.getLogger(__name__)

_TOL_HELP = "Solver tolerance on the certified gap to the least cost, relative to the cost."


def _fail(exc: Exception) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(payload), err=True)
    sys.exit(1)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        # ScenarioError, CostDomainError and UnsupportedEngineError are ValueErrors
        except (ValueError, OSError) as exc:
            _fail(exc)

    return wrapper


def _check_solver_options(tol: float, max_iters: int) -> None:
    """Refuse a ``--tol`` that is not finite and nonnegative, or a ``--max-iters`` below 1."""
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ScenarioError(f"--tol must be a finite nonnegative number, got {tol!r}")
    if max_iters < 1:
        raise ScenarioError(f"--max-iters must be at least 1, got {max_iters}")


def _plan_outputs(reads: dict, writes: dict, implied: dict | None = None) -> list:
    """Check, before any compute, the files a command writes: ``reads`` and
    ``writes`` map options to paths (None where not given), ``implied`` names
    the files ``--out`` implies.  An output option that names an input, or two
    outputs that resolve to one file, raise ScenarioError; an implied file that
    is an input is left out with a warning.  Returns the implied paths (None
    where left out)."""
    inputs = {Path(path).resolve(): option for option, path in reads.items() if path is not None}
    implied = {f"{what} of --out": path for what, path in (implied or {}).items()}
    outputs, kept = {}, []
    for name, path in {**writes, **implied}.items():
        where = None if path is None else Path(path).resolve()
        if where in inputs and name in writes:
            raise ScenarioError(f"{name} {str(path)!r} is the file {inputs[where]} reads; "
                                "refusing to overwrite an input")
        if where in inputs:
            log.warning("not writing %s %s: it is the file %s reads", name, path, inputs[where])
            where = path = None
        if name in implied:
            kept.append(path)
        if where is not None and outputs.setdefault(where, name) != name:
            raise ScenarioError(f"{outputs[where]} and {name} are both {str(path)!r}; "
                                "refusing to write one over the other")
    return kept


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
@click.option("--seed", type=int, default=None,
              help="Sampling seed of the estimate, an integer in [0, 2**53]; the catalog "
                   "and the scenario hash stay those of the file's own seed.")
@click.option("--alloc", "alloc_path", type=click.Path(exists=True), default=None,
              help="Allocation CSV from 'optimize'; default is no prefetching.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def simulate(scenario_path, samples, seed, alloc_path, out_path):
    """Monte Carlo estimate of the cycle cost, slot by slot."""
    if samples < 1:
        raise click.BadParameter("--samples must be a positive integer")
    if seed is not None:
        check_seed(seed, "--seed")
    summary_path, = _plan_outputs({"--scenario": scenario_path, "--alloc": alloc_path},
                                  {"--out": out_path},
                                  {"the JSON summary": Path(out_path).with_suffix(".json")})
    scn = load_scenario(scenario_path).with_eval("monte_carlo", samples, seed)
    cfg = scn.cfg
    allocation = None
    if alloc_path is not None:
        allocation = _read_alloc(alloc_path, scn)
    res = expected_cycle_cost(scn.profile, allocation, scn.cost, cfg, catalog=scn.catalog)
    _write_slot_rows(out_path, cfg.engine, res)
    if summary_path is not None:
        write_json(summary_path, _summary(scn, {
            "engine": cfg.engine, "samples": samples, "seed": cfg.seed,
            "value": res.value, "stderr": res.stderr,
        }))
    click.echo(f"cycle cost {res.value:.6g} +- {res.stderr:.2g} ({samples} samples/slot)")


def _read_alloc(path, scn: Scenario) -> np.ndarray:
    """The allocation CSV as an (N, T, M) array (items numbered from 1).

    A row whose index is not an integer in range, whose ``x`` is not a
    number in [0, S(item)], or that repeats a (user, slot, item) raises
    :class:`ScenarioError` naming its line and column.
    """
    x = np.zeros(scn.profile.probs.shape)
    n_users, n_slots, m_items = x.shape
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        needed = {"user", "slot", "item", "x"}
        if reader.fieldnames is None or not needed.issubset(reader.fieldnames):
            raise ScenarioError(f"allocation CSV needs columns {sorted(needed)}")
        seen = set()
        for row in reader:
            where = f"allocation CSV line {reader.line_num}"
            cell = []
            for key, lo, hi in (("user", 0, n_users - 1), ("slot", 0, n_slots - 1),
                                ("item", 1, m_items)):
                try:
                    index = int(row[key])
                except (TypeError, ValueError):
                    index = None
                if index is None or not lo <= index <= hi:
                    raise ScenarioError(
                        f"{where}, column {key!r}: {row[key]!r} is not an integer in [{lo}, {hi}]"
                    )
                cell.append(index)
            n, t, m = cell[0], cell[1], cell[2] - 1
            if (n, t, m) in seen:
                raise ScenarioError(f"{where}, columns 'user', 'slot', 'item': "
                                    f"({n}, {t}, {m + 1}) appears twice")
            seen.add((n, t, m))
            size = float(scn.catalog.sizes[m])
            try:
                value = float(row["x"])
            except (TypeError, ValueError):
                value = np.nan
            if not 0.0 <= value <= size:
                raise ScenarioError(f"{where}, column 'x': {row['x']!r} is not a number "
                                    f"in [0, {size!r}], the size of item {m + 1}")
            x[n, t, m] = value
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
    _check_solver_options(tol, max_iters)
    out = Path(out_path)
    alloc_path, summary_path = _plan_outputs(
        {"--scenario": scenario_path}, {"--out": out_path},
        {"the allocation CSV": out.with_name(out.stem + "_alloc.csv"),
         "the JSON summary": out.with_suffix(".json")})
    scn = load_scenario(scenario_path).with_eval(engine, samples)
    scn.check_per_user()
    cfg = scn.cfg
    solved = solve_proactive(scn.profile, scn.catalog, scn.cost, cfg,
                             tol=tol, max_iters=max_iters)
    base = solved.start
    _write_slot_rows(out_path, cfg.engine, solved.final)
    if alloc_path is not None:
        x = scn.per_user(solved.allocation.x)
        n, t, m = np.nonzero(x)
        write_csv(alloc_path, ["user", "slot", "item", "x"], zip(n, t, m + 1, x[n, t, m]))
    if summary_path is not None:
        write_json(summary_path, _summary(scn, {
            "engine": cfg.engine,
            "c_nonproactive": base.value,
            "c_proactive": solved.cost,
            "delta_c": base.value - solved.cost,
            "converged": solved.converged,
            "iterations": solved.iterations,
            "gap": solved.gap,
            "stop": solved.stop,
        }))
    click.echo(
        f"nonproactive {base.value:.6g} -> proactive {solved.cost:.6g} "
        f"({solved.iterations} iterations, converged={solved.converged})"
    )


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
@click.option("--alpha", type=float, default=None, help="Override the scenario alpha for all users.")
@click.option("--tol", type=float, default=1e-8, show_default=True,
              help="Shaping tolerance on the linear step's gap, relative to the cost.")
@click.option("--max-iters", type=int, default=100, show_default=True, help="Outer iteration cap.")
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="Write the per-iteration objective trace CSV here.")
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def shape(scenario_path, alpha, tol, max_iters, trace_path, out_path):
    """Shape demand inside the per-user entropy balls, then re-optimize."""
    _check_solver_options(tol, max_iters)
    _plan_outputs({"--scenario": scenario_path}, {"--out": out_path, "--trace": trace_path})
    scn = load_scenario(scenario_path)
    scn.check_per_user()
    alphas = scn.alpha if alpha is None else alpha
    result = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, alphas,
                          tol_outer=tol, max_outer=max_iters)
    if trace_path is not None:
        write_trace_csv(trace_path, result.trace)
    payload = _summary(scn, {
        "converged": result.converged,
        "f0_initial": float(result.trace.objectives[0]),
        "f0_final": float(result.trace.objectives[-1]),
        "outer_iterations": len(result.trace) - 1,
        "gap": float(result.trace.gaps[-1]),
        "stop": result.stop,
        "max_boundary_residual": float(result.trace.residuals[-1]),
        "profiles": scn.per_user(result.profile.probs).tolist(),
        "silence": scn.per_user(result.profile.silence).tolist(),
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
    _plan_outputs({"--profile": profile_path, "--ratings": ratings_path}, {"--out": out_path})
    probs, silence, rows = parse_rating_inputs(read_json(profile_path), read_json(ratings_path))
    out_rows = []
    for n, t in np.ndindex(silence.shape):
        res = solve_rating(probs[n, t], silence[n, t], rows[n])
        for m, v in enumerate(res.ratings.v):
            out_rows.append((n, t, m + 1, float(v), res.scale, int(res.clamped)))
    write_csv(out_path, ["user", "slot", "item", "rating", "scale", "clamped"], out_rows)
    click.echo(f"wrote ratings for {len(rows)} users to {out_path}")


@main.command()
@click.option("--family", "family_path", required=True, type=click.Path(exists=True),
              help="Scenario file with a generator block; its user count is ignored.")
@click.option("--N", "ladder_text", required=True,
              help="Comma-separated user-count ladder, e.g. 25,50,100,200.")
@click.option("--seed", type=int, default=None,
              help="Replace the scenario seed (in [0, 2**53]) everywhere, as if the file said "
                   "it: the catalog draw, the Monte Carlo samples and the scenario hash.")
@click.option("--tol", type=float, default=1e-8, show_default=True, help=_TOL_HELP)
@click.option("--max-iters", type=int, default=5000, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
@_guarded
def scale(family_path, ladder_text, seed, tol, max_iters, out_path):
    """Sweep the user count and fit the reduction's growth exponent."""
    _check_solver_options(tol, max_iters)
    summary_path, = _plan_outputs({"--family": family_path}, {"--out": out_path},
                                  {"the JSON summary": Path(out_path).with_suffix(".json")})
    scn = load_scenario(family_path)
    if seed is not None:
        scn = parse_scenario(dict(scn.source, seed=check_seed(seed, "--seed")))
    try:
        ladder = [int(s) for s in ladder_text.split(",") if s.strip()]
        if len(set(ladder)) < 3:
            raise ValueError("the exponent fit needs at least 3 distinct user counts")
    except ValueError as exc:
        raise ScenarioError(f"bad --N ladder {ladder_text!r}: {exc}") from exc
    curve = scaling_curve(scn, ladder, tol=tol, max_iters=max_iters)
    write_scaling_csv(out_path, curve)
    if summary_path is not None:
        write_json(summary_path, _summary(scn, {
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
