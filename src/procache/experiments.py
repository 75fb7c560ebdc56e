"""Reference experiments: the two-user study and the user-count scaling run.

Each study is a scenario run through the same stages as the CLI
subcommands.  The two-user study sweeps the peak request probability,
optimizes the downloads, shapes the demand at the busiest operating point,
and derives the realizing ratings.  The scaling run grows a Zipf-demand
population over a fixed catalog and measures how the achievable cost
reduction scales.  Both emit deterministic CSV files plus a JSON report
embedding the hash of the scenario they computed from and the tool version.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .proactive import ScalingCurve, scaling_curve, solve_proactive
from .recommend import solve_rating
from .scenario import Scenario, parse_scenario
from .shaping import ShapingTrace, shape_demand

TWO_USER_SIZES = (3.0, 2.0, 4.0)
TWO_USER_PREFS = ((0.8, 0.1, 0.1), (0.3, 0.1, 0.6))
TWO_USER_OFFPEAK = 0.1
OUTAGE_CAPACITY = 9.8
PP_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))
SHAPED_P_PEAK = 0.9

# silence pattern oriented so the quietest slots sit right before the busiest
# ones; one-slot prefetching then has room to drain the evening peaks
SCALING_SILENCE = (0.1, 0.05, 0.7, 0.2, 0.8, 0.01, 0.4, 0.9)
SCALING_LADDER = (25, 50, 100, 200)

# identical Zipf users over a fixed uniformly drawn catalog; the scaling study
# parses it once and derives each ladder point with Scenario.with_users
SCALING_SCENARIO = {
    "sizes": {"kind": "uniform", "count": 50, "low": 10.0, "high": 30.0},
    "generator": {"kind": "zipf", "users": max(SCALING_LADDER), "power": 4.0,
                  "activity": [1.0 - q for q in SCALING_SILENCE]},
    "cost": {"kind": "quadratic"},
    "eval": {"engine": "analytic_quadratic"},
    "seed": 7,
}

CSV_SCHEMA_VERSION = 1


def two_user_scenario_dict(p_peak: float, cost_kind: str) -> dict:
    """Two users, three items, an off-peak and a peak slot."""
    costs = {"quadratic": {"kind": "quadratic"},
             "outage": {"kind": "outage", "mu": OUTAGE_CAPACITY}}
    if cost_kind not in costs:
        raise ValueError(f"unknown two-user cost kind {cost_kind!r}")
    prefs = np.asarray(TWO_USER_PREFS)
    return {
        "sizes": list(TWO_USER_SIZES),
        "profiles": [
            [list(TWO_USER_OFFPEAK * pi), list(p_peak * pi)] for pi in prefs
        ],
        "cost": costs[cost_kind],
        "eval": {"engine": "enumerate"},
        "alpha": 0.2,
        "seed": 0,
    }


@dataclass(frozen=True)
class RunReport:
    """What a reproduction run computed and where it put the files."""

    name: str
    scenario_hash: str
    version: str
    metrics: dict
    files: dict


def write_csv(path, header: list[str], rows) -> None:
    """CSV with a header row; every float, numpy or not, as its shortest round-trip repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    # np.float64 subclasses float, and under numpy 2 its repr is "np.float64(...)"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, np.integer):
        return int(v)
    return v


def write_json(path, payload) -> None:
    """Strict JSON, encoded before the file is opened: a NaN or infinity raises and writes nothing."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def write_scaling_csv(path, curve: ScalingCurve) -> None:
    write_csv(
        path, ["N", "c_nonproactive", "c_proactive", "delta_c", "ratio", "stderr"],
        [(p.num_users, p.nonproactive, p.optimized, p.delta, p.ratio, p.stderr)
         for p in curve.points],
    )


def write_trace_csv(path, trace: ShapingTrace) -> None:
    write_csv(path, ["iter", "f0", "max_boundary_residual"],
              zip(range(len(trace)), trace.objectives, trace.residuals))


def _finish_report(name: str, scn: Scenario, metrics: dict, out_dir: Path,
                   files: list[Path]) -> RunReport:
    report = RunReport(
        name=name,
        scenario_hash=scn.hash,
        version=__version__,
        metrics=metrics,
        files={f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    )
    write_json(out_dir / f"{name}_report.json",
               {**asdict(report), "csv_schema_version": CSV_SCHEMA_VERSION})
    return report


def reproduce_two_user(cost_kind: str, out_dir) -> RunReport:
    """Sweep the peak probability, then shape and re-rate at the busiest point.

    Writes ``sweep.csv`` (p_peak, c_nonproactive, c_proactive), ``trace.csv``
    (iter, f0, max_boundary_residual), and ``ratings.csv`` (user, item,
    pi_orig, pi_shaped, rating) into ``out_dir``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scn = parse_scenario(two_user_scenario_dict(SHAPED_P_PEAK, cost_kind))
    shaped = shape_demand(scn.profile, scn.catalog, scn.cost, scn.cfg, scn.alpha)

    # the shaped point's row is the shaping run's first solve, not a second one
    sweep_rows = []
    for p_peak in PP_GRID:
        if p_peak == SHAPED_P_PEAK:
            sweep_rows.append((p_peak, shaped.start.value, shaped.trace.objectives[0]))
            continue
        point = parse_scenario(two_user_scenario_dict(p_peak, cost_kind))
        solved = solve_proactive(point.profile, point.catalog, point.cost, point.cfg)
        sweep_rows.append((p_peak, solved.start.value, solved.cost))

    rating_rows = []
    ratings_out = {}
    peak = 1  # the busier of the two slots
    for n, intrinsic in enumerate(TWO_USER_PREFS):
        activity = 1.0 - float(shaped.profile.silence[n, peak])
        res = solve_rating(
            shaped.profile.probs[n, peak], shaped.profile.silence[n, peak], intrinsic
        )
        pi_shaped = shaped.profile.probs[n, peak] / activity
        ratings_out[f"user_{n}"] = list(map(float, res.ratings.v))
        for m in range(scn.catalog.num_items):
            rating_rows.append(
                (n, m + 1, float(TWO_USER_PREFS[n][m]), float(pi_shaped[m]),
                 float(res.ratings.v[m]))
            )

    sweep_path = out_dir / "sweep.csv"
    trace_path = out_dir / "trace.csv"
    ratings_path = out_dir / "ratings.csv"
    write_csv(sweep_path, ["p_peak", "c_nonproactive", "c_proactive"], sweep_rows)
    write_trace_csv(trace_path, shaped.trace)
    write_csv(
        ratings_path, ["user", "item", "pi_orig", "pi_shaped", "rating"], rating_rows
    )

    metrics = {
        "cost_kind": cost_kind,
        "alpha": scn.source["alpha"],
        "p_peak": SHAPED_P_PEAK,
        "c_nonproactive": sweep_rows[PP_GRID.index(SHAPED_P_PEAK)][1],
        "c_shaped": shaped.solve.cost,
        "f0_initial": float(shaped.trace.objectives[0]),
        "f0_final": float(shaped.trace.objectives[-1]),
        "outer_iterations": len(shaped.trace) - 1,
        "converged": shaped.converged,
        "max_boundary_residual": float(shaped.trace.residuals[-1]),
        "ratings": ratings_out,
    }
    return _finish_report(f"two_user_{cost_kind}", scn, metrics, out_dir,
                          [sweep_path, trace_path, ratings_path])


def reproduce_scaling(out_dir) -> RunReport:
    """Grow the Zipf population and chart the reduction against the user count.

    Writes ``scaling.csv`` with columns (N, c_nonproactive, c_proactive,
    delta_c, ratio, stderr).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    scn = parse_scenario(SCALING_SCENARIO)
    curve = scaling_curve(scn, SCALING_LADDER)
    path = out_dir / "scaling.csv"
    write_scaling_csv(path, curve)

    last = curve.points[-1]
    metrics = {
        "ladder": list(SCALING_LADDER),
        "exponent": curve.exponent,
        "ratio_at_max": last.ratio,
        "delta_at_max": last.delta,
    }
    return _finish_report("scaling", scn, metrics, out_dir, [path])
