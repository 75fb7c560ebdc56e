"""Reference experiments: the two-user study and the user-count scaling run.

The two-user study sweeps the peak request probability, optimizes the
downloads, shapes the demand at the busiest operating point, and derives
the realizing ratings.  The scaling run grows a Zipf-demand population over
a fixed catalog and measures how the achievable cost reduction scales.
Both emit deterministic CSV files plus a JSON report embedding the scenario
hash and tool version.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .costs import CostModel
from .demand import DemandProfile, ItemCatalog, zipf_profile
from .evaluate import EvalConfig, nonproactive_cost
from .proactive import scaling_curve, solve_proactive
from .recommend import solve_rating
from .rng import substream
from .scenario import scenario_hash
from .shaping import boundary_check, shape_demand

TWO_USER_SIZES = (3.0, 2.0, 4.0)
TWO_USER_PREFS = ((0.8, 0.1, 0.1), (0.3, 0.1, 0.6))
TWO_USER_OFFPEAK = 0.1
OUTAGE_CAPACITY = 9.8
PP_GRID = tuple(round(0.1 * k, 1) for k in range(1, 10))

# silence pattern oriented so the quietest slots sit right before the busiest
# ones; one-slot prefetching then has room to drain the evening peaks
SCALING_SILENCE = (0.1, 0.05, 0.7, 0.2, 0.8, 0.01, 0.4, 0.9)
SCALING_LADDER = (25, 50, 100, 200)

CSV_SCHEMA_VERSION = 1


def two_user_instance(p_peak: float) -> tuple[ItemCatalog, DemandProfile]:
    """Two users, three items, an off-peak and a peak slot."""
    catalog = ItemCatalog(TWO_USER_SIZES)
    prefs = np.asarray(TWO_USER_PREFS)
    probs = np.stack(
        [np.stack([TWO_USER_OFFPEAK * pi, p_peak * pi]) for pi in prefs]
    )
    return catalog, DemandProfile(probs)


def two_user_scenario_dict(p_peak: float, cost_kind: str, engine: str = "enumerate") -> dict:
    prefs = np.asarray(TWO_USER_PREFS)
    cost = {"kind": "quadratic"} if cost_kind == "quadratic" else {
        "kind": "outage", "mu": OUTAGE_CAPACITY,
    }
    return {
        "sizes": list(TWO_USER_SIZES),
        "profiles": [
            [list(TWO_USER_OFFPEAK * pi), list(p_peak * pi)] for pi in prefs
        ],
        "cost": cost,
        "eval": {"engine": engine},
        "alpha": 0.2,
        "seed": 0,
    }


@dataclass(frozen=True)
class ZipfUniformFamily:
    """Identical Zipf users over a fixed uniformly drawn catalog."""

    num_items: int = 50
    power: float = 4.0
    silence: tuple = SCALING_SILENCE
    size_low: float = 10.0
    size_high: float = 30.0
    seed: int = 7

    def catalog(self) -> ItemCatalog:
        gen = substream(self.seed, 997, 991)
        return ItemCatalog(gen.uniform(self.size_low, self.size_high, size=self.num_items))

    def instance(self, num_users: int) -> tuple[ItemCatalog, DemandProfile]:
        catalog = self.catalog()
        rows = np.stack(
            [zipf_profile(self.num_items, self.power, 1.0 - q) for q in self.silence]
        )
        probs = np.broadcast_to(rows, (num_users,) + rows.shape).copy()
        return catalog, DemandProfile(probs)


@dataclass(frozen=True)
class RunReport:
    """What a reproduction run computed and where it put the files."""

    name: str
    scenario_hash: str
    version: str
    metrics: dict
    files: dict = field(default_factory=dict)


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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finish_report(report: RunReport, out_dir: Path, files: list[Path]) -> RunReport:
    checksums = {f.name: _sha256(f) for f in files}
    final = RunReport(
        name=report.name,
        scenario_hash=report.scenario_hash,
        version=report.version,
        metrics=report.metrics,
        files=checksums,
    )
    payload = {
        "name": final.name,
        "scenario_hash": final.scenario_hash,
        "version": final.version,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "metrics": final.metrics,
        "files": final.files,
    }
    with open(out_dir / f"{report.name}_report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return final


def reproduce_two_user(
    cost_kind: str,
    out_dir,
    alpha: float = 0.2,
    p_peak_shape: float = 0.9,
    tol: float = 1e-8,
    max_iters: int = 5000,
) -> RunReport:
    """Sweep the peak probability, then shape and re-rate at the busiest point.

    Writes ``sweep.csv`` (p_peak, c_nonproactive, c_proactive), ``trace.csv``
    (iter, f0, max_boundary_residual), and ``ratings.csv`` (user, item,
    pi_orig, pi_shaped, rating) into ``out_dir``.
    """
    if cost_kind == "quadratic":
        cost = CostModel.quadratic()
    elif cost_kind == "outage":
        cost = CostModel.outage(OUTAGE_CAPACITY)
    else:
        raise ValueError(f"unknown two-user cost kind {cost_kind!r}")
    cfg = EvalConfig(engine="enumerate")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    sweep_rows = []
    for p_peak in PP_GRID:
        catalog, profile = two_user_instance(p_peak)
        base = nonproactive_cost(profile, catalog, cost, cfg)
        solved = solve_proactive(profile, catalog, cost, cfg, tol=tol, max_iters=max_iters)
        sweep_rows.append((p_peak, base.value, solved.cost))

    catalog, profile = two_user_instance(p_peak_shape)
    base = nonproactive_cost(profile, catalog, cost, cfg)
    shaped = shape_demand(
        profile, catalog, cost, cfg, alpha,
        inner_tol=tol, inner_max_iters=max_iters,
    )
    boundary = boundary_check(shaped.profile, shaped.regions)
    trace_rows = [
        (k, shaped.trace.objectives[k], shaped.trace.residuals[k])
        for k in range(len(shaped.trace))
    ]

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
        for m in range(catalog.num_items):
            rating_rows.append(
                (n, m + 1, float(TWO_USER_PREFS[n][m]), float(pi_shaped[m]),
                 float(res.ratings.v[m]))
            )

    sweep_path = out_dir / "sweep.csv"
    trace_path = out_dir / "trace.csv"
    ratings_path = out_dir / "ratings.csv"
    write_csv(sweep_path, ["p_peak", "c_nonproactive", "c_proactive"], sweep_rows)
    write_csv(trace_path, ["iter", "f0", "max_boundary_residual"], trace_rows)
    write_csv(
        ratings_path, ["user", "item", "pi_orig", "pi_shaped", "rating"], rating_rows
    )

    name = f"two_user_{cost_kind}"
    report = RunReport(
        name=name,
        scenario_hash=scenario_hash(two_user_scenario_dict(p_peak_shape, cost_kind)),
        version=__version__,
        metrics={
            "cost_kind": cost_kind,
            "alpha": alpha,
            "p_peak": p_peak_shape,
            "c_nonproactive": base.value,
            "c_shaped": shaped.solve.cost,
            "f0_initial": float(shaped.trace.objectives[0]),
            "f0_final": float(shaped.trace.objectives[-1]),
            "outer_iterations": len(shaped.trace) - 1,
            "converged": shaped.converged,
            "max_boundary_residual": float(np.max(boundary.scaled_residual)),
            "ratings": ratings_out,
        },
    )
    return _finish_report(report, out_dir, [sweep_path, trace_path, ratings_path])


def reproduce_scaling(
    out_dir,
    ladder=SCALING_LADDER,
    seed: int = 7,
    tol: float = 1e-6,
    max_iters: int = 5000,
) -> RunReport:
    """Grow the Zipf population and chart the reduction against the user count.

    Writes ``scaling.csv`` with columns (N, c_nonproactive, c_proactive,
    delta_c, ratio, stderr).
    """
    family = ZipfUniformFamily(seed=seed)
    cfg = EvalConfig(engine="analytic_quadratic")
    cost = CostModel.quadratic()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    curve = scaling_curve(family, ladder, cost, cfg, tol=tol, max_iters=max_iters)
    rows = [
        (p.num_users, p.nonproactive, p.optimized, p.delta, p.ratio, p.stderr)
        for p in curve.points
    ]
    path = out_dir / "scaling.csv"
    write_csv(
        path, ["N", "c_nonproactive", "c_proactive", "delta_c", "ratio", "stderr"], rows
    )

    scenario = {
        "sizes": {"kind": "uniform", "count": family.num_items,
                  "low": family.size_low, "high": family.size_high},
        "generator": {"kind": "zipf", "users": max(ladder), "power": family.power,
                      "activity": [1.0 - q for q in family.silence]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "analytic_quadratic"},
        "seed": seed,
    }
    last = curve.points[-1]
    report = RunReport(
        name="scaling",
        scenario_hash=scenario_hash(scenario),
        version=__version__,
        metrics={
            "ladder": [int(n) for n in ladder],
            "exponent": curve.exponent,
            "ratio_at_max": last.ratio,
            "delta_at_max": last.delta,
        },
    )
    return _finish_report(report, out_dir, [path])
