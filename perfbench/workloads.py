"""The three workloads: generated scenario files, their procache tasks, and output checks.

Every workload is a fixed pool of tasks.  Each task is one ``procache``
subcommand (its argument list) plus a check that reads the files the task
wrote and returns the task's objective value, the reference that value is
held against, and the checks it missed.

Per-instance solve times vary two- to tenfold across scenario seeds (the
iteration counts of the descent and Dykstra loops depend on the drawn
sizes), so a pass runs the whole pool: every pass does the same work and the
benchmark seed orders the tasks within each pass.  References are the
paper's published values where it gives one (at the acceptance tests'
tolerances) and otherwise the values the parent commit of the benchmark
computed, kept in ``references.json``.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

# the paper's one-slot-ahead Zipf family: T = 8 slots of this silence
SILENCE = (0.1, 0.05, 0.7, 0.2, 0.8, 0.01, 0.4, 0.9)
SIZE_KEY = 20130426  # namespace of the benchmark's own size draws

# paper values: (value, tolerance) at the acceptance tests' resolution
PAPER = {
    "quadratic": {"c_nonproactive": (19.56, 1e-10), "c_proactive": (15.41, 0.005),
                  "f0_final": (12.80, 0.005)},
    "outage": {"c_nonproactive": (0.974, 0.0005), "c_proactive": (0.762, 0.0005),
               "f0_final": (0.608, 0.0005)},
    "scaling": {"ratio_at_max": 0.1621, "ratio_window": (0.147, 0.207),
                "exponent_window": (1.8, 2.2)},
}
BOUNDARY_TOL = 1e-3      # shaped rows sit on their entropy-ball boundary
EXACT_GAP_TOL = 1e-6     # exact engines: objective may exceed the reference by this share
MC_GAP_TOL = 0.01        # Monte Carlo plan by its exact analytic cost; 0.17-0.24% when recorded


@dataclass
class Outcome:
    """What the check of one finished task found.

    ``misses`` are checks outside their tolerance (the task fails);
    ``notes`` are output defects that leave the values readable.
    """

    objective: float | None = None
    reference: float | None = None
    misses: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    values: dict = field(default_factory=dict)   # per-point objectives, keyed as in the output

    @property
    def gap(self) -> float | None:
        if self.objective is None or self.reference is None:
            return None
        return max(0.0, (self.objective - self.reference) / abs(self.reference))

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.misses.append(what)


@dataclass
class Task:
    """One ``procache`` subcommand over generated inputs."""

    id: str
    argv: object          # outdir -> list of CLI arguments
    check: object         # (outdir, completed, ref) -> Outcome
    reference_argv: object = None   # outdir -> arguments whose output is the reference


def _zipf_rows(num_items: int, power: float, activities) -> np.ndarray:
    w = np.arange(1, num_items + 1, dtype=float) ** (-float(power))
    return np.stack([a * w / w.sum() for a in activities])


def _sizes(index: int, count: int, low: float, high: float) -> list:
    gen = np.random.default_rng([SIZE_KEY, index])
    return [float(v) for v in gen.uniform(low, high, size=count)]


def write_json(path: Path, data: dict) -> Path:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


_NUMPY_REPR = re.compile(r"^np\.float64\((.*)\)$")


def _number(text: str, outcome: Outcome, where: str) -> float:
    """Parse a CSV number; a numpy repr such as ``np.float64(1.5)`` is noted, not fatal."""
    wrapped = _NUMPY_REPR.match(text)
    if wrapped:
        note = f"{where}: numbers written as numpy reprs"
        if note not in outcome.notes:
            outcome.notes.append(note)
        text = wrapped.group(1)
    return float(text)


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def _compare(outcome: Outcome, got: float, expected: tuple, what: str) -> None:
    value, tol = expected
    outcome.require(abs(got - value) <= tol, f"{what} {got!r} not within {tol:g} of {value}")


def _scaling_windows(outcome: Outcome, summary: dict) -> None:
    """The paper's growth exponent (about 2) and reduction ratio, at the acceptance windows."""
    for key, window in (("exponent", "exponent_window"), ("ratio_at_max", "ratio_window")):
        lo, hi = PAPER["scaling"][window]
        outcome.require(lo <= summary[key] <= hi, f"{key} {summary[key]!r} outside [{lo}, {hi}]")


def _profile_feasible(outcome: Outcome, probs, silence, shaped, alpha: float) -> None:
    """Shaped rows keep their activity, stay nonnegative and inside their ball."""
    p0 = np.asarray(probs, dtype=float)
    p1 = np.asarray(shaped["profiles"], dtype=float)
    q = np.asarray(shaped["silence"], dtype=float)
    outcome.require(p1.shape == p0.shape, f"shaped profile shape {p1.shape} != {p0.shape}")
    if p1.shape != p0.shape:
        return
    act = 1.0 - np.asarray(silence, dtype=float)
    outcome.require(bool(np.all(p1 >= -1e-12)), "negative shaped probability")
    outcome.require(bool(np.allclose(q, 1.0 - act, atol=1e-12)), "silence changed")
    outcome.require(bool(np.allclose(p1.sum(axis=2), act, atol=1e-9)), "activity changed")
    pi = p0 / act[:, :, None]
    ent = -np.sum(np.where(pi > 0, pi * np.log(np.where(pi > 0, pi, 1.0)), 0.0), axis=2)
    radius = act * alpha * ent
    moved = np.linalg.norm(p1 - p0, axis=2)
    outcome.require(bool(np.all(moved <= radius + 1e-9)), "shaped row leaves its entropy ball")


def analytic_quadratic_cost(probs, sizes, x) -> float:
    """Exact slot-averaged E[Y_t^2] of an allocation (the benchmark's own formula)."""
    p = np.asarray(probs, dtype=float)
    v = np.asarray(sizes, dtype=float)[None, None, :] - x
    const = np.roll(x.sum(axis=(0, 2)), -1)        # prefetch for slot t+1 rides in slot t
    mean = (p * v).sum(axis=2)
    second = (p * v * v).sum(axis=2)
    ey = const + mean.sum(axis=0)
    var = (second - mean**2).sum(axis=0)
    return float(np.mean(var + ey * ey))


def read_allocation(path: Path, shape: tuple, sizes) -> tuple[np.ndarray, list]:
    x = np.zeros(shape)
    bad = []
    for row in _read_csv(path):
        n, t, m = int(row["user"]), int(row["slot"]), int(row["item"]) - 1
        val = float(row["x"])
        if not 0.0 <= val <= sizes[m] + 1e-12:
            bad.append((n, t, m + 1))
        x[n, t, m] = val
    return x, bad


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Workload:
    name: str
    tasks: list
    references: dict      # task id -> recorded reference values


def _references(name: str, tiny: bool) -> dict:
    """Recorded references of a workload; self-test sizes have none."""
    if tiny or not REFERENCES.exists():
        return {}
    return _read_json(REFERENCES).get(name, {})


def scale_analytic(workdir: Path, tiny: bool = False) -> Workload:
    """`scale` over the paper's Zipf family plus the paper's own scaling study."""
    ladder = "20,40,80" if tiny else "250,500,1000,1500"
    family = {
        "sizes": {"kind": "uniform", "count": 50, "low": 10.0, "high": 30.0},
        "generator": {"kind": "zipf", "users": 1, "power": 4.0,
                      "activity": [1.0 - q for q in SILENCE]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": "analytic_quadratic"},
        "seed": 7,
    }
    fam_path = write_json(workdir / "scale_family.json", family)

    def check_scale(out: Path, completed: bool, ref: dict) -> Outcome:
        o = Outcome()
        rows = _read_csv(out / "scale.csv")
        o.require([int(r["N"]) for r in rows] == [int(n) for n in ladder.split(",")],
                  "ladder rows missing")
        gaps = []
        for r in rows:
            c0, c1 = float(r["c_nonproactive"]), float(r["c_proactive"])
            o.require(c1 < c0, f"N={r['N']}: no reduction")
            o.values[r["N"]] = c1
            want = ref.get(r["N"])
            if want is not None:
                gaps.append((c1, want))
        if gaps:
            o.objective, o.reference = max(gaps, key=lambda cw: (cw[0] - cw[1]) / cw[1])
            o.require(o.gap <= EXACT_GAP_TOL, f"plan gap {o.gap:.3g} above {EXACT_GAP_TOL}")
        if completed:
            _scaling_windows(o, _read_json(out / "scale.json"))
        return o

    def check_paper(out: Path, completed: bool, ref: dict) -> Outcome:
        o = Outcome()
        rows = _read_csv(out / "paper_scaling" / "scaling.csv")
        report = _read_json(out / "paper_scaling" / "scaling_report.json")["metrics"]
        _scaling_windows(o, report)
        # the reduction ratio is the plan quality the paper publishes (0.1621 at N=200)
        o.objective, o.reference = -report["ratio_at_max"], -PAPER["scaling"]["ratio_at_max"]
        o.require(all(float(r["c_proactive"]) < float(r["c_nonproactive"]) for r in rows),
                  "a ladder point without reduction")
        return o

    tasks = [
        Task("scale:family7", lambda out: ["scale", "--family", str(fam_path), "--N", ladder,
                                           "--out", str(out / "scale.csv")],
             check_scale),
        Task("reproduce-paper:scaling",
             lambda out: ["reproduce-paper", "scaling", "--out", str(out / "paper_scaling")],
             check_paper),
    ]
    return Workload("scale_analytic", tasks, _references("scale_analytic", tiny))


def _zipf_scenario(index: int, users: int, power: float, engine: str, samples: int = 0,
                   items: int = 50) -> dict:
    return {
        "sizes": _sizes(index, items, 10.0, 30.0),
        "generator": {"kind": "zipf", "users": users, "power": power,
                      "activity": [1.0 - q for q in SILENCE]},
        "cost": {"kind": "quadratic"},
        "eval": {"engine": engine, "samples": samples},
        "alpha": 0.2,
        "seed": index,
    }


def optimize_mc(workdir: Path, tiny: bool = False) -> Workload:
    """Monte Carlo `optimize` on the Zipf family, judged by its exact analytic cost."""
    users, samples, pool = (3, 20, (0,)) if tiny else (10, 300, (0, 1, 2))
    tasks = []
    for index in pool:
        scn = _zipf_scenario(index, users, 4.0, "monte_carlo", samples)
        path = write_json(workdir / f"mc_{index}.json", scn)
        rows = _zipf_rows(len(scn["sizes"]), 4.0, scn["generator"]["activity"])
        probs = np.broadcast_to(rows, (users,) + rows.shape)

        def check(out: Path, completed: bool, ref: dict, scn=scn, probs=probs) -> Outcome:
            o = Outcome()
            x, bad = read_allocation(out / "opt_alloc.csv", probs.shape, scn["sizes"])
            o.require(not bad, f"allocation entries outside [0, size]: {bad[:3]}")
            o.objective = analytic_quadratic_cost(probs, scn["sizes"], x)
            o.reference = ref.get("objective")
            slots = _read_csv(out / "opt.csv")
            o.require(len(slots) == len(SILENCE), "per-slot rows missing")
            if completed:
                summary = _read_json(out / "opt.json")
                o.require(summary["c_proactive"] <= summary["c_nonproactive"],
                          "optimized cost above the nonproactive cost")
            if o.gap is not None:
                o.require(o.gap <= MC_GAP_TOL, f"plan gap {o.gap:.4g} above {MC_GAP_TOL}")
            return o

        tasks.append(Task(
            f"optimize:s{index}",
            lambda out, path=path: ["optimize", "--scenario", str(path), "--engine",
                                    "monte_carlo", "--samples", str(samples),
                                    "--out", str(out / "opt.csv")],
            check,
            # the reference is the exact optimum of the same instance
            lambda out, path=path: ["optimize", "--scenario", str(path), "--engine",
                                    "analytic_quadratic", "--out", str(out / "opt.csv")]))
    return Workload("optimize_mc", tasks, _references("optimize_mc", tiny))


def _shape_check(scn: dict, probs, silence):
    def check(out: Path, completed: bool, ref: dict) -> Outcome:
        o = Outcome()
        if not completed:
            return o
        shaped = _read_json(out / "shaped.json")
        trace = [_number(r["f0"], o, "trace.csv") for r in _read_csv(out / "trace.csv")]
        o.require(len(trace) >= 2 and _strictly_decreasing(trace), "shaping descent not strict")
        o.require(trace[-1] == shaped["f0_final"], "trace and summary disagree")
        _profile_feasible(o, probs, silence, shaped, scn["alpha"])
        o.objective, o.reference = shaped["f0_final"], ref.get("objective")
        if o.gap is not None:
            o.require(o.gap <= EXACT_GAP_TOL, f"plan gap {o.gap:.3g} above {EXACT_GAP_TOL}")
        return o

    return check


OUTAGE_ACTIVITY = (0.2, 0.95, 0.6)


def outage_enumerate(workdir: Path, tiny: bool = False) -> Workload:
    """The two-user paper studies, then enumerate-engine shaping under an outage cost."""
    users, items = (3, 2) if tiny else (6, 4)
    sizes = [float(v) for v in np.linspace(1.0, 2.0, items)]
    mu = 1.05 * users * max(sizes)       # tight enough that line-search trials overflow
    rows = _zipf_rows(items, 1.0, OUTAGE_ACTIVITY)
    probs = np.broadcast_to(rows, (users,) + rows.shape)
    scn = {
        "sizes": sizes,
        "profiles": probs.tolist(),
        "cost": {"kind": "outage", "mu": mu},
        "eval": {"engine": "enumerate"},
        "alpha": 0.2,
        "seed": 0,
    }
    path = write_json(workdir / "outage_cyclic.json", scn)
    silence = 1.0 - probs.sum(axis=2)

    def paper_check(kind: str):
        def check(out: Path, completed: bool, ref: dict) -> Outcome:
            o = Outcome()
            d = out / f"paper_{kind}"
            report = _read_json(d / f"two_user_{kind}_report.json")["metrics"]
            sweep = {float(r["p_peak"]): r for r in _read_csv(d / "sweep.csv")}
            trace = [_number(r["f0"], o, "trace.csv") for r in _read_csv(d / "trace.csv")]
            want = PAPER[kind]
            _compare(o, report["c_nonproactive"], want["c_nonproactive"], "c_nonproactive")
            _compare(o, float(sweep[0.9]["c_proactive"]), want["c_proactive"], "c_proactive")
            _compare(o, report["f0_final"], want["f0_final"], "f0_final")
            o.require(report["max_boundary_residual"] <= BOUNDARY_TOL,
                      f"boundary residual {report['max_boundary_residual']:.3g}")
            o.require(_strictly_decreasing(trace), "shaping descent not strict")
            o.objective, o.reference = report["f0_final"], want["f0_final"][0]
            return o

        return check

    tasks = [
        Task(f"reproduce-paper:two-user-{kind}",
             lambda out, kind=kind: ["reproduce-paper", f"two-user-{kind}",
                                     "--out", str(out / f"paper_{kind}")],
             paper_check(kind))
        for kind in ("quadratic", "outage")
    ]
    tasks.append(Task("shape-outage:cyclic",
                      lambda out: ["shape", "--scenario", str(path), "--trace",
                                   str(out / "trace.csv"), "--out", str(out / "shaped.json")],
                      _shape_check(scn, probs, silence)))
    return Workload("outage_enumerate", tasks, _references("outage_enumerate", tiny))


BUILDERS = {
    "scale_analytic": scale_analytic,
    "optimize_mc": optimize_mc,
    "outage_enumerate": outage_enumerate,
}
