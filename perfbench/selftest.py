"""Self-test of the benchmark harness at tiny sizes (about half a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

Checks that every metric in ``BENCHMARK.json`` is printed with its unit
(and ``plan_gap`` / ``fail_rate`` in the all-workload table), that a
perturbed reference or paper value makes ``fail_rate`` > 0, that the traced
run leaves every wrapped attribute restored and writes byte-identical
outputs, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True   # leave no caches in the checkout
HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
FAILURES = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(*extra, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--seed", "3", "--seconds",
                           "0.5", "--tiny", *extra], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metric_lines(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = run_bench("--workload", "outage_enumerate", "--trace", str(trace))
        expect(out.returncode == 0, f"tiny run --trace {trace} exits 0")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        expect(sorted(line) == ["attempted", "correct", "failed", "metrics"],
               f"--trace {trace}: result line has exactly the contract keys")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        expect(got == want, f"--trace {trace}: every {key} metric with its unit")
        expect(all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()),
               f"--trace {trace}: every value is a number")
    out = run_bench("--workload", "all")
    table = out.stdout
    for wl in spec["workloads"]:
        for name, unit in (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
                           ("plan_gap", "ratio"), ("fail_rate", "ratio")):
            expect(any(line.split()[:2] == [wl["name"], name] and line.split()[-1] == unit
                       for line in table.splitlines() if line.startswith("  ")),
                   f"all-workload table prints {wl['name']} {name} [{unit}]")


def worker_args(workload: str, trace: int, workdir: Path):
    import worker

    return worker.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                              "--trace", str(trace), "--tiny",
                              "--root", str(ROOT), "--workdir", str(workdir)])


def in_process(workload: str, trace: int, workdir: Path) -> dict:
    import worker

    with contextlib.redirect_stdout(io.StringIO()):
        return worker.main_loop(worker_args(workload, trace, workdir))


def check_gate(workdir: Path) -> None:
    import workloads

    honest = {}
    for wl in ("optimize_mc", "outage_enumerate"):
        result = in_process(wl, 0, workdir / f"{wl}-honest")
        expect(result["fail_rate"] == 0.0 and result["correct"], f"{wl}: tiny run passes")
        expect(result["run_s"] > 0 and all(r["twin_cpu_seconds"] > 0
                                           for r in result["records"]),
               f"{wl}: every task paired with a run on the frozen copy")
        honest[wl] = {r["task"]: r["objective"] for r in result["records"]}

    original_refs, original_paper = workloads._references, workloads.PAPER
    try:
        workloads._references = lambda name, tiny: {
            task: {"objective": obj * (1.0 - 2 * workloads.MC_GAP_TOL)}
            for task, obj in honest.get(name, {}).items() if obj is not None}
        for wl in ("optimize_mc", "outage_enumerate"):
            result = in_process(wl, 0, workdir / f"{wl}-perturbed")
            expect(result["fail_rate"] > 0 and not result["correct"],
                   f"{wl}: a reference below the objective by twice the tolerance fails the task")
        workloads._references = original_refs
        workloads.PAPER = json.loads(json.dumps(original_paper))
        workloads.PAPER["quadratic"]["c_nonproactive"] = [19.57, 1e-10]
        result = in_process("outage_enumerate", 0, workdir / "paper-perturbed")
        expect(result["fail_rate"] > 0 and not result["correct"],
               "outage_enumerate: a perturbed paper value fails the task")
    finally:
        workloads._references, workloads.PAPER = original_refs, original_paper


def bindings() -> dict:
    import procache.costs

    snap = {}
    for name, module in list(sys.modules.items()):
        if name == "procache" or name.startswith("procache."):
            for attr, value in vars(module).items():
                if callable(value):
                    snap[(name, attr)] = value
    for attr in ("cost", "marginal", "in_domain"):
        snap[("CostModel", attr)] = vars(procache.costs.CostModel)[attr]
    return snap


def check_restore(workdir: Path) -> None:
    import tracer as tracer_mod

    import procache.cli  # noqa: F401  (loads every module the tracer patches)

    before = bindings()
    probe = tracer_mod.Tracer()
    probe.install()
    try:
        patched = {(getattr(owner, "__name__", owner), attr)
                   for owner, attr, _ in probe.patched_attributes()}
    finally:
        probe.uninstall()
    for where in (("procache.evaluate", "expected_cycle_cost"),
                  ("procache.proactive", "expected_cycle_cost"),
                  ("procache.shaping", "linear_min_over_ball_slice"),
                  ("procache", "solve_proactive"),
                  ("CostModel", "cost")):
        expect(where in patched, f"tracer wraps {'.'.join(where)}")
    for wl in ("optimize_mc", "outage_enumerate", "scale_analytic"):
        result = in_process(wl, 1, workdir / f"{wl}-traced")
        expect(bindings() == before, f"{wl}: every wrapped attribute restored after tracing")
        expect(result["trace_output_diffs"] == [],
               f"{wl}: traced outputs byte-identical to untraced")
        expect(len(result["trace"]["spans"]) > 0, f"{wl}: traced run recorded spans")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench("--workload", "optimize_mc", cwd=bare)
        expect(out.returncode != 0 and not out.stdout.strip(),
               "without src/procache: nonzero exit and no result")


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        check_metric_lines(spec)
        check_gate(workdir)
        check_restore(workdir)
        check_refuses_without_program()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
