"""procache benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run from the root of a checkout (the directory holding ``src/procache``)::

    python3 perfbench/run.py --workload optimize_mc --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28      # every workload

Each workload runs in its own worker process (``worker.py``) as a closed
loop: one client runs the workload's ``procache`` tasks back to back, with no
concurrency.  Every worker gets the same explicit BLAS setting (one OpenBLAS
thread), because the thread count changes both the timings and the last
bits of some results.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of ``tracer.py`` instead.  The lines before it give the environment, a table
of every metric with its unit (including ``plan_gap`` and ``fail_rate``,
which can be 0 and so are not gated), and where the full per-task record
(each task's objective, reference, gap and errors) was written, under
``.perfbench/`` in the checkout.  A run never writes outside the checkout.

Both timings are CPU seconds, which leave out time spent waiting for a
processor, scaled against a yardstick timed right next to them, which takes
out most of the shared host's slow phases.  ``run_s`` is the time of one
pass over the workload's tasks: each task's median ratio of CPU time to the
same task on ``procache_frozen`` (a copy of the program as it was when the
benchmark was written, run in the same process right before or after it),
weighted by the frozen copy's recorded seconds (see
``worker.pass_estimate``).  ``setup_s`` is the median over six fresh
processes of the time from process start to ready (interpreter start,
imports, scenario generation, one warm-up task), scaled by a fixed kernel
(see ``worker.CAL_REF_S``).  ``peak_rss_mb`` is the peak resident memory
of the first probe, which also runs one pass without the twins.  The
per-task wall and raw CPU times stay in the record.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True   # leave no caches in the checkout
HERE = Path(__file__).resolve().parent
WORKLOADS = ("scale_analytic", "optimize_mc", "outage_enumerate")
SETUP_PROBES = 5          # plus the measured worker itself: six set-up samples; the
                          # first probe also runs one pass without twins for peak_rss_mb
RUN_TIMEOUT = 170.0       # seconds for all of one workload's processes; a run must end within 180
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
REPORTED = END_TO_END + (("plan_gap", "ratio"), ("fail_rate", "ratio"))


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every process compiles, so set-up is comparable
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv: list, env: dict):
    """Start a worker; return (process, calibrated seconds it spent from start to ready)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    word, *values = proc.stdout.readline().split() or [""]
    if word != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {word!r})")
    return proc, float(values[0])


def finish(proc, deadline: float) -> str:
    """Wait for a worker until the deadline; kill it (and still reap it) past that."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return out


def run_workload(name: str, seed: int, seconds: float, trace: int, root: Path,
                 tiny: bool = False) -> dict:
    work = root / ".perfbench" / "work" / f"{name}-{os.getpid()}"
    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_path = results / f"{name}-seed{seed}-trace{trace}.json"
    base = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
            "--root", str(root)]
    if tiny:
        base.append("--tiny")
    env = worker_env()
    deadline = time.monotonic() + RUN_TIMEOUT
    setups, peak_rss = [], None
    try:
        for i in range(0 if trace else SETUP_PROBES):
            probe = "rss" if i == 0 else "setup"
            proc, ready = spawn(base + ["--workdir", str(work / f"probe{i}"), "--probe", probe], env)
            out = finish(proc, deadline)
            if proc.returncode != 0:
                raise RuntimeError(f"{probe} probe for {name} exited with {proc.returncode}")
            setups.append(ready)
            if probe == "rss":
                peak_rss = json.loads(out.strip().splitlines()[-1])["peak_rss_mb"]
        proc, ready = spawn(base + ["--workdir", str(work / "run"), "--seconds", str(seconds),
                                    "--trace", str(trace), "--result", str(result_path)], env)
        setups.append(ready)
        out = finish(proc, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if peak_rss is not None:
        result["peak_rss_mb"] = peak_rss
    result["setup_s"] = statistics.median(setups)
    result["setup_samples"] = setups
    result["record_file"] = str(result_path.relative_to(root))
    return result


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def report(results: list, trace: int) -> None:
    """Human-readable lines: one per workload and metric, with units."""
    for r in results:
        print(f"workload {r['workload']}: {r['passes']} passes, {r['attempted']} tasks, "
              f"{r['failed']} failed, correct={r['correct']}, record {r['record_file']}")
        rows = _per_layer_units() if trace else REPORTED
        for key, unit in rows:
            value = r["per_layer"][key] if trace else r[key]
            print(f"  {r['workload']:<18} {key:<30} {value!s:>24} {unit}")
        for error in r["errors"]:
            print(f"  {r['workload']:<18} failed task {error}")


def _per_layer_units():
    sys.path.insert(0, str(HERE))
    from tracer import PER_LAYER

    return PER_LAYER


def result_line(results: list, trace: int) -> dict:
    """The last output line; with several workloads the metric names carry the workload."""
    rows = _per_layer_units() if trace else END_TO_END if len(results) == 1 else REPORTED
    metrics = {}
    for r in results:
        values = r["per_layer"] if trace else r
        for key, unit in rows:
            name = key if len(results) == 1 else f"{r['workload']}.{key}"
            metrics[name] = _metric(values[key], unit)
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="procache benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes, not for measuring")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "procache" / "__init__.py").is_file():
        print("run from the root of a procache checkout (no src/procache here)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace, root, args.tiny)
               for name in names]
    print("environment " + json.dumps(results[0]["environment"], sort_keys=True))
    report(results, args.trace)
    print(json.dumps(result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
