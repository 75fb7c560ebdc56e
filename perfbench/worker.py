"""One workload in one process: set up, run the closed loop, check every output.

Started by ``run.py``; prints ``ready <set-up seconds> <raw CPU seconds>`` on
stdout when set-up is done and then, unless it is a set-up probe, one JSON
result line when the run has ended.  The single client runs the workload's tasks back to
back through ``procache.cli.main`` in this process; a pass is one run of
every task in the pool, in an order drawn from the seed.

Untraced, every task also runs on ``procache_frozen``, a copy of the
procache package as it was when the benchmark was written, in this process,
right before or right after the measured run (alternating).  Other tenants
of the shared host slow the processor by up to 2x, in phases that switch
every few seconds to minutes, and CPU time rises with it.  The frozen twin
runs the same code paths on the same CPU in the same phase, so it slows by
the same factor; a synthetic kernel does not (measured: ``scale`` slowed
0.3x as much as one, enumeration 1.4x as much).  ``run_s`` is built from
the ratio of each task's CPU time to its twin's.  The twin would also
raise the process's peak memory, so ``peak_rss_mb`` comes from a probe
process (``--probe rss``) that runs one pass without twins.

With ``--trace 1`` there are no twins; each pass index is run twice,
untraced and traced, so the trace overhead is measured on identical work
and the two sets of output files are compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import workloads
from tracer import Tracer

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2   # passes per run at full size, however long they take (one at --tiny)

# Set-up time is scaled by a fixed kernel timed right after it:
# CPU seconds * CAL_REF_S / kernel seconds.  Set-up is mostly imports and
# interpreter work, which the kernel's mix of numpy on a 640 KB array and
# interpreter loops tracks.  CAL_REF_S is the kernel's usual CPU time on a
# 2-vCPU Xeon VM, so set-up figures read as seconds there.
CAL_REF_S = 0.0135
CAL_REPS = 3
_CAL_ARRAY = np.random.default_rng(0).random((200, 8, 50))


def _kernel() -> float:
    s = 0.0
    for i in range(16):
        s += float((np.exp(-_CAL_ARRAY * (i % 7 + 1)) * _CAL_ARRAY).sum())
    for i in range(60000):
        s += i * 0.5
    return s


def calibrate() -> float:
    """Median CPU seconds of the calibration kernel over CAL_REPS runs: the processor's speed now."""
    times = []
    for _ in range(CAL_REPS):
        cpu0 = time.process_time()
        _kernel()
        times.append(time.process_time() - cpu0)
    return statistics.median(times)


def environment(seed: int) -> dict:
    """Python, numpy, OpenBLAS version and threads, CPUs and caches, as the workers see them."""
    blas = {"version": None, "threads": None, "config": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    blas["threads"] = get_threads()
                    blas["config"] = get_config().decode()
                    blas["version"] = blas["config"].split()[1]
                    break
            if blas["threads"] is not None:
                break
    caches = {}
    for level, index in (("L2", 2), ("L3", 3)):
        try:
            caches[level] = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size"
                                 ).read_text().strip()
        except OSError:
            caches[level] = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "machine": platform.machine(),
        "seed": seed,
    }


def run_task(main, task, out: Path) -> tuple[float, float, str | None]:
    """Run one procache subcommand in-process; (wall seconds, CPU seconds, error or None)."""
    out.mkdir(parents=True, exist_ok=True)
    err_buf = io.StringIO()
    error = None
    start, cpu0 = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err_buf):
            main(task.argv(out), prog_name="procache", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            error = f"exit {exc.code}: {err_buf.getvalue().strip()[-300:]}"
    except Exception as exc:  # a crash inside the program is a failed task, not ours
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, time.process_time() - cpu0, error


def check_task(task, out: Path, error, refs: dict) -> dict:
    """The per-task record: status, objective, reference, gap and check misses."""
    try:
        outcome = task.check(out, error is None, refs.get(task.id, {}))
    except (OSError, KeyError, ValueError, IndexError) as exc:
        outcome = workloads.Outcome()
        if error is None:  # a finished task must leave readable outputs
            outcome.misses.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return {
        "task": task.id,
        "error": error,
        "objective": outcome.objective,
        "reference": outcome.reference,
        "plan_gap": outcome.gap,
        "misses": outcome.misses,
        "notes": outcome.notes,
        "failed": error is not None or bool(outcome.misses),
    }


def pass_order(tasks: list, seed: int, index: int) -> list:
    order = list(tasks)
    random.Random(f"{seed}:{index}").shuffle(order)
    return order


def run_twin(frozen_main, task, out: Path) -> float:
    """CPU seconds of ``task`` on the frozen copy; its outputs are not kept."""
    twin = out / "_frozen_twin"
    _, cpu, _ = run_task(frozen_main, task, twin)
    shutil.rmtree(twin, ignore_errors=True)
    return cpu


def run_pass(main, tasks, out: Path, tracer=None, tag: str = "", frozen_main=None,
             index: int = 0) -> tuple[float, float, list]:
    """(wall seconds of the pass, CPU seconds of its tasks, [(task, wall, cpu, error, twin)]).

    ``twin`` is the CPU seconds of the same task on the frozen copy, run
    right before or right after it (alternating by pass and position), or
    None without a frozen copy.  With a tracer, each task is one root span
    whose id is ``tag/task id``.
    """
    done = []
    start = time.perf_counter()
    for position, task in enumerate(tasks):
        twin_first = (index + position) % 2 == 1
        twin = run_twin(frozen_main, task, out) if frozen_main and twin_first else None
        if tracer is None:
            took = run_task(main, task, out / task.id.replace(":", "_"))
        else:
            with tracer.span("cli.task", task=f"{tag}/{task.id}"):
                took = run_task(main, task, out / task.id.replace(":", "_"))
        if frozen_main and not twin_first:
            twin = run_twin(frozen_main, task, out)
        done.append((task, *took, twin))
    return time.perf_counter() - start, sum(d[2] for d in done), done


def pass_estimate(ratios: dict, refs: dict) -> float:
    """Seconds of one pass, in the frozen copy's recorded seconds.

    The sum over the pool of each task's median ratio to its frozen twin,
    weighted by the twin's CPU seconds for that task as recorded in
    ``references.json`` (weight 1 where none is recorded, as at self-test sizes).
    """
    return sum(statistics.median(r) * refs.get(task, {}).get("frozen_cpu_s", 1.0)
               for task, r in ratios.items())


def same_files(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between two output trees (or exist in one only)."""
    diffs = []
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    for rel in sorted(names):
        fa, fb = a / rel, b / rel
        if not (fa.is_file() and fb.is_file() and filecmp.cmp(fa, fb, shallow=False)):
            diffs.append(str(rel))
    return diffs


def warm_up(main, workdir: Path) -> None:
    """One tiny optimize, so click and numpy's lazy set-up are paid before timing."""
    scn = workloads.write_json(workdir / "warm.json", {
        "sizes": [1.0, 2.0], "profiles": [[[0.2, 0.3], [0.4, 0.1]]],
        "cost": {"kind": "quadratic"}, "eval": {"engine": "enumerate"},
    })
    with contextlib.redirect_stdout(io.StringIO()):
        main(["optimize", "--scenario", str(scn), "--out", str(workdir / "warm.csv")],
             prog_name="procache", standalone_mode=False)


def set_up(args, src: Path):
    """Import procache from ``src``, write the workload's inputs, warm up; (cli main, workload).

    The process stays on one CPU, so a task and its frozen twin see the same
    processor.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(src))
    from procache.cli import main as procache_main

    inputs = Path(args.workdir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[args.workload](inputs, tiny=args.tiny)
    warm_up(procache_main, inputs)
    return procache_main, wl


def main_loop(args) -> dict:
    procache_main, wl = set_up(args, Path(args.root) / "src")
    ready = time.process_time()
    print(f"ready {ready * CAL_REF_S / calibrate()!r} {ready!r}", flush=True)
    workdir = Path(args.workdir)
    if args.probe == "setup":
        return {}
    if args.probe == "rss":
        run_pass(procache_main, wl.tasks, workdir / "rss")
        return {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tracer = Tracer() if args.trace else None
    refs = wl.references
    records, walls, traced_walls, cpus, traced_cpus, diffs = [], [], [], [], [], []
    ratios = defaultdict(list)
    min_passes = 1 if args.tiny else MIN_PASSES
    deadline = time.perf_counter() + args.seconds
    frozen_main = None
    if tracer is None:
        from procache_frozen.cli import main as frozen_main

        warm_up(frozen_main, workdir / "inputs")
    index = 0
    # start another pass while at least half of it fits before the deadline
    while index < min_passes or time.perf_counter() + 0.5 * (statistics.median(walls) + (
            statistics.median(traced_walls) if traced_walls else 0.0)) <= deadline:
        order = pass_order(wl.tasks, args.seed, index)
        plain = workdir / f"pass{index}"
        wall, cpu, done = run_pass(procache_main, order, plain, frozen_main=frozen_main,
                                   index=index)
        walls.append(wall)
        cpus.append(cpu)
        if tracer is not None:
            traced = workdir / f"pass{index}_traced"
            tracer.install()
            try:
                wall_t, cpu_t, _ = run_pass(procache_main, order, traced, tracer, f"pass{index}")
            finally:
                tracer.uninstall()
            tracer.end_pass()
            traced_walls.append(wall_t)
            traced_cpus.append(cpu_t)
            diffs += [f"pass{index}/{d}" for d in same_files(plain, traced)]
            shutil.rmtree(traced)
        for task, took, cpu, error, twin in done:
            if twin is not None:
                ratios[task.id].append(cpu / twin)
            rec = check_task(task, plain / task.id.replace(":", "_"), error, refs)
            rec.update({"pass": index, "seconds": took, "cpu_seconds": cpu,
                        "twin_cpu_seconds": twin})
            records.append(rec)
        shutil.rmtree(plain)
        index += 1

    gaps = [r["plan_gap"] for r in records if r["plan_gap"] is not None]
    failed = sum(r["failed"] for r in records)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "pass_seconds": walls,
        "run_s": pass_estimate(ratios, refs) if ratios else None,
        "cpu_s": min(cpus),
        # with twins in this process, run.py takes it from the rss probe instead
        "peak_rss_mb": None if frozen_main else
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(records),
        "failed": failed,
        "fail_rate": failed / len(records),
        "correct": not any(r["misses"] for r in records) and not diffs,
        "plan_gap": max(gaps) if gaps else None,
        "errors": sorted({f"{r['task']}: {r['error'] or r['misses']}"
                          for r in records if r["failed"]}),
        "records": records,
        "environment": environment(args.seed),
    }
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced_walls))
        layers["process.cpu_s"] = result["cpu_s"]
        # CPU seconds, as run_s; paired by pass index, so the machine's slow drift cancels
        layers["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced_cpus, cpus))
        result.update({
            "traced_pass_seconds": traced_walls,
            "per_layer": layers,
            "trace_output_diffs": diffs,
            "trace": tracer.dump(),
        })
    return result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True, help="checkout holding src/procache")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--tiny", action="store_true", help="self-test sizes")
    ap.add_argument("--probe", choices=("setup", "rss"),
                    help="stop when set up, or after one pass without twins reporting peak RSS")
    ap.add_argument("--result", help="write the full result JSON here")
    return ap.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    result = main_loop(args)
    if result:
        if args.result:
            with open(args.result, "w") as fh:
                json.dump(result, fh)
                fh.write("\n")
        summary = {k: v for k, v in result.items() if k not in ("records", "trace")}
        print(json.dumps(summary), flush=True)
