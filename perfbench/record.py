"""Record the reference objectives in ``references.json`` from the current checkout.

Run from the root of a checkout, on the commit whose answers are the
reference (the parent of any change being measured)::

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py

Each task runs once at full size (its ``reference_argv`` when it has one,
e.g. the analytic optimum behind a Monte Carlo plan).  Tasks held against a
published paper value need no recorded objective.  Every task also gets
``frozen_cpu_s``: the median CPU seconds of FROZEN_RUNS runs on the
frozen copy ``procache_frozen``, which weights that task in ``run_s``.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

sys.dont_write_bytecode = True   # leave no caches in the checkout
HERE = Path(__file__).resolve().parent
FROZEN_RUNS = 5


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))
    from procache.cli import main as procache_main

    import workloads
    from procache_frozen.cli import main as frozen_main
    from worker import run_task, run_twin

    work = root / ".perfbench" / "record"
    refs = {}
    try:
        for name, build in workloads.BUILDERS.items():
            inputs = work / name / "inputs"
            inputs.mkdir(parents=True, exist_ok=True)
            refs[name] = {}
            for task in build(inputs).tasks:
                out = work / name / task.id.replace(":", "_")
                runner = task
                if task.reference_argv is not None:
                    runner = workloads.Task(task.id, task.reference_argv, task.check)
                took, _, error = run_task(procache_main, runner, out)
                outcome = task.check(out, error is None, {})
                print(f"{name} {task.id}: {took:.2f}s error={error} objective={outcome.objective}"
                      f" misses={outcome.misses}")
                if outcome.reference is None:
                    refs[name][task.id] = outcome.values or {"objective": outcome.objective}
            for task in build(inputs).tasks:
                runs = [run_twin(frozen_main, task, work / name) for _ in range(FROZEN_RUNS)]
                refs[name].setdefault(task.id, {})["frozen_cpu_s"] = statistics.median(runs)
                print(f"{name} {task.id}: frozen copy {statistics.median(runs):.3f} CPU s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
