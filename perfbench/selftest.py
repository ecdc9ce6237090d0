#!/usr/bin/env python3
"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs one untraced and one traced iteration of every workload (seed 1) and
fails unless
  * both pass their output checks and their outputs are byte-identical,
    so the wrappers change nothing the program computes;
  * every per-layer function has calls > 0 on at least one workload, so
    every wrapper sits where its callers look it up;
  * isometry-sweep examines exactly 77,024 candidates and finds 968
    certificates, the counts at the commit the benchmark was defined on.
"""

from __future__ import annotations

import shutil
import sys
from time import perf_counter

import run
from tracer import LAYERS

SWEEP_CANDIDATES = 77024
SWEEP_CERTIFICATES = 968


def _outputs(it: run.Iteration):
    return it.outputs.get("results", it.outputs)


def main() -> int:
    problems = []
    seen = {name: [] for name in LAYERS}
    run.RUNS.mkdir(exist_ok=True)
    rundir = run.RUNS / "selftest"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir()
    try:
        for name, cls in run.WORKLOADS.items():
            with run.Runner(rundir, perf_counter() + 600) as runner:
                wl = cls(1, runner)
                its = [wl.iterate(0, False), wl.iterate(1, True)]
            _, failures = wl.check_all(its)
            problems += [f"{name}: {f}" for f in failures]
            if _outputs(its[0]) != _outputs(its[1]):
                problems.append(f"{name}: traced output differs from untraced")
            totals = run.layer_totals(its[1])
            for layer in LAYERS:
                if totals[layer][0]:
                    seen[layer].append(name)
            if name == "isometry-sweep":
                calls = totals["isometry.check_perfection"][0]
                found = wl.certificates(its[1])
                if (calls, totals["candidates"], found) != (
                        SWEEP_CANDIDATES, SWEEP_CANDIDATES, SWEEP_CERTIFICATES):
                    problems.append(f"isometry-sweep: {calls} check_perfection "
                                    f"calls, {totals['candidates']} candidates, "
                                    f"{found} certificates")
            print(f"{name}: untraced {its[0].wall:.2f} s, traced "
                  f"{its[1].wall:.2f} s, {len(failures)} failed checks")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for layer, where in seen.items():
        print(f"  {layer:<40} {', '.join(where) or 'NEVER CALLED'}")
        if not where:
            problems.append(f"{layer}: no calls on any workload")
    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
