"""One pass of a workload in a fresh process: set up, run the job list once,
print the result as JSON.

Started by run.py with the thread pools pinned and ``src`` on PYTHONPATH.
First times the calibration kernel, before any code of the repo is
imported.  Prints ``READY`` once set-up is done (run.py times set-up up to
that line, less the kernel), then runs the workload's fixed job list and
prints one JSON object as its last line.  With ``--trace 1`` it records one
span per job and one per call into the library, kept in memory and returned
with the result.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np


def calibrate() -> float:
    """Seconds of fixed work on numpy and the interpreter alone: a lexsort, a
    set of tuples and modular powers, the kinds of work the jobs do."""
    t0 = time.perf_counter()
    rows = np.random.default_rng(0).integers(0, 1 << 40, size=(100_000, 4))
    np.lexsort(rows.T[::-1])
    set(map(tuple, rows[:30_000].tolist()))
    sum(pow(x, 65537, 1_000_000_007) for x in range(1, 60_000))
    return time.perf_counter() - t0


# Timed before the repo's code is imported, so that no change to it can move
# the calibration.
KERNEL_TIME = calibrate()

import jobs  # noqa: E402
from jobs import CheckFailed  # noqa: E402


class Context:
    """What a job sees: its inputs, the call wrapper, counters, and the
    digest checker."""

    def __init__(self, inputs: Dict, references: Dict[str, str], traced: bool):
        self.inputs = inputs
        self.references = references
        self.traced = traced
        self.digests: Dict[str, str] = {}
        self.keep: Dict = {}
        self.spans: List[tuple] = []
        self.job: Optional[int] = None
        self.counts: Dict[str, float] = defaultdict(int)

    def call(self, name: str, fn, *args, **kwargs):
        self.counts[name + ".calls"] += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            if self.traced:
                self.spans.append((len(self.spans) + 1, self.job, self.job, name,
                                   start, time.perf_counter()))

    def add(self, name: str, value: int) -> None:
        self.counts[name] += value

    def maximum(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts[name], value)

    def digest(self, key: str, value: str) -> None:
        self.digests[key] = value
        ref = self.references.get(key)
        if ref is not None and ref != value:
            raise CheckFailed(f"{key}: digest {value[:12]} != reference {ref[:12]}")


def run_pass(ctx: Context, job_list) -> Dict:
    before = jobs.modular.coset_table.cache_info()
    times: Dict[str, float] = {}
    failures: List[str] = []
    for name, job in job_list:
        ctx.job = len(ctx.spans) + 1
        if ctx.traced:
            ctx.spans.append(None)  # the job span, filled in when it ends
        t0 = time.perf_counter()
        check = None
        try:
            check = job(ctx)
        except Exception:
            failures.append(f"{name}: {traceback.format_exc(limit=3)}")
        t1 = time.perf_counter()
        times[name] = t1 - t0
        if ctx.traced:
            ctx.spans[ctx.job - 1] = (ctx.job, None, ctx.job, "job." + name, t0, t1)
        if check is not None:
            try:
                check()
            except Exception:
                failures.append(f"{name}: {traceback.format_exc(limit=3)}")
    counts = dict(ctx.counts)
    after = jobs.modular.coset_table.cache_info()
    hits, misses = after.hits - before.hits, after.misses - before.misses
    if hits + misses:  # otherwise the metric is missing and run.py reports it
        counts["modular.coset_table.hit_rate"] = hits / (hits + misses)
    return {"jobs": times, "counts": counts, "failures": failures}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", required=True)
    args = ap.parse_args()

    inputs, job_list = jobs.make_inputs(args.workload, args.seed)
    jobs.warm_up()
    print("READY", flush=True)

    with open(args.references, encoding="utf-8") as fh:
        references = json.load(fh)["digests"]
    ctx = Context(inputs, references, bool(args.trace))
    result = run_pass(ctx, job_list)
    result.update({
        "traced": bool(args.trace),
        "kernel_s": KERNEL_TIME,
        "spans": ctx.spans,
        "digests": ctx.digests,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "sympy": importlib.metadata.version("sympy"),
            "nproc": os.cpu_count(),
            "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
        },
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    os._exit(status)  # skip interpreter teardown: freeing the heap is no part of the work
