"""triplesieve benchmark: one workload run, printed as a report and one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from
``src``.  A run is a closed loop of passes: each pass is a fresh worker
process (thread pools pinned to 1) that sets up, runs the workload's fixed
job list once, and exits, and the next pass starts when it has ended.  The
number of passes is fixed by ``--seconds`` alone (one per ``PASS_S`` seconds,
at least three), not by how fast the code is, so every estimator below takes
its median over the same number of samples on any commit; ``DEADLINE_S`` is
only a ceiling.  ``wall_s`` and ``cli_s`` sum each job's median duration over
the untraced passes; ``setup_s`` and ``peak_rss_mb`` are medians over them.
Every time is scaled by the host-speed calibration described at
``KERNEL_S``.  With ``--trace 1`` passes alternate untraced and traced;
per-layer metrics are medians over the traced passes, their spans are written
to ``perfbench/out/``, and the report shows the tracing overhead.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``
with the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) metrics named in
BENCHMARK.json.  A job fails when it raises, a CLI run exits non-zero, an
invariant breaks, or an output digest differs from references.json.  A count
or digest that differs between passes, or a metric that no job produced,
makes the run incorrect.

``--record`` adds the output digests of this seed's inputs to the references
file (refusing to overwrite a differing one).  ``--references`` points the
checker at another file, as selftest.py does.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
PASS_S = 2.0  # nominal seconds per pass at the commit that added the benchmark
# The host's speed drifts by up to 2x between minutes, moving every time
# alike.  Each worker first times a fixed kernel of numpy and interpreter work
# (worker.calibrate), before it imports the repo's code, so no change to the
# repo can move it.  Times are reported scaled to a host on which the
# kernel's median over the run's passes takes KERNEL_S.
KERNEL_S = 0.2
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("modular_census", "thin_census", "exact_sieve")
RATES = {  # per-layer ratio -> (numerator, denominator)
    "groups.elements_per_s": ("groups.ball_elements", "groups.enumerate_ball.s"),
    "census.points_per_s": ("census.rows", "census.census.s"),
    "census.pairs_per_s": ("census.sequence_pairs", "census.build_sequence.s"),
    "census.support_per_pair": ("census.sequence_support", "census.sequence_pairs"),
}


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_pass(args, traced: bool, deadline: float) -> Dict:
    """One worker process; returns its result with the measured set-up time,
    which excludes the worker's calibration kernel."""
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--references", str(args.references)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=str(ROOT)) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker ran past the deadline")
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit code {proc.returncode}, first line {ready!r})")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = setup_s - result["kernel_s"]
    return result


def distribution(values: List[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            text += f", p{p:g} {cut:.6g}"
            break
    return f"{text} (n={n})"


def pass_count(seconds: float) -> int:
    """Passes in a run: fixed by --seconds, independent of the code's speed,
    so every commit's estimates come from the same number of samples."""
    return max(3, round(seconds / PASS_S))


def typical(passes: List[Dict], prefix: str = "") -> float:
    """Sum over the job list of each job's median duration across passes.

    On the shared host a job runs at full speed only in rare calm moments, so
    the fastest pass of a job depends on whether a run happened to catch one;
    over the same passes the median spread a quarter as much as the minimum
    (see DESIGN.md)."""
    names = [j for j in passes[0]["jobs"] if j.startswith(prefix)]
    return sum(statistics.median(p["jobs"][j] for p in passes) for j in names)


def per_layer(passes: List[Dict], scale: float) -> Dict[str, float]:
    """Counts from the first pass, layer busy time as the median over traced
    passes of the summed span durations (times scale), and the derived ratios."""
    values: Dict[str, float] = dict(passes[0]["counts"])
    traced = [p for p in passes if p["traced"]]
    busy = [defaultdict(float) for _ in traced]
    for sums, p in zip(busy, traced):
        for _, parent, _, name, start, end in p["spans"]:
            if parent is not None:
                sums[name] += end - start
    for name in {n for sums in busy for n in sums}:
        values[name + ".s"] = scale * statistics.median(sums[name] for sums in busy)
    for name, (num, den) in RATES.items():
        if num in values and den in values:
            values[name] = values[num] / values[den]
    return values


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--references", type=Path, default=HERE / "references.json")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "triplesieve" / "__init__.py").is_file():
        print(f"no triplesieve source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    planned = pass_count(args.seconds)
    planned += planned % 2 if args.trace else 0  # as many traced passes as untraced
    passes: List[Dict] = []
    while len(passes) < planned:
        elapsed = time.perf_counter() - start
        if passes and elapsed * (len(passes) + 1) / len(passes) > DEADLINE_S:
            break  # ceiling: the next pass would not end before the deadline
        passes.append(run_pass(args, bool(args.trace) and len(passes) % 2 == 1, deadline))

    untraced = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["jobs"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    failed = sum(len({f.split(":")[0] for f in p["failures"]}) for p in passes)
    unsteady = sorted({f"count {k}" for p in passes[1:] for k, v in p["counts"].items()
                       if passes[0]["counts"].get(k) != v}
                      | {f"digest of {k}" for p in passes[1:] for k, v in p["digests"].items()
                         if passes[0]["digests"].get(k) != v})
    walls = [sum(p["jobs"].values()) for p in untraced]
    kernel_s = statistics.median(p["kernel_s"] for p in passes)
    scale = KERNEL_S / kernel_s
    e2e = {
        "setup_s": scale * statistics.median(p["setup_s"] for p in untraced),
        "wall_s": scale * typical(untraced),
        "cli_s": scale * typical(untraced, "cli_"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "success_rate": 1.0 - failed / attempted,
    }
    layers = per_layer(passes, scale) if args.trace else {}
    values = layers if args.trace else e2e
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in values]

    if args.record and not failures and not unsteady:
        refs = json.loads(args.references.read_text(encoding="utf-8"))
        new = passes[0]["digests"]
        clash = sorted(k for k, v in new.items() if refs["digests"].get(k, v) != v)
        if clash:
            print(f"recorded digests differ from stored ones: {clash}", file=sys.stderr)
            return 1
        refs["digests"] = dict(sorted({**refs["digests"], **new}.items()))
        args.references.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")

    v = passes[0]["versions"]
    print(f"# triplesieve benchmark  workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} of {planned} ({len(passes) - len(untraced)} traced), one process each, closed loop")
    print(f"# python {v['python']}  numpy {v['numpy']}  sympy {v['sympy']}  nproc {v['nproc']}  "
          + " ".join(f"{k}={val}" for k, val in v["threads"].items()))
    print(f"# calibration kernel (worker.calibrate): {distribution([p['kernel_s'] for p in passes])} s; "
          f"times scaled by {KERNEL_S:g} / {kernel_s:.6g} = {scale:.6g}, per-pass distributions unscaled")
    print("end-to-end (untraced passes):")
    print(f"  setup_s      {e2e['setup_s']:.6g} s (median); passes {distribution([p['setup_s'] for p in untraced])} s")
    print(f"  wall_s       {e2e['wall_s']:.6g} s (sum of per-job medians); pass totals {distribution(walls)} s")
    clis = [sum(t for j, t in p["jobs"].items() if j.startswith("cli_")) for p in untraced]
    print(f"  cli_s        {e2e['cli_s']:.6g} s (sum of per-job medians); pass totals {distribution(clis)} s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.6g} MB (median)")
    print(f"  error_rate   {failed / attempted:.6g} ratio ({failed} of {attempted} jobs failed)")
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        overhead = scale * (typical(traced) - typical(untraced))
        spans_path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "versions": v,
            "fields": ["id", "parent", "trace", "name", "start", "end"],
            "passes": [p["spans"] for p in traced]}), encoding="utf-8")
        print(f"tracing overhead: {overhead:+.6f} s per pass (traced minus untraced wall_s); "
              f"spans in {spans_path.relative_to(ROOT)}")
        per_call, glue = defaultdict(list), []
        for p in traced:
            children = defaultdict(float)
            for _, parent, _, name, start, end in p["spans"]:
                if parent is not None:
                    per_call[name].append(end - start)
                    children[parent] += end - start
            glue.append(sum(end - start - children[i]
                            for i, parent, _, _, start, end in p["spans"] if parent is None))
        print("self time per layer, summed per pass (median over traced passes, scaled) and per call (unscaled):")
        for name, times in sorted(per_call.items()):
            print(f"  {name + '.s':<40} {layers[name + '.s']:<12.6g} s  per call {distribution(times)} s")
        print(f"  {'benchmark glue (job self time)':<40} {statistics.median(glue):<12.6g} s")
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("counts and ratios:")
        for name in sorted(k for k in layers if not k.endswith(".s")):
            print(f"  {name:<40} {layers[name]:<12.6g} {units.get(name, 'count')}")
    if len(passes) < planned:
        print(f"CEILING: stopped after {len(passes)} of {planned} passes at the {DEADLINE_S:g} s deadline")
    for f in failures:
        print("FAILED " + f.rstrip().replace("\n", "\n  "))
    for k in unsteady:
        print(f"DETERMINISM FAILURE: {k} differs between passes")
    for name in missing:
        print(f"MISSING METRIC: no job produced {name}")
    print(json.dumps({"correct": not failures and not unsteady and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
