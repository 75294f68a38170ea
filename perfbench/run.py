"""Benchmark runner for bihomega: one client, closed loop, one thread.

    python3 perfbench/run.py --workload check|search|cli --seed N
                             --seconds S --trace 0|1

Run from the repository root (the script changes there itself).  It puts
the checkout's src/ first on sys.path, so the code under test is the code
in this tree.  A run executes whole rounds of its workload until at least
S seconds have passed, checks every output, prints one line per metric
and, last, one JSON object.  With --trace 1 it also replays the first
operations of round 0 with every public entry point wrapped (see
tracer.py) and reports per-layer metrics instead of end-to-end ones.

End-to-end times are in reference seconds: wall seconds scaled by the
machine's speed as speed.py samples it during the run.  The wall-clock
figures are printed beside them.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SETUP_PROBES, Sampler
from workloads import WORKLOAD_NAMES, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0

# the end-to-end metrics in BENCHMARK.json, with their units
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def _purge_library():
    """Forget the imported library, and free it, so that the set-up
    repeats do not pile up in peak_rss_mb."""
    for name in [m for m in sys.modules
                 if m == "bihomega" or m.startswith("bihomega.")]:
        del sys.modules[name]
    gc.collect()


def setup(name: str, seed: int, clock):
    """Import the library and build round 0, at least SETUP_REPEATS
    times and for at least SETUP_MIN_S; the last build is kept.  Returns
    it and the median set-up time."""
    times = []
    workload = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        _purge_library()
        start = clock()
        importlib.import_module("bihomega")
        importlib.import_module("bihomega.cli")
        workload = make_workload(name, seed)
        workload.ops(0)
        times.append(clock() - start)
    return workload, statistics.median(times)


class Sample:
    __slots__ = ("label", "seconds", "work", "ok")

    def __init__(self, label, seconds, work, ok):
        self.label, self.seconds, self.work, self.ok = label, seconds, work, ok


def run_op(op, golden, gated, clock=time.perf_counter):
    """Time op.run() and check its output; any exception is a failure.
    With `gated`, an operation without a recorded digest fails too."""
    start = clock()
    try:
        out = op.run()
    except Exception as exc:  # a crash is a failed operation, not a crash here
        print(f"error: {op.key}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Sample(op.label, clock() - start, 0, False)
    elapsed = clock() - start
    try:
        ok, dig = op.check(out)
        work = op.work(out)
    except Exception as exc:
        print(f"error: checking {op.key}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return Sample(op.label, elapsed, 0, False)
    recorded = golden.get(op.key)
    if recorded is None and gated:
        print(f"error: {op.key}: no recorded digest", file=sys.stderr)
        ok = False
    elif recorded is not None and recorded != dig:
        print(f"error: {op.key}: output digest {dig} differs from the "
              f"recorded {recorded}", file=sys.stderr)
        ok = False
    elif not ok:
        print(f"error: {op.key}: output failed its check", file=sys.stderr)
    return Sample(op.label, elapsed, work, ok)


def run_loop(workload, seconds: float, golden, clock) -> list[Sample]:
    samples = []
    start = time.perf_counter()
    r = 0
    while True:
        for op in workload.ops(r):
            samples.append(run_op(op, golden, workload.recorded(), clock))
        r += 1
        if time.perf_counter() - start >= seconds:
            return samples


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it, or (None, None) with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None, None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


WORK_NAMES = {"check": ("check_cells_per_s", "cells/s"),
              "search": ("search_space_per_s", "candidates/s"),
              "cli": ("cli_ops_per_s", "commands/s")}


def end_to_end(name, samples, setup_wall_s, setup_probes, sampler):
    """Metrics in reference seconds, and printable lines that also give
    them in wall seconds.  Set-up time is scaled by the probes taken
    during set-up, or by the first SETUP_PROBES if it took fewer."""
    secs = [s.seconds for s in samples]
    work = sum(s.work for s in samples)
    factor = sampler.factor()
    metrics = {
        "setup_s": setup_wall_s * sampler.factor(max(setup_probes,
                                                     SETUP_PROBES)),
        "work_per_s": work / (sum(secs) * factor),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wname, wunit = WORK_NAMES[name]
    lines = [f"{wname} = {metrics['work_per_s']:.6g} {wunit} in reference "
             f"seconds, {work / sum(secs):.6g} {wunit} in wall seconds",
             f"machine_speed = {factor:.4g} reference seconds per wall second "
             f"({len(sampler.samples)} probes)",
             f"setup_wall_s = {setup_wall_s:.6g} s",
             f"{name}_p50_s = {statistics.median(secs):.6g} s (n={len(secs)})"]
    value, pct = tail(secs)
    if value is None:
        lines.append(f"{name}_tail_s = n/a (n={len(secs)} < 11)")
    else:
        lines.append(f"{name}_tail_s = {value:.6g} s (p{pct:.1f}, "
                     f"n={len(secs)})")
    failed = sum(not s.ok for s in samples)
    lines.append(f"failed_ratio = {failed / len(samples):.6g} "
                 f"({failed}/{len(samples)})")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    golden_path = HERE / "golden.json"
    missing = [str(p) for p in (ROOT / "src" / "bihomega" / "__init__.py",
                                ROOT / "tests" / "classical.py", golden_path)
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    with Sampler() as sampler:
        workload, setup_s = setup(args.workload, args.seed, sampler.clock)
        setup_probes = len(sampler.samples)
        samples = run_loop(workload, args.seconds, golden, sampler.clock)
    metrics, lines = end_to_end(args.workload, samples, setup_s,
                                setup_probes, sampler)
    if args.trace:
        import layers
        layer_metrics, layer_lines, traced = layers.traced_run(
            workload, samples,
            lambda op: run_op(op, golden, workload.recorded()))
        samples = samples + traced
        lines += layer_lines
        chosen = {k: (layer_metrics[k], layers.unit(k))
                  for k in layers.REPORTED}
    else:
        chosen = {k: (metrics[k], u) for k, u in END_TO_END.items()}
    for key, unit in END_TO_END.items():
        lines.append(f"{key} = {metrics[key]:.6g} {unit}")

    workload.cleanup()
    failed = sum(not s.ok for s in samples)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
