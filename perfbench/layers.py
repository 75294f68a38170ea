"""The traced run: per-layer metrics for one workload.

The first `trace_ops` operations of round 0 are rebuilt from the seed
(fresh objects, so nothing the untraced run touched is reused) and run
again with the tracer installed.  Counts are therefore a function of the
seed alone and repeat exactly; times are self times unless named
otherwise.  trace.overhead_ratio compares the traced wall time of those
operations with their untraced wall time from the main run.
"""

from __future__ import annotations

import statistics
import sys
import time

from tracer import Recorder
from workloads import KINDS, WORK_DIR

# per-layer metrics carried in the JSON line: the ones that are nonzero on
# every workload.  The forge, construction, pre-filter and dsl metrics are 0
# by construction on the workloads that do not drive those layers (check
# calls only check_instance, cli runs no search), so they are printed but
# not carried: a value that is always 0 gives a later change no baseline.
REPORTED = (
    "linalg.matrix_apply.calls", "linalg.matrix_apply.self_s",
    "core.bilinear_apply.calls", "core.bilinear_apply.self_s",
    "core.linear_apply.calls", "semigroup.mul.calls", "checkers.self_s",
    "checkers.cells", "checkers.witnesses", "checkers.violations",
    "trace.overhead_ratio",
)


def unit(name: str) -> str:
    if name.endswith(".calls") or name in ("checkers.cells",
                                           "checkers.witnesses",
                                           "checkers.violations",
                                           "forge.space", "forge.checked",
                                           "forge.accepted"):
        return "count"
    if name.endswith("bytes_per_s"):
        return "B/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def _p50(values):
    return statistics.median(values) if values else None


def traced_run(workload, samples, run_op):
    """(metrics, printable lines, samples) of the traced replay; run_op
    times and checks one operation.  The replay's samples are returned so
    that their failures count."""
    metrics: dict[str, float] = {}
    lines: list[str] = []
    k = workload.trace_ops

    zero_ok = True
    if workload.name == "check":
        for kind in KINDS:
            seconds, passed = _zero_check(kind)
            metrics[f"checkers.{kind}.zero_s"] = seconds
            zero_ok = zero_ok and passed

    ops = workload.make_round(0)[:k]
    rec = Recorder()
    for op in ops:
        op.check = _paused(rec, op.check)
    rec.install()
    traced = []
    try:
        for op in ops:
            if op.span is not None:
                with rec.span(op.span):
                    traced.append(run_op(op))
            else:
                traced.append(run_op(op))
    finally:
        rec.uninstall()
    if not zero_ok:
        print("error: a zero instance failed its checker", file=sys.stderr)
        traced[-1].ok = False
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    rec.write(str(WORK_DIR / f"trace-{workload.name}-{workload.seed}.jsonl"))

    untraced_s = sum(s.seconds for s in samples[:k])
    metrics["trace.overhead_ratio"] = sum(s.seconds for s in traced) / untraced_s

    for name in ("linalg.matrix_apply", "core.bilinear_apply"):
        metrics[name + ".calls"] = rec.calls[name]
        metrics[name + ".self_s"] = rec.self_s[name]
    for name in ("core.linear_apply", "semigroup.mul", "linalg.mat_mul",
                 "linalg.mat_inverse", "core.commutes_with"):
        metrics[name + ".calls"] = rec.calls[name]
    metrics["checkers.self_s"] = rec.sum_self("checkers.")
    for name in ("checkers.cells", "checkers.witnesses", "checkers.violations",
                 "forge.space", "forge.checked", "forge.accepted"):
        metrics[name] = rec.counters[name]
    checked = rec.counters["forge.checked"]
    metrics["forge.accept_ratio"] = (rec.counters["forge.accepted"] / checked
                                     if checked else 0.0)
    metrics["forge.self_s"] = rec.sum_self("forge.")
    metrics["forge.check_s"] = rec.inclusive_under("checkers.", "forge.")
    metrics["constructions.calls"] = rec.sum_calls("constructions.")
    metrics["constructions.self_s"] = rec.sum_self("constructions.")
    metrics["constructions.check_s"] = rec.inclusive_under("checkers.",
                                                           "constructions.")
    metrics["core.build.self_s"] = rec.sum_self("core.build.")
    for name in ("parse", "serialize"):
        seconds = rec.total_s.get("dsl." + name, 0.0)
        metrics[f"dsl.{name}_s"] = seconds
        metrics[f"dsl.{name}_bytes_per_s"] = (
            rec.counters["dsl." + name + ".bytes"] / seconds if seconds else 0.0)
    metrics["reports.render_s"] = rec.sum_self("reports.")
    metrics["cli.self_s"] = rec.self_s.get("cli.main", 0.0)

    # per-kind latency: the untraced run's own timings where the benchmark
    # calls the checker itself, else the traced spans
    by_label: dict[str, list[float]] = {}
    if workload.name == "check":
        for s in samples:
            by_label.setdefault(s.label, []).append(s.seconds)
    for kind in KINDS + ("rota_baxter", "morphism"):
        values = by_label.get(kind)
        source = "untraced"
        if values is None:
            values = rec.checker_durations.get(kind)
            source = "traced"
        p50 = _p50(values)
        metrics[f"checkers.{kind}.p50_s"] = p50 if p50 is not None else 0.0
        if p50 is not None:
            lines.append(f"checkers.{kind}.p50_s = {p50:.6g} s "
                         f"({source}, n={len(values)})")
        else:
            lines.append(f"checkers.{kind}.p50_s = n/a (no calls)")

    for name in sorted(metrics):
        if name.startswith("checkers.") and name.endswith(".p50_s"):
            continue
        value = metrics[name]
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        lines.append(f"{name} = {shown} {unit(name)}")
    lines.append(f"trace.ops = {len(traced)} (of round 0), "
                 f"spans = {len(rec.spans)}")
    return metrics, lines, traced


def _paused(rec, check):
    """The benchmark's own output check, kept out of the trace."""
    def wrapper(out):
        with rec.paused():
            return check(out)
    return wrapper


def _zero_check(kind: str) -> tuple[float, bool]:
    """Criterion 1's case: zero products, identity maps, (C3, d = 4)."""
    bh = sys.modules["bihomega"]
    inst = bh.zero_instance(bh.AlgebraKind(kind), bh.cyclic_group(3), 4)
    start = time.perf_counter()
    report = sys.modules["bihomega.checkers"].check_instance(inst)
    return time.perf_counter() - start, report.passed
