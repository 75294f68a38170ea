"""Span recorder and the wrappers that feed it.

The recorder wraps public names of the library at every place they are
looked up (module globals, class attributes and the CONSTRUCTIONS
table) and restores them on exit.  Coarse calls - checkers, searches,
constructions, instance and tensor building, parsing, rendering, CLI
entry - become spans (name, start, end, parent) kept in memory and
written out at the end.
Hot leaves - the apply methods and friends - are far too many to keep
one by one; they are aggregated per name (calls, total and self time)
on the same call stack, so their time is still subtracted from the span
that called them.  Self time is a call's duration minus the time its
traced children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from cells import report_cells

CHECKER_NAMES = (
    "check_instance", "check_bihom_associative", "check_dendriform",
    "check_prelie", "check_lie", "check_postlie", "check_zinbiel",
    "check_prepoisson", "check_rota_baxter", "check_morphism",
)
SEARCH_NAMES = ("brute_force_rb_search", "make_endomorphism_pairs")


class Recorder:
    """Call-stack recorder: spans for coarse calls, aggregates for leaves."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.checker_durations: dict[str, list[float]] = defaultdict(list)
        self.enabled = True
        # frames: [name, start, child_time, span_index or -1]
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        self._checker_depth = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------

    def _enter(self, name: str, span: bool) -> list:
        idx = -1
        if span:
            idx = len(self.spans)
            parent = self._span_stack[-1] if self._span_stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._span_stack.append(idx)
        frame = [name, time.perf_counter(), 0.0, idx]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child, idx = frame
        self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if idx >= 0:
            self._span_stack.pop()
            self.spans[idx] = (name, start, end, self.spans[idx][3])
        return dur

    def timed(self, name: str, fn, span: bool):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)
        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def checker(self, fn):
        """Span plus the cells, witnesses and violations of its report;
        a checker called from inside another checker is not counted twice."""
        name = "checkers." + fn.__name__

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(name, True)
            parent = self.spans[frame[3]][3]
            self._checker_depth += 1
            try:
                report = fn(*args, **kwargs)
            finally:
                self._checker_depth -= 1
                dur = self._exit(frame)
            if parent >= 0 and self.spans[parent][0].startswith("forge."):
                self.counters["forge.checked"] += 1
                self.counters["forge.accepted"] += report.passed
            if self._checker_depth == 0:
                inst = args[1] if fn.__name__ == "check_morphism" else args[0]
                self.counters["checkers.cells"] += report_cells(
                    report, inst.omega.order, inst.dim)
                for r in report.results:
                    self.counters["checkers.witnesses"] += len(r.witnesses)
                    self.counters["checkers.violations"] += r.total_violations
                kind = (fn.__name__[len("check_"):]
                        if fn.__name__ != "check_instance" else inst.kind.value)
                self.checker_durations[kind].append(dur)
            return report
        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into a layer."""
        frame = self._enter(name, True) if self.enabled else None
        try:
            yield
        finally:
            if frame is not None:
                self._exit(frame)

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    # -- patching ----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self):
        """Wrap the library's public names; uninstall() puts them back."""
        import bihomega
        from bihomega import (checkers, cli, constructions, core, dsl, forge,
                              linalg, reports, semigroup)
        modules = (bihomega, checkers, cli, constructions, core, dsl, forge,
                   linalg, reports, semigroup)

        for cls, attr, name in ((linalg.Matrix, "apply", "linalg.matrix_apply"),
                                (core.BilinearFamily, "apply",
                                 "core.bilinear_apply")):
            original = cls.__dict__[attr]
            wrapper = self.timed(name, original, span=False)
            self._set(cls, attr, wrapper)
            self._replace_everywhere(modules, original, wrapper)
        for cls, attr, name in (
                (core.LinearFamily, "apply", "core.linear_apply"),
                (core.LinearFamily, "commutes_with", "core.commutes_with"),
                (semigroup.SemigroupTable, "mul", "semigroup.mul")):
            self._set(cls, attr, self.counted(name, cls.__dict__[attr]))
        for original, name in ((linalg.mat_mul, "linalg.mat_mul"),
                               (linalg.mat_inverse, "linalg.mat_inverse")):
            self._replace_everywhere(modules, original,
                                     self.counted(name, original))

        for fname in CHECKER_NAMES:
            original = getattr(checkers, fname)
            self._replace_everywhere(modules, original, self.checker(original))
        for fname in SEARCH_NAMES:
            original = getattr(forge, fname)
            self._replace_everywhere(modules, original, self._search(original))
        table = constructions.CONSTRUCTIONS
        for cname, original in list(table.items()):
            wrapper = self.timed("constructions." + cname, original, True)
            self._undo.append((table, cname, original))
            table[cname] = wrapper
            self._replace_everywhere(modules, original, wrapper)

        self._replace_everywhere(
            modules, core.new_instance,
            self.timed("core.build.new_instance", core.new_instance, True))
        raw = core.BilinearFamily.__dict__["from_function"]
        self._set(core.BilinearFamily, "from_function", staticmethod(
            self.timed("core.build.from_function", raw.__func__, True)))
        for original, name in ((dsl.parse_workspace, "dsl.parse"),
                               (dsl.serialize_workspace, "dsl.serialize")):
            self._replace_everywhere(modules, original,
                                     self._sized(name, original))
        for cls, attr in ((reports.CheckReport, "to_dict"),
                          (reports.CheckReport, "summary"),
                          (reports.CheckReport, "summary_lines"),
                          (reports.Witness, "describe")):
            self._set(cls, attr, self.timed("reports." + attr,
                                            cls.__dict__[attr], True))

    def _search(self, fn):
        """Span for a brute-force search, counting its candidate space."""
        timed = self.timed("forge." + fn.__name__, fn, True)

        def wrapper(inst, cfg, *args, **kwargs):
            if self.enabled:
                self.counters["forge.space"] += len(cfg.entries) ** (
                    inst.omega.order * inst.dim ** 2)
            return timed(inst, cfg, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _sized(self, name: str, fn):
        """Span for a text-in or text-out call, counting the bytes."""
        timed = self.timed(name, fn, True)

        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            if self.enabled:
                text = args[0] if isinstance(args[0], str) else out
                self.counters[name + ".bytes"] += len(text.encode("utf-8"))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- summaries ---------------------------------------------------

    def inclusive_under(self, child_prefix: str, parent_prefix: str) -> float:
        """Time of spans named child_prefix* whose parent span is named
        parent_prefix*."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if (name.startswith(child_prefix) and parent >= 0
                    and self.spans[parent][0].startswith(parent_prefix)):
                total += end - start
        return total

    def sum_self(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))

    def sum_calls(self, prefix: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def write(self, path: str):
        """Spans as JSON lines, then one line of per-name aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"aggregate": {
                name: {"calls": self.calls[name],
                       "total_s": self.total_s.get(name, 0.0),
                       "self_s": self.self_s.get(name, 0.0)}
                for name in sorted(self.calls)},
                "counters": dict(self.counters)}) + "\n")

