"""Bench-side tracing of axmul's layers, patched in from outside the program.

`instrument` replaces each layer-boundary function with a wrapper under
every name a module of the package looks it up by (for example
`eval_multiply_many` in both `metrics` and `clustering`), and restores the
originals on exit.  Each call records a span: name, start, end and the
index of its parent span.  Per-element helpers (`fmt6`, `psnr_from_mse`,
`eval_multiply`, ...) are not wrapped: they run once per cell or pair, so a
span around them would cost more than the work it measures; their time is
part of the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

# Layer metric -> the functions whose self time it sums.
TIME_METRICS = {
    "adders.load_s": ("adders.load_library",),
    "fabric.build_s": ("fabric.build_multiplier",),
    "fabric.eval_s": ("fabric.eval_multiply_many",),
    "metrics.reduce_s": ("metrics.exhaustive_sweep", "metrics.sweep_chunk",
                         "metrics.accumulate_arrays", "metrics.merge", "metrics.finalize"),
    "clustering.cluster_s": ("clustering.cluster_sweep",),
    "clustering.hist_s": ("clustering.ed_histogram",),
    "clustering.csv_s": ("clustering.cluster_csv", "clustering.cluster_matrix",
                         "clustering.histogram_csv"),
    "designspace.table_s": ("designspace.enumerate_library", "designspace.analyze_design",
                            "designspace.library_metrics_table", "designspace.table_csv"),
    "designspace.select_s": ("designspace.select_per_cluster", "designspace.selection_csv",
                             "designspace.selection_summary"),
    "render.svg_s": ("render.histogram_svg", "render.cluster_svg"),
    "cli.self_s": ("cli.main", "cli.cmd_validate", "cli.cmd_sweep", "cli.cmd_table",
                   "cli.cmd_clusters", "cli.cmd_histogram", "cli.cmd_select"),
}
TRACED = tuple(name for names in TIME_METRICS.values() for name in names)

MB = float(1 << 20)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Spans and boundary counts of one traced pass, kept in memory."""

    spans: list[Span] = field(default_factory=list)
    eval_calls: int = 0
    eval_pairs: int = 0
    eval_peak_bytes: int = 0
    needed_pairs: dict = field(default_factory=dict)   # design config -> 4^width
    cells: int = 0
    svg_bytes: int = 0
    _stack: list[int] = field(default_factory=list)
    _memory_shapes: set = field(default_factory=set)

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                if name == "fabric.eval_multiply_many":
                    result = self._eval(fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        return traced

    def _eval(self, fn, args, kwargs):
        # tracemalloc sees numpy's buffers.  An eval call's allocations depend
        # only on the grid's shape and the operand count, so one call of each
        # shape is measured; tracing every call would double a w=8 pass.
        grid, xs = args[0], args[1]
        shape = (grid.width, grid.config.architecture, grid.config.half_adders,
                 getattr(xs, "size", None))
        if shape in self._memory_shapes:
            return fn(*args, **kwargs)
        self._memory_shapes.add(shape)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            self.eval_peak_bytes = max(self.eval_peak_bytes, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        return [span.end - span.start - c for span, c in zip(self.spans, child)]

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer figures of the pass; `wall_s` is the traced pass wall time."""
        selfs = self.self_times()
        by_name: dict[str, float] = {}
        for span, s in zip(self.spans, selfs):
            by_name[span.name] = by_name.get(span.name, 0.0) + s
        out = {metric: sum(by_name.get(n, 0.0) for n in names)
               for metric, names in TIME_METRICS.items()}
        eval_s = out["fabric.eval_s"]
        out.update({
            "fabric.eval_calls": self.eval_calls,
            "fabric.eval_pairs": self.eval_pairs,
            "fabric.eval_mpairs_per_s": self.eval_pairs / eval_s / 1e6 if eval_s else 0.0,
            "fabric.useful_pair_ratio": (sum(self.needed_pairs.values()) / self.eval_pairs
                                         if self.eval_pairs else 0.0),
            "fabric.eval_peak_mb": self.eval_peak_bytes / MB,
            "clustering.cells": self.cells,
            "render.svg_bytes": self.svg_bytes,
            "trace.unattributed_s": wall_s - sum(selfs),
        })
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                for s in self.spans]


def _count_eval(tracer: Tracer, args, result) -> None:
    grid = args[0]
    tracer.eval_calls += 1
    tracer.eval_pairs += int(result.size)
    tracer.needed_pairs[grid.config] = 4 ** grid.width


def _count_cells(tracer: Tracer, _args, result) -> None:
    tracer.cells += len(result.cells)


def _count_svg(tracer: Tracer, _args, result) -> None:
    tracer.svg_bytes += len(result.encode("utf-8"))


_COUNTERS = {
    "fabric.eval_multiply_many": _count_eval,
    "clustering.cluster_sweep": _count_cells,
    "render.histogram_svg": _count_svg,
    "render.cluster_svg": _count_svg,
}


def package_modules() -> list:
    """The axmul package and every module of it imported so far."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "axmul" or name.startswith("axmul."))]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function under each name the package binds it to."""
    importlib.import_module("axmul.cli")
    patched = []
    try:
        for qualified in TRACED:
            module_name, fname = qualified.split(".")
            original = getattr(importlib.import_module(f"axmul.{module_name}"), fname)
            wrapper = tracer.wrap(qualified, original)
            for module in package_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield tracer
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
