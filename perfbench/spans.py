"""In-memory span recorder for the benchmark's traced runs.

The traced run wraps public functions of the program at the place
where their callers look them up (a module attribute or a class
attribute), so the program itself carries no instrumentation.  Each
call becomes one span: name, start, end, parent span, thread and a
request id (the experiment name on the paper workloads, the serve
trace ids of a batch on the serving workload).  Garbage-collector
pauses, seen through ``gc.callbacks``, become ``python.gc`` spans
nested in whatever span they interrupted.

Spans stay in memory and are written out once, when the traced
process ends.  :func:`summarize` turns a dump into per-name totals:
a span's self time is its duration minus the time its child spans
cover, so on one thread the self times of all spans plus the
remainder outside any span add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

# Span record layout (a list, mutated in place when the span closes).
ID, NAME, START, END, PARENT, THREAD, REQUEST, ATTRS = range(8)


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self, launched: float) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, object] = {}
        #: perf_counter() when the process began running Python code;
        #: the clock is system-wide, so the parent can compare it with
        #: the moment it spawned the process.
        self.launched = launched
        self._ids = itertools.count()
        self._local = threading.local()
        self._gc_open: Dict[int, list] = {}

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[str] = None) -> list:
        # No lock: list.append and next() on a counter are atomic under
        # the interpreter lock, and a lock here could deadlock with the
        # gc callback, which may fire while the lock is held.
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent[REQUEST]
        span = [
            next(self._ids),
            name,
            time.perf_counter(),
            None,
            parent[ID] if parent is not None else None,
            threading.get_ident(),
            request,
            None,
        ]
        self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        attrs: Optional[Callable] = None,
        request: Optional[Callable] = None,
    ) -> Callable:
        """*fn* recorded as span *name*.

        *attrs(args, kwargs, result)* returns a dict stored on the
        span after the call; *request(args, kwargs)* names the request
        the call serves (default: inherited from the parent span).
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(
                name, request(args, kwargs) if request is not None else None
            )
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    span[ATTRS] = attrs(args, kwargs, result)
                return result
            finally:
                self.close(span)

        return wrapper

    def watch_gc(self) -> None:
        """Record every collector pause as a ``python.gc`` span."""

        def callback(phase: str, info: Dict[str, int]) -> None:
            thread = threading.get_ident()
            if phase == "start":
                self._gc_open[thread] = self.open("python.gc")
            else:
                span = self._gc_open.pop(thread, None)
                if span is not None:
                    self.close(span)
                    span[ATTRS] = {"generation": info.get("generation")}

        gc.callbacks.append(callback)

    def dump(self, path: str) -> None:
        """Write every span plus the collected counters as JSON."""
        document = {
            "schema": "perfbench.spans/v1",
            "pid": os.getpid(),
            "launched": self.launched,
            "ended": time.perf_counter(),
            "main_thread": threading.main_thread().ident,
            "counters": self.counters,
            "spans": self.spans,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, path)


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(recorder: SpanRecorder) -> None:
    """Wrap the program's layer boundaries at their lookup sites."""
    import repro.experiments.fabric as fabric
    import repro.experiments.fig1_memory_mix as fig1
    import repro.sim.columnar as columnar
    import repro.sim.native as native
    import repro.workloads.trace_cache as trace_cache
    from repro.telemetry.runtime import Telemetry

    wrap = recorder.wrap
    trace_cache.load_trace_npz = wrap(
        "workloads.trace_cache.load", trace_cache.load_trace_npz
    )
    trace_cache.synthesize_trace = wrap(
        "workloads.trace_cache.synthesize", trace_cache.synthesize_trace
    )
    fig1.synthesize_trace = wrap(
        "workloads.synthetic.synthesize", fig1.synthesize_trace
    )
    columnar.decode_issue_plan = wrap(
        "sim.columnar.decode", columnar.decode_issue_plan
    )
    native.pack_native_plan = wrap("sim.native.pack", native.pack_native_plan)
    native.load_cell = wrap("sim.codegen.load_cell", native.load_cell)
    native.run_native = wrap(
        "sim.native.kernel",
        native.run_native,
        attrs=lambda args, kwargs, result: {
            "cells": 1,
            "native": int(result is not None),
            "insts": args[1].total_instructions,
        },
    )
    native.run_native_batch = wrap(
        "sim.native.kernel",
        native.run_native_batch,
        attrs=lambda args, kwargs, result: {
            "cells": len(args[0]),
            "native": sum(cycles is not None for cycles in result),
            "insts": sum(
                request[1].total_instructions
                for request, cycles in zip(args[0], result)
                if cycles is not None
            ),
        },
    )
    fabric.CellCache.load = wrap(
        "experiments.fabric.cell_load",
        fabric.CellCache.load,
        attrs=lambda args, kwargs, result: {
            "hit": int(result is not None),
            "bytes": _file_size(args[0].path_for(args[1])),
        },
    )
    fabric.CellCache.store = wrap(
        "experiments.fabric.cell_store",
        fabric.CellCache.store,
        attrs=lambda args, kwargs, result: {
            "bytes": _file_size(args[0].path_for(str(args[1]["digest"]))),
        },
    )
    fabric.run_grid = wrap("experiments.fabric.run_grid", fabric.run_grid)

    original_configure = Telemetry.configure

    def configure(self, *args, **kwargs):
        # The CLI's final configure(enabled=False) resets the recorder,
        # so its counts are read here, just before they vanish.
        if kwargs.get("enabled") is False and self.enabled:
            recorder.counters["telemetry"] = {
                "emitted": self.recorder.emitted,
                "kept": len(self.recorder),
                "dropped": self.recorder.dropped,
                "sampled_out": self.recorder.sampled_out,
            }
        return original_configure(self, *args, **kwargs)

    Telemetry.configure = configure
    recorder.watch_gc()


def install_experiments_cli(recorder: SpanRecorder, cli) -> None:
    """Wrap the experiment drivers and exporters the CLI module calls."""
    for attr in dir(cli):
        if attr.startswith("run_"):
            short = attr[len("run_"):].replace("_study", "")
            setattr(
                cli,
                attr,
                recorder.wrap(
                    f"experiments.{short}",
                    getattr(cli, attr),
                    request=lambda args, kwargs, short=short: short,
                ),
            )
    cli.write_metrics = recorder.wrap(
        "telemetry.export_metrics",
        cli.write_metrics,
        attrs=lambda args, kwargs, result: {"bytes": _file_size(args[0])},
    )
    cli.write_chrome_trace = recorder.wrap(
        "telemetry.export_trace",
        cli.write_chrome_trace,
        attrs=lambda args, kwargs, result: {"bytes": _file_size(args[0])},
    )


def install_serve(recorder: SpanRecorder) -> None:
    """Wrap the serving daemon's engine boundary and batch executor."""
    import repro.serve.daemon as daemon

    daemon.run_jobs_batched = recorder.wrap(
        "serve.engine.run_jobs_batched", daemon.run_jobs_batched
    )
    daemon.ServeDaemon._execute_batch = recorder.wrap(
        "serve.daemon.execute_batch",
        daemon.ServeDaemon._execute_batch,
        request=lambda args, kwargs: ",".join(
            work.trace_id for work in args[1] if work.trace_id
        )
        or None,
    )


# ----------------------------------------------------------------------
# Analysis (runs in the benchmark process, over a dump)


def load(path) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def summarize(document: Dict[str, object]) -> Dict[str, Dict[str, float]]:
    """Per span name: count, inclusive seconds, self seconds, attr sums.

    Self time is the span's duration minus the summed durations of
    its direct children; spans on one thread nest strictly, so the
    children never overlap.  Spans still open at dump time are
    closed at the dump's end.
    """
    spans = document["spans"]
    ended = document["ended"]
    child_time: Dict[int, float] = {}
    for span in spans:
        end = span[END] if span[END] is not None else ended
        if span[PARENT] is not None:
            child_time[span[PARENT]] = (
                child_time.get(span[PARENT], 0.0) + end - span[START]
            )
    totals: Dict[str, Dict[str, float]] = {}
    for span in spans:
        end = span[END] if span[END] is not None else ended
        duration = end - span[START]
        entry = totals.setdefault(
            span[NAME], {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(span[ID], 0.0)
        for key, value in (span[ATTRS] or {}).items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0) + value
    return totals


def attribution(
    document: Dict[str, object],
    wall_s: float,
    spawned: Optional[float] = None,
    reaped: Optional[float] = None,
) -> tuple:
    """``(rows, unattributed_s)``: the self-time partition of a wall.

    *rows* are ``(name, count, self_s)`` per span name, largest first.
    With *spawned*/*reaped* (the parent's clock readings around the
    process), interpreter start-up before the first traced line and
    process exit after the dump become the ``python.startup`` and
    ``python.exit`` rows.  On one thread the rows plus the returned
    remainder add up to *wall_s*.
    """
    totals = summarize(document)
    rows = [
        (name, int(entry["count"]), entry["self_s"])
        for name, entry in totals.items()
    ]
    main = document["main_thread"]
    ended = document["ended"]
    covered = 0.0
    for span in document["spans"]:
        if span[THREAD] == main and span[PARENT] is None:
            end = span[END] if span[END] is not None else ended
            covered += end - span[START]  # a tree's self times sum to this
    if spawned is not None and reaped is not None:
        startup = document["launched"] - spawned
        exit_s = reaped - ended
        rows += [("python.startup", 1, startup), ("python.exit", 1, exit_s)]
        covered += startup + exit_s
    rows.sort(key=lambda row: -row[2])
    return rows, wall_s - covered
