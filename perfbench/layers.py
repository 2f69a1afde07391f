"""Per-layer metrics computed from a traced run's spans.

BENCHMARK.json lists the metrics and their units; a traced invocation
reports every one of them, 0 where the workload does not reach the
layer.  README.md maps each to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import spans

#: Waterfall stages of a serve request (``/trace/<id>``).
STAGES = (
    "admission", "memory_lookup", "coalesce_wait", "queue_wait",
    "batch_assembly", "disk_lookup", "trace_expand", "compile", "sim",
    "cache_publish", "serialize", "unattributed",
)
SOURCES = ("memory", "disk", "executed", "coalesced")

def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def from_spans(
    document: Dict[str, object],
    wall_s: float,
    spawned: Optional[float] = None,
    reaped: Optional[float] = None,
) -> Dict[str, float]:
    """The span-derived metrics of one traced process.

    *wall_s* is the traced wall time; *spawned*/*reaped* bound the
    process when that wall is the process's whole life.
    """
    totals = spans.summarize(document)
    rows, unattributed = spans.attribution(document, wall_s, spawned, reaped)
    startup = [row[2] for row in rows if row[0] == "python.startup"]

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0)

    kernel_calls = get("sim.native.kernel", "count")
    kernel_cells = get("sim.native.kernel", "cells")
    native_cells = get("sim.native.kernel", "native")
    fallbacks = sum(document["counters"].get("native_fallbacks", {}).values())
    telemetry = document["counters"].get("telemetry", {})
    values = {
        "workloads.trace_cache.load_s": get("workloads.trace_cache.load", "self_s"),
        "workloads.trace_cache.loads": get("workloads.trace_cache.load", "count"),
        "workloads.trace_cache.synthesize_s": get(
            "workloads.trace_cache.synthesize", "self_s"),
        "workloads.trace_cache.syntheses": get(
            "workloads.trace_cache.synthesize", "count"),
        "workloads.synthetic.synthesize_s": get(
            "workloads.synthetic.synthesize", "self_s"),
        "sim.columnar.decode_s": get("sim.columnar.decode", "self_s"),
        "sim.columnar.decodes": get("sim.columnar.decode", "count"),
        "sim.native.pack_s": get("sim.native.pack", "self_s"),
        "sim.native.packs": get("sim.native.pack", "count"),
        "sim.native.kernel_s": get("sim.native.kernel", "self_s"),
        "sim.native.ffi_calls": kernel_calls,
        "sim.native.cells_per_call": _share(kernel_cells, kernel_calls),
        "sim.native.native_share": _share(native_cells, native_cells + fallbacks),
        "sim.native.host_ns_per_inst": 1e9 * _share(
            get("sim.native.kernel", "self_s"), get("sim.native.kernel", "insts")),
        "sim.codegen.load_cell_s": get("sim.codegen.load_cell", "self_s"),
        "experiments.fabric.cell_load_s": get("experiments.fabric.cell_load", "self_s"),
        "experiments.fabric.cell_loads": get("experiments.fabric.cell_load", "count"),
        "experiments.fabric.cell_hit_share": _share(
            get("experiments.fabric.cell_load", "hit"),
            get("experiments.fabric.cell_load", "count")),
        "experiments.fabric.cell_bytes_read": get(
            "experiments.fabric.cell_load", "bytes"),
        "experiments.fabric.run_grid_self_s": get(
            "experiments.fabric.run_grid", "self_s"),
        "experiments.fabric.cell_store_s": get(
            "experiments.fabric.cell_store", "self_s"),
        "experiments.fabric.cell_stores": get(
            "experiments.fabric.cell_store", "count"),
        "experiments.fabric.cell_bytes_written": get(
            "experiments.fabric.cell_store", "bytes"),
        "experiments.fig1_s": get("experiments.fig1", "total_s"),
        "experiments.fig12_s": get("experiments.fig12", "total_s"),
        "experiments.table2_s": get("experiments.table2", "total_s"),
        "telemetry.events_emitted": telemetry.get("emitted", 0),
        "telemetry.events_kept_share": _share(
            telemetry.get("kept", 0), telemetry.get("emitted", 0)),
        "telemetry.export_metrics_s": get("telemetry.export_metrics", "total_s"),
        "telemetry.export_trace_s": get("telemetry.export_trace", "total_s"),
        "telemetry.export_bytes": get("telemetry.export_metrics", "bytes")
        + get("telemetry.export_trace", "bytes"),
        "python.gc_s": get("python.gc", "self_s"),
        "python.gc_collections": get("python.gc", "count"),
        "python.startup_s": startup[0] if startup else 0.0,
        "python.import_s": get("python.import", "self_s"),
        "serve.engine.run_jobs_batched_s": get(
            "serve.engine.run_jobs_batched", "total_s"),
        "bench.traced_wall_s": wall_s,
        "bench.unattributed_s": unattributed,
    }
    return values


def partition_lines(
    document: Dict[str, object],
    wall_s: float,
    spawned: Optional[float] = None,
    reaped: Optional[float] = None,
    *,
    threads_overlap: bool = False,
) -> List[str]:
    """The traced run's self-time table, largest first."""
    rows, unattributed = spans.attribution(document, wall_s, spawned, reaped)
    lines = [
        "traced split (self time = span minus its children):",
        f"  {'layer':40s} {'calls':>7s} {'self_s':>9s} {'share':>7s}",
    ]
    for name, count, self_s in rows:
        lines.append(
            f"  {name:40s} {count:7d} {self_s:9.4f} {_share(self_s, wall_s):7.1%}"
        )
    if threads_overlap:
        lines.append(
            "  (threads overlap in the daemon: these are busy times per "
            "layer; the request waterfall below is the partition)"
        )
        return lines
    attributed = sum(row[2] for row in rows)
    lines.append(
        f"  {'unattributed':40s} {'':7s} {unattributed:9.4f} "
        f"{_share(unattributed, wall_s):7.1%}"
    )
    lines.append(
        f"  {'= traced wall':40s} {'':7s} {attributed + unattributed:9.4f}"
    )
    return lines
