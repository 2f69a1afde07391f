"""Native executor for columnar issue plans, built on per-cell codegen.

The columnar engine's pure-Python issue loop (:func:`repro.sim.
columnar.run_columnar`) bottoms out at CPython bytecode dispatch;
this module removes that floor when a C toolchain is present.  An
:class:`~repro.sim.columnar.IssuePlan` already *is* the contiguous
``int64`` run, record, line and probe columns the kernel reads, so
their addresses are handed over as they are — as a pointer slab — to
a kernel *generated for the exact (timing-model, mechanism) cell* by
:mod:`repro.sim.codegen`: latencies and cache way counts are
compile-time constants, the GPUShield probe path is compiled out of
cells that never take it, and every cell carries both a single-word
(≤64 warps) and a multi-word ready-mask scheduler, so wide traces no
longer fall back to Python.

Design constraints:

* **ABI-only.**  Kernels are plain C compiled with ``cc -O2 -shared``
  and loaded through :mod:`cffi`'s ``dlopen`` mode — no Python
  headers or build backends; builds are cached on disk keyed by
  (source digest, compiler identity) with an atomic, lock-guarded
  publish (see :mod:`repro.sim.codegen`).
* **Shared state, not shadow state.**  Kernels operate on the
  simulator's :meth:`~repro.sim.cache.ArrayLruCache.native_export`
  arrays and the DRAM channel-free timeline.  The dense tag arrays
  stay authoritative between native runs (committed via
  :meth:`~repro.sim.cache.ArrayLruCache.native_commit`); dict rows
  are rebuilt lazily — and only for touched sets — when Python next
  reads them.  Warm-cache reruns and engine interleaving therefore
  behave identically to the Python loop.
* **Batching.**  :func:`run_native_batch` ships N independent traces
  through **one** FFI crossing per cell group; the kernel runs them
  one after another.
* **Observable refusal.**  Every fallback to the Python loop is
  counted in :data:`NATIVE_DIAG` (``sim.native_fallback{reason=…}``)
  and logged once per reason per process.  The diagnostics registry
  is deliberately separate from the main telemetry registry: exported
  ``--metrics`` snapshots must stay byte-identical across execution
  paths and ``--jobs`` values, so path-selection diagnostics cannot
  ride in them.

The generated scheduler mirrors the Python loop's semantics exactly:
a ready bitmask (oldest warp = lowest set bit, GTO keeps the current
warp on ties), per-warp wake times with an exact ``next_wake``
minimum, the single-ready fast-forward, and the sign-encoded
``comp_delta`` recovery for runs ending in a stateful memory
instruction — locked cell by cell against :mod:`repro.sim.reference`.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..telemetry.registry import MetricsRegistry
from .codegen import (
    CODEGEN_STATS,
    NPTRS,
    NSCALARS,
    OUT_SLOTS,
    CellSpec,
    CompiledCell,
    load_cell,
)
from .columnar import IssuePlan
from .timing import TRANSACTION_CYCLES

__all__ = [
    "NATIVE_ENV",
    "NATIVE_DIAG",
    "cell_spec_for",
    "fallback_counts",
    "native_available",
    "note_fallback",
    "pack_native_plan",
    "run_native",
    "run_native_batch",
]

log = logging.getLogger("repro.sim.native")

#: Set to ``0``/``false`` to disable the native executor (the columnar
#: engine then always runs the pure-Python issue loop).
NATIVE_ENV = "REPRO_SIM_NATIVE"

#: Diagnostics registry for engine-selection observability
#: (``sim.native_fallback{reason=…}`` counters).  Separate from the
#: exported telemetry registry on purpose — see the module docstring.
NATIVE_DIAG = MetricsRegistry()

#: One explanatory log line per reason per process.
_FALLBACK_LOGGED: set = set()

_FALLBACK_DETAIL = {
    "disabled": "REPRO_SIM_NATIVE=0 pins the Python issue loop",
    "no-toolchain": "no C compiler (cc/gcc/clang) on PATH",
    "compile-failed": "the generated cell failed to compile",
    "custom-model": "timing model declares no columnar lowering; "
    "the oracle runs it",
    "warm-rcache": "warm SetAssociativeCache RCache state runs the oracle",
    "kernel-error": "generated kernel refused (allocation failure)",
}


def note_fallback(reason: str) -> None:
    """Count (and once per reason, log) a native-path fallback."""
    NATIVE_DIAG.counter("sim.native_fallback", reason=reason).inc()
    if reason not in _FALLBACK_LOGGED:
        _FALLBACK_LOGGED.add(reason)
        log.info(
            "native executor fallback (%s): %s",
            reason,
            _FALLBACK_DETAIL.get(reason, reason),
        )


def fallback_counts() -> Dict[str, int]:
    """Reason → count snapshot of every fallback noted so far."""
    counts: Dict[str, int] = {}
    for instrument in NATIVE_DIAG:
        if instrument.name != "sim.native_fallback":
            continue
        reason = dict(instrument.labels).get("reason", "?")
        counts[reason] = counts.get(reason, 0) + int(instrument.value)
    return counts


def _disabled() -> bool:
    return os.environ.get(NATIVE_ENV, "").lower() in ("0", "false", "no")


def cell_spec_for(simulator, plan) -> CellSpec:
    """The codegen cell of *simulator*'s config under *plan*'s shape.

    Everything here is folded into the generated C as a literal: the
    latencies and way counts specialize the kernel, and plans without
    probe tables select the probe-free variant.  (Set counts, line
    bits and channel interleave are baked into the *plan*'s
    pre-resolved geometry columns, not the kernel.)
    """
    config = simulator.config
    dram = simulator.dram
    has_probes = plan.has_probes
    return CellSpec(
        has_probes=has_probes,
        l1_ways=config.l1.ways,
        l1_latency=config.l1.hit_latency,
        l2_ways=config.l2.ways,
        l2_latency=config.l2.hit_latency,
        dram_latency=dram.latency,
        line_cycles=dram.line_cycles,
        tx_cycles=TRANSACTION_CYCLES,
        rc_ways=simulator.model.rcache.config.ways if has_probes else 0,
    )


def native_available() -> bool:
    """True when generated cells can be compiled and loaded.

    Probes the default-config baseline cell (memoized), so a ``True``
    answer means an actual kernel is resident — not merely that a
    compiler binary exists.
    """
    if _disabled():
        return False
    from ..common.config import DEFAULT_GPU_CONFIG
    from .dram import DramModel

    dram = DramModel(DEFAULT_GPU_CONFIG)
    spec = CellSpec(
        has_probes=False,
        l1_ways=DEFAULT_GPU_CONFIG.l1.ways,
        l1_latency=DEFAULT_GPU_CONFIG.l1.hit_latency,
        l2_ways=DEFAULT_GPU_CONFIG.l2.ways,
        l2_latency=DEFAULT_GPU_CONFIG.l2.hit_latency,
        dram_latency=dram.latency,
        line_cycles=dram.line_cycles,
        tx_cycles=TRANSACTION_CYCLES,
    )
    return isinstance(load_cell(spec), CompiledCell)


def pack_native_plan(plan: IssuePlan) -> np.ndarray:
    """Pointer-slab slots 0–19 for *plan*: its columns' addresses.

    An :class:`~repro.sim.columnar.IssuePlan` already holds the flat
    ``int64`` columns the generated kernel reads, so nothing is
    flattened or copied here.
    """
    return plan.slab_prefix


#: Placeholder RCache arrays for probe-free cells: the generated
#: kernel contains no code that reads slab slots 22/25, so one shared
#: (never-dereferenced) pair serves every cell, in any thread.
_DUMMY_TAGS = np.zeros(1, dtype=np.int64)
_DUMMY_TOUCHED = np.zeros(1, dtype=np.uint8)


@dataclass
class _PreparedCell:
    """One trace marshalled for a generated kernel, pre-invocation."""

    simulator: object
    plan: object
    stats: object
    events: Optional[list]
    scalars: np.ndarray  # int64[NSCALARS]
    slab: np.ndarray  # uint64[NPTRS] of raw pointers
    out: np.ndarray  # int64[OUT_SLOTS]
    ev_buf: Optional[np.ndarray]
    l1_state: Tuple[np.ndarray, np.ndarray]
    l2_state: Tuple[np.ndarray, np.ndarray]
    rc_state: Optional[Tuple[np.ndarray, np.ndarray]]
    free_at: np.ndarray


def _prepare(
    simulator,
    plan,
    stats,
    events: Optional[list],
    sample_every: int,
    sample_phase: int,
) -> _PreparedCell:
    """Export state and build the pointer slab for one trace."""
    slab_prefix = pack_native_plan(plan)
    l1_state = simulator.l1.native_export()
    l2_state = simulator.l2.native_export()
    if plan.has_probes:
        rc_state = simulator.model.rcache.native_export()
    else:
        rc_state = None
    free_at = np.asarray(simulator.dram.channel_free_at, dtype=np.int64)
    out = np.zeros(OUT_SLOTS, dtype=np.int64)
    if events is not None:
        ev_cap = plan.total_runs // sample_every + 1
        ev_buf = np.empty(ev_cap * 3, dtype=np.int64)
        ev_addr = ev_buf.ctypes.data
    else:
        ev_cap = 0
        ev_buf = None
        ev_addr = 0
    slab = np.empty(NPTRS, dtype=np.uint64)
    slab[:20] = slab_prefix
    slab[20] = l1_state[0].ctypes.data
    slab[21] = l2_state[0].ctypes.data
    slab[23] = l1_state[1].ctypes.data
    slab[24] = l2_state[1].ctypes.data
    if rc_state is not None:
        slab[22] = rc_state[0].ctypes.data
        slab[25] = rc_state[1].ctypes.data
    else:
        slab[22] = _DUMMY_TAGS.ctypes.data
        slab[25] = _DUMMY_TOUCHED.ctypes.data
    slab[26] = free_at.ctypes.data
    slab[27] = ev_addr
    slab[28] = out.ctypes.data
    scalars = np.array(
        [plan.warp_count, sample_every, sample_phase, ev_cap],
        dtype=np.int64,
    )
    return _PreparedCell(
        simulator=simulator,
        plan=plan,
        stats=stats,
        events=events,
        scalars=scalars,
        slab=slab,
        out=out,
        ev_buf=ev_buf,
        l1_state=l1_state,
        l2_state=l2_state,
        rc_state=rc_state,
        free_at=free_at,
    )


def _invoke(cell: CompiledCell, preps: Sequence[_PreparedCell]):
    """One FFI crossing for the whole *preps* group."""
    n = len(preps)
    if n == 1:
        scalars = preps[0].scalars
        slab = preps[0].slab
    else:
        scalars = np.concatenate([p.scalars for p in preps])
        slab = np.concatenate([p.slab for p in preps])
    ffi = cell.ffi
    cell.lib.lmi_cell_run_batch(
        n,
        ffi.cast("const int64_t *", scalars.ctypes.data),
        ffi.cast("void **", slab.ctypes.data),
    )
    stats = CODEGEN_STATS
    stats.batch_calls += 1
    stats.batch_cells += n
    if n > stats.max_batch:
        stats.max_batch = n


def _commit(prep: _PreparedCell) -> int:
    """Fold a finished kernel's outputs back into simulator state."""
    (
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        dram_requests,
        dram_queue_delay,
        rc_hits,
        rc_misses,
        p_l2_hits,
        p_l2_misses,
        stall_cycles,
        finish,
        ev_count,
        _status,
    ) = prep.out.tolist()

    simulator = prep.simulator
    simulator.l1.native_commit(*prep.l1_state)
    simulator.l2.native_commit(*prep.l2_state)
    if prep.rc_state is not None:
        simulator.model.rcache.native_commit(*prep.rc_state)
    dram = simulator.dram
    dram.channel_free_at[:] = prep.free_at.tolist()

    if prep.events is not None:
        prep.events.append(prep.ev_buf[: ev_count * 3].reshape(-1, 3))

    plan = prep.plan
    stats = prep.stats
    stats.instructions = plan.total_instructions
    stats.issue_stall_cycles = stall_cycles
    stats.extra_transactions = plan.extra_transactions
    stats.lsu_serialization_cycles = plan.lsu_serialization_cycles
    stats.l1_hits = l1_hits
    stats.l1_misses = l1_misses
    stats.l2_hits = l2_hits
    stats.l2_misses = l2_misses
    simulator.l1.stats.hits += l1_hits
    simulator.l1.stats.misses += l1_misses
    simulator.l2.stats.hits += l2_hits + p_l2_hits
    simulator.l2.stats.misses += l2_misses + p_l2_misses
    dram.stats.requests += dram_requests
    dram.stats.queue_delay_cycles += dram_queue_delay
    if prep.rc_state is not None:
        rc_stats = simulator.model.rcache.stats
        rc_stats.hits += rc_hits
        rc_stats.misses += rc_misses
    return int(finish)


def run_native(
    simulator,
    plan,
    stats,
    events: Optional[List] = None,
    sample_every: int = 1,
    sample_phase: int = 0,
) -> Optional[int]:
    """Run *plan* through its generated kernel; ``None`` → Python loop.

    Mutates *stats* and the simulator's cache/DRAM state exactly like
    :func:`repro.sim.columnar.run_columnar` only when it commits to
    running (all refusal checks — and the wide variant's scratch
    allocation — happen before any state is touched).  Every refusal
    is recorded via :func:`note_fallback`.

    When *events* is a list, the kernel records one ``(issue_cycle,
    warp, run_length)`` row per sampled issue run (the same ``seq %
    every == phase`` comb as the Python loop, applied to the same run
    sequence); the rows are appended to *events* after the run as one
    ``(n, 3)`` int64 view of the kernel's event buffer — so the C and
    Python fast paths produce identical blocks.
    """
    if _disabled():
        note_fallback("disabled")
        return None
    cell = load_cell(cell_spec_for(simulator, plan))
    if not isinstance(cell, CompiledCell):
        note_fallback(cell)
        return None
    prep = _prepare(
        simulator, plan, stats, events, sample_every, sample_phase
    )
    _invoke(cell, (prep,))
    if prep.out[13]:
        note_fallback("kernel-error")
        return None
    return _commit(prep)


def run_native_batch(requests: Sequence[Tuple]) -> List[Optional[int]]:
    """Run many traces natively with one FFI crossing per cell group.

    *requests* is a sequence of ``(simulator, plan, stats, events,
    sample_every, sample_phase)`` tuples — the :func:`run_native`
    signature, one per trace.  Requests are grouped by codegen cell;
    each group crosses the FFI once.  Simulators must be distinct
    objects — every request's cache state is exported before the
    group runs.

    Returns one finish-cycle (or ``None`` for any trace whose cell is
    unavailable — the caller runs those through the Python loop; the
    refusal is recorded via :func:`note_fallback` either way).
    Per-trace results, state mutations and event blocks are identical
    to ``[run_native(*r) for r in requests]``.
    """
    results: List[Optional[int]] = [None] * len(requests)
    if not requests:
        return results
    if _disabled():
        for _ in requests:
            note_fallback("disabled")
        return results
    groups: Dict[CellSpec, List[int]] = {}
    for index, request in enumerate(requests):
        spec = cell_spec_for(request[0], request[1])
        groups.setdefault(spec, []).append(index)
    for spec, indices in groups.items():
        cell = load_cell(spec)
        if not isinstance(cell, CompiledCell):
            for _ in indices:
                note_fallback(cell)
            continue
        preps = [_prepare(*requests[i]) for i in indices]
        _invoke(cell, preps)
        for i, prep in zip(indices, preps):
            if prep.out[13]:
                note_fallback("kernel-error")
                continue
            results[i] = _commit(prep)
    return results
