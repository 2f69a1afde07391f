"""Columnar trace substrate and vectorized data plane for the timing
simulator.

A loop over Python lists of frozen
:class:`~repro.sim.trace.TraceInstruction` dataclasses pays one
attribute lookup per field per dynamic instruction.  This module
rebuilds that data plane as structure-of-arrays:

* :class:`ColumnarTrace` — NumPy columns for op-class codes, dependency
  and checked flags, plus CSR-packed per-instruction coalesced line
  addresses and buffer ids, with lossless converters from/to the
  dataclass form (and derived columns: transaction counts, memory-space
  codes, base latencies).
* **Vectorized stream expansion** — each rewriting
  :class:`~repro.sim.timing.TimingModel` lowers to per-instruction
  replication counts applied with ``np.repeat`` (Baggy Bounds: one
  original plus its check chain), memoized per ``(trace,
  expansion_key)`` on the trace's bounded
  :class:`~repro.sim.trace.TraceMemo`.
* :class:`IssuePlan` — pre-decoded per-warp issue descriptors.  The
  GTO scheduler issues *runs*: maximal sequences of instructions the
  current warp executes back-to-back (a run ends exactly where the
  next instruction depends on an in-flight result, or at stream end).
  Run boundaries, fixed result latencies (ALU, shared memory, the
  state-free model penalties such as the LMI OCU cycles), and the
  LSU-serialization / extra-transaction statistics are all functions
  of trace content alone, so they are computed once, vectorized, and
  the hot loop touches packed Python lists of ints instead of
  dataclass attributes.
* :func:`run_columnar` — the columnar issue loop.  Only genuinely
  stateful work remains serial: L1/L2/DRAM interactions of
  global/local memory transactions (inlined against
  :class:`~repro.sim.cache.ArrayLruCache` rows) and GPUShield RCache
  probes.  Everything else — entire ALU/shared runs — collapses to
  O(1) per run.

Cycle-for-cycle and stat-for-stat equivalence with the linear-scan
ground truth in :mod:`repro.sim.reference` is locked by
``tests/test_sim_columnar_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common.errors import SimulationError, TraceFormatError
from .timing import (
    ALU_LATENCY_CYCLES,
    GPUShieldTiming,
    SHARED_LATENCY_CYCLES,
    TRANSACTION_CYCLES,
    TimingModel,
    expand_stream,
)
from .trace import KernelTrace, OpClass, TraceInstruction, trace_memo

# ----------------------------------------------------------------------
# Op-class codes (the columnar encoding of OpClass).

#: Code order; index in this tuple == stored uint8 code.
OP_ORDER: Tuple[OpClass, ...] = (
    OpClass.INT,
    OpClass.FP,
    OpClass.LDG,
    OpClass.STG,
    OpClass.LDS,
    OpClass.STS,
    OpClass.LDL,
    OpClass.STL,
)
OP_CODE = {op: code for code, op in enumerate(OP_ORDER)}
(OP_INT, OP_FP, OP_LDG, OP_STG, OP_LDS, OP_STS, OP_LDL, OP_STL) = range(8)

#: Memory-space code per op code: 0 none, 1 global, 2 shared, 3 local.
_SPACE_BY_CODE = np.array([0, 0, 1, 1, 2, 2, 3, 3], dtype=np.uint8)


@dataclass
class ColumnarTrace:
    """Structure-of-arrays form of a :class:`KernelTrace`.

    Instruction columns are warp-major (warp 0's stream first);
    ``warp_offsets`` is the CSR index of warp boundaries into them,
    and ``line_offsets`` / ``buffer_offsets`` are CSR indices of each
    instruction's coalesced line addresses / buffer ids into the
    flattened ``lines`` / ``buffers`` columns.  The converters are
    lossless: ``to_trace(from_trace(t)) == t`` for every field,
    including default buffer ids on ALU records.
    """

    name: str
    ops: np.ndarray            #: uint8 op-class codes, [n]
    depends: np.ndarray        #: bool dependency flags, [n]
    checked: np.ndarray        #: bool LMI A-hint flags, [n]
    warp_offsets: np.ndarray   #: int64 CSR warp boundaries, [warps + 1]
    line_offsets: np.ndarray   #: int64 CSR into ``lines``, [n + 1]
    lines: np.ndarray          #: int64 flattened line addresses
    buffer_offsets: np.ndarray  #: int64 CSR into ``buffers``, [n + 1]
    buffers: np.ndarray        #: int64 flattened buffer ids

    def __post_init__(self) -> None:
        n = len(self.ops)
        if len(self.depends) != n or len(self.checked) != n:
            raise TraceFormatError("columnar flag columns disagree on length")
        if len(self.line_offsets) != n + 1 or len(self.buffer_offsets) != n + 1:
            raise TraceFormatError("columnar CSR offsets disagree on length")
        if len(self.warp_offsets) == 0 or self.warp_offsets[0] != 0:
            raise TraceFormatError("warp offsets must start at 0")
        if self.warp_offsets[-1] != n:
            raise TraceFormatError("warp offsets must end at the record count")

    # ------------------------------------------------------------------

    @property
    def warp_count(self) -> int:
        """Number of warps."""
        return len(self.warp_offsets) - 1

    @property
    def total_instructions(self) -> int:
        """Dynamic instruction count."""
        return len(self.ops)

    def transaction_counts(self) -> np.ndarray:
        """Coalesced transactions per instruction (0 for ALU ops)."""
        return np.diff(self.line_offsets)

    def space_codes(self) -> np.ndarray:
        """Memory-space code per instruction (0/1/2/3 = -/G/S/L)."""
        return _SPACE_BY_CODE[self.ops]

    def base_latencies(self) -> np.ndarray:
        """State-free base result latency per instruction.

        ALU and shared-memory records have fixed latencies; records on
        the L1/L2/DRAM path are marked ``-1`` (their latency depends on
        live cache state).
        """
        ops = self.ops
        extra = self.transaction_counts() - 1
        np.maximum(extra, 0, out=extra)
        lat = np.full(len(ops), -1, dtype=np.int64)
        alu = ops <= OP_FP
        lat[alu] = ALU_LATENCY_CYCLES
        shared = (ops == OP_LDS) | (ops == OP_STS)
        lat[shared] = SHARED_LATENCY_CYCLES + TRANSACTION_CYCLES * extra[shared]
        return lat

    def nbytes(self) -> int:
        """Total array payload in bytes."""
        return sum(
            column.nbytes
            for column in (
                self.ops, self.depends, self.checked, self.warp_offsets,
                self.line_offsets, self.lines, self.buffer_offsets,
                self.buffers,
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnarTrace):
            return NotImplemented
        return self.name == other.name and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (
                "ops", "depends", "checked", "warp_offsets",
                "line_offsets", "lines", "buffer_offsets", "buffers",
            )
        )

    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: KernelTrace) -> "ColumnarTrace":
        """Lossless dataclass → columnar conversion."""
        ops: List[int] = []
        depends: List[bool] = []
        checked: List[bool] = []
        warp_offsets: List[int] = [0]
        line_offsets: List[int] = [0]
        lines: List[int] = []
        buffer_offsets: List[int] = [0]
        buffers: List[int] = []
        op_code = OP_CODE
        for stream in trace.warps:
            for instr in stream:
                ops.append(op_code[instr.op])
                depends.append(instr.depends)
                checked.append(instr.checked)
                lines.extend(instr.lines)
                line_offsets.append(len(lines))
                buffers.extend(instr.buffer_ids)
                buffer_offsets.append(len(buffers))
            warp_offsets.append(len(ops))
        return cls(
            name=trace.name,
            ops=np.asarray(ops, dtype=np.uint8),
            depends=np.asarray(depends, dtype=bool),
            checked=np.asarray(checked, dtype=bool),
            warp_offsets=np.asarray(warp_offsets, dtype=np.int64),
            line_offsets=np.asarray(line_offsets, dtype=np.int64),
            lines=np.asarray(lines, dtype=np.int64),
            buffer_offsets=np.asarray(buffer_offsets, dtype=np.int64),
            buffers=np.asarray(buffers, dtype=np.int64),
        )

    def to_trace(self) -> KernelTrace:
        """Lossless columnar → dataclass conversion.

        The produced trace's derived-data memo is pre-seeded with this
        columnar object, so a follow-up simulation skips re-conversion.
        """
        ops = self.ops.tolist()
        depends = self.depends.tolist()
        checked = self.checked.tolist()
        lof = self.line_offsets.tolist()
        lines = self.lines.tolist()
        bof = self.buffer_offsets.tolist()
        buffers = self.buffers.tolist()
        order = OP_ORDER
        warps: List[List[TraceInstruction]] = []
        offsets = self.warp_offsets.tolist()
        for w in range(len(offsets) - 1):
            stream: List[TraceInstruction] = []
            append = stream.append
            for i in range(offsets[w], offsets[w + 1]):
                append(
                    TraceInstruction(
                        op=order[ops[i]],
                        depends=depends[i],
                        checked=checked[i],
                        lines=tuple(lines[lof[i]:lof[i + 1]]),
                        buffer_ids=tuple(buffers[bof[i]:bof[i + 1]]),
                    )
                )
            warps.append(stream)
        trace = KernelTrace(name=self.name, warps=warps)
        trace_memo(trace).put(("columnar",), self)
        return trace


def columnar_of(trace: KernelTrace) -> ColumnarTrace:
    """The columnar form of *trace*, memoized on the trace."""
    memo = trace_memo(trace)
    columnar = memo.get(("columnar",))
    if columnar is None:
        columnar = memo.put(("columnar",), ColumnarTrace.from_trace(trace))
    return columnar


# ----------------------------------------------------------------------
# Vectorized stream expansion.


def _model_namespace(model: TimingModel) -> Tuple[str, str]:
    """Memo-key namespace so equal content keys from *different* model
    classes can never alias each other's entries."""
    cls = type(model)
    return (cls.__module__, cls.__qualname__)


def expand_columnar(
    columnar: ColumnarTrace, model: TimingModel
) -> ColumnarTrace:
    """Apply *model*'s stream rewriting in columnar form.

    Identity models return the input unchanged.  The Baggy Bounds
    family lowers to per-instruction replication counts applied with
    ``np.repeat`` (each checked record becomes itself plus its
    serially-dependent check chain).  Unknown rewriting models fall
    back to the dataclass :func:`~repro.sim.timing.expand_stream`
    (correct, just not vectorized).
    """
    key = model.expansion_key()
    if key == ("identity",):
        return columnar
    if isinstance(key, tuple) and key and key[0] == "baggy":
        return _expand_checked_chain(columnar, int(key[1]))
    # Generic fallback: rewrite through the dataclass path.
    trace = columnar.to_trace()
    expanded = KernelTrace(
        name=trace.name,
        warps=[expand_stream(model, stream) for stream in trace.warps],
    )
    return ColumnarTrace.from_trace(expanded)


def expanded_columnar(
    trace: KernelTrace, model: TimingModel
) -> ColumnarTrace:
    """Memoized columnar expansion for *model* on *trace*."""
    key = model.expansion_key()
    if key == ("identity",):
        return columnar_of(trace)
    if key is None:
        return expand_columnar(columnar_of(trace), model)
    memo = trace_memo(trace)
    mkey = ("columnar-expand",) + _model_namespace(model) + tuple(key)
    expanded = memo.get(mkey)
    if expanded is None:
        expanded = memo.put(
            mkey, expand_columnar(columnar_of(trace), model)
        )
    return expanded


def _expand_checked_chain(
    columnar: ColumnarTrace, check_count: int
) -> ColumnarTrace:
    """``np.repeat`` lowering of the Baggy Bounds check injection."""
    n = columnar.total_instructions
    if n == 0 or check_count <= 0 or not bool(columnar.checked.any()):
        return columnar
    counts = np.where(columnar.checked, 1 + check_count, 1).astype(np.int64)
    cumulative = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(counts))
    )
    total = int(cumulative[-1])
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    starts = cumulative[:-1]  # output slot of each original record
    first = np.zeros(total, dtype=bool)
    first[starts] = True
    ops = np.where(first, columnar.ops[src], OP_INT).astype(np.uint8)
    depends = np.where(first, columnar.depends[src], True)
    checked = np.where(first, columnar.checked[src], False)
    # Injected checks carry no memory transactions, so the flattened
    # line column is unchanged — only the offsets are re-spread.
    line_counts = np.diff(columnar.line_offsets)
    out_line_counts = np.where(first, line_counts[src], 0)
    line_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(out_line_counts))
    )
    # Injected checks take the default (0,) buffer id; original buffer
    # runs are scattered to their new offsets in one fancy-index store.
    buffer_counts = np.diff(columnar.buffer_offsets)
    out_buffer_counts = np.where(first, buffer_counts[src], 1)
    buffer_offsets = np.concatenate(
        (np.zeros(1, dtype=np.int64), np.cumsum(out_buffer_counts))
    )
    buffers = np.zeros(int(buffer_offsets[-1]), dtype=np.int64)
    within = np.arange(len(columnar.buffers), dtype=np.int64) - np.repeat(
        columnar.buffer_offsets[:-1], buffer_counts
    )
    targets = np.repeat(buffer_offsets[starts], buffer_counts) + within
    buffers[targets] = columnar.buffers
    return ColumnarTrace(
        name=columnar.name,
        ops=ops,
        depends=depends,
        checked=checked,
        warp_offsets=cumulative[columnar.warp_offsets],
        line_offsets=line_offsets,
        lines=columnar.lines.copy(),
        buffer_offsets=buffer_offsets,
        buffers=buffers,
    )


# ----------------------------------------------------------------------
# Pre-decoded per-warp issue descriptors.


@dataclass
class IssuePlan:
    """Packed issue descriptors for one (trace, model, geometry) tuple.

    ``runs[w]`` holds one ``(length, comp_delta, mem_lo, mem_hi)``
    tuple per issue run of warp *w*, **in reverse issue order** (the
    hot loop copies each list once per simulation and consumes it with
    ``list.pop()``): ``length`` instructions issue back-to-back,
    ``comp_delta`` is ``length - 1 + final_latency`` for runs whose
    final result latency is state-free (ALU, shared memory, the LMI
    OCU penalty) or ``-1`` when the final instruction rides the
    stateful L1/L2/DRAM path, and ``mem_lo:mem_hi`` indexes the warp's
    memory tables: ``mem_rel[w]`` (issue offset within the run) and
    ``mem_geom[w]`` — per memory instruction, a sequence of
    pre-resolved per-line ``(l1_set, l1_tag, l2_set, l2_tag, channel,
    lsu_offset)`` tuples, so the issue loop performs no address
    arithmetic at all.  For GPUShield, ``mem_probes[w]`` carries
    pre-resolved ``(rc_set, rc_tag, meta_l2_set, meta_l2_tag,
    meta_channel)`` probe tuples (deduplicated per instruction,
    preserving the reference engine's set iteration order).  All
    containers hold plain Python ints: the hot loop never touches
    NumPy scalars.
    """

    total_instructions: int
    extra_transactions: int
    lsu_serialization_cycles: int
    runs: List[List[Tuple[int, int, int, int]]]
    mem_rel: List[List[int]]
    mem_geom: List[List[List[Tuple[int, int, int, int, int, int]]]]
    mem_probes: Optional[
        List[List[Tuple[Tuple[int, int, int, int, int], ...]]]
    ] = None
    #: Lazily materialized per-warp op-name lists (telemetry only).
    _op_names: Optional[List[List[str]]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def total_runs(self) -> int:
        """Issue runs across all warps (scheduler events per replay).

        One run is one uninterrupted issue burst; this is the unit the
        sampled-event comb walks and the batch/throughput accounting
        of the native executor reports against.
        """
        return sum(len(runs) for runs in self.runs)


#: Cache/DRAM geometry baked into a plan: ``(l1_line_bits, l1_sets,
#: l2_line_bits, l2_sets, dram_channels)``.
PlanGeometry = Tuple[int, int, int, int, int]


def plan_geometry(config) -> PlanGeometry:
    """The decode-relevant geometry of a :class:`GpuConfig`."""
    from ..common.bitops import log2_exact

    return (
        log2_exact(config.l1.line_bytes),
        config.l1.num_sets,
        log2_exact(config.l2.line_bytes),
        config.l2.num_sets,
        config.dram_channels,
    )


def decode_issue_plan(
    columnar: ColumnarTrace, plan_key: Tuple, geometry: PlanGeometry
) -> IssuePlan:
    """Vectorized decode of *columnar* into an :class:`IssuePlan`.

    *plan_key* is a :meth:`TimingModel.columnar_plan_key` value; the
    caller is responsible for expanding rewriting models first.
    *geometry* bakes the cache/DRAM address mapping into the plan (it
    is part of the plan memo key).
    """
    family = plan_key[0]
    ops = columnar.ops
    n = len(ops)
    wo = columnar.warp_offsets
    warp_count = columnar.warp_count
    if n == 0:
        return IssuePlan(
            total_instructions=0,
            extra_transactions=0,
            lsu_serialization_cycles=0,
            runs=[[] for _ in range(warp_count)],
            mem_rel=[[] for _ in range(warp_count)],
            mem_geom=[[] for _ in range(warp_count)],
            mem_probes=(
                [[] for _ in range(warp_count)]
                if family == "gpushield" else None
            ),
        )

    latencies = columnar.base_latencies()
    final_extra = None
    if family == "lmi":
        # The OCU penalty rides on *every* checked instruction (the
        # reference model adds it regardless of op class).  Fixed-latency
        # records absorb it here; checked records on the stateful
        # L1-path carry it through the sign-encoded ``comp_delta``.
        ocu = int(plan_key[1])
        checked = columnar.checked
        latencies[checked & (latencies >= 0)] += ocu
        final_extra = np.where(checked, ocu, 0).astype(np.int64)

    transaction_extra = columnar.transaction_counts() - 1
    np.maximum(transaction_extra, 0, out=transaction_extra)
    extra_transactions = int(transaction_extra.sum())

    # Run segmentation: a run starts at every warp boundary and at
    # every dependent instruction (its predecessor's run ends there).
    run_start_mask = columnar.depends.copy()
    warp_starts = wo[:-1]
    run_start_mask[warp_starts[warp_starts < n]] = True
    run_starts = np.nonzero(run_start_mask)[0]
    run_ends = np.empty_like(run_starts)
    run_ends[:-1] = run_starts[1:] - 1
    run_ends[-1] = n - 1
    run_lengths = run_ends - run_starts + 1
    run_last_latency = latencies[run_ends]
    # comp_delta: completion cycle of the run's final instruction
    # relative to the run's first issue cycle.  Negative values flag a
    # stateful (L1-path) final record and encode its state-free extra
    # latency addend as ``-(1 + extra)`` (plain ``-1`` when none).
    if final_extra is None:
        comp_delta = np.where(
            run_last_latency < 0, -1, run_lengths - 1 + run_last_latency
        )
    else:
        comp_delta = np.where(
            run_last_latency < 0,
            -1 - final_extra[run_ends],
            run_lengths - 1 + run_last_latency,
        )

    # Memory tables: only L1-path records stay stateful.
    l1_mask = (
        (ops == OP_LDG) | (ops == OP_STG) | (ops == OP_LDL) | (ops == OP_STL)
    )
    mem_positions = np.nonzero(l1_mask)[0]
    run_id = np.cumsum(run_start_mask) - 1
    mem_rel_global = mem_positions - run_starts[run_id[mem_positions]]
    mem_lo = np.searchsorted(mem_positions, run_starts)
    mem_hi = np.searchsorted(mem_positions, run_ends + 1)
    run_warp = np.searchsorted(wo, run_starts, side="right") - 1
    warp_mem_start = np.searchsorted(mem_positions, wo[:-1])
    mem_lo_local = mem_lo - warp_mem_start[run_warp]
    mem_hi_local = mem_hi - warp_mem_start[run_warp]
    warp_run_lo = np.searchsorted(run_starts, wo[:-1])
    warp_run_hi = np.searchsorted(run_starts, wo[1:])

    # Python-int packing (NumPy scalars are ~3x slower in the loop).
    # Per-warp run lists are stored in reverse issue order, so the hot
    # loop consumes them with O(1) ``list.pop()``.
    lengths_l = run_lengths.tolist()
    comp_l = comp_delta.tolist()
    mem_lo_l = mem_lo_local.tolist()
    mem_hi_l = mem_hi_local.tolist()
    run_lo_l = warp_run_lo.tolist()
    run_hi_l = warp_run_hi.tolist()
    runs: List[List[Tuple[int, int, int, int]]] = []
    for w in range(warp_count):
        lo, hi = run_lo_l[w], run_hi_l[w]
        packed = list(zip(lengths_l[lo:hi], comp_l[lo:hi],
                          mem_lo_l[lo:hi], mem_hi_l[lo:hi]))
        packed.reverse()
        runs.append(packed)

    # Pre-resolved per-line geometry: set indices, tags, DRAM channel
    # and the LSU serialization offset of every coalesced transaction.
    l1_bits, l1_sets, l2_bits, l2_sets, channels = geometry
    lines = columnar.lines
    shifted1 = lines >> l1_bits
    shifted2 = lines >> l2_bits
    line_counts = np.diff(columnar.line_offsets)
    tx_offsets = (
        np.arange(len(lines), dtype=np.int64)
        - np.repeat(columnar.line_offsets[:-1], line_counts)
    ) * TRANSACTION_CYCLES
    geom_all = list(
        zip(
            (shifted1 % l1_sets).tolist(),
            (shifted1 // l1_sets).tolist(),
            (shifted2 % l2_sets).tolist(),
            (shifted2 // l2_sets).tolist(),
            ((lines >> 7) % channels).tolist(),
            tx_offsets.tolist(),
        )
    )

    mem_positions_l = mem_positions.tolist()
    mem_rel_global_l = mem_rel_global.tolist()
    line_offsets_l = columnar.line_offsets.tolist()
    bounds = warp_mem_start.tolist() + [len(mem_positions_l)]
    mem_rel: List[List[int]] = []
    mem_geom: List[List[List[Tuple[int, int, int, int, int, int]]]] = []
    for w in range(warp_count):
        lo, hi = bounds[w], bounds[w + 1]
        mem_rel.append(mem_rel_global_l[lo:hi])
        mem_geom.append(
            [
                geom_all[line_offsets_l[j]:line_offsets_l[j + 1]]
                for j in mem_positions_l[lo:hi]
            ]
        )

    mem_probes = None
    if family == "gpushield":
        entry_bytes = int(plan_key[1])
        rc_sets = int(plan_key[2])
        metadata_base = GPUShieldTiming.METADATA_BASE
        buffer_offsets_l = columnar.buffer_offsets.tolist()
        buffers_l = columnar.buffers.tolist()
        mem_probes = []
        for w in range(warp_count):
            lo, hi = bounds[w], bounds[w + 1]
            probes_w = []
            for j in mem_positions_l[lo:hi]:
                ids = buffers_l[buffer_offsets_l[j]:buffer_offsets_l[j + 1]]
                probe_list = []
                # set() built from the same values in the same order as
                # the reference model's `set(instr.buffer_ids)`, so the
                # probe (and RCache state) sequence matches exactly.
                for bid in set(ids):
                    meta_line = metadata_base + bid * entry_bytes
                    meta_shift = meta_line >> l2_bits
                    probe_list.append(
                        (
                            bid % rc_sets,
                            bid // rc_sets,
                            meta_shift % l2_sets,
                            meta_shift // l2_sets,
                            (meta_line >> 7) % channels,
                        )
                    )
                probes_w.append(tuple(probe_list))
            mem_probes.append(probes_w)

    return IssuePlan(
        total_instructions=n,
        extra_transactions=extra_transactions,
        lsu_serialization_cycles=TRANSACTION_CYCLES * extra_transactions,
        runs=runs,
        mem_rel=mem_rel,
        mem_geom=mem_geom,
        mem_probes=mem_probes,
    )


def plan_for(
    trace: KernelTrace, model: TimingModel, config
) -> Optional[IssuePlan]:
    """The memoized issue plan for *model* on *trace* under *config*.

    Returns ``None`` for models without a columnar lowering (user
    subclasses); the simulator then runs the oracle's scan loop.  The
    memo key covers the model family, its timing parameters and the
    config's cache/DRAM geometry, so distinct configs sharing one
    cached trace decode distinct plans.
    """
    plan_key = model.columnar_plan_key()
    if plan_key is None:
        return None
    geometry = plan_geometry(config)
    memo = trace_memo(trace)
    memo_key = (
        ("columnar-plan",)
        + _model_namespace(model)
        + tuple(plan_key)
        + geometry
    )
    plan = memo.get(memo_key)
    if plan is None:
        if plan_key[0] == "baggy":
            columnar = expanded_columnar(trace, model)
        else:
            columnar = columnar_of(trace)
        plan = memo.put(
            memo_key, decode_issue_plan(columnar, plan_key, geometry)
        )
    return plan


# ----------------------------------------------------------------------
# The columnar issue loop.


def run_columnar(
    simulator,
    trace: KernelTrace,
    plan: IssuePlan,
    stats,
    events: Optional[List[Tuple[int, int, int]]] = None,
    sample_every: int = 1,
    sample_phase: int = 0,
) -> int:
    """Simulate *trace* on *simulator* through *plan*.

    Fills *stats* (a :class:`~repro.sim.core.SimStats`) and returns the
    finish cycle.  Requires the simulator's L1/L2 (and, for GPUShield,
    the model's RCache) to be :class:`~repro.sim.cache.ArrayLruCache`
    instances — their dense rows are manipulated inline;
    :class:`~repro.sim.core.SmSimulator` guarantees that for every run
    it hands a plan.

    When *events* is a list, the loop appends one ``(issue_cycle,
    warp, run_length)`` tuple per *sampled* issue run: the *k*-th run
    issued overall is kept iff ``k % sample_every == sample_phase``.
    The caller (``SmSimulator.run``) derives the phase from a stable
    hash of the trace name (:func:`repro.telemetry.runtime.
    sample_phase`), so the sampling comb — and therefore the recorded
    ring — is identical across processes, reruns and ``--jobs``
    values.  The native executor's generated kernels
    (:mod:`repro.sim.codegen`) apply the *same* comb to the *same* run
    sequence, so both fast paths produce byte-identical event lists.

    Loop structure
    --------------
    The scheduler state is a *ready bitmask* (oldest ready warp =
    lowest set bit) plus wake *buckets*: a dict mapping completion
    cycle to the bitmask of warps waking then, with a min-heap over
    the distinct bucket cycles.  Waking ORs a whole bucket into the
    ready mask at once (simultaneous wakes are one event, and warp
    order within the mask preserves the oldest-first tie-break), so
    wake handling is O(parks), independent of elapsed simulated
    cycles.  Each iteration issues one whole run:
    fixed-latency runs collapse to O(1); runs touching global/local
    memory walk only their memory records through the pre-resolved
    geometry tuples.  When the issuing warp is the only ready one and
    nothing wakes before its dependency resolves, the clock
    fast-forwards in place instead of a park round-trip (GTO gives
    the current warp priority on ties, so this is exact).
    """
    config = simulator.config
    l1 = simulator.l1
    l2 = simulator.l2
    dram = simulator.dram
    model = simulator.model

    # Hot-loop locals: dense cache state and fixed latencies.
    l1_rows = l1.rows
    l1_ways = l1._ways
    l1_lat = config.l1.hit_latency
    l2_rows = l2.rows
    l2_ways = l2._ways
    l2_lat = config.l2.hit_latency
    free_at = dram.channel_free_at
    dram_latency = dram.latency
    line_cycles = dram.line_cycles
    tx = TRANSACTION_CYCLES

    mem_rel_all = plan.mem_rel
    mem_geom_all = plan.mem_geom
    probes_all = plan.mem_probes
    gpushield = probes_all is not None
    probes_w = None
    rc_hits = rc_misses = p_l2_hits = p_l2_misses = 0
    if gpushield:
        rcache = model.rcache
        rc_rows = rcache.rows
        rc_ways = rcache._ways

    # Sampled run-issue event recording (telemetry fast path).
    ev_append = events.append if events is not None else None
    ev_every = sample_every
    ev_phase = sample_phase
    issue_seq = 0

    # Per-simulation consumable copies of the (memoized) reversed
    # per-warp run lists.
    runs_left = [list(r) for r in plan.runs]
    warp_count = len(runs_left)
    finals = [0] * warp_count
    ready_mask = 0
    live = 0
    for w in range(warp_count):
        if runs_left[w]:
            ready_mask |= 1 << w
            live += 1

    # Wake buckets: ``buckets[cycle]`` is the ready bitmask of warps
    # whose dependency resolves at *cycle*, and ``bheap`` holds each
    # live bucket cycle exactly once (pushed on bucket creation,
    # popped on drain), so ``next_wake`` is always the exact earliest
    # outstanding wake.  Draining therefore costs one dict pop per
    # *distinct* completion cycle — O(parks), never O(elapsed cycles)
    # like a per-cycle timing-wheel scan — and simultaneous wakes
    # merge into a single event.
    buckets: Dict[int, int] = {}
    buckets_get = buckets.get
    buckets_pop = buckets.pop
    bheap: List[int] = []
    heappush_ = heappush
    heappop_ = heappop
    NEVER = 1 << 62
    next_wake = NEVER
    clock = 0
    current = 0
    current_bit = 1
    stall_cycles = 0
    l1_hits = l1_misses = l2_hits = l2_misses = 0
    dram_requests = 0
    dram_queue_delay = 0

    while live:
        if next_wake <= clock:
            ready_mask |= buckets_pop(next_wake)
            heappop_(bheap)
            next_wake = bheap[0] if bheap else NEVER
            while next_wake <= clock:
                ready_mask |= buckets_pop(next_wake)
                heappop_(bheap)
                next_wake = bheap[0] if bheap else NEVER
        if ready_mask:
            # Greedy-then-oldest: stick with the current warp while it
            # is ready, else the lowest set (oldest) ready bit.
            if not ready_mask & current_bit:
                current_bit = ready_mask & -ready_mask
                current = current_bit.bit_length() - 1
            w = current
        else:
            # No warp ready: jump straight to the earliest wake (the
            # top of the loop drains its bucket).
            if next_wake == NEVER:
                raise SimulationError(
                    "columnar scheduler wedged (wake accounting)"
                )
            stall_cycles += next_wake - clock
            clock = next_wake
            continue

        runs_w = runs_left[w]
        length, comp_delta, mem_lo, mem_hi = runs_w.pop()

        if ev_append is not None:
            if issue_seq % ev_every == ev_phase:
                ev_append((clock, w, length))
            issue_seq += 1

        if mem_lo != mem_hi:
            # Stateful portion: walk the run's global/local memory
            # records through L1 → L2 → HBM at their exact issue
            # cycles.  Only the run-final record's latency is consumed
            # (earlier completions are overwritten by later issues);
            # mid-run records still mutate cache/DRAM state and the
            # hit/miss counters, exactly as the reference loop does.
            rel_w = mem_rel_all[w]
            geom_w = mem_geom_all[w]
            if gpushield:
                probes_w = probes_all[w]
            last_mem = mem_hi if comp_delta >= 0 else mem_hi - 1
            for mi in range(mem_lo, last_mem):
                # State-only memory record (result latency discarded).
                # Cache rows are insertion-ordered dicts whose stored
                # value is always ``None``, so a single ``pop`` both
                # answers "was it resident?" (``None`` vs the ``0``
                # default) and unlinks it for the MRU reinsert.
                for l1s, l1t, l2s, l2t, ch, txo in geom_w[mi]:
                    row = l1_rows[l1s]
                    if row.pop(l1t, 0) is None:
                        row[l1t] = None
                        l1_hits += 1
                    else:
                        l1_misses += 1
                        row[l1t] = None
                        if len(row) > l1_ways:
                            del row[next(iter(row))]
                        row2 = l2_rows[l2s]
                        if row2.pop(l2t, 0) is None:
                            row2[l2t] = None
                            l2_hits += 1
                        else:
                            l2_misses += 1
                            row2[l2t] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            now = clock + rel_w[mi]
                            free = free_at[ch]
                            start = now if now >= free else free
                            free_at[ch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                if probes_w is not None:
                    for rcs, rct, mls, mlt, mch in probes_w[mi]:
                        rrow = rc_rows[rcs]
                        if rrow.pop(rct, 0) is None:
                            rrow[rct] = None
                            rc_hits += 1
                            continue
                        rc_misses += 1
                        rrow[rct] = None
                        if len(rrow) > rc_ways:
                            del rrow[next(iter(rrow))]
                        row2 = l2_rows[mls]
                        if row2.pop(mlt, 0) is None:
                            row2[mlt] = None
                            p_l2_hits += 1
                        else:
                            p_l2_misses += 1
                            row2[mlt] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            now = clock + rel_w[mi]
                            free = free_at[mch]
                            start = now if now >= free else free
                            free_at[mch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
            if comp_delta < 0:
                # Run-final memory record: its slowest transaction
                # (plus the LSU serialization offset, plus GPUShield's
                # probe penalty) is the run's completion latency.
                now = clock + rel_w[last_mem]
                slowest = 0
                for l1s, l1t, l2s, l2t, ch, txo in geom_w[last_mem]:
                    row = l1_rows[l1s]
                    if row.pop(l1t, 0) is None:
                        row[l1t] = None
                        l1_hits += 1
                        latency = l1_lat
                    else:
                        l1_misses += 1
                        row[l1t] = None
                        if len(row) > l1_ways:
                            del row[next(iter(row))]
                        row2 = l2_rows[l2s]
                        if row2.pop(l2t, 0) is None:
                            row2[l2t] = None
                            l2_hits += 1
                            latency = l2_lat
                        else:
                            l2_misses += 1
                            row2[l2t] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            free = free_at[ch]
                            start = now if now >= free else free
                            free_at[ch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                            latency = start + dram_latency - now
                    candidate = latency + txo
                    if candidate > slowest:
                        slowest = candidate
                if probes_w is not None:
                    extra_misses = 0
                    probe_slowest = 0
                    for rcs, rct, mls, mlt, mch in probes_w[last_mem]:
                        rrow = rc_rows[rcs]
                        if rrow.pop(rct, 0) is None:
                            rrow[rct] = None
                            rc_hits += 1
                            continue
                        rc_misses += 1
                        rrow[rct] = None
                        if len(rrow) > rc_ways:
                            del rrow[next(iter(rrow))]
                        extra_misses += 1
                        row2 = l2_rows[mls]
                        if row2.pop(mlt, 0) is None:
                            row2[mlt] = None
                            p_l2_hits += 1
                            probe_latency = l2_lat
                        else:
                            p_l2_misses += 1
                            row2[mlt] = None
                            if len(row2) > l2_ways:
                                del row2[next(iter(row2))]
                            free = free_at[mch]
                            start = now if now >= free else free
                            free_at[mch] = start + line_cycles
                            dram_requests += 1
                            dram_queue_delay += start - now
                            probe_latency = start + dram_latency - now
                        if probe_latency > probe_slowest:
                            probe_slowest = probe_latency
                    if extra_misses > 1:
                        # Metadata fills serialize at the RCache port.
                        probe_slowest += tx * (extra_misses - 1)
                    slowest += probe_slowest
                # ``-1 - comp_delta`` recovers the state-free extra
                # latency addend encoded by the decode (0 for -1).
                comp_delta = length - 2 + slowest - comp_delta

        complete = clock + comp_delta
        clock += length
        if not runs_w:
            # Warp retired; only its final completion matters for the
            # finish cycle.
            live -= 1
            ready_mask ^= current_bit
            finals[w] = complete
        elif complete > clock:
            # Next run opens on a dependent instruction: park until
            # the final result lands — unless no other warp can claim
            # an issue slot first, in which case the clock
            # fast-forwards in place (ties keep the current warp).
            if ready_mask == current_bit and next_wake >= complete:
                stall_cycles += complete - clock
                clock = complete
            else:
                ready_mask ^= current_bit
                prev = buckets_get(complete)
                if prev is None:
                    buckets[complete] = current_bit
                    heappush_(bheap, complete)
                    if complete < next_wake:
                        next_wake = complete
                else:
                    buckets[complete] = prev | current_bit
        # Otherwise the warp stays ready (and current): the dependent
        # result completes within the issue cycle, so the warp never
        # parks (a park needs `complete > clock`).

    stats.instructions = plan.total_instructions
    stats.issue_stall_cycles = stall_cycles
    stats.extra_transactions = plan.extra_transactions
    stats.lsu_serialization_cycles = plan.lsu_serialization_cycles
    stats.l1_hits = l1_hits
    stats.l1_misses = l1_misses
    stats.l2_hits = l2_hits
    stats.l2_misses = l2_misses
    l1_stats = l1.stats
    l1_stats.hits += l1_hits
    l1_stats.misses += l1_misses
    l2_stats = l2.stats
    l2_stats.hits += l2_hits + p_l2_hits
    l2_stats.misses += l2_misses + p_l2_misses
    dram_stats = dram.stats
    dram_stats.requests += dram_requests
    dram_stats.queue_delay_cycles += dram_queue_delay
    if gpushield:
        rc_stats = rcache.stats
        rc_stats.hits += rc_hits
        rc_stats.misses += rc_misses

    finish = 0
    for value in finals:
        if value > finish:
            finish = value
    return finish
