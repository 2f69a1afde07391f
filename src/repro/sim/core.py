"""SM timing simulator: GTO warp scheduling over a kernel trace.

Models one warp scheduler partition of an SM (Table IV: 4 GTO
schedulers per SM; simulating one partition with its share of warps
gives per-benchmark *relative* timing, which is what the normalized
Figure 12/13 results need).

The scheduler is greedy-then-oldest: it keeps issuing from the current
warp until that warp stalls on a dependency, then switches to the
oldest ready warp.  Memory instructions walk the L1 → L2 → HBM
hierarchy per coalesced transaction; extra transactions serialize at
the LSU.  The active :class:`~repro.sim.timing.TimingModel` injects
instructions (software schemes) and extra latencies (OCU, RCache).

Execution paths
---------------
One oracle and one fast path.  Every run the columnar lowering
understands is decoded into an :class:`~repro.sim.columnar.IssuePlan`
and replayed by the generated C kernel (:mod:`repro.sim.native`), or
by the pure-Python columnar issue loop when no kernel is available.
A run the plan cannot lower — a timing model that overrides a
decode-relevant hook, or a GPUShield model whose RCache is a warm
:class:`~repro.sim.cache.SetAssociativeCache` — runs the linear-scan
oracle of :mod:`repro.sim.reference` against this simulator's own
L1/L2/DRAM, so warm state and a shared L2 carry across both paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import SimulationError
from ..telemetry import EventKind
from ..telemetry.registry import MetricsRegistry
from ..telemetry.runtime import TELEMETRY, resolve_sample_every, sample_phase
from .cache import ArrayLruCache
from .dram import DramModel
from .timing import BaselineTiming, TimingModel
from .trace import KernelTrace


@dataclass
class SimStats:
    """Counters accumulated over one simulation.

    Kept as plain ``int`` fields (not live registry views) because they
    sit in the simulator's hot loop; :meth:`publish` copies the totals
    into a :class:`~repro.telemetry.registry.MetricsRegistry` at the
    end of a run when telemetry is enabled.
    """

    instructions: int = 0
    issue_stall_cycles: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    #: Cycles spent serializing extra coalesced transactions at the LSU.
    lsu_serialization_cycles: int = 0
    #: Coalesced transactions beyond the first, per memory instruction.
    extra_transactions: int = 0

    def publish(self, registry: MetricsRegistry, **labels: object) -> None:
        """Add this run's totals to *registry* under ``sim.*`` counters."""
        registry.counter("sim.instructions", **labels).inc(self.instructions)
        registry.counter("sim.issue_stall_cycles", **labels).inc(
            self.issue_stall_cycles
        )
        registry.counter("sim.l1_hits", **labels).inc(self.l1_hits)
        registry.counter("sim.l1_misses", **labels).inc(self.l1_misses)
        registry.counter("sim.l2_hits", **labels).inc(self.l2_hits)
        registry.counter("sim.l2_misses", **labels).inc(self.l2_misses)
        registry.counter("sim.lsu_serialization_cycles", **labels).inc(
            self.lsu_serialization_cycles
        )
        registry.counter("sim.extra_transactions", **labels).inc(
            self.extra_transactions
        )


@dataclass
class SimResult:
    """Outcome of one kernel-trace simulation."""

    name: str
    cycles: int
    stats: SimStats

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.stats.instructions / self.cycles


class SmSimulator:
    """One warp-scheduler partition with its cache hierarchy.

    An instance is safely reusable: per-run counters live in a fresh
    :class:`SimStats` threaded through the helpers (never stored on
    the simulator), while cache/DRAM state intentionally persists
    across runs on the same instance (warm-cache semantics).

    Caches are :class:`ArrayLruCache` models, the state both the
    generated kernels and the Python columnar loop work on.  The fast
    path and the oracle fallback produce identical cycles and
    statistics (locked by ``tests/test_sim_columnar_equivalence.py``)
    and publish the same ``sim.*``/``cache.*`` counter totals when
    telemetry is enabled; the fast path also records sampled
    run-issue events (``REPRO_TELEMETRY_SAMPLE``).
    """

    def __init__(
        self,
        config: GpuConfig = DEFAULT_GPU_CONFIG,
        model: Optional[TimingModel] = None,
    ) -> None:
        self.config = config
        self.model = model if model is not None else BaselineTiming()
        self.l1 = ArrayLruCache(config.l1, "l1")
        self.l2 = ArrayLruCache(config.l2, "l2")
        self.dram = DramModel(config)
        self.model.bind(self)

    # ------------------------------------------------------------------

    def _fast_plan(self, trace: KernelTrace):
        """The issue plan when this run can take the fast path.

        Returns ``None`` — with the reason recorded on the native
        diagnostics registry (:func:`repro.sim.native.note_fallback`)
        — when the model has no columnar lowering or a warm
        :class:`~repro.sim.cache.SetAssociativeCache` RCache pins the
        oracle.  Used by both :meth:`run` and the experiment engine's
        batched dispatch.
        """
        from .columnar import plan_for
        from .native import note_fallback

        plan = plan_for(trace, self.model, self.config)
        if plan is None:
            note_fallback("custom-model")
            return None
        if plan.mem_probes is not None and not isinstance(
            getattr(self.model, "rcache", None), ArrayLruCache
        ):
            # GPUShield plans inline RCache probe rows; that needs the
            # array-backed RCache a cold model swaps in at bind time.
            note_fallback("warm-rcache")
            return None
        return plan

    def _fast_telemetry(self, trace: KernelTrace):
        """Fast-path telemetry decisions for one run.

        Counters are batch-published at end of run (never per record),
        and the issue loops record one (cycle, warp, run_length)
        triple per *sampled* issue run — the comb is seed-derived from
        the trace name so the recorded ring is identical across
        processes, batch sizes and --jobs values.
        """
        telem = TELEMETRY
        if telem.enabled:
            every = resolve_sample_every()
            return telem, [], every, sample_phase(trace.name, every)
        return telem, None, 1, 0

    def run(self, trace: KernelTrace) -> SimResult:
        """Simulate *trace* to completion; returns cycles and stats."""
        plan = self._fast_plan(trace)
        if plan is None:
            return self._run_oracle(trace)
        if not plan.runs:
            raise SimulationError("trace has no warps")
        stats = SimStats()
        telem, events, every, phase = self._fast_telemetry(trace)
        # The generated C kernel replays the plan against the same
        # cache/DRAM state; it returns None (no toolchain, compile
        # failure, REPRO_SIM_NATIVE=0) to hand the plan to the
        # pure-Python issue loop.
        from .columnar import run_columnar
        from .native import run_native

        cycles = run_native(
            self, plan, stats,
            events=events, sample_every=every, sample_phase=phase,
        )
        if cycles is None:
            cycles = run_columnar(
                self, trace, plan, stats,
                events=events, sample_every=every, sample_phase=phase,
            )
        if events is not None:
            self._publish_fast_path(trace.name, stats, events, telem)
        return SimResult(name=trace.name, cycles=cycles, stats=stats)

    def _run_oracle(self, trace: KernelTrace) -> SimResult:
        """The oracle's scan loop over this simulator's own state."""
        from .reference import ReferenceSmSimulator

        result = ReferenceSmSimulator.over(self).run(trace)
        telem = TELEMETRY
        if telem.enabled:
            self._publish_counters(trace.name, result.stats, telem)
        return result

    def _publish_fast_path(
        self, trace_name: str, stats: SimStats, events, telem
    ) -> None:
        """End-of-run telemetry flush for the columnar/native engines.

        Emits the sampled run-issue events collected by the issue loop
        (one :data:`~repro.telemetry.events.EventKind.WARP_ISSUE` per
        kept run, carrying the simulated issue cycle, warp index and
        run length), then folds the run's counter totals into the
        registry.
        """
        emit = telem.emit
        warp_issue = EventKind.WARP_ISSUE
        for cycle, warp, length in events:
            emit(
                warp_issue,
                trace=trace_name,
                warp=warp,
                clock=cycle,
                instructions=length,
            )
        self._publish_counters(trace_name, stats, telem)

    def _publish_counters(
        self, trace_name: str, stats: SimStats, telem
    ) -> None:
        """Fold one run's ``sim.*`` and L1/L2 ``cache.*`` totals in."""
        stats.publish(telem.registry, trace=trace_name)
        self.l1.stats.publish(telem.registry, unit="l1", trace=trace_name)
        self.l2.stats.publish(telem.registry, unit="l2", trace=trace_name)


def simulate(
    trace: KernelTrace,
    model: Optional[TimingModel] = None,
    config: GpuConfig = DEFAULT_GPU_CONFIG,
) -> SimResult:
    """Convenience wrapper: fresh simulator per run."""
    return SmSimulator(config, model).run(trace)
