"""Multi-SM GPU simulation.

:class:`GpuSimulator` distributes a kernel's warps over several SM
partitions, each with a private L1 (as on real hardware) but all
sharing one L2 and one HBM model — so cache pressure and memory
bandwidth contention scale with the number of active SMs, as they do
on the Table IV machine.

SMs run concurrently in simulated time: each partition is simulated
independently against the shared L2/DRAM (their requests interleave
through the shared models' state), and the kernel finishes when the
slowest SM finishes.  This coarse concurrency model is exact for the
embarrassingly-parallel traces the workload generator emits and keeps
Python-side cost linear in total instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..common.config import DEFAULT_GPU_CONFIG, GpuConfig
from ..common.errors import SimulationError
from ..telemetry.runtime import TELEMETRY
from .cache import ArrayLruCache
from .core import SimResult, SmSimulator
from .timing import BaselineTiming, TimingModel
from .trace import KernelTrace


@dataclass
class GpuSimResult:
    """Outcome of a multi-SM simulation."""

    name: str
    cycles: int
    per_sm: List[SimResult] = field(default_factory=list)

    @property
    def total_instructions(self) -> int:
        """Dynamic instructions across all SMs."""
        return sum(r.stats.instructions for r in self.per_sm)

    @property
    def load_imbalance(self) -> float:
        """Slowest-to-mean cycle ratio across SMs (1.0 = balanced)."""
        if not self.per_sm:
            return 1.0
        mean = sum(r.cycles for r in self.per_sm) / len(self.per_sm)
        if mean == 0:
            return 1.0
        return self.cycles / mean

    @property
    def issue_stall_cycles(self) -> int:
        """Issue-stall cycles summed over all SMs."""
        return sum(r.stats.issue_stall_cycles for r in self.per_sm)

    @property
    def lsu_serialization_cycles(self) -> int:
        """LSU serialization cycles summed over all SMs."""
        return sum(r.stats.lsu_serialization_cycles for r in self.per_sm)

    @property
    def extra_transactions(self) -> int:
        """Extra coalesced transactions summed over all SMs."""
        return sum(r.stats.extra_transactions for r in self.per_sm)

    def format_summary(self) -> str:
        """One-line rendering of the headline numbers."""
        return (
            f"[{self.name}] cycles={self.cycles} "
            f"instructions={self.total_instructions} "
            f"sms={len(self.per_sm)} "
            f"issue_stalls={self.issue_stall_cycles} "
            f"lsu_serialization={self.lsu_serialization_cycles} "
            f"extra_transactions={self.extra_transactions} "
            f"imbalance={self.load_imbalance:.2f}"
        )


class GpuSimulator:
    """N SM partitions over a shared L2 + HBM."""

    def __init__(
        self,
        config: GpuConfig = DEFAULT_GPU_CONFIG,
        model_factory: Optional[Callable[[], TimingModel]] = None,
        *,
        num_sms: Optional[int] = None,
    ) -> None:
        self.config = config
        self.model_factory = model_factory or BaselineTiming
        self.num_sms = num_sms if num_sms is not None else config.num_sms
        if self.num_sms <= 0:
            raise SimulationError("need at least one SM")

    def run(self, trace: KernelTrace) -> GpuSimResult:
        """Distribute warps round-robin over SMs and simulate."""
        if not trace.warps:
            raise SimulationError("trace has no warps")
        shards: List[List] = [[] for _ in range(min(self.num_sms, len(trace.warps)))]
        for index, stream in enumerate(trace.warps):
            shards[index % len(shards)].append(stream)

        # L2 *contents* are shared (SMs warm it for each other); HBM
        # bandwidth contention is mean-field: each active SM sees its
        # 1/N share of channels.  (A literally-shared DRAM queue would
        # conflate the SMs' independent timelines, since shards are
        # simulated one after another.)
        shared_l2 = ArrayLruCache(self.config.l2, "l2")
        active = len(shards)
        contended = GpuConfig(
            num_sms=self.config.num_sms,
            clock_ghz=self.config.clock_ghz,
            warps_per_scheduler=self.config.warps_per_scheduler,
            schedulers_per_sm=self.config.schedulers_per_sm,
            warp_size=self.config.warp_size,
            l1=self.config.l1,
            l2=self.config.l2,
            dram_latency=self.config.dram_latency,
            dram_bytes=self.config.dram_bytes,
            dram_channels=self.config.dram_channels,
            dram_bandwidth_bytes_per_cycle=max(
                1, self.config.dram_bandwidth_bytes_per_cycle // active
            ),
        )
        per_sm: List[SimResult] = []
        telem = TELEMETRY
        for sm_index, warps in enumerate(shards):
            simulator = SmSimulator(contended, self.model_factory())
            simulator.l2 = shared_l2
            shard = KernelTrace(name=f"{trace.name}.sm{sm_index}", warps=warps)
            with telem.span(
                f"sim:{shard.name}", "sim", tid=sm_index, trace=trace.name
            ):
                per_sm.append(simulator.run(shard))
        return GpuSimResult(
            name=trace.name,
            cycles=max(r.cycles for r in per_sm),
            per_sm=per_sm,
        )
