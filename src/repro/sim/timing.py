"""Per-mechanism timing models for the SM simulator.

Each model states how a safety scheme perturbs execution:

* :class:`BaselineTiming` — no perturbation.
* :class:`LmiTiming` — the OCU's register-sliced pipeline adds
  ``ocu_cycles`` (3 at >3 GHz, section XI-C) of *result latency* to
  checked pointer-arithmetic instructions.  Issue bandwidth is
  untouched; the cost only appears when a dependent instruction waits.
* :class:`GPUShieldTiming` — every global/local memory instruction
  also looks its buffer's bounds up in a small L1 RCache; a miss
  stalls the access for an L2-round-trip metadata fetch.  The RCache
  is much smaller than the L1 D$, which is exactly the paper's
  explanation for the needle/LSTM spikes ("L1 D$ hits and L1 R$
  misses ... for uncoalesced memory operations").
* :class:`BaggyBoundsTiming` — the software scheme injects a
  dependent bounds-check instruction sequence after every pointer
  operation, consuming issue slots (stream expansion).

The DBI tools of Figure 13 are modelled analytically in
:mod:`repro.experiments.fig13_dbi` — their >30x slowdowns come from
inserted-instruction *counts*, which do not need a cycle simulator.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..common.config import CacheConfig
from .cache import ArrayLruCache, SetAssociativeCache
from .trace import OpClass, TraceInstruction

#: Injected SASS instructions per software baggy-bounds check
#: (64-bit pointer: mask build, shift, xor, and, compare, trap branch,
#: spilled across both 32-bit halves).
BAGGY_CHECK_INSTRUCTIONS = 12

#: Base result latency of ALU (INT/FP) instructions, cycles.
ALU_LATENCY_CYCLES = 4
#: Base result latency of shared-memory instructions, cycles.
SHARED_LATENCY_CYCLES = 20
#: Extra LSU serialization cycles per additional coalesced transaction.
TRANSACTION_CYCLES = 4


#: Expansion key of models whose :meth:`TimingModel.expand` is the
#: identity rewrite (the expanded stream *is* the input stream).
IDENTITY_EXPANSION = ("identity",)


class TimingModel:
    """Baseline interface: identity expansion, no extra latency."""

    name = "baseline"

    def bind(self, simulator) -> None:
        """Receive the owning simulator (cache hierarchy access)."""
        self._simulator = simulator

    def expand(self, instr: TraceInstruction) -> Iterator[TraceInstruction]:
        """Rewrite one trace instruction into the issued sequence."""
        yield instr

    def expansion_key(self):
        """Content key identifying what :meth:`expand` would produce.

        Two model instances with equal keys produce identical expanded
        streams for the same input, so the simulator may share one
        expansion between them (a per-trace memo keyed on this value).
        Models that override :meth:`expand` without overriding this
        method return ``None``, which disables the memo for them.
        """
        if type(self).expand is TimingModel.expand:
            return IDENTITY_EXPANSION
        return None

    def extra_latency(self, instr: TraceInstruction, now: int) -> int:
        """Additional result latency for *instr* at cycle *now*."""
        return 0

    def _overrides_timing_hooks(self, family) -> bool:
        """True when a subclass replaces any decode-relevant hook.

        The columnar lowering of *family* is correct for any subclass
        that keeps the family's :meth:`expand`, :meth:`expansion_key`
        and :meth:`extra_latency` — attribute-only subclasses (renames,
        extra bookkeeping, custom ``bind`` state) therefore keep the
        fast path, including the generated native kernels.  Overriding
        any of the three makes the model opaque to the lowering and
        routes it to the oracle's scan loop.
        """
        cls = type(self)
        return (
            cls.expand is not family.expand
            or cls.expansion_key is not family.expansion_key
            or cls.extra_latency is not family.extra_latency
        )

    def columnar_plan_key(self):
        """Content key of this model's columnar issue-plan lowering.

        The columnar engine (:mod:`repro.sim.columnar`) pre-decodes a
        trace into packed per-warp issue descriptors whose shape
        depends only on the model family and its timing parameters —
        never on simulator state.  Two instances with equal keys decode
        to identical plans, so the per-trace memo may share one.
        ``None`` declares the model opaque to the vectorized lowering;
        the simulator then falls back to the oracle's scan loop for it.
        Subclasses that override none of the decode-relevant hooks
        (:meth:`expand`, :meth:`expansion_key`, :meth:`extra_latency`)
        inherit their family's key — and with it the columnar and
        generated-native fast paths.
        """
        if self._overrides_timing_hooks(TimingModel):
            return None
        return ("baseline",)


class BaselineTiming(TimingModel):
    """Unprotected GPU."""


class LmiTiming(TimingModel):
    """Hardware OCU: +3 cycles on checked pointer arithmetic."""

    name = "lmi"

    def __init__(self, ocu_cycles: int = 3) -> None:
        self.ocu_cycles = ocu_cycles

    def extra_latency(self, instr: TraceInstruction, now: int) -> int:
        if instr.checked:
            return self.ocu_cycles
        return 0

    def columnar_plan_key(self):
        """The OCU penalty is the only decode-relevant parameter."""
        cls = type(self)
        if (
            cls.extra_latency is not LmiTiming.extra_latency
            or cls.expand is not TimingModel.expand
            or cls.expansion_key is not TimingModel.expansion_key
        ):
            return None
        return ("lmi", self.ocu_cycles)


class GPUShieldTiming(TimingModel):
    """Bounds metadata cached in a small per-scheduler L1 RCache."""

    name = "gpushield"

    #: Virtual address range where the bounds table lives (its fetches
    #: traverse the L2/HBM path like any other global-memory traffic).
    METADATA_BASE = 0x0F00_0000_0000

    def __init__(
        self,
        *,
        rcache_bytes: int = 256,
        rcache_ways: int = 4,
        entry_bytes: int = 16,
    ) -> None:
        # The RCache is deliberately much smaller than the L1 D$
        # (Table VI: ~910 B/warp); one entry holds a buffer's
        # (base, limit) pair.
        self.rcache = SetAssociativeCache(
            CacheConfig(
                size_bytes=rcache_bytes,
                line_bytes=entry_bytes,
                ways=rcache_ways,
                hit_latency=1,
            ),
            name="rcache",
        )
        self.entry_bytes = entry_bytes
        self._simulator = None

    def bind(self, simulator) -> None:
        """Receive the owning simulator; align the RCache data plane.

        The fast path inlines RCache probes against
        :class:`ArrayLruCache` recency rows, so a still-cold RCache (no
        accesses, no contents) is swapped to the array-backed model
        here.  The :class:`~repro.sim.cache.CacheStats` object is
        carried over, so external references to ``rcache.stats`` keep
        observing the live counters.  A warm RCache is left alone — its
        contents are simulation state — which makes the simulator run
        the oracle's scan loop instead of silently flushing it.
        """
        self._simulator = simulator
        if (
            type(self.rcache) is SetAssociativeCache
            and not self.rcache.stats.accesses
            and not self.rcache._sets
        ):
            replacement = ArrayLruCache(self.rcache.config, name=self.rcache.name)
            replacement.stats = self.rcache.stats
            self.rcache = replacement

    def extra_latency(self, instr: TraceInstruction, now: int) -> int:
        if instr.op not in (OpClass.LDG, OpClass.STG, OpClass.LDL, OpClass.STL):
            return 0
        # One bounds lookup per distinct buffer the warp's lanes touch;
        # uncoalesced scattered accesses probe many entries, which is
        # the needle/LSTM pathology of the paper's section XI-A.
        slowest = 0
        extra_misses = 0
        for buffer_id in set(instr.buffer_ids):
            if self.rcache.access(buffer_id * self.entry_bytes):
                continue  # lookup overlaps the D$ access
            extra_misses += 1
            sim = self._simulator
            if sim is None:
                slowest = max(slowest, 200)
                continue
            meta_line = self.METADATA_BASE + buffer_id * self.entry_bytes
            if sim.l2.access(meta_line):
                latency = sim.config.l2.hit_latency
            else:
                latency = sim.dram.request(meta_line, now) - now
            slowest = max(slowest, latency)
        if extra_misses > 1:
            # Metadata fills serialize at the RCache fill port.
            slowest += 4 * (extra_misses - 1)
        return slowest

    def columnar_plan_key(self):
        """Probe addresses depend only on the metadata entry size.

        RCache *state* deliberately stays out of the key: the plan
        pre-computes the probe address list per memory instruction,
        while the stateful lookup itself runs against the live RCache
        during simulation.
        """
        cls = type(self)
        if (
            cls.extra_latency is not GPUShieldTiming.extra_latency
            or cls.expand is not TimingModel.expand
            or cls.expansion_key is not TimingModel.expansion_key
        ):
            return None
        return ("gpushield", self.entry_bytes, self.rcache.config.num_sets)


#: The one injected-check instruction shape: a serially-dependent INT
#: op (mask build, XOR, AND, compare, predicated trap are all this).
#: TraceInstruction is frozen, so one shared instance serves every
#: injection site — expansion allocates nothing per check.
_BAGGY_CHECK_INSTRUCTION = TraceInstruction(op=OpClass.INT, depends=True)


class BaggyBoundsTiming(TimingModel):
    """Software baggy bounds: injected check sequence per pointer op."""

    name = "baggy"

    def __init__(self, instructions_per_check: int = BAGGY_CHECK_INSTRUCTIONS) -> None:
        self.instructions_per_check = instructions_per_check
        self._check_chain = (_BAGGY_CHECK_INSTRUCTION,) * instructions_per_check

    def expansion_key(self):
        """Expansion depends only on the injected-check count."""
        return ("baggy", self.instructions_per_check)

    def columnar_plan_key(self):
        """Decode follows the expansion: keyed on the check count."""
        if self._overrides_timing_hooks(BaggyBoundsTiming):
            return None
        return ("baggy", self.instructions_per_check)

    def expand(self, instr: TraceInstruction) -> Iterator[TraceInstruction]:
        yield instr
        if instr.checked:
            # The check chain is serially dependent: mask build, XOR,
            # AND, compare, predicated trap.
            yield from self._check_chain


def expand_stream(
    model: TimingModel, stream: Iterable[TraceInstruction]
) -> list:
    """Apply a model's stream rewriting to a whole warp stream."""
    out = []
    for instr in stream:
        out.extend(model.expand(instr))
    return out
