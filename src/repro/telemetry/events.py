"""Structured event bus / flight recorder.

The executor, hardware units and simulator publish
:class:`TelemetryEvent` records — per-access verdicts, OCU clears, EC
faults, oracle mismatches, warp scheduler activity — into a bounded
ring buffer (:class:`FlightRecorder`).  The recorder is the "black
box" of a run: it keeps the most recent *capacity* events so a fault
can always be explained from the stream that led up to it, while the
registry keeps the aggregate counts.

Hot-path discipline
-------------------
* When the recorder is disabled, :meth:`FlightRecorder.emit` returns
  after a single attribute test — no event object, no payload dict is
  retained.  Call sites in per-instruction loops additionally guard
  with ``if telemetry.enabled:`` so not even the ``**payload`` dict is
  built.
* ``sample_every=N`` keeps every Nth routine event; *important* kinds
  (faults, detections, oracle mismatches) bypass sampling so the
  signal is never thinned away.
* Bulk producers (the simulator's fast paths, the experiment fabric's
  replay) publish a whole run of ``WARP_ISSUE`` events as one
  columnar *block* (:meth:`FlightRecorder.emit_block`): an ``(n, 3)``
  int array of ``(clock, warp, instructions)`` rows.  Sampling,
  sequence numbers, timestamps and overflow are applied to the block
  arithmetically, and :class:`TelemetryEvent` objects are built only
  for the rows still in the ring when someone reads it — every
  counter and every read matches ``n`` single :meth:`~FlightRecorder.
  emit` calls exactly.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, FrozenSet, List, Mapping, Optional, Union


class EventKind(enum.Enum):
    """Vocabulary of the structured event bus."""

    ALLOC = "alloc"
    FREE = "free"
    SCOPE_EXIT = "scope_exit"
    POINTER_TAG = "pointer_tag"
    PTR_ARITH = "ptr_arith"
    OCU_CLEAR = "ocu_clear"
    OCU_PROPAGATE = "ocu_propagate"
    EC_FAULT = "ec_fault"
    ACCESS_CHECK = "access_check"
    DETECTION = "detection"
    ORACLE_VIOLATION = "oracle_violation"
    ORACLE_MISMATCH = "oracle_mismatch"
    CACHE_HIT = "cache_hit"
    CACHE_MISS = "cache_miss"
    WARP_ISSUE = "warp_issue"
    WARP_STALL = "warp_stall"
    KERNEL_BEGIN = "kernel_begin"
    KERNEL_END = "kernel_end"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Kinds that must never be lost to sampling (they are rare and are
#: exactly what post-mortem debugging needs).
IMPORTANT_KINDS: FrozenSet[EventKind] = frozenset(
    {
        EventKind.EC_FAULT,
        EventKind.DETECTION,
        EventKind.ORACLE_VIOLATION,
        EventKind.ORACLE_MISMATCH,
        EventKind.OCU_CLEAR,
        EventKind.KERNEL_BEGIN,
        EventKind.KERNEL_END,
    }
)


@dataclass(frozen=True)
class TelemetryEvent:
    """One structured record on the event bus."""

    #: Monotonic sequence number (1-based, counts every accepted emit).
    seq: int
    #: Logical (deterministic) or wall-clock microsecond timestamp.
    ts: int
    kind: EventKind
    payload: Mapping[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly rendering (enums stringified)."""
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind.value,
            **{k: _jsonable(v) for k, v in sorted(self.payload.items())},
        }


def _jsonable(value: object) -> object:
    if isinstance(value, enum.Enum):
        return str(value)
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


class _Block:
    """The kept rows of one :meth:`FlightRecorder.emit_block` call.

    Row ``j`` (``j >= start``; earlier rows were overwritten) is the
    event with sequence number ``seq + j * seq_step`` and timestamp
    ``ts + j * ts_step``.
    """

    __slots__ = ("kind", "trace", "rows", "start", "seq", "seq_step",
                 "ts", "ts_step")

    def __init__(self, kind, trace, rows, seq, seq_step, ts, ts_step):
        self.kind = kind
        self.trace = trace
        self.rows = rows
        self.start = 0
        self.seq = seq
        self.seq_step = seq_step
        self.ts = ts
        self.ts_step = ts_step

    def __len__(self) -> int:
        return len(self.rows) - self.start

    def expand(self, out: List[TelemetryEvent]) -> None:
        """Append this block's surviving rows to *out* as events."""
        kind, trace = self.kind, self.trace
        seq_step, ts_step = self.seq_step, self.ts_step
        seq = self.seq + self.start * seq_step
        ts = self.ts + self.start * ts_step
        for clock, warp, instructions in self.rows[self.start:].tolist():
            out.append(
                TelemetryEvent(
                    seq,
                    ts,
                    kind,
                    {
                        "trace": trace,
                        "warp": warp,
                        "clock": clock,
                        "instructions": instructions,
                    },
                )
            )
            seq += seq_step
            ts += ts_step


class FlightRecorder:
    """Ring-buffered event sink with sampling controls.

    The ring is a deque of entries — single :class:`TelemetryEvent`
    objects and columnar blocks — plus a running event count; overflow
    trims whole entries from the left, or advances the oldest block's
    start row.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "sample_every",
        "_ring",
        "_size",
        "_attempts",
        "emitted",
        "dropped",
        "sampled_out",
    )

    def __init__(
        self,
        capacity: int = 8192,
        *,
        sample_every: int = 1,
        enabled: bool = True,
    ) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        if sample_every <= 0:
            raise ValueError("sample_every must be positive")
        self.enabled = enabled
        self.capacity = capacity
        self.sample_every = sample_every
        self._ring: Deque[Union[TelemetryEvent, _Block]] = deque()
        #: Events currently buffered (block rows count individually).
        self._size = 0
        #: Emission attempts while enabled (sampling denominator).
        self._attempts = 0
        #: Events accepted into the ring (including later overwritten).
        self.emitted = 0
        #: Events overwritten by ring overflow.
        self.dropped = 0
        #: Events thinned away by sampling.
        self.sampled_out = 0

    # ------------------------------------------------------------------

    def emit(
        self, kind: EventKind, ts: int = 0, /, **payload: object
    ) -> Optional[TelemetryEvent]:
        """Publish one event; returns it, or None when suppressed."""
        if not self.enabled:
            return None
        self._attempts += 1
        if (
            self.sample_every > 1
            and kind not in IMPORTANT_KINDS
            and self._attempts % self.sample_every
        ):
            self.sampled_out += 1
            return None
        event = TelemetryEvent(
            seq=self._attempts, ts=ts, kind=kind, payload=payload
        )
        self._ring.append(event)
        self.emitted += 1
        self._size += 1
        if self._size > self.capacity:
            self._trim()
        return event

    def emit_block(
        self, kind: EventKind, trace: str, rows, ts: int = 0,
        ts_step: int = 0, /,
    ) -> None:
        """Publish ``len(rows)`` events as one columnar block.

        *rows* is an ``(n, 3)`` integer ndarray of ``(clock, warp,
        instructions)`` rows; row ``i`` stands for ``emit(kind, ts + i
        * ts_step, trace=trace, warp=warp, clock=clock,
        instructions=instructions)``.
        """
        if not self.enabled:
            return
        total = len(rows)
        first = self._attempts + 1
        self._attempts += total
        every = 1 if kind in IMPORTANT_KINDS else self.sample_every
        # Attempt ``first + i`` is kept iff it is a multiple of every.
        skip = -first % every
        kept = rows[skip::every]
        count = len(kept)
        self.sampled_out += total - count
        if count:
            self._ring.append(
                _Block(kind, trace, kept, first + skip, every,
                       ts + skip * ts_step, every * ts_step)
            )
            self.emitted += count
            self._size += count
            if self._size > self.capacity:
                self._trim()

    def _trim(self) -> None:
        """Overwrite the oldest events until the ring fits capacity."""
        excess = self._size - self.capacity
        self.dropped += excess
        self._size = self.capacity
        ring = self._ring
        while excess:
            head = ring[0]
            if type(head) is _Block:
                left = len(head)
                if left > excess:
                    head.start += excess
                    return
                excess -= left
            else:
                excess -= 1
            ring.popleft()

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def events(self, kind: Optional[EventKind] = None) -> List[TelemetryEvent]:
        """Chronological view of the buffered events."""
        out: List[TelemetryEvent] = []
        for entry in self._ring:
            if kind is not None and entry.kind is not kind:
                continue
            if type(entry) is _Block:
                entry.expand(out)
            else:
                out.append(entry)
        return out

    def entries(self) -> list:
        """The buffered events in replayable form, oldest first.

        Blocks stay columnar as ``(kind, trace, rows)``; single events
        become ``(kind, payload)``.  :meth:`~repro.telemetry.runtime.
        Telemetry.replay` publishes the list again (with the replaying
        hub's sequence numbers, clock and sampling).
        """
        return [
            (entry.kind, entry.trace, entry.rows[entry.start:])
            if type(entry) is _Block
            else (entry.kind, dict(entry.payload))
            for entry in self._ring
        ]

    def drain(self) -> List[TelemetryEvent]:
        """Return and clear the buffered events (counters survive)."""
        events = self.events()
        self._ring.clear()
        self._size = 0
        return events

    def clear(self) -> None:
        """Drop buffered events and zero all counters."""
        self._ring.clear()
        self._size = 0
        self._attempts = 0
        self.emitted = 0
        self.dropped = 0
        self.sampled_out = 0

    def counts_by_kind(self) -> Dict[str, int]:
        """Histogram of currently-buffered events by kind."""
        out: Dict[str, int] = {}
        for entry in self._ring:
            name = entry.kind.value
            out[name] = out.get(name, 0) + (
                len(entry) if type(entry) is _Block else 1
            )
        return dict(sorted(out.items()))


__all__ = [
    "EventKind",
    "TelemetryEvent",
    "FlightRecorder",
    "IMPORTANT_KINDS",
]
