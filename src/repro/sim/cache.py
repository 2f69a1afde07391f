"""Set-associative LRU cache models.

Two implementations share one contract (identical hit/miss and
eviction sequences for any address stream):

* :class:`SetAssociativeCache` — the historical per-set
  ``OrderedDict`` model, used by the locked reference scheduler.
* :class:`ArrayLruCache` — the array-backed model every
  :class:`~repro.sim.core.SmSimulator` uses: every set is a dense,
  pre-allocated recency row (index 0 = LRU, last = MRU), so lookups, promotions and evictions are C-level
  list primitives and a whole coalesced-transaction run can be served
  through one :meth:`~ArrayLruCache.access_run` call.  The columnar
  simulator additionally inlines the row manipulation directly into
  its issue loop (see :mod:`repro.sim.columnar`) against the very same
  ``rows`` state, so method-path and inline-path accesses interleave
  coherently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..common.bitops import log2_exact
from ..common.config import CacheConfig
from ..telemetry.registry import MetricsRegistry


@dataclass
class CacheStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    #: Last-published values, so :meth:`publish` stays delta-based and
    #: a cache shared between simulator runs is not double-counted.
    _published_hits: int = field(default=0, repr=False, compare=False)
    _published_misses: int = field(default=0, repr=False, compare=False)

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction (0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def publish(self, registry: MetricsRegistry, **labels: object) -> None:
        """Add growth since the last publish to ``cache.*`` counters."""
        hits = self.hits - self._published_hits
        misses = self.misses - self._published_misses
        if hits:
            registry.counter("cache.hits", **labels).inc(hits)
        if misses:
            registry.counter("cache.misses", **labels).inc(misses)
        self._published_hits = self.hits
        self._published_misses = self.misses


class SetAssociativeCache:
    """LRU set-associative cache keyed by byte address.

    ``access`` maps the address to its line and set, performs the
    lookup, fills on miss, and returns whether it hit.  Timing is the
    caller's business (the simulator composes hit latencies).
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._line_bits = log2_exact(config.line_bytes)
        self._num_sets = config.num_sets
        self._ways = config.ways
        # One OrderedDict per set: tag -> None, LRU first.
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    def _locate(self, address: int):
        line = address >> self._line_bits
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int) -> bool:
        """Look up *address*; fill on miss.  Returns hit?"""
        # Hot path (one call per coalesced transaction): _locate is
        # inlined and the per-set OrderedDict is fetched with .get —
        # .setdefault would construct a throwaway OrderedDict on
        # every single access.
        line = address >> self._line_bits
        set_index = line % self._num_sets
        tag = line // self._num_sets
        sets = self._sets
        ways = sets.get(set_index)
        if ways is None:
            ways = sets[set_index] = OrderedDict()
        stats = self.stats
        if tag in ways:
            ways.move_to_end(tag)
            stats.hits += 1
            return True
        stats.misses += 1
        ways[tag] = None
        if len(ways) > self._ways:
            ways.popitem(last=False)
        return False

    def probe(self, address: int) -> bool:
        """Non-allocating lookup (no fill, no stats)."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        return ways is not None and tag in ways

    def flush(self) -> None:
        """Drop all contents (stats survive)."""
        self._sets.clear()

    @property
    def hit_latency(self) -> int:
        """Configured hit latency in cycles."""
        return self.config.hit_latency


class ArrayLruCache:
    """Array-backed set-associative LRU cache (columnar engine).

    State is one dense array of per-set *recency rows*: each row is an
    insertion-ordered tag map (first key = LRU victim, last key = MRU),
    so lookup is an O(1) hash probe and promotion/eviction are O(1)
    delete-reinsert operations — no per-access allocation and, unlike
    an O(ways) positional scan, no penalty for the 24-way L2.  The
    hit/miss and eviction sequence is identical to
    :class:`SetAssociativeCache` for any address stream (locked by the
    cache-equivalence tests), which is what lets the fast path and the
    oracle's scan loop share warm-cache semantics.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._line_bits = log2_exact(config.line_bytes)
        self._num_sets = config.num_sets
        self._ways = config.ways
        # Recency state lives in (up to) two coherent representations:
        # lazily-built dict rows for the Python paths, and a dense
        # tag array the native executor mutates in place (kept
        # authoritative between native runs so back-to-back kernel
        # calls never round-trip through dicts).  ``_stale`` marks the
        # sets whose dict rows lag the array; reading :attr:`rows`
        # folds exactly those sets back.
        self._rows: Optional[List[Dict[int, None]]] = None
        self._tags: Optional[np.ndarray] = None
        self._stale: Optional[np.ndarray] = None
        self.stats = CacheStats()

    @property
    def rows(self) -> List[Dict[int, None]]:
        """Dense per-set recency rows (insertion-ordered tag maps).

        The columnar issue loop binds this list once per run and
        manipulates the rows in place.  Rows materialize on first
        read — a cache that only ever feeds the native executor never
        builds a dict — and any sets the native kernel touched since
        the last read are rebuilt here (LRU→MRU order preserved)
        before the list is returned.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = [{} for _ in range(self._num_sets)]
        if self._tags is not None:
            self._fold_native(rows)
        return rows

    def _fold_native(self, rows: List[Dict[int, None]]) -> None:
        """Fold native-executor state back into the dict rows.

        Only sets marked stale are rebuilt; the dense array is then
        dropped (dict rows become the single authority again, so
        Python-side mutations cannot be shadowed by a stale array).
        """
        tags, stale = self._tags, self._stale
        self._tags = None
        self._stale = None
        ways = self._ways
        flat = tags.tolist()
        fromkeys = dict.fromkeys
        for s in np.flatnonzero(stale).tolist():
            base = s * ways
            chunk = flat[base : base + ways]
            if chunk[-1] == -1:
                chunk = chunk[: chunk.index(-1)]
            rows[s] = fromkeys(chunk)

    def native_export(self) -> Tuple[np.ndarray, np.ndarray]:
        """State handoff to the native executor.

        Returns ``(tags, touched)``: the dense ``sets*ways`` recency
        array (row-major, LRU→MRU per set, ``-1`` empty) the kernel
        mutates in place, and a zeroed per-set ``uint8`` buffer it
        marks for every set it touches.  The caller must hand both to
        :meth:`native_commit` after the kernel returns — and nothing
        may read :attr:`rows` in between.  Between commit and the next
        Python read the array stays authoritative, so back-to-back
        native runs skip the dict round-trip entirely.
        """
        tags = self._tags
        if tags is None:
            tags = np.full(self._num_sets * self._ways, -1, dtype=np.int64)
            rows = self._rows
            if rows is not None:
                ways = self._ways
                base = 0
                for row in rows:
                    if row:
                        tags[base : base + len(row)] = list(row)
                    base += ways
        return tags, np.zeros(self._num_sets, dtype=np.uint8)

    def native_commit(self, tags: np.ndarray, touched: np.ndarray) -> None:
        """Accept mutated kernel state from :meth:`native_export`."""
        if self._tags is None:
            self._tags = tags
            self._stale = touched
        else:
            np.bitwise_or(self._stale, touched, out=self._stale)

    def access(self, address: int) -> bool:
        """Look up *address*; fill on miss.  Returns hit?"""
        line = address >> self._line_bits
        set_index = line % self._num_sets
        tag = line // self._num_sets
        row = self.rows[set_index]
        stats = self.stats
        # Rows store ``None`` for every resident tag, so one ``pop``
        # both answers residency (``None`` vs the ``0`` default) and
        # unlinks the entry; reinserting makes it MRU (insertion order
        # equals recency order).
        if row.pop(tag, 0) is None:
            row[tag] = None
            stats.hits += 1
            return True
        stats.misses += 1
        row[tag] = None
        if len(row) > self._ways:
            del row[next(iter(row))]
        return False

    def access_run(self, addresses) -> List[bool]:
        """Serve one coalesced-transaction run in a single call.

        Equivalent to ``[self.access(a) for a in addresses]`` with the
        per-call overhead paid once; per-address order (and therefore
        LRU state) is preserved exactly.
        """
        line_bits = self._line_bits
        num_sets = self._num_sets
        ways = self._ways
        rows = self.rows
        hits = 0
        out: List[bool] = []
        append = out.append
        for address in addresses:
            line = address >> line_bits
            tag = line // num_sets
            row = rows[line % num_sets]
            if row.pop(tag, 0) is None:
                row[tag] = None
                hits += 1
                append(True)
            else:
                row[tag] = None
                if len(row) > ways:
                    del row[next(iter(row))]
                append(False)
        stats = self.stats
        stats.hits += hits
        stats.misses += len(out) - hits
        return out

    def probe(self, address: int) -> bool:
        """Non-allocating lookup (no fill, no stats)."""
        line = address >> self._line_bits
        return line // self._num_sets in self.rows[line % self._num_sets]

    def flush(self) -> None:
        """Drop all contents (stats survive)."""
        self._tags = None
        self._stale = None
        if self._rows is not None:
            for row in self._rows:
                row.clear()

    @property
    def hit_latency(self) -> int:
        """Configured hit latency in cycles."""
        return self.config.hit_latency

