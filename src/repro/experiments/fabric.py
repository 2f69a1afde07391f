"""Incremental, work-stealing experiment fabric.

The (benchmark × mechanism × timing-model) grids behind Fig. 12/13
and Tables II/III are embarrassingly parallel *and* almost entirely
redundant between runs: editing one mechanism invalidates a quarter
of the grid, editing docs invalidates nothing.  This module turns the
grid into an incremental computation:

* **Content-addressed cell cache.**  Every grid cell is digested over
  its complete input closure — the trace content address
  (:func:`~repro.workloads.trace_cache.request_key`, which already
  tracks profile edits), the mechanism id and its
  :meth:`~repro.sim.timing.TimingModel.expansion_key`, the
  :class:`~repro.common.config.GpuConfig` fingerprint, and a code
  fingerprint over every package that can influence a simulation
  result.  Completed cells (cycles, stats, phases, captured telemetry)
  are persisted under that digest with an atomic tmp + ``os.replace``
  publish, so a rerun skips every unchanged cell and *replays its
  telemetry byte-identically* — the stored event stream goes back
  through the parent hub in submission order, exactly like the
  fan-out path's live capture does, so ``--metrics``/``--trace``
  exports cannot tell a cache hit from a fresh run.
* **Work-stealing scheduler.**  ``--jobs N`` runs cells on ``N``
  forked workers fed from per-worker deques (contiguous block
  partition of the submission order).  An idle worker steals from the
  *tail* of the longest deque — the opposite end from the owner, so
  contention stays at the ends — and a worker that dies mid-cell has
  its cell re-dispatched exactly once (a second death fails the run
  loudly).  Results still merge in submission order, so exports are
  byte-identical at any worker count.
* **Shards.**  ``--shard i/N`` marks cells ``index % N == i`` as
  *owned*; the other cells are *foreign* — polled from the shared
  cell cache for up to ``REPRO_SHARD_WAIT`` seconds (their owner is
  expected to publish them), then computed locally as a steal of last
  resort.  Every shard invocation therefore yields the **complete**
  artifact set, byte-identical to a single-process run; N concurrent
  shards over one cache dir each compute ~1/N of the grid.
* **Resumability.**  Each stored cell is also journalled (one JSON
  line, ``O_APPEND``) in ``journal.jsonl`` next to the cache entries.
  A killed run leaves the journal and every completed cell behind;
  ``--resume`` reports what the journal holds and the rerun skips
  exactly the completed cells through ordinary cache hits.

Operational counters (cells skipped / stolen / redispatched /
executed) live in a private :data:`FABRIC_DIAG` registry surfaced
only through the live ``/metrics`` plane and the run ledger's
``fabric`` block — never the deterministic exports, which must stay
byte-identical across cache states.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import pickle
import queue as queue_module
import shutil
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..common.config import GpuConfig
from ..telemetry.registry import DIAG_REGISTRIES, MetricsRegistry
from ..telemetry.runtime import TELEMETRY, capture
from ..telemetry.tracectx import bind_trace, record_job_trace
from ..workloads.trace_cache import request_key
from .engine import (
    _WORKER_RING_CAPACITY,
    JobResult,
    SimJob,
    _execute_job,
    _job_span,
    _replay_telemetry,
    _ship_traces,
    _trace_request,
    model_factory,
)

#: Version tag of the on-disk cell record (bump on layout change —
#: old entries then miss and rebuild, never misparse).
CELL_SCHEMA = "repro.experiments.cell/v2"

#: Environment variable naming the cell-cache directory
#: (CLI: ``--cell-cache DIR``).
CELL_CACHE_ENV = "REPRO_CELL_CACHE"

#: Environment variable carrying the shard assignment ``i/N``
#: (CLI: ``--shard i/N``).
SHARD_ENV = "REPRO_SHARD"

#: Seconds a shard polls the shared cache for a foreign cell before
#: computing it locally (default 0: take over immediately).
SHARD_WAIT_ENV = "REPRO_SHARD_WAIT"

#: Test hooks: a worker executing the cell named ``benchmark:mechanism``
#: dies (``os._exit``) — but only once, gated by a marker file created
#: ``O_CREAT | O_EXCL`` inside ``REPRO_FABRIC_FAIL_DIR``.  Both must
#: be set; production runs never pay more than two getenv calls.
FAIL_CELL_ENV = "REPRO_FABRIC_FAIL_CELL"
FAIL_DIR_ENV = "REPRO_FABRIC_FAIL_DIR"

#: Journal filename inside the cache dir (one JSON line per stored
#: cell; ``O_APPEND`` under an flock so concurrent shard processes
#: *and* in-process writer threads land whole lines).
JOURNAL_NAME = "journal.jsonl"


class _JournalLock:
    """Journal-append lock (``flock`` when available).

    Same shape as codegen's per-digest build lock: a sidecar ``.lock``
    file taken exclusively around the append.  ``O_APPEND`` alone
    already keeps separate *processes* from tearing lines, but two
    writers inside one process — the serve daemon's executor threads,
    or a daemon sharing the cache dir with a CLI run — interleave at
    the mercy of the kernel's write granularity; the flock makes each
    journal line atomic in both regimes.  ``flock`` serializes distinct
    file descriptors even within one process, so threads are covered
    without a separate in-process mutex.  Platforms without ``fcntl``
    degrade to the plain append (worst case: a torn line, which
    ``journal_digests`` already skips).
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._fd: Optional[int] = None

    def __enter__(self) -> "_JournalLock":
        try:
            import fcntl

            self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o644)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
        except (ImportError, OSError):
            self._fd = None
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            try:
                import fcntl

                fcntl.flock(self._fd, fcntl.LOCK_UN)
            except (ImportError, OSError):
                pass
            os.close(self._fd)

#: Private diagnostics registry: live ``/metrics`` only (appended to
#: :data:`~repro.telemetry.registry.DIAG_REGISTRIES`), never the
#: deterministic exports.
FABRIC_DIAG = MetricsRegistry()
DIAG_REGISTRIES.append(FABRIC_DIAG)

#: Counter names (also the keys of :func:`fabric_counters` and the
#: ledger's ``fabric`` block).
_COUNTERS = (
    "fabric.cells_executed",
    "fabric.cells_skipped",
    "fabric.cells_stolen",
    "fabric.cells_redispatched",
)


def fabric_counters() -> Dict[str, int]:
    """Current fabric counter totals (``cells_skipped`` etc.)."""
    return {
        name.split(".", 1)[1]: int(FABRIC_DIAG.value(name))
        for name in _COUNTERS
    }


def reset_fabric_counters() -> None:
    """Zero the diagnostics (tests and per-experiment ledger deltas)."""
    FABRIC_DIAG.reset()


def _count(name: str, amount: int = 1) -> None:
    FABRIC_DIAG.counter(name).inc(amount)


# ----------------------------------------------------------------------
# Digests


def config_fingerprint(config: GpuConfig) -> str:
    """Stable digest of every GPU-config field (hex SHA-256)."""
    rendered = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()


#: Packages whose source can change a simulation result.  Everything
#: under these directories is folded into the code fingerprint; a
#: one-character edit anywhere invalidates every cached cell.
_CODE_PACKAGES = (
    "common",
    "exec",
    "mechanisms",
    "sim",
    "workloads",
)

_code_fp: Optional[str] = None


def code_fingerprint() -> str:
    """Digest of all result-bearing source (memoized per process).

    SHA-256 over the sorted relative paths and bytes of every ``.py``
    file in the simulation-relevant packages plus the experiment
    engine/fabric themselves.  Coarse on purpose: a false invalidation
    costs one warm-up run; a false *hit* would silently serve stale
    science.
    """
    global _code_fp
    if _code_fp is not None:
        return _code_fp
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths: List[str] = [
        os.path.join(package_root, "experiments", "engine.py"),
        os.path.join(package_root, "experiments", "fabric.py"),
    ]
    for package in _CODE_PACKAGES:
        root = os.path.join(package_root, package)
        for dirpath, _, filenames in os.walk(root):
            for filename in filenames:
                if filename.endswith(".py"):
                    paths.append(os.path.join(dirpath, filename))
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(os.path.relpath(path, package_root).encode("utf-8"))
        digest.update(b"\0")
        try:
            with open(path, "rb") as handle:
                digest.update(handle.read())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\0")
    _code_fp = digest.hexdigest()
    return _code_fp


def cell_digest(job: SimJob, config: GpuConfig) -> str:
    """Content address of one grid cell (hex SHA-256).

    Composition: trace content address (profile-aware), mechanism id
    plus its instruction-expansion key (the mechanism-config part of
    the closure), GPU-config fingerprint, code fingerprint.  Any input
    or code change flips the digest; nothing else does.
    """
    expansion = repr(model_factory(job.mechanism).expansion_key())
    raw = "|".join(
        (
            "cell/v1",
            request_key(
                job.benchmark,
                job.warps,
                job.instructions_per_warp,
                job.seed_salt,
            ),
            f"mechanism={job.mechanism}",
            f"expansion={expansion}",
            f"config={config_fingerprint(config)}",
            f"code={code_fingerprint()}",
        )
    )
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Cell cache


@dataclasses.dataclass
class CellCacheStats:
    """Hit/miss/corruption counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0


class CellCache:
    """Content-addressed store of completed grid-cell results.

    One file per digest: a header line ``repro-cell/v1 <sha256>``
    naming the checksum of the pickled payload that follows.  Loads
    verify the checksum *and* that the payload's recorded digest
    matches the requested one, so truncation, bit rot and foreign
    files all degrade to a miss (and a rebuild) — never to wrong
    results.  Stores publish atomically (tmp + ``os.replace``) and
    append one journal line, making the directory safe for concurrent
    shard processes.
    """

    _MAGIC = b"repro-cell/v1 "

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.stats = CellCacheStats()
        #: Counter guard: one handle is shared by the serve daemon's
        #: executor threads, and ``+=`` on plain ints is not atomic.
        self._stats_lock = threading.Lock()

    def path_for(self, digest: str) -> str:
        return os.path.join(self.directory, f"cell-{digest}.bin")

    @property
    def journal_path(self) -> str:
        return os.path.join(self.directory, JOURNAL_NAME)

    # ------------------------------------------------------------------

    def load(
        self,
        digest: str,
        *,
        want_events: bool,
        quiet: bool = False,
    ) -> Optional[Dict[str, object]]:
        """The stored record for *digest*, or None on miss/corruption.

        A record stored without captured telemetry cannot serve a run
        that needs to replay events (*want_events*): it misses, and
        the rebuild upgrades the entry in place.  *quiet* suppresses
        stat counting (shard polling must not read as a miss storm).
        """
        path = self.path_for(digest)
        record = self._read(path, digest)
        if record is not None and want_events and record.get("telemetry") is None:
            record = None  # stored without events; recompute + upgrade
        if not quiet:
            with self._stats_lock:
                if record is None:
                    self.stats.misses += 1
                else:
                    self.stats.hits += 1
        return record

    def _read(
        self, path: str, digest: str
    ) -> Optional[Dict[str, object]]:
        try:
            with open(path, "rb") as handle:
                header = handle.readline()
                payload = handle.read()
        except OSError:
            return None
        if not header.startswith(self._MAGIC):
            return self._corrupt()
        expected = header[len(self._MAGIC):].strip().decode(
            "ascii", "replace"
        )
        if hashlib.sha256(payload).hexdigest() != expected:
            return self._corrupt()  # truncated / bit-rotted
        try:
            record = pickle.loads(payload)
        except Exception:
            return self._corrupt()
        if (
            not isinstance(record, dict)
            or record.get("schema") != CELL_SCHEMA
            or record.get("digest") != digest
        ):
            return self._corrupt()  # foreign, renamed or old-schema entry
        return record

    def _corrupt(self) -> None:
        """Count one unusable entry (it reads as a miss)."""
        with self._stats_lock:
            self.stats.corrupt += 1

    def store(self, record: Dict[str, object]) -> None:
        """Atomically publish one cell record and journal it."""
        digest = str(record["digest"])
        path = self.path_for(digest)
        os.makedirs(self.directory, exist_ok=True)
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = hashlib.sha256(payload).hexdigest()
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "wb") as handle:
            handle.write(self._MAGIC + checksum.encode("ascii") + b"\n")
            handle.write(payload)
        os.replace(tmp, path)
        with self._stats_lock:
            self.stats.stores += 1
        job = record.get("job") or {}
        line = (
            json.dumps(
                {
                    "digest": digest,
                    "benchmark": job.get("benchmark"),
                    "mechanism": job.get("mechanism"),
                },
                sort_keys=True,
            )
            + "\n"
        )
        with _JournalLock(f"{self.journal_path}.lock"):
            fd = os.open(
                self.journal_path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, line.encode("utf-8"))
            finally:
                os.close(fd)

    def journal_digests(self) -> Set[str]:
        """Digests the journal records as completed (torn lines skipped)."""
        digests: Set[str] = set()
        try:
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue
                    digest = entry.get("digest") if isinstance(entry, dict) else None
                    if isinstance(digest, str):
                        digests.add(digest)
        except OSError:
            return digests
        return digests


_CACHE_INSTANCES: Dict[str, CellCache] = {}


def resolve_cell_cache(
    choice: Optional[str] = None,
) -> Optional[CellCache]:
    """The active cell cache (explicit *choice* > env), or None.

    Handles are memoized per absolute path so stats accumulate across
    the several ``run_sim_jobs`` calls of one experiment.
    """
    path = choice if choice is not None else os.environ.get(CELL_CACHE_ENV)
    if not path:
        return None
    path = os.path.abspath(path)
    cache = _CACHE_INSTANCES.get(path)
    if cache is None:
        cache = _CACHE_INSTANCES[path] = CellCache(path)
    return cache


def resolve_shard(
    choice: Optional[str] = None,
) -> Optional[Tuple[int, int]]:
    """Parse the shard assignment ``i/N`` → ``(i, N)``, or None.

    ``N == 1`` degrades to no sharding; malformed values raise so a
    typo'd ``--shard`` fails loudly instead of silently computing the
    whole grid.
    """
    raw = choice if choice is not None else os.environ.get(SHARD_ENV, "")
    raw = raw.strip()
    if not raw:
        return None
    try:
        index_text, _, total_text = raw.partition("/")
        index, total = int(index_text), int(total_text)
    except ValueError:
        raise ValueError(
            f"invalid shard spec {raw!r} (expected i/N, e.g. 0/2)"
        ) from None
    if total < 1 or not 0 <= index < total:
        raise ValueError(
            f"shard index must satisfy 0 <= i < N, got {raw!r}"
        )
    if total == 1:
        return None
    return index, total


def shard_wait_seconds() -> float:
    """How long a shard polls the cache for foreign cells."""
    raw = os.environ.get(SHARD_WAIT_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


# ----------------------------------------------------------------------
# Cell execution (shared by the serial path and the pool workers)


def _make_cell_record(
    digest: str, job: SimJob, result: JobResult, blob
) -> Dict[str, object]:
    return {
        "schema": CELL_SCHEMA,
        "digest": digest,
        "job": dataclasses.asdict(job),
        "cycles": result.cycles,
        "stats": result.stats,
        "phases": dict(result.phases),
        "telemetry": blob,
    }


def _result_from_record(
    job: SimJob, record: Dict[str, object]
) -> JobResult:
    # Cache hits report empty phases: no wall time was spent, and the
    # live plane's attribution must describe *this* run, not the cold
    # run that populated the cache.
    return JobResult(
        job=job,
        cycles=record["cycles"],
        stats=record["stats"],
        phases={},
    )


def _execute_cell(
    job: SimJob,
    config: GpuConfig,
    telemetry_wanted: bool,
    trace_path: Optional[str] = None,
):
    """Run one cell, capturing telemetry privately when wanted.

    Returns ``(JobResult, blob)`` where *blob* is the
    ``(registry, entries)`` pair the parent replays in submission
    order — the same capture discipline as the historical fan-out
    workers, which is what keeps cached/stolen/resumed runs
    byte-identical to live ones.  *entries* keeps the job's
    ``WARP_ISSUE`` rows as columnar blocks
    (:meth:`~repro.telemetry.events.FlightRecorder.entries`).
    """
    if not telemetry_wanted:
        return _execute_job(job, config, trace_path), None
    with capture(
        ring_capacity=_WORKER_RING_CAPACITY, sample_every=1
    ) as hub:
        result = _execute_job(job, config, trace_path)
        entries = hub.recorder.entries()
        registry = hub.registry
    return result, (registry, entries)


def _maybe_die_for_test(job: SimJob) -> None:
    """Worker-death injection for the re-dispatch tests (no-op unless
    both ``REPRO_FABRIC_FAIL_CELL`` and ``REPRO_FABRIC_FAIL_DIR`` are
    set; the marker file makes the death fire exactly once)."""
    target = os.environ.get(FAIL_CELL_ENV)
    marker_dir = os.environ.get(FAIL_DIR_ENV)
    if not target or not marker_dir:
        return
    if f"{job.benchmark}:{job.mechanism}" != target:
        return
    marker = os.path.join(marker_dir, "fabric-fail-once")
    try:
        fd = os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
    except FileExistsError:
        return  # already died once; run normally now
    os.close(fd)
    os._exit(1)


# ----------------------------------------------------------------------
# Work-stealing pool


def _pool_worker_main(
    slot: int,
    inbox,
    results,
    config: GpuConfig,
    telemetry_wanted: bool,
    cache_dir: Optional[str],
) -> None:
    """Worker loop: execute dispatched cells, store them, ship results.

    The worker stores each completed cell into the cache *itself*
    (before reporting back), so a parent killed mid-run still leaves
    every finished cell persisted — that is what makes ``--resume``
    exact rather than best-effort.
    """
    if not telemetry_wanted:
        TELEMETRY.enabled = False  # forked copies must not double-count
    cache = CellCache(cache_dir) if cache_dir else None
    while True:
        message = inbox.get()
        if message is None:
            return
        task_index, job, digest, trace_path, trace_id = message
        _maybe_die_for_test(job)
        try:
            # Binding here is what makes _execute_job tag the result
            # with the *request's* id — a redispatched task reuses its
            # tuple, so the id survives a worker death.
            with bind_trace(trace_id):
                result, blob = _execute_cell(
                    job, config, telemetry_wanted, trace_path
                )
            if cache is not None and digest is not None:
                cache.store(_make_cell_record(digest, job, result, blob))
            results.put(("done", slot, task_index, result, blob))
        except BaseException as exc:
            results.put(("error", slot, task_index, repr(exc)))


class _StealingPool:
    """Parent-coordinated work-stealing pool over forked workers.

    The parent owns all scheduling state: one deque of task indices
    per worker (a contiguous block of the submission order), one
    in-flight task per worker.  A worker finishing its block steals
    from the *tail* of the longest remaining deque; a worker that
    dies mid-cell gets its cell re-dispatched exactly once (and the
    run fails loudly on a second death).  Keeping at most one cell in
    flight per worker is what makes stealing and re-dispatch exact:
    the parent always knows which cell a dead worker was holding.
    """

    def __init__(
        self,
        workers: int,
        config: GpuConfig,
        telemetry_wanted: bool,
        cache_dir: Optional[str],
    ) -> None:
        self.config = config
        self.telemetry_wanted = telemetry_wanted
        self.cache_dir = cache_dir
        self.context = multiprocessing.get_context("fork")
        self.results = self.context.Queue()
        self.workers: List[Tuple[object, object]] = []  # (process, inbox)
        for slot in range(workers):
            self.workers.append(self._spawn(slot))

    def _spawn(self, slot: int) -> Tuple[object, object]:
        inbox = self.context.Queue()
        process = self.context.Process(
            target=_pool_worker_main,
            args=(
                slot,
                inbox,
                self.results,
                self.config,
                self.telemetry_wanted,
                self.cache_dir,
            ),
            daemon=True,
        )
        process.start()
        return process, inbox

    def run(
        self,
        tasks: Sequence[
            Tuple[int, SimJob, Optional[str], Optional[str], Optional[str]]
        ],
        board,
        job_ids: Sequence[object],
    ) -> Dict[int, Tuple[JobResult, object]]:
        """Execute *tasks* (``(index, job, digest, trace_path,
        trace_id)``); returns ``task index -> (result, telemetry
        blob)``."""
        slots = len(self.workers)
        deques: List[deque] = [deque() for _ in range(slots)]
        total = len(tasks)
        by_index = {task[0]: task for task in tasks}
        for slot in range(slots):
            start = slot * total // slots
            end = (slot + 1) * total // slots
            deques[slot].extend(task[0] for task in tasks[start:end])
        inflight: Dict[int, int] = {}
        redispatched: Set[int] = set()
        completed: Dict[int, Tuple[JobResult, object]] = {}

        def dispatch(slot: int) -> None:
            own = deques[slot]
            if own:
                task_index = own.popleft()
            else:
                victim = max(
                    (s for s in range(slots) if s != slot),
                    key=lambda s: len(deques[s]),
                    default=None,
                )
                if victim is None or not deques[victim]:
                    return
                task_index = deques[victim].pop()  # steal from tail
                _count("fabric.cells_stolen")
            _, job, digest, trace_path, trace_id = by_index[task_index]
            inflight[slot] = task_index
            board.job_running(job_ids[task_index])
            self.workers[slot][1].put(
                (task_index, job, digest, trace_path, trace_id)
            )

        for slot in range(slots):
            dispatch(slot)
        while len(completed) < total:
            try:
                message = self.results.get(timeout=0.05)
            except queue_module.Empty:
                self._reap(deques, inflight, redispatched, board, job_ids)
                for slot in range(slots):
                    if slot not in inflight:
                        dispatch(slot)
                continue
            kind = message[0]
            if kind == "error":
                _, slot, task_index, text = message
                raise RuntimeError(
                    f"fabric worker failed on cell {task_index}: {text}"
                )
            _, slot, task_index, result, blob = message
            if inflight.get(slot) == task_index:
                del inflight[slot]
            if task_index not in completed:  # ignore redispatch dupes
                completed[task_index] = (result, blob)
                board.job_finished(job_ids[task_index])
                board.record_phases(result.phases)
                _count("fabric.cells_executed")
            dispatch(slot)
        return completed

    def _reap(
        self, deques, inflight, redispatched, board, job_ids
    ) -> None:
        """Detect dead workers; requeue their cell once, then respawn."""
        for slot, (process, _) in enumerate(self.workers):
            if process.is_alive():
                continue
            task_index = inflight.pop(slot, None)
            if task_index is not None:
                if task_index in redispatched:
                    raise RuntimeError(
                        f"fabric worker died twice on cell {task_index}; "
                        "giving up (re-dispatch is attempted exactly once)"
                    )
                redispatched.add(task_index)
                _count("fabric.cells_redispatched")
                board.job_retry(job_ids[task_index])
                deques[slot].appendleft(task_index)
            self.workers[slot] = self._spawn(slot)

    def close(self) -> None:
        for process, inbox in self.workers:
            if process.is_alive():
                try:
                    inbox.put(None)
                except (OSError, ValueError):
                    pass
        for process, _ in self.workers:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)


# ----------------------------------------------------------------------
# The grid runner


def run_grid(
    job_list: Sequence[SimJob],
    job_ids: Sequence[object],
    *,
    config: GpuConfig,
    workers: int,
    telemetry_wanted: bool,
    board,
    cache: Optional[CellCache],
    shard: Optional[Tuple[int, int]],
    trace_ids: Optional[Sequence[Optional[str]]] = None,
) -> List[JobResult]:
    """Run one grid through the fabric; results in submission order.

    Resolution order per cell: cache hit (skip) → owned (execute, on
    the stealing pool when ``workers > 1``) → foreign (poll the
    shared cache, then compute locally as a last resort).  All
    telemetry — replayed from cache or captured fresh — goes back
    through the parent hub strictly in submission order inside the
    per-job spans, which is the existing determinism contract of the
    fan-out path; exports are therefore byte-identical across
    (jobs × shards × cache states).
    """
    if shard is not None and cache is None:
        raise ValueError(
            "--shard requires a shared --cell-cache/REPRO_CELL_CACHE "
            "directory (shards exchange results through it)"
        )
    total = len(job_list)
    digests: List[Optional[str]] = [None] * total
    outcomes: Dict[int, Tuple[JobResult, object]] = {}
    pending: List[int] = []
    if cache is not None:
        for index, job in enumerate(job_list):
            digests[index] = cell_digest(job, config)
            record = cache.load(
                digests[index], want_events=telemetry_wanted
            )
            if record is not None:
                outcomes[index] = (
                    _result_from_record(job, record),
                    record.get("telemetry"),
                )
                board.job_skipped(job_ids[index])
                _count("fabric.cells_skipped")
            else:
                pending.append(index)
    else:
        pending = list(range(total))

    if shard is not None:
        shard_index, shard_total = shard
        owned = [i for i in pending if i % shard_total == shard_index]
        foreign = [i for i in pending if i % shard_total != shard_index]
    else:
        owned, foreign = pending, []

    # ------------------------------------------------------------------
    # Owned cells
    if owned:
        if workers > 1:
            owned_jobs = [job_list[i] for i in owned]
            trace_paths, cleanup = _ship_traces(owned_jobs)
            tasks = [
                (
                    index,
                    job_list[index],
                    digests[index],
                    trace_paths.get(_trace_request(job_list[index])),
                    trace_ids[index] if trace_ids else None,
                )
                for index in owned
            ]
            pool = _StealingPool(
                min(workers, len(owned)),
                config,
                telemetry_wanted,
                cache.directory if cache is not None else None,
            )
            try:
                outcomes.update(pool.run(tasks, board, job_ids))
            finally:
                pool.close()
                if cleanup is not None:
                    shutil.rmtree(cleanup, ignore_errors=True)
        else:
            for index in owned:
                job = job_list[index]
                board.job_running(job_ids[index])
                with bind_trace(trace_ids[index] if trace_ids else None):
                    result, blob = _execute_cell(
                        job, config, telemetry_wanted
                    )
                if cache is not None:
                    cache.store(
                        _make_cell_record(digests[index], job, result, blob)
                    )
                board.record_phases(result.phases)
                board.job_finished(job_ids[index])
                _count("fabric.cells_executed")
                outcomes[index] = (result, blob)

    # ------------------------------------------------------------------
    # Foreign cells: their owner shard should publish them; poll, then
    # take over (a steal of last resort keeps every invocation whole).
    if foreign:
        deadline = time.monotonic() + shard_wait_seconds()
        for index in foreign:
            job = job_list[index]
            record = None
            while True:
                record = cache.load(
                    digests[index],
                    want_events=telemetry_wanted,
                    quiet=True,
                )
                if record is not None or time.monotonic() >= deadline:
                    break
                time.sleep(0.2)
            if record is not None:
                outcomes[index] = (
                    _result_from_record(job, record),
                    record.get("telemetry"),
                )
                board.job_skipped(job_ids[index])
                _count("fabric.cells_skipped")
                continue
            board.job_running(job_ids[index])
            with bind_trace(trace_ids[index] if trace_ids else None):
                result, blob = _execute_cell(job, config, telemetry_wanted)
            cache.store(
                _make_cell_record(digests[index], job, result, blob)
            )
            board.record_phases(result.phases)
            board.job_finished(job_ids[index])
            _count("fabric.cells_stolen")
            _count("fabric.cells_executed")
            outcomes[index] = (result, blob)

    # ------------------------------------------------------------------
    # Deterministic merge + telemetry replay in submission order.
    results: List[JobResult] = []
    for index in range(total):
        result, blob = outcomes[index]
        if telemetry_wanted and blob is not None:
            with _job_span(job_list[index], index):
                _replay_telemetry(blob)
        if result.trace_id is not None:
            # Executed cells only: cache hits carry no trace id (no
            # wall time was spent this run).
            record_job_trace(
                result.trace_id,
                phases=result.phases,
                attrs={
                    "benchmark": result.job.benchmark,
                    "mechanism": result.job.mechanism,
                    "origin": "fabric",
                },
            )
        results.append(result)
    return results


__all__ = [
    "CELL_SCHEMA",
    "CELL_CACHE_ENV",
    "SHARD_ENV",
    "SHARD_WAIT_ENV",
    "FABRIC_DIAG",
    "CellCache",
    "CellCacheStats",
    "cell_digest",
    "code_fingerprint",
    "config_fingerprint",
    "fabric_counters",
    "reset_fabric_counters",
    "resolve_cell_cache",
    "resolve_shard",
    "run_grid",
    "shard_wait_seconds",
]
