"""Experiment-fabric suite: memoization, stealing, shards, resume.

Locks the contracts of :mod:`repro.experiments.fabric`:

* the cell digest covers the full input closure (trace request,
  mechanism + expansion key, GPU config, code fingerprint) — any
  change flips it, nothing else does;
* the cell cache degrades every corruption mode (truncation, garbage,
  foreign entries, telemetry-less records) to a miss-and-rebuild,
  never to wrong results;
* exports stay byte-identical across cache states (cold / warm /
  corrupted), worker counts, shard assignments, and worker deaths —
  the fabric's one non-negotiable invariant;
* a worker dying mid-cell is re-dispatched exactly once;
* an interrupted run resumes from the journal and finishes with
  byte-identical artifacts (subprocess SIGINT test);
* the progress board and ``repro top`` surface skipped cells
  distinctly from done ones, with skips excluded from the EWMA/ETA.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import format_top
from repro.common.config import DEFAULT_GPU_CONFIG
from repro.experiments import engine as engine_module
from repro.experiments import fabric as fabric_module
from repro.experiments import run_fig12
from repro.experiments.engine import SimJob
from repro.experiments.fabric import (
    CELL_CACHE_ENV,
    FAIL_CELL_ENV,
    FAIL_DIR_ENV,
    SHARD_ENV,
    SHARD_WAIT_ENV,
    CellCache,
    cell_digest,
    fabric_counters,
    reset_fabric_counters,
    resolve_cell_cache,
    resolve_shard,
)
from repro.telemetry.export import chrome_trace, metrics_json
from repro.telemetry.progress import ProgressBoard
from repro.telemetry.runtime import SAMPLE_ENV, Telemetry, capture


@pytest.fixture(autouse=True)
def _clean_fabric(monkeypatch):
    """Zeroed counters and no leaked fabric env between tests."""
    for name in (
        CELL_CACHE_ENV, SHARD_ENV, SHARD_WAIT_ENV,
        FAIL_CELL_ENV, FAIL_DIR_ENV,
    ):
        monkeypatch.delenv(name, raising=False)
    reset_fabric_counters()
    yield
    reset_fabric_counters()


def _job(**overrides) -> SimJob:
    base = dict(
        benchmark="gaussian", mechanism="lmi",
        warps=3, instructions_per_warp=200,
    )
    base.update(overrides)
    return SimJob(**base)


# ----------------------------------------------------------------------
# Digest composition


class TestCellDigest:
    def test_stable_across_calls(self):
        assert cell_digest(_job(), DEFAULT_GPU_CONFIG) == cell_digest(
            _job(), DEFAULT_GPU_CONFIG
        )

    def test_every_input_flips_the_digest(self):
        variants = [
            _job(),
            _job(benchmark="needle"),
            _job(mechanism="gpushield"),
            _job(warps=4),
            _job(instructions_per_warp=201),
            _job(seed_salt=1),
        ]
        digests = {cell_digest(v, DEFAULT_GPU_CONFIG) for v in variants}
        assert len(digests) == len(variants)

    def test_config_flips_the_digest(self):
        import dataclasses

        tweaked = dataclasses.replace(DEFAULT_GPU_CONFIG, dram_latency=351)
        assert cell_digest(_job(), tweaked) != cell_digest(
            _job(), DEFAULT_GPU_CONFIG
        )

    def test_code_fingerprint_flips_the_digest(self, monkeypatch):
        before = cell_digest(_job(), DEFAULT_GPU_CONFIG)
        monkeypatch.setattr(fabric_module, "_code_fp", "0" * 64)
        assert cell_digest(_job(), DEFAULT_GPU_CONFIG) != before


# ----------------------------------------------------------------------
# Cache robustness


def _record(digest: str, telemetry=None):
    return {
        "schema": fabric_module.CELL_SCHEMA,
        "digest": digest,
        "job": {"benchmark": "gaussian", "mechanism": "lmi"},
        "cycles": 123,
        "stats": {"instructions": 456},
        "phases": {"sim": 0.5},
        "telemetry": telemetry,
    }


class TestCellCache:
    def test_round_trip(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        loaded = cache.load("d1", want_events=False)
        assert loaded["cycles"] == 123
        assert loaded["stats"] == {"instructions": 456}
        assert cache.stats.hits == 1 and cache.stats.stores == 1
        assert cache.journal_digests() == {"d1"}

    def test_missing_entry_is_a_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        assert cache.load("nope", want_events=False) is None
        assert cache.stats.misses == 1 and cache.stats.corrupt == 0

    def test_truncated_entry_is_corrupt_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        path = cache.path_for("d1")
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) - 7])
        assert cache.load("d1", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_garbage_entry_is_corrupt_miss(self, tmp_path):
        cache = CellCache(str(tmp_path))
        with open(cache.path_for("d1"), "wb") as handle:
            handle.write(b"not a cell record at all\n")
        assert cache.load("d1", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_foreign_digest_is_corrupt_miss(self, tmp_path):
        # A checksum-valid record filed under the wrong digest (renamed
        # or copied) must not be served.
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        os.rename(cache.path_for("d1"), cache.path_for("d2"))
        assert cache.load("d2", want_events=False) is None
        assert cache.stats.corrupt == 1

    def test_eventless_record_misses_when_events_wanted(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1", telemetry=None))
        assert cache.load("d1", want_events=True) is None
        assert cache.load("d1", want_events=False) is not None

    def test_quiet_load_counts_nothing(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.load("nope", want_events=False, quiet=True)
        assert cache.stats.misses == 0

    def test_journal_tolerates_torn_lines(self, tmp_path):
        cache = CellCache(str(tmp_path))
        cache.store(_record("d1"))
        with open(cache.journal_path, "a", encoding="utf-8") as handle:
            handle.write("{torn json\n")
        cache.store(_record("d2"))
        assert cache.journal_digests() == {"d1", "d2"}

    def test_concurrent_writers_never_tear_journal_lines(self, tmp_path):
        """Two handles (threads here; flock also covers processes)
        hammering one journal: every appended line stays valid JSON."""
        import json
        import threading

        per_writer = 40
        caches = [CellCache(str(tmp_path)) for _ in range(2)]
        start = threading.Barrier(2, timeout=10)
        errors = []

        def writer(slot):
            try:
                start.wait()
                for index in range(per_writer):
                    caches[slot].store(_record(f"w{slot}-{index}"))
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(slot,)) for slot in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
        # Every line parses and every digest arrived exactly once — no
        # interleaved or torn appends.
        with open(caches[0].journal_path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        digests = [json.loads(line)["digest"] for line in lines]
        assert len(digests) == 2 * per_writer
        assert sorted(digests) == sorted(
            f"w{slot}-{index}"
            for slot in range(2)
            for index in range(per_writer)
        )
        # Both handles' stat counters survived the hammering intact.
        assert sum(cache.stats.stores for cache in caches) == 2 * per_writer

    def test_shared_handle_counts_every_corrupt_read(self, tmp_path):
        """One handle read by more threads than cores (the serve
        daemon's executor shape): no lost ``corrupt`` increments."""
        import threading

        cache = CellCache(str(tmp_path))
        with open(cache.path_for("d1"), "wb") as handle:
            handle.write(b"not a cell record at all\n")
        threads_n, per_thread = 8, 200
        start = threading.Barrier(threads_n, timeout=10)

        def reader():
            start.wait()
            for _ in range(per_thread):
                cache.load("d1", want_events=False)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=reader) for _ in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        total = threads_n * per_thread
        assert cache.stats.corrupt == total
        assert cache.stats.misses == total


class TestResolvers:
    def test_cell_cache_env_and_memoization(self, monkeypatch, tmp_path):
        assert resolve_cell_cache() is None
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        first = resolve_cell_cache()
        assert first is not None
        assert resolve_cell_cache() is first  # stats accumulate

    def test_shard_parsing(self, monkeypatch):
        assert resolve_shard() is None
        assert resolve_shard("0/2") == (0, 2)
        assert resolve_shard("1/3") == (1, 3)
        assert resolve_shard("0/1") is None  # degrades to no sharding
        for bad in ("2/2", "-1/2", "x/y", "3"):
            with pytest.raises(ValueError):
                resolve_shard(bad)
        monkeypatch.setenv(SHARD_ENV, "1/2")
        assert resolve_shard() == (1, 2)


# ----------------------------------------------------------------------
# Byte-identity across cache states, shards, and worker deaths


_BENCHMARKS = ("gaussian", "needle", "LSTM")
_SIZES = dict(warps=3, instructions_per_warp=200)
_CELLS = len(_BENCHMARKS) * 4  # mechanisms: baseline, baggy, gpushield, lmi


def _fig12_with_exports(jobs: int = 1, sample_every: int = 1):
    """(table text, metrics JSON, trace JSON) for one captured run."""
    with capture(sample_every=sample_every) as hub:
        result = run_fig12(_BENCHMARKS, jobs=jobs, **_SIZES)
        metrics = json.dumps(
            metrics_json(hub.registry, recorder=hub.recorder),
            sort_keys=True,
        )
        trace = json.dumps(
            chrome_trace(hub.tracer, hub.recorder), sort_keys=True
        )
    return result.format_table(), metrics, trace


class TestByteIdentity:
    def test_cold_and_warm_match_uncached(self, monkeypatch, tmp_path):
        baseline = _fig12_with_exports()
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        cold = _fig12_with_exports()
        assert cold == baseline
        assert fabric_counters()["cells_executed"] == _CELLS
        reset_fabric_counters()
        warm = _fig12_with_exports()
        assert warm == baseline
        counts = fabric_counters()
        assert counts["cells_skipped"] == _CELLS
        assert counts["cells_executed"] == 0

    def test_warm_run_matches_under_worker_pool(
        self, monkeypatch, tmp_path
    ):
        baseline = _fig12_with_exports()
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        assert _fig12_with_exports(jobs=4) == baseline  # cold, pool
        reset_fabric_counters()
        assert _fig12_with_exports(jobs=4) == baseline  # warm, pool
        assert fabric_counters()["cells_skipped"] == _CELLS

    def test_corrupted_entry_rebuilds_identically(
        self, monkeypatch, tmp_path
    ):
        baseline = _fig12_with_exports()
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        _fig12_with_exports()  # populate
        cache = resolve_cell_cache()
        digest = cell_digest(
            SimJob("gaussian", "lmi", **_SIZES), DEFAULT_GPU_CONFIG
        )
        path = cache.path_for(digest)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])
        reset_fabric_counters()
        assert _fig12_with_exports() == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == 1  # rebuilt the bad cell
        assert counts["cells_skipped"] == _CELLS - 1
        # ...and the rebuild upgraded the entry in place.
        assert cache.load(digest, want_events=True) is not None

    def test_v1_record_misses_and_is_upgraded_in_place(
        self, monkeypatch, tmp_path
    ):
        """A record of the previous layout — the worker's events
        flattened into ``(kind, payload)`` tuples — is a miss under
        the v2 schema and is rebuilt in place."""
        import hashlib
        import pickle

        baseline = _fig12_with_exports()
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        _fig12_with_exports()  # populate
        cache = resolve_cell_cache()
        digest = cell_digest(
            SimJob("needle", "baggy", **_SIZES), DEFAULT_GPU_CONFIG
        )
        record = cache.load(digest, want_events=True)
        registry, entries = record["telemetry"]
        hub = Telemetry(enabled=True, ring_capacity=1 << 20)
        hub.replay(entries)
        events = [(e.kind, dict(e.payload)) for e in hub.recorder.events()]
        assert events
        record.update(
            schema="repro.experiments.cell/v1",
            telemetry=(registry, events),
        )
        payload = pickle.dumps(record)
        with open(cache.path_for(digest), "wb") as handle:
            handle.write(
                CellCache._MAGIC
                + hashlib.sha256(payload).hexdigest().encode("ascii")
                + b"\n"
                + payload
            )
        assert cache.load(digest, want_events=False) is None
        reset_fabric_counters()
        assert _fig12_with_exports() == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == 1
        assert counts["cells_skipped"] == _CELLS - 1
        upgraded = cache.load(digest, want_events=True)
        assert upgraded["schema"] == fabric_module.CELL_SCHEMA
        assert [len(entry) for entry in upgraded["telemetry"][1]] == [3]

    @pytest.mark.parametrize(
        "sample_env, hub_every", [("1/7", 1), ("1", 3), ("1/7", 3)]
    )
    def test_sampled_cold_and_warm_match_uncached(
        self, monkeypatch, tmp_path, sample_env, hub_every
    ):
        """Fast-path sampling (REPRO_TELEMETRY_SAMPLE) and a sampling
        parent hub: replayed blocks go through the recorder's
        arithmetic sampling path inside run_grid."""
        monkeypatch.setenv(SAMPLE_ENV, sample_env)
        baseline = _fig12_with_exports(sample_every=hub_every)
        sampled_out = json.loads(baseline[1])["events"]["sampled_out"]
        assert (sampled_out > 0) == (hub_every > 1)
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        assert _fig12_with_exports(sample_every=hub_every) == baseline
        assert fabric_counters()["cells_executed"] == _CELLS
        reset_fabric_counters()
        assert _fig12_with_exports(sample_every=hub_every) == baseline
        assert fabric_counters()["cells_skipped"] == _CELLS

    def test_worker_death_redispatches_exactly_once(
        self, monkeypatch, tmp_path
    ):
        baseline = _fig12_with_exports()
        monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
        monkeypatch.setenv(FAIL_CELL_ENV, "needle:gpushield")
        monkeypatch.setenv(FAIL_DIR_ENV, str(tmp_path))
        assert _fig12_with_exports(jobs=4) == baseline
        counts = fabric_counters()
        assert counts["cells_redispatched"] == 1
        assert counts["cells_executed"] == _CELLS
        # The marker proves the injected death actually fired.
        assert os.path.exists(str(tmp_path / "fabric-fail-once"))

    def test_shard_run_is_complete_and_identical(
        self, monkeypatch, tmp_path
    ):
        baseline = _fig12_with_exports()
        monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
        monkeypatch.setenv(SHARD_ENV, "0/2")
        # No peer shard is running, and the wait is 0: the foreign
        # half is computed locally as a steal of last resort — the
        # invocation still yields the complete artifact set.
        assert _fig12_with_exports() == baseline
        counts = fabric_counters()
        assert counts["cells_executed"] == _CELLS
        assert counts["cells_stolen"] == _CELLS // 2
        # The other shard now finds everything published.
        reset_fabric_counters()
        monkeypatch.setenv(SHARD_ENV, "1/2")
        assert _fig12_with_exports() == baseline
        assert fabric_counters()["cells_skipped"] == _CELLS

    def test_shard_without_cache_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(SHARD_ENV, "0/2")
        with pytest.raises(ValueError, match="cell-cache"):
            run_fig12(("gaussian",), warps=2, instructions_per_warp=120)


# ----------------------------------------------------------------------
# SIGINT + --resume (subprocess, full CLI path)


_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    for name in (CELL_CACHE_ENV, SHARD_ENV, SHARD_WAIT_ENV,
                 FAIL_CELL_ENV, FAIL_DIR_ENV):
        env.pop(name, None)
    return env


def _run_cli(args, timeout=240):
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig12", "--fast"]
        + args,
        cwd=_REPO_ROOT, env=_cli_env(), timeout=timeout,
        capture_output=True, text=True,
    )


@pytest.mark.slow
def test_resume_after_sigint_is_byte_identical(tmp_path):
    cells = str(tmp_path / "cells")
    baseline_metrics = tmp_path / "baseline.metrics.json"
    done = _run_cli(["--metrics", str(baseline_metrics)])
    assert done.returncode == 0, done.stderr

    # Interrupt a cached run once the journal shows progress.
    interrupted = subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", "fig12", "--fast",
         "--cell-cache", cells,
         "--metrics", str(tmp_path / "never.metrics.json")],
        cwd=_REPO_ROOT, env=_cli_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    journal = os.path.join(cells, "journal.jsonl")
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if interrupted.poll() is not None:
            break  # finished before we could interrupt; still a valid warm state
        if os.path.exists(journal) and os.path.getsize(journal) > 0:
            interrupted.send_signal(signal.SIGINT)
            break
        time.sleep(0.05)
    interrupted.wait(timeout=120)

    resumed_metrics = tmp_path / "resumed.metrics.json"
    resumed = _run_cli([
        "--cell-cache", cells, "--resume",
        "--metrics", str(resumed_metrics),
    ])
    assert resumed.returncode == 0, resumed.stderr
    assert "[fabric] resuming" in resumed.stdout
    assert resumed_metrics.read_bytes() == baseline_metrics.read_bytes()


# ----------------------------------------------------------------------
# Progress board + repro top: skipped is distinct from done


class TestSkippedOnTheBoard:
    def _board(self):
        board = ProgressBoard()
        board.begin_run("warm")
        return board

    def test_job_skipped_transitions_and_counts(self):
        board = self._board()
        job_id = board.job_queued("gaussian", "lmi")
        board.job_skipped(job_id)
        run = board.snapshot()["run"]
        assert run["skipped"] == 1
        assert run["done"] == 0 and run["queued"] == 0

    def test_skipped_is_terminal(self):
        board = self._board()
        job_id = board.job_queued("gaussian", "lmi")
        board.job_skipped(job_id)
        board.job_finished(job_id)  # must not double-transition
        run = board.snapshot()["run"]
        assert run["skipped"] == 1 and run["done"] == 0

    def test_skipped_does_not_feed_the_ewma(self):
        board = self._board()
        done_id = board.job_queued("gaussian", "lmi")
        board.job_running(done_id)
        board.job_finished(done_id)
        ewma_after_done = board.snapshot()["run"]["ewma_job_seconds"]
        skip_id = board.job_queued("needle", "lmi")
        board.job_skipped(skip_id)
        assert (
            board.snapshot()["run"]["ewma_job_seconds"] == ewma_after_done
        )

    def test_none_and_unknown_ids_are_noops(self):
        board = self._board()
        board.job_skipped(None)
        board.job_skipped("job-999")
        assert board.snapshot()["run"]["skipped"] == 0

    def test_format_top_shows_skipped_only_when_present(self):
        snapshot = {
            "run": {
                "name": "fig12", "status": "running", "total": 12,
                "done": 4, "skipped": 8, "running": 0, "queued": 0,
                "failed": 0, "retries": 0,
            },
        }
        rendered = format_top(snapshot)
        assert "8 skipped" in rendered
        snapshot["run"]["skipped"] = 0
        assert "skipped" not in format_top(snapshot)
