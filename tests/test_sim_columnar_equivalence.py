"""Columnar-engine equivalence suite.

The vectorized data plane of :mod:`repro.sim.columnar` (and its
optional C executor in :mod:`repro.sim.native`) must be cycle-for-cycle
and stat-for-stat identical to the locked linear-scan ground truth in
:mod:`repro.sim.reference` — not just cycles and :class:`SimStats`,
but the L1/L2/RCache hit-miss counters and DRAM queueing state too,
because warm-cache semantics are part of the simulator contract.

Coverage:

* a seeded (profile × warps × instructions) grid × all four timing
  models × every execution path (native C, pure-Python columnar loop,
  and ``scalar``: the simulator's oracle fallback, i.e. the reference
  scan loop over the simulator's own array-backed caches);
* a seeded differential fuzzer over random synthetic traces, cache
  geometries, all four mechanisms and one opaque model, on both the
  native path and ``REPRO_SIM_NATIVE=0``;
* warm-run parity (cache/DRAM state carried across runs);
* edge shapes the grid cannot hit: empty warp streams, >64-warp traces
  (past the native executor's bitmask width), ``hit_latency=1``
  geometry, custom timing models that force the oracle fallback;
* the :class:`~repro.sim.trace.TraceMemo` bound/namespacing contract;
* byte-identity of the experiment engine's ``.npz``-shipping fan-out
  and of the batched serial path against the fabric's per-job path.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.common.config import DEFAULT_GPU_CONFIG, CacheConfig, GpuConfig
from repro.common.errors import SimulationError
from repro.experiments import engine as engine_module
from repro.experiments.engine import SimJob, run_sim_jobs
from repro.sim import (
    KernelTrace,
    OpClass,
    SmSimulator,
    TraceInstruction,
    native_available,
)
from repro.sim.columnar import ColumnarTrace, expanded_columnar
from repro.sim.native import NATIVE_ENV
from repro.sim.reference import ReferenceSmSimulator
from repro.sim.timing import BaggyBoundsTiming, TimingModel
from repro.sim.trace import TRACE_MEMO_CAPACITY, TraceMemo, trace_memo
from repro.experiments.fabric import CELL_CACHE_ENV
from repro.telemetry import EventKind, capture, chrome_trace, dumps, \
    metrics_json
from repro.telemetry.runtime import SAMPLE_ENV
from repro.workloads import synthesize_trace

# ----------------------------------------------------------------------
# The equivalence grid.

#: Seeded (benchmark, warps, instructions) corpus: ≥10 combos spanning
#: memory-heavy, compute-bound, uncoalesced and mixed profiles at
#: several occupancies (including a 16-warp fig12-shaped point).
CORPUS = [
    ("gaussian", 4, 260),
    ("gaussian", 16, 200),
    ("needle", 3, 280),
    ("LSTM", 5, 240),
    ("LSTM", 12, 180),
    ("bert", 4, 260),
    ("hotspot", 6, 220),
    ("lud_cuda", 3, 260),
    ("bfs", 7, 200),
    ("srad_v1", 2, 300),
    ("nn", 1, 200),
]

MODELS = ("baseline", "lmi", "gpushield", "baggy")

#: Execution paths under test.  ``native`` lets the C executor run
#: (skipped when no toolchain), ``python`` pins the pure-Python
#: columnar issue loop, ``scalar`` withholds the issue plan so the
#: simulator runs the oracle's scan loop over its own caches — the
#: path opaque timing models and warm scalar RCaches take.
PATHS = ("native", "python", "scalar")


def _combo_id(combo) -> str:
    benchmark, warps, instructions = combo
    return f"{benchmark}-w{warps}-i{instructions}"


def _pin_path(monkeypatch, path: str) -> None:
    """Pin one execution path of :class:`SmSimulator`."""
    if path == "native":
        if not native_available():
            pytest.skip("no C toolchain for the native executor")
        monkeypatch.delenv(NATIVE_ENV, raising=False)
    elif path == "python":
        monkeypatch.setenv(NATIVE_ENV, "0")
    else:
        monkeypatch.setattr(
            SmSimulator, "_fast_plan", lambda self, trace: None
        )


def _state(sim) -> tuple:
    """Externally observable simulator state after a run."""
    rcache = getattr(sim.model, "rcache", None)
    return (
        (sim.l1.stats.hits, sim.l1.stats.misses),
        (sim.l2.stats.hits, sim.l2.stats.misses),
        (sim.dram.stats.requests, sim.dram.stats.queue_delay_cycles),
        None
        if rcache is None
        else (rcache.stats.hits, rcache.stats.misses),
        list(sim.dram.channel_free_at),
    )


def _run_both(trace, mechanism, config=DEFAULT_GPU_CONFIG, runs=1):
    """(got, want, got_state, want_state) after *runs* warm runs."""
    sim = SmSimulator(config, engine_module.model_factory(mechanism))
    ref = ReferenceSmSimulator(config, engine_module.model_factory(mechanism))
    for _ in range(runs):
        got = sim.run(trace)
        want = ref.run(trace)
    return got, want, _state(sim), _state(ref)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mechanism", MODELS)
@pytest.mark.parametrize("combo", CORPUS, ids=_combo_id)
def test_columnar_matches_reference(combo, mechanism, path, monkeypatch):
    benchmark, warps, instructions = combo
    _pin_path(monkeypatch, path)
    trace = synthesize_trace(
        benchmark, warps=warps, instructions_per_warp=instructions
    )
    got, want, got_state, want_state = _run_both(trace, mechanism)
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got.name == want.name
    assert got_state == want_state


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("mechanism", MODELS)
def test_warm_run_state_parity(mechanism, path, monkeypatch):
    """Cache/DRAM state must carry identically across warm runs."""
    _pin_path(monkeypatch, path)
    trace = synthesize_trace("hotspot", warps=6, instructions_per_warp=220)
    got, want, got_state, want_state = _run_both(trace, mechanism, runs=2)
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


@pytest.mark.parametrize("path", PATHS)
def test_hit_latency_one_geometry(path, monkeypatch):
    """Degenerate hit_latency=1 geometry (tiny caches, few channels)."""
    _pin_path(monkeypatch, path)
    config = GpuConfig(
        l1=CacheConfig(size_bytes=2048, line_bytes=128, ways=2,
                       hit_latency=1),
        l2=CacheConfig(size_bytes=8192, line_bytes=128, ways=4,
                       hit_latency=3),
        dram_latency=40,
        dram_channels=2,
    )
    trace = synthesize_trace("bfs", warps=5, instructions_per_warp=240)
    for mechanism in MODELS:
        got, want, got_state, want_state = _run_both(
            trace, mechanism, config=config
        )
        assert got.cycles == want.cycles
        assert got.stats == want.stats
        assert got_state == want_state


@pytest.mark.parametrize("path", PATHS)
def test_empty_stream_warp(path, monkeypatch):
    """Zero-instruction warps must not wedge any engine."""
    _pin_path(monkeypatch, path)
    busy = [
        TraceInstruction(op=OpClass.INT),
        TraceInstruction(op=OpClass.LDG, lines=(0x100,), depends=True),
        TraceInstruction(op=OpClass.FP, depends=True),
    ]
    trace = KernelTrace(name="edge", warps=[list(busy), [], list(busy)])
    got, want, got_state, want_state = _run_both(trace, "baseline")
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


def test_no_warps_raises(monkeypatch):
    for path in ("python", "scalar"):
        _pin_path(monkeypatch, path)
        with pytest.raises(SimulationError):
            SmSimulator().run(KernelTrace(name="empty"))


def test_past_native_bitmask_width(monkeypatch):
    """>64 warps spill past one ready-mask word: the generated
    kernel's multi-word wide variant must stay cycle-exact (and the
    Python loop must agree when the kernel is unavailable)."""
    trace = synthesize_trace("gaussian", warps=65, instructions_per_warp=40)
    got, want, got_state, want_state = _run_both(trace, "lmi")
    assert got.cycles == want.cycles
    assert got.stats == want.stats
    assert got_state == want_state


# ----------------------------------------------------------------------
# Oracle fallback for timing models the lowering does not understand.


class _JitterTiming(TimingModel):
    """A custom model: perturbs latency, no stable expansion key."""

    def extra_latency(self, instr, now):  # noqa: D102
        return 2 if instr.op.is_memory else 0

    def expansion_key(self):  # noqa: D102
        return None


def test_custom_model_takes_scalar_path():
    trace = synthesize_trace("needle", warps=4, instructions_per_warp=200)
    got = SmSimulator(DEFAULT_GPU_CONFIG, _JitterTiming()).run(trace)
    want = ReferenceSmSimulator(DEFAULT_GPU_CONFIG, _JitterTiming()).run(
        trace
    )
    assert got.cycles == want.cycles
    assert got.stats == want.stats


def test_warm_scalar_rcache_runs_oracle():
    """A GPUShield model bound with a warm SetAssociativeCache RCache
    keeps its contents: the simulator runs the oracle's scan loop over
    it (and its own caches) instead of flushing it."""
    trace = synthesize_trace("LSTM", warps=4, instructions_per_warp=160)
    warm_probe = TraceInstruction(
        op=OpClass.LDG, lines=(0x80,), buffer_ids=(0, 1, 2)
    )

    def warmed():
        model = engine_module.model_factory("gpushield")
        model.extra_latency(warm_probe, 0)
        return model

    sim = SmSimulator(DEFAULT_GPU_CONFIG, warmed())
    assert sim._fast_plan(trace) is None
    ref = ReferenceSmSimulator(DEFAULT_GPU_CONFIG, warmed())
    for _ in range(2):
        got = sim.run(trace)
        want = ref.run(trace)
        assert got.cycles == want.cycles
        assert got.stats == want.stats
    assert _state(sim) == _state(ref)


# ----------------------------------------------------------------------
# Differential fuzzer: SmSimulator (both fast paths) vs the oracle.

_FUZZ_OPS = (
    OpClass.INT, OpClass.FP, OpClass.LDG, OpClass.STG,
    OpClass.LDS, OpClass.STS, OpClass.LDL, OpClass.STL,
)


@st.composite
def _fuzz_instructions(draw):
    op = draw(st.sampled_from(_FUZZ_OPS))
    depends = draw(st.booleans())
    if not op.is_memory:
        checked = op is OpClass.INT and draw(st.booleans())
        return TraceInstruction(op=op, depends=depends, checked=checked)
    # A small line pool so L1/L2 hits, conflicts and evictions all
    # happen; a small buffer-id pool does the same for the RCache.
    lines = tuple(
        draw(st.lists(
            st.integers(min_value=0, max_value=47).map(lambda n: n * 128),
            min_size=1, max_size=4,
        ))
    )
    buffer_ids = tuple(
        draw(st.lists(
            st.integers(min_value=0, max_value=23), min_size=1, max_size=3,
        ))
    )
    return TraceInstruction(
        op=op, depends=depends, lines=lines, buffer_ids=buffer_ids
    )


@st.composite
def _fuzz_traces(draw):
    """1–200 warps (any of them empty), ≤ ~300 instructions total."""
    warps = draw(st.integers(min_value=1, max_value=200))
    per_warp = max(1, min(12, 300 // warps))
    streams = [
        draw(st.lists(_fuzz_instructions(), min_size=0, max_size=per_warp))
        for _ in range(warps)
    ]
    return KernelTrace(name="fuzz", warps=streams)


@st.composite
def _fuzz_configs(draw):
    def level(ways, sets, latencies):
        way_count = draw(st.sampled_from(ways))
        return CacheConfig(
            size_bytes=128 * way_count * draw(st.sampled_from(sets)),
            line_bytes=128,
            ways=way_count,
            hit_latency=draw(st.sampled_from(latencies)),
        )

    return GpuConfig(
        l1=level((1, 2, 4), (1, 3, 8), (1, 4, 30)),
        l2=level((2, 4, 8), (4, 16), (1, 12, 200)),
        dram_channels=draw(st.sampled_from((1, 2, 8))),
    )


_FUZZ_MODELS = MODELS + ("opaque",)


def _fuzz_model(name):
    if name == "opaque":
        return _JitterTiming()
    return engine_module.model_factory(name)


#: Pinned example: >64 warps (the wide ready mask), empty warps in
#: between, and hit_latency=1 at both cache levels.
_WIDE_TRACE = KernelTrace(
    name="fuzz-wide",
    warps=[
        []
        if index % 7 == 3
        else [
            TraceInstruction(op=OpClass.INT, checked=index % 2 == 0),
            TraceInstruction(
                op=OpClass.LDG, lines=(128 * (index % 40),),
                buffer_ids=(index % 9,), depends=True,
            ),
            TraceInstruction(op=OpClass.FP, depends=True),
        ]
        for index in range(130)
    ],
)
_TIGHT_CONFIG = GpuConfig(
    l1=CacheConfig(size_bytes=256, line_bytes=128, ways=2, hit_latency=1),
    l2=CacheConfig(size_bytes=2048, line_bytes=128, ways=4, hit_latency=1),
    dram_channels=2,
)


@seed(20261017)
@settings(max_examples=20, deadline=None)
@example(trace=_WIDE_TRACE, config=_TIGHT_CONFIG)
@given(trace=_fuzz_traces(), config=_fuzz_configs())
def test_differential_fuzz_against_oracle(trace, config):
    """Random traces × cache geometries × every mechanism (plus one
    opaque model): both fast paths must match the oracle in cycles,
    SimStats, L1/L2/RCache counters and DRAM state."""
    native_modes = ("1", "0") if native_available() else ("0",)
    for name in _FUZZ_MODELS:
        ref = ReferenceSmSimulator(config, _fuzz_model(name))
        want = ref.run(trace)
        for native in native_modes:
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv(NATIVE_ENV, native)
                sim = SmSimulator(config, _fuzz_model(name))
                got = sim.run(trace)
            assert got.cycles == want.cycles, (name, native)
            assert got.stats == want.stats, (name, native)
            assert _state(sim) == _state(ref), (name, native)


# ----------------------------------------------------------------------
# TraceMemo: bounded, namespaced, legacy-attribute proof.


def test_trace_memo_is_bounded():
    memo = TraceMemo(capacity=4)
    for n in range(10):
        memo.put(("k", n), n)
    assert len(memo) == 4
    assert memo.get(("k", 9)) == 9
    assert memo.get(("k", 0)) is None
    with pytest.raises(ValueError):
        TraceMemo(capacity=0)


def test_trace_memo_namespaces_model_families():
    """Equal content keys from different model classes cannot alias."""

    class _OtherBaggy(BaggyBoundsTiming):
        pass

    trace = synthesize_trace("gaussian", warps=2, instructions_per_warp=120)
    a = expanded_columnar(trace, BaggyBoundsTiming())
    b = expanded_columnar(trace, _OtherBaggy())
    assert a is not b  # same ("baggy", n) key, distinct namespaces
    assert a == b  # ... over identical content
    assert a is expanded_columnar(trace, BaggyBoundsTiming())  # memo hit
    assert len(trace_memo(trace)) <= TRACE_MEMO_CAPACITY


def test_trace_memo_sweep_stays_bounded():
    """A parameter sweep over rewriting models cannot grow the memo
    past its cap (the historical unbounded ``_expansion_memo``)."""
    trace = synthesize_trace("needle", warps=2, instructions_per_warp=80)
    for n in range(1, 2 * TRACE_MEMO_CAPACITY + 2):
        expanded_columnar(trace, BaggyBoundsTiming(instructions_per_check=n))
    assert len(trace_memo(trace)) <= TRACE_MEMO_CAPACITY


def test_trace_memo_ignores_legacy_attribute():
    """Stale ``_expansion_memo`` dicts (old pickled traces) are inert."""
    trace = synthesize_trace("nn", warps=2, instructions_per_warp=60)
    object.__setattr__(trace, "_expansion_memo", {("baggy", 4): "stale"})
    expanded = expanded_columnar(trace, BaggyBoundsTiming())
    assert isinstance(expanded, ColumnarTrace)
    assert expanded.total_instructions > sum(map(len, trace.warps))


# ----------------------------------------------------------------------
# Engine fan-out: the columnar .npz shipping keeps --jobs byte-identical.


def _job_rows(results):
    return [
        (r.job.key, r.cycles, r.stats.__dict__) for r in results
    ]


def test_jobs_npz_shipping_byte_identical(monkeypatch):
    """run_sim_jobs must merge worker results (shipped as columnar
    ``.npz``) into exactly the serial outcome, in submission order."""
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle", "LSTM")
        for mechanism in MODELS
    ]
    serial = run_sim_jobs(jobs, n_jobs=1)
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    fanned = run_sim_jobs(jobs, n_jobs=4)
    assert _job_rows(fanned) == _job_rows(serial)


# ----------------------------------------------------------------------
# Fast-path telemetry: the columnar/native engines stay engaged with
# telemetry live, publish oracle-identical counters, and keep the
# metrics/trace artifacts byte-identical for any --jobs value.


def test_telemetry_enabled_keeps_columnar_engine(monkeypatch):
    """With telemetry live the fast path must not fall back to the
    oracle's scan loop."""
    trace = synthesize_trace("gaussian", warps=3, instructions_per_warp=160)

    def boom(self, _trace):
        raise AssertionError("telemetry forced the oracle fallback")

    with capture() as t:
        monkeypatch.setattr(SmSimulator, "_run_oracle", boom)
        result = SmSimulator(
            model=engine_module.model_factory("lmi")
        ).run(trace)
        assert result.cycles > 0
        assert t.registry.total("sim.instructions") \
            == result.stats.instructions
        assert any(
            e.kind is EventKind.WARP_ISSUE for e in t.recorder.events()
        )


@pytest.mark.parametrize("mechanism", MODELS)
def test_fast_path_counter_parity_with_scalar(mechanism, monkeypatch):
    """The fast path's registry snapshot must equal one built from the
    oracle's SimStats and L1/L2 CacheStats with the same publish
    calls: `_publish_fast_path` folds in identically evolved totals."""
    trace = synthesize_trace("LSTM", warps=5, instructions_per_warp=240)

    with capture() as t:
        SmSimulator(model=engine_module.model_factory(mechanism)).run(trace)
        fast = json.dumps(t.registry.snapshot(), sort_keys=True)
    ref = ReferenceSmSimulator(model=engine_module.model_factory(mechanism))
    result = ref.run(trace)
    with capture() as t:
        result.stats.publish(t.registry, trace=trace.name)
        ref.l1.stats.publish(t.registry, unit="l1", trace=trace.name)
        ref.l2.stats.publish(t.registry, unit="l2", trace=trace.name)
        oracle = json.dumps(t.registry.snapshot(), sort_keys=True)
    assert fast == oracle


def test_fast_path_events_native_python_identical(monkeypatch):
    """The C executor and the pure-Python issue loop apply the same
    seed-derived sampling comb, so the recorded event rings are
    byte-identical under any REPRO_TELEMETRY_SAMPLE."""
    if not native_available():
        pytest.skip("no C toolchain for the native executor")
    trace = synthesize_trace("bfs", warps=6, instructions_per_warp=220)

    def ring(native, sample):
        if native:
            monkeypatch.delenv(NATIVE_ENV, raising=False)
        else:
            monkeypatch.setenv(NATIVE_ENV, "0")
        monkeypatch.setenv(SAMPLE_ENV, sample)
        with capture() as t:
            simulate_result = SmSimulator(
                model=engine_module.model_factory("lmi")
            ).run(trace)
            assert simulate_result.cycles > 0
            return [
                (e.seq, e.ts, dict(e.payload))
                for e in t.recorder.events()
            ]

    for sample in ("1", "1/7", "16"):
        native_ring = ring(True, sample)
        python_ring = ring(False, sample)
        assert native_ring, (sample, "empty ring")
        assert native_ring == python_ring, sample


def test_jobs_metrics_and_trace_export_byte_identical(monkeypatch):
    """--metrics/--trace artifacts from a telemetry-enabled fast-path
    run must be byte-identical for any --jobs value: workers ship
    registry snapshots + event rings, the parent replays them in
    submission order under identical per-job spans."""
    monkeypatch.setenv(SAMPLE_ENV, "1/3")
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle")
        for mechanism in ("baseline", "lmi")
    ]

    def artifacts(n_jobs):
        with capture() as t:
            run_sim_jobs(jobs, n_jobs=n_jobs)
            return (
                dumps(metrics_json(t.registry, recorder=t.recorder)),
                dumps(chrome_trace(t.tracer, t.recorder)),
            )

    serial = artifacts(1)
    monkeypatch.setattr(engine_module.os, "cpu_count", lambda: 4)
    fanned = artifacts(4)
    assert fanned[0] == serial[0]
    assert fanned[1] == serial[1]


def test_batch_width_exports_byte_identical(monkeypatch, tmp_path):
    """--metrics/--trace artifacts and results of the batched serial
    path must be byte-identical to the fabric's per-job path: the
    batched executor runs whole groups through one native FFI crossing
    but still publishes per job, in submission order, inside each
    job's span.  Ten jobs span two batch groups."""
    monkeypatch.setenv(SAMPLE_ENV, "1/3")
    jobs = [
        SimJob(
            benchmark=benchmark,
            mechanism=mechanism,
            warps=3,
            instructions_per_warp=160,
        )
        for benchmark in ("gaussian", "needle", "bfs")
        for mechanism in MODELS
    ][:10]

    def artifacts():
        with capture() as t:
            results = run_sim_jobs(jobs)
            return (
                _job_rows(results),
                dumps(metrics_json(t.registry, recorder=t.recorder)),
                dumps(chrome_trace(t.tracer, t.recorder)),
            )

    monkeypatch.delenv(CELL_CACHE_ENV, raising=False)
    batched = artifacts()
    monkeypatch.setenv(CELL_CACHE_ENV, str(tmp_path / "cells"))
    per_job = artifacts()
    assert batched[0] == per_job[0]
    assert batched[1] == per_job[1]
    assert batched[2] == per_job[2]
