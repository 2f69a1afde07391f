"""Tests for the multi-SM simulator and trace-file serialization."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import GpuConfig
from repro.common.errors import SimulationError, TraceFormatError
from repro.sim import (
    GpuSimulator,
    KernelTrace,
    LmiTiming,
    OpClass,
    TraceInstruction,
    dump_trace,
    dump_trace_npz,
    load_trace,
    load_trace_npz,
    simulate,
)
from repro.workloads import TraceCache, profile, synthesize_trace, trace_key


def _mem(line, depends=False, buffer_id=0):
    return TraceInstruction(
        op=OpClass.LDG, depends=depends, lines=(line,), buffer_ids=(buffer_id,)
    )


class TestGpuSimulator:
    def test_warps_distributed_round_robin(self):
        trace = synthesize_trace("bert", warps=8, instructions_per_warp=100)
        result = GpuSimulator(num_sms=4).run(trace)
        assert len(result.per_sm) == 4
        assert result.total_instructions == trace.total_instructions

    def test_more_sms_than_warps(self):
        trace = synthesize_trace("bert", warps=3, instructions_per_warp=50)
        result = GpuSimulator(num_sms=16).run(trace)
        assert len(result.per_sm) == 3

    def test_cycles_is_slowest_sm(self):
        trace = synthesize_trace("bert", warps=6, instructions_per_warp=200)
        result = GpuSimulator(num_sms=3).run(trace)
        assert result.cycles == max(r.cycles for r in result.per_sm)
        assert result.load_imbalance >= 1.0

    def test_parallel_sms_beat_one_oversubscribed_sm(self):
        # 32 warps saturate one SM's issue port (>= 1 cycle per
        # instruction); split over 4 SMs the same work finishes far
        # sooner.  Latency-bound work with few warps would not scale —
        # per-warp dependency chains set the floor, as on real GPUs.
        trace = synthesize_trace("gaussian", warps=32,
                                 instructions_per_warp=400)
        one = GpuSimulator(num_sms=1).run(trace)
        four = GpuSimulator(num_sms=4).run(trace)
        assert one.cycles >= trace.total_instructions  # issue-saturated
        assert four.cycles < 0.6 * one.cycles

    def test_shared_dram_bandwidth_is_split_across_sms(self):
        """Same per-SM work, more active SMs -> each sees a smaller
        HBM bandwidth share (mean-field contention)."""
        streams = [
            [_mem(i * 128) for i in range(w * 500, w * 500 + 300)]
            for w in range(8)
        ]
        trace = KernelTrace(name="t", warps=streams)
        config = GpuConfig(dram_channels=1,
                           dram_bandwidth_bytes_per_cycle=32)
        wide = GpuSimulator(config, num_sms=1).run(trace)
        split = GpuSimulator(config, num_sms=8).run(trace)
        per_sm_split = max(r.cycles for r in split.per_sm)
        per_sm_wide = wide.per_sm[0].cycles
        # One SM with all warps streams at full bandwidth; each of the
        # 8 SMs gets 1/8 of it, so its single-warp stream slows down.
        assert split.cycles == per_sm_split
        assert per_sm_split > per_sm_wide / 8

    def test_model_factory_applied_per_sm(self):
        trace = synthesize_trace("gaussian", warps=4,
                                 instructions_per_warp=200)
        result = GpuSimulator(num_sms=2, model_factory=LmiTiming).run(trace)
        assert result.cycles > 0

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            GpuSimulator().run(KernelTrace(name="t", warps=[]))

    def test_zero_sms_rejected(self):
        with pytest.raises(SimulationError):
            GpuSimulator(num_sms=0)


class TestTraceFile:
    def test_roundtrip_through_string_buffer(self):
        trace = synthesize_trace("hotspot", warps=3, instructions_per_warp=150)
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        loaded = load_trace(buffer)
        assert loaded.name == trace.name
        assert loaded.warps == trace.warps

    def test_roundtrip_through_file(self, tmp_path):
        trace = synthesize_trace("needle", warps=2, instructions_per_warp=100)
        path = tmp_path / "needle.trace"
        dump_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.warps == trace.warps

    def test_replay_simulates_identically(self, tmp_path):
        trace = synthesize_trace("bfs", warps=4, instructions_per_warp=200)
        path = tmp_path / "bfs.trace"
        dump_trace(trace, path)
        original = simulate(trace)
        replayed = simulate(load_trace(path))
        assert replayed.cycles == original.cycles

    def test_empty_file_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO(""))

    def test_garbage_header_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO("not json\n"))

    def test_wrong_format_version_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(io.StringIO('{"format": 99, "name": "x", "warps": 0}\n'))

    def test_warp_count_mismatch_rejected(self):
        with pytest.raises(TraceFormatError):
            load_trace(
                io.StringIO('{"format": 1, "name": "x", "warps": 2}\n[]\n')
            )

    def test_bad_record_rejected(self):
        stream = io.StringIO(
            '{"format": 1, "name": "x", "warps": 1}\n[["quantum", 0]]\n'
        )
        with pytest.raises(TraceFormatError):
            load_trace(stream)

    def test_memory_record_missing_lines_rejected(self):
        stream = io.StringIO(
            '{"format": 1, "name": "x", "warps": 1}\n[["ldg", 0]]\n'
        )
        with pytest.raises(TraceFormatError):
            load_trace(stream)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["bert", "needle", "gaussian", "LSTM"]),
           st.integers(min_value=1, max_value=4))
    def test_roundtrip_property(self, name, warps):
        trace = synthesize_trace(name, warps=warps, instructions_per_warp=60)
        buffer = io.StringIO()
        dump_trace(trace, buffer)
        buffer.seek(0)
        assert load_trace(buffer).warps == trace.warps


# ----------------------------------------------------------------------
# The .npz load boundary: no TraceInstruction checks the records of a
# loaded trace, and the generated kernels index through its offsets
# unchecked, so the loader itself must refuse every malformed entry —
# and the trace cache must then re-synthesize.

#: Two warps: [INT, LDG(2 lines, buffer 5), FP] and
#: [INT checked, STG(1 line, buffers 1 and 2)].
_NPZ_TRACE = KernelTrace(
    name="npz",
    warps=[
        [
            TraceInstruction(op=OpClass.INT),
            TraceInstruction(
                op=OpClass.LDG, lines=(0, 128), buffer_ids=(5,)
            ),
            TraceInstruction(op=OpClass.FP, depends=True),
        ],
        [
            TraceInstruction(op=OpClass.INT, checked=True),
            TraceInstruction(op=OpClass.STG, lines=(256,), buffer_ids=(1, 2)),
        ],
    ],
)

_CACHE_REQUEST = ("gaussian", 2, 50)


def _cache_entry(tmp_path):
    """Path of the trace-cache entry for :data:`_CACHE_REQUEST`."""
    name, warps, per_warp = _CACHE_REQUEST
    key = trace_key(profile(name), warps=warps, instructions_per_warp=per_warp)
    return tmp_path / f"trace-{key}.npz"


def _assert_cache_resynthesizes(tmp_path):
    name, warps, per_warp = _CACHE_REQUEST
    cache = TraceCache(disk_dir=str(tmp_path))
    trace = cache.get_or_synthesize(
        name, warps=warps, instructions_per_warp=per_warp
    )
    assert cache.stats.disk_hits == 0
    assert trace == synthesize_trace(
        name, warps=warps, instructions_per_warp=per_warp
    )


def _set(column, index, value):
    def mutate(payload):
        payload[column][index] = value
    return mutate


def _replace(column, values):
    def mutate(payload):
        payload[column] = np.asarray(values, dtype=payload[column].dtype)
    return mutate


def _retype(column, dtype):
    def mutate(payload):
        payload[column] = payload[column].astype(dtype)
    return mutate


#: One violated rule per case: (id, mutation, message pattern).  The
#: base columns are ops [0, 2, 1, 0, 3], warp_offsets [0, 3, 5],
#: line_offsets [0, 0, 2, 2, 2, 3], buffer_offsets [0, 1, 2, 3, 4, 6].
_BAD_NPZ = [
    ("op-code-past-7", _set("ops", 2, 8), "op code out of range"),
    ("warp-offsets-start", _replace("warp_offsets", [1, 3, 5]),
     "warp offsets must run from 0"),
    ("warp-offsets-decrease", _replace("warp_offsets", [0, 4, 3, 5]),
     "warp offsets must not decrease"),
    ("line-offsets-decrease",
     _replace("line_offsets", [0, 0, 2, 1, 2, 3]),
     "line offsets must not decrease"),
    ("buffer-offsets-end", _replace("buffer_offsets", [0, 1, 2, 3, 4, 7]),
     "buffer offsets must run from 0 to 6"),
    ("checked-not-int", _set("checked", 1, True), "only INT ops"),
    ("alu-with-lines", _replace("line_offsets", [0, 1, 2, 2, 2, 3]),
     "ALU ops cannot carry"),
    ("memory-without-lines", _set("ops", 2, 2), "at least one transaction"),
    ("memory-without-buffers",
     _replace("buffer_offsets", [0, 2, 2, 3, 4, 6]),
     "at least one buffer id"),
    ("wrong-dtype", _retype("ops", np.int64), "must be 1-D uint8"),
]


def _write_bad_npz(path, mutate):
    buffer = io.BytesIO()
    dump_trace_npz(_NPZ_TRACE, buffer)
    buffer.seek(0)
    with np.load(buffer) as archive:
        payload = {name: archive[name].copy() for name in archive.files}
    mutate(payload)
    np.savez_compressed(path, **payload)


class TestNpzLoadBoundary:
    def test_hand_built_trace_loads(self, tmp_path):
        path = tmp_path / "good.npz"
        _write_bad_npz(path, lambda payload: None)
        assert load_trace_npz(path) == _NPZ_TRACE

    @pytest.mark.parametrize(
        "mutate, message",
        [case[1:] for case in _BAD_NPZ],
        ids=[case[0] for case in _BAD_NPZ],
    )
    def test_rule_violation_rejected(self, tmp_path, mutate, message):
        path = _cache_entry(tmp_path)
        _write_bad_npz(path, mutate)
        with pytest.raises(TraceFormatError, match=message):
            load_trace_npz(path)
        _assert_cache_resynthesizes(tmp_path)

    @pytest.mark.parametrize("damage", ["truncated", "bit-flipped", "npy"])
    def test_damaged_dump_rejected(self, tmp_path, damage):
        """A real cache entry cut short, with one flipped byte or
        replaced by a bare ``.npy`` array raises the contract's
        TraceFormatError, not a zipfile/zlib/TypeError."""
        name, warps, per_warp = _CACHE_REQUEST
        TraceCache(disk_dir=str(tmp_path)).get_or_synthesize(
            name, warps=warps, instructions_per_warp=per_warp
        )
        path = _cache_entry(tmp_path)
        data = bytearray(path.read_bytes())
        if damage == "truncated":
            del data[len(data) // 2:]
        elif damage == "bit-flipped":
            data[len(data) // 2] ^= 0xFF  # inside a deflated member
        else:
            buffer = io.BytesIO()
            np.save(buffer, np.arange(8))
            data = buffer.getvalue()
        path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError):
            load_trace_npz(path)
        _assert_cache_resynthesizes(tmp_path)
