"""Kernel-trace serialization (the NVBit → MacSim file flow).

The paper's methodology captures CUDA traces with NVBit and feeds them
to MacSim as files.  This module provides the same decoupling for this
repo: a compact JSON-lines format (one header line, then one line per
warp) so traces can be generated once, inspected, versioned, and
replayed through the simulator.

Record format (per instruction, positional for compactness)::

    [op, flags, lines, buffer_ids]

with ``flags`` bit 0 = depends, bit 1 = checked; ``lines`` and
``buffer_ids`` omitted for ALU ops.

Next to the JSON-lines form there is a **columnar ``.npz`` format**
(:func:`dump_trace_npz` / :func:`load_trace_npz`): the
:class:`~repro.sim.columnar.ColumnarTrace` arrays plus a versioned
header, written with ``np.savez_compressed``.  It is the on-disk shape
the trace cache and the parallel experiment engine ship between
processes.  Loading it builds no per-instruction objects: the arrays
become the trace's columnar form, which the simulator's fast path
decodes as is, and the loader validates the record rules on the whole
columns (the generated kernels index through them unchecked).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import BinaryIO, List, TextIO, Union
from zipfile import BadZipFile

import numpy as np

from ..common.errors import TraceFormatError
from .trace import KernelTrace, OpClass, TraceInstruction

#: Format identifier written into the header line.
FORMAT_VERSION = 1

#: Format identifier of the columnar ``.npz`` container.
NPZ_FORMAT_VERSION = 1

#: Columns stored in the ``.npz`` container with their dtypes, in
#: schema order.
_NPZ_COLUMNS = {
    "ops": np.uint8,
    "depends": np.bool_,
    "checked": np.bool_,
    "warp_offsets": np.int64,
    "line_offsets": np.int64,
    "lines": np.int64,
    "buffer_offsets": np.int64,
    "buffers": np.int64,
}


def _encode_instruction(instr: TraceInstruction) -> list:
    flags = (1 if instr.depends else 0) | (2 if instr.checked else 0)
    if instr.op.is_memory:
        return [instr.op.value, flags, list(instr.lines),
                list(instr.buffer_ids)]
    return [instr.op.value, flags]


def _decode_instruction(record: list) -> TraceInstruction:
    try:
        op = OpClass(record[0])
        flags = record[1]
    except (IndexError, ValueError, KeyError) as error:
        raise TraceFormatError(f"bad trace record {record!r}") from error
    depends = bool(flags & 1)
    checked = bool(flags & 2)
    if op.is_memory:
        if len(record) < 4:
            raise TraceFormatError(
                f"memory record missing transactions: {record!r}"
            )
        return TraceInstruction(
            op=op,
            depends=depends,
            checked=checked,
            lines=tuple(record[2]),
            buffer_ids=tuple(record[3]),
        )
    return TraceInstruction(op=op, depends=depends, checked=checked)


def dump_trace(trace: KernelTrace, target: Union[str, Path, TextIO]) -> None:
    """Write *trace* as JSON lines."""
    own = isinstance(target, (str, Path))
    stream = open(target, "w") if own else target
    try:
        header = {
            "format": FORMAT_VERSION,
            "name": trace.name,
            "warps": len(trace.warps),
        }
        stream.write(json.dumps(header) + "\n")
        for warp_stream in trace.warps:
            records = [_encode_instruction(i) for i in warp_stream]
            stream.write(json.dumps(records) + "\n")
    finally:
        if own:
            stream.close()


def load_trace(source: Union[str, Path, TextIO]) -> KernelTrace:
    """Read a trace written by :func:`dump_trace`."""
    own = isinstance(source, (str, Path))
    stream = open(source) if own else source
    try:
        header_line = stream.readline()
        if not header_line:
            raise TraceFormatError("empty trace file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as error:
            raise TraceFormatError("unparsable trace header") from error
        if header.get("format") != FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format {header.get('format')!r}"
            )
        warps: List[List[TraceInstruction]] = []
        for line in stream:
            if not line.strip():
                continue
            try:
                records = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceFormatError("unparsable warp line") from error
            warps.append([_decode_instruction(r) for r in records])
        if len(warps) != header.get("warps"):
            raise TraceFormatError(
                f"header claims {header.get('warps')} warps, "
                f"file holds {len(warps)}"
            )
        return KernelTrace(name=header.get("name", "trace"), warps=warps)
    finally:
        if own:
            stream.close()


# ----------------------------------------------------------------------
# Columnar .npz container.


def dump_trace_npz(
    trace: KernelTrace, target: Union[str, Path, BinaryIO]
) -> None:
    """Write *trace* as a versioned columnar ``.npz`` container.

    The container holds the :class:`~repro.sim.columnar.ColumnarTrace`
    arrays verbatim plus a ``header`` array carrying the format version
    and the (UTF-8 encoded) kernel name, so the file is self-describing
    and refuses to load under an incompatible schema.
    """
    from .columnar import columnar_of

    columnar = columnar_of(trace)
    payload = {name: getattr(columnar, name) for name in _NPZ_COLUMNS}
    payload["header"] = np.frombuffer(
        json.dumps(
            {"format": NPZ_FORMAT_VERSION, "name": columnar.name}
        ).encode("utf-8"),
        dtype=np.uint8,
    )
    own = isinstance(target, (str, Path))
    stream = open(target, "wb") if own else target
    try:
        np.savez_compressed(stream, **payload)
    finally:
        if own:
            stream.close()


def load_trace_npz(source: Union[str, Path, BinaryIO]) -> KernelTrace:
    """Read a trace written by :func:`dump_trace_npz`.

    The returned :class:`KernelTrace` is columnar-first: the fast path
    decodes its arrays directly, and its ``warps`` are materialized
    only when something asks for them (the oracle, the JSON-lines
    writer, ``==``).  Since no :class:`TraceInstruction` checks the
    records at load, :class:`~repro.sim.columnar.ColumnarTrace`
    enforces their rules on the whole columns; any unreadable,
    truncated, corrupt or rule-breaking container raises
    :class:`TraceFormatError`.
    """
    from .columnar import ColumnarTrace

    try:
        archive = np.load(source, allow_pickle=False)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise TraceFormatError("not an npz container")
        with archive:
            if "header" not in archive:
                raise TraceFormatError("npz trace missing header")
            try:
                header = json.loads(bytes(archive["header"]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise TraceFormatError("unparsable npz trace header") from error
            if not isinstance(header, dict):
                header = {}
            version = header.get("format")
            if version != NPZ_FORMAT_VERSION:
                raise TraceFormatError(
                    f"unsupported npz trace format {version!r}"
                )
            missing = [c for c in _NPZ_COLUMNS if c not in archive]
            if missing:
                raise TraceFormatError(
                    f"npz trace missing columns: {missing}"
                )
            columns = {}
            for name, dtype in _NPZ_COLUMNS.items():
                column = archive[name]
                if column.ndim != 1 or column.dtype != dtype:
                    raise TraceFormatError(
                        f"npz trace column {name!r} must be 1-D "
                        f"{np.dtype(dtype).name}, not {column.ndim}-D "
                        f"{column.dtype.name}"
                    )
                columns[name] = np.ascontiguousarray(column)
    except (
        OSError, ValueError, KeyError, EOFError, BadZipFile, zlib.error,
        NotImplementedError,  # zipfile: unknown compression method
    ) as error:
        raise TraceFormatError(f"unreadable npz trace: {error}") from error
    return ColumnarTrace(
        name=str(header.get("name", "trace")), **columns
    ).to_trace()
