"""Helpers the benchmark runs inside the program's own interpreter.

Usage (``PYTHONPATH=src``, from the root of a checkout)::

    python3 perfbench/launch.py experiments SPANS.json -- [CLI args]
    python3 perfbench/launch.py serve SPANS.json -- [serve args]
    python3 perfbench/launch.py prewarm WARPS INSTS MECHANISM...
    python3 perfbench/launch.py engine-check CASES.json RESULT.json

``experiments`` and ``serve`` install the span wrappers of
:mod:`spans`, call the CLI entry point exactly as ``python -m
repro.experiments`` / ``python -m repro serve`` would, and write the
spans to SPANS.json when the entry point returns.  ``prewarm``
compiles the native kernels the serving workload's requests need, so
that cost lands in the benchmark's set-up.  ``engine-check``
recomputes sampled serve responses with a direct ``run_jobs_batched``
call and reports every body that differs.
"""

from __future__ import annotations

import time

LAUNCHED = time.perf_counter()

import json  # noqa: E402  (after the launch timestamp on purpose)
import sys  # noqa: E402

import spans  # noqa: E402


def _traced_experiments(spans_path: str, argv) -> int:
    recorder = spans.SpanRecorder(LAUNCHED)
    imports = recorder.open("python.import", "cli")
    spans.install(recorder)
    import repro.experiments.__main__ as cli

    spans.install_experiments_cli(recorder, cli)
    recorder.close(imports)
    root = recorder.open("experiments.cli", "cli")
    try:
        return cli.main(argv)
    finally:
        recorder.close(root)
        _native_counters(recorder)
        recorder.dump(spans_path)


def _traced_serve(spans_path: str, argv) -> int:
    recorder = spans.SpanRecorder(LAUNCHED)
    spans.install(recorder)
    spans.install_serve(recorder)
    from repro.serve.daemon import main as serve_main

    try:
        return serve_main(argv)
    finally:
        _native_counters(recorder)
        recorder.dump(spans_path)


def _native_counters(recorder: spans.SpanRecorder) -> None:
    from repro.sim.native import fallback_counts

    recorder.counters["native_fallbacks"] = fallback_counts()


def _prewarm(warps: int, insts: int, mechanisms) -> int:
    """One small simulation per mechanism compiles its kernel."""
    from repro.experiments.engine import SimJob, run_jobs_batched

    for mechanism in mechanisms:
        run_jobs_batched([SimJob(
            benchmark="gaussian",
            mechanism=mechanism,
            warps=warps,
            instructions_per_warp=insts,
        )])
    return 0


def _engine_check(cases_path: str, result_path: str) -> int:
    """Compare served bodies with a direct engine call, field by field.

    ``source`` and ``elapsed_ms`` describe how and how fast an answer
    was produced, so they are the only fields allowed to differ.
    """
    from repro.experiments.engine import run_jobs_batched
    from repro.experiments.fabric import cell_digest
    from repro.serve.protocol import parse_simulate, result_document

    with open(cases_path, encoding="utf-8") as handle:
        cases = json.load(handle)
    requests = [
        parse_simulate(json.dumps(case["request"]).encode("utf-8"))
        for case in cases
    ]
    mismatches = []
    for case, request in zip(cases, requests):
        (result,) = run_jobs_batched([request.job], config=request.config)
        expected = result_document(
            cell_digest(request.job, request.config), result, "", 0.0
        )
        served = dict(case["body"])
        for volatile in ("source", "elapsed_ms"):
            expected.pop(volatile, None)
            served.pop(volatile, None)
        if served != expected:
            mismatches.append({"request": case["request"], "served": served,
                               "expected": expected})
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"checked": len(cases), "mismatches": mismatches}, handle)
    return 0


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    command = argv[0]
    if command in ("experiments", "serve"):
        rest = argv[2:]
        if rest[:1] == ["--"]:
            rest = rest[1:]
        if command == "experiments":
            return _traced_experiments(argv[1], rest)
        return _traced_serve(argv[1], rest)
    if command == "prewarm":
        return _prewarm(int(argv[1]), int(argv[2]), argv[3:])
    if command == "engine-check":
        return _engine_check(argv[1], argv[2])
    print(f"unknown command {command!r}\n{__doc__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
