"""Benchmark of the reproduction CLI and the serving daemon.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-recompute --seed 1 \\
        --seconds 18 --trace 0

Workloads: ``paper-recompute``, ``paper-replay``, ``serve-mixed`` (see
README.md).  ``--trace 0`` measures the end-to-end metrics with the
program untouched; ``--trace 1`` makes a separate traced run and
reports the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 0 only when every output check passed; a checkout
without the program exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

import paper
import serve_mixed
from common import BenchError, Context, Outcome, environment_record

WORKLOADS = {
    "paper-recompute": paper.run,
    "paper-replay": paper.run,
    "serve-mixed": serve_mixed.run,
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    # Unwind through the finally blocks that stop the daemons and
    # remove the scratch directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    root = Path(__file__).resolve().parent.parent
    try:
        ctx = Context(root, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics a run reports, with their units:
    # every end-to-end metric untraced, every per-layer metric traced.
    contract = json.loads((root / "BENCHMARK.json").read_text())
    units = {
        metric["name"]: metric["unit"]
        for metric in contract["per_layer" if args.trace else "end_to_end"]
    }
    out = Outcome()
    try:
        print(json.dumps({"environment": environment_record(root)},
                         sort_keys=True))
        WORKLOADS[args.workload](ctx, out)
    finally:
        ctx.close()

    if args.trace:
        # A layer the workload never reaches reports 0, from 0 samples.
        for name in units:
            out.metrics.setdefault(name, (0.0, 0))
    missing = [name for name in units if name not in out.metrics]
    if missing:
        out.problems.append(f"metrics not measured: {missing}")

    for line in out.report:
        print(line)
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"error_rate = {error_rate:.4f}  "
          f"(failed {out.failed} of {out.attempted} attempted operations)")
    reported = {name: out.metrics[name] for name in units if name in out.metrics}
    for name, (value, samples) in reported.items():
        print(f"{name} = {value:.6g} {units[name]}  (n={samples})")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not out.problems and out.failed == 0 and out.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, (value, _) in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
