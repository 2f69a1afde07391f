"""The ``paper-recompute`` and ``paper-replay`` workloads.

Both time ``python -m repro.experiments --fast --jobs 1`` as a user
starts it: a fresh interpreter per run, timed and measured (peak RSS)
from outside.

* ``paper-recompute``: warm ``--trace-cache``, empty ``--cell-cache``
  and telemetry off -- the state after an edit to simulation code,
  which changes the code fingerprint and so misses every cell.  Set-up
  is the cold first run, which fills the trace cache and compiles the
  native kernels.
* ``paper-replay``: the same command plus ``--metrics`` and
  ``--trace`` over a warm cell cache whose records carry telemetry --
  a rerun after a change that does not touch simulation.  Set-up is
  the cold run that fills the cell cache and writes the reference
  exports.

Every set-up and timed run is bracketed by runs of ``calibrate.py``
(a fixed program of the same mix of work), and its wall time is
scaled by the mean of the two calibrations to the reference machine
on which that program takes ``CALIBRATION_REFERENCE_S``.  The host
these numbers come from shares its CPUs with other tenants, and its
speed drifts by tens of percent within a minute; the scaled times keep
what the program costs and lose most of that drift.  The unscaled
medians are printed beside them.

Every run's tables must equal the first run's, Table III must report
that all cells match the paper, and on ``paper-replay`` every export
must be byte-identical to the one its set-up run wrote fresh.  An
operation is one experiment of one run.
"""

from __future__ import annotations

import random
import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import layers
import spans
from common import (
    ChildRun,
    Context,
    Outcome,
    SpeedScale,
    median,
    run_child,
)

#: Independent cold set-ups per invocation (set-up time is their median).
SETUP_RUNS = 2
#: Timed reproduction runs per invocation, at least.
MIN_TIMED_RUNS = 3

#: Fig. 12 mean overheads the paper reports (EXPERIMENTS.md), percent.
PAPER_FIG12_MEAN = {"lmi": 0.22, "baggy": 87.0}

_RULE = "=" * 72
_HEADER = re.compile(r"^(\S+)  \(repro of the paper's ")
_DONE = re.compile(r"^\[(\S+) done in [0-9.]+s\]$")
_MEAN = re.compile(r"^(\w+): mean overhead (-?[0-9.]+)%")


def sections(text: str) -> Dict[str, str]:
    """Experiment name -> the table text the CLI printed for it."""
    lines = text.splitlines()
    found: Dict[str, str] = {}
    index = 0
    while index + 2 < len(lines):
        match = _HEADER.match(lines[index + 1])
        if lines[index] == _RULE and match and lines[index + 2] == _RULE:
            name = match.group(1)
            body: List[str] = []
            index += 3
            while index < len(lines):
                done = _DONE.match(lines[index])
                if done and done.group(1) == name:
                    break
                body.append(lines[index])
                index += 1
            found[name] = "\n".join(body)
        index += 1
    return found


def fig12_error_pp(tables: Dict[str, str]) -> Optional[float]:
    """Mean |measured - paper| over the Fig. 12 LMI and Baggy means."""
    measured = {}
    for line in tables.get("fig12", "").splitlines():
        match = _MEAN.match(line)
        if match:
            measured[match.group(1)] = float(match.group(2))
    if not all(name in measured for name in PAPER_FIG12_MEAN):
        return None
    gaps = [
        abs(measured[name] - paper)
        for name, paper in PAPER_FIG12_MEAN.items()
    ]
    return sum(gaps) / len(gaps)


class _Runner:
    """Builds and checks the CLI runs of one paper invocation."""

    def __init__(self, ctx: Context, out: Outcome) -> None:
        self.ctx = ctx
        self.out = out
        self.replay = ctx.workload == "paper-replay"
        self.reference: Optional[Dict[str, str]] = None
        self.reference_exports: Dict[str, bytes] = {}
        self.state: Optional[Path] = None
        self.hash_seeds = random.Random(ctx.seed)

    def _argv(self, state: Path, run_dir: Path) -> List[str]:
        cells = state / "cells" if self.replay else run_dir / "cells"
        argv = [
            "--fast", "--jobs", "1",
            "--trace-cache", str(state / "traces"),
            "--cell-cache", str(cells),
        ]
        if self.replay:
            argv += [
                "--metrics", str(run_dir / "metrics.json"),
                "--trace", str(run_dir / "trace.json"),
            ]
        return argv

    def run(self, label: str, traced_spans: Optional[Path] = None,
            state: Optional[Path] = None) -> ChildRun:
        """One CLI run; set-up runs pass no *state* and build their own."""
        run_dir = self.ctx.fresh_dir(label)
        fresh = state is None
        if fresh:
            state = run_dir
        argv = self._argv(state, run_dir)
        if traced_spans is None:
            command = [sys.executable, "-m", "repro.experiments", *argv]
        else:
            command = [
                sys.executable, str(self.ctx.root / "perfbench" / "launch.py"),
                "experiments", str(traced_spans), "--", *argv,
            ]
        env = self.ctx.env(state / "native")
        # Every run gets its own hash seed, as an interpreter started
        # without PYTHONHASHSEED does: string hashing moves the speed of
        # a run by several percent, and the median over runs averages
        # that out instead of fixing one seed's bias per invocation.
        # The table checks then compare outputs across hash seeds.
        env["PYTHONHASHSEED"] = str(self.hash_seeds.randrange(1 << 32))
        child = run_child(
            command,
            env=env,
            cwd=self.ctx.root,
            stdout_path=run_dir / "stdout.txt",
        )
        self._check(child, run_dir, label, fresh)
        if fresh and self.state is None:
            self.state = state
        return child

    def _check(self, child: ChildRun, run_dir: Path, label: str,
               fresh: bool) -> None:
        tables = sections(child.stdout())
        if self.reference is None:
            self.reference = tables
            if self.replay:
                for name in ("metrics.json", "trace.json"):
                    path = run_dir / name
                    self.reference_exports[name] = (
                        path.read_bytes() if path.exists() else b""
                    )
        failures: List[str] = []
        if child.returncode != 0:
            failures.append(f"{label}: CLI exited {child.returncode}")
        if "all cells match the paper" not in tables.get("table3", ""):
            failures.append(f"{label}: Table III does not match the paper")
        for name, table in self.reference.items():
            if tables.get(name) != table:
                failures.append(f"{label}: {name} differs from the first run")
        if self.replay and not fresh:
            for name, expected in self.reference_exports.items():
                path = run_dir / name
                got = path.read_bytes() if path.exists() else None
                if not expected or got != expected:
                    failures.append(
                        f"{label}: {name} is not byte-identical to the "
                        "set-up run's fresh export"
                    )
        self.out.tally(max(len(self.reference), 1), failures)


def run(ctx: Context, out: Outcome) -> None:
    runner = _Runner(ctx, out)
    if ctx.trace:
        _run_traced(ctx, out, runner)
        return
    scale = SpeedScale(ctx, out.problems)
    setups: List[float] = []
    raw_setups: List[float] = []
    for k in range(SETUP_RUNS):
        child = runner.run(f"setup{k}")
        raw_setups.append(child.wall_s)
        setups.append(child.wall_s * scale.factor())
    timed: List[ChildRun] = []
    walls: List[float] = []
    started = time.perf_counter()
    while len(timed) < MIN_TIMED_RUNS or (
        time.perf_counter() - started < ctx.seconds and len(timed) < 50
    ):
        timed.append(runner.run(f"timed{len(timed)}", state=runner.state))
        walls.append(timed[-1].wall_s * scale.factor())
    raw_walls = [child.wall_s for child in timed]
    _report_fidelity(out, runner)
    out.put("wall_s", median(walls), len(walls))
    out.put("setup_s", median(setups), len(setups))
    out.put("peak_rss_mb", median([c.peak_rss_mb for c in timed]),
            len(timed))
    # The user's operation here is the whole reproduction, so its
    # latency distribution is the distribution of run wall times.
    out.put("latency_p50_ms", 1000.0 * median(walls), len(walls))
    out.report.append(
        f"latency_p99_ms = {1000.0 * max(walls):.6g} ms  (n={len(walls)}; "
        "the slowest timed run; not gated)"
    )
    out.report.append(
        f"unscaled: wall_s = {median(raw_walls):.6g} s, setup_s = "
        f"{median(raw_setups):.6g} s; {scale.report_line()}"
    )


def _report_fidelity(out: Outcome, runner: _Runner) -> Optional[float]:
    error = fig12_error_pp(runner.reference or {})
    out.report.append(
        f"fig12_error_pp = {error if error is not None else float('nan'):.4f}"
        " pp  (paper: LMI 0.22 %, Baggy 87 %; fast grid)"
    )
    return error


def _run_traced(ctx: Context, out: Outcome, runner: _Runner) -> None:
    """One set-up, then untraced / traced / untraced runs.

    The untraced runs on both sides of the traced one are the baseline
    of the tracing overhead, so a drift in machine speed during the
    invocation does not read as overhead.
    """
    runner.run("setup")
    spans_path = ctx.work / "spans.json"
    before = runner.run("untraced0", state=runner.state)
    traced = runner.run("traced", traced_spans=spans_path, state=runner.state)
    after = runner.run("untraced1", state=runner.state)
    error = _report_fidelity(out, runner)
    document = spans.load(spans_path)
    values = layers.from_spans(document, traced.wall_s, traced.spawned,
                               traced.reaped)
    values["bench.tracing_overhead_s"] = (
        traced.wall_s - (before.wall_s + after.wall_s) / 2
    )
    values["experiments.fig12_error_pp"] = error if error is not None else 0.0
    out.report.extend(layers.partition_lines(
        document, traced.wall_s, traced.spawned, traced.reaped))
    for name, value in values.items():
        out.put(name, value, 1)
