"""Shared plumbing: isolated run environment, timed child processes,
the machine-speed calibration, quantiles and the record of the machine
the numbers came from."""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a checkout, tool missing)."""


@dataclass
class ChildRun:
    """One finished child process, timed from outside."""

    returncode: int
    #: perf_counter() readings just before spawn and just after reaping.
    spawned: float
    reaped: float
    peak_rss_mb: float
    stdout_path: Path

    @property
    def wall_s(self) -> float:
        return self.reaped - self.spawned

    def stdout(self) -> str:
        return self.stdout_path.read_text(encoding="utf-8", errors="replace")


@dataclass
class Context:
    """Per-invocation state: checkout root, scratch space, environment.

    Every run gets its own scratch directory inside the checkout
    (removed by :meth:`close`), every inherited ``REPRO_*`` variable is
    dropped, and ``TMPDIR`` points into the scratch directory so that
    nothing the program writes lands outside the checkout.
    """

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path = field(init=False)
    base_env: Dict[str, str] = field(init=False)
    _counter: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not (self.root / "src" / "repro" / "__init__.py").is_file():
            raise BenchError(
                f"{self.root} is not a checkout of the program "
                "(src/repro is missing)"
            )
        self.work = (
            self.root / ".perfbench-work" / f"{self.workload}-{os.getpid()}"
        )
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "tmp").mkdir(parents=True)
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        env["PYTHONPATH"] = str(self.root / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        # The seed is the interpreter's hash seed too (the paper runs
        # draw one per run from it): outputs must not depend on it, and
        # the table checks would notice if they did.
        env["PYTHONHASHSEED"] = str(self.seed % 4294967296)
        env.pop("PYTHONSTARTUP", None)
        self.base_env = env

    def fresh_dir(self, name: str) -> Path:
        self._counter += 1
        path = self.work / f"{self._counter:03d}-{name}"
        path.mkdir(parents=True)
        return path

    def env(self, native_cache: Path) -> Dict[str, str]:
        env = dict(self.base_env)
        env["REPRO_NATIVE_CACHE"] = str(native_cache)
        return env

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = self.work.parent
        try:
            parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass


def run_child(
    argv: Sequence[str],
    *,
    env: Dict[str, str],
    cwd: Path,
    stdout_path: Path,
    timeout: float = 170.0,
) -> ChildRun:
    """Run *argv* to completion; wall time and peak RSS from outside."""
    with open(stdout_path, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            env=env,
            cwd=str(cwd),
            stdout=out,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
        )
        deadline = started + timeout
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            proc.kill()  # interrupted: leave no child behind
            proc.wait()
            raise
        reaped = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        spawned=started,
        reaped=reaped,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout_path=stdout_path,
    )


#: Wall time of ``calibrate.py`` on the reference machine: a scaled
#: time reads what the run would have taken there.
CALIBRATION_REFERENCE_S = 0.75


class SpeedScale:
    """Brackets timed runs with runs of ``calibrate.py``.

    Construct it just before the first timed run and call
    :meth:`factor` right after each run ends, in order; multiplying the
    run's times by the factor scales them by the mean of the
    calibrations just before and just after the run, so that a drift in
    the machine's speed cancels out.
    """

    def __init__(self, ctx: Context, problems: List[str]) -> None:
        self.ctx = ctx
        self.problems = problems
        self.calibrations: List[float] = []
        self._last = self._calibrate()

    def _calibrate(self) -> float:
        path = self.ctx.fresh_dir("calibrate") / "stdout.txt"
        child = run_child(
            [sys.executable, str(self.ctx.root / "perfbench" / "calibrate.py")],
            env=self.ctx.base_env,
            cwd=self.ctx.root,
            stdout_path=path,
            timeout=60.0,
        )
        if child.returncode != 0 or not child.stdout().startswith(
            "calibration ok "
        ):
            self.problems.append(
                f"calibration run failed (exit {child.returncode})"
            )
        self.calibrations.append(child.wall_s)
        return child.wall_s

    def factor(self) -> float:
        """Reference speed over the speed around the run just ended."""
        after = self._calibrate()
        speed = (self._last + after) / 2
        self._last = after
        return CALIBRATION_REFERENCE_S / speed

    def report_line(self) -> str:
        return (
            f"calibrate.py took {median(self.calibrations):.6g} s (median of "
            f"{len(self.calibrations)}; {CALIBRATION_REFERENCE_S:g} s on the "
            "reference machine)"
        )


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def _first_line(argv: Sequence[str]) -> Optional[str]:
    try:
        out = subprocess.run(
            list(argv), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = (out.stdout or out.stderr).strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else None


def source_digest(root: Path) -> str:
    """SHA-256 over every program source file (path + bytes)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_record(root: Path) -> Dict[str, object]:
    """What the numbers depend on besides the code: the machine."""
    numpy_version = _first_line(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"]
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cc": _first_line(["cc", "--version"]),
        "git_sha": (
            _first_line(["git", "-C", str(root), "rev-parse", "HEAD"])
            if (root / ".git").exists()
            else None
        ),
        "source_digest": source_digest(root),
        "platform": platform.platform(),
    }


@dataclass
class Outcome:
    """What one workload invocation measured and checked."""

    #: name -> (value, sample count); units come from BENCHMARK.json.
    metrics: Dict[str, tuple] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Human-readable lines printed before the result line.
    report: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    def tally(self, attempted: int, failures: Sequence[str]) -> None:
        """Count *attempted* operations, one failed per failure message
        (at most all of them)."""
        self.attempted += attempted
        self.failed += min(len(failures), attempted)
        self.problems.extend(failures)
