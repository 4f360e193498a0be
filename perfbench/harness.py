"""Measurement machinery shared by the perfbench workloads.

Everything here observes the program from outside: wall clocks around
calls into its public entry points, the ``gc.callbacks`` hook, the host
spans the program already emits (``repro.obs.spans``), and process
resource usage.  Nothing here changes what the program computes.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for the run (the service's state directory).  Inside the
#: checkout on purpose: the benchmark reads and writes nowhere else.
SCRATCH = ROOT / ".perfbench_tmp"

perf_counter = time.perf_counter


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


def _calibration_loop() -> int:
    """A fixed pure-Python workload: dict churn, small-int arithmetic and
    short-lived strings — interpreter work like the simulator's."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(8000):
        key = i & 255
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return total


class Calibrator:
    """Tracks the host's speed through a run.

    The shared machine's speed swings by half within seconds as other
    tenants come and go.  Every timed piece of work is bracketed by two
    passes of a fixed loop, and its duration is scaled by the loop's
    speed at that moment: reported timings are seconds at the reference
    speed, at which one pass takes :data:`REFERENCE_S`.  The raw figures
    are printed beside the scaled ones.

    The simulator's op times move about half as much as the loop's when
    the host slows down (a log-log regression of op time on loop time
    over 1,400 warm ops gave slopes of 0.42-0.55), so a duration is
    scaled by the square root of the speed ratio.
    """

    REFERENCE_S = 0.0025
    ELASTICITY = 0.5

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: (start, end) of every bracketed call.
        self.intervals: List[Tuple[float, float]] = []

    def sample(self) -> float:
        started = perf_counter()
        _calibration_loop()
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def bracket(self, fn: Callable, *args, **kwargs):
        """``(fn(...), raw seconds, factor)``; the factor turns raw
        seconds into reference seconds."""
        before = self.sample()
        started = perf_counter()
        result = fn(*args, **kwargs)
        elapsed = perf_counter() - started
        self.intervals.append((started, started + elapsed))
        after = self.sample()
        speed = 2 * self.REFERENCE_S / (before + after)
        return result, elapsed, speed ** self.ELASTICITY


class Stopwatch:
    """Sums bracketed durations, raw and in reference seconds."""

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.raw = 0.0
        self.scaled = 0.0

    def __call__(self, fn: Callable, *args, **kwargs):
        result, elapsed, factor = self.calibrator.bracket(fn, *args, **kwargs)
        self.raw += elapsed
        self.scaled += elapsed * factor
        return result


def untimed(fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Op accounting
# ---------------------------------------------------------------------------


class OpLog:
    """Attempted/failed ops and per-kind latencies of one timed phase,
    in reference seconds (raw seconds kept beside them)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.raw_latencies: Dict[str, List[float]] = defaultdict(list)
        self.busy = 0.0
        self.busy_raw = 0.0
        #: Raw busy seconds per kind of timed call.
        self.busy_by_kind: Dict[str, float] = defaultdict(float)
        self.failures: List[str] = []

    def run_op(self, calibrator: "Calibrator", kind: str, ops: int,
               fn: Callable, *args, latency: bool = True, **kwargs):
        """Time ``fn(...)`` as one call of ``kind`` that completes ``ops``
        ops, and return its result.  If it raises, every one of its ops
        is counted as failed and ``None`` is returned: a wrong program
        fails ops, never the run.  The caller tallies the verdicts of the
        ops of a call that returned.  With ``latency=False`` the call
        counts towards the busy time but no latency summary."""
        started = perf_counter()
        try:
            result, elapsed, factor = calibrator.bracket(fn, *args, **kwargs)
        except Exception as error:  # the op's verdict, whatever raised
            self.add_busy(perf_counter() - started, 1.0, kind)
            self.tally([f"{kind}: {type(error).__name__}: {error}"[:300]] * ops)
            return None
        self.add_busy(elapsed, factor, kind)
        if latency:
            self.add_latency(kind, elapsed, factor)
        return result

    def add_busy(self, seconds: float, factor: float, kind: str) -> None:
        """Time the timed phase spent working on a call of ``kind``."""
        self.busy += seconds * factor
        self.busy_raw += seconds
        self.busy_by_kind[kind] += seconds

    def add_latency(self, kind: str, seconds: float, factor: float) -> None:
        self.latencies[kind].append(seconds * factor)
        self.raw_latencies[kind].append(seconds)

    def tally(self, errors: Sequence[Optional[str]]) -> None:
        """Count ops by their check verdicts (``None`` = correct)."""
        self.attempted += len(errors)
        for error in errors:
            if error is not None:
                self.fail(error)

    def fail(self, error: str) -> None:
        """An op counted already turned out wrong."""
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(error)


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (q in 1..99), interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def kind_latency(latencies: Dict[str, List[float]], q: int) -> float:
    """Op latency over several kinds of op, without letting a percentile
    fall on a boundary between kinds.

    The median is the geometric mean of the per-kind medians.  A tail
    percentile is that times the q-th percentile, pooled over all ops,
    of each op's latency over its kind's median: one kind rarely has the
    samples a tail needs, the pool does.
    """
    medians = {kind: statistics.median(v) for kind, v in latencies.items()}
    if not medians:  # every call raised
        return 0.0
    center = geomean(medians.values())
    if q == 50:
        return center
    relative = [s / medians[kind] for kind, v in latencies.items() for s in v]
    return center * percentile(relative, q)


def check(fn: Callable[[], None]) -> Optional[str]:
    """Run one correctness check; an error message, or ``None`` if it
    held.  A failed check fails the op, never the run."""
    try:
        fn()
    except Exception as error:  # the check's verdict, whatever raised
        return f"{type(error).__name__}: {error}"[:300]
    return None


# ---------------------------------------------------------------------------
# The workload protocol
# ---------------------------------------------------------------------------


class Workload:
    """What ``run.py`` drives: repeated set-ups, then whole rounds of ops.

    A workload defines :meth:`setup` and :meth:`run_round`; the other
    hooks do nothing unless a workload needs them.
    """

    name = ""
    #: Modules a fresh interpreter imports; timed as part of ``setup_s``.
    import_modules: Tuple[str, ...] = ()
    #: What ``--inject`` can make wrong.
    injectable: Tuple[str, ...] = ()
    setup_repeats = 5
    #: Whether the traced run repeats the set-up under tracing.
    trace_setup = False

    def __init__(self, seed: int, short: bool, inject: Optional[str]):
        self.seed = seed
        self.short = short
        self.inject = inject
        #: Scheduler events simulated in the timed phase.
        self.events = 0
        self.counters: Dict[str, float] = {}
        self.timers: Optional[Timers] = None  # while the run is traced
        #: Failed checks outside any op; they make ``correct`` false.
        self.errors: List[str] = []

    def setup(self, timed: Callable) -> None:
        """Set-up work, every call into the program through ``timed``."""
        raise NotImplementedError

    def run_round(self, log: OpLog, calibrator: Calibrator) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work after the last set-up, before the timed phase."""

    def start_trace(self) -> None:
        """Called once before the traced half of the traced run."""

    def layer_metrics(self, layer: Dict) -> Dict:
        """Per-layer metrics of this workload's own, given the common ones."""
        return {}

    def finish(self, log: OpLog) -> List[str]:
        """Checks left after the timed phase; the errors outside any op."""
        return self.errors

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        """Stop what the workload started; runs also after a failure."""


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_seconds(
    modules: Sequence[str], repeats: int, calibrator: Calibrator
) -> List[Tuple[float, float]]:
    """``(raw seconds, reference seconds)`` of a fresh interpreter
    importing ``modules``, repeated.

    Imports happen once per process, so set-up repeats them in child
    interpreters (started, timed and waited for one at a time)."""
    code = "; ".join(f"import {name}" for name in modules)
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    command = [sys.executable, "-c", code]
    times = []
    for _ in range(repeats):
        stopwatch = Stopwatch(calibrator)
        stopwatch(subprocess.run, command, check=True, env=env, cwd=ROOT,
                  stdout=subprocess.DEVNULL, timeout=120)
        times.append((stopwatch.raw, stopwatch.scaled))
    return times


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size of this process, or of ``pid`` (Linux)."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ---------------------------------------------------------------------------
# Tracing from outside
# ---------------------------------------------------------------------------


class GCPauses:
    """Garbage-collector pauses, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.intervals: List[Tuple[float, float]] = []
        self.full_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = perf_counter()
            return
        self.intervals.append((self._started, perf_counter()))
        if info.get("generation") == 2:
            self.full_collections += 1

    def start(self) -> None:
        gc.callbacks.append(self._callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._callback)

    @property
    def pause_s(self) -> float:
        return sum(end - start for start, end in self.intervals)


class Timers:
    """Named wall-clock intervals taken around calls into a layer."""

    def __init__(self) -> None:
        self.intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)

    def time(self, name: str, fn: Callable, *args, **kwargs):
        started = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.intervals[name].append((started, perf_counter()))

    def total(self, name: str) -> float:
        return sum(end - start for start, end in self.intervals[name])


def span_intervals(recorder) -> List[Tuple[str, float, float, str]]:
    """(name, start, end, thread) of every recorded host span, on the
    ``perf_counter`` clock."""
    epoch = recorder.epoch_s
    return [
        (
            event["name"],
            epoch + event["ts"] / 1e6,
            epoch + (event["ts"] + event["dur"]) / 1e6,
            event["tid"],
        )
        for event in recorder.to_events()
    ]


def span_self_times(spans) -> Dict[str, float]:
    """Per span name: total duration minus the part its child spans
    (on the same thread) cover."""
    self_time: Dict[str, float] = defaultdict(float)
    by_thread: Dict[str, list] = defaultdict(list)
    for name, start, end, thread in spans:
        by_thread[thread].append((start, -end, name))
    for events in by_thread.values():
        events.sort()
        stack: List[Tuple[float, str]] = []  # (end, name)
        for start, negative_end, name in events:
            end = -negative_end
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack:
                self_time[stack[-1][1]] -= end - start
            self_time[name] += end - start
            stack.append((end, name))
    return dict(self_time)


def covered_seconds(
    intervals: Iterable[Tuple[float, float]], window: Tuple[float, float]
) -> float:
    """Length of the union of ``intervals`` clipped to ``window``."""
    low, high = window
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    covered = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def emit_result(
    correct: bool, attempted: int, failed: int, metrics: Dict[str, Tuple[float, str]]
) -> None:
    """The benchmark's last line of standard output."""
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }), flush=True)
