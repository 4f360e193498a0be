"""perfbench: the end-to-end and per-layer benchmark of the EQueue
simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cold_sim --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload dse_sweep --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload service_mix --short --seconds 1

Workloads: ``cold_sim``, ``warm_sim``, ``dse_sweep`` and ``service_mix``
(see ``perfbench/README.md``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import signal
import statistics
import sys
from typing import Dict, Tuple

from harness import (
    SRC,
    Calibrator,
    GCPauses,
    OpLog,
    Stopwatch,
    Timers,
    covered_seconds,
    emit_result,
    import_seconds,
    kind_latency,
    perf_counter,
    span_intervals,
    span_self_times,
    untimed,
)

WORKLOADS = ("cold_sim", "warm_sim", "dse_sweep", "service_mix")

#: Fresh interpreters timed per run; their median import time is part
#: of ``setup_s``.
IMPORT_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_p90_s", "s"),
    ("sim_events_per_s", "1/s"),
)

PER_LAYER = (
    ("ir.parse_s", "s"), ("ir.parse_bytes", "B"), ("ir.verify_s", "s"),
    ("build.build_s", "s"), ("build.programs_built", "count"),
    ("build.program_hits", "count"),
    ("plan.compile_s", "s"), ("plan.compiled", "count"),
    ("plan.cache_hits", "count"), ("plan.hit_ratio", "ratio"),
    ("codegen.compile_s", "s"), ("codegen.blocks", "count"),
    ("codegen.fallbacks", "count"),
    ("engine.elaborate_s", "s"), ("engine.des_run_s", "s"),
    ("engine.events", "count"), ("engine.launches", "count"),
    ("engine.events_per_des_s", "1/s"),
    ("sweep.points", "count"), ("sweep.points_simulated", "count"),
    ("sweep.memo_ratio", "ratio"), ("sweep.driver_s", "s"),
    ("gc.pause_s", "s"), ("gc.full_collections", "count"),
    ("gc.pause_share", "ratio"),
    ("http.overhead_s", "s"), ("scheduler.queued_s", "s"),
    ("scheduler.execute_s", "s"), ("store.put_s", "s"),
    ("store.hits", "count"), ("store.misses", "count"),
    ("store.puts", "count"), ("store.hit_ratio", "ratio"),
    ("scheduler.coalesced", "count"), ("scheduler.simulated", "count"),
    ("wal.admitted_appends", "count"),
    ("trace.wall_s", "s"), ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def workload_class(name: str):
    if name in ("cold_sim", "warm_sim"):
        from sim_workloads import ColdSim, WarmSim

        return ColdSim if name == "cold_sim" else WarmSim
    if name == "dse_sweep":
        from dse_workload import DseSweep

        return DseSweep
    from service_workload import ServiceMix

    return ServiceMix


def timed_phase(workload, seconds: float, calibrator: Calibrator) -> OpLog:
    """Whole rounds of ops until ``seconds`` have passed."""
    log = OpLog()
    started = perf_counter()
    while True:
        workload.run_round(log, calibrator)
        if perf_counter() - started >= seconds:
            return log


def setup_repeated(workload, calibrator: Calibrator, repeats: int):
    """``(raw seconds, reference seconds)`` of each set-up repetition."""
    times = []
    for _ in range(repeats):
        gc.collect()
        stopwatch = Stopwatch(calibrator)
        workload.setup(stopwatch)
        times.append((stopwatch.raw, stopwatch.scaled))
    workload.prepare()
    gc.collect()
    return times


def end_to_end(args, workload) -> Tuple[OpLog, list, Dict]:
    calibrator = Calibrator()
    imports = (
        import_seconds(workload.import_modules, IMPORT_REPEATS, calibrator)
        if workload.import_modules else [(0.0, 0.0)]
    )
    setups = setup_repeated(workload, calibrator, workload.setup_repeats)
    log = timed_phase(workload, args.seconds, calibrator)
    errors = workload.finish(log)
    rss = workload.peak_rss_mb()

    def setup_s(scaled: bool) -> float:
        return sum(statistics.median(scaled_s if scaled else raw_s
                                     for raw_s, scaled_s in times)
                   for times in (imports, setups))

    values = {}
    for scaled, busy, latencies in ((True, log.busy, log.latencies),
                                    (False, log.busy_raw, log.raw_latencies)):
        values[scaled] = {
            "setup_s": setup_s(scaled),
            "peak_rss_mb": rss,
            "ops_per_s": log.attempted / busy,
            "op_p50_s": kind_latency(latencies, 50),
            "op_p90_s": kind_latency(latencies, 90),
            "sim_events_per_s": workload.events / busy,
        }
    metrics = {}
    for name, unit in END_TO_END:
        metrics[name] = (values[True][name], unit)
        print(f"{name:18s} {values[True][name]:14.6g} {unit:5s} "
                    f"(raw {values[False][name]:.6g})")
    for kind in sorted(log.latencies):
        print(
            f"  {kind:48s} median {statistics.median(log.latencies[kind]):.5f} s"
            f" (raw {statistics.median(log.raw_latencies[kind]):.5f}) over "
            f"{len(log.latencies[kind])} calls")
    for kind, seconds in sorted(log.busy_by_kind.items()):
        print(f"  {kind:48s} {seconds / log.busy_raw:6.1%} of the timed phase")
    print(
        f"calibration median {statistics.median(calibrator.samples) * 1e3:.3f}"
        f" ms over {len(calibrator.samples)} samples (reference "
        f"{Calibrator.REFERENCE_S * 1e3:.3f} ms); {log.attempted} ops in "
        f"{log.busy_raw:.3f} s raw"
    )
    return log, errors, metrics


class Trace:
    """The traced run's instruments: host spans, layer timers, GC."""

    def __init__(self) -> None:
        from repro.obs import spans

        self._spans = spans
        self.recorder = spans.SpanRecorder()
        self.timers = Timers()
        self.gc = GCPauses()

    def on(self, workload) -> None:
        self._spans.TRACER = self.recorder
        workload.timers = self.timers

    def off(self, workload) -> None:
        self._spans.TRACER = None
        workload.timers = None


def traced(args, workload) -> Tuple[OpLog, list, Dict]:
    """Half the run untraced, then set-up and half the run traced."""
    calibrator = Calibrator()
    setup_repeated(workload, calibrator, 1)
    half = args.seconds / 2
    untraced_log = timed_phase(workload, half, calibrator)
    trace = Trace()
    workload.counters.clear()
    workload.start_trace()
    if workload.trace_setup:
        trace.on(workload)
        workload.setup(untimed)
        trace.off(workload)
        workload.prepare()
        gc.collect()
    # GC pauses are taken over the timed phase only, like trace.wall_s.
    trace.on(workload)
    trace.gc.start()
    first_op = len(calibrator.intervals)
    log = timed_phase(workload, half, calibrator)
    busy = log.busy_raw
    trace.gc.stop()
    trace.off(workload)
    errors = workload.finish(log)

    spans = span_intervals(trace.recorder)
    self_times = span_self_times(spans)
    timers = trace.timers
    counters = workload.counters
    layer = {
        "ir.parse_s": timers.total("parse"),
        "ir.parse_bytes": timers.counts["parse_bytes"],
        "ir.verify_s": timers.total("verify"),
        "build.build_s": timers.total("build"),
        "plan.compile_s": self_times.get("plan.compile", 0.0),
        "plan.compiled": counters.get("plans_compiled", 0),
        "plan.cache_hits": counters.get("plan_cache_hits", 0),
        "codegen.compile_s": self_times.get("codegen.compile", 0.0),
        "codegen.blocks": counters.get("blocks_codegenned", 0),
        "codegen.fallbacks": counters.get("codegen_fallbacks", 0),
        "engine.elaborate_s": self_times.get("engine.elaborate", 0.0),
        "engine.des_run_s": self_times.get("engine.des_run", 0.0),
        "engine.events": counters.get("scheduler_events", 0),
        "engine.launches": counters.get("launches_executed", 0),
        "gc.pause_s": trace.gc.pause_s,
        "gc.full_collections": trace.gc.full_collections,
        "trace.wall_s": busy,
    }
    plans = layer["plan.compiled"] + layer["plan.cache_hits"]
    layer["plan.hit_ratio"] = layer["plan.cache_hits"] / plans if plans else 0.0
    des = layer["engine.des_run_s"]
    layer["engine.events_per_des_s"] = layer["engine.events"] / des if des else 0.0
    layer["gc.pause_share"] = layer["gc.pause_s"] / busy
    # Wall time inside ops that no layer timer, span or GC pause covers.
    layer_intervals = [(start, end) for _, start, end, _ in spans]
    layer_intervals += trace.gc.intervals
    for intervals in timers.intervals.values():
        layer_intervals += intervals
    layer["trace.uncovered_s"] = sum(
        (end - start) - covered_seconds(layer_intervals, (start, end))
        for start, end in calibrator.intervals[first_op:]
    )
    layer.update(workload.layer_metrics(layer))
    # Cost of tracing: traced seconds per op over untraced seconds per op.
    layer["trace.overhead_ratio"] = (log.busy / log.attempted) / (
        untraced_log.busy / untraced_log.attempted)
    for name in ("gc.pause_s", "trace.wall_s", "trace.uncovered_s",
                 "trace.overhead_ratio"):
        print(f"{name:24s} {layer[name]:.6g}")
    metrics = {name: (float(layer.get(name, 0.0)), unit)
               for name, unit in PER_LAYER}
    merged = OpLog()
    merged.attempted = untraced_log.attempted + log.attempted
    merged.failed = untraced_log.failed + log.failed
    merged.failures = untraced_log.failures + log.failures
    return merged, errors, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="small programs, every check on (the benchmark's self-tests)")
    parser.add_argument(
        "--inject", choices=("cycles", "buffer", "grid"), default=None,
        help="make one result wrong on purpose; the checks must count it")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cls = workload_class(args.workload)
    if args.inject not in (None,) + cls.injectable:
        parser.error(f"{args.workload} cannot inject a wrong {args.inject}")
    workload = cls(args.seed, args.short, args.inject)
    # A terminated run still stops the processes it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if args.trace:
            log, errors, metrics = traced(args, workload)
        else:
            log, errors, metrics = end_to_end(args, workload)
    finally:
        workload.close()
    for message in log.failures + errors:
        print(f"FAILED {message}")
    emit_result(not errors, log.attempted, log.failed, metrics)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
