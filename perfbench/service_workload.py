"""The ``service_mix`` workload: ``equeue-serve`` under a closed loop.

The server runs in its own process with a durable ``--state-dir`` (the
admission WAL and the content-addressed store).  This process drives it
over two concurrent connections in a closed loop: a round is a fixed
list of steps, each step sends one request per connection at the same
time and waits for both replies.  A round holds

* 29 repeated requests, answered from the store;
* 6 first-time requests (one in ``codegen`` mode), which simulate;
* 2 pairs of concurrent duplicates, which coalesce;
* 1 small ``/sweeps`` job (8 points) overlapping a single job.

This is the only workload that runs HTTP, the admission WAL, the job
scheduler and the store.  An op is one request.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import asdict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.request import urlopen

from harness import (
    SCRATCH,
    SRC,
    OpLog,
    Workload,
    check,
    peak_rss_mb,
    percentile,
    perf_counter,
)

from repro.scenarios import get_scenario, simulate_scenario
from repro.service.client import ServiceClient
from repro.sim import EngineOptions
from repro.sim.batch import result_record

#: Requests primed into the store during set-up; the mix repeats them.
HOT = (
    ("gemm", {"m": 8, "k": 64, "n": 8, "tile_k": 8}, {}),
    ("mesh", {"rows": 4, "cols": 4, "rounds": 4}, {}),
    ("fir", {"n_cores": 4, "taps": 32, "samples": 128}, {}),
    ("systolic", {"h": 8, "w": 8}, {}),
    ("pipeline", {}, {}),
    ("fir", {"n_cores": 4, "taps": 32, "samples": 128}, {"mode": "codegen"}),
    ("mesh", {"rows": 4, "cols": 4, "rounds": 4}, {"mode": "codegen"}),
    ("systolic", {"dataflow": "OS"}, {}),
)

#: Configs of first-time requests; each gets a seed never used before,
#: so it misses the store and simulates (over a warm program cache).
FRESH = (
    ("fir", {"n_cores": 4, "taps": 32, "samples": 128}),
    ("mesh", {"rows": 4, "cols": 4, "rounds": 4}),
    ("systolic", {"h": 6, "w": 6}),
)

#: The sweep job: the FIR scenario's declared grid at a fresh seed.
SWEEP = "fir"
SWEEP_POINTS = 8

#: One round: (connection A, connection B) per step.
ROUND = (
    [("hit", "hit")] * 12
    + [("miss", "hit")] * 4
    + [("dup", "dup")] * 2
    + [("sweep", "miss")]
    + [("miss-codegen", "hit")]
)

#: Summary fields that measure the host, not the simulation.
HOST_FIELDS = ("execution_time_s", "plans_compiled", "plan_cache_hits",
               "vector_loops")

#: Engine counters the server exports on ``/metrics``.
ENGINE_METRICS = {
    "equeue_engine_scheduler_events": "scheduler_events",
    "equeue_engine_launches": "launches_executed",
    "equeue_engine_plans_compiled": "plans_compiled",
    "equeue_engine_plan_cache_hits": "plan_cache_hits",
    "equeue_engine_blocks_codegenned": "blocks_codegenned",
    "equeue_engine_run_seconds_sum": "run_seconds",
}


def canonical(record: Dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def simulation_view(record: Dict) -> str:
    """A record with the host-measurement fields zeroed."""
    record = json.loads(canonical(record))
    for field in HOST_FIELDS:
        if field in record.get("summary", {}):
            record["summary"][field] = 0
    return canonical(record)


def direct_record(scenario: str, config: Dict, seed: int, options: Dict) -> Dict:
    """The same request simulated in this process, not by the service."""
    spec = get_scenario(scenario)
    cfg = spec.configure(**config)
    result, checked = simulate_scenario(
        spec, cfg, seed=seed,
        options=EngineOptions(**{"verify_module": False, **options}),
        check=True)
    record = result_record(result, checked)
    record.update(scenario=scenario, config=asdict(cfg), seed=seed,
                  options=dict(options))
    return record


class Server:
    """One ``equeue-serve --state-dir`` child process."""

    def __init__(self, index: int, cpu: int) -> None:
        self.state_dir = SCRATCH / f"service-{os.getpid()}-{index}"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.mkdir(parents=True)
        self.log = open(self.state_dir.with_suffix(".log"), "wb")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.tools.equeue_serve", "--port", "0",
             "--state-dir", str(self.state_dir)],
            stdout=subprocess.PIPE, stderr=self.log, text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": "0"},
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        line = self.process.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"equeue-serve did not start: {line!r}")
        self.url = f"http://{match.group(1)}:{match.group(2)}"
        self.client = ServiceClient(self.url, timeout=60.0, retries=1)
        self.client.wait_healthy(timeout=60.0)

    def engine_counts(self) -> Dict[str, float]:
        with urlopen(self.url + "/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        counts = dict.fromkeys(ENGINE_METRICS.values(), 0.0)
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name in ENGINE_METRICS:
                counts[ENGINE_METRICS[name]] = float(value)
        return counts

    def stop(self) -> None:
        """Graceful shutdown; waits for the process to end."""
        if self.process.poll() is None:
            try:
                self.client.shutdown()
            except Exception:  # noqa: BLE001  (a dead server: kill below)
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self.process.stdout.close()
        self.log.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        self.state_dir.with_suffix(".log").unlink(missing_ok=True)


class ServiceMix(Workload):
    name = "service_mix"
    # No import probe: set-up is the server's boot, imports included.
    injectable = ("cycles",)

    def __init__(self, seed: int, short: bool, inject: Optional[str]):
        super().__init__(seed, short, inject)
        self.servers: List[Server] = []
        # The server and this process share one CPU, so that the
        # calibration loop measures the speed of the CPU the server runs
        # on; the server hashes strings with a fixed seed, so that its
        # dict layouts do not vary from run to run.
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.pool = ThreadPoolExecutor(max_workers=2)
        self.fresh_seed = (seed + 1) * 1_000_000
        steps = list(ROUND[-4:] if short else ROUND)
        random.Random(seed).shuffle(steps)
        self.steps = steps
        self.wire: List[Tuple[str, float, Dict]] = []
        self.pending: List[Tuple] = []

    # -- set-up -----------------------------------------------------------

    def setup(self, timed) -> None:
        """Boot a server on a fresh state directory, until healthy."""
        self.servers.append(timed(Server, len(self.servers), self.cpu))

    def prepare(self) -> None:
        """Keep the last server; prime the store with the hot requests and
        check each first response against a direct in-process run."""
        while len(self.servers) > 1:
            self.servers.pop(0).stop()
        self.server = self.servers[0]
        self.hot: List[Tuple[Tuple, str]] = []
        for scenario, config, options in HOT:
            job = self.server.client.run(scenario, config=config,
                                         seed=self.seed, options=options)
            record = job["record"]
            error = check(lambda: self._assert_direct(
                record, scenario, config, self.seed, options))
            if error is not None:
                self.errors.append(f"hot {scenario}: {error}")
            self.hot.append(((scenario, config, options), canonical(record)))

    # -- the mix ----------------------------------------------------------

    def _next_seed(self) -> int:
        self.fresh_seed += 1
        return self.fresh_seed

    def _round_requests(self) -> List[Tuple[Tuple[str, str], Tuple]]:
        """This round's requests, one pair per step.  Every round sends
        the same requests in the same order, each kind cycling through
        its own configs; only the first-time seeds are new.  A request is
        (scenario, config, seed, options, sweep?, the first response's
        record for a repeated request)."""
        cycles = {"hit": itertools.cycle(self.hot),
                  "miss": itertools.cycle(FRESH),
                  "dup": itertools.cycle(FRESH)}
        plan = []
        for pair in self.steps:
            if pair == ("dup", "dup"):  # both connections send one request
                scenario, config = next(cycles["dup"])
                request = (scenario, config, self._next_seed(), {}, False, None)
                plan.append((pair, (request, request)))
                continue
            requests = []
            for kind in pair:
                if kind == "hit":
                    (scenario, config, options), first = next(cycles["hit"])
                    requests.append(
                        (scenario, config, self.seed, options, False, first))
                elif kind == "sweep":
                    requests.append((SWEEP, {}, self._next_seed(), {}, True, None))
                elif kind == "miss-codegen":
                    scenario, config = FRESH[0]
                    requests.append((scenario, config, self._next_seed(),
                                     {"mode": "codegen"}, False, None))
                else:
                    scenario, config = next(cycles["miss"])
                    requests.append(
                        (scenario, config, self._next_seed(), {}, False, None))
            plan.append((pair, tuple(requests)))
        return plan

    def _send(self, request) -> Tuple[float, Dict]:
        scenario, config, seed, options, sweep, _ = request
        client = self.server.client
        started = perf_counter()
        if sweep:
            job = client.run_sweep(scenario, seed=seed, options=options or None)
        else:
            job = client.run(scenario, config=config or None, seed=seed,
                             options=options or None)
        return perf_counter() - started, job

    def _step(self, requests):
        futures = [self.pool.submit(self._send, r) for r in requests]
        return [future.result() for future in futures]

    def run_round(self, log: OpLog, calibrator) -> None:
        before = self.server.engine_counts()
        traced = self.timers is not None
        stats_before = self.server.client.stats() if traced else None
        outcomes = []
        for pair, requests in self._round_requests():
            try:
                replies, elapsed, factor = calibrator.bracket(self._step, requests)
            except Exception as error:  # noqa: BLE001  (a failed request)
                log.tally([f"{pair}: {type(error).__name__}: {error}"] * 2)
                continue
            log.add_busy(elapsed, factor, "+".join(pair))
            for kind, request, (latency, job) in zip(pair, requests, replies):
                log.add_latency(kind, latency, factor)
                outcomes.append((kind, request, latency, job))
        after = self.server.engine_counts()
        self.events += after["scheduler_events"] - before["scheduler_events"]
        for key in after:
            self.counters[key] = self.counters.get(key, 0) + after[key] - before[key]
        if traced:
            stats_after = self.server.client.stats()
            self._count_stats(stats_before, stats_after)
            self.wire += [(kind, latency, job) for kind, _, latency, job in outcomes]
        # Verified after the timed phase, so that checks do not eat into it.
        self.pending += outcomes
        log.tally([None] * len(outcomes))

    def _verify(self, request, job: Dict) -> Optional[str]:
        scenario, config, seed, options, sweep, first = request
        record = job["record"]
        if self.inject is not None:
            record["cycles"] += 1
            self.inject = None

        def verified():
            assert job["state"] == "done", f"job {job['state']}"
            if first is not None:
                assert job["source"] == "store", f"hit from {job['source']}"
                assert canonical(record) == first, "store hit differs from first response"
            elif not sweep:
                self._assert_direct(record, scenario, config, seed, options)
            else:
                points = record["points"]
                assert len(points) == SWEEP_POINTS, "sweep points"
                for point in points:
                    self._assert_direct(point, point["scenario"],
                                        point["config"], point["seed"],
                                        point["options"])

        return check(verified)

    def _assert_direct(self, record, scenario, config, seed, options) -> None:
        """The service's record equals the same request run here."""
        assert record["checked"] is not None, "the oracle did not run"
        direct = direct_record(scenario, config, seed, options)
        assert simulation_view(record) == simulation_view(direct), (
            "service record differs from a direct run")

    # -- metrics ----------------------------------------------------------

    def start_trace(self) -> None:
        self.wire = []

    def _count_stats(self, before: Dict, after: Dict) -> None:
        for key, path in (("store.hits", ("store", "hits")),
                          ("store.misses", ("store", "misses")),
                          ("store.puts", ("store", "puts")),
                          ("scheduler.coalesced", ("coalesced",)),
                          ("scheduler.simulated", ("simulated",)),
                          ("wal.admitted_appends", ("wal", "admitted_appends"))):
            old, new = before, after
            for part in path:
                old, new = old[part], new[part]
            self.counters[key] = self.counters.get(key, 0) + new - old

    def layer_metrics(self, layer: Dict) -> Dict:
        def median_of(field: str, kinds=None) -> float:
            values = [job["timings"][field] for kind, _, job in self.wire
                      if field in job.get("timings", {})
                      and (kinds is None or kind in kinds)]
            return percentile(values, 50) if values else 0.0

        hits = [latency - job["timings"]["total_s"]
                for kind, latency, job in self.wire if kind == "hit"]
        overhead = [latency - job["timings"]["total_s"]
                    for _, latency, job in self.wire if "timings" in job]
        counters = self.counters
        lookups = counters.get("store.hits", 0) + counters.get("store.misses", 0)
        return {
            "http.overhead_s": percentile(hits, 50) if hits else 0.0,
            "scheduler.queued_s": median_of("queued_s"),
            "scheduler.execute_s": median_of("execute_s", ("miss", "miss-codegen")),
            "store.put_s": median_of("store_put_s"),
            **{key: counters.get(key, 0) for key in (
                "store.hits", "store.misses", "store.puts",
                "scheduler.coalesced", "scheduler.simulated",
                "wal.admitted_appends")},
            "store.hit_ratio": counters.get("store.hits", 0) / lookups if lookups else 0.0,
            # The engine runs in the server, where no span is recorded:
            # its per-run wall time comes from the server's /metrics, and
            # what the server's own timings do not cover is the HTTP and
            # client overhead.  The server's GC pauses are not visible
            # from outside (this process's are not the server's).
            "engine.des_run_s": counters.get("run_seconds", 0),
            "engine.events_per_des_s": (
                counters.get("scheduler_events", 0) / counters["run_seconds"]
                if counters.get("run_seconds") else 0.0),
            "gc.pause_s": 0.0, "gc.full_collections": 0, "gc.pause_share": 0.0,
            "trace.uncovered_s": sum(overhead),
        }

    def finish(self, log: OpLog) -> List[str]:
        for _, request, _, job in self.pending:
            error = self._verify(request, job)
            if error is not None:
                log.fail(error)
        health = self.server.client.healthz()
        if health.get("status") != "ok":
            self.errors.append(f"server health {health}")
        return self.errors

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.server.process.pid)

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        for server in self.servers:
            server.stop()
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
