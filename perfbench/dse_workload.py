"""The ``dse_sweep`` workload: the §VI-E systolic design-space sweep.

Every round runs from cold caches, serially, with the compile cache and
per-structure result reuse on (the ``serial-cached`` row of
``BENCH_sweep_throughput.json``): a fixed slice of ``paper_sweep_spec()``
through ``repro.analysis.run_sweep(..., use_des=True)``, one call per
(dataflow, array height, image size) chunk of 8 points, the caches
carrying over from chunk to chunk, then one registry grid through
``repro.scenarios.run_scenario_sweep`` (the ``equeue-sim --sweep``
path).  Many small, structurally related programs: plan compile,
elaborate, the program cache, the result memo and the garbage collector
dominate.

An op is one sweep point.  Memo copies take microseconds, so latencies
are summarised per sweep call, never per point, and only over the calls
that simulate: a chunk whose every point is a memo copy of an earlier
chunk's counts towards the throughput but no latency summary.

The engine's event counters (``repro.obs.metrics``) are on only for one
untimed round before the timed phase: every round starts from cold
caches and so simulates the same programs, and that round's counts
stand for every timed round.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, List, Optional, Set

from harness import Calibrator, OpLog, Workload, check

from repro.analysis import paper_sweep_spec, run_sweep
from repro.analysis.dse import clear_sweep_caches
from repro.obs import metrics as obs_metrics
from repro.scenarios import (
    Scenario,
    clear_scenario_caches,
    run_scenario_sweep,
    scenario_cache_stats,
    scenario_grid,
)
from repro.sim import process_compile_cache

#: The slice of the paper's space: 96 points.
SLICE = dict(array_heights=(4, 8), image_sizes=(2, 4), filter_sizes=(1, 2),
             channels=(1, 2), filter_counts=(1, 4))
SHORT_SLICE = dict(array_heights=(4,), image_sizes=(2,), filter_sizes=(1,),
                   channels=(1, 2), filter_counts=(1, 2))
#: The registry grid: the mesh scenario's declared grid (24 points).
GRID = "mesh"
SHORT_GRID_AXES = {"rows": (2,), "cols": (2, 3), "rounds": (2,),
                   "link_bandwidth": (2,)}

#: Engine counters (``repro.obs.metrics``) read as deltas.
ENGINE_COUNTERS = {
    "engine.scheduler_events": "scheduler_events",
    "engine.launches": "launches_executed",
    "engine.runs": "runs",
    "engine.plans_compiled": "plans_compiled",
    "engine.plan_cache_hits": "plan_cache_hits",
    "engine.blocks_codegenned": "blocks_codegenned",
}

#: Key of the oracle's failure in a grid point's ``checked`` stats.
ORACLE_FAILED = "perfbench.oracle_failed"


def _engine_counts() -> Dict[str, float]:
    registry = obs_metrics.get_registry()
    return {key: registry.counter(name).value
            for name, key in ENGINE_COUNTERS.items()}


def _verdicts(points, expected, check_one) -> List[Optional[str]]:
    """One check verdict per expected point."""
    if len(points) != len(expected):
        return [f"{len(points)} points returned, {len(expected)} expected"
                ] * len(expected)
    return [check_one(point, want) for point, want in zip(points, expected)]


def _check_point(point, model) -> Optional[str]:
    """A DES point must equal the analytical model exactly."""
    def same():
        assert point.simulated, "point was not simulated"
        assert point.config == model.config, "point order"
        assert point.cycles == model.cycles == model.config.expected_cycles, (
            f"cycles {point.cycles} != analytical {model.cycles}")
        assert point.loop_iterations == model.loop_iterations, "iterations"
    return check(same)


def _check_grid_point(point, cfg) -> Optional[str]:
    """The sweep worker ran the scenario oracle (stencil output, exact
    per-link traffic, the per-hop cycle floor) on this point, and it
    held."""
    def held():
        assert point.config == cfg, "point order"
        assert point.checked is not None, "oracle did not run"
        assert ORACLE_FAILED not in point.checked, point.checked.get(ORACLE_FAILED)
    return check(held)


class DseSweep(Workload):
    name = "dse_sweep"
    import_modules = ("repro.analysis", "repro.scenarios", "repro.sim")
    #: ``cycles`` perturbs a DES point of the slice, ``grid`` the output
    #: of a registry grid point before its oracle runs.
    injectable = ("cycles", "grid")

    def __init__(self, seed: int, short: bool, inject: Optional[str]):
        super().__init__(seed, short, inject)
        #: Engine counter deltas of one round (see :meth:`prepare`).
        self.per_round: Dict[str, float] = {}
        #: Labels of the chunks that simulate nothing (all memo copies).
        self.memo_only: Set[str] = set()
        self._undo = None

    def setup(self, timed) -> None:
        timed(self._inputs)

    def _inputs(self) -> None:
        """The sweep inputs: the slice's chunks with their analytical
        answers, and the registry grid."""
        spec = replace(paper_sweep_spec(),
                       **(SHORT_SLICE if self.short else SLICE))
        self.chunks = []
        for dataflow in spec.dataflows:
            for height in spec.array_heights:
                for image in spec.image_sizes:
                    chunk = replace(spec, dataflows=(dataflow,),
                                    array_heights=(height,),
                                    image_sizes=(image,))
                    model = run_sweep(chunk, use_des=False, seed=self.seed)
                    self.chunks.append(
                        (f"{dataflow}/{height}/{image}", chunk, model))
        self.grid = scenario_grid(GRID, SHORT_GRID_AXES if self.short else None)
        self.grid_configs = self.grid.points()

    def prepare(self) -> None:
        """Count one round's engine events, and the simulations of each
        chunk, with the metrics registry on, untimed and unchecked, so
        that the timed rounds run with it off.  No wrong result is
        injected into this round."""
        inject, self.inject = self.inject, None
        runs: Dict[str, float] = {}
        obs_metrics.enable_metrics()
        try:
            before = _engine_counts()
            self._round(OpLog(), Calibrator(), runs)
            after = _engine_counts()
        finally:
            obs_metrics.disable_metrics()
            self.inject = inject
        self.per_round = {key: after[key] - before[key] for key in after}
        self.memo_only = {label for label, count in runs.items() if count == 0}

    def _count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _count_programs(self, stats) -> None:
        self._count("programs_built", stats.programs_built)
        self._count("program_hits", stats.program_hits)

    @contextmanager
    def _oracle_verdicts(self):
        """Keep the grid oracle's failure in the point's ``checked``
        stats: the sweep driver stops at the first point whose oracle
        raises, and a wrong point must fail itself, not the whole run."""
        original = Scenario.check
        workload = self

        def check_kept(scenario, cfg, result, seed=0):
            if workload.inject == "grid":
                workload.inject = None
                result.buffer(cfg.final_buffer).flat[0] += 1
            try:
                return original(scenario, cfg, result, seed)
            except Exception as error:  # the point's verdict, whatever raised
                return {ORACLE_FAILED: f"{type(error).__name__}: {error}"[:300]}

        Scenario.check = check_kept
        try:
            yield
        finally:
            Scenario.check = original

    def _round(self, log: OpLog, calibrator, runs=None) -> None:
        """The whole slice and the grid, from cold caches.  The garbage
        the cleared caches leave is collected first, as a fresh process
        would have none.  ``runs``, if given, receives each chunk's
        engine runs (the metrics registry must be on)."""
        clear_sweep_caches()
        clear_scenario_caches()
        gc.collect()
        for label, chunk, model in self.chunks:
            if runs is not None:
                runs[label] = -_engine_counts()["runs"]
            points = log.run_op(
                calibrator, f"dse/{label}", len(model), run_sweep, chunk,
                use_des=True, seed=self.seed, jobs=1, compile_cache=True,
                reuse_results=True, latency=label not in self.memo_only)
            if runs is not None:
                runs[label] += _engine_counts()["runs"]
            if points is None:
                continue
            if self.inject == "cycles":
                points[0].cycles += 1
                self.inject = None
            log.tally(_verdicts(points, model, _check_point))
        self._count_programs(process_compile_cache().stats)
        with self._oracle_verdicts():
            points = log.run_op(
                calibrator, f"grid/{GRID}", len(self.grid_configs),
                run_scenario_sweep, self.grid, jobs=1, seed=self.seed,
                check=True)
        if points is not None:
            log.tally(_verdicts(points, self.grid_configs, _check_grid_point))
        self._count_programs(scenario_cache_stats())

    def run_round(self, log: OpLog, calibrator) -> None:
        self._round(log, calibrator)
        for key, amount in self.per_round.items():
            self._count(key, amount)
        self.events += self.per_round["scheduler_events"]
        self._count("points", sum(len(m) for _, _, m in self.chunks)
                    + len(self.grid_configs))

    def start_trace(self) -> None:
        """Time ``Scenario.build`` (the registry grid's build path)."""
        original = Scenario.build
        workload = self

        def build(scenario, cfg):
            if workload.timers is None:
                return original(scenario, cfg)
            return workload.timers.time("build", original, scenario, cfg)

        Scenario.build = build
        self._undo = lambda: setattr(Scenario, "build", original)

    def layer_metrics(self, layer: Dict) -> Dict:
        points = self.counters.get("points", 0)
        simulated = self.counters.get("runs", 0)
        return {
            "build.programs_built": self.counters.get("programs_built", 0),
            "build.program_hits": self.counters.get("program_hits", 0),
            "sweep.points": points,
            "sweep.points_simulated": simulated,
            "sweep.memo_ratio": (points - simulated) / points,
            # The sweep drivers' own time: the legacy systolic build
            # path and the memo carry no span of their own.
            "sweep.driver_s": layer["trace.uncovered_s"],
        }

    def close(self) -> None:
        if self._undo is not None:
            self._undo()
