"""The in-process simulation workloads: ``cold_sim`` and ``warm_sim``.

``cold_sim`` is ``equeue-sim prog.mlir`` on programs never seen before:
every op parses a printed EQueue program, verifies it and simulates it
with an empty plan cache, so the compile layers (parse, plan compile,
codegen compile) do most of the work.  ``warm_sim`` is the
compile-once/execute-many regime: modules are built and their plan
caches filled during set-up, and every op re-simulates over a warm cache,
so the DES kernel and the codegen runtime do nearly all the work.  Each
is the other's bypass workload.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from harness import OpLog, Workload, check

from repro import dialects  # noqa: F401  (registers the dialects)
from repro.ir import parse_module, print_op, verify
from repro.scenarios import Scenario, get_scenario
from repro.sim import EngineOptions, ExecutionMode, PlanCache, simulate

#: Every execution mode but the ``interpret`` reference.
MODES = tuple(m.value for m in ExecutionMode if m is not ExecutionMode.INTERPRET)

#: One mid-size program per registered scenario; each cold op takes
#: 50-500 ms on the reference host.
COLD_CONFIGS = (
    ("systolic", dict(dataflow="WS", array_height=4, array_width=4,
                      n=2, c=2, h=8, w=8, fh=3, fw=3)),
    ("mesh", dict(rows=4, cols=4, rounds=4)),
    ("gemm", dict(m=8, k=256, n=8, tile_k=8)),
    ("fir", dict(n_cores=8, taps=64, samples=256)),
    ("pipeline", dict(stage="reassign", n=4, c=2, h=12, w=12)),
)

#: Larger programs for the warm regime; each warm op takes 25-250 ms.
WARM_CONFIGS = (
    ("systolic", dict(dataflow="WS", array_height=8, array_width=8,
                      n=4, c=2, h=8, w=8, fh=3, fw=3)),
    ("systolic", dict(dataflow="OS", array_height=6, array_width=6,
                      n=4, c=2, h=8, w=8, fh=3, fw=3)),
    ("systolic", dict(dataflow="IS", array_height=6, array_width=6,
                      n=4, c=2, h=8, w=8, fh=3, fw=3)),
    ("mesh", dict(rows=8, cols=8, rounds=8)),
    ("fir", dict(n_cores=8, taps=64, samples=256)),
    ("pipeline", dict(stage="affine", n=2, c=2, h=8, w=8, fh=3, fw=3)),
    ("pipeline", dict(stage="systolic", n=4, c=2, h=8, w=8, fh=3, fw=3)),
)

#: The short mode's configs: every scenario, small, for the self-tests.
SHORT_CONFIGS = (
    ("systolic", dict(dataflow="WS", array_height=2, array_width=2,
                      n=1, c=1, h=4, w=4, fh=2, fw=2)),
    ("mesh", dict(rows=2, cols=2, rounds=2)),
    ("gemm", dict(m=2, k=8, n=2, tile_k=4)),
    ("fir", dict(n_cores=2, taps=8, samples=16)),
    ("pipeline", dict(stage="reassign", n=1, c=1, h=4, w=4, fh=2, fw=2)),
)

#: ProfilingSummary counters the traced run accumulates over ops.
SUMMARY_COUNTERS = (
    "scheduler_events", "launches_executed", "plans_compiled",
    "plan_cache_hits", "blocks_codegenned", "codegen_fallbacks",
)


class Reference:
    """The observables a correct simulation must reproduce exactly."""

    def __init__(self, result) -> None:
        self.cycles = result.cycles
        self.events = result.summary.scheduler_events
        self.launches = result.summary.launches_executed
        self.buffers = {
            name: np.array(buffer.array, copy=True)
            for name, buffer in result.buffers.items()
        }

    def assert_matches(self, result) -> None:
        assert result.cycles == self.cycles, (
            f"cycles {result.cycles} != reference {self.cycles}")
        events = result.summary.scheduler_events
        assert events == self.events, (
            f"scheduler events {events} != reference {self.events}")
        assert result.summary.launches_executed == self.launches, "launches"
        assert sorted(result.buffers) == sorted(self.buffers), "buffer names"
        for name, expected in self.buffers.items():
            actual = result.buffers[name].array
            assert actual.dtype == expected.dtype and np.array_equal(
                actual, expected
            ), f"buffer {name!r} differs from the reference"


def perturb(result, how: str) -> None:
    """Make a result wrong on purpose (the benchmark's self-test)."""
    if how == "cycles":
        result.cycles += 1
    elif how == "buffer":
        name = next(n for n in sorted(result.buffers)
                    if result.buffers[n].array.size)
        result.buffers[name].array.flat[0] += 1


class SimWorkload(Workload):
    """Common state of the two in-process simulation workloads."""

    import_modules = ("repro.dialects", "repro.ir", "repro.scenarios",
                      "repro.sim")
    injectable = ("cycles", "buffer")
    trace_setup = True

    def _configs(self, full) -> List[Tuple[Scenario, object]]:
        chosen = SHORT_CONFIGS if self.short else full
        return [(get_scenario(name), get_scenario(name).configure(**over))
                for name, over in chosen]

    def _time(self, name: str, fn, *args, **kwargs):
        if self.timers is None:
            return fn(*args, **kwargs)
        return self.timers.time(name, fn, *args, **kwargs)

    def _account(self, result) -> None:
        summary = result.summary
        self.events += summary.scheduler_events
        for name in SUMMARY_COUNTERS:
            self.counters[name] = self.counters.get(name, 0) + getattr(
                summary, name)

    def _check(self, scenario, cfg, result, reference: Reference) -> Optional[str]:
        if self.inject is not None:
            perturb(result, self.inject)
            self.inject = None  # one wrong result is enough

        def verify_result():
            reference.assert_matches(result)
            scenario.check(cfg, result, self.seed)

        return check(verify_result)


class ColdSim(SimWorkload):
    """Parse, verify and simulate never-seen programs, in every mode."""

    name = "cold_sim"
    setup_repeats = 5

    def setup(self, timed) -> None:
        """Print one EQueue text program per scenario."""
        self.programs = [timed(self._program, scenario, cfg)
                         for scenario, cfg in self._configs(COLD_CONFIGS)]

    def _program(self, scenario, cfg):
        module = self._time("build", scenario.build, cfg)
        return (scenario, cfg, print_op(module),
                scenario.make_inputs(cfg, self.seed))

    def prepare(self) -> None:
        """Reference results: the builder-made module (not the parsed
        text) through the reference interpreter."""
        self.references = []
        for scenario, cfg, _, inputs in self.programs:
            result = simulate(
                scenario.build(cfg),
                EngineOptions(mode=ExecutionMode.INTERPRET),
                inputs=inputs,
            )
            error = check(lambda: scenario.check(cfg, result, self.seed))
            if error is not None:
                self.errors.append(f"reference {scenario.name}: {error}")
            self.references.append(Reference(result))

    def _cold_run(self, text: str, mode: str, inputs):
        module = self._time("parse", parse_module, text)
        self._time("verify", verify, module)
        return simulate(module, EngineOptions(mode=mode), inputs=inputs)

    def run_round(self, log: OpLog, calibrator) -> None:
        for (scenario, cfg, text, inputs), reference in zip(
            self.programs, self.references
        ):
            for mode in MODES:
                result = log.run_op(calibrator, f"{scenario.name}/{mode}", 1,
                                    self._cold_run, text, mode, inputs)
                if result is None:
                    continue
                if self.timers is not None:
                    self.timers.counts["parse_bytes"] += len(text)
                self._account(result)
                log.tally([self._check(scenario, cfg, result, reference)])


class WarmSim(SimWorkload):
    """Re-simulate built modules over warm plan caches, in every mode."""

    name = "warm_sim"
    #: Each set-up compiles every program in both modes (seconds).
    setup_repeats = 3

    def setup(self, timed) -> None:
        """Build every module and fill one plan cache per mode (the cold
        runs, kept as the references the warm runs must equal)."""
        self.programs = []
        for scenario, cfg in self._configs(WARM_CONFIGS):
            module = timed(self._time, "build", scenario.build, cfg)
            inputs = timed(scenario.make_inputs, cfg, self.seed)
            for mode in MODES:
                plan_cache = PlanCache()
                options = EngineOptions(mode=mode, verify_module=False)
                result = timed(simulate, module, options, inputs=inputs,
                               plan_cache=plan_cache)
                if self.timers is not None:
                    self._account(result)
                self.programs.append((scenario, cfg, module, inputs, mode,
                                      options, plan_cache, Reference(result)))

    def prepare(self) -> None:
        """Every mode's cold run must agree with the first mode's (the
        scenario oracle runs on every warm op)."""
        by_module = {}
        for scenario, cfg, module, inputs, mode, _, _, ref in self.programs:
            by_module.setdefault(id(module), []).append((scenario, cfg, ref))
        for runs in by_module.values():
            scenario, cfg, first = runs[0]
            for _, _, other in runs[1:]:
                same = (first.cycles, first.events) == (other.cycles, other.events)
                same = same and all(np.array_equal(first.buffers[n], other.buffers[n])
                                    for n in first.buffers)
                if not same:
                    self.errors.append(f"{scenario.name}: modes disagree")

    def run_round(self, log: OpLog, calibrator) -> None:
        for (scenario, cfg, module, inputs, mode, options, plan_cache,
             reference) in self.programs:
            result = log.run_op(calibrator, f"{scenario.name}:{cfg}/{mode}", 1,
                                simulate, module, options, inputs=inputs,
                                plan_cache=plan_cache)
            if result is None:
                continue
            self._account(result)
            log.tally([self._check(scenario, cfg, result, reference)])
