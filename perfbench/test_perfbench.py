"""Self-tests of the benchmark.

Every workload's short mode runs with every check on and reports no
failure; a deliberately wrong result (a perturbed cycle count, buffer or
registry grid point) is counted as failed, and so is an op that raises; without the program's sources the benchmark exits
non-zero.  Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from harness import Calibrator, OpLog, covered_seconds, span_self_times
from run import END_TO_END, PER_LAYER, WORKLOADS

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), "--short", "--seconds", "0.5",
         "--seed", "5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args: str) -> dict:
    proc = run(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ("0", "1"))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_mode_passes_every_check(workload, trace):
    out = result("--workload", workload, "--trace", trace)
    assert out["correct"] is True
    assert out["attempted"] > 0 and out["failed"] == 0
    expected = END_TO_END if trace == "0" else PER_LAYER
    assert list(out["metrics"]) == [name for name, _ in expected]
    for name, unit in expected:
        assert out["metrics"][name]["unit"] == unit
    if trace == "0":
        assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload, fault", [
    ("cold_sim", "cycles"), ("cold_sim", "buffer"),
    ("warm_sim", "cycles"), ("warm_sim", "buffer"),
    ("dse_sweep", "cycles"), ("dse_sweep", "grid"), ("service_mix", "cycles"),
])
def test_a_wrong_result_is_counted_as_failed(workload, fault):
    out = result("--workload", workload, "--inject", fault)
    assert out["failed"] == 1
    assert out["correct"] is True  # the other ops still verified


def test_an_op_that_raises_fails_its_ops_not_the_run():
    log = OpLog()

    def broken():
        raise AssertionError("wrong")

    assert log.run_op(Calibrator(), "sweep", 3, broken) is None
    assert (log.attempted, log.failed) == (3, 3)
    assert log.failures[0] == "sweep: AssertionError: wrong"
    assert log.run_op(Calibrator(), "sweep", 1, lambda: 7) == 7
    log.tally([None])
    assert (log.attempted, log.failed) == (4, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_sim",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_self_time_excludes_children():
    spans = [
        ("parent", 0.0, 10.0, "main"),
        ("child", 1.0, 4.0, "main"),
        ("grandchild", 2.0, 3.0, "main"),
        ("child", 5.0, 6.0, "main"),
        ("other-thread", 0.0, 10.0, "worker"),
    ]
    assert span_self_times(spans) == {
        "parent": 6.0, "child": 3.0, "grandchild": 1.0, "other-thread": 10.0,
    }


def test_covered_seconds_merges_and_clips():
    intervals = [(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)]
    assert covered_seconds(intervals, (1.0, 10.0)) == pytest.approx(4.0)
    assert covered_seconds([], (0.0, 1.0)) == 0.0
