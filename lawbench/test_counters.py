"""Checks on the benchmark itself.

Run from the root of a checkout (takes about two minutes; the lawlab
workload dominates):

    python3 -m pytest lawbench/test_counters.py -q

The deterministic counters must repeat exactly when a traced round is run
again on the same seed, for two seeds.  The benchmark must refuse to report
anything when the program is missing.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import DETERMINISTIC, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (3, 11)


def _traced_counters(name: str, seed: int, workdir: str) -> tuple[dict, int]:
    workload = WORKLOADS[name]()
    prog, inputs, _ = run.set_up(workload, seed, workdir)
    result = run.one_round(workload, prog, inputs, Tracer(prog))
    metrics = result.tracer.metrics()
    return {key: metrics[key] for key in DETERMINISTIC}, result.wrong


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_deterministic_counters_repeat(name, tmp_path):
    for seed in SEEDS:
        first, wrong_first = _traced_counters(name, seed, str(tmp_path / f"{seed}-a"))
        again, wrong_again = _traced_counters(name, seed, str(tmp_path / f"{seed}-b"))
        assert first == again, (name, seed)
        assert wrong_first == wrong_again == 0
        assert first["core.oracle.points"] > 0


def test_every_layer_metric_is_reported(tmp_path):
    workload = WORKLOADS["cube-io"]()
    prog, inputs, _ = run.set_up(workload, 1, str(tmp_path))
    metrics = run.one_round(workload, prog, inputs, Tracer(prog)).tracer.metrics()
    assert [name for name, _ in run.PER_LAYER] == list(metrics) + ["trace.overhead_s"]


def test_tail_mean_keeps_ten_samples_beyond():
    ordered = [float(k) for k in range(1, 301)]
    assert run.tail_mean(ordered, 99.0) == (90.0, 285.0, 31)
    assert run.tail_mean(ordered, 90.0) == (90.0, 285.0, 31)
    assert run.tail_mean(ordered[:50], 90.0) == (50.0, 37.5, 26)


def test_fails_without_the_program(tmp_path):
    bench = tmp_path / "lawbench"
    shutil.copytree(
        os.path.dirname(os.path.abspath(__file__)),
        bench,
        ignore=shutil.ignore_patterns(".work", "traces", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "lawbench/run.py", "--workload", "chain", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
