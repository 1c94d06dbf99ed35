"""Law-table benchmark for moorecubes.

Run from the root of a checkout:

    python3 lawbench/run.py --workload lawlab --seed 42 --seconds 30 --trace 0

Workloads are ``lawlab``, ``chain`` and ``cube-io`` (see ``workloads.py``);
``--workload all`` runs the three in turn in one process.  The program is
imported from ``src/`` of the checkout, single-threaded, and driven as a
closed loop with one caller.  A run repeats rounds of ops until
``--seconds`` have passed, at least one round, and sets the workload up
SETUP_REPS times along the way (a fresh import of the package plus making
the seeded inputs).  Between ops, ``CorePicker`` keeps the process on the
fastest allowed CPU.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
ones (see ``tracing.py``) and the tracing overhead, and writes the spans and
counts to ``lawbench/traces/<workload>-seed<seed>.json``.

Lines above the last describe the run for a reader; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the program (no ``src/moorecubes``) the
benchmark prints an error to standard error and exits with code 2.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from tracing import METRICS, Tracer, combine, write_trace
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
MODULES = ("core", "expr", "ops", "tensor", "compose", "generators", "lawlab", "cubefile", "svg", "cli")

SETUP_REPS = 9
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(METRICS) + (("trace.overhead_s", "s"),)


class CorePicker:
    """Keeps the process on whichever allowed CPU is currently fastest.

    On a host shared with other tenants each CPU switches between speeds
    about 40 % apart, for seconds at a time, and the CPUs switch
    independently.  Every PROBE_EVERY seconds, between ops, the picker times
    the same short loop on each allowed CPU and moves the process to the
    fastest.  With one allowed CPU it does nothing.
    """

    PROBE_EVERY = 0.5

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.last = -math.inf
        self.spent = 0.0

    @staticmethod
    def _spin() -> int:
        x = 0
        for i in range(30000):
            x += i * i % 7
        return x

    def _speed(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        start = perf_counter()
        self._spin()
        return perf_counter() - start

    def maybe_probe(self) -> None:
        now = perf_counter()
        if len(self.cpus) < 2 or now - self.last < self.PROBE_EVERY:
            return
        os.sched_setaffinity(0, {min(self.cpus, key=self._speed)})
        self.last = perf_counter()
        self.spent += self.last - now

    def release(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, set(self.cpus))


class OpClock:
    """Latency of each op of one round, and how many were tried and failed."""

    def __init__(self, tracer: Tracer | None = None, picker: CorePicker | None = None):
        self.tracer = tracer
        self.picker = picker
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0

    @contextmanager
    def op(self, suppress: bool = True):
        """Time one op.  An exception fails the op; it propagates unless suppress."""
        if self.picker is not None:
            self.picker.maybe_probe()
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted
        start = perf_counter()
        try:
            yield
        except Exception:
            self.failed += 1
            if not suppress:
                raise
        else:
            self.latencies.append(perf_counter() - start)

    def count_failed(self, n: int) -> None:
        """Ops that could not even start, because an earlier op took the round down."""
        self.attempted += n
        self.failed += n


@dataclass
class Round:
    traced: bool
    wall_s: float
    clock: OpClock
    wrong: int
    tracer: Tracer | None


def load_program() -> SimpleNamespace:
    """Import moorecubes afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "moorecubes" or n.startswith("moorecubes.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    pkg = importlib.import_module("moorecubes")
    where = os.path.realpath(os.path.dirname(os.path.dirname(pkg.__file__)))
    if where != os.path.realpath(SRC):
        raise ImportError(f"moorecubes was imported from {where}, not from {SRC}")
    mods = {m: importlib.import_module(f"moorecubes.{m}") for m in MODULES}
    return SimpleNamespace(pkg=pkg, modules=[pkg, *mods.values()], **mods)


def set_up(workload, seed: int, workdir: str):
    """Import the program afresh and make the seeded inputs; time both."""
    shutil.rmtree(workdir, ignore_errors=True)
    start = perf_counter()
    os.makedirs(workdir)
    prog = load_program()
    inputs = workload.setup(prog, seed, workdir)
    return prog, inputs, perf_counter() - start


def one_round(workload, prog, inputs, tracer: Tracer | None = None, picker: CorePicker | None = None) -> Round:
    """Run one round of the workload's ops, traced when a tracer is given."""
    clock = OpClock(tracer, picker)
    probing = picker.spent if picker else 0.0
    oracle = tracer.oracle if tracer else prog.core.EqualityOracle()
    if tracer:
        tracer.install()
    began = perf_counter()
    try:
        wrong = workload.run_round(prog, inputs, oracle, clock)
    finally:
        wall = perf_counter() - began - ((picker.spent if picker else 0.0) - probing)
        if tracer:
            tracer.uninstall()
    return Round(tracer is not None, wall, clock, wrong, tracer)


def measure(workload, seed: int, workdir: str, seconds: float, trace: bool):
    """Repeat rounds until `seconds` have passed; with trace, every other round is traced.

    The SETUP_REPS set-ups are spread evenly over the run, so that their
    median does not hang on the machine's state at one moment; each round
    uses the program and inputs of the latest set-up.
    """
    rounds: list[Round] = []
    setups: list[float] = []
    picker = CorePicker()
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds or (trace and len(rounds) < 2):
        if len(setups) < SETUP_REPS and perf_counter() - start >= len(setups) * seconds / SETUP_REPS:
            picker.maybe_probe()
            prog, inputs, took = set_up(workload, seed, workdir)
            setups.append(took)
        tracer = Tracer(prog) if trace and len(rounds) % 2 == 1 else None
        rounds.append(one_round(workload, prog, inputs, tracer, picker))
    while len(setups) < SETUP_REPS:
        picker.maybe_probe()
        setups.append(set_up(workload, seed, workdir)[2])
    picker.release()
    return rounds, setups


def tail_mean(ordered: list[float], percentile: float) -> tuple[float, float, int]:
    """Mean latency of the ops at or beyond the workload's tail percentile.

    Returns the percentile used, the mean and how many ops it covers.  When
    fewer than TAIL_BEYOND samples lie beyond the percentile, the next lower
    one of TAIL_PERCENTILES is used.  A mean over the tail, rather than the
    single sample at the percentile, takes every slow op into account: on a
    shared host the sample at the cut swings with the host's speed far more
    than the ops around it do.
    """
    n = len(ordered)
    for p in (percentile,) + tuple(q for q in TAIL_PERCENTILES if q < percentile):
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            tail = ordered[rank - 1:]
            return p, statistics.fmean(tail), len(tail)
    return 100.0, ordered[-1], 1


def end_to_end(rounds: list[Round], setup_times: list[float], tail: float) -> tuple[dict, list[str]]:
    plain = [r for r in rounds if not r.traced]
    ordered = sorted(x for r in plain for x in r.clock.latencies)
    if not ordered:
        raise RuntimeError("every op failed; there is no latency to report")
    attempted = sum(r.clock.attempted for r in plain)
    done = attempted - sum(r.clock.failed for r in plain)
    pct, tail, beyond = tail_mean(ordered, tail)
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.fmean(r.wall_s for r in plain),
        "ops_per_s": done / sum(r.wall_s for r in plain),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"op_tail_ms is the mean of the {beyond} ops at or beyond p{pct:g} "
        f"of {len(ordered)} successful ops",
        f"setup_s is the median of {len(setup_times)} set-ups: "
        + ", ".join(f"{t:.4f}" for t in setup_times),
        f"wall_s is the mean of {len(plain)} rounds: " + ", ".join(f"{r.wall_s:.3f}" for r in plain),
    ]
    return values, notes


def per_layer(rounds: list[Round], trace_path: str, workload: str, seed: int) -> tuple[dict, int, list[str]]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    values, unstable = combine([r.tracer.metrics() for r in traced])
    traced_wall = statistics.fmean(r.wall_s for r in traced)
    plain_wall = statistics.fmean(r.wall_s for r in plain)
    values["trace.overhead_s"] = traced_wall - plain_wall
    write_trace(trace_path, workload, seed, [r.tracer for r in traced])
    notes = [
        f"traced wall_s {traced_wall:.4f} s over {len(traced)} rounds, "
        f"untraced {plain_wall:.4f} s over {len(plain)} rounds",
        f"spans and counts written to {os.path.relpath(trace_path, ROOT)}",
    ]
    notes += [f"deterministic counter {name} differs between traced rounds" for name in unstable]
    return values, len(unstable), notes


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]()
    workdir = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    try:
        rounds, setup_times = measure(workload, seed, workdir, seconds, trace)
        wrong = sum(r.wrong for r in rounds)
        if trace:
            trace_path = os.path.join(HERE, "traces", f"{name}-seed{seed}.json")
            values, unstable, notes = per_layer(rounds, trace_path, name, seed)
            wrong += unstable
            units = PER_LAYER
        else:
            values, notes = end_to_end(rounds, setup_times, workload.TAIL)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    attempted = sum(r.clock.attempted for r in rounds)
    failed = sum(r.clock.failed for r in rounds)
    print(f"workload {name}, seed {seed}, {len(rounds)} rounds in {'traced' if trace else 'untraced'} mode")
    for metric, unit in units:
        print(f"  {metric:<36} {values[metric]!r} {unit}")
    print(f"  {'failed_ops_ratio':<36} {failed / attempted!r} ({failed} of {attempted} ops)")
    print(f"  {'wrong_outputs':<36} {wrong} count")
    for note in notes:
        print(f"  # {note}")
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
