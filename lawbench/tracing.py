"""Per-layer counts and times for traced rounds, taken from the benchmark's side.

Nothing in the program is edited.  While a traced round runs, ``Tracer``
replaces the public functions of each module, wherever a module of the
package refers to them, with timing wrappers, replaces ``MooreCube.at`` with a
counting one, and passes a timing ``EqualityOracle`` subclass through
``oracle=`` (also into compositions whose callers rely on the default
oracle; its settings are the defaults, so every result is unchanged).
``uninstall`` puts the originals back.

Times are inclusive: a layer's time covers the calls it makes into other
layers.  Each wrapped call also becomes a span (name, start, end, parent,
op) kept in memory; ``write_trace`` writes them out with the self time of
each span name, which is its duration minus the part its children cover.
"""
from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# Root provenance node of a compared cube -> metric key.
ROOTS = {
    "Primitive": "primitive",
    "FaceNode": "face",
    "DegeneracyNode": "degeneracy",
    "ConnectionNode": "connection",
    "ReverseNode": "reverse",
    "ComposeNode": "compose",
    "TensorNode": "tensor",
    "ReassociateNode": "reassociate",
}
MAX_DIM = 4

# Counters that depend only on the inputs, so they repeat exactly across
# runs, rounds and machines.
DETERMINISTIC = (
    "core.oracle.points",
    "core.oracle.point_evals",
    "cubefile.nodes",
    "cubefile.bytes_written",
    "lawlab.not_constructible",
)

# Layer metrics: (name, unit), in the order they are reported.
METRICS = (
    [
        ("core.oracle.calls", "count"),
        ("core.oracle.scan_s", "s"),
        ("core.oracle.points", "count"),
        ("core.oracle.point_evals", "count"),
        ("core.oracle.unequal", "count"),
    ]
    + [(f"core.oracle.scan_s.d{d}", "s") for d in range(MAX_DIM + 1)]
    + [(f"core.oracle.points.d{d}", "count") for d in range(MAX_DIM + 1)]
    + [(f"core.oracle.us_per_point.{root}", "us") for root in ROOTS.values()]
    + [
        ("core.at.calls", "count"),
        ("core.at_s", "s"),
        ("expr.parse.calls", "count"),
        ("expr.parse_s", "s"),
        ("expr.compile.calls", "count"),
        ("expr.compile_s", "s"),
        ("generators.cubes", "count"),
        ("generators.gen_s", "s"),
        ("ops.calls", "count"),
        ("ops.build_s", "s"),
        ("tensor.calls", "count"),
        ("tensor.build_s", "s"),
        ("compose.strict.calls", "count"),
        ("compose.strict_s", "s"),
        ("compose.lenient.calls", "count"),
        ("compose.lenient_s", "s"),
        ("compose.rejected", "count"),
        ("compose.face_check_s", "s"),
        ("compose.multi.calls", "count"),
        ("compose.multi_s", "s"),
        ("lawlab.instances", "count"),
        ("lawlab.build_s", "s"),
        ("lawlab.compare_s", "s"),
        ("lawlab.not_constructible", "count"),
        ("lawlab.replay.calls", "count"),
        ("lawlab.replay_s", "s"),
        ("cubefile.save.calls", "count"),
        ("cubefile.save_s", "s"),
        ("cubefile.bytes_written", "B"),
        ("cubefile.load.calls", "count"),
        ("cubefile.load_s", "s"),
        ("cubefile.bytes_read", "B"),
        ("cubefile.nodes", "count"),
        ("cubefile.errors", "count"),
        ("svg.render.calls", "count"),
        ("svg.render_s", "s"),
        ("svg.bytes", "B"),
        ("cli.calls", "count"),
        ("cli.exit_nonzero", "count"),
        ("cli.sample.rows", "count"),
        ("cli.sample_s", "s"),
    ]
)


@dataclass(frozen=True)
class Hook:
    """How calls to one public function are counted and timed.

    ``time`` names the layer clock; calls nested inside another call on the
    same clock are counted but not timed again.  ``after`` sees the
    arguments, the result (None on error), the error and the duration.
    """

    module: str
    name: str
    calls: str | None
    time: str
    after: object = None
    oracle_arg: int | None = None


def _node_count(cube) -> int:
    """Provenance nodes of a cube, counted as they would be written to a file."""
    count, stack = 0, [cube]
    while stack:
        node = stack.pop().provenance
        count += 1
        for attr in ("source", "left", "right"):
            child = getattr(node, attr, None)
            if child is not None:
                stack.append(child)
    return count


def _cubes_in(result) -> int:
    if isinstance(result, tuple):
        return sum(_cubes_in(r) for r in result)
    return 1


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _after_generate(tr, args, result, error, dt):
    if error is None and tr.depth["generators.gen_s"] == 0:
        tr.counts["generators.cubes"] += _cubes_in(result)


def _after_compose(tr, args, result, error, dt):
    if error is not None and type(error).__name__ == "CompositionUndefined":
        tr.counts["compose.rejected"] += 1


def _after_instance(tr, args, result, error, dt):
    if error is None:
        tr.counts["lawlab.not_constructible"] += bool(result.not_constructible)


def _after_build_case(tr, args, result, error, dt):
    if tr.depth["lawlab.instance_s"]:
        tr.times["lawlab.build_s"] += dt


def _after_load(tr, args, result, error, dt):
    tr.counts["cubefile.bytes_read"] += _file_size(args[0])
    if error is None:
        tr.counts["cubefile.nodes"] += _node_count(result)
    else:
        tr.counts["cubefile.errors"] += 1


def _after_save(tr, args, result, error, dt):
    if error is None:
        tr.counts["cubefile.bytes_written"] += _file_size(args[1])
        tr.counts["cubefile.nodes"] += _node_count(args[0])
    else:
        tr.counts["cubefile.errors"] += 1


def _after_render(tr, args, result, error, dt):
    if error is None:
        tr.counts["svg.bytes"] += len(result.encode("utf-8"))


def _after_cli(tr, args, result, error, dt):
    argv = list(args[0])
    if error is not None or result != 0:
        tr.counts["cli.exit_nonzero"] += 1
    if argv[0] == "sample":
        tr.times["cli.sample_s"] += dt
        if result == 0 and "--out" in argv:
            with open(argv[argv.index("--out") + 1], encoding="utf-8") as handle:
                tr.counts["cli.sample.rows"] += sum(1 for _ in handle) - 1


HOOKS = (
    Hook("expr", "parse_expr", "expr.parse.calls", "expr.parse_s"),
    Hook("expr", "compile_expr", "expr.compile.calls", "expr.compile_s"),
    *(
        Hook("generators", name, None, "generators.gen_s", _after_generate)
        for name in ("gen_cube", "extend_chain", "gen_composable_pair", "subdivide", "quadrants")
    ),
    *(
        Hook("ops", name, "ops.calls", "ops.build_s")
        for name in ("face", "degeneracy", "connection", "reverse")
    ),
    Hook("tensor", "tensor", "tensor.calls", "tensor.build_s"),
    Hook("tensor", "reassociate", "tensor.calls", "tensor.build_s"),
    Hook("compose", "compose_strict", "compose.strict.calls", "compose.strict_s", _after_compose, 3),
    Hook("compose", "compose_lenient", "compose.lenient.calls", "compose.lenient_s", _after_compose, 3),
    Hook("compose", "multi_compose", "compose.multi.calls", "compose.multi_s", _after_compose, 1),
    Hook("lawlab", "check_instance", "lawlab.instances", "lawlab.instance_s", _after_instance),
    Hook("lawlab", "build_case", None, "lawlab.build_case_s", _after_build_case),
    Hook("lawlab", "reevaluate_witness", "lawlab.replay.calls", "lawlab.replay_s"),
    Hook("cubefile", "load_cube", "cubefile.load.calls", "cubefile.load_s", _after_load),
    Hook("cubefile", "save_cube", "cubefile.save.calls", "cubefile.save_s", _after_save),
    Hook("svg", "render_svg", "svg.render.calls", "svg.render_s", _after_render),
    Hook("cli", "main", "cli.calls", "cli.main_s", _after_cli),
)


def timing_oracle(core, tracer):
    """An EqualityOracle subclass that reports every scan to ``tracer``."""

    @dataclass(frozen=True)
    class TimingOracle(core.EqualityOracle):
        def grid(self, shape):
            return tracer.count_points(super().grid(shape))

        def union_grid(self, a, b):
            return tracer.count_points(super().union_grid(a, b))

        def equals_strict(self, a, b):
            return tracer.scan(super().equals_strict, a, b)

        def equals_action(self, a, b):
            return tracer.scan(super().equals_action, a, b)

    return TimingOracle()


class Tracer:
    """Counts and times of one traced round, plus its spans."""

    def __init__(self, prog):
        self.prog = prog
        self.counts: Counter = Counter()
        self.times: Counter = Counter()
        self.depth: Counter = Counter()
        self.points = 0
        self.at_calls = 0
        self.in_at = False
        self.root_points: Counter = Counter()
        self.root_times: Counter = Counter()
        self.op = 0
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.oracle = timing_oracle(prog.core, self)
        self._saved: list[tuple] = []

    # -- the oracle ---------------------------------------------------------

    def count_points(self, points):
        for p in points:
            self.points += 1
            yield p

    def scan(self, compare, a, b):
        points, evals = self.points, self.at_calls
        start = perf_counter()
        try:
            result = compare(a, b)
        finally:
            dt = perf_counter() - start
            points = self.points - points
            self.counts["core.oracle.calls"] += 1
            self.counts["core.oracle.points"] += points
            self.counts[f"core.oracle.points.d{a.dim}"] += points
            self.counts["core.oracle.point_evals"] += self.at_calls - evals
            self.times["core.oracle.scan_s"] += dt
            self.times[f"core.oracle.scan_s.d{a.dim}"] += dt
            root = ROOTS.get(type(a.provenance).__name__, "primitive")
            self.root_points[root] += points
            self.root_times[root] += dt
            if self.depth["compose.strict_s"] or self.depth["compose.lenient_s"]:
                self.times["compose.face_check_s"] += dt
            self.spans.append((self.op, len(self.spans), self._parent(), "core.oracle", start, start + dt))
        if not result:
            self.counts["core.oracle.unequal"] += 1
        return result

    # -- wrappers -----------------------------------------------------------

    def _parent(self):
        return self.stack[-1] if self.stack else None

    def _wrap(self, hook: Hook, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            k = hook.oracle_arg
            if k is not None:
                if len(args) > k:
                    if args[k] is None:
                        args = args[:k] + (tracer.oracle,) + args[k + 1 :]
                elif kwargs.get("oracle") is None:
                    kwargs["oracle"] = tracer.oracle
            if hook.calls:
                tracer.counts[hook.calls] += 1
            outer = tracer.depth[hook.time] == 0
            tracer.depth[hook.time] += 1
            span = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._parent()
            tracer.stack.append(span)
            error = result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                dt = perf_counter() - start
                tracer.stack.pop()
                tracer.depth[hook.time] -= 1
                if outer:
                    tracer.times[hook.time] += dt
                tracer.spans[span] = (tracer.op, span, parent, f"{hook.module}.{hook.name}", start, start + dt)
                if hook.after is not None:
                    hook.after(tracer, args, result, error, dt)

        return wrapper

    def _at(self, original):
        tracer = self

        def at(cube, ts):
            tracer.at_calls += 1
            if tracer.in_at:
                return original(cube, ts)
            tracer.in_at = True
            start = perf_counter()
            try:
                return original(cube, ts)
            finally:
                tracer.times["core.at_s"] += perf_counter() - start
                tracer.in_at = False

        return at

    def install(self) -> None:
        prog = self.prog
        wrappers = {}
        for hook in HOOKS:
            original = getattr(getattr(prog, hook.module), hook.name)
            wrappers[id(original)] = self._wrap(hook, original)
        for module in prog.modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, name, value))
                    setattr(module, name, wrappers[id(value)])
        cube_class = prog.core.MooreCube
        self._saved.append((cube_class, "at", cube_class.at))
        cube_class.at = self._at(cube_class.at)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict:
        """Every layer metric of this round, by name."""
        values = dict.fromkeys((name for name, _ in METRICS), 0)
        values.update(self.counts)
        values.update(self.times)
        values["core.at.calls"] = self.at_calls
        values["lawlab.compare_s"] = self.times["lawlab.instance_s"] - self.times["lawlab.build_s"]
        for root in ROOTS.values():
            points = self.root_points[root]
            values[f"core.oracle.us_per_point.{root}"] = (
                self.root_times[root] / points * 1e6 if points else 0.0
            )
        return {name: values[name] for name, _ in METRICS}

    def self_times(self) -> dict:
        """Self time per span name: duration minus what its children cover."""
        child_time: Counter = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        total: Counter = Counter()
        for _, span, _, name, start, end in self.spans:
            total[name] += end - start - child_time[span]
        return dict(total)


def combine(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Median of each metric over traced rounds; deterministic counters must agree."""
    combined = {name: statistics.median(r[name] for r in rounds) for name, _ in METRICS}
    unstable = [name for name in DETERMINISTIC if len({r[name] for r in rounds}) > 1]
    return combined, unstable


def write_trace(path: str, workload: str, seed: int, tracers: list[Tracer]) -> None:
    """Write the counts of every traced round and the spans of the first."""
    first = tracers[0]
    by_name = defaultdict(float)
    for _, _, _, name, start, end in first.spans:
        by_name[name] += end - start
    data = {
        "workload": workload,
        "seed": seed,
        "rounds": [t.metrics() for t in tracers],
        "span_seconds": dict(by_name),
        "span_self_seconds": first.self_times(),
        "span_fields": ["op", "id", "parent", "name", "start_s", "end_s"],
        "spans": first.spans,
    }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
