"""The benchmark's workloads: inputs made from a seed, one round of ops, checks.

A workload has two parts.  ``setup(prog, seed, workdir)`` makes the inputs
(and, for ``cube-io``, writes the input files); it depends only on the seed.
``run_round(prog, inputs, oracle, clock)`` performs one fixed round of ops in
a closed loop with a single caller, times each op through ``clock`` and
returns the number of outputs that differ from their reference.  Every round
of one run repeats the same ops on the same inputs.

References never come from the code under test: law tables and SVG files
are compared with digests recorded in ``reference.json``, law verdicts with
the known classification of each law, witnesses with their own recorded
distance, and sampled values with the benchmark's own evaluation of the
seeded polynomials below.
"""
from __future__ import annotations

import csv
import hashlib
import json
import os
import random
from contextlib import redirect_stderr
from io import StringIO

HERE = os.path.dirname(os.path.abspath(__file__))

# Sampled values must match the benchmark's own evaluation to within this
# share of the value (or absolutely, for values below 1).
VALUE_TOL = 1e-9
# A replayed witness must reproduce its recorded distance to within this.
REPLAY_TOL = 1e-12


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= VALUE_TOL * max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# seeded polynomials and the chains cut from them
#
# Every piece of a chain is the restriction of one polynomial to a box whose
# corner sits at a dyadic offset.  Offsets and widths are multiples of 1/4,
# so their sums are exact and the faces of neighbouring pieces agree bit for
# bit: every seam is strictly composable and every piece is a DSL primitive
# that can be saved.

EUCLIDEAN_1 = {"kind": "euclidean", "dim": 1}
WIDTHS = (0.25, 0.5, 0.75, 1.0)


def poly1(rng: random.Random) -> tuple[float, float, float]:
    """Coefficients (a0, a1, a2) of a0 + a1*x + a2*x^2."""
    return (rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 16, rng.randint(-8, 8) / 128)


def poly2(rng: random.Random) -> tuple[float, ...]:
    """Coefficients of b0 + b1*x + b2*y + b3*x*y + b4*x^2 + b5*y^2."""
    return (
        rng.randint(-16, 16) / 8,
        rng.randint(-16, 16) / 16,
        rng.randint(-16, 16) / 16,
        rng.randint(-8, 8) / 64,
        rng.randint(-8, 8) / 128,
        rng.randint(-8, 8) / 128,
    )


def eval_poly1(a: tuple[float, ...], x: float) -> float:
    return a[0] + x * (a[1] + x * a[2])


def eval_poly2(b: tuple[float, ...], x: float, y: float) -> float:
    return b[0] + b[1] * x + b[2] * y + b[3] * x * y + b[4] * x * x + b[5] * y * y


def source1(a: tuple[float, ...], c: float) -> str:
    x = f"(t1 + {c!r})"
    return f"{a[0]!r} + {a[1]!r}*{x} + {a[2]!r}*{x}^2"


def source2(b: tuple[float, ...], c: float, d: float) -> str:
    x, y = f"(t1 + {c!r})", f"(t2 + {d!r})"
    return (
        f"{b[0]!r} + {b[1]!r}*{x} + {b[2]!r}*{y} + {b[3]!r}*{x}*{y}"
        f" + {b[4]!r}*{x}^2 + {b[5]!r}*{y}^2"
    )


def offsets(widths) -> list[float]:
    """Start of each piece, plus the total at the end."""
    out = [0.0]
    for w in widths:
        out.append(out[-1] + w)
    return out


def clamp(t: float, r: float) -> float:
    return min(max(t, 0.0), r)


class Chain1:
    """A 1-d chain: pieces of one polynomial, composed left to right."""

    def __init__(self, coeffs, widths, start: float = 0.0):
        self.coeffs = coeffs
        self.widths = list(widths)
        self.starts = [start + c for c in offsets(self.widths)[:-1]]
        self.total = offsets(self.widths)[-1]
        self.sources = [source1(coeffs, c) for c in self.starts]

    def value(self, t: float) -> float:
        return eval_poly1(self.coeffs, self.starts[0] + clamp(t, self.total))

    def primitive_node(self, k: int) -> dict:
        return {
            "kind": "primitive",
            "dim": 1,
            "shape": [self.widths[k]],
            "target": EUCLIDEAN_1,
            "expr": [self.sources[k]],
        }

    def node(self) -> dict:
        """The provenance tree a left-nested composite of the pieces has."""
        node = self.primitive_node(0)
        for k in range(1, len(self.widths)):
            node = {
                "kind": "compose",
                "direction": 1,
                "lenient": False,
                "left": node,
                "right": self.primitive_node(k),
            }
        return node

    def build(self, prog, oracle):
        """Make every piece from its DSL source and fold them with compose_strict."""
        cube_from_exprs = prog.expr.cube_from_exprs
        space = prog.core.Euclidean(1)
        acc = None
        for width, src in zip(self.widths, self.sources):
            piece = cube_from_exprs(1, (width,), space, [src])
            acc = piece if acc is None else prog.compose.compose_strict(acc, piece, 1, oracle)
        return acc


class Grid2:
    """A 2-d grid of pieces of one polynomial, folded with multi_compose."""

    def __init__(self, coeffs, widths, heights):
        self.coeffs = coeffs
        self.widths, self.heights = list(widths), list(heights)
        self.cs, self.ds = offsets(self.widths), offsets(self.heights)
        self.total = (self.cs[-1], self.ds[-1])

    def value(self, t1: float, t2: float) -> float:
        return eval_poly2(self.coeffs, clamp(t1, self.total[0]), clamp(t2, self.total[1]))

    def build(self, prog, oracle):
        cube_from_exprs = prog.expr.cube_from_exprs
        space = prog.core.Euclidean(1)
        grid = [
            [
                cube_from_exprs(2, (w, h), space, [source2(self.coeffs, c, d)])
                for w, c in zip(self.widths, self.cs)
            ]
            for h, d in zip(self.heights, self.ds)
        ]
        return prog.compose.multi_compose(grid, oracle)


# ---------------------------------------------------------------------------
# lawlab: the law table


class Lawlab:
    """run_suite over all laws, then the table and a replay of every witness.

    One op is one law instance (check_instance), so a round has
    laws x INSTANCES ops.
    """

    # Tail cut of op latency (op_tail_ms is the mean beyond it), fixed per
    # workload so that a faster program, which fits more ops into a run, is
    # not judged at a higher percentile.  For chain and cube-io it is the
    # highest that keeps at least ten ops beyond it at the slowest speed seen
    # on a 30 s run.
    # lawlab's p99 would be the 4-d tensor.assoc instances alone, which run
    # in one stretch of about 4 s per round; on a host whose speed changes
    # every few seconds that measures the host (the quartiles of five runs
    # were 44 % apart).  p90 draws on five laws at four places in the round.
    TAIL = 90.0
    INSTANCES = 100

    def setup(self, prog, seed: int, workdir: str) -> dict:
        return {"seed": seed, "reference": load_reference()["lawlab"]}

    def run_round(self, prog, inputs: dict, oracle, clock) -> int:
        lawlab, seed, ref = prog.lawlab, inputs["seed"], inputs["reference"]
        inner = lawlab.check_instance

        def timed_instance(*args, **kwargs):
            with clock.op(suppress=False):
                return inner(*args, **kwargs)

        n_ops = len(ref["verdicts"]) * self.INSTANCES
        done_before = clock.attempted
        lawlab.check_instance = timed_instance
        try:
            report = lawlab.run_suite(n_instances=self.INSTANCES, seed=seed, oracle=oracle)
        except Exception:  # an op failed, and the rest of the suite never ran
            clock.count_failed(n_ops - (clock.attempted - done_before))
            return 0
        finally:
            lawlab.check_instance = inner
        table = prog.cli.format_table(report)
        replays = [
            (o.witness, lawlab.reevaluate_witness(o.law_id, o.witness, seed, oracle))
            for o in report.outcomes
            if o.witness is not None
        ]
        return self.check(report, table, replays, seed, ref)

    @staticmethod
    def check(report, table: str, replays, seed: int, ref: dict) -> int:
        wrong = 0
        verdicts = {o.law_id: o.classification.value for o in report.outcomes}
        wrong += sum(verdicts.get(law) != v for law, v in ref["verdicts"].items())
        wrong += len(set(verdicts) - set(ref["verdicts"]))
        digest = ref["table_sha256"].get(str(seed))
        if digest is not None and sha256(table) != digest:
            wrong += 1
        failing = sum(v == "FAILS" for v in ref["verdicts"].values())
        wrong += abs(failing - len(replays))
        wrong += sum(abs(d - w.distance) > REPLAY_TOL for w, d in replays)
        return wrong


# ---------------------------------------------------------------------------
# chain: deep compositions evaluated point by point


class Chain:
    """Left-nested chains of one to two hundred DSL pieces, built and evaluated.

    One op is one chain built from source and evaluated at POINTS points.
    The round holds 1-d chains folded with compose_strict, 2-d grids folded
    with multi_compose, and one chain of LONG pieces, longer than evaluation
    can recurse through today.  Piece counts are the same for every seed and
    points are spread evenly along each chain (one at a random place in each
    of POINTS equal strata), so every seed asks for the same amount of work.
    """

    TAIL = 90.0
    LENGTHS_1D = tuple(100 + round(100 * k / 23) for k in range(24))
    GRIDS_2D = ((8, 14), (14, 8), (10, 12), (12, 10), (11, 11), (9, 13))
    LONG = 1600
    POINTS = 100

    def setup(self, prog, seed: int, workdir: str) -> list:
        rng = random.Random(f"chain|{seed}")
        specs = [
            Chain1(poly1(rng), [rng.choice(WIDTHS) for _ in range(n)])
            for n in self.LENGTHS_1D + (self.LONG,)
        ]
        specs[-1:-1] = [
            Grid2(
                poly2(rng),
                [rng.choice(WIDTHS[:3]) for _ in range(cols)],
                [rng.choice(WIDTHS[:3]) for _ in range(rows)],
            )
            for cols, rows in self.GRIDS_2D
        ]

        def spread(extent: float) -> list[float]:
            step = (extent + 0.5) / self.POINTS
            return [step * (k + rng.random()) for k in range(self.POINTS)]

        work = []
        for spec in specs:
            if isinstance(spec, Chain1):
                points = [(t,) for t in spread(spec.total)]
                refs = [spec.value(t) for (t,) in points]
                shape = (spec.total,)
            else:
                ts = spread(spec.total[0])
                rng.shuffle(ts)
                points = list(zip(ts, spread(spec.total[1])))
                refs = [spec.value(*p) for p in points]
                shape = spec.total
            work.append((spec, points, refs, shape))
        return work

    def run_round(self, prog, inputs: list, oracle, clock) -> int:
        wrong = 0
        for spec, points, refs, shape in inputs:
            values = None
            with clock.op():
                cube = spec.build(prog, oracle)
                values = [cube.at(p).coords[0] for p in points]
            if values is not None:
                ok = cube.shape.extents == shape and all(map(_close, values, refs))
                wrong += not ok
        return wrong


# ---------------------------------------------------------------------------
# cube-io: the CLI file path


class CubeIO:
    """One op is one in-process ``moorecubes.cli.main`` call on seeded files.

    apply, compose and tensor read and write cube files; sample and svg read
    them.  The inputs include chains from ``chain`` and one file nested
    DEEP levels, deeper than the loader's recursion limit.  The shapes of the
    files rendered as SVG are fixed, so their digests hold for every seed.
    """

    TAIL = 90.0
    CHAIN_PIECES = 150
    DEEP = 3000

    def setup(self, prog, seed: int, workdir: str) -> dict:
        rng = random.Random(f"cube-io|{seed}")
        a = poly1(rng)
        wide = rng.choice(WIDTHS[1:])
        p1a, p1b = Chain1(a, [2.0]), Chain1(a, [wide], start=2.0)
        q2_coeffs = poly2(rng)
        q2_src = source2(q2_coeffs, 0.0, 0.0)
        chain_a = Chain1(poly1(rng), [rng.choice(WIDTHS) for _ in range(self.CHAIN_PIECES)])
        chain_b = Chain1(
            chain_a.coeffs,
            [rng.choice(WIDTHS) for _ in range(self.CHAIN_PIECES)],
            start=chain_a.total,
        )
        chain_s = Chain1(poly1(rng), [0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.5])
        grid = Grid2(poly2(rng), [0.5, 0.75, 0.5, 0.25], [0.5, 0.25, 0.75])
        deep = Chain1(poly1(rng), [rng.choice(WIDTHS) for _ in range(self.DEEP)])

        def path(name: str) -> str:
            return os.path.join(workdir, name)

        core, expr, cubefile = prog.core, prog.expr, prog.cubefile
        e1 = core.Euclidean(1)
        cubefile.save_cube(expr.cube_from_exprs(1, (2.0,), e1, [p1a.sources[0]]), path("p1a.json"))
        cubefile.save_cube(expr.cube_from_exprs(1, (wide,), e1, [p1b.sources[0]]), path("p1b.json"))
        cubefile.save_cube(expr.cube_from_exprs(2, (2.0, 1.5), e1, [q2_src]), path("q2.json"))
        for name, spec in (("chainA", chain_a), ("chainB", chain_b), ("chainS", chain_s)):
            cubefile.save_cube(spec.build(prog, None), path(f"{name}.json"))
        cubefile.save_cube(grid.build(prog, None), path("grid.json"))
        with open(path("deep.json"), "w", encoding="utf-8") as handle:
            handle.write(_chain_file_text(deep))

        q2_node = {
            "kind": "primitive",
            "dim": 2,
            "shape": [2.0, 1.5],
            "target": EUCLIDEAN_1,
            "expr": [q2_src],
        }
        p1a_node, p1b_node = p1a.primitive_node(0), p1b.primitive_node(0)

        def doc(dim, shape, node, target=EUCLIDEAN_1):
            return {"format": "moore-cube/1", "dim": dim, "shape": shape, "target": target, "provenance": node}

        def compose(left, right, lenient=False):
            return {"kind": "compose", "direction": 1, "lenient": lenient, "left": left, "right": right}

        def value_1d(spec):
            return lambda ts: [spec.value(ts[0])]

        def value_tensor(ts):
            return [p1a.value(ts[0]), eval_poly2(q2_coeffs, clamp(ts[1], 2.0), clamp(ts[2], 1.5))]

        product = {"kind": "product", "left": EUCLIDEAN_1, "right": EUCLIDEAN_1}
        joined = Chain1(chain_a.coeffs, chain_a.widths + chain_b.widths)
        h = Chain1(a, [2.0, wide])
        # (argv, check kind, expected document / value function / svg name)
        ops = [
            (["apply", "--in", "chainS.json", "--op", "conn:+:1", "--out", "connS.json"],
             "doc", doc(2, [4.0, 4.0], {"kind": "connection", "i": 1, "sign": "+", "of": chain_s.node()})),
            (["apply", "--in", "q2.json", "--op", "rev:2", "--out", "rev.json"],
             "doc", doc(2, [2.0, 1.5], {"kind": "reverse", "i": 2, "of": q2_node})),
            (["apply", "--in", "p1a.json", "--op", "deg:2", "--out", "deg.json"],
             "doc", doc(2, [2.0, 0.0], {"kind": "degeneracy", "i": 2, "of": p1a_node})),
            (["compose", "--a", "p1a.json", "--b", "p1b.json", "--dir", "1", "--out", "h.json"],
             "doc", doc(1, [2.0 + wide], compose(p1a_node, p1b_node))),
            (["compose", "--a", "p1a.json", "--b", "p1b.json", "--dir", "1", "--lenient", "--out", "hl.json"],
             "doc", doc(1, [2.0 + wide], compose(p1a_node, p1b_node, lenient=True))),
            (["compose", "--a", "chainA.json", "--b", "chainB.json", "--dir", "1", "--out", "chainAB.json"],
             "doc", doc(1, [joined.total], compose(chain_a.node(), chain_b.node()))),
            (["tensor", "--a", "p1a.json", "--b", "q2.json", "--out", "t.json"],
             "doc", doc(3, [2.0, 2.0, 1.5], {"kind": "tensor", "left": p1a_node, "right": q2_node}, product)),
            (["sample", "--in", "h.json", "--grid", "20", "--out", "h.csv"], "csv", value_1d(h)),
            (["sample", "--in", "chainAB.json", "--grid", "40", "--out", "chainAB.csv"], "csv", value_1d(joined)),
            (["sample", "--in", "t.json", "--grid", "4", "--out", "t.csv"], "csv", value_tensor),
            (["sample", "--in", "deep.json", "--grid", "5", "--out", "deep.csv"], "csv", value_1d(deep)),
            (["svg", "--in", "connS.json", "--out", "connS.svg"], "svg", "connS"),
            (["svg", "--in", "grid.json", "--out", "grid.svg"], "svg", "grid"),
            (["svg", "--in", "rev.json", "--out", "rev.svg"], "svg", "rev"),
            (["svg", "--in", "deg.json", "--out", "deg.svg"], "svg", "deg"),
        ]
        for argv, _, _ in ops:
            for k in range(1, len(argv)):
                if argv[k - 1] in ("--in", "--a", "--b", "--out"):
                    argv[k] = path(argv[k])
        return {"ops": ops, "svg": load_reference().get("svg_sha256", {})}

    def run_round(self, prog, inputs: dict, oracle, clock) -> int:
        wrong = 0
        for argv, kind, expected in inputs["ops"]:
            code = None
            with clock.op(), redirect_stderr(StringIO()):
                code = prog.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"exit code {code}")
            if code == 0:
                wrong += not _output_matches(argv[-1], kind, expected, inputs["svg"])
        return wrong


def _output_matches(out: str, kind: str, expected, svg_digests: dict) -> bool:
    with open(out, encoding="utf-8") as handle:
        if kind == "doc":
            return json.load(handle) == expected
        if kind == "svg":
            name = os.path.splitext(os.path.basename(out))[0]
            return sha256(handle.read()) == svg_digests.get(name)
        rows = list(csv.reader(handle))
    width = sum(col.startswith("t") for col in rows[0])
    for row in rows[1:]:
        values = [float(v) for v in row]
        if not all(map(_close, values[width:], expected(values[:width]))):
            return False
    return len(rows) > 1


def _chain_file_text(spec: Chain1) -> str:
    """A moore-cube/1 file for a left-nested chain, written without recursion.

    The nesting is deeper than ``json`` can encode or decode, so the text is
    assembled piece by piece.
    """

    def primitive(k: int) -> str:
        return json.dumps(spec.primitive_node(k), sort_keys=True)

    n = len(spec.widths)
    parts = [
        '{"dim": 1, "format": "moore-cube/1", "provenance": ',
        '{"direction": 1, "kind": "compose", "left": ' * (n - 1),
        primitive(0),
    ]
    for k in range(1, n):
        parts.append(f', "lenient": false, "right": {primitive(k)}}}')
    parts.append(f', "shape": [{spec.total!r}], "target": {json.dumps(EUCLIDEAN_1)}}}\n')
    return "".join(parts)


WORKLOADS = {"lawlab": Lawlab, "chain": Chain, "cube-io": CubeIO}
