"""Command-line interface.

Commands: apply, compose, tensor, sample, check-laws, svg.
Exit codes: 0 on success, 2 on usage or validation problems, 3 when a
requested composition is undefined.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Sequence

from .compose import compose_lenient, compose_strict
from .core import EqualityOracle, MooreCube
from .cubefile import dump_cube, load_cube, save_cube
from .errors import CompositionUndefined, CubeFileError, MooreError
from .lawlab import LAW_IDS, LawReport, run_suite
from .ops import Sign, connection, degeneracy, face, reverse
from .svg import render_svg, save_svg
from .tensor import tensor


def _fmt_value(v: float) -> str:
    return f"{v:.17g}"


def _fmt_short(v: float) -> str:
    return f"{v:g}"


def _fmt_point(coords: Sequence[float]) -> str:
    if len(coords) == 1:
        return _fmt_short(coords[0])
    return "(" + ", ".join(_fmt_short(c) for c in coords) + ")"


def _parse_op(spec: str):
    """Turn face:+:1 / deg:2 / conn:-:1 / rev:1 into a cube transformer."""
    parts = spec.split(":")
    name = parts[0]
    try:
        if name == "face" and len(parts) == 3:
            sign, i = Sign(parts[1]), int(parts[2])
            return lambda c: face(c, i, sign)
        if name == "conn" and len(parts) == 3:
            sign, i = Sign(parts[1]), int(parts[2])
            return lambda c: connection(c, i, sign)
        if name == "deg" and len(parts) == 2:
            i = int(parts[1])
            return lambda c: degeneracy(c, i)
        if name == "rev" and len(parts) == 2:
            i = int(parts[1])
            return lambda c: reverse(c, i)
    except ValueError:
        pass
    raise CubeFileError(
        f"bad op spec {spec!r}: expected face:+|-:i, conn:+|-:i, deg:i, or rev:i"
    )


def _emit_cube(cube: MooreCube, out: str | None) -> None:
    """Write the cube file to --out, or the JSON document to stdout."""
    if out:
        save_cube(cube, out)
        print(
            f"wrote {out}: dim {cube.dim}, shape {_fmt_point(cube.shape.extents)}",
            file=sys.stderr,
        )
    else:
        dump_cube(cube, sys.stdout)


def _cmd_apply(args) -> int:
    cube = load_cube(args.infile)
    for spec in args.op:
        cube = _parse_op(spec)(cube)
    _emit_cube(cube, args.out)
    return 0


def _cmd_compose(args) -> int:
    a = load_cube(args.a)
    b = load_cube(args.b)
    combine = compose_lenient if args.lenient else compose_strict
    cube = combine(a, b, args.dir)
    _emit_cube(cube, args.out)
    return 0


def _cmd_tensor(args) -> int:
    cube = tensor(load_cube(args.a), load_cube(args.b))
    _emit_cube(cube, args.out)
    return 0


def _cmd_sample(args) -> int:
    cube = load_cube(args.infile)
    oracle = EqualityOracle(samples_per_axis=args.grid)
    header = [f"t{i}" for i in range(1, cube.dim + 1)] + [
        f"x{i}" for i in range(1, cube.space.total_dim + 1)
    ]
    handle = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(header)
        for point in oracle.grid(cube.shape):
            value = cube.at(point)
            writer.writerow(
                [_fmt_value(t) for t in point] + [_fmt_value(x) for x in value.coords]
            )
    finally:
        if args.out:
            handle.close()
    if args.out:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _report_json(report: LawReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"


def format_table(report: LawReport) -> str:
    lines = [
        f"{'law':<14} {'classification':<28} {'strict':>6} {'action':>6} "
        f"{'failed':>6} {'nc':>4}  detail"
    ]
    for o in report.outcomes:
        detail = ""
        if o.witness is not None:
            w = o.witness
            detail = (
                f"witness {_fmt_point(w.point)} values {_fmt_point(w.left)}"
                f" vs {_fmt_point(w.right)}"
            )
        elif o.note:
            detail = o.note
        lines.append(
            f"{o.law_id:<14} {o.classification.value:<28} {o.count_strict:>6} "
            f"{o.count_action_only:>6} {o.count_failed:>6} "
            f"{o.count_not_constructible:>4}  {detail}".rstrip()
        )
    return "\n".join(lines)


def _cmd_check_laws(args) -> int:
    oracle = EqualityOracle(
        samples_per_axis=args.grid, tol_val=args.tol, tol_shape=args.tol
    )
    report = run_suite(
        law_ids=args.laws, n_instances=args.instances, seed=args.seed, oracle=oracle
    )
    print(format_table(report))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(_report_json(report))
        print(f"wrote {args.report}", file=sys.stderr)
    return 0


def _cmd_svg(args) -> int:
    cube = load_cube(args.infile)
    if args.out:
        save_svg(cube, args.out, scale=args.scale)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(render_svg(cube, scale=args.scale))
    return 0


def _grid_size(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2")
    return value


def _instance_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("instances must be at least 1")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("tol must be finite and >= 0")
    return value


def _scale(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError("scale must be finite and > 0")
    return value


def _law_list(text: str) -> list[str]:
    laws = [law.strip() for law in text.split(",") if law.strip()]
    if not laws:
        raise argparse.ArgumentTypeError("laws must name at least one law")
    for i, law in enumerate(laws):
        if law in laws[:i]:
            raise argparse.ArgumentTypeError(f"law {law} is named more than once")
    return laws


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moorecubes",
        description="Moore hyperrectangles: structure maps, composition, and the law lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_apply = sub.add_parser("apply", help="apply face/deg/conn/rev operators to a cube file")
    p_apply.add_argument("--in", dest="infile", required=True, help="input cube JSON")
    p_apply.add_argument(
        "--op",
        action="append",
        required=True,
        help="operator spec (face:+|-:i, conn:+|-:i, deg:i, rev:i); repeatable, applied in order",
    )
    p_apply.add_argument("--out", help="output cube JSON (default: stdout)")
    p_apply.set_defaults(func=_cmd_apply)

    p_compose = sub.add_parser("compose", help="compose two cube files in a direction")
    p_compose.add_argument("--a", required=True, help="left cube JSON")
    p_compose.add_argument("--b", required=True, help="right cube JSON")
    p_compose.add_argument("--dir", type=int, required=True, help="composition direction (1-based)")
    p_compose.add_argument(
        "--lenient",
        action="store_true",
        help="require only face actions to agree; non-direction extents take the max",
    )
    p_compose.add_argument("--out", help="output cube JSON (default: stdout)")
    p_compose.set_defaults(func=_cmd_compose)

    p_tensor = sub.add_parser("tensor", help="tensor two cube files")
    p_tensor.add_argument("--a", required=True)
    p_tensor.add_argument("--b", required=True)
    p_tensor.add_argument("--out", help="output cube JSON (default: stdout)")
    p_tensor.set_defaults(func=_cmd_tensor)

    p_sample = sub.add_parser("sample", help="sample a cube on the oracle grid as CSV")
    p_sample.add_argument("--in", dest="infile", required=True)
    p_sample.add_argument(
        "--grid", type=_grid_size, default=5, help="samples per axis (default 5)"
    )
    p_sample.add_argument("--out", help="output CSV (default: stdout)")
    p_sample.set_defaults(func=_cmd_sample)

    p_check = sub.add_parser("check-laws", help="run the law suite and print the table")
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--instances", type=_instance_count, default=100)
    p_check.add_argument(
        "--grid", type=_grid_size, default=5, help="oracle samples per axis (default 5)"
    )
    p_check.add_argument("--tol", type=_tolerance, default=1e-9)
    p_check.add_argument(
        "--laws",
        type=_law_list,
        help=f"comma-separated law ids (default: all; known: {', '.join(LAW_IDS)})",
    )
    p_check.add_argument("--report", help="write the full report JSON here")
    p_check.set_defaults(func=_cmd_check_laws)

    p_svg = sub.add_parser("svg", help="render a 2-cube file as SVG")
    p_svg.add_argument("--in", dest="infile", required=True)
    p_svg.add_argument("--out", help="output SVG (default: stdout)")
    p_svg.add_argument("--scale", type=_scale, default=80.0, help="pixels per unit extent")
    p_svg.set_defaults(func=_cmd_svg)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except CompositionUndefined as exc:
        message = f"composition undefined: {exc}"
        if exc.witness is not None:
            w = exc.witness
            message += (
                f" [witness at {_fmt_point(w.point)}: {_fmt_point(w.left.coords)}"
                f" vs {_fmt_point(w.right.coords)}, distance {_fmt_short(w.distance)}]"
            )
        print(message, file=sys.stderr)
        return 3
    except (MooreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
