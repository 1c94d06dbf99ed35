"""SVG rendering of 2-cubes.

The shape rectangle [0, r1] x [0, r2] is drawn to scale with direction 1
rightwards and direction 2 upwards.  Construction history adds cues:

* composition seams appear as dashed interior lines at the cut extents,
  recursively through the whole compose tree;
* a connection of a path draws its lines of constancy: the diagonal plus
  elbow polylines (cornered on the diagonal, opening toward the origin
  for the max variant and away from it for the min variant), and any
  seams of the composed source path appear in both directions;
* a tensor of two paths draws each path's seams across the other's
  direction, and a tensor of a point and a 2-cube draws the 2-cube's cues;
* a degeneracy of a path hatches the degenerate edge and marks the seams
  of the composed path on it with dashed ticks as long as the hatches;
* a reversed cube gets an arrow pointing backwards along its direction.
"""
from __future__ import annotations

import math

from .core import (
    ComposeNode,
    ConnectionNode,
    DegeneracyNode,
    MooreCube,
    ReassociateNode,
    ReverseNode,
    TensorNode,
)
from .cubefile import open_output
from .errors import DimensionMismatch, MooreError
from .ops import Sign

_OUTLINE = "#1f3a5f"
_FILL = "#eef3fa"
_SEAM = "#b3543c"
_CONSTANCY = "#3c7ab3"
_HATCH = "#7a7a7a"
_PADDING = 36.0


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _line(x1: float, y1: float, x2: float, y2: float, color: str, *, dash: str | None = None, width: float = 1.5) -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
        f'stroke="{color}" stroke-width="{_fmt(width)}"{dash_attr} />'
    )


def _polyline(points: list[tuple[float, float]], color: str, *, dash: str | None = None) -> str:
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"{dash_attr} />'


def _compose_cuts(cube: MooreCube) -> list[float]:
    """Cut positions of a 1-cube's compose tree, in its own coordinates.

    Each cut comes before the cuts of its left piece, and those before the
    cuts of its right piece.
    """
    out: list[float] = []

    def walk(c: MooreCube, offset: float) -> None:
        node = c.provenance
        if isinstance(node, ComposeNode):
            cut = offset + node.left.shape.extents[node.direction - 1]
            out.append(cut)
            walk(node.left, offset)
            walk(node.right, cut)

    walk(cube, 0.0)
    return out


def render_svg(cube: MooreCube, *, scale: float = 80.0) -> str:
    """Render a 2-cube as a standalone SVG document string.

    MooreError if the scaled drawing's size overflows to a number that is
    not finite.
    """
    if cube.dim != 2:
        raise DimensionMismatch(f"SVG rendering needs a 2-cube, got dimension {cube.dim}")
    r1, r2 = cube.shape.extents
    box_w = max(r1 * scale, 2.0)
    box_h = max(r2 * scale, 2.0)
    width = 2 * _PADDING + box_w
    height = 2 * _PADDING + box_h + 18
    if not (math.isfinite(width) and math.isfinite(height)):
        raise MooreError(
            f"scale {scale!r} makes the drawing of shape ({_fmt(r1)}, {_fmt(r2)}) infinitely large"
        )

    def px(t1: float) -> float:
        return _PADDING + t1 * scale

    def py(t2: float) -> float:
        return _PADDING + (r2 - t2) * scale if r2 > 0 else _PADDING + box_h * 0.5

    body: list[str] = []

    def elbows(o1: float, o2: float, side: float, sign: str) -> None:
        body.append(
            _line(px(o1), py(o2), px(o1 + side), py(o2 + side), _CONSTANCY, width=1.0)
        )
        for frac in (0.25, 0.5, 0.75):
            c = side * frac
            if sign == Sign.MINUS.value:  # constant where max(t1,t2) = c
                pts = [(o1, o2 + c), (o1 + c, o2 + c), (o1 + c, o2)]
            else:  # constant where min(t1,t2) = c
                pts = [(o1 + c, o2 + side), (o1 + c, o2 + c), (o1 + side, o2 + c)]
            body.append(
                _polyline([(px(a), py(b)) for a, b in pts], _CONSTANCY, dash="4 3")
            )

    def hatch_edge(o1: float, o2: float, direction: int, length: float) -> None:
        steps = 6
        for n in range(steps + 1):
            f = length * (n / steps)  # not length * n, which can overflow
            if direction == 1:  # extent 0 along direction 1: a vertical edge
                x, y = px(o1), py(o2 + f)
            else:
                x, y = px(o1 + f), py(o2)
            body.append(_line(x - 4, y + 4, x + 4, y - 4, _HATCH, width=1.0))

    def arrow(o1: float, o2: float, w: float, h: float, direction: int) -> None:
        if direction == 1:
            x1, x2 = px(o1 + 0.8 * w), px(o1 + 0.2 * w)
            y = py(o2 + 0.5 * h)
            body.append(_line(x1, y, x2, y, _SEAM, width=1.8))
            body.append(_line(x2, y, x2 + 6, y - 4, _SEAM, width=1.8))
            body.append(_line(x2, y, x2 + 6, y + 4, _SEAM, width=1.8))
        else:
            y1, y2 = py(o2 + 0.2 * h), py(o2 + 0.8 * h)
            x = px(o1 + 0.5 * w)
            body.append(_line(x, y1, x, y2, _SEAM, width=1.8))
            body.append(_line(x, y2, x - 4, y2 + 6, _SEAM, width=1.8))
            body.append(_line(x, y2, x + 4, y2 + 6, _SEAM, width=1.8))

    def seams(o1: float, o2: float, w: float, h: float, direction: int, cuts: list[float]) -> None:
        """Dashed lines across the box at (o1, o2) of extents (w, h) at each cut along direction."""
        for cut in cuts:
            if direction == 1:
                body.append(_line(px(o1 + cut), py(o2), px(o1 + cut), py(o2 + h), _SEAM, dash="6 4"))
            else:
                body.append(_line(px(o1), py(o2 + cut), px(o1 + w), py(o2 + cut), _SEAM, dash="6 4"))

    def walk(c: MooreCube, o1: float, o2: float) -> None:
        node = c.provenance
        w, h = c.shape.extents
        if isinstance(node, ComposeNode):
            cut = node.left.shape.extents[node.direction - 1]
            seams(o1, o2, w, h, node.direction, [cut])
            walk(node.left, o1, o2)
            if node.direction == 1:
                walk(node.right, o1 + cut, o2)
            else:
                walk(node.right, o1, o2 + cut)
        elif isinstance(node, ConnectionNode) and node.source.dim == 1:
            cuts = _compose_cuts(node.source)
            for cut in cuts:  # each seam across direction 1, then across direction 2
                seams(o1, o2, w, h, 1, [cut])
                seams(o1, o2, w, h, 2, [cut])
            elbows(o1, o2, w, node.sign)
        elif isinstance(node, TensorNode):
            if node.left.dim == 1:  # two paths: the left one runs along direction 1
                seams(o1, o2, w, h, 1, _compose_cuts(node.left))
                seams(o1, o2, w, h, 2, _compose_cuts(node.right))
            else:  # a point and a 2-cube, which has the tensor's box
                walk(node.left if node.left.dim else node.right, o1, o2)
        elif isinstance(node, DegeneracyNode) and node.source.dim == 1:
            cuts = _compose_cuts(node.source)
            if node.i == 1:  # extent 0 along direction 1: the path runs up a vertical edge
                hatch_edge(o1, o2, 1, h)
                for cut in cuts:
                    y = py(o2 + cut)
                    body.append(_line(px(o1) - 4, y, px(o1) + 4, y, _SEAM, dash="6 4"))
            else:
                hatch_edge(o1, o2, 2, w)
                for cut in cuts:
                    x = px(o1 + cut)
                    body.append(_line(x, py(o2) + 4, x, py(o2) - 4, _SEAM, dash="6 4"))
        elif isinstance(node, ReverseNode):
            arrow(o1, o2, w, h, node.i)
        elif isinstance(node, ReassociateNode):
            walk(node.source, o1, o2)
        # primitives and the other structure maps draw nothing inside

    walk(cube, 0.0, 0.0)

    caption = f"shape ({_fmt(r1)}, {_fmt(r2)})"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f"<title>2-cube, {caption}</title>",
        f'<rect x="{_fmt(px(0.0))}" y="{_fmt(py(r2))}" width="{_fmt(box_w)}" '
        f'height="{_fmt(box_h)}" fill="{_FILL}" stroke="{_OUTLINE}" stroke-width="2" />',
        *body,
        f'<text x="{_fmt(_PADDING)}" y="{_fmt(height - 8)}" '
        f'font-family="monospace" font-size="12" fill="{_OUTLINE}">{caption}</text>',
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def save_svg(cube: MooreCube, path: str, *, scale: float = 80.0) -> None:
    text = render_svg(cube, scale=scale)  # before opening, so a refused drawing leaves no file
    with open_output(path) as handle:
        handle.write(text)
