"""What render_svg draws inside a 2-cube: seams, arrows, elbows and hatches.

With the default scale 80 and padding 36, a point (t1, t2) of a cube of
height r2 is drawn at x = 36 + 80 t1, y = 36 + 80 (r2 - t2).
"""
from __future__ import annotations

import re

import pytest

from moorecubes import (
    Euclidean,
    Product,
    Sign,
    compose_strict,
    connection,
    cube_from_exprs,
    degeneracy,
    reassociate,
    render_svg,
    reverse,
    tensor,
)

E1 = Euclidean(1)
SEAM, CONSTANCY, HATCH = "#b3543c", "#3c7ab3", "#7a7a7a"


def lines(svg: str, color: str, dashed: bool) -> list[tuple[float, ...]]:
    """(x1, y1, x2, y2) of each <line> of stroke color, dashed or not."""
    found = []
    for m in re.finditer(r'<line x1="(\S+)" y1="(\S+)" x2="(\S+)" y2="(\S+)" stroke="(\S+)"[^>]*>', svg):
        if m.group(5) == color and ("stroke-dasharray" in m.group(0)) == dashed:
            found.append(tuple(float(v) for v in m.group(1, 2, 3, 4)))
    return found


def polylines(svg: str) -> list[list[tuple[float, float]]]:
    return [
        [tuple(float(v) for v in pair.split(",")) for pair in m.group(1).split()]
        for m in re.finditer(r'<polyline points="([^"]*)"', svg)
    ]


def path(extent: float, text: str):
    return cube_from_exprs(1, (extent,), E1, [text])


# x -> t1 on [0, 1], then 1 + t1 on [0, 2]: one seam at 1 of a path of length 3
COMPOSED_PATH = compose_strict(path(1.0, "t1"), path(2.0, "1 + t1"), 1)


@pytest.mark.parametrize(
    "i,strokes",
    [
        # direction 1: from 0.8 w to 0.2 w at mid-height, the head at 0.2 w
        (1, [(164, 76, 68, 76), (68, 76, 74, 72), (68, 76, 74, 80)]),
        # direction 2: from 0.2 h up to 0.8 h at mid-width, the head at 0.8 h
        (2, [(116, 100, 116, 52), (116, 52, 112, 58), (116, 52, 120, 58)]),
    ],
)
def test_a_reverse_draws_an_arrow_backwards_along_its_direction(i, strokes):
    square = cube_from_exprs(2, (2.0, 1.0), E1, ["t1*t2"])
    svg = render_svg(reverse(square, i))
    assert lines(svg, SEAM, dashed=False) == strokes
    assert lines(svg, SEAM, dashed=True) == []


def test_a_direction_2_composite_draws_a_horizontal_seam():
    low = cube_from_exprs(2, (2.0, 1.0), E1, ["t1"])
    high = cube_from_exprs(2, (2.0, 0.5), E1, ["t1"])
    svg = render_svg(compose_strict(low, high, 2))  # shape (2, 1.5), seam at t2 = 1
    assert lines(svg, SEAM, dashed=True) == [(36, 76, 196, 76)]


@pytest.mark.parametrize(
    "sign,elbows",
    [
        # constant where min(t1, t2) = c: cornered on the diagonal, opening away from 0
        (Sign.PLUS, [[(96, 36), (96, 216), (276, 216)], [(156, 36), (156, 156), (276, 156)], [(216, 36), (216, 96), (276, 96)]]),
        # constant where max(t1, t2) = c: opening toward 0
        (Sign.MINUS, [[(36, 216), (96, 216), (96, 276)], [(36, 156), (156, 156), (156, 276)], [(36, 96), (216, 96), (216, 276)]]),
    ],
)
def test_a_connection_of_a_composed_path_draws_its_seam_both_ways(sign, elbows):
    svg = render_svg(connection(COMPOSED_PATH, 1, sign))  # a 3 x 3 square
    # the path's seam at 1, across direction 1 and across direction 2
    assert lines(svg, SEAM, dashed=True) == [(116, 276, 116, 36), (36, 196, 276, 196)]
    assert lines(svg, CONSTANCY, dashed=False) == [(36, 276, 276, 36)]  # the diagonal
    assert polylines(svg) == elbows


def test_a_degeneracy_in_direction_1_hatches_the_vertical_edge():
    svg = render_svg(degeneracy(path(2.0, "1 + t1"), 1))  # shape (0, 2)
    ys = [36 + 80 * (2 - 2 * n / 6) for n in range(7)]
    drawn = lines(svg, HATCH, dashed=False)
    assert [x for _, _, x, _ in drawn] == [40] * 7 and [x for x, _, _, _ in drawn] == [32] * 7
    assert [y1 for _, y1, _, _ in drawn] == pytest.approx([y + 4 for y in ys], abs=1e-3)
    assert [y2 for _, _, _, y2 in drawn] == pytest.approx([y - 4 for y in ys], abs=1e-3)


def test_a_reassociated_tensor_renders_as_the_tensor():
    pair = tensor(COMPOSED_PATH, path(2.0, "t1^2"))
    assert render_svg(reassociate(pair, Product(E1, E1))) == render_svg(pair)


# two seams: at 3 (the outer cut), then at 1 (the cut inside the left piece)
LONGER_PATH = compose_strict(COMPOSED_PATH, path(1.0, "3 + t1"), 1)
PLAIN_PATH = path(2.0, "t1^2")


@pytest.mark.parametrize(
    "left,right,seams",
    [
        # shape (3, 2): the seam at t1 = 1 runs up the full height
        (COMPOSED_PATH, PLAIN_PATH, [(116, 196, 116, 36)]),
        # shape (2, 3): the seam at t2 = 1 runs across the full width
        (PLAIN_PATH, COMPOSED_PATH, [(36, 196, 196, 196)]),
        # shape (2, 4): seams at t2 = 3, then at t2 = 1
        (PLAIN_PATH, LONGER_PATH, [(36, 116, 196, 116), (36, 276, 196, 276)]),
        # shape (3, 3): each factor's seam, direction 1 first
        (COMPOSED_PATH, COMPOSED_PATH, [(116, 276, 116, 36), (36, 196, 276, 196)]),
        (PLAIN_PATH, PLAIN_PATH, []),
    ],
)
def test_a_tensor_of_two_paths_draws_each_paths_seams(left, right, seams):
    svg = render_svg(tensor(left, right))
    assert lines(svg, SEAM, dashed=True) == seams
    assert lines(svg, SEAM, dashed=False) == []


def test_a_tensor_of_a_point_and_a_2_cube_draws_the_2_cubes_seams():
    low = cube_from_exprs(2, (2.0, 1.0), E1, ["t1"])
    high = cube_from_exprs(2, (2.0, 0.5), E1, ["t1"])
    square = compose_strict(low, high, 2)  # shape (2, 1.5), seam at t2 = 1
    point = cube_from_exprs(0, (), E1, ["7"])
    for cube in (tensor(point, square), tensor(square, point)):
        assert lines(render_svg(cube), SEAM, dashed=True) == [(36, 76, 196, 76)]


@pytest.mark.parametrize(
    "i,source,ticks",
    [
        # shape (0, 3): the path runs up the edge x = 36; its seam at t2 = 1
        # is a tick across the edge, as long as a hatch (4 px either side)
        (1, COMPOSED_PATH, [(32, 196, 40, 196)]),
        # shape (3, 0): the edge is drawn at mid-height of the 2 px box, y = 37
        (2, COMPOSED_PATH, [(116, 41, 116, 33)]),
        # seams at 3, then at 1, of a path of length 4
        (1, LONGER_PATH, [(32, 116, 40, 116), (32, 276, 40, 276)]),
        (2, LONGER_PATH, [(276, 41, 276, 33), (116, 41, 116, 33)]),
        (1, PLAIN_PATH, []),
    ],
)
def test_a_degeneracy_of_a_composed_path_marks_its_seams_on_the_edge(i, source, ticks):
    svg = render_svg(degeneracy(source, i))
    assert lines(svg, SEAM, dashed=True) == ticks
    assert len(lines(svg, HATCH, dashed=False)) == 7  # the hatches are still drawn
