"""Random cubes and exactly-composable configurations for the law lab.

All generation is driven by a caller-supplied random.Random, so a fixed
seed reproduces the same cubes bit for bit.  Composable pairs are built
so the shared face matches exactly (not merely within tolerance): the
right-hand cube is corrected by a term that cancels at the seam.
"""
from __future__ import annotations

import random
from typing import Sequence

from .core import Euclidean, MooreCube, Shape, Space, make_cube
from .errors import BadIndex
from .expr import cube_from_exprs
from .ops import Sign, face

P_ZERO = 0.1  # chance that a random extent is zero, where zero extents are allowed
P_TRIG = 0.25  # chance that a random coordinate expression is wrapped in sin


def _poly_source(rng: random.Random, dim: int, trig: bool) -> str:
    """A degree <= 2 polynomial in t1..tdim with small integer coefficients."""
    terms: list[str] = []
    constant = rng.randint(-3, 3)
    if constant:
        terms.append(str(constant))
    for i in range(1, dim + 1):
        linear = rng.randint(-3, 3)
        if linear:
            terms.append(f"{linear}*t{i}")
        square = rng.randint(-2, 2)
        if square:
            terms.append(f"{square}*t{i}^2")
    if dim >= 2 and rng.random() < 0.4:
        i, j = rng.sample(range(1, dim + 1), 2)
        terms.append(f"{rng.choice([-1, 1])}*t{i}*t{j}")
    if not terms:
        terms.append(str(rng.randint(1, 3)))
    source = " + ".join(terms)
    if trig:
        return f"sin({source})"
    return source


def gen_cube(
    rng: random.Random,
    dim: int,
    *,
    space: Space | None = None,
    shape: Shape | Sequence[float] | None = None,
    allow_zero: bool = True,
) -> MooreCube:
    """A random cube: random extents and polynomial (or sine-wrapped) action."""
    if space is None:
        space = Euclidean(rng.randint(1, 2))
    if shape is None:
        extents = tuple(
            0.0 if allow_zero and rng.random() < P_ZERO else rng.uniform(0.5, 3.0)
            for _ in range(dim)
        )
        shape = Shape(extents)
    exprs = [
        _poly_source(rng, dim, trig=rng.random() < P_TRIG)
        for _ in range(space.total_dim)
    ]
    return cube_from_exprs(dim, shape, space, exprs)


def extend_chain(
    rng: random.Random,
    prev: MooreCube,
    j: int,
    *,
    allow_zero: bool = False,
) -> MooreCube:
    """A random cube whose lower j-face equals prev's upper j-face exactly.

    The result b is g(t) - g(t with t_j := 0) + (upper j-face of prev), for a
    random g: the two g terms cancel exactly at t_j = 0, leaving the face.
    """
    dim = prev.dim
    if not 1 <= j <= dim:
        raise BadIndex(f"direction {j} out of range for dimension {dim}")
    extents = list(prev.shape.extents)
    extents[j - 1] = (
        0.0 if allow_zero and rng.random() < P_ZERO else rng.uniform(0.5, 3.0)
    )
    shape = Shape(tuple(extents))
    g = gen_cube(rng, dim, space=prev.space, shape=shape)
    upper = face(prev, j, Sign.PLUS)
    k = j - 1

    def evaluator(ts: tuple[float, ...]) -> tuple[float, ...]:
        zeroed = ts[:k] + (0.0,) + ts[k + 1 :]
        g_here = g.at(ts).coords
        g_base = g.at(zeroed).coords
        seam = upper.at(ts[:k] + ts[k + 1 :]).coords
        return tuple(x - y + z for x, y, z in zip(g_here, g_base, seam))

    return make_cube(dim, shape, prev.space, evaluator)


def gen_composable_pair(
    rng: random.Random,
    dim: int,
    j: int,
    *,
    space: Space | None = None,
    allow_zero: bool = False,
) -> tuple[MooreCube, MooreCube]:
    """Two cubes a, b with the upper j-face of a equal to the lower j-face of b."""
    a = gen_cube(rng, dim, space=space, allow_zero=allow_zero)
    b = extend_chain(rng, a, j, allow_zero=allow_zero)
    return a, b


def subdivide(c: MooreCube, j: int, cut: float) -> tuple[MooreCube, MooreCube]:
    """Split c across direction j at cut into restriction pieces.

    Composing the pieces back in direction j recovers c (shape exactly,
    values up to roundoff in the coordinate shift).
    """
    if not 1 <= j <= c.dim:
        raise BadIndex(f"direction {j} out of range for dimension {c.dim}")
    r = c.shape.extents[j - 1]
    if not 0.0 <= cut <= r:
        raise BadIndex(f"cut {cut} outside [0, {r}]")
    k = j - 1

    left_extents = list(c.shape.extents)
    left_extents[k] = cut
    right_extents = list(c.shape.extents)
    right_extents[k] = r - cut

    def left_eval(ts: tuple[float, ...]) -> tuple[float, ...]:
        return c.at(ts).coords

    def right_eval(ts: tuple[float, ...]) -> tuple[float, ...]:
        shifted = ts[:k] + (ts[k] + cut,) + ts[k + 1 :]
        return c.at(shifted).coords

    left = make_cube(c.dim, Shape(tuple(left_extents)), c.space, left_eval)
    right = make_cube(c.dim, Shape(tuple(right_extents)), c.space, right_eval)
    return left, right


def quadrants(
    c: MooreCube, cut1: float, cut2: float
) -> tuple[tuple[MooreCube, MooreCube], tuple[MooreCube, MooreCube]]:
    """Split a 2-cube at cut1 (direction 1) and cut2 (direction 2).

    Returns ((A, B), (C, D)) as a 2x2 grid indexed [direction-1][direction-2]:
    A = low/low, B = low/high, C = high/low, D = high/high.
    """
    if c.dim != 2:
        raise BadIndex(f"quadrants requires a 2-cube, got dimension {c.dim}")
    low1, high1 = subdivide(c, 1, cut1)
    a, b = subdivide(low1, 2, cut2)
    d_low, d_high = subdivide(high1, 2, cut2)
    return (a, b), (d_low, d_high)
