"""Random cubes and exactly-composable configurations for the law lab.

All generation is driven by a caller-supplied random.Random, so a fixed
seed reproduces the same cubes bit for bit.  Composable pairs are built
so the shared face matches exactly (not merely within tolerance): the
right-hand cube is corrected by a term that cancels at the seam.
"""
from __future__ import annotations

import random
from typing import Sequence

from .core import Euclidean, MooreCube, Primitive, Shape, Space
from .errors import BadIndex
from .expr import Bin, Call, Expr, Num, Unary, Var, _dsl_cube, cube_from_exprs, parse_expr, substitute

P_ZERO = 0.1  # chance that a random extent is zero, where zero extents are allowed
P_TRIG = 0.25  # chance that a random coordinate expression is wrapped in sin


def _num(value: int) -> Expr:
    """The tree parse_expr gives str(value)."""
    return Num(float(value)) if value >= 0 else Unary("-", Num(float(-value)))


def _poly(rng: random.Random, dim: int, trig: bool) -> tuple[str, Expr]:
    """A degree <= 2 polynomial in t1..tdim with small integer coefficients.

    Returns its text and the tree parse_expr gives it.
    """
    terms: list[tuple[str, Expr]] = []
    constant = rng.randint(-3, 3)
    if constant:
        terms.append((str(constant), _num(constant)))
    for i in range(1, dim + 1):
        linear = rng.randint(-3, 3)
        if linear:
            terms.append((f"{linear}*t{i}", Bin("*", _num(linear), Var(i))))
        square = rng.randint(-2, 2)
        if square:
            terms.append((f"{square}*t{i}^2", Bin("*", _num(square), Bin("^", Var(i), Num(2.0)))))
    if dim >= 2 and rng.random() < 0.4:
        i, j = rng.sample(range(1, dim + 1), 2)
        sign = rng.choice([-1, 1])
        terms.append((f"{sign}*t{i}*t{j}", Bin("*", Bin("*", _num(sign), Var(i)), Var(j))))
    if not terms:
        value = rng.randint(1, 3)
        terms.append((str(value), _num(value)))
    source, tree = terms[0]
    for text, term in terms[1:]:
        source, tree = f"{source} + {text}", Bin("+", tree, term)
    if trig:
        return f"sin({source})", Call("sin", (tree,))
    return source, tree


def _polys(rng: random.Random, dim: int, count: int) -> list[tuple[str, Expr]]:
    return [_poly(rng, dim, trig=rng.random() < P_TRIG) for _ in range(count)]


def _check_direction(j: int, dim: int) -> None:
    """j, a direction of a cube of dimension dim, is an int in 1..dim (BadIndex otherwise)."""
    if not isinstance(j, int) or isinstance(j, bool):
        raise BadIndex(f"direction must be an int, got {j!r}")
    if not 1 <= j <= dim:
        raise BadIndex(f"direction {j} out of range for dimension {dim}")


def _trees(c: MooreCube) -> Sequence[Expr]:
    """The parsed expressions of a DSL primitive c; TypeError for any other cube.

    They are the trees c keeps (Primitive.trees), or else its texts parsed.
    """
    node = c.provenance
    if not isinstance(node, Primitive) or node.exprs is None:
        raise TypeError("the cube must be a primitive built from DSL expressions")
    return node.trees if node.trees is not None else [parse_expr(e) for e in node.exprs]


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
    return _dsl_cube(dim, shape, space, _polys(rng, dim, space.total_dim))


def extend_chain(
    rng: random.Random,
    prev: MooreCube,
    j: int,
    *,
    allow_zero: bool = False,
) -> MooreCube:
    """A random cube whose lower j-face equals prev's upper j-face exactly.

    prev must be a DSL primitive (TypeError otherwise).  The result b is the
    DSL primitive g - g[t_j := 0] + prev[t_j := r_j], for a random
    polynomial g: the two g terms cancel exactly at t_j = 0, leaving the face.
    """
    trees = _trees(prev)
    dim = prev.dim
    _check_direction(j, dim)
    seams = [substitute(p, j, Num(prev.shape[j - 1])) for p in trees]
    extents = list(prev.shape.extents)
    extents[j - 1] = (
        0.0 if allow_zero and rng.random() < P_ZERO else rng.uniform(0.5, 3.0)
    )
    gs = [tree for _, tree in _polys(rng, dim, prev.space.total_dim)]
    exprs = [Bin("+", Bin("-", g, substitute(g, j, Num(0.0))), seam) for g, seam in zip(gs, seams)]
    return cube_from_exprs(dim, extents, prev.space, exprs)


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
    return a, extend_chain(rng, a, j, allow_zero=allow_zero)


def subdivide(c: MooreCube, j: int, cut: float) -> tuple[MooreCube, MooreCube]:
    """Split a DSL primitive c (TypeError otherwise) at cut in direction j.

    Both pieces are DSL primitives.  The left one is c's own leaf on the
    smaller box, since c.at clamps t_j to cut <= r_j there.  The right one reads c at
    min(t_j + cut, r_j): the min is the clamp of c.at, since (r_j - cut) + cut
    can round past r_j.  Composing the pieces back in direction j recovers
    c's shape exactly, and past the cut it reads c at (t_j - cut) + cut.
    """
    trees = _trees(c)
    _check_direction(j, c.dim)
    if not isinstance(cut, (int, float)) or isinstance(cut, bool):
        raise BadIndex(f"cut must be a number, got {cut!r}")
    r = c.shape.extents[j - 1]
    if not 0.0 <= cut <= r:
        raise BadIndex(f"cut {cut} outside [0, {r}]")
    shifted = Call("min", (Bin("+", Var(j), Num(float(cut))), Num(r)))
    left_extents = list(c.shape.extents)
    left_extents[j - 1] = cut
    right_extents = list(c.shape.extents)
    right_extents[j - 1] = r - cut
    left = MooreCube(Shape(left_extents), c.space, c.provenance)
    right = [substitute(e, j, shifted) for e in trees]
    return left, cube_from_exprs(c.dim, right_extents, c.space, right)


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
    return subdivide(low1, 2, cut2), subdivide(high1, 2, cut2)
