"""Pasting cubes end to end in a chosen direction.

Two cubes compose in direction j when the plus-face of the first matches
the minus-face of the second.  The composite has extent r_j + s_j in
direction j; evaluation at the seam t_j = r_j uses the left piece.
compose_strict demands the shared face match as a cube (shape included);
compose_lenient only asks the face actions to agree and stretches every
other extent to the pairwise max, which lets degenerate pieces widen.
"""
from __future__ import annotations

import itertools
from typing import Sequence

from .core import ComposeNode, EqualityOracle, MooreCube, Shape, _extent
from .errors import BadIndex, CompositionUndefined, DimensionMismatch
from .ops import Sign, face

_DEFAULT_ORACLE = EqualityOracle()


def _precheck(a: MooreCube, b: MooreCube, j: int) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"cannot compose dims {a.dim} and {b.dim}")
    if a.space != b.space:
        raise DimensionMismatch(f"cannot compose across spaces {a.space} and {b.space}")
    if not 1 <= j <= a.dim:
        raise BadIndex(f"composition direction {j} out of range 1..{a.dim}")


def _compose(
    a: MooreCube, b: MooreCube, j: int, oracle: EqualityOracle | None, lenient: bool
) -> MooreCube:
    oracle = oracle or _DEFAULT_ORACLE
    _precheck(a, b, j)
    equals = oracle.equals_action if lenient else oracle.equals_strict
    eq = equals(face(a, j, Sign.PLUS), face(b, j, Sign.MINUS))
    if not eq:
        if lenient:
            what = f"face actions in direction {j} differ"
        else:
            what = f"faces in direction {j} differ ({eq.reason})"
        raise CompositionUndefined(
            eq.reason, j, f"{what}: {eq.detail or eq.witness}", witness=eq.witness
        )
    ra, rb = a.shape.extents, b.shape.extents
    extents = list(map(max, ra, rb)) if lenient else list(ra)
    extents[j - 1] = _extent(ra[j - 1] + rb[j - 1])  # the sum may overflow
    return MooreCube(Shape._of(tuple(extents)), a.space, ComposeNode(a, b, j, lenient))


def compose_strict(
    a: MooreCube, b: MooreCube, j: int, oracle: EqualityOracle | None = None
) -> MooreCube:
    """Compose in direction j; the shared face must match shape and all."""
    return _compose(a, b, j, oracle, lenient=False)


def compose_lenient(
    a: MooreCube, b: MooreCube, j: int, oracle: EqualityOracle | None = None
) -> MooreCube:
    """Compose in direction j requiring only the face actions to agree."""
    return _compose(a, b, j, oracle, lenient=True)


_NOT_CUBES = "grid entries must be cubes (is the grid ragged?)"


def _index_grid(grid) -> tuple[tuple[int, ...], dict[tuple[int, ...], object]]:
    """Sizes per nesting level and a {index: entry} dict of a nested grid.

    Lists and tuples are nesting levels; anything else is an entry.
    """
    if not isinstance(grid, (list, tuple)):
        return (), {(): grid}
    rows = [_index_grid(row) for row in grid]
    sizes = rows[0][0] if rows else ()
    if any(row_sizes != sizes for row_sizes, _ in rows):
        raise DimensionMismatch(_NOT_CUBES)
    cells = {(k,) + idx: c for k, (_, row) in enumerate(rows) for idx, c in row.items()}
    return (len(grid),) + sizes, cells


def multi_compose(
    grid, oracle: EqualityOracle | None = None, fold_order: Sequence[int] | None = None
) -> MooreCube:
    """Fold an n-dimensional nested-list grid of n-cubes into one composite.

    The grid reads like a matrix: the innermost lists run along direction 1
    and the outermost along direction n (nesting axis k carries direction
    n - k).  fold_order lists the directions in the order they are
    collapsed (default: highest direction first); by the interchange law
    the result does not depend on it.  A single cube (or [[cube]]-style
    singleton nesting) is returned unchanged.
    """
    oracle = oracle or _DEFAULT_ORACLE
    if isinstance(grid, MooreCube):
        return grid
    sizes, cells = _index_grid(grid)
    cubes = list(cells.values())
    if not cubes:
        raise DimensionMismatch("empty grid")
    if not all(isinstance(c, MooreCube) for c in cubes):
        raise DimensionMismatch(_NOT_CUBES)
    n = cubes[0].dim
    if any(c.dim != n for c in cubes):
        raise DimensionMismatch("grid entries must be cubes of equal dimension")
    if len(sizes) != n:
        raise DimensionMismatch(
            f"grid nesting depth {len(sizes)} does not match cube dimension {n}"
        )

    axis_dirs = list(range(n, 0, -1))  # axis k carries direction n - k
    order = list(fold_order) if fold_order is not None else list(range(n, 0, -1))
    if sorted(order) != list(range(1, n + 1)):
        raise BadIndex(f"fold order {order} is not a permutation of 1..{n}")

    for d in order:
        axis = axis_dirs.index(d)
        rest = sizes[:axis] + sizes[axis + 1 :]
        folded = {}
        for cell in itertools.product(*map(range, rest)):
            acc = cells[cell[:axis] + (0,) + cell[axis:]]
            for idx in range(1, sizes[axis]):
                coord = cell[:axis] + (idx,) + cell[axis:]
                try:
                    acc = compose_strict(acc, cells[coord], d, oracle)
                except CompositionUndefined as exc:
                    raise CompositionUndefined(
                        exc.reason,
                        exc.direction,
                        f"grid cell {coord} along direction {d}: {exc}",
                        witness=exc.witness,
                    ) from None
            folded[cell] = acc
        sizes, cells = rest, folded
        axis_dirs.remove(d)
    return cells[()]
