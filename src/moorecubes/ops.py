"""Unary structure maps on Moore cubes.

All direction indices are 1-based, matching the usual cubical-operator
notation: face(c, i, sign) evaluates coordinate i at an endpoint,
degeneracy(c, i) inserts an ignored direction at slot i, connection(c, i,
sign) duplicates direction i merging the two copies with max (minus) or
min (plus), and reverse(c, i) runs direction i backwards.
"""
from __future__ import annotations

from enum import Enum

from .core import (
    ConnectionNode,
    DegeneracyNode,
    FaceNode,
    MooreCube,
    ReverseNode,
    Shape,
)
from .errors import BadIndex


class Sign(Enum):
    MINUS = "-"
    PLUS = "+"

    @property
    def opposite(self) -> "Sign":
        return Sign.PLUS if self is Sign.MINUS else Sign.MINUS

    def __str__(self) -> str:
        return self.value


def _check_index(i: int, upper: int, what: str) -> None:
    if not 1 <= i <= upper:
        raise BadIndex(f"{what} index {i} out of range 1..{upper}")


def face(c: MooreCube, i: int, sign: Sign) -> MooreCube:
    """The (n-1)-cube obtained by fixing t_i at 0 (minus) or r_i (plus)."""
    _check_index(i, c.dim, "face")
    k = i - 1
    shape = Shape._of(c.shape.extents[:k] + c.shape.extents[k + 1 :])
    return MooreCube(shape, c.space, FaceNode(c, i, sign.value))


def degeneracy(c: MooreCube, i: int) -> MooreCube:
    """The (n+1)-cube that ignores a new zero-extent direction at slot i."""
    _check_index(i, c.dim + 1, "degeneracy")
    k = i - 1
    shape = Shape._of(c.shape.extents[:k] + (0.0,) + c.shape.extents[k:])
    return MooreCube(shape, c.space, DegeneracyNode(c, i))


def connection(c: MooreCube, i: int, sign: Sign) -> MooreCube:
    """The (n+1)-cube folding directions i and i+1 onto direction i of c.

    The two copies share extent r_i and are merged with max for minus,
    min for plus.
    """
    if c.dim == 0:
        raise BadIndex("connection needs a cube of dimension >= 1")
    _check_index(i, c.dim, "connection")
    k = i - 1
    r = c.shape.extents[k]
    shape = Shape._of(c.shape.extents[:k] + (r, r) + c.shape.extents[k + 1 :])
    return MooreCube(shape, c.space, ConnectionNode(c, i, sign.value))


def reverse(c: MooreCube, i: int) -> MooreCube:
    """The cube traversing direction i backwards: t_i maps to r_i - t_i."""
    _check_index(i, c.dim, "reverse")
    return MooreCube(c.shape, c.space, ReverseNode(c, i))
