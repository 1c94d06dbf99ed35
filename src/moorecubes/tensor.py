"""Tensor product of cubes over the product of their target spaces."""
from __future__ import annotations

from .core import MooreCube, Product, ReassociateNode, Shape, Space, TensorNode
from .errors import DimensionMismatch


def tensor(a: MooreCube, b: MooreCube) -> MooreCube:
    """The (m+n)-cube running a on the first m directions and b on the rest."""
    shape = Shape(a.shape.extents + b.shape.extents)
    return MooreCube(shape, Product(a.space, b.space), TensorNode(a, b))


def reassociate(c: MooreCube, space: Space) -> MooreCube:
    """Reinterpret c over a differently bracketed product of the same factors.

    The flattened factor lists must agree; coordinates are untouched.
    """
    if c.space.flatten() != space.flatten():
        raise DimensionMismatch(
            f"cannot reassociate {c.space} as {space}: factor lists differ"
        )
    return MooreCube(c.shape, space, ReassociateNode(c, space))
