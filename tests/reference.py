"""A second evaluator of cubes for the tests: each structure map as the paper defines it.

reference(cube, ts) is what cube.at(ts).coords should be, worked out from
the provenance tree one point at a time.  It uses no node's act or columns:
every node clamps the point into its own box, and a leaf is interpreted
from its expression trees.  Tests compare both of the package's evaluation
paths against it, bit for bit.
"""
from __future__ import annotations

from moorecubes import core
from moorecubes.expr import eval_expr, parse_expr


def _leaf(node: core.Primitive, ts: tuple) -> tuple[float, ...]:
    if node.exprs is None:  # an opaque leaf (make_cube): only its evaluator knows it
        return tuple(float(v) for v, in node.batch([ts]))
    trees = node.trees or tuple(map(parse_expr, node.exprs))
    return tuple(float(eval_expr(tree, ts)) for tree in trees)


def reference(cube: core.MooreCube, ts) -> tuple[float, ...]:
    """The coordinates of cube at ts, a point anywhere (clamped into the box)."""
    ts = tuple(0.0 if t < 0.0 else (r if t > r else float(t)) for t, r in zip(ts, cube.shape.extents))
    node = cube.provenance
    match node:
        case core.Primitive():
            return _leaf(node, ts)
        case core.FaceNode(source=c, i=i, sign=sign):  # pins t_i at 0 (minus) or r_i (plus)
            pinned = c.shape.extents[i - 1] if sign == "+" else 0.0
            return reference(c, ts[: i - 1] + (pinned,) + ts[i - 1 :])
        case core.DegeneracyNode(source=c, i=i):  # drops t_i
            return reference(c, ts[: i - 1] + ts[i:])
        case core.ConnectionNode(source=c, i=i, sign=sign):  # merges t_i and t_(i+1)
            merged = min(ts[i - 1], ts[i]) if sign == "+" else max(ts[i - 1], ts[i])
            return reference(c, ts[: i - 1] + (merged,) + ts[i + 1 :])
        case core.ReverseNode(source=c, i=i):  # t_i -> r_i - t_i
            return reference(c, ts[: i - 1] + (c.shape.extents[i - 1] - ts[i - 1],) + ts[i:])
        case core.ComposeNode(left=a, right=b, direction=j):
            cut = a.shape.extents[j - 1]
            if ts[j - 1] <= cut:  # the left piece owns the seam
                return reference(a, ts)
            return reference(b, ts[: j - 1] + (ts[j - 1] - cut,) + ts[j:])
        case core.TensorNode(left=a, right=b):
            return reference(a, ts[: a.dim]) + reference(b, ts[a.dim :])
        case core.ReassociateNode(source=c):
            return reference(c, ts)
    raise TypeError(f"no reference rule for {type(node).__name__}")


def assert_agrees(cube: core.MooreCube, points) -> None:
    """at and coords_at both read the reference evaluator's bits."""
    points = [tuple(p) for p in points]
    want = [repr(reference(cube, p)) for p in points]  # repr: NaN-aware, sign of zero kept
    assert [repr(cube.at(p).coords) for p in points] == want
    assert [repr(v) for v in cube.coords_at(points)] == want
