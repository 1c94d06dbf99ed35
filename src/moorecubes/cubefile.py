"""JSON persistence for cubes.

A file always declares dim, shape, and target.  A cube whose action came
straight from DSL expressions stores them under "expr"; anything built by
operators stores a "provenance" tree instead, with DSL-defined cubes at
the leaves, and is reconstructed structurally on load (piecewise
composite actions are not expressible in the DSL, and storing samples
would lose exactness).  Loading re-runs every construction step, so a
composite that no longer satisfies its face condition fails to load the
same way it would fail to build.
"""
from __future__ import annotations

import json
from typing import Any

from .compose import compose_lenient, compose_strict
from .core import (
    ComposeNode,
    ConnectionNode,
    DegeneracyNode,
    Euclidean,
    FaceNode,
    MooreCube,
    Primitive,
    Product,
    ReassociateNode,
    ReverseNode,
    Shape,
    Space,
    TensorNode,
)
from .errors import CubeFileError
from .expr import cube_from_exprs
from .ops import Sign, connection, degeneracy, face, reverse
from .tensor import reassociate, tensor

FORMAT = "moore-cube/1"


# ---------------------------------------------------------------------------
# spaces


def space_to_json(space: Space) -> dict:
    if isinstance(space, Euclidean):
        return {"kind": "euclidean", "dim": space.dim}
    return {
        "kind": "product",
        "left": space_to_json(space.left),
        "right": space_to_json(space.right),
    }


def space_from_json(data: Any) -> Space:
    if not isinstance(data, dict) or "kind" not in data:
        raise CubeFileError(f"malformed target space: {data!r}")
    kind = data["kind"]
    if kind == "euclidean":
        dim = data.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise CubeFileError(f"bad euclidean dimension: {dim!r}")
        return Euclidean(dim)
    if kind == "product":
        return Product(space_from_json(data.get("left")), space_from_json(data.get("right")))
    raise CubeFileError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# provenance trees


def _node_to_json(cube: MooreCube) -> dict:
    node = cube.provenance
    if isinstance(node, Primitive):
        if node.exprs is None:
            raise CubeFileError(
                "cube has an opaque action (no defining expressions); it cannot be saved"
            )
        return {
            "kind": "primitive",
            "dim": cube.dim,
            "shape": list(cube.shape.extents),
            "target": space_to_json(cube.space),
            "expr": list(node.exprs),
        }
    if isinstance(node, FaceNode):
        return {"kind": "face", "i": node.i, "sign": node.sign, "of": _node_to_json(node.source)}
    if isinstance(node, DegeneracyNode):
        return {"kind": "degeneracy", "i": node.i, "of": _node_to_json(node.source)}
    if isinstance(node, ConnectionNode):
        return {
            "kind": "connection",
            "i": node.i,
            "sign": node.sign,
            "of": _node_to_json(node.source),
        }
    if isinstance(node, ReverseNode):
        return {"kind": "reverse", "i": node.i, "of": _node_to_json(node.source)}
    if isinstance(node, ComposeNode):
        return {
            "kind": "compose",
            "direction": node.direction,
            "lenient": node.lenient,
            "left": _node_to_json(node.left),
            "right": _node_to_json(node.right),
        }
    if isinstance(node, TensorNode):
        return {
            "kind": "tensor",
            "left": _node_to_json(node.left),
            "right": _node_to_json(node.right),
        }
    if isinstance(node, ReassociateNode):
        return {
            "kind": "reassociate",
            "target": space_to_json(node.space),
            "of": _node_to_json(node.source),
        }
    raise CubeFileError(f"unknown provenance node {type(node).__name__}")


def _require(data: Any, key: str, kind: str):
    if not isinstance(data, dict) or key not in data:
        raise CubeFileError(f"{kind} node is missing {key!r}")
    return data[key]


def _sign_from(text: Any) -> Sign:
    try:
        return Sign(text)
    except ValueError:
        raise CubeFileError(f"bad sign {text!r} (expected '+' or '-')") from None


def _node_from_json(data: Any) -> MooreCube:
    kind = _require(data, "kind", "provenance")
    if kind == "primitive":
        return _primitive_from_json(data)
    if kind == "face":
        return face(
            _node_from_json(_require(data, "of", kind)),
            _int_field(data, "i", kind),
            _sign_from(_require(data, "sign", kind)),
        )
    if kind == "degeneracy":
        return degeneracy(_node_from_json(_require(data, "of", kind)), _int_field(data, "i", kind))
    if kind == "connection":
        return connection(
            _node_from_json(_require(data, "of", kind)),
            _int_field(data, "i", kind),
            _sign_from(_require(data, "sign", kind)),
        )
    if kind == "reverse":
        return reverse(_node_from_json(_require(data, "of", kind)), _int_field(data, "i", kind))
    if kind == "compose":
        left = _node_from_json(_require(data, "left", kind))
        right = _node_from_json(_require(data, "right", kind))
        direction = _int_field(data, "direction", kind)
        combine = compose_lenient if data.get("lenient") else compose_strict
        return combine(left, right, direction)
    if kind == "tensor":
        return tensor(
            _node_from_json(_require(data, "left", kind)),
            _node_from_json(_require(data, "right", kind)),
        )
    if kind == "reassociate":
        return reassociate(
            _node_from_json(_require(data, "of", kind)),
            space_from_json(_require(data, "target", kind)),
        )
    raise CubeFileError(f"unknown provenance kind {kind!r}")


def _int_field(data: dict, key: str, kind: str) -> int:
    value = _require(data, key, kind)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CubeFileError(f"{kind} field {key!r} must be an integer, got {value!r}")
    return value


def _shape_field(data: dict, kind: str, dim: int) -> Shape:
    raw = _require(data, "shape", kind)
    if not isinstance(raw, list) or len(raw) != dim:
        raise CubeFileError(f"shape must be a list of {dim} extents, got {raw!r}")
    try:
        return Shape(tuple(float(r) for r in raw))
    except (TypeError, ValueError) as exc:
        raise CubeFileError(f"bad shape {raw!r}: {exc}") from None


def _primitive_from_json(data: dict) -> MooreCube:
    dim = _int_field(data, "dim", "primitive")
    shape = _shape_field(data, "primitive", dim)
    exprs = _require(data, "expr", "primitive")
    target = space_from_json(_require(data, "target", "primitive"))
    if not isinstance(exprs, list) or not all(isinstance(e, str) for e in exprs):
        raise CubeFileError("expr must be a list of expression strings")
    if len(exprs) != target.total_dim:
        raise CubeFileError(
            f"{len(exprs)} expression(s) for a target of dimension {target.total_dim}"
        )
    return cube_from_exprs(dim, shape, target, exprs)


# ---------------------------------------------------------------------------
# whole files


def cube_to_dict(cube: MooreCube) -> dict:
    header = {
        "format": FORMAT,
        "dim": cube.dim,
        "shape": list(cube.shape.extents),
        "target": space_to_json(cube.space),
    }
    node = _node_to_json(cube)
    if node["kind"] == "primitive":
        header["expr"] = node["expr"]
    else:
        header["provenance"] = node
    return header


def cube_from_dict(data: Any) -> MooreCube:
    if not isinstance(data, dict):
        raise CubeFileError("cube file must contain a JSON object")
    marker = _require(data, "format", "cube file")
    if marker != FORMAT:
        raise CubeFileError(f"unsupported format {marker!r} (expected {FORMAT!r})")
    if "provenance" in data:
        cube = _node_from_json(data["provenance"])
    elif "expr" in data:
        cube = _primitive_from_json(data)
    else:
        raise CubeFileError("cube file needs either 'expr' or 'provenance'")
    declared_dim = _int_field(data, "dim", "cube file")
    if declared_dim != cube.dim:
        raise CubeFileError(f"declared dim {declared_dim} but reconstructed {cube.dim}")
    declared_shape = _shape_field(data, "cube file", declared_dim)
    if declared_shape != cube.shape:
        raise CubeFileError(
            f"declared shape {list(declared_shape)} but reconstructed {list(cube.shape)}"
        )
    declared_target = space_from_json(_require(data, "target", "cube file"))
    if declared_target != cube.space:
        raise CubeFileError(
            f"declared target {declared_target} but reconstructed {cube.space}"
        )
    return cube


def save_cube(cube: MooreCube, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(cube_to_dict(cube), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_cube(path: str) -> MooreCube:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CubeFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CubeFileError(f"{path} is not valid JSON: {exc}") from None
    return cube_from_dict(data)
