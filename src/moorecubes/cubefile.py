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

import contextlib
import json
import math
import os
import stat
from dataclasses import fields
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator, TextIO

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

# Deepest provenance tree (nodes from the root to a leaf) that files may hold.
# It keeps loading, saving and evaluating within Python's recursion limit.
MAX_DEPTH = 500
_TOO_DEEP = f"provenance nested too deeply (the limit is {MAX_DEPTH} levels)"

# Deepest target space (spaces from the root to a Euclidean leaf) that files
# may hold.  Comparing spaces recurses per level, at the bottom of a
# provenance tree that may itself be MAX_DEPTH deep.
MAX_SPACE_DEPTH = 100
_SPACE_TOO_DEEP = f"target space nested too deeply (the limit is {MAX_SPACE_DEPTH} levels)"


# ---------------------------------------------------------------------------
# spaces


def space_to_json(space: Space) -> dict:
    return _space_to_json(space, 1)


def _space_to_json(space: Space, depth: int) -> dict:
    if depth > MAX_SPACE_DEPTH:
        raise CubeFileError(_SPACE_TOO_DEEP)
    if isinstance(space, Euclidean):
        return {"kind": "euclidean", "dim": space.dim}
    return {
        "kind": "product",
        "left": _space_to_json(space.left, depth + 1),
        "right": _space_to_json(space.right, depth + 1),
    }


def space_from_json(data: Any) -> Space:
    return _space_from_json(data, 1)


def _space_from_json(data: Any, depth: int) -> Space:
    if depth > MAX_SPACE_DEPTH:
        raise CubeFileError(_SPACE_TOO_DEEP)
    if not isinstance(data, dict) or "kind" not in data:
        raise CubeFileError(f"malformed target space: {data!r}")
    kind = data["kind"]
    if kind == "euclidean":
        dim = data.get("dim")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise CubeFileError(f"bad euclidean dimension: {dim!r}")
        return Euclidean(dim)
    if kind == "product":
        left, right = data.get("left"), data.get("right")
        return Product(_space_from_json(left, depth + 1), _space_from_json(right, depth + 1))
    raise CubeFileError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# provenance trees


def _compose(left: MooreCube, right: MooreCube, direction: int, lenient) -> MooreCube:
    return (compose_lenient if lenient else compose_strict)(left, right, direction)


# Node class -> (file kind, the structure map taking the node's fields in order).
_NODES = {
    FaceNode: ("face", face),
    DegeneracyNode: ("degeneracy", degeneracy),
    ConnectionNode: ("connection", connection),
    ReverseNode: ("reverse", reverse),
    ComposeNode: ("compose", _compose),
    TensorNode: ("tensor", tensor),
    ReassociateNode: ("reassociate", reassociate),
}
_KINDS = {kind: (node_class, build) for node_class, (kind, build) in _NODES.items()}
_CUBE_FIELDS = ("source", "left", "right")
_KEYS = {"source": "of", "space": "target"}


def _node_to_json(cube: MooreCube, depth: int = 1) -> dict:
    if depth > MAX_DEPTH:
        raise CubeFileError(_TOO_DEEP)
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
    out = {"kind": _NODES[type(node)][0]}
    for f in fields(node):
        value = getattr(node, f.name)
        if f.name in _CUBE_FIELDS:
            value = _node_to_json(value, depth + 1)
        elif f.name == "space":
            value = space_to_json(value)
        out[_KEYS.get(f.name, f.name)] = value
    return out


def _require(data: Any, key: str, kind: str):
    if not isinstance(data, dict) or key not in data:
        raise CubeFileError(f"{kind} node is missing {key!r}")
    return data[key]


def _sign_from(data: dict, key: str, kind: str) -> Sign:
    text = _require(data, key, kind)
    try:
        return Sign(text)
    except ValueError:
        raise CubeFileError(f"bad sign {text!r} (expected '+' or '-')") from None


def _node_from_json(data: Any, depth: int = 1) -> MooreCube:
    if depth > MAX_DEPTH:
        raise CubeFileError(_TOO_DEEP)
    kind = _require(data, "kind", "provenance")
    if kind == "primitive":
        return _primitive_from_json(data)
    if not isinstance(kind, str) or kind not in _KINDS:
        raise CubeFileError(f"unknown provenance kind {kind!r}")
    node_class, build = _KINDS[kind]
    args = []
    for f in fields(node_class):
        key = _KEYS.get(f.name, f.name)
        if f.name in _CUBE_FIELDS:
            args.append(_node_from_json(_require(data, key, kind), depth + 1))
        else:
            args.append(_READERS[f.name](data, key, kind))
    return build(*args)


def _int_field(data: dict, key: str, kind: str) -> int:
    value = _require(data, key, kind)
    if not isinstance(value, int) or isinstance(value, bool):
        raise CubeFileError(f"{kind} field {key!r} must be an integer, got {value!r}")
    return value


def _lenient_field(data: dict, key: str, kind: str) -> bool:
    value = data.get(key, False)  # a file without the key holds a strict composite
    if not isinstance(value, bool):
        raise CubeFileError(f"{kind} field {key!r} must be true or false, got {value!r}")
    return value


# Node field -> reader of its file key.
_READERS = {
    "i": _int_field,
    "direction": _int_field,
    "sign": _sign_from,
    "lenient": _lenient_field,
    "space": lambda data, key, kind: space_from_json(_require(data, key, kind)),
}


def _shape_field(data: dict, kind: str, dim: int) -> Shape:
    raw = _require(data, "shape", kind)
    if not isinstance(raw, list) or len(raw) != dim:
        raise CubeFileError(f"shape must be a list of {dim} extents, got {raw!r}")
    for r in raw:
        if not isinstance(r, (int, float)) or isinstance(r, bool):
            raise CubeFileError(f"bad shape {raw!r}: extent {r!r} is not a number")
    try:
        return Shape(tuple(float(r) for r in raw))
    except OverflowError as exc:
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


def _float_text(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


# Exact scalar type -> its JSON text, as json.dumps gives it.  Any other type,
# subclasses included, goes through json.dumps itself.
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _write_json(value: Any, write: Callable[[str], Any], newline: str = "\n") -> None:
    """Write value, whose keys are strings, as json.dump(value, indent=2, sort_keys=True) does.

    One pass, one frame per nesting level, and each piece is written once:
    json's own encoder passes every piece up through every enclosing level,
    which is quadratic in the depth of a chain.  newline is the line break
    plus the indentation of value's own level.
    """
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        write(text(value))
        return
    if isinstance(value, dict):
        items = [
            (encode_basestring_ascii(key) + ": ", item) for key, item in sorted(value.items())
        ]
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = [("", item) for item in value]
        opening, closing = "[", "]"
    else:
        write(json.dumps(value))
        return
    if not items:
        write(opening + closing)
        return
    inner = newline + "  "
    separator = opening + inner
    for label, item in items:
        write(separator + label)
        _write_json(item, write, inner)
        separator = "," + inner
    write(newline + closing)


def _write_document(data: dict, handle: TextIO) -> None:
    _write_json(data, handle.write)
    handle.write("\n")


def dump_cube(cube: MooreCube, handle: TextIO) -> None:
    """Write cube's file text to an open text handle: the bytes save_cube writes."""
    _write_document(cube_to_dict(cube), handle)


@contextlib.contextmanager
def open_output(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """Open path for writing UTF-8 text, leaving what open(path, "w") leaves.

    The file is written in place, not emptied first: on exit, normal or
    raising, a regular file is cut at the position written, so it holds
    exactly the bytes written, on the same inode (a symlink is written
    through, hard links share the bytes, the mode stays).  FIFOs and
    devices are never cut.  Emptying a file on open (O_TRUNC) frees its
    blocks only for the write to allocate them again, which on some
    filesystems costs several times the write itself.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline=newline) as handle:
        try:
            yield handle
        finally:
            handle.flush()
            info = os.fstat(fd)
            if stat.S_ISREG(info.st_mode):
                end = handle.tell()
                if info.st_size > end:  # the tail of an older, longer file
                    os.ftruncate(fd, end)


def save_cube(cube: MooreCube, path: str) -> None:
    data = cube_to_dict(cube)  # a cube that cannot be saved leaves no file behind
    with open_output(path) as handle:
        _write_document(data, handle)


def load_cube(path: str) -> MooreCube:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise CubeFileError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CubeFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise CubeFileError(f"cannot read {path}: {_TOO_DEEP}") from None
    return cube_from_dict(data)
