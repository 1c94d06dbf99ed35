"""Core types: shapes, target spaces, Moore cubes, and the equality oracle.

A Moore cube of dimension n is a map from the positive orthant into a
metric space together with a shape vector (r1, ..., rn).  The map is
constant in coordinate i once t_i passes r_i; evaluation enforces this by
clamping each coordinate into [0, r_i] before calling the underlying
function, so the constancy invariant holds by construction.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

from .errors import DimensionMismatch, InvalidShape


# ---------------------------------------------------------------------------
# shapes


@dataclass(frozen=True, slots=True)
class Shape:
    """Per-direction extents of a cube. Extents are finite and >= 0."""

    extents: tuple[float, ...]

    def __post_init__(self):
        exts = tuple(float(r) for r in self.extents)
        for r in exts:
            if not math.isfinite(r) or r < 0.0:
                raise InvalidShape(f"extent {r!r} is not a finite non-negative number")
        object.__setattr__(self, "extents", exts)

    def __len__(self) -> int:
        return len(self.extents)

    def __iter__(self) -> Iterator[float]:
        return iter(self.extents)

    def __getitem__(self, k: int) -> float:
        return self.extents[k]


# ---------------------------------------------------------------------------
# target spaces


@dataclass(frozen=True, slots=True)
class Euclidean:
    """R^dim with the Euclidean metric."""

    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise DimensionMismatch(f"euclidean dimension must be >= 0, got {self.dim}")

    @property
    def total_dim(self) -> int:
        return self.dim

    def flatten(self) -> tuple[int, ...]:
        return (self.dim,)

    def distance(self, p: Sequence[float], q: Sequence[float]) -> float:
        return math.dist(p, q)


@dataclass(frozen=True, slots=True)
class Product:
    """Binary product of spaces; the metric is the max of the two parts."""

    left: "Space"
    right: "Space"

    @property
    def total_dim(self) -> int:
        return self.left.total_dim + self.right.total_dim

    def flatten(self) -> tuple[int, ...]:
        return self.left.flatten() + self.right.flatten()

    def distance(self, p: Sequence[float], q: Sequence[float]) -> float:
        k = self.left.total_dim
        dl, dr = self.left.distance(p[:k], q[:k]), self.right.distance(p[k:], q[k:])
        return max(dl, dr) if dl == dl and dr == dr else math.nan


Space = Union[Euclidean, Product]


@dataclass(frozen=True, slots=True)
class Point:
    """A point of a target space, stored as flat coordinates."""

    coords: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[float]:
        return iter(self.coords)

    def __getitem__(self, k: int) -> float:
        return self.coords[k]


# ---------------------------------------------------------------------------
# provenance

# A cube's provenance node is the whole description of its action: its
# fields are the arguments of the structure map that builds it (and its
# cube-file keys), and act(ts) evaluates it at a point of the cube's box.
# MooreCube.at clamps once; every map below sends the box into its source's
# box, so only composition clamps again, for pieces narrower than the whole.


@dataclass(frozen=True, slots=True)
class Primitive:
    """Leaf node; exprs holds the defining source strings when known."""

    exprs: tuple[str, ...] | None
    act: Callable[[tuple[float, ...]], Point] = field(compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class FaceNode:
    source: "MooreCube"
    i: int
    sign: str

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        val = self.source.shape.extents[k] if self.sign == "+" else 0.0
        return self.source.provenance.act(ts[:k] + (val,) + ts[k:])


@dataclass(frozen=True, slots=True)
class DegeneracyNode:
    source: "MooreCube"
    i: int

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        return self.source.provenance.act(ts[:k] + ts[k + 1 :])


@dataclass(frozen=True, slots=True)
class ConnectionNode:
    source: "MooreCube"
    i: int
    sign: str

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        merge = min if self.sign == "+" else max
        return self.source.provenance.act(ts[:k] + (merge(ts[k], ts[k + 1]),) + ts[k + 2 :])


@dataclass(frozen=True, slots=True)
class ReverseNode:
    source: "MooreCube"
    i: int

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        r = self.source.shape.extents[k]
        return self.source.provenance.act(ts[:k] + (r - ts[k],) + ts[k + 1 :])


@dataclass(frozen=True, slots=True)
class ComposeNode:
    left: "MooreCube"
    right: "MooreCube"
    direction: int
    lenient: bool

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.direction - 1
        a = self.left
        cut = a.shape.extents[k]
        if ts[k] <= cut:
            return a.provenance.act(a.clamp(ts))
        b = self.right
        return b.provenance.act(b.clamp(ts[:k] + (ts[k] - cut,) + ts[k + 1 :]))


@dataclass(frozen=True, slots=True)
class TensorNode:
    left: "MooreCube"
    right: "MooreCube"

    def act(self, ts: tuple[float, ...]) -> Point:
        m = len(self.left.shape.extents)
        pa = self.left.provenance.act(ts[:m])
        pb = self.right.provenance.act(ts[m:])
        return Point(pa.coords + pb.coords)


@dataclass(frozen=True, slots=True)
class ReassociateNode:
    source: "MooreCube"
    space: "Space"

    def act(self, ts: tuple[float, ...]) -> Point:
        return self.source.provenance.act(ts)


Provenance = Union[
    Primitive,
    FaceNode,
    DegeneracyNode,
    ConnectionNode,
    ReverseNode,
    ComposeNode,
    TensorNode,
    ReassociateNode,
]


# ---------------------------------------------------------------------------
# cubes


@dataclass(frozen=True, slots=True, eq=False)
class MooreCube:
    """A shape vector, a target space, and the node that acts on the box."""

    shape: Shape
    space: Space
    provenance: Provenance

    @property
    def dim(self) -> int:
        return len(self.shape)

    def clamp(self, ts: Sequence[float]) -> tuple[float, ...]:
        """Clamp each coordinate into [0, r_i]."""
        return tuple(
            0.0 if t < 0.0 else (r if t > r else float(t))
            for t, r in zip(ts, self.shape.extents)
        )

    def at(self, ts: Sequence[float]) -> Point:
        """Evaluate anywhere on the positive orthant (or below; clamped)."""
        if len(ts) != len(self.shape):
            raise DimensionMismatch(
                f"cube of dimension {self.dim} evaluated at {len(ts)} coordinates"
            )
        return self.provenance.act(self.clamp(ts))

    def action(self, ts: Sequence[float]) -> Point:
        """Evaluate at a point of the box, without clamping."""
        return self.provenance.act(ts)

    def __call__(self, *coords: float) -> Point:
        return self.at(coords)

    def __repr__(self) -> str:
        return f"MooreCube(dim={self.dim}, shape={self.shape.extents}, space={self.space})"


def _coerce_point(value, total_dim: int) -> Point:
    if isinstance(value, Point):
        pt = value
    elif isinstance(value, (int, float)):
        pt = Point((float(value),))
    else:
        pt = Point(tuple(float(c) for c in value))
    if len(pt) != total_dim:
        raise DimensionMismatch(
            f"evaluator returned {len(pt)} coordinates for a space of dimension {total_dim}"
        )
    return pt


def make_cube(
    dim: int,
    shape: Shape | Sequence[float],
    space: Space,
    evaluator: Callable[[tuple[float, ...]], object],
    exprs: Sequence[str] | None = None,
) -> MooreCube:
    """Build a cube from an evaluator defined on the clamped box.

    The evaluator may return a Point, a scalar (for 1-dimensional spaces),
    or any float sequence of the right length.
    """
    if not isinstance(shape, Shape):
        shape = Shape(tuple(shape))
    if dim != len(shape):
        raise DimensionMismatch(f"dim {dim} does not match shape of length {len(shape)}")
    total = space.total_dim

    def act(ts: tuple[float, ...]) -> Point:
        return _coerce_point(evaluator(ts), total)

    return MooreCube(shape, space, Primitive(tuple(exprs) if exprs is not None else None, act))


def point_cube(value: Point | Sequence[float] | float, space: Space) -> MooreCube:
    """The 0-dimensional cube sitting at a single point."""
    pt = _coerce_point(value, space.total_dim)
    return make_cube(0, Shape(()), space, lambda ts: pt)


# ---------------------------------------------------------------------------
# equality oracle

BEYOND_MARGIN = 1.0


@dataclass(frozen=True, slots=True)
class EqualityWitness:
    """A grid point where two cubes differ the most, with both values."""

    point: tuple[float, ...]
    left: Point
    right: Point
    distance: float


@dataclass(frozen=True, slots=True)
class Equality:
    """Outcome of an oracle comparison; truthy exactly when equal.

    reason is one of "equal", "dim", "space", "shape", "action"; detail
    carries a human-readable note for shape mismatches.
    """

    equal: bool
    reason: str
    witness: EqualityWitness | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.equal


@dataclass(frozen=True, slots=True)
class EqualityOracle:
    """Decides cube equality by sampling a deterministic grid.

    Each axis of extent r contributes samples_per_axis evenly spaced
    points from 0 to r plus one beyond-extent probe at r + BEYOND_MARGIN,
    which is what catches constancy violations past the boundary.
    """

    samples_per_axis: int = 5
    tol_val: float = 1e-9
    tol_shape: float = 1e-9

    def __post_init__(self):
        if self.samples_per_axis < 2:
            raise ValueError("samples_per_axis must be >= 2")
        for name in ("tol_val", "tol_shape"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")

    def axis_samples(self, extent: float) -> list[float]:
        s = self.samples_per_axis
        pts = [extent * (k / (s - 1)) for k in range(s)]
        pts.append(extent + BEYOND_MARGIN)
        return list(dict.fromkeys(pts))

    def grid(self, shape: Shape) -> Iterator[tuple[float, ...]]:
        axes = [self.axis_samples(r) for r in shape]
        return itertools.product(*axes)

    def union_grid(self, a: Shape, b: Shape) -> Iterator[tuple[float, ...]]:
        axes = [
            sorted(set(self.axis_samples(ra)) | set(self.axis_samples(rb)))
            for ra, rb in zip(a, b)
        ]
        return itertools.product(*axes)

    def shapes_equal(self, a: Shape, b: Shape) -> bool:
        return len(a) == len(b) and all(
            abs(ra - rb) <= self.tol_shape for ra, rb in zip(a, b)
        )

    def _scan(self, a: MooreCube, b: MooreCube, pts) -> Equality:
        worst = -1.0
        at = None
        vals = None
        for t in pts:
            pa = a.at(t)
            pb = b.at(t)
            d = a.space.distance(pa.coords, pb.coords)
            if not d <= worst:  # farther, or NaN: the first NaN point is the witness
                worst, at, vals = d, t, (pa, pb)
                if d != d:
                    break
        if worst <= self.tol_val:
            return Equality(True, "equal")
        witness = EqualityWitness(point=at, left=vals[0], right=vals[1], distance=worst)
        return Equality(False, "action", witness)

    def equals_strict(self, a: MooreCube, b: MooreCube) -> Equality:
        """Same dim, space, shape (within tol_shape), and values on a's grid."""
        if a.dim != b.dim:
            return Equality(False, "dim", detail=f"dims {a.dim} vs {b.dim}")
        if a.space != b.space:
            return Equality(False, "space", detail=f"spaces {a.space} vs {b.space}")
        if not self.shapes_equal(a.shape, b.shape):
            return Equality(
                False,
                "shape",
                detail=f"shapes {a.shape.extents} vs {b.shape.extents}",
            )
        return self._scan(a, b, self.grid(a.shape))

    def equals_action(self, a: MooreCube, b: MooreCube) -> Equality:
        """Values agree on the union grid; shapes are allowed to differ."""
        if a.dim != b.dim:
            return Equality(False, "dim", detail=f"dims {a.dim} vs {b.dim}")
        if a.space != b.space:
            return Equality(False, "space", detail=f"spaces {a.space} vs {b.space}")
        return self._scan(a, b, self.union_grid(a.shape, b.shape))
