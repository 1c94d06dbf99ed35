"""Core types: shapes, target spaces, Moore cubes, and the equality oracle.

A Moore cube of dimension n is a map from the positive orthant into a
metric space together with a shape vector (r1, ..., rn).  The map is
constant in coordinate i once t_i passes r_i; evaluation enforces this by
clamping each coordinate into [0, r_i] before calling the underlying
function, so the constancy invariant holds by construction.
"""
from __future__ import annotations

import collections
import itertools
import math
import operator
import struct
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

    def distances(self, p: Sequence[Sequence[float]], q: Sequence[Sequence[float]], n: int) -> list[float]:
        """distance of n pairs of points given as coordinate columns.

        math.dist and math.hypot share one algorithm, so the bits are
        distance's; in 1-d both return the absolute difference.
        """
        if self.dim == 1:
            return [abs(x - y) for x, y in zip(p[0], q[0])]
        if not self.dim:
            return [0.0] * n
        return list(map(math.hypot, *(map(operator.sub, x, y) for x, y in zip(p, q))))


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

    def distances(self, p: Sequence[Sequence[float]], q: Sequence[Sequence[float]], n: int) -> list[float]:
        """distance of n pairs of points given as coordinate columns."""
        k = self.left.total_dim
        dls, drs = self.left.distances(p[:k], q[:k], n), self.right.distances(p[k:], q[k:], n)
        return [max(dl, dr) if dl == dl and dr == dr else math.nan for dl, dr in zip(dls, drs)]


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
# box, so only composition clamps again, and only in the coordinates where a
# point of its box can leave a piece's box (ComposeNode._bounds): direction j
# of the right piece, where (cut + s) - cut can round past s, and each other
# direction where the piece is narrower than the composite.  A strict
# composite's left piece is never clamped.  Every other clamp would give back
# its input, bit for bit.
#
# columns(cols, n) is the same action on n points at once: cols holds one
# sequence of n values per coordinate, and the result one list per output
# coordinate.  Each rule does the float operations of act in the same order,
# so both give the same bits; the oracle scans grids this way.


def _clamp_columns(cols, extents) -> list[list[float]]:
    """MooreCube.clamp, column by column."""
    return [
        [0.0 if t < 0.0 else (r if t > r else float(t)) for t in col]
        for col, r in zip(cols, extents)
    ]


def _cap(ts: tuple[float, ...], bounds) -> tuple[float, ...]:
    """ts with each coordinate i of bounds' (i, r) pairs lowered to r where above it.

    On a point of the box, which is >= 0 (or -0.0) everywhere, this is
    MooreCube.clamp in those coordinates.
    """
    if not bounds:
        return ts
    ts = list(ts)
    for i, r in bounds:
        if ts[i] > r:
            ts[i] = r
    return tuple(ts)


def _cap_columns(cols, bounds) -> list:
    """_cap, column by column."""
    if not bounds:
        return cols
    cols = list(cols)
    for i, r in bounds:
        cols[i] = [r if t > r else t for t in cols[i]]
    return cols


@dataclass(frozen=True, slots=True)
class Primitive:
    """Leaf node; exprs holds the defining source strings when known."""

    exprs: tuple[str, ...] | None
    act: Callable[[tuple[float, ...]], Point] = field(compare=False, repr=False)
    # Rows of the box -> one list of values per output coordinate; when None,
    # columns calls act once per row.
    batch: Callable[[list[tuple[float, ...]]], list[list[float]]] | None = field(
        default=None, compare=False, repr=False
    )

    def columns(self, cols, n):
        rows = list(zip(*cols)) if cols else [()] * n
        if self.batch is not None:
            return self.batch(rows)
        return list(zip(*[self.act(ts).coords for ts in rows]))


@dataclass(frozen=True, slots=True)
class FaceNode:
    source: "MooreCube"
    i: int
    sign: str

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        val = self.source.shape.extents[k] if self.sign == "+" else 0.0
        return self.source.provenance.act(ts[:k] + (val,) + ts[k:])

    def columns(self, cols, n):
        k = self.i - 1
        val = self.source.shape.extents[k] if self.sign == "+" else 0.0
        return self.source.provenance.columns(cols[:k] + [[val] * n] + cols[k:], n)


@dataclass(frozen=True, slots=True)
class DegeneracyNode:
    source: "MooreCube"
    i: int

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        return self.source.provenance.act(ts[:k] + ts[k + 1 :])

    def columns(self, cols, n):
        k = self.i - 1
        return self.source.provenance.columns(cols[:k] + cols[k + 1 :], n)


@dataclass(frozen=True, slots=True)
class ConnectionNode:
    source: "MooreCube"
    i: int
    sign: str

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        merge = min if self.sign == "+" else max
        return self.source.provenance.act(ts[:k] + (merge(ts[k], ts[k + 1]),) + ts[k + 2 :])

    def columns(self, cols, n):
        k = self.i - 1
        merged = list(map(min if self.sign == "+" else max, cols[k], cols[k + 1]))
        return self.source.provenance.columns(cols[:k] + [merged] + cols[k + 2 :], n)


@dataclass(frozen=True, slots=True)
class ReverseNode:
    source: "MooreCube"
    i: int

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.i - 1
        r = self.source.shape.extents[k]
        return self.source.provenance.act(ts[:k] + (r - ts[k],) + ts[k + 1 :])

    def columns(self, cols, n):
        k = self.i - 1
        r = self.source.shape.extents[k]
        return self.source.provenance.columns(
            cols[:k] + [[r - t for t in cols[k]]] + cols[k + 1 :], n
        )


@dataclass(frozen=True, slots=True)
class ComposeNode:
    left: "MooreCube"
    right: "MooreCube"
    direction: int
    lenient: bool

    def _bounds(self, right: bool) -> list[tuple[int, float]]:
        """(i, r) for each coordinate i in which a point of this node's box can
        leave the right piece's box (right) or the left piece's, r being that
        piece's extent; the rule is stated at the head of this section.

        A strict composite has the left piece's extents but in direction j,
        and its right piece may be up to tol_shape narrower; a lenient one
        has the max of both pieces' extents.
        """
        k = self.direction - 1
        pairs = enumerate(zip(self.left.shape.extents, self.right.shape.extents))
        if right:
            return [(i, s) for i, (r, s) in pairs if i == k or s < r]
        return [(i, r) for i, (r, s) in pairs if i != k and r < s] if self.lenient else []

    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.direction - 1
        a = self.left
        cut = a.shape.extents[k]
        if ts[k] <= cut:  # the left piece wins at the seam
            return a.provenance.act(_cap(ts, self._bounds(False)) if self.lenient else ts)
        ts = ts[:k] + (ts[k] - cut,) + ts[k + 1 :]
        return self.right.provenance.act(_cap(ts, self._bounds(True)))

    def columns(self, cols, n):
        k = self.direction - 1
        a, b = self.left, self.right
        cut = a.shape.extents[k]
        on_left = [t <= cut for t in cols[k]]  # the left piece wins at the seam
        m = sum(on_left)
        if m == n:
            return a.provenance.columns(_cap_columns(cols, self._bounds(False)), n)
        if m:
            picked = [list(itertools.compress(col, on_left)) for col in cols]
            left = a.provenance.columns(_cap_columns(picked, self._bounds(False)), m)
            on_right = [not f for f in on_left]
            cols = [list(itertools.compress(col, on_right)) for col in cols]
        shifted = cols[:k] + [[t - cut for t in cols[k]]] + cols[k + 1 :]
        right = b.provenance.columns(_cap_columns(shifted, self._bounds(True)), n - m)
        if not m:
            return right
        merged = []
        for x, y in zip(left, right):
            x, y = iter(x).__next__, iter(y).__next__
            merged.append([x() if f else y() for f in on_left])
        return merged


@dataclass(frozen=True, slots=True)
class TensorNode:
    left: "MooreCube"
    right: "MooreCube"

    def act(self, ts: tuple[float, ...]) -> Point:
        m = len(self.left.shape.extents)
        pa = self.left.provenance.act(ts[:m])
        pb = self.right.provenance.act(ts[m:])
        return Point(pa.coords + pb.coords)

    def columns(self, cols, n):
        m = len(self.left.shape.extents)
        return self.left.provenance.columns(cols[:m], n) + self.right.provenance.columns(
            cols[m:], n
        )


@dataclass(frozen=True, slots=True)
class ReassociateNode:
    source: "MooreCube"
    space: "Space"

    def act(self, ts: tuple[float, ...]) -> Point:
        return self.source.provenance.act(ts)

    def columns(self, cols, n):
        return self.source.provenance.columns(cols, n)


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

    def coords_at(self, points: Sequence[tuple[float, ...]]) -> list[tuple[float, ...]]:
        """at(t).coords for every t in points, evaluated node by node on columns.

        The points must have dim coordinates each.  An evaluation fault may
        come from a later point than the first one at which at would fail.
        """
        n = len(points)
        out = _columns_at(self, list(zip(*points)), n)
        return list(zip(*out)) if out else [()] * n

    def action(self, ts: Sequence[float]) -> Point:
        """Evaluate at a point of the box, without clamping."""
        return self.provenance.act(ts)

    def __call__(self, *coords: float) -> Point:
        return self.at(coords)

    def __repr__(self) -> str:
        return f"MooreCube(dim={self.dim}, shape={self.shape.extents}, space={self.space})"


def _columns_at(cube: MooreCube, cols, n: int) -> list[list[float]]:
    """The coordinate columns of cube.at on n points given as columns."""
    return cube.provenance.columns(_clamp_columns(cols, cube.shape.extents), n)


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
    batch: Callable[[list[tuple[float, ...]]], list[list[float]]] | None = None,
) -> MooreCube:
    """Build a cube from an evaluator defined on the clamped box.

    The evaluator may return a Point, a scalar (for 1-dimensional spaces),
    or any float sequence of the right length.  batch, when given, must
    give the evaluator's float coordinates for many points at once: one
    list per coordinate, in the order of the points.
    """
    if not isinstance(shape, Shape):
        shape = Shape(tuple(shape))
    if dim != len(shape):
        raise DimensionMismatch(f"dim {dim} does not match shape of length {len(shape)}")
    total = space.total_dim

    def act(ts: tuple[float, ...]) -> Point:
        return _coerce_point(evaluator(ts), total)

    exprs = tuple(exprs) if exprs is not None else None
    return MooreCube(shape, space, Primitive(exprs, act, batch))


def point_cube(value: Point | Sequence[float] | float, space: Space) -> MooreCube:
    """The 0-dimensional cube sitting at a single point."""
    pt = _coerce_point(value, space.total_dim)
    return make_cube(0, Shape(()), space, lambda ts: pt)


# ---------------------------------------------------------------------------
# equality oracle

BEYOND_MARGIN = 1.0

# Distinct grid rows the oracle evaluates at once: more than any lab grid
# holds (11^3 = 1,331 and 6^4 = 1,296), few enough to bound memory on large
# grids.
SCAN_BLOCK = 2048


_BITS = struct.Struct("2d").pack


def _distinct_axes(a: MooreCube, b: MooreCube, axes) -> list[tuple[list, list, list]]:
    """Each axis's grid values, one per class of equal clamped values in a and in b.

    A class is keyed by the bits of its clamped pair (so -0.0 is not 0.0)
    and stands for its first grid value.  Per axis: the class's position
    in the axis, and its value clamped into a's box and into b's, in
    grid order.
    """
    out = []
    for axis, ra, rb in zip(axes, a.shape.extents, b.shape.extents):
        ta = [0.0 if t < 0.0 else (ra if t > ra else float(t)) for t in axis]
        tb = [0.0 if t < 0.0 else (rb if t > rb else float(t)) for t in axis]
        keys = list(map(_BITS, ta, tb))
        ks = [k for k, key in enumerate(keys) if keys.index(key) == k]
        out.append((ks, [ta[k] for k in ks], [tb[k] for k in ks]))
    return out


def _row(axes, i: int) -> tuple:
    """Row i of itertools.product(*axes)."""
    row = []
    for axis in reversed(axes):
        i, k = divmod(i, len(axis))
        row.append(axis[k])
    return tuple(reversed(row))


def _product_columns(axes) -> list[list]:
    """The columns of itertools.product(*axes)."""
    n = math.prod(map(len, axes))
    cols, run = [], n
    for axis in axes:
        run //= len(axis)
        col = []
        for v in axis:
            col += [v] * run
        cols.append(col * (n // len(col)))
    return cols


def _product_blocks(*sides) -> Iterator[tuple]:
    """(n, columns of each side) for blocks of rows of itertools.product(*axes).

    Every side is a list of axes of the same lengths.  The blocks follow
    the product's order and hold at most SCAN_BLOCK rows each: a product
    too large for one block is split by the values of its first axis.
    """
    n = math.prod(map(len, sides[0]))
    if n <= SCAN_BLOCK:  # one block on every lab grid
        yield n, *map(_product_columns, sides)
        return
    for k in range(len(sides[0][0])):
        for m, *cols in _product_blocks(*(axes[1:] for axes in sides)):
            yield m, *([[axes[0][k]] * m] + c for axes, c in zip(sides, cols))


def _blocks(a: MooreCube, b: MooreCube, axes, pts) -> Iterator[tuple]:
    """(n, point, a's columns, b's columns) for blocks of grid rows, in grid order.

    pts is itertools.product(*axes), the grid.  Each side is evaluated on
    columns once per distinct clamped row, the row of each class's first
    grid values: every grid point reads what its row reads, and no point
    comes before its row, so the first farthest (or NaN) point of the grid
    is such a row.  point(k) is the grid point of the block's row k.  A
    block that raises is replayed with at, from its first row on through
    every grid point of pts, so a fault raises the error, at the point,
    that evaluating a and then b at each grid point in turn would.
    """
    positions, axes_a, axes_b = zip(*_distinct_axes(a, b, axes))
    reps = [[axis[k] for k in ks] for axis, ks in zip(axes, positions)]
    start = 0
    for n, cols_a, cols_b in _product_blocks(axes_a, axes_b):
        try:
            sides = a.provenance.columns(cols_a, n), b.provenance.columns(cols_b, n)
        except Exception:
            skip = 0
            for axis, k in zip(axes, _row(positions, start)):
                skip = skip * len(axis) + k
            # One block per point, made lazily, as the scan stops at a NaN.
            for t in itertools.islice(pts, skip, None):
                yield 1, [t].__getitem__, [[x] for x in a.at(t).coords], [[x] for x in b.at(t).coords]
            return
        yield n, lambda k, start=start: _row(reps, start + k), *sides
        start += n


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

    def _axes(self, shape: Shape) -> list[list[float]]:
        return [self.axis_samples(r) for r in shape]

    def _union_axes(self, a: Shape, b: Shape) -> list[list[float]]:
        return [
            sorted(set(self.axis_samples(ra)) | set(self.axis_samples(rb)))
            for ra, rb in zip(a, b)
        ]

    def grid(self, shape: Shape) -> Iterator[tuple[float, ...]]:
        return itertools.product(*self._axes(shape))

    def union_grid(self, a: Shape, b: Shape) -> Iterator[tuple[float, ...]]:
        return itertools.product(*self._union_axes(a, b))

    def shapes_equal(self, a: Shape, b: Shape) -> bool:
        return len(a) == len(b) and all(
            abs(ra - rb) <= self.tol_shape for ra, rb in zip(a, b)
        )

    def _scan(self, a: MooreCube, b: MooreCube, axes, pts) -> Equality:
        """Compare a and b on pts, the grid itertools.product(*axes).

        pts is walked to its end (or to a fault), also where the scan
        evaluates fewer rows, so a subclass that wraps grid or union_grid
        sees every point of it.
        """
        if a.dim:
            distances = a.space.distances
            worst = -1.0
            for n, point, pa, pb in _blocks(a, b, axes, pts):
                ds = distances(pa, pb, n)
                total = sum(ds)
                if total != total:  # a NaN: the first NaN point is the witness
                    k = next(k for k, d in enumerate(ds) if d != d)
                else:
                    k = ds.index(max(ds))  # the block's first farthest point
                    if not ds[k] > worst:
                        continue
                worst = ds[k]
                found = point(k), tuple(col[k] for col in pa), tuple(col[k] for col in pb)
                if worst != worst:
                    break
            collections.deque(pts, 0)
        else:  # the one point (), cheaper alone; clamping it changes nothing
            (t,) = pts
            found = t, a.provenance.act(t).coords, b.provenance.act(t).coords
            worst = a.space.distance(found[1], found[2])
        if worst <= self.tol_val:
            return Equality(True, "equal")
        t, pa, pb = found
        return Equality(False, "action", EqualityWitness(t, Point(pa), Point(pb), worst))

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
        return self._scan(a, b, self._axes(a.shape), self.grid(a.shape))

    def equals_action(self, a: MooreCube, b: MooreCube) -> Equality:
        """Values agree on the union grid; shapes are allowed to differ."""
        if a.dim != b.dim:
            return Equality(False, "dim", detail=f"dims {a.dim} vs {b.dim}")
        if a.space != b.space:
            return Equality(False, "space", detail=f"spaces {a.space} vs {b.space}")
        return self._scan(
            a, b, self._union_axes(a.shape, b.shape), self.union_grid(a.shape, b.shape)
        )
