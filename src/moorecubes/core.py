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

from .errors import BadIndex, DimensionMismatch, InvalidShape


def _check_index(i: int, upper: int, what: str) -> None:
    """i, the 1-based index that what names (say "face index"), is an int in 1..upper."""
    if not isinstance(i, int) or isinstance(i, bool):
        raise BadIndex(f"{what} must be an int, got {i!r}")
    if not 1 <= i <= upper:
        raise BadIndex(f"{what} {i} out of range 1..{upper}")


# ---------------------------------------------------------------------------
# shapes


def _extent(r: float) -> float:
    """r, an extent, which must be finite and >= 0 (InvalidShape otherwise)."""
    if not math.isfinite(r) or r < 0.0:
        raise InvalidShape(f"extent {r!r} is not a finite non-negative number")
    return r


@dataclass(frozen=True, slots=True)
class Shape:
    """Per-direction extents of a cube. Extents are finite and >= 0."""

    extents: tuple[float, ...]

    def __post_init__(self):
        exts = []
        for r in self.extents:
            if not isinstance(r, (int, float)) or isinstance(r, bool):
                raise InvalidShape(f"extent {r!r} is not a number")
            try:
                exts.append(_extent(float(r)))
            except OverflowError:
                raise InvalidShape(f"extent {r!r} is too large for a float") from None
        object.__setattr__(self, "extents", tuple(exts))

    @classmethod
    def _of(cls, extents: tuple[float, ...]) -> "Shape":
        """The Shape of extents that are already checked floats, not checked again.

        The structure maps build their shapes this way, about 19,000 in a
        lawlab round, from their sources' extents, which a Shape checked
        when it was made.
        """
        shape = object.__new__(cls)
        object.__setattr__(shape, "extents", extents)
        return shape

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
        if not isinstance(self.dim, int) or isinstance(self.dim, bool):
            raise DimensionMismatch(f"euclidean dimension must be an int, got {self.dim!r}")
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
            return list(map(abs, map(operator.sub, p[0], q[0])))
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
        return self.distances([[x] for x in p], [[y] for y in q], 1)[0]

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
# cube-file keys), and columns(cols, n) evaluates it at n points of the
# cube's box at once: cols holds one sequence of n values per coordinate,
# and the result one sequence per output coordinate.  MooreCube.clamp runs
# once; every map below sends the box into its source's box, so only
# composition clamps again: it caps a point to the box of the piece it
# reaches, the right piece always and the left piece only when the
# composite is lenient.  On a point of the composite's box each such cap is
# the identity except where the point can leave the piece's box.
#
# act(ts) evaluates a node at one point: its columns on a one-row block,
# except for Primitive and ComposeNode, whose own act does the float
# operations of their columns in the same order, so both give the same bits.


class Provenance:
    """The base of the eight node kinds; each defines columns(cols, n)."""

    __slots__ = ()

    def act(self, ts: tuple[float, ...]) -> Point:
        """The node at one point of its box: its columns on a one-row block."""
        return Point(tuple([float(v) for v, in self.columns([[t] for t in ts], 1)]))


def _clamp_columns(cols, extents) -> list[list[float]]:
    """MooreCube.clamp, column by column."""
    return [
        [0.0 if t < 0.0 else (r if t > r else float(t)) for t in col]
        for col, r in zip(cols, extents)
    ]


def _cap(ts: tuple[float, ...], extents) -> tuple[float, ...]:
    """ts with each coordinate lowered to its extent where above it.

    On a point of the box, which is >= 0 (or -0.0) everywhere, this is
    MooreCube.clamp; a -0.0 or NaN coordinate is kept as it is.
    """
    return tuple([r if t > r else t for t, r in zip(ts, extents)])


def _cap_columns(cols, extents) -> list:
    """_cap, column by column."""
    return [[r if t > r else t for t in col] for col, r in zip(cols, extents)]


@dataclass(frozen=True, slots=True)
class Primitive(Provenance):
    """Leaf node; exprs holds the defining source strings when known."""

    exprs: tuple[str, ...] | None
    # Rows of the box -> one sequence of values per output coordinate.
    batch: Callable[[list[tuple[float, ...]]], list] = field(compare=False, repr=False)
    # The parsed trees (expr.Expr) of exprs, kept when every one was given as
    # a tree, so that the generators rewrite them without parsing the texts.
    trees: tuple | None = field(default=None, compare=False, repr=False)

    # A point rule of its own: chain reads 13,350 points a round through it.
    def act(self, ts: tuple[float, ...]) -> Point:
        return Point(tuple([float(v) for v, in self.batch([ts])]))

    def columns(self, cols, n):
        return self.batch(list(zip(*cols)) if cols else [()] * n)


@dataclass(frozen=True, slots=True)
class FaceNode(Provenance):
    source: "MooreCube"
    i: int
    sign: str

    def columns(self, cols, n):
        k = self.i - 1
        val = self.source.shape.extents[k] if self.sign == "+" else 0.0
        return self.source.provenance.columns(cols[:k] + [[val] * n] + cols[k:], n)


@dataclass(frozen=True, slots=True)
class DegeneracyNode(Provenance):
    source: "MooreCube"
    i: int

    def columns(self, cols, n):
        k = self.i - 1
        return self.source.provenance.columns(cols[:k] + cols[k + 1 :], n)


@dataclass(frozen=True, slots=True)
class ConnectionNode(Provenance):
    source: "MooreCube"
    i: int
    sign: str

    def columns(self, cols, n):
        k = self.i - 1
        merged = list(map(min if self.sign == "+" else max, cols[k], cols[k + 1]))
        return self.source.provenance.columns(cols[:k] + [merged] + cols[k + 2 :], n)


@dataclass(frozen=True, slots=True)
class ReverseNode(Provenance):
    source: "MooreCube"
    i: int

    def columns(self, cols, n):
        k = self.i - 1
        r = self.source.shape.extents[k]
        return self.source.provenance.columns(
            cols[:k] + [[r - t for t in cols[k]]] + cols[k + 1 :], n
        )


@dataclass(frozen=True, slots=True)
class ComposeNode(Provenance):
    left: "MooreCube"
    right: "MooreCube"
    direction: int
    lenient: bool

    # A point rule of its own: chain reads 191,119 points a round here, 5x slower as one-row columns.
    def act(self, ts: tuple[float, ...]) -> Point:
        k = self.direction - 1
        a = self.left
        cut = a.shape.extents[k]
        if ts[k] <= cut:  # the left piece wins at the seam
            return a.provenance.act(_cap(ts, a.shape.extents) if self.lenient else ts)
        ts = ts[:k] + (ts[k] - cut,) + ts[k + 1 :]
        return self.right.provenance.act(_cap(ts, self.right.shape.extents))

    def columns(self, cols, n):
        k = self.direction - 1
        a, b = self.left, self.right
        cut = a.shape.extents[k]
        on_left = [t <= cut for t in cols[k]]  # the left piece wins at the seam
        m = sum(on_left)
        if m == n:
            return a.provenance.columns(_cap_columns(cols, a.shape.extents) if self.lenient else cols, n)
        if m:
            picked = [list(itertools.compress(col, on_left)) for col in cols]
            left = a.provenance.columns(_cap_columns(picked, a.shape.extents) if self.lenient else picked, m)
            on_right = [not f for f in on_left]
            cols = [list(itertools.compress(col, on_right)) for col in cols]
        shifted = cols[:k] + [[t - cut for t in cols[k]]] + cols[k + 1 :]
        right = b.provenance.columns(_cap_columns(shifted, b.shape.extents), n - m)
        if not m:
            return right
        merged = []
        for x, y in zip(left, right):
            x, y = iter(x).__next__, iter(y).__next__
            merged.append([x() if f else y() for f in on_left])
        return merged


@dataclass(frozen=True, slots=True)
class TensorNode(Provenance):
    left: "MooreCube"
    right: "MooreCube"

    def columns(self, cols, n):
        m = len(self.left.shape.extents)
        return self.left.provenance.columns(cols[:m], n) + self.right.provenance.columns(
            cols[m:], n
        )


@dataclass(frozen=True, slots=True)
class ReassociateNode(Provenance):
    source: "MooreCube"
    space: "Space"

    def columns(self, cols, n):
        return self.source.provenance.columns(cols, n)


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
        return len(self.shape.extents)

    def clamp(self, ts: Sequence[float]) -> tuple[float, ...]:
        """Clamp each coordinate into [0, r_i]."""
        return tuple(
            0.0 if t < 0.0 else (r if t > r else float(t))
            for t, r in zip(ts, self.shape.extents)
        )

    def at(self, ts: Sequence[float]) -> Point:
        """Evaluate anywhere on the positive orthant (or below; clamped)."""
        if len(ts) != len(self.shape.extents):
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
        out = self.provenance.columns(_clamp_columns(list(zip(*points)), self.shape.extents), n)
        return list(zip(*out)) if out else [()] * n

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
        pt = Point(tuple(map(float, value)))
    if len(pt.coords) != total_dim:
        raise DimensionMismatch(
            f"evaluator returned {len(pt.coords)} coordinates for a space of dimension {total_dim}"
        )
    return pt


def _leaf(dim, shape, space, exprs, batch, trees) -> MooreCube:
    """The cube of a Primitive with these fields, once shape is checked against dim.

    make_cube's leaf has None for exprs and trees; a DSL leaf
    (expr.cube_from_exprs) has its texts and maybe its trees.
    """
    if not isinstance(shape, Shape):
        shape = Shape(tuple(shape))
    if dim != len(shape.extents):
        raise DimensionMismatch(f"dim {dim} does not match shape of length {len(shape.extents)}")
    return MooreCube(shape, space, Primitive(exprs, batch, trees))


def make_cube(
    dim: int,
    shape: Shape | Sequence[float],
    space: Space,
    evaluator: Callable[[tuple[float, ...]], object],
) -> MooreCube:
    """Build a cube from an evaluator defined on the clamped box.

    The evaluator may return a Point, a scalar (for 1-dimensional spaces),
    or any float sequence of the right length.  The cube is opaque: a cube
    file cannot save it, and its columns call the evaluator once per row.
    """
    total = space.total_dim

    def batch(rows):
        return list(zip(*[_coerce_point(evaluator(ts), total).coords for ts in rows]))

    return _leaf(dim, shape, space, None, batch, None)


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


def _side(cube: MooreCube, j: int | None = None, sign: str = "-") -> tuple:
    """The (shape, node, k, pinned) the oracle reads cube by, or face(cube, j, sign) given j.

    A face is not built: it is read through cube's own node, each of its
    rows with pinned, the value of coordinate j (r_j for plus, 0.0 for
    minus), inserted at index k = j - 1 as FaceNode inserts it.  pinned is
    () for the whole cube.  j is checked as face checks it.
    """
    if j is None:
        return cube.shape, cube.provenance, 0, ()
    extents = cube.shape.extents
    _check_index(j, len(extents), "face index")
    k = j - 1
    pinned = (extents[k] if sign == "+" else 0.0,)
    return Shape._of(extents[:k] + extents[k + 1 :]), cube.provenance, k, pinned


def _distinct_axes(a: tuple, b: tuple, axes) -> tuple[list, list]:
    """Per axis, its grid values clamped into side a's box and into b's, one per class.

    A class holds the grid values whose clamped pairs have the same bits
    (so -0.0 is not 0.0) and stands for its first grid value.  The
    oracle's axes increase, and clamping keeps their order, so a later grid
    value repeats an earlier one's pair only where both are clamped to the
    two extents: the classes are an axis's first values, up to the first
    value of the trailing run of pairs whose bits are the last pair's.
    """
    axes_a, axes_b = _clamp_columns(axes, a[0].extents), _clamp_columns(axes, b[0].extents)
    for k, (ta, tb) in enumerate(zip(axes_a, axes_b)):
        last, m = _BITS(ta[-1], tb[-1]), len(ta)
        while m > 1 and _BITS(ta[m - 2], tb[m - 2]) == last:
            m -= 1
        axes_a[k], axes_b[k] = ta[:m], tb[:m]
    return axes_a, axes_b


def _point(axes, sizes, i: int) -> tuple[float, ...]:
    """Row i of itertools.product over the first sizes[j] values of each axes[j]."""
    row = []
    for axis, size in zip(axes[::-1], sizes[::-1]):
        i, k = divmod(i, size)
        row.append(axis[k])
    return tuple(row[::-1])


def _product_blocks(*sides) -> Iterator[tuple]:
    """(n, columns of each side) for blocks of rows of itertools.product(*axes).

    Every side is a list of axes of the same lengths.  The blocks follow
    the product's order and hold at most SCAN_BLOCK rows each: a product
    too large for one block is split by the values of its first axis.
    """
    n = math.prod(map(len, sides[0]))
    if n <= SCAN_BLOCK:  # one block on every lab grid
        block = []
        for axes in sides:  # the columns of itertools.product(*axes)
            cols, run = [], n
            for axis in axes:
                run //= len(axis)
                col = []
                for v in axis:
                    col += [v] * run
                cols.append(col * (n // len(col)))
            block.append(cols)
        yield n, *block
        return
    for k in range(len(sides[0][0])):
        for m, *cols in _product_blocks(*(axes[1:] for axes in sides)):
            yield m, *([[axes[0][k]] * m] + c for axes, c in zip(sides, cols))


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


# The outcome of every equal comparison; an Equality is immutable, so one serves all.
_EQUAL = Equality(True, "equal")


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
        s = self.samples_per_axis
        if not isinstance(s, int) or isinstance(s, bool):
            raise ValueError(f"samples_per_axis must be an int, got {s!r}")
        if s < 2:
            raise ValueError("samples_per_axis must be >= 2")
        for name in ("tol_val", "tol_shape"):
            tol = getattr(self, name)
            if not isinstance(tol, (int, float)) or isinstance(tol, bool):
                raise ValueError(f"{name} must be a number, got {tol!r}")
            try:
                float(tol)
            except OverflowError:
                raise ValueError(f"{name} {tol!r} is too large for a float") from None
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {tol!r}")

    def axis_samples(self, extent: float) -> list[float]:
        """The increasing grid values of an axis of this extent (the scan relies on the order)."""
        s = self.samples_per_axis
        pts = [extent * (k / (s - 1)) for k in range(s)]
        pts.append(extent + BEYOND_MARGIN)
        return list(dict.fromkeys(pts))

    def _axes(self, shape: Shape) -> list[list[float]]:
        return list(map(self.axis_samples, shape.extents))

    def _union_axes(self, a: Shape, b: Shape) -> list[list[float]]:
        return [
            sorted(set(self.axis_samples(ra)) | set(self.axis_samples(rb)))
            for ra, rb in zip(a.extents, b.extents)
        ]

    def grid(self, shape: Shape) -> Iterator[tuple[float, ...]]:
        return itertools.product(*self._axes(shape))

    def union_grid(self, a: Shape, b: Shape) -> Iterator[tuple[float, ...]]:
        return itertools.product(*self._union_axes(a, b))

    def shapes_equal(self, a: Shape, b: Shape) -> bool:
        ra, rb = a.extents, b.extents
        return ra == rb or len(ra) == len(rb) and all(
            abs(x - y) <= self.tol_shape for x, y in zip(ra, rb)
        )

    def _compare(self, space_a: Space, space_b: Space, a: tuple, b: tuple, lenient: bool) -> Equality:
        """equals_strict, or equals_action when lenient, of _sides a and b.

        Each side is evaluated on columns once per distinct clamped row, the
        row of each class's first grid values (_distinct_axes), in blocks of
        at most SCAN_BLOCK rows.  Every grid point reads what its row reads,
        and no point comes before its row, so the first farthest (or NaN)
        point of the grid is such a row, and so is the first point at which
        evaluating a and then b at each grid point in turn would fault: a
        block that raises is evaluated again a row at a time, a and then b
        on each row.  The grid iterator pts is walked to its end, also where
        fewer rows are read, so a subclass that wraps grid or union_grid
        sees every point of it.
        """
        shape_a, shape_b = a[0], b[0]
        dim_a, dim_b = len(shape_a.extents), len(shape_b.extents)
        if dim_a != dim_b:
            return Equality(False, "dim", detail=f"dims {dim_a} vs {dim_b}")
        if space_a != space_b:
            return Equality(False, "space", detail=f"spaces {space_a} vs {space_b}")
        if lenient:
            axes, pts = self._union_axes(shape_a, shape_b), self.union_grid(shape_a, shape_b)
        elif not self.shapes_equal(shape_a, shape_b):
            return Equality(
                False,
                "shape",
                detail=f"shapes {shape_a.extents} vs {shape_b.extents}",
            )
        else:
            axes, pts = self._axes(shape_a), self.grid(shape_a)
        if not axes:  # the one point (), cheaper alone; clamping it changes nothing
            (t,) = pts
            pa, pb = a[1].act(a[3]).coords, b[1].act(b[3]).coords  # () with the pinned value
            worst = space_a.distance(pa, pb)
            if worst <= self.tol_val:
                return _EQUAL
            return Equality(False, "action", EqualityWitness(t, Point(pa), Point(pb), worst))
        axes_a, axes_b = _distinct_axes(a, b, axes)
        sizes = list(map(len, axes_a))  # a class sits where its first grid value does
        if a[3]:  # a face: its pinned value is a column of its own, where FaceNode inserts it
            axes_a.insert(a[2], list(a[3]))
            axes_b.insert(b[2], list(b[3]))
        node_a, node_b, distances = a[1].columns, b[1].columns, space_a.distances
        worst, start = -1.0, 0
        for n, cols_a, cols_b in _product_blocks(axes_a, axes_b):
            try:
                rows = [(0, n, node_a(cols_a, n), node_b(cols_b, n))]
            except Exception:  # one row at a time, made lazily, as the scan stops at a NaN
                rows = (
                    (i, 1, node_a([[c[i]] for c in cols_a], 1), node_b([[c[i]] for c in cols_b], 1))
                    for i in range(n)
                )
            for first, m, vals_a, vals_b in rows:
                ds = distances(vals_a, vals_b, m)
                total = sum(ds)
                if total != total:  # a NaN: the first NaN row is the witness
                    k = next(k for k, d in enumerate(ds) if d != d)
                else:
                    k = ds.index(max(ds))  # the first farthest row
                    if not ds[k] > worst:
                        continue
                worst, found = ds[k], (start + first + k, k, vals_a, vals_b)
                if worst != worst:
                    break
            if worst != worst:
                break
            start += n
        collections.deque(pts, 0)
        if worst <= self.tol_val:
            return _EQUAL
        i, k, vals_a, vals_b = found  # tuples are built for the witness only
        t, pa, pb = _point(axes, sizes, i), tuple(c[k] for c in vals_a), tuple(c[k] for c in vals_b)
        return Equality(False, "action", EqualityWitness(t, Point(pa), Point(pb), worst))

    def equals_strict(self, a: MooreCube, b: MooreCube) -> Equality:
        """Same dim, space, shape (within tol_shape), and values on a's grid."""
        return self._compare(a.space, b.space, _side(a), _side(b), False)

    def equals_action(self, a: MooreCube, b: MooreCube) -> Equality:
        """Values agree on the union grid; shapes are allowed to differ."""
        return self._compare(a.space, b.space, _side(a), _side(b), True)

    def equals_faces(self, a: MooreCube, b: MooreCube, j: int, lenient: bool = False) -> Equality:
        """equals_strict(face(a, j, +), face(b, j, -)), or equals_action when lenient.

        The faces are not built: each is read through its cube's own node
        with coordinate j pinned.  The result, and any error raised, is
        that of the comparison of the built faces, and grid or union_grid
        of the face shapes is walked as that comparison walks it.
        """
        return self._compare(a.space, b.space, _side(a, j, "+"), _side(b, j, "-"), lenient)
