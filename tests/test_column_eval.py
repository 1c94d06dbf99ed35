"""MooreCube.at and the oracle's grid evaluation read the reference evaluator's bits."""
from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moorecubes import (
    CompositionUndefined,
    EqualityOracle,
    EvalError,
    Euclidean,
    Product,
    Sign,
    compose_lenient,
    compose_strict,
    connection,
    cube_from_exprs,
    degeneracy,
    face,
    make_cube,
    point_cube,
    reassociate,
    reverse,
    tensor,
)
from conftest import MAP_DIMS, fuzz_cube, mapped
from moorecubes import MooreCube, Shape, core, gen_cube
from moorecubes.lawlab import LAW_IDS, build_case
from reference import assert_agrees, reference

oracle = EqualityOracle()
E1 = Euclidean(1)


def assert_paths_agree(cube, points):
    """coords_at, which evaluates through the columns rules that the oracle's scan uses, reads what at reads."""
    points = [tuple(p) for p in points]
    want = [repr(cube.at(p).coords) for p in points]  # repr: NaN-aware, sign of zero kept
    assert [repr(v) for v in cube.coords_at(points)] == want


def law_sides(law_id, k):
    """(side, points) for both sides of each comparison of instance k: its strict and union grids."""
    for _, lhs, rhs in build_case(law_id, seed=42, k=k, oracle=oracle).comparisons:
        grids = [list(oracle.grid(lhs.shape))]
        if lhs.dim == rhs.dim:
            grids.append(list(oracle.union_grid(lhs.shape, rhs.shape)))
        for points in grids:
            yield lhs, points
            yield rhs, points


@pytest.mark.parametrize("law_id", LAW_IDS)
def test_every_law_side_on_its_strict_and_union_grid(law_id):
    for k in range(20):
        for side, points in law_sides(law_id, k):
            assert_paths_agree(side, points)


@pytest.mark.parametrize("law_id", LAW_IDS)
def test_every_law_side_reads_the_reference(law_id):
    """Instances 0-4; the grids hold the probes past the extents."""
    for k in range(5):
        for side, points in law_sides(law_id, k):
            assert_agrees(side, points)


def square(extents=(1.0, 1.0), expr="t1^2 + 3*t2 - t1*t2"):
    return cube_from_exprs(len(extents), extents, E1, [expr])


def probes(cube, extra=()):
    """The oracle's grid, its corners pushed below zero, and extra points."""
    points = list(oracle.grid(cube.shape))
    points.append(tuple(-0.5 for _ in cube.shape))
    points.append(tuple(r + 7.25 for r in cube.shape))
    return points + [tuple(p) for p in extra]


class TestNodes:
    def test_primitive(self):
        c = square()
        assert_agrees(c, probes(c))

    def test_face_degeneracy_connection_reverse(self):
        c = square((1.5, 0.5))
        for cube in (
            face(c, 1, Sign.PLUS),
            face(c, 2, Sign.MINUS),
            degeneracy(c, 1),
            degeneracy(c, 3),
            connection(c, 1, Sign.PLUS),
            connection(c, 2, Sign.MINUS),
            reverse(c, 1),
            reverse(reverse(c, 2), 1),
        ):
            assert_agrees(cube, probes(cube))

    def test_tensor_and_reassociate(self):
        a, b = square((1.0, 2.0)), cube_from_exprs(1, (0.5,), Euclidean(2), ["t1", "-t1"])
        ab = tensor(a, b)
        abc = tensor(ab, point_cube(3.0, E1))
        flipped = reassociate(abc, Product(a.space, Product(b.space, E1)))
        for cube in (ab, abc, flipped, tensor(point_cube(1.0, E1), a)):
            assert_agrees(cube, probes(cube))

    def test_zero_dimensional_cubes(self):
        p = point_cube((1.0, -2.0), Euclidean(2))
        assert_agrees(p, [()])
        assert_agrees(face(square((2.0,), "t1*t1"), 1, Sign.PLUS), [()])

    def test_make_cube_leaf(self):
        c = make_cube(2, (1.0, 3.0), Euclidean(2), lambda ts: [int(ts[0] > 0.5), ts[1] * (3 - ts[1])])
        assert_agrees(c, probes(c))
        assert_agrees(compose_strict(c, c, 2), probes(compose_strict(c, c, 2)))

    def test_opaque_leaf_under_a_dsl_leaf(self):
        inner = make_cube(1, (1.0,), E1, lambda ts: (2 * ts[0],))
        c = tensor(inner, square((1.0,), "t1 - 1"))
        assert_agrees(c, probes(c))


class TestCompose:
    def test_rows_at_and_beside_the_seam(self):
        left = square((1.0, 1.0), "t1 + t2")
        right = square((2.0, 1.0), "1 + t1^2 + t2 + 1e-12")  # which piece reads the seam shows
        c = compose_strict(left, right, 1)
        seam = [
            (1.0, 0.5),
            (math.nextafter(1.0, 0.0), 0.5),
            (math.nextafter(1.0, 2.0), 0.5),
            (3.0, 1.0),
            (1.0, 1.0),
        ]
        assert_agrees(c, probes(c, seam))

    def test_lenient_with_a_narrower_left_piece(self):
        left = square((1.0, 0.5), "t1 + t2*(t1 - 1)")
        right = square((1.0, 2.0), "1 + t1*t2")
        c = compose_lenient(left, right, 1)
        assert c.shape.extents == (2.0, 2.0)
        assert_agrees(c, probes(c, [(0.25, 1.5), (1.0, 2.0), (1.5, 0.75)]))

    @pytest.mark.parametrize("delta", [1e-12, -1e-12])
    def test_strict_with_a_right_piece_off_by_a_picometre(self, delta):
        left = square((1.0, 1.0), "t1*t2")
        right = square((1.0, 1.0 + delta), "t2 + t1*t1*t2")
        c = compose_strict(left, right, 1)
        assert_agrees(c, probes(c, [(1.5, 1.0), (1.5, 1.0 + delta), (2.0, 1.0 - 1e-13)]))

    def test_nested_composites_in_two_directions(self):
        a = square((1.0, 1.0), "t1 + t2")
        b = square((0.5, 1.0), "t1 + 1 + t2")
        row = compose_strict(a, b, 1)
        top = square((1.5, 2.0), "t1 + 1 + t2^2")
        c = compose_strict(row, top, 2)
        cube = reverse(connection(c, 1, Sign.MINUS), 2)
        assert_agrees(cube, probes(cube, [(1.0, 1.0, 1.0), (1.5, 0.2, 3.0)]))


LINE = cube_from_exprs(1, (0.5,), E1, ["1 - t1"])

# The six node kinds whose act is their columns on one row.
PASS_THROUGH = {
    "face": lambda c: face(c, 2, Sign.PLUS),
    "degeneracy": lambda c: degeneracy(c, 1),
    "connection": lambda c: connection(c, 1, Sign.MINUS),
    "reverse": lambda c: reverse(c, 1),
    "tensor": lambda c: tensor(c, LINE),
    "reassociate": lambda c: reassociate(tensor(tensor(c, LINE), LINE), Product(c.space, Product(E1, E1))),
}


def outside(cube):
    """probes(cube), and two points whose coordinates are below 0 and past the extents in turn."""
    return probes(cube, [
        [r + 2.5 if k % 2 else -1.0 for k, r in enumerate(cube.shape)],
        [-1.0 if k % 2 else r + 2.5 for k, r in enumerate(cube.shape)],
    ])


def first_fault(evaluate, points):
    """(index, message, span) of the first point at which evaluate raises EvalError."""
    for k, p in enumerate(points):
        try:
            evaluate(p)
        except EvalError as exc:
            return k, str(exc), exc.span
    return None


@pytest.mark.parametrize("kind", PASS_THROUGH)
class TestPassThroughPointRule:
    """at of a face, degeneracy, connection, reverse, tensor or reassociate reads the reference's bits."""

    def test_points_below_zero_and_past_the_extents(self, kind):
        c = PASS_THROUGH[kind](square((1.0, 0.5)))
        assert_agrees(c, outside(c))

    def test_a_negative_zero_extent(self, kind):
        c = PASS_THROUGH[kind](cube_from_exprs(2, (-0.0, 0.5), Euclidean(2), ["t1", "t1*t2 - t2"]))
        points = outside(c)
        assert_agrees(c, points)
        assert "-0.0" in repr([c.at(p).coords for p in points])

    def test_a_nan_leaf(self, kind):
        c = PASS_THROUGH[kind](square((1.0, 0.5), "t1*t2*1e308*10 - t1*t2*1e308*10"))
        points = outside(c)
        assert_agrees(c, points)
        assert "nan" in repr([c.at(p).coords for p in points])

    def test_a_faulting_leaf(self, kind):
        c = PASS_THROUGH[kind](square((1.0, 0.5), "1/(t1 - 0.5)"))
        points = outside(c)
        want = first_fault(c.at, points)
        assert want[1:] == ("division by zero", (0, 12))
        assert first_fault(lambda p: reference(c, p), points) == want


class TestZeroDimensionalComparisons:
    """The oracle's 0-d scan reads a face or seam through the node's act."""

    a = cube_from_exprs(1, (0.3,), E1, ["0.1 + t1^3/7"])
    b = cube_from_exprs(1, (0.7,), E1, ["0.1 + 0.3^3/7 + sin(t1)"])
    off = cube_from_exprs(1, (0.7,), E1, ["0.1 + 0.3^3/7 + 1e-6 + sin(t1)"])

    def test_a_face_of_a_composite_against_a_face_of_its_piece(self):
        ab = compose_strict(self.a, self.b, 1)
        eq = oracle.equals_strict(face(ab, 1, Sign.MINUS), face(self.a, 1, Sign.MINUS))
        assert repr(eq) == "Equality(equal=True, reason='equal', witness=None, detail=None)"
        eq = oracle.equals_strict(face(ab, 1, Sign.PLUS), face(self.a, 1, Sign.PLUS))
        assert repr(eq) == (
            "Equality(equal=False, reason='action', witness=EqualityWitness(point=(), "
            "left=Point(coords=(0.7480748300948339,)), right=Point(coords=(0.10385714285714286,)), "
            "distance=0.644217687237691), detail=None)"
        )

    def test_the_seam_of_two_reversed_pieces(self):
        ba = compose_strict(reverse(self.b, 1), reverse(self.a, 1), 1)
        assert ba.shape.extents == (1.0,)
        eq = oracle.equals_faces(reverse(self.off, 1), reverse(self.a, 1), 1)
        witness = (
            "EqualityWitness(point=(), left=Point(coords=(0.10385814285714286,)), "
            "right=Point(coords=(0.10385714285714286,)), distance=1.000000000001e-06)"
        )
        assert repr(eq) == f"Equality(equal=False, reason='action', witness={witness}, detail=None)"
        with pytest.raises(CompositionUndefined) as info:
            compose_strict(reverse(self.off, 1), reverse(self.a, 1), 1)
        assert str(info.value) == f"faces in direction 1 differ (action): {witness}"


def point_scan(a, b, points):
    """The oracle's rule with at, point by point: the farthest point, or the first NaN one."""
    worst, found = -1.0, None
    for t in points:
        pa, pb = a.at(t).coords, b.at(t).coords
        d = a.space.distance(pa, pb)
        if not d <= worst:
            worst, found = d, (t, pa, pb)
            if d != d:
                break
    return repr(worst), repr(found)


def oracle_scan(eq):
    w = eq.witness
    return repr(w.distance), repr((w.point, w.left.coords, w.right.coords))


def first_error(fn):
    with pytest.raises(EvalError) as info:
        fn()
    return str(info.value), info.value.span


def point_error(a, b, points):
    """The error that evaluating a and then b at each point in turn raises."""

    def run():
        for t in points:
            a.at(t), b.at(t)

    return first_error(run)


class TestFaultsAndNaN:
    def test_a_division_by_zero_is_the_same_error_from_at_oracle_and_compose(self):
        c = square((2.0, 1.0), "t2 + 1/(t1 - 1)")
        other = square((2.0, 1.0), "t2")
        want = first_error(lambda: c.at((1.0, 0.0)))
        assert want == ("division by zero", (5, 15))
        assert first_error(lambda: oracle.equals_strict(c, other)) == want
        assert first_error(lambda: oracle.equals_action(other, c)) == want
        top = square((2.0, 1.0), "1 + 1/(t1 - 1)")
        assert first_error(lambda: compose_strict(c, top, 2)) == want

    def test_both_sides_fault_the_earlier_point_names_its_side(self):
        a = square((2.0, 1.0), "t2 + 1/(t1 - 1.5)")
        b = square((2.0, 1.0), "1/(t1 - 0.5)")
        points = list(oracle.grid(a.shape))
        want = point_error(a, b, points)
        assert want == ("division by zero", (0, 12))  # b's fault, at t1 = 0.5
        assert first_error(lambda: oracle.equals_strict(a, b)) == want
        assert first_error(lambda: oracle.equals_strict(b, a)) == point_error(b, a, points)

    def test_a_composite_side_faults_at_its_first_faulting_point(self):
        # Both faces are 0.  The left piece faults at (1.5, 0.5), the right
        # one at (0.5, 1 + 0.5), which comes first in the grid's order.
        left = square((2.0, 1.0), "(t2 - 1)/((t1 - 1.5)^2 + (t2 - 0.5)^2)")
        right = square((2.0, 1.0), "t2/((t1 - 0.5)^2 + (t2 - 0.5)^2)")
        c = compose_strict(left, right, 2)
        points = list(oracle.grid(c.shape))
        want = point_error(c, c, points)
        assert want == ("division by zero", (0, 32))
        assert first_error(lambda: oracle.equals_strict(c, c)) == want
        # Piece by piece, the left piece's fault is met first.
        assert first_error(lambda: c.coords_at(points)) == ("division by zero", (0, 38))

    def test_the_first_nan_point_is_the_witness(self):
        a = square((2.0, 1.0), "t1*t2*1e308*10 - t1*t2*1e308*10")  # inf - inf off the axes
        b = square((2.0, 1.0), "5*t1")
        eq = oracle.equals_strict(a, b)
        assert not eq and eq.witness.point == (0.5, 0.5) and math.isnan(eq.witness.distance)
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    def test_a_nan_point_before_a_fault_is_the_witness(self):
        nan = "t1*t2*1e308*10 - t1*t2*1e308*10"  # NaN from (0.5, 0.5) on
        a = square((2.0, 1.0), f"{nan} + 1/(t1 - 2)")  # a fault from (2, 0) on
        b = square((2.0, 1.0), "5*t1")
        eq = oracle.equals_strict(a, b)
        assert not eq and eq.witness.point == (0.5, 0.5) and math.isnan(eq.witness.distance)
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    @pytest.mark.parametrize("block", [1, 2, 5, 2048])
    def test_tied_maxima_name_the_first_farthest_point(self, block, monkeypatch):
        monkeypatch.setattr(core, "SCAN_BLOCK", block)
        a = square((2.0, 1.0), "min(t1, 1)*min(t2, 0.5)")  # 0.5 from t1 >= 1, t2 >= 0.5 on
        b = square((2.0, 1.0), "0")
        eq = oracle.equals_strict(a, b)
        assert eq.witness.point == (1.0, 0.5) and eq.witness.distance == 0.5
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    @pytest.mark.parametrize("block", [1, 2, 7, 2048])
    def test_blocks_keep_the_witness_and_the_fault(self, block, monkeypatch):
        monkeypatch.setattr(core, "SCAN_BLOCK", block)
        big = EqualityOracle(samples_per_axis=7)
        shape = (1.0, 2.0, 3.0, 0.5)  # 8^4 = 4,096 points
        a = cube_from_exprs(4, shape, E1, ["t1*t2 - t3*t4 + t4^2"])
        b = cube_from_exprs(4, shape, E1, ["t1*t2 - t3*t4 + t4*t4*(1 + t1/1e6)"])
        eq = big.equals_strict(a, b)
        assert oracle_scan(eq) == point_scan(a, b, big.grid(a.shape))
        # NaN (inf - inf) only at t1 = 1 and its probe, a fault only at
        # t1 = 1, t4 = 0.5: both past the first 2,048 points.
        inf = "max(t1 - 0.9, 0)*1e308*100"
        nan = cube_from_exprs(4, shape, E1, [f"{inf} - {inf} + t3"])
        eq = big.equals_strict(nan, a)
        assert math.isnan(eq.witness.distance) and eq.witness.point[0] == 1.0
        assert oracle_scan(eq) == point_scan(nan, a, big.grid(a.shape))
        bad = cube_from_exprs(4, shape, E1, ["1/((t1 - 1)^2 + (t4 - 0.5)^2)"])
        assert first_error(lambda: big.equals_strict(a, bad)) == point_error(
            a, bad, big.grid(a.shape)
        )


def counting_cube(extents, rows):
    """A 3-d make_cube leaf whose evaluator appends each row it is given to rows.

    An opaque leaf's columns call its evaluator once per row.
    """

    def act(ts):
        rows.append(ts)
        return (ts[0] - 2 * ts[1] + ts[0] * ts[2],)

    return make_cube(3, extents, E1, act)


class TestDistinctRows:
    """The scan evaluates each distinct clamped grid row once, and reads what at reads."""

    def test_a_cube_against_itself_reads_each_clamped_row_once(self):
        rows = []
        c = counting_cube((1.0, 2.0, 0.5), rows)
        assert oracle.equals_strict(c, c)
        # each side reads 5^3 rows: the probe r + 1 clamps back to r on every axis
        assert len(rows) == 2 * 5**3 and len(set(rows)) == 5**3

    def test_a_probe_that_clamps_apart_is_read(self):
        rows_a, rows_b = [], []
        a = counting_cube((1.0, 2.0, 0.5), rows_a)
        b = counting_cube((1.0, 2.0 + 1e-12, 0.5), rows_b)
        assert oracle.equals_strict(a, b)
        assert len(rows_a) == len(rows_b) == 5 * 6 * 5

    @pytest.fixture(params=[1, 2, 7, 2048])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(core, "SCAN_BLOCK", request.param)
        return request.param

    def test_the_farthest_point_on_a_probe_row_of_the_wider_side(self, block):
        a = square((1.0, 2.0), "1e6*t2^2*(1 + t1)")
        b = square((1.0, 2.0 + 1e-10), "1e6*t2^2*(1 + t1)")
        eq = oracle.equals_strict(a, b)
        assert not eq and eq.witness.point == (1.0, 3.0)
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    def test_a_union_grid_of_unequal_shapes(self, block):
        a = square((1.0, 2.0), "t1^2 + 3*t2 - t1*t2")
        b = square((1.5, 0.5), "t1^2 + 3*t2 - t1*t2 + t1*t2/100")
        eq = oracle.equals_action(a, b)
        assert not eq
        assert oracle_scan(eq) == point_scan(a, b, oracle.union_grid(a.shape, b.shape))

    def test_a_negative_zero_extent_keeps_its_probe(self, block):
        def act(ts):
            return (math.copysign(1.0, ts[0]) + ts[1],)

        a = make_cube(2, (-0.0, 1.0), E1, act)
        b = make_cube(2, (0.0, 1.0), E1, act)
        eq = oracle.equals_strict(a, b)  # the probe 1.0 clamps to -0.0 in a, 0.0 in b
        assert not eq and eq.witness.point == (1.0, 0.0) and eq.witness.distance == 2.0
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    def test_a_nan_on_a_probe_row_of_the_wider_side(self, block):
        inf = "max(t2 - 2, 0)*1e308*1e308*1e308"
        a = square((1.0, 2.0), "t1 + t2")
        b = square((1.0, 2.0 + 1e-12), f"{inf} - {inf} + t1 + t2")
        eq = oracle.equals_strict(a, b)
        assert not eq and eq.witness.point == (0.0, 3.0) and math.isnan(eq.witness.distance)
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))

    def test_a_fault_on_a_probe_row_of_the_wider_side(self, block):
        a = square((1.0, 2.0), "t1 + t2")
        b = square((1.0, 2.0 + 2**-40), "t1 + t2 + 1/(1 - 1099511627776*max(t2 - 2, 0)) - 1")
        assert oracle.equals_strict(a, square((1.0, 2.0), "t1 + t2 + 1/(1 - 1099511627776*max(t2 - 2, 0)) - 1"))
        want = point_error(a, b, oracle.grid(a.shape))
        assert want[0] == "division by zero"
        assert first_error(lambda: oracle.equals_strict(a, b)) == want

    def test_a_nan_row_before_a_faulting_probe_row(self, block):
        nan = "t1*t2*1e308*10 - t1*t2*1e308*10"  # NaN from (0.5, 0.5) on
        a = square((2.0, 1.0), "t1 + t2")
        b = square((2.0, 1.0 + 2**-40), f"{nan} + 1/(1 - 1099511627776*max(t2 - 1, 0)*min(t1, 1))")
        eq = oracle.equals_strict(a, b)
        assert not eq and eq.witness.point == (0.5, 0.5) and math.isnan(eq.witness.distance)
        assert oracle_scan(eq) == point_scan(a, b, oracle.grid(a.shape))


def partner(rng, oracle, a, how):
    """A cube to compare a with: a itself, or one built from it as how names."""
    dim, extents = a.dim, a.shape.extents
    if how == "same shape":
        return gen_cube(rng, dim, space=a.space, shape=a.shape)
    if how == "other shape":
        return gen_cube(rng, dim, space=a.space)
    if how == "near shape" and dim:  # wider by less than tol_shape, so its probe row is read apart
        i = rng.randrange(dim)
        return MooreCube(Shape(extents[:i] + (extents[i] + 1e-12,) + extents[i + 1 :]), a.space, a.provenance)
    if how == "mapped":
        names = [n for n in ("reverse", "strict", "lenient", "chain", "reassociate") if dim in MAP_DIMS[n]]
        name = rng.choice(names)
        if name != "chain" or getattr(a.provenance, "exprs", None) is not None:
            return mapped(rng, name, a)
    if how == "faulting":  # each coordinate faults on, or is NaN past, a grid value of one axis
        def leaf():
            if not dim:
                return rng.choice(["1/0", "1e308*10 - 1e308*10", "2"])
            i = rng.randint(1, dim)
            x = repr(rng.choice(oracle.axis_samples(extents[i - 1])))
            nan = f"(t{i} - {x})*1e308*10 - (t{i} - {x})*1e308*10"
            return rng.choice([f"1/(t{i} - {x})", f"{x}*t{i} + 1/(t{i} - {x})", nan, f"{x}*t{i}"])

        return cube_from_exprs(dim, extents, a.space, [leaf() for _ in range(a.space.total_dim)])
    return a


def assert_scans_as_at(oracle, a, b, lenient, compare):
    """compare(), the oracle on a and b, is what at gives point by point on the whole grid.

    That is the reason where the dims, the spaces or (when strict) the
    shapes differ.  Otherwise it is equal exactly when the worst distance
    is <= tol_val, else unequal with point_scan's witness; and where a side
    faults, it raises point_error's error.
    """
    if a.dim != b.dim or a.space != b.space or not (lenient or oracle.shapes_equal(a.shape, b.shape)):
        assert compare().reason == ("dim" if a.dim != b.dim else "space" if a.space != b.space else "shape")
        return
    points = list(oracle.union_grid(a.shape, b.shape) if lenient else oracle.grid(a.shape))
    try:
        want = point_scan(a, b, points)
    except EvalError:
        assert first_error(compare) == point_error(a, b, points)
        return
    eq = compare()
    assert eq.equal == (float(want[0]) <= oracle.tol_val)  # a NaN distance is never equal
    if eq:
        assert eq.reason == "equal" and eq.witness is None
    else:
        assert eq.reason == "action" and oracle_scan(eq) == want


@given(
    st.integers(0, 2**32),
    st.integers(0, 3),
    st.lists(st.sampled_from(sorted(MAP_DIMS)), max_size=3),
    st.lists(
        st.sampled_from(["same", "same shape", "other shape", "near shape", "mapped", "faulting"]),
        min_size=2,
        max_size=2,
    ),
    st.sampled_from([1, 2, 7, 2048]),
    st.sampled_from([2, 3, 5]),
    st.sampled_from([0.0, 1e-9, 0.5]),
)
@example(38, 2, [], ["faulting", "faulting"], 7, 5, 1e-9)  # both sides fault first on one row: a's error
@settings(max_examples=100, deadline=None)
def test_the_oracle_gives_what_at_gives_point_by_point(seed, dim, names, hows, block, samples, tol):
    """equals_strict, equals_action and equals_faces (strict and lenient) against point_scan."""
    rng = random.Random(seed)
    oracle = EqualityOracle(samples, tol)
    cube = fuzz_cube(rng, dim, names)
    a, b = (partner(rng, oracle, cube, how) for how in hows)
    with mock.patch.object(core, "SCAN_BLOCK", block):
        for lenient in (False, True):
            compare = oracle.equals_action if lenient else oracle.equals_strict
            assert_scans_as_at(oracle, a, b, lenient, lambda: compare(a, b))
            if a.dim and b.dim:
                j = rng.randint(1, min(a.dim, b.dim))
                faces = face(a, j, Sign.PLUS), face(b, j, Sign.MINUS)
                assert_scans_as_at(oracle, *faces, lenient, lambda: oracle.equals_faces(a, b, j, lenient))
