"""Strict and lenient composition, and grid pasting."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorecubes import (
    BadIndex,
    ComposeNode,
    CompositionUndefined,
    DimensionMismatch,
    EqualityOracle,
    Euclidean,
    Sign,
    compose_lenient,
    compose_strict,
    connection,
    degeneracy,
    face,
    make_cube,
    multi_compose,
)
from moorecubes.expr import cube_from_exprs
from moorecubes.generators import extend_chain, gen_composable_pair, gen_cube, quadrants, subdivide

oracle = EqualityOracle()


def const2(r1: float, r2: float, value: float = 0.0):
    return make_cube(2, (r1, r2), Euclidean(1), lambda ts: (value,))


class TestComposeStrict:
    def test_running_example(self, c_square, c_line):
        h = compose_strict(c_square, c_line, 1)
        assert h.shape.extents == (5.0,)
        assert h.at((1.25,)).coords == (1.5625,)
        assert h.at((4.0,)).coords == (6.0,)
        assert h.at((5.0,)).coords == (7.0,)
        assert h.at((6.0,)).coords == (7.0,)

    def test_seam_uses_the_left_piece(self, c_square, c_line):
        h = compose_strict(c_square, c_line, 1)
        assert h.at((2.0,)).coords == (4.0,)

    def test_rejects_mismatched_side_extents(self):
        with pytest.raises(CompositionUndefined) as exc:
            compose_strict(const2(1.0, 1.0), const2(1.0, 2.0), 1)
        assert exc.value.reason == "shape"
        assert exc.value.direction == 1

    def test_rejects_mismatched_seam_values(self, c_square):
        other = make_cube(1, (1.0,), Euclidean(1), lambda ts: (9.0 + ts[0],))
        with pytest.raises(CompositionUndefined) as exc:
            compose_strict(c_square, other, 1)
        assert exc.value.reason == "action"
        assert exc.value.witness is not None
        assert exc.value.witness.distance == 5.0

    def test_rejects_mismatched_dimensions(self, c_square):
        with pytest.raises(DimensionMismatch):
            compose_strict(c_square, const2(1.0, 1.0), 1)

    def test_rejects_mismatched_spaces(self, c_square):
        other = make_cube(1, (2.0,), Euclidean(2), lambda ts: (ts[0], 0.0))
        with pytest.raises(DimensionMismatch):
            compose_strict(c_square, other, 1)

    def test_direction_out_of_range(self, c_square, c_line):
        with pytest.raises(BadIndex):
            compose_strict(c_square, c_line, 2)

    def test_identity_on_the_right(self, c_square):
        ident = degeneracy(face(c_square, 1, Sign.PLUS), 1)
        h = compose_strict(c_square, ident, 1)
        assert h.shape.extents == c_square.shape.extents
        assert oracle.equals_strict(h, c_square)

    def test_identity_on_the_left(self, c_square):
        ident = degeneracy(face(c_square, 1, Sign.MINUS), 1)
        h = compose_strict(ident, c_square, 1)
        assert h.shape.extents == c_square.shape.extents
        assert oracle.equals_strict(h, c_square)


class TestComposeLenient:
    def test_agrees_with_strict_when_shapes_match(self, c_square, c_line):
        strict = compose_strict(c_square, c_line, 1)
        lenient = compose_lenient(c_square, c_line, 1)
        assert oracle.equals_strict(strict, lenient)

    def test_widens_side_extents_to_the_max(self):
        q = 1.5
        a = make_cube(1, (1.0,), Euclidean(1), lambda ts: (ts[0],))
        b = make_cube(1, (q,), Euclidean(1), lambda ts: (1.0 + ts[0],))
        lhs = degeneracy(a, 2)
        rhs = connection(b, 1, Sign.PLUS)
        with pytest.raises(CompositionUndefined):
            compose_strict(lhs, rhs, 1)
        wide = compose_lenient(lhs, rhs, 1)
        assert wide.shape.extents == (1.0 + q, q)

    def test_rejects_action_mismatch_with_witness(self):
        a = make_cube(1, (1.0,), Euclidean(1), lambda ts: (0.0,))
        b = make_cube(1, (1.0,), Euclidean(1), lambda ts: (5.0,))
        with pytest.raises(CompositionUndefined) as exc:
            compose_lenient(a, b, 1)
        assert exc.value.reason == "action"
        assert exc.value.witness.distance == 5.0


class TestComposeClamps:
    """A composite clamps a point only where it can leave a piece's box.

    Each piece is a DSL leaf, which does not clamp by itself, so a missing
    clamp shows in the values; each test plants its clamp away and sees it.
    """

    @staticmethod
    def _reads_piece(cube, piece, points, cut):
        """Whether cube.at and cube.coords_at give piece.at at the points, shifted back by cut in direction 1."""
        want = [piece.at((p[0] - cut, *p[1:])).coords for p in points]
        return [cube.at(p).coords for p in points] == want, cube.coords_at(points) == want

    def test_a_lenient_left_piece_narrower_across_the_seam(self, monkeypatch):
        a = cube_from_exprs(2, (1.0, 1.0), Euclidean(1), ["t1 + 10*t2"])
        b = cube_from_exprs(2, (1.0, 2.0), Euclidean(1), ["1 + 10*min(t2, 1) + t1"])
        whole = compose_lenient(a, b, 1)
        assert whole.shape.extents == (2.0, 2.0)
        points = [(0.0, 1.5), (0.5, 2.0), (1.0, 1.25)]  # on a, beyond its extent 1 in direction 2
        assert self._reads_piece(whole, a, points, 0.0) == (True, True)
        bounds = ComposeNode._bounds
        monkeypatch.setattr(ComposeNode, "_bounds", lambda node, right: bounds(node, right) if right else [])
        assert self._reads_piece(whole, a, points, 0.0) == (False, False)

    def test_a_strict_right_piece_tol_shape_narrower(self, monkeypatch):
        a = cube_from_exprs(2, (1.0, 1.0), Euclidean(1), ["t1"])
        b = cube_from_exprs(2, (1.0, 0.75), Euclidean(1), ["1 + t1*t2"])
        whole = compose_strict(a, b, 1, EqualityOracle(tol_shape=0.25))
        assert whole.shape.extents == (2.0, 1.0)
        points = [(1.5, 0.8), (2.0, 1.0), (1.25, 0.9)]  # on b, beyond its extent 0.75 in direction 2
        assert self._reads_piece(whole, b, points, 1.0) == (True, True)
        bounds = ComposeNode._bounds
        monkeypatch.setattr(
            ComposeNode, "_bounds", lambda node, right: [(i, r) for i, r in bounds(node, right) if i == 0]
        )
        assert self._reads_piece(whole, b, points, 1.0) == (False, False)

    def test_a_right_piece_at_the_end_of_the_composite(self, monkeypatch):
        a = cube_from_exprs(1, (0.1,), Euclidean(1), ["t1 - 0.1"])
        b = cube_from_exprs(1, (0.2,), Euclidean(1), ["t1"])
        whole = compose_strict(a, b, 1)
        (end,) = whole.shape.extents
        assert end - 0.1 > 0.2  # (cut + s) - cut rounds past s
        points = [(end,), (end + 1.0,)]
        assert self._reads_piece(whole, b, points, 0.1) == (True, True)
        bounds = ComposeNode._bounds
        monkeypatch.setattr(
            ComposeNode, "_bounds", lambda node, right: [(i, r) for i, r in bounds(node, right) if i != 0]
        )
        assert self._reads_piece(whole, b, points, 0.1) == (False, False)


class TestMultiCompose:
    def test_matrix_of_shapes_adds_up(self):
        grid = [
            [const2(1.0, 1.0), const2(2.0, 1.0)],
            [const2(1.0, 3.0), const2(2.0, 3.0)],
        ]
        assert multi_compose(grid).shape.extents == (3.0, 4.0)
        assert multi_compose(grid, fold_order=(1, 2)).shape.extents == (3.0, 4.0)
        assert multi_compose(grid, fold_order=(2, 1)).shape.extents == (3.0, 4.0)

    def test_single_cube_and_singleton_grid_pass_through(self):
        c = const2(1.0, 2.0)
        assert multi_compose(c) is c
        assert multi_compose([[c]]).shape.extents == (1.0, 2.0)

    def test_one_dimensional_grid_is_a_chain(self, c_square, c_line):
        h = multi_compose([c_square, c_line])
        assert h.shape.extents == (5.0,)
        assert h.at((4.0,)).coords == (6.0,)

    def test_ragged_grid_is_rejected(self):
        with pytest.raises(DimensionMismatch):
            multi_compose([[const2(1, 1), const2(1, 1)], [const2(1, 1)]])

    def test_nesting_depth_must_match_cube_dimension(self, c_square):
        with pytest.raises(DimensionMismatch):
            multi_compose([[c_square, c_square]])

    def test_mixed_dimensions_rejected(self, c_square):
        with pytest.raises(DimensionMismatch):
            multi_compose([c_square, const2(1.0, 1.0)])

    def test_bad_fold_order_rejected(self):
        grid = [[const2(1, 1), const2(1, 1)], [const2(1, 1), const2(1, 1)]]
        with pytest.raises(BadIndex):
            multi_compose(grid, fold_order=(1, 1))

    def test_failure_reports_grid_cell_and_direction(self):
        grid = [
            [const2(1.0, 1.0), const2(2.0, 1.0)],
            [const2(1.0, 3.0), const2(2.0, 2.5)],
        ]
        with pytest.raises(CompositionUndefined) as exc:
            multi_compose(grid, fold_order=(1, 2))
        assert "grid cell" in str(exc.value)
        assert "direction 1" in str(exc.value)

    def test_recomposing_a_subdivision_recovers_the_cube(self):
        rng = random.Random(7)
        c = gen_cube(rng, 2, shape=(2.0, 3.0))
        (a, b), (d_low, d_high) = quadrants(c, 0.75, 1.5)
        grid = [[a, d_low], [b, d_high]]
        assert oracle.equals_strict(multi_compose(grid), c)


class TestMultiComposeFolds:
    """Fold order, grid containers and failure text of multi_compose."""

    @staticmethod
    def octants(c, cuts):
        """Cut a 3-cube at cuts[j - 1] in each direction j; grid[i3][i2][i1]."""
        grid = [[[None, None], [None, None]], [[None, None], [None, None]]]
        pieces = {(): c}
        for j, cut in enumerate(cuts, start=1):
            pieces = {
                idx + (side,): part
                for idx, cube in pieces.items()
                for side, part in enumerate(subdivide(cube, j, cut))
            }
        for (i1, i2, i3), piece in pieces.items():
            grid[i3][i2][i1] = piece
        return grid

    def test_six_fold_orders_of_a_2x2x2_grid_agree_strictly(self):
        c = cube_from_exprs(3, (2.0, 3.0, 1.0), Euclidean(1), ["t1*t2 - t3^2 + 2*t1"])
        grid = self.octants(c, (0.5, 1.5, 0.25))
        folds = [multi_compose(grid, oracle, order) for order in itertools.permutations((1, 2, 3))]
        assert len(folds) == 6
        for folded in folds:
            assert folded.shape.extents == (2.0, 3.0, 1.0)
            assert oracle.equals_strict(folded, folds[0])
            assert oracle.equals_strict(folded, c)

    def test_tuple_grid_folds_like_a_list_grid(self):
        rows = [
            [const2(1.0, 1.0, 2.0), const2(2.0, 1.0, 2.0)],
            [const2(1.0, 3.0, 2.0), const2(2.0, 3.0, 2.0)],
        ]
        as_lists = multi_compose(rows)
        as_tuples = multi_compose(tuple(tuple(row) for row in rows))
        assert as_tuples.shape.extents == (3.0, 4.0)
        assert oracle.equals_strict(as_tuples, as_lists)

    def test_failure_names_the_grid_cell_exactly(self):
        grid = [
            [const2(1.0, 1.0), const2(2.0, 1.0)],
            [const2(1.0, 3.0), const2(2.0, 2.5)],
        ]
        with pytest.raises(CompositionUndefined) as exc:
            multi_compose(grid, fold_order=(1, 2))
        assert str(exc.value) == (
            "grid cell (1, 1) along direction 1: faces in direction 1 differ "
            "(shape): shapes (3.0,) vs (2.5,)"
        )

    def test_failure_cell_in_a_3d_grid_follows_the_fold_order(self):
        c = cube_from_exprs(3, (2.0, 3.0, 1.0), Euclidean(1), ["t1*t2 - t3^2 + 2*t1"])
        grid = self.octants(c, (0.5, 1.5, 0.25))
        grid[1][1][1] = make_cube(3, (1.5, 1.5, 0.7), Euclidean(1), lambda ts: (0.0,))
        shape_text = "(shape): shapes (1.5, 0.75) vs (1.5, 0.7)"
        expected = {
            (1, 2, 3): f"grid cell (1, 1, 1) along direction 1: faces in direction 1 differ {shape_text}",
            (2, 3, 1): f"grid cell (1, 1, 1) along direction 2: faces in direction 2 differ {shape_text}",
            (3, 2, 1): "grid cell (1, 1, 1) along direction 3: faces in direction 3 differ (action)",
        }
        for order, text in expected.items():
            with pytest.raises(CompositionUndefined) as exc:
                multi_compose(grid, oracle, order)
            assert str(exc.value).startswith(text)
        # After direction 1 is folded away a failure names a 2-d cell.
        grid = [[const2(1.0, 1.0), const2(1.0, 1.0)], [const2(1.0, 1.0), const2(2.0, 1.0)]]
        with pytest.raises(CompositionUndefined) as exc:
            multi_compose(grid, oracle, (1, 2))
        assert str(exc.value).startswith("grid cell (1,) along direction 2: ")


class TestSubdivide:
    @pytest.fixture
    def c_square(self):
        return cube_from_exprs(1, (2.0,), Euclidean(1), ["t1^2"])

    def test_pieces_cover_the_original(self, c_square):
        left, right = subdivide(c_square, 1, 0.5)
        assert left.shape.extents == (0.5,)
        assert right.shape.extents == (1.5,)
        assert left.at((0.25,)) == c_square.at((0.25,))
        assert right.at((1.0,)) == c_square.at((1.5,))

    def test_recompose_recovers_shape_exactly(self, c_square):
        left, right = subdivide(c_square, 1, 0.7)
        back = compose_strict(left, right, 1)
        assert back.shape.extents == c_square.shape.extents
        assert oracle.equals_strict(back, c_square)

    def test_cut_outside_the_extent_rejected(self, c_square):
        with pytest.raises(BadIndex):
            subdivide(c_square, 1, 2.5)

    def test_cubes_that_are_not_dsl_primitives_are_rejected(self, c_square):
        opaque = make_cube(1, (2.0,), Euclidean(1), lambda ts: (ts[0] ** 2,))
        for cube in (opaque, degeneracy(face(c_square, 1, Sign.PLUS), 1)):
            with pytest.raises(TypeError):
                subdivide(cube, 1, 0.0)
            with pytest.raises(TypeError):
                extend_chain(random.Random(0), cube, 1)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=2))
@settings(max_examples=40, deadline=None)
def test_random_pairs_compose_and_shapes_add(seed, dim):
    rng = random.Random(seed)
    j = rng.randint(1, dim)
    a, b = gen_composable_pair(rng, dim, j)
    h = compose_strict(a, b, j)
    assert h.shape.extents[j - 1] == a.shape.extents[j - 1] + b.shape.extents[j - 1]
    for i in range(dim):
        if i != j - 1:
            assert h.shape.extents[i] == a.shape.extents[i]


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_seam_faces_match_the_shared_face(seed):
    rng = random.Random(seed)
    a, b = gen_composable_pair(rng, 2, 1)
    h = compose_strict(a, b, 1)
    assert oracle.equals_strict(face(h, 1, Sign.MINUS), face(a, 1, Sign.MINUS))
    assert oracle.equals_strict(face(h, 1, Sign.PLUS), face(b, 1, Sign.PLUS))
