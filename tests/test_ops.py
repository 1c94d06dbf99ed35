"""Faces, degeneracies, connections, and reversal."""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorecubes import (
    BadIndex,
    EqualityOracle,
    Euclidean,
    Sign,
    compose_strict,
    connection,
    degeneracy,
    face,
    make_cube,
    multi_compose,
    point_cube,
    reverse,
)
from moorecubes.core import ConnectionNode, DegeneracyNode, FaceNode, ReverseNode
from moorecubes.generators import gen_cube

oracle = EqualityOracle()


class TestFace:
    def test_lower_face_fixes_coordinate_at_zero(self, c_square):
        f = face(c_square, 1, Sign.MINUS)
        assert f.dim == 0
        assert f.at(()).coords == (0.0,)

    def test_upper_face_fixes_coordinate_at_extent(self, c_square):
        f = face(c_square, 1, Sign.PLUS)
        assert f.at(()).coords == (4.0,)

    def test_face_drops_the_indexed_extent(self):
        c = make_cube(2, (1.0, 3.0), Euclidean(1), lambda ts: (ts[0] + ts[1],))
        f = face(c, 1, Sign.PLUS)
        assert f.shape.extents == (3.0,)
        assert f.at((2.0,)).coords == (3.0,)

    def test_index_out_of_range(self, c_square):
        with pytest.raises(BadIndex):
            face(c_square, 2, Sign.PLUS)
        with pytest.raises(BadIndex):
            face(c_square, 0, Sign.PLUS)

    def test_zero_dim_cube_has_no_faces(self):
        with pytest.raises(BadIndex):
            face(point_cube(0.0, Euclidean(1)), 1, Sign.MINUS)

    def test_provenance_records_the_operation(self, c_square):
        node = face(c_square, 1, Sign.PLUS).provenance
        assert isinstance(node, FaceNode)
        assert node.i == 1 and node.sign == "+"


class TestDegeneracy:
    def test_inserts_ignored_zero_extent_slot(self, c_square):
        d = degeneracy(c_square, 1)
        assert d.shape.extents == (0.0, 2.0)
        assert d.at((9.0, 1.5)).coords == (2.25,)

    def test_insert_position_may_be_dim_plus_one(self, c_square):
        d = degeneracy(c_square, 2)
        assert d.shape.extents == (2.0, 0.0)
        assert d.at((1.5, 9.0)).coords == (2.25,)

    def test_index_out_of_range(self, c_square):
        with pytest.raises(BadIndex):
            degeneracy(c_square, 3)

    def test_degeneracy_of_a_point_is_a_constant_path(self):
        d = degeneracy(point_cube(7.0, Euclidean(1)), 1)
        assert d.dim == 1 and d.shape.extents == (0.0,)
        assert d.at((3.0,)).coords == (7.0,)

    def test_face_of_degeneracy_recovers_the_cube(self, c_square):
        d = degeneracy(c_square, 1)
        for sign in (Sign.MINUS, Sign.PLUS):
            assert oracle.equals_strict(face(d, 1, sign), c_square)

    def test_provenance_records_the_operation(self, c_square):
        node = degeneracy(c_square, 1).provenance
        assert isinstance(node, DegeneracyNode) and node.i == 1


class TestConnection:
    def test_replaces_the_slot_by_two_copies_of_its_extent(self, c_square):
        g = connection(c_square, 1, Sign.PLUS)
        assert g.dim == 2
        assert g.shape.extents == (2.0, 2.0)

    def test_plus_merges_with_min(self, c_square):
        g = connection(c_square, 1, Sign.PLUS)
        assert g.at((1.0, 1.5)).coords == (1.0,)
        assert g.at((1.5, 1.0)).coords == (1.0,)

    def test_minus_merges_with_max(self, c_square):
        g = connection(c_square, 1, Sign.MINUS)
        assert g.at((1.0, 1.5)).coords == (2.25,)
        assert g.at((0.5, 0.25)).coords == (0.25,)

    def test_keeps_other_extents(self):
        c = make_cube(2, (1.0, 3.0), Euclidean(1), lambda ts: (ts[0] * ts[1],))
        g = connection(c, 2, Sign.MINUS)
        assert g.shape.extents == (1.0, 3.0, 3.0)

    def test_needs_at_least_one_direction(self):
        with pytest.raises(BadIndex):
            connection(point_cube(0.0, Euclidean(1)), 1, Sign.PLUS)

    def test_index_out_of_range(self, c_square):
        with pytest.raises(BadIndex):
            connection(c_square, 2, Sign.PLUS)

    def test_provenance_records_the_operation(self, c_square):
        node = connection(c_square, 1, Sign.MINUS).provenance
        assert isinstance(node, ConnectionNode)
        assert node.i == 1 and node.sign == "-"


class TestReverse:
    def test_runs_the_direction_backwards(self, c_square):
        r = reverse(c_square, 1)
        assert r.shape.extents == (2.0,)
        assert r.at((0.5,)).coords == (2.25,)
        assert r.at((2.0,)).coords == (0.0,)

    def test_is_an_involution(self, c_square):
        assert oracle.equals_strict(reverse(reverse(c_square, 1), 1), c_square)

    def test_index_out_of_range(self, c_square):
        with pytest.raises(BadIndex):
            reverse(c_square, 2)

    def test_provenance_records_the_operation(self, c_square):
        node = reverse(c_square, 1).provenance
        assert isinstance(node, ReverseNode) and node.i == 1


class TestIndicesMustBeInts:
    """An index that is not an int, or is a bool, is refused before anything is built."""

    @staticmethod
    def cube():
        return make_cube(2, (1.0, 2.0), Euclidean(1), lambda ts: (ts[0] * ts[1],))

    @pytest.mark.parametrize(
        "build",
        [
            lambda c: face(c, 1.0, Sign.PLUS),
            lambda c: face(c, True, Sign.PLUS),
            lambda c: degeneracy(c, 1.5),
            lambda c: connection(c, 1.0, Sign.MINUS),
            lambda c: reverse(c, 2.0),
            lambda c: reverse(c, True),
            lambda c: oracle.equals_faces(c, c, 1.0),
        ],
        ids=["face-float", "face-bool", "degeneracy", "connection", "reverse-float", "reverse-bool", "seam"],
    )
    def test_structure_maps(self, build):
        with pytest.raises(BadIndex, match=r"index must be an int, got (1\.0|True|1\.5|2\.0)$"):
            build(self.cube())

    @pytest.mark.parametrize("j", [1.0, True])
    def test_composition_direction(self, j):
        c = self.cube()
        with pytest.raises(BadIndex, match=f"composition direction must be an int, got {j!r}$"):
            compose_strict(c, c, j)

    @pytest.mark.parametrize("order", [[1.0, 2.0], [True, 2], (2, 1.0)])
    def test_fold_order(self, order):
        c = self.cube()
        with pytest.raises(BadIndex, match="is not a permutation of 1..2"):
            multi_compose([[c, c], [c, c]], fold_order=order)

    def test_out_of_range_ints_keep_their_message(self):
        c = self.cube()
        with pytest.raises(BadIndex, match="^reverse index 3 out of range 1..2$"):
            reverse(c, 3)
        with pytest.raises(BadIndex, match="^composition direction 0 out of range 1..2$"):
            compose_strict(c, c, 0)


class TestSign:
    def test_values_are_the_symbols(self):
        assert Sign.MINUS.value == "-" and Sign.PLUS.value == "+"

    def test_opposite(self):
        assert Sign.MINUS.opposite is Sign.PLUS
        assert Sign.PLUS.opposite is Sign.MINUS

    @pytest.mark.parametrize("sign", ["+", "-", None, 1, True])
    @pytest.mark.parametrize("op", [face, connection], ids=["face", "connection"])
    def test_a_sign_that_is_not_a_sign_is_refused(self, op, sign):
        c = make_cube(2, (1.0, 2.0), Euclidean(1), lambda ts: (ts[0] * ts[1],))
        with pytest.raises(BadIndex, match=re.escape(f"sign must be Sign.MINUS or Sign.PLUS, got {sign!r}") + "$"):
            op(c, 1, sign)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_face_of_degeneracy_is_identity_on_random_cubes(seed, dim):
    rng = random.Random(seed)
    c = gen_cube(rng, dim)
    i = rng.randint(1, dim + 1)
    d = degeneracy(c, i)
    for sign in (Sign.MINUS, Sign.PLUS):
        assert oracle.equals_strict(face(d, i, sign), c)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_connection_faces_collapse_as_expected(seed, dim):
    """Outer faces of a connection give back the cube or a degenerate face."""
    rng = random.Random(seed)
    c = gen_cube(rng, dim)
    i = rng.randint(1, dim)
    plus = connection(c, i, Sign.PLUS)
    minus = connection(c, i, Sign.MINUS)
    # the two slots of a plus-connection end (at their upper face) in the cube
    assert oracle.equals_strict(face(plus, i, Sign.PLUS), c)
    assert oracle.equals_strict(face(plus, i + 1, Sign.PLUS), c)
    assert oracle.equals_strict(face(minus, i, Sign.MINUS), c)
    assert oracle.equals_strict(face(minus, i + 1, Sign.MINUS), c)
