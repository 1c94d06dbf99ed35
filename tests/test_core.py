"""Shapes, spaces, cubes, clamped evaluation, and the equality oracle."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moorecubes import (
    Equality,
    EqualityOracle,
    Euclidean,
    InvalidShape,
    MooreCube,
    Point,
    Product,
    Shape,
    cube_from_exprs,
    make_cube,
    point_cube,
    tensor,
)
from moorecubes.errors import DimensionMismatch

extents_st = st.lists(
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False), min_size=0, max_size=3
)


class TestShape:
    def test_holds_extents_and_iterates(self):
        s = Shape((1.0, 2.5, 0.0))
        assert len(s) == 3
        assert list(s) == [1.0, 2.5, 0.0]
        assert s[1] == 2.5

    def test_rejects_negative_extent(self):
        with pytest.raises(InvalidShape):
            Shape((1.0, -0.1))

    def test_rejects_non_finite_extent(self):
        with pytest.raises(InvalidShape):
            Shape((math.inf,))
        with pytest.raises(InvalidShape):
            Shape((math.nan,))

    def test_empty_shape_is_a_point(self):
        assert len(Shape(())) == 0

    @pytest.mark.parametrize("bad", ["1.0", True, False, None, b"1"])
    def test_rejects_an_extent_that_is_not_a_number(self, bad):
        with pytest.raises(InvalidShape, match=r"is not a number"):
            Shape((1.0, bad))

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["huge", "minus_huge"])
    def test_rejects_an_int_too_large_for_a_float(self, big):
        with pytest.raises(InvalidShape) as exc:
            Shape((1.0, big))
        assert str(exc.value) == f"extent {big!r} is too large for a float"

    def test_accepts_ints_floats_and_float_subclasses(self):
        class Length(float):
            pass

        s = Shape((2, 0.5, Length(1.5)))
        assert s.extents == (2.0, 0.5, 1.5)
        assert all(type(r) is float for r in s.extents)


class TestSpaces:
    def test_euclidean_distance(self):
        e = Euclidean(2)
        assert e.distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_product_distance_is_max_of_parts(self):
        p = Product(Euclidean(2), Euclidean(1))
        assert p.total_dim == 3
        assert p.distance((0.0, 0.0, 0.0), (3.0, 4.0, 2.0)) == 5.0
        assert p.distance((0.0, 0.0, 0.0), (0.0, 1.0, 7.0)) == 7.0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_distances_on_columns_are_the_distance_of_each_point(self, data):
        coord = st.one_of(
            st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e308, -1e308]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        space = data.draw(
            st.sampled_from(
                [
                    Euclidean(0),
                    Euclidean(1),
                    Euclidean(2),
                    Euclidean(3),
                    Product(Euclidean(1), Euclidean(1)),
                    Product(Euclidean(0), Euclidean(2)),
                    Product(Euclidean(2), Product(Euclidean(1), Euclidean(0))),
                ]
            )
        )
        n = data.draw(st.integers(min_value=1, max_value=6))
        point = st.tuples(*[coord] * space.total_dim)
        ps = data.draw(st.lists(point, min_size=n, max_size=n))
        qs = data.draw(st.lists(point, min_size=n, max_size=n))
        columns = [list(zip(*ps)), list(zip(*qs))]
        want = [repr(space.distance(p, q)) for p, q in zip(ps, qs)]
        assert [repr(d) for d in space.distances(*columns, n)] == want

    def test_nested_product(self):
        p = Product(Euclidean(1), Product(Euclidean(1), Euclidean(1)))
        assert p.total_dim == 3

    def test_spaces_compare_structurally(self):
        assert Euclidean(2) == Euclidean(2)
        assert Euclidean(2) != Euclidean(3)
        assert Product(Euclidean(1), Euclidean(1)) != Euclidean(2)


class TestMooreCube:
    def test_clamp_pins_coordinates_into_the_box(self, c_square):
        assert c_square.clamp((1.5,)) == (1.5,)
        assert c_square.clamp((5.0,)) == (2.0,)
        assert c_square.clamp((-1.0,)) == (0.0,)

    def test_evaluation_goes_through_clamp(self, c_square):
        assert c_square.at((1.5,)).coords == (2.25,)
        assert c_square.at((5.0,)).coords == (4.0,)
        assert c_square.at((-1.0,)).coords == (0.0,)
        assert c_square(1.5) == c_square.at((1.5,))

    def test_wrong_arity_point_is_rejected(self, c_square):
        with pytest.raises(DimensionMismatch):
            c_square.at((1.0, 2.0))

    def test_make_cube_checks_dim_against_shape(self):
        with pytest.raises(DimensionMismatch):
            make_cube(2, (1.0,), Euclidean(1), lambda ts: (0.0,))

    def test_make_cube_coerces_scalar_values(self):
        c = make_cube(1, (1.0,), Euclidean(1), lambda ts: ts[0])
        assert c.at((0.5,)) == Point((0.5,))

    def test_make_cube_checks_value_arity(self):
        c = make_cube(1, (1.0,), Euclidean(2), lambda ts: (ts[0],))
        with pytest.raises(DimensionMismatch):
            c.at((0.5,))

    def test_a_dsl_leaf_acts_with_float_coordinates(self):
        # the action is not clamped, so an int coordinate reaches the leaf's code
        value = cube_from_exprs(1, (1.0,), Euclidean(1), ["t1"]).provenance.act((1,))
        assert value == Point((1.0,)) and type(value.coords[0]) is float

    def test_point_cube_has_dimension_zero(self):
        p = point_cube(3.0, Euclidean(1))
        assert p.dim == 0
        assert p.at(()).coords == (3.0,)

    @given(extents_st, st.lists(st.floats(allow_nan=False, width=32), max_size=3))
    @settings(max_examples=60)
    def test_clamp_is_idempotent_and_in_box(self, extents, raw):
        c = make_cube(
            len(extents), tuple(extents), Euclidean(1), lambda ts: (sum(ts),)
        )
        point = tuple((raw + [0.0] * len(extents))[: len(extents)])
        clamped = c.clamp(point)
        assert c.clamp(clamped) == clamped
        for value, extent in zip(clamped, extents):
            assert 0.0 <= value <= extent

    @given(st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=60)
    def test_constant_beyond_extent_by_construction(self, extent, probe):
        c = make_cube(1, (extent,), Euclidean(1), lambda ts: (math.sin(ts[0]),))
        beyond = c.at((extent + probe,))
        assert beyond == c.at((extent,))


class TestEqualityOracle:
    def test_axis_samples_span_the_extent_plus_beyond(self):
        oracle = EqualityOracle()
        assert oracle.axis_samples(2.0) == [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]

    def test_axis_samples_of_zero_extent_dedupe(self):
        oracle = EqualityOracle()
        assert oracle.axis_samples(0.0) == [0.0, 1.0]

    def test_grid_size(self):
        oracle = EqualityOracle(samples_per_axis=3)
        pts = list(oracle.grid(Shape((1.0, 2.0))))
        assert len(pts) == 16  # (3 + 1 beyond) per axis, squared
        assert pts[0] == (0.0, 0.0)

    def test_zero_dim_grid_is_the_empty_point(self):
        oracle = EqualityOracle()
        assert list(oracle.grid(Shape(()))) == [()]

    def test_rejects_degenerate_sampling(self):
        with pytest.raises(ValueError):
            EqualityOracle(samples_per_axis=1)
        for bad in (-1e-9, float("nan"), float("inf"), True, "1e-9"):
            with pytest.raises(ValueError):
                EqualityOracle(tol_val=bad)
            with pytest.raises(ValueError):
                EqualityOracle(tol_shape=bad)

    @pytest.mark.parametrize("name", ["tol_val", "tol_shape"])
    def test_rejects_a_tolerance_too_large_for_a_float(self, name):
        with pytest.raises(ValueError) as exc:
            EqualityOracle(**{name: 10**400})
        assert str(exc.value) == f"{name} {10**400!r} is too large for a float"

    def test_strict_requires_matching_shape(self, c_square):
        other = make_cube(1, (2.5,), Euclidean(1), c_square.provenance.act)
        oracle = EqualityOracle()
        eq = oracle.equals_strict(c_square, other)
        assert not eq and eq.reason == "shape"
        assert "2.0" in eq.detail and "2.5" in eq.detail

    def test_strict_accepts_shape_within_tolerance(self, c_square):
        other = make_cube(1, (2.0 + 1e-12,), Euclidean(1), c_square.provenance.act)
        assert EqualityOracle().equals_strict(c_square, other)

    def test_action_ignores_shape_but_probes_union_grid(self, c_square):
        wider = make_cube(1, (3.0,), Euclidean(1), lambda ts: (min(ts[0], 2.0) ** 2,))
        oracle = EqualityOracle()
        assert not oracle.equals_strict(c_square, wider)
        assert oracle.equals_action(c_square, wider)

    def test_action_detects_difference_beyond_shorter_extent(self, c_square):
        wider = make_cube(1, (3.0,), Euclidean(1), lambda ts: (ts[0] ** 2,))
        eq = EqualityOracle().equals_action(c_square, wider)
        assert not eq and eq.reason == "action"
        assert eq.witness is not None

    def test_dim_mismatch_reported_before_values(self, c_square):
        flat = make_cube(2, (1.0, 1.0), Euclidean(1), lambda ts: (0.0,))
        eq = EqualityOracle().equals_strict(c_square, flat)
        assert eq.reason == "dim"

    def test_space_mismatch_reported(self, c_square):
        other = make_cube(1, (2.0,), Euclidean(2), lambda ts: (ts[0], 0.0))
        eq = EqualityOracle().equals_strict(c_square, other)
        assert eq.reason == "space"

    def test_action_equality_refuses_other_dims_and_spaces(self, c_square):
        flat = make_cube(2, (1.0, 1.0), Euclidean(1), lambda ts: (0.0,))
        other = make_cube(1, (2.0,), Euclidean(2), lambda ts: (ts[0], 0.0))
        oracle = EqualityOracle()
        assert oracle.equals_action(c_square, flat).reason == "dim"
        assert oracle.equals_action(c_square, other).reason == "space"

    def test_witness_is_first_point_of_largest_gap(self):
        a = make_cube(1, (2.0,), Euclidean(1), lambda ts: (0.0,))
        b = make_cube(1, (2.0,), Euclidean(1), lambda ts: (1.0,))
        eq = EqualityOracle().equals_strict(a, b)
        assert not eq
        assert eq.witness.point == (0.0,)
        assert eq.witness.distance == 1.0

    def test_equality_is_truthy_protocol(self):
        assert bool(Equality(True, "equal"))
        assert not bool(Equality(False, "action"))

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_an_equal_comparison_reads_equal_with_no_witness(self, dim):
        a = cube_from_exprs(dim, (1.0,) * dim, Euclidean(1), ["2"])
        oracle = EqualityOracle()
        for eq in (oracle.equals_strict(a, a), oracle.equals_action(a, a)):
            assert eq == Equality(True, "equal")
            assert eq.witness is None and eq.detail is None

    @given(extents_st)
    @settings(max_examples=40)
    def test_every_cube_equals_itself_strictly(self, extents):
        c = make_cube(
            len(extents),
            tuple(extents),
            Euclidean(1),
            lambda ts: (sum(v * v for v in ts),),
        )
        assert EqualityOracle().equals_strict(c, c)


class TestNaNDistance:
    """A NaN distance is a difference, never a match."""

    nan_cube = cube_from_exprs(1, (2.0,), Euclidean(1), ["1e308*10*t1 - 1e308*10*t1"])
    five = cube_from_exprs(1, (2.0,), Euclidean(1), ["5"])

    @pytest.mark.parametrize("method", ["equals_strict", "equals_action"])
    @pytest.mark.parametrize("flip", [False, True])
    def test_nan_cube_differs_from_a_constant(self, method, flip):
        a, b = (self.five, self.nan_cube) if flip else (self.nan_cube, self.five)
        eq = getattr(EqualityOracle(), method)(a, b)
        assert not eq and eq.reason == "action"
        assert eq.witness.point == (0.0,)
        assert math.isnan(eq.witness.distance)

    def test_witness_is_the_first_nan_point(self):
        late = make_cube(
            1, (2.0,), Euclidean(1), lambda ts: (math.nan if ts[0] > 1.0 else 0.0,)
        )
        eq = EqualityOracle().equals_strict(late, self.five)
        assert not eq
        assert eq.witness.point == (1.5,)
        assert math.isnan(eq.witness.distance)

    def test_nan_in_one_factor_of_a_product(self):
        eq = EqualityOracle().equals_strict(
            tensor(self.five, self.nan_cube), tensor(self.five, self.five)
        )
        assert not eq and math.isnan(eq.witness.distance)
        assert math.isnan(Product(Euclidean(1), Euclidean(1)).distance((0.0, 0.0), (0.0, math.nan)))
