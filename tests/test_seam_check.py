"""The seam check of a composition, read on the pieces themselves.

EqualityOracle.equals_faces(a, b, j) must give what comparing the built
faces face(a, j, +) and face(b, j, -) gives, bit for bit: the same
Equality, the same witness and the same errors.  Compositions call it and
build no face cube.  The frozen value types keep their dataclass contract.
"""
from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
import random
import time

import pytest

import moorecubes
from moorecubes import (
    BadIndex,
    CompositionUndefined,
    DimensionMismatch,
    EqualityOracle,
    Euclidean,
    Product,
    Shape,
    Sign,
    compose_lenient,
    compose_strict,
    cube_from_exprs,
    face,
    make_cube,
    multi_compose,
)
from moorecubes import core, expr
from moorecubes.generators import extend_chain, gen_composable_pair, gen_cube

ORACLE = EqualityOracle()
E1 = Euclidean(1)


def outcome(call, *args):
    """repr of what call(*args) returns, or the type, text and span of what it raises."""
    try:
        return "returns", repr(call(*args))
    except Exception as exc:  # the comparison is of any error at all
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


def by_built_faces(oracle, a, b, j, lenient=False):
    """The seam check as a comparison of the two built face cubes."""
    compare = oracle.equals_action if lenient else oracle.equals_strict
    return compare(face(a, j, Sign.PLUS), face(b, j, Sign.MINUS))


def composition_outcome(compose, a, b, j, oracle):
    try:
        return "composes", repr(compose(a, b, j, oracle))
    except CompositionUndefined as exc:
        return "undefined", exc.reason, exc.direction, str(exc), repr(exc.witness)
    except Exception as exc:  # the comparison is of any error at all
        return type(exc).__name__, str(exc), getattr(exc, "span", None)


def expected_composition(a, b, j, oracle, lenient):
    """What compose_strict or compose_lenient gives when it checks the built faces."""
    try:
        eq = by_built_faces(oracle, a, b, j, lenient)
    except Exception as exc:  # the comparison is of any error at all
        return type(exc).__name__, str(exc), getattr(exc, "span", None)
    if eq:
        compose = compose_lenient if lenient else compose_strict
        return "composes", repr(compose(a, b, j, oracle))
    what = f"face actions in direction {j} differ" if lenient else f"faces in direction {j} differ ({eq.reason})"
    return "undefined", eq.reason, j, f"{what}: {eq.detail or eq.witness}", repr(eq.witness)


def assert_parity(a, b, j, oracle=ORACLE):
    for lenient in (False, True):
        got = outcome(oracle.equals_faces, a, b, j, lenient)
        assert got == outcome(by_built_faces, oracle, a, b, j, lenient), (j, lenient)
    if a.dim == b.dim and a.space == b.space and 1 <= j <= a.dim:
        for lenient, compose in ((False, compose_strict), (True, compose_lenient)):
            got = composition_outcome(compose, a, b, j, oracle)
            assert got == expected_composition(a, b, j, oracle, lenient), (j, lenient)


class TestParity:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_pairs_of_dimension_one_to_three(self, seed):
        rng = random.Random(seed)
        for dim in (1, 2, 3):
            space = Euclidean(rng.randint(1, 2))
            j = rng.randint(1, dim)
            a, b = gen_composable_pair(rng, dim, j, space=space)
            assert ORACLE.equals_faces(a, b, j)
            assert_parity(a, b, j)
            other = gen_cube(rng, dim, space=space)
            assert_parity(a, other, j)
            assert_parity(other, a, j)
            assert_parity(b, other, rng.randint(1, dim))

    @pytest.mark.parametrize("seed", range(4))
    def test_other_grids_and_tolerances(self, seed):
        rng = random.Random(100 + seed)
        for oracle in (EqualityOracle(samples_per_axis=2), EqualityOracle(samples_per_axis=3, tol_val=0.0)):
            for dim in (1, 2, 3):
                j = rng.randint(1, dim)
                a = gen_cube(rng, dim, space=E1)
                assert_parity(a, extend_chain(rng, a, j), j, oracle)
                assert_parity(a, gen_cube(rng, dim, space=E1), j, oracle)

    def test_composites_on_either_side(self):
        rng = random.Random(7)
        a, b = gen_composable_pair(rng, 2, 1, space=E1)
        c = extend_chain(rng, b, 1)
        ab = compose_strict(a, b, 1)
        assert_parity(ab, c, 1)
        assert_parity(a, compose_strict(b, c, 1), 1)
        below = gen_cube(rng, 2, space=E1, shape=ab.shape)
        for j in (1, 2):
            assert_parity(ab, below, j)
            assert_parity(below, ab, j)

    def test_a_nan_seam(self):
        nan_at_seam = cube_from_exprs(1, (1.0,), E1, ["t1*1e308*10 - t1*1e308*10"])
        one = cube_from_exprs(1, (1.0,), E1, ["1"])
        eq = ORACLE.equals_faces(nan_at_seam, one, 1)
        assert not eq and math.isnan(eq.witness.distance)
        assert_parity(nan_at_seam, one, 1)
        wide = cube_from_exprs(2, (1.0, 2.0), E1, ["t1*t2*1e308*10 - t1*t2*1e308*10"])
        flat = cube_from_exprs(2, (1.0, 2.0), E1, ["0"])
        assert math.isnan(ORACLE.equals_faces(wide, flat, 1).witness.distance)
        assert_parity(wide, flat, 1)
        assert_parity(flat, wide, 2)

    def test_a_leaf_that_raises_at_the_seam(self):
        pole = cube_from_exprs(1, (1.0,), E1, ["1/(t1 - 1)"])
        one = cube_from_exprs(1, (1.0,), E1, ["1"])
        with pytest.raises(moorecubes.EvalError):
            ORACLE.equals_faces(pole, one, 1)
        assert_parity(pole, one, 1)
        sheet = cube_from_exprs(2, (1.0, 1.0), E1, ["t2/(t1 - 1)"])
        flat = cube_from_exprs(2, (1.0, 1.0), E1, ["0"])
        assert_parity(sheet, flat, 1)
        assert_parity(flat, cube_from_exprs(2, (1.0, 1.0), E1, ["t2^-1"]), 2)

    def test_negative_zero_extents(self):
        a = cube_from_exprs(2, (-0.0, 1.0), E1, ["t1 + t2"])
        b = cube_from_exprs(2, (0.0, -0.0), E1, ["t1 + t2"])
        flat = cube_from_exprs(1, (-0.0,), E1, ["1/t1"])
        for j in (1, 2):
            assert_parity(a, b, j)
            assert_parity(b, a, j)
        assert_parity(flat, cube_from_exprs(1, (0.0,), E1, ["1"]), 1)

    @pytest.mark.parametrize("gap", [0.5e-9, 0.9e-9, 1.1e-9, 2e-9])
    def test_face_shapes_about_tol_shape_apart(self, gap):
        a = cube_from_exprs(2, (1.0, 2.0), E1, ["t2"])
        b = cube_from_exprs(2, (3.0, 2.0 + gap), E1, ["t2"])
        eq = ORACLE.equals_faces(a, b, 1)
        assert eq.reason == ("equal" if gap <= 1e-9 else "shape")
        assert_parity(a, b, 1)
        assert_parity(b, a, 1)

    def test_indices_dimensions_and_spaces(self):
        line, square = gen_cube(random.Random(1), 1, space=E1), gen_cube(random.Random(2), 2, space=E1)
        point = cube_from_exprs(0, (), E1, ["1"])
        plane = gen_cube(random.Random(3), 2, space=Euclidean(2))
        pair = gen_cube(random.Random(4), 2, space=Product(E1, E1))
        for a, b, j in (
            (line, square, 1), (square, line, 1), (square, line, 2), (line, square, 2),
            (point, point, 1), (square, square, 0), (square, square, 3),
            (square, plane, 1), (plane, pair, 2),
        ):
            assert outcome(ORACLE.equals_faces, a, b, j) == outcome(by_built_faces, ORACLE, a, b, j)
        with pytest.raises(BadIndex, match="face index 2 out of range 1..1"):
            ORACLE.equals_faces(square, line, 2)
        assert ORACLE.equals_faces(square, plane, 1).reason == "space"
        assert ORACLE.equals_faces(line, square, 1).reason == "dim"

    def test_opaque_leaves(self):
        a = make_cube(2, (1.0, 2.0), E1, lambda ts: ts[0] * ts[1])
        b = make_cube(2, (1.5, 2.0), E1, lambda ts: (ts[0] + 1.0) * ts[1])
        assert ORACLE.equals_faces(a, b, 1)
        assert_parity(a, b, 1)
        assert_parity(b, a, 2)


@dataclasses.dataclass(frozen=True)
class CountingOracle(EqualityOracle):
    """Records every point of every grid walked, and every seam check made."""

    seen = []
    calls = []

    def grid(self, shape):
        return self._walk(super().grid(shape))

    def union_grid(self, a, b):
        return self._walk(super().union_grid(a, b))

    def _walk(self, points):
        for p in points:
            self.seen.append(p)
            yield p

    def equals_faces(self, a, b, j, lenient=False):
        self.calls.append((a, b, j, lenient))
        return super().equals_faces(a, b, j, lenient)


def test_a_subclass_sees_each_face_grid_and_intercepts_compose():
    counting = CountingOracle()
    rng = random.Random(5)
    for dim, lenient in itertools.product((1, 2, 3), (False, True)):
        a, b = gen_composable_pair(rng, dim, dim, space=E1)
        counting.seen.clear()
        counting.calls.clear()
        (compose_lenient if lenient else compose_strict)(a, b, dim, counting)
        assert [c[2:] for c in counting.calls] == [(dim, lenient)]
        fa, fb = face(a, dim, Sign.PLUS), face(b, dim, Sign.MINUS)
        grid = ORACLE.union_grid(fa.shape, fb.shape) if lenient else ORACLE.grid(fa.shape)
        assert counting.seen == list(grid)


def test_overriding_equals_strict_no_longer_intercepts_compose():
    @dataclasses.dataclass(frozen=True)
    class Refusing(EqualityOracle):
        def equals_strict(self, a, b):
            raise AssertionError("compose checks its seam with equals_faces")

    a, b = gen_composable_pair(random.Random(6), 2, 1, space=E1)
    assert compose_strict(a, b, 1, Refusing()).dim == 2


# ---------------------------------------------------------------------------
# counts: a composition builds no face cube


@pytest.fixture
def counts(monkeypatch):
    """Counts of MooreCube and FaceNode constructions and of face calls."""
    tally = {"MooreCube": 0, "FaceNode": 0, "face": 0}
    for cls in (core.MooreCube, core.FaceNode):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            tally[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    original = moorecubes.ops.face

    def counted_face(*args, **kwargs):
        tally["face"] += 1
        return original(*args, **kwargs)

    for module in [moorecubes] + [m for m in vars(moorecubes).values() if inspect.ismodule(m)]:
        if getattr(module, "face", None) is original:
            monkeypatch.setattr(module, "face", counted_face)
    return tally


def test_a_chain_builds_no_face_cube(counts):
    start = time.perf_counter()
    pieces = [cube_from_exprs(1, (0.5,), E1, [f"{0.5 * k} + t1"]) for k in range(20)]
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = compose_strict(acc, piece, 1)
    assert counts == {"MooreCube": 39, "FaceNode": 0, "face": 0}
    assert acc.at((9.75,)).coords == (9.75,)

    counts.update(dict.fromkeys(counts, 0))
    cells = [
        [cube_from_exprs(2, (0.5, 0.25), E1, [f"(t1 + {0.5 * i})*(t2 + {0.25 * k})"]) for i in range(3)]
        for k in range(3)
    ]
    grid = multi_compose(cells)
    assert counts == {"MooreCube": 9 + 3 * 2 + 2, "FaceNode": 0, "face": 0}
    assert grid.shape.extents == (1.5, 0.75)
    assert time.perf_counter() - start < 1.0


def test_a_chain_still_walks_every_face_grid_point():
    counting = CountingOracle()
    counting.seen.clear()
    cells = [
        [cube_from_exprs(2, (0.5, 0.25), E1, [f"(t1 + {0.5 * i})*(t2 + {0.25 * k})"]) for i in range(3)]
        for k in range(3)
    ]
    multi_compose(cells, counting)
    # direction 2 first: 3 columns of 2 seams on a face of extent 0.5 (6
    # grid values); then 2 seams on a face of extent 0.75 (6 values)
    assert len(counting.seen) == 3 * 2 * 6 + 2 * 6
    counting.seen.clear()
    pieces = [cube_from_exprs(1, (0.5,), E1, [f"{0.5 * k} + t1"]) for k in range(20)]
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = compose_strict(acc, piece, 1, counting)
    assert counting.seen == [()] * 19


# ---------------------------------------------------------------------------
# the dataclass contract of the value types


def _samples():
    leaf = cube_from_exprs(2, (1.0, 2.0), E1, ["t1 + t2"])
    other = cube_from_exprs(2, (1.0, 2.0), E1, ["t1*t2"])
    witness = core.EqualityWitness((0.5,), core.Point((1.0,)), core.Point((2.0,)), 1.0)
    return {
        core.Point: core.Point((1.0, -0.0)),
        core.Primitive: leaf.provenance,
        core.FaceNode: core.FaceNode(leaf, 1, "+"),
        core.DegeneracyNode: core.DegeneracyNode(leaf, 2),
        core.ConnectionNode: core.ConnectionNode(leaf, 1, "-"),
        core.ReverseNode: core.ReverseNode(leaf, 2),
        core.ComposeNode: core.ComposeNode(leaf, other, 1, False),
        core.TensorNode: core.TensorNode(leaf, other),
        core.ReassociateNode: core.ReassociateNode(leaf, Product(E1, E1)),
        core.MooreCube: leaf,
        core.Equality: core.Equality(False, "action", witness, "a note"),
        expr.Num: expr.Num(1.5, (3, 6)),
        expr.Var: expr.Var(2, (0, 2)),
        expr.Unary: expr.Unary("-", expr.Var(1)),
        expr.Bin: expr.Bin("+", expr.Num(1.0), expr.Var(1), (0, 6)),
        expr.Call: expr.Call("max", (expr.Num(1.0), expr.Var(1)), (0, 10)),
    }


FIELDS = {
    core.Point: ["coords"],
    core.Primitive: ["exprs", "batch", "trees"],
    core.FaceNode: ["source", "i", "sign"],
    core.DegeneracyNode: ["source", "i"],
    core.ConnectionNode: ["source", "i", "sign"],
    core.ReverseNode: ["source", "i"],
    core.ComposeNode: ["left", "right", "direction", "lenient"],
    core.TensorNode: ["left", "right"],
    core.ReassociateNode: ["source", "space"],
    core.MooreCube: ["shape", "space", "provenance"],
    core.Equality: ["equal", "reason", "witness", "detail"],
    expr.Num: ["value", "span"],
    expr.Var: ["index", "span"],
    expr.Unary: ["op", "operand", "span"],
    expr.Bin: ["op", "left", "right", "span"],
    expr.Call: ["fn", "args", "span"],
}


class TestDataclassContract:
    def test_every_sampled_class_is_listed(self):
        assert set(_samples()) == set(FIELDS)

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_fields_and_signature(self, cls):
        names = [f.name for f in dataclasses.fields(cls)]
        assert names == FIELDS[cls]
        assert list(inspect.signature(cls).parameters) == names
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"

    @pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
    def test_frozen_eq_hash_repr(self, cls):
        obj = _samples()[cls]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, FIELDS[cls][0], None)
        copy = dataclasses.replace(obj)
        assert copy is not obj
        assert repr(copy) == repr(obj)
        if cls is core.MooreCube:  # eq=False: compared, and hashed, by identity
            assert copy != obj and obj == obj
        else:
            assert copy == obj and hash(copy) == hash(obj)
        by_keyword = cls(**{name: getattr(obj, name) for name in FIELDS[cls]})
        assert repr(by_keyword) == repr(obj)

    def test_defaults(self):
        assert expr.Num(1.0).span == (0, 0)
        assert expr.Num(1.0) == expr.Num(1.0, (4, 7))
        assert expr.Var(3).span == (0, 0) and expr.Call("sin", ()).span == (0, 0)
        assert core.Equality(True, "equal") == core.Equality(True, "equal", None, None)
        leaf = cube_from_exprs(1, (1.0,), E1, ["t1"]).provenance
        assert core.Primitive(leaf.exprs, leaf.batch).trees is None
        with pytest.raises(TypeError):
            core.Point()
        with pytest.raises(TypeError):
            expr.Num(1.0, (0, 0), 3)

    def test_shape_of_skips_only_the_checks(self):
        shape = Shape._of((1.0, 2.0))
        assert shape == Shape((1, 2)) and hash(shape) == hash(Shape((1.0, 2.0)))
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.extents = ()

    def test_validating_classes_still_validate(self):
        with pytest.raises(moorecubes.InvalidShape):
            Shape((1.0, -1.0))
        with pytest.raises(moorecubes.InvalidShape):
            Shape((math.inf,))
        assert Shape([1, 2]).extents == (1.0, 2.0)
        with pytest.raises(DimensionMismatch):
            Euclidean(-1)
        with pytest.raises(ValueError):
            EqualityOracle(samples_per_axis=1)
        with pytest.raises(ValueError):
            EqualityOracle(tol_val=-1.0)


class TestTypesAtConstruction:
    @pytest.mark.parametrize("bad", [3.0, True, False, "3", None])
    def test_samples_per_axis_must_be_an_int(self, bad):
        with pytest.raises(ValueError, match="samples_per_axis must be an int"):
            EqualityOracle(samples_per_axis=bad)

    @pytest.mark.parametrize("bad", [1.5, 1.0, True, False, "1", None])
    def test_euclidean_dimension_must_be_an_int(self, bad):
        with pytest.raises(DimensionMismatch, match="euclidean dimension must be an int"):
            Euclidean(bad)

    def test_ints_still_construct(self):
        assert EqualityOracle(samples_per_axis=3).samples_per_axis == 3
        assert Euclidean(0).dim == 0 and Euclidean(2) == Euclidean(2)
        assert Euclidean(1) != Product(Euclidean(1), Euclidean(0))
