"""Expression language: lexing, parsing, evaluation, compilation, printing."""
from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DSL_PARSE_ERRORS, DSL_REGRESSION_VECTOR
from moorecubes import DimensionMismatch, Euclidean, EvalError, ParseError, Shape
from moorecubes.expr import (
    MAX_DEPTH,
    Bin,
    Call,
    Num,
    Unary,
    Var,
    compile_expr,
    cube_from_exprs,
    eval_expr,
    parse_expr,
    to_source,
)


@pytest.mark.parametrize("source,env,expected", DSL_REGRESSION_VECTOR)
def test_regression_vector_interpreted(source, env, expected):
    assert eval_expr(parse_expr(source), env) == expected


@pytest.mark.parametrize("source,env,expected", DSL_REGRESSION_VECTOR)
def test_regression_vector_compiled(source, env, expected):
    fn = compile_expr(parse_expr(source), len(env))
    assert fn(env) == expected


@pytest.mark.parametrize("source,offset", DSL_PARSE_ERRORS)
def test_parse_errors_carry_byte_offsets(source, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert exc.value.offset == offset


class TestGrammar:
    def test_power_is_right_associative(self):
        tree = parse_expr("2^3^2")
        assert isinstance(tree, Bin) and tree.op == "^"
        assert isinstance(tree.right, Bin) and tree.right.op == "^"

    def test_unary_minus_binds_looser_than_power(self):
        tree = parse_expr("-t1^2")
        assert isinstance(tree, Unary)
        assert isinstance(tree.operand, Bin) and tree.operand.op == "^"

    def test_subtraction_is_left_associative(self):
        tree = parse_expr("1 - 2 - 3")
        assert isinstance(tree.left, Bin) and tree.left.op == "-"

    def test_multiplication_binds_tighter_than_addition(self):
        tree = parse_expr("1 + 2*3")
        assert tree.op == "+" and isinstance(tree.right, Bin)

    def test_variables_are_one_based_indices(self):
        v = parse_expr("t12")
        assert isinstance(v, Var) and v.index == 12 and v.name == "t12"

    def test_call_arity_is_enforced(self):
        with pytest.raises(ParseError):
            parse_expr("sin(1, 2)")
        with pytest.raises(ParseError):
            parse_expr("max(1)")

    def test_spans_cover_the_source(self):
        tree = parse_expr("1 + sin(t1)")
        assert tree.span == (0, 11)
        assert tree.right.span == (4, 11)


class TestEvaluation:
    def test_env_may_be_a_mapping(self):
        assert eval_expr(parse_expr("t1 + t2"), {"t1": 1.0, "t2": 2.0}) == 3.0

    def test_division_by_zero_reports_span(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(parse_expr("1/t1"), (0.0,))
        assert exc.value.span == (0, 4)

    def test_unbound_variable(self):
        with pytest.raises(EvalError) as exc:
            eval_expr(parse_expr("t3"), (1.0, 2.0))
        assert "t3" in str(exc.value)

    def test_fractional_power_of_negative_base(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("(0-1)^0.5"), ())

    def test_zero_to_negative_power(self):
        with pytest.raises(EvalError):
            eval_expr(parse_expr("0^(0-1)"), ())

    def test_builtin_functions_match_math(self):
        assert eval_expr(parse_expr("sin(1.25)"), ()) == math.sin(1.25)
        assert eval_expr(parse_expr("exp(2)"), ()) == math.exp(2.0)


class TestCompilation:
    def test_compiled_rejects_out_of_range_variable_upfront(self):
        with pytest.raises(EvalError):
            compile_expr(parse_expr("t3"), 2)

    def test_compiled_division_by_zero_still_reports_span(self):
        fn = compile_expr(parse_expr("1/t1"), 1)
        with pytest.raises(EvalError) as exc:
            fn((0.0,))
        assert exc.value.span == (0, 4)

    @given(
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=50)
    def test_compiled_matches_interpreter(self, x, y):
        source = "t1*t2 + sin(t1) - max(t1, t2)/4 + t2^2"
        tree = parse_expr(source)
        fn = compile_expr(tree, 2)
        assert fn((x, y)) == eval_expr(tree, (x, y))


class TestArithmeticFaults:
    # source, env, the failing call or ^ node
    CASES = [
        ("exp(1000*t1)", (1.0,), "exp(1000*t1)"),
        ("10^400*t1", (1.0,), "10^400"),
        ("sin(1e308*10*t1)", (0.5,), "sin(1e308*10*t1)"),
        ("1 + cos(t1) * exp(exp(t1))", (7.0,), "exp(exp(t1))"),
    ]

    @pytest.mark.parametrize("source,env,culprit", CASES)
    def test_interpreter_and_compiler_raise_the_same_eval_error(self, source, env, culprit):
        tree = parse_expr(source)
        with pytest.raises(EvalError) as interpreted:
            eval_expr(tree, env)
        with pytest.raises(EvalError) as compiled:
            compile_expr(tree, len(env))(env)
        start, end = interpreted.value.span
        assert source.encode("utf-8")[start:end].decode("utf-8") == culprit
        assert compiled.value.span == interpreted.value.span
        assert str(compiled.value) == str(interpreted.value)

    def test_cube_evaluation_reports_the_fault(self):
        cube = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["exp(1000*t1)"])
        assert cube.at((0.0,)).coords == (1.0,)
        with pytest.raises(EvalError):
            cube.at((1.0,))


class TestPrinting:
    @pytest.mark.parametrize("source,env,expected", DSL_REGRESSION_VECTOR)
    def test_round_trip_preserves_value(self, source, env, expected):
        printed = to_source(parse_expr(source))
        assert eval_expr(parse_expr(printed), env) == expected

    def test_round_trip_preserves_structure(self):
        for source, _, _ in DSL_REGRESSION_VECTOR:
            tree = parse_expr(source)
            assert parse_expr(to_source(tree)) == tree

    def test_printer_parenthesizes_only_when_needed(self):
        assert to_source(parse_expr("(1+2)*3")) == "(1.0 + 2.0)*3.0"
        assert to_source(parse_expr("1+(2*3)")) == "1.0 + 2.0*3.0"
        assert to_source(parse_expr("-t1^2")) == "-t1^2.0"


class TestCubeFromExprs:
    def test_builds_a_cube_matching_the_sources(self):
        c = cube_from_exprs(1, Shape((2.0,)), Euclidean(1), ["t1^2"])
        assert c.at((1.5,)).coords == (2.25,)
        assert c.provenance.exprs == ("t1^2",)

    def test_requires_one_expr_per_target_dimension(self):
        with pytest.raises(DimensionMismatch):
            cube_from_exprs(1, Shape((1.0,)), Euclidean(2), ["t1"])

    def test_rejects_variables_beyond_the_cube_dimension(self):
        with pytest.raises(EvalError):
            cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t2"])


# Per construct: an expression n + 1 levels deep, and the byte offset of its
# n-th operator, call or parenthesis, where MAX_DEPTH is crossed if n = MAX_DEPTH.
NESTINGS = {
    "parentheses": (lambda n: "(" * n + "t1" + ")" * n, lambda n: n - 1),
    "unary minus": (lambda n: "-" * n + "t1", lambda n: n - 1),
    "power": (lambda n: "^".join(["t1"] * (n + 1)), lambda n: 3 * n - 1),
    "flat sum": (lambda n: " + ".join(["t1"] * (n + 1)), lambda n: 5 * n - 2),
    "nested calls": (lambda n: "sin(" * n + "t1" + ")" * n, lambda n: 4 * (n - 1)),
}


class TestRobustness:
    @pytest.mark.parametrize("kind", sorted(NESTINGS))
    def test_the_depth_limit_is_one_parse_error(self, kind):
        source, offset = NESTINGS[kind]
        cube = cube_from_exprs(1, Shape((0.5,)), Euclidean(1), [source(MAX_DEPTH - 1)])
        assert math.isfinite(cube.at((0.25,)).coords[0])
        with pytest.raises(ParseError, match="nested too deeply") as exc:
            parse_expr(source(MAX_DEPTH))
        assert exc.value.offset == offset(MAX_DEPTH)

    @pytest.mark.parametrize(
        "source,offset",
        [("t1 + \u00b2", 5), ("t\u00b2", 0), ("t1\u0663", 0), ("\u0661", 0), ("1e999", 0)],
    )
    def test_only_ascii_digits_and_finite_numbers_parse(self, source, offset):
        with pytest.raises(ParseError) as exc:
            parse_expr(source)
        assert exc.value.offset == offset

    @given(st.text(alphabet="t0123456789.e+-*/^(), \u00b2\u0661\u00e9"))
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_parse_error(self, source):
        try:
            tree = parse_expr(source)
        except ParseError:
            return
        env = (0.5, 1.5, 2.5)
        try:
            interpreted = eval_expr(tree, env)
        except EvalError:
            interpreted = None
        try:
            compiled = compile_expr(tree, len(env))(env)
        except EvalError:
            compiled = None
        assert repr(compiled) == repr(interpreted)
