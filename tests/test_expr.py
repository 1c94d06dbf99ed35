"""Expression language: lexing, parsing, evaluation, compilation, printing."""
from __future__ import annotations

import builtins
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DSL_PARSE_ERRORS, DSL_REGRESSION_VECTOR
from moorecubes import (
    DimensionMismatch,
    EqualityOracle,
    Euclidean,
    EvalError,
    ParseError,
    Shape,
    compose_strict,
)
from moorecubes import expr
from moorecubes.expr import (
    FUNCTIONS,
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

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_compiled_numbers_that_are_not_finite(self, value):
        tree = Bin("-", Var(1), Num(value))
        assert repr(compile_expr(tree, 1)((1.0,))) == repr(eval_expr(tree, (1.0,)))


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


class TestFaultMessages:
    """The EvalError of a faulting leaf, from every path that evaluates one.

    Each cube is 2-d with shape (1, 1) and reads only t1; the probe is a
    point where it faults.  The oracle's grid (and the face grid that
    compose_strict checks) meets exp(1000*t1) first at t1 = 0.75.
    """

    oracle = EqualityOracle()
    # source, probe, message at the probe, message on the grid, span in the source
    CASES = [
        ("1/t1", (0.0, 0.5), "division by zero", "division by zero", (0, 4)),
        ("10^400*t1", (0.5, 0.5), "10.0^400.0 overflows", "10.0^400.0 overflows", (0, 6)),
        (
            "(0-8)^(1/3)",
            (0.5, 0.5),
            "fractional power of a negative base",
            "fractional power of a negative base",
            (0, 11),
        ),
        ("0^(0-1)", (0.5, 0.5), "zero raised to a negative power", "zero raised to a negative power", (0, 7)),
        (
            "exp(1000*t1)",
            (1.0, 0.5),
            "exp(1000.0) has no finite value",
            "exp(750.0) has no finite value",
            (0, 12),
        ),
    ]
    # A cube built from the parsed tree keeps its to_source text, and the
    # span of the same fault points into that text.
    EXPR_SPANS = {
        "1/t1": (0, 6),  # 1.0/t1
        "10^400*t1": (0, 10),  # 10.0^400.0*t1
        "(0-8)^(1/3)": (0, 21),  # (0.0 - 8.0)^(1.0/3.0)
        "0^(0-1)": (0, 15),  # 0.0^(0.0 - 1.0)
        "exp(1000*t1)": (0, 14),  # exp(1000.0*t1)
    }

    @staticmethod
    def error(fn):
        with pytest.raises(EvalError) as info:
            fn()
        return str(info.value), info.value.span

    @pytest.mark.parametrize("source,probe,at_message,grid_message,span", CASES)
    @pytest.mark.parametrize("built", ["text", "expr"])
    def test_every_path_raises_the_same_error(self, source, probe, at_message, grid_message, span, built):
        if built == "expr":
            span = self.EXPR_SPANS[source]
            leaf = parse_expr(source)
        else:
            leaf = source
        c = cube_from_exprs(2, (1.0, 1.0), Euclidean(1), [leaf])
        assert c.provenance.exprs == ((source if built == "text" else to_source(leaf)),)
        points = list(self.oracle.grid(c.shape))
        assert self.error(lambda: c.at(probe)) == (at_message, span)
        assert self.error(lambda: c.coords_at(points)) == (grid_message, span)
        assert self.error(lambda: self.oracle.equals_strict(c, c)) == (grid_message, span)
        assert self.error(lambda: compose_strict(c, c, 2)) == (grid_message, span)


@pytest.mark.parametrize(
    "source,message,offset",
    [
        ("1.x", "digit must follow decimal point", 2),
        ("2ex", "malformed exponent", 2),
        ("1e+", "malformed exponent", 3),
        ("t1 $", "unexpected character '$'", 3),
        ("\u00e9 + t1", "unknown identifier '\u00e9'", 0),
        ("t1 + \u00b2", "unexpected character '\u00b2'", 5),
        ("\u00e9 + $", "unexpected character '$'", 5),  # \u00e9 is two bytes
    ],
)
def test_lexer_errors_keep_their_message_and_byte_offset(source, message, offset):
    with pytest.raises(ParseError) as exc:
        parse_expr(source)
    assert str(exc.value) == f"{message} (offset {offset})"
    assert exc.value.offset == offset


# Numbers that exercise math.pow against **: zero and negative bases,
# integral and fractional exponents, and magnitudes that overflow.
_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, -3.0, 1 / 3, 400.0, 1e300, -1e300]),
    st.floats(min_value=-20.0, max_value=20.0),
)
_LEAVES = st.one_of(_NUMBERS.map(Num), st.integers(min_value=1, max_value=3).map(Var))


def _calls(children):
    return st.sampled_from(sorted(FUNCTIONS)).flatmap(
        lambda fn: st.tuples(*[children] * FUNCTIONS[fn][0]).map(lambda args: Call(fn, args))
    )


_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Bin, st.sampled_from("+-*/^"), children, children),
        st.builds(Bin, st.just("^"), children, st.sampled_from([2.0, 3.0, -1.0, -2.0, 0.5, 1 / 3]).map(Num)),
        children.map(lambda e: Unary("-", e)),
        _calls(children),
    ),
    max_leaves=10,
)


@given(_TREES, st.tuples(_NUMBERS, _NUMBERS, _NUMBERS))
@settings(max_examples=1000, deadline=None)
def test_compiled_code_matches_the_interpreter_on_random_trees(tree, env):
    """Same value by repr, or the same EvalError message and span.

    The tree is read back from its text, so its spans are real ones.
    """
    tree = parse_expr(to_source(tree))

    def run(fn):
        try:
            return repr(fn())
        except EvalError as exc:
            return str(exc), exc.span

    assert run(lambda: compile_expr(tree, 3)(env)) == run(lambda: eval_expr(tree, env))


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


# Leaf templates whose texts share one token shape per template; every {}
# is a number.  They cover unary minus on a number (-0.0 from -0), a double
# minus, faults at evaluation, t2 (unbound in a 1-d leaf) and a lexer error.
_TEMPLATES = [
    "{} + {}*(t1 + {}) + {}*(t1 + {})^2",
    "-{}*t1 - -{}",
    "--{} + t1/(t1 - {})",
    "max(t1, -{})^{} + t2",
    "{}*t1^-{} - exp({}*t1)",
    "t1 + {}.",
]
# Number texts: zero, the smallest subnormal, the largest floats, texts
# that overflow to inf (a ParseError) or underflow to 0, and ordinary ones.
_NUMBER_TEXTS = st.one_of(
    st.sampled_from(
        ["0", "0.0", "5e-324", "1e308", "1.7976931348623157e308", "1e309", "2e400", "1e-400", "3", "0.5"]
    ),
    st.floats(min_value=0.0, max_value=1e6).map(repr),
)
_STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_TEMPLATES) - 1),
        st.lists(_NUMBER_TEXTS, min_size=5, max_size=5),
        st.integers(min_value=1, max_value=2),
    ),
    min_size=1,
    max_size=12,
)
_ROWS = st.lists(st.tuples(*[st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -3.0])] * 2), min_size=1, max_size=3)


def _outcome(fn):
    """repr of the value, or the exception's type, message and offset or span."""
    try:
        return repr(fn())
    except (ParseError, EvalError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None), getattr(exc, "span", None)
    except (ArithmeticError, ValueError) as exc:
        return type(exc).__name__


def _function_or_error(make):
    """(code, repr of the bound numbers) of the function made, or the error's type, message and offset or span."""
    try:
        fn = make()
    except (ParseError, EvalError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "offset", None), getattr(exc, "span", None)
    return fn.__code__, repr(fn.__defaults__)


# Fragments of adversarial leaf texts, joined at random: every kind of token,
# the malformed numbers, spacing, a non-ASCII letter and digit, and {} for
# what varies between the texts of one skeleton.  The repeats make about one
# text in ten compile, so that later texts of its skeleton hit its entry.
_FRAGMENTS = [
    "{}", "{}", "{}", "{}", "{}", "0", "7", "12", ".", "e", "E", "+", "+", " + ", "-", "*", "*", "/",
    "^", "^", ",", "t1", "t1", "t1", "t2", "t", "x", "sin", "max", "(", ")", " ", "\t", "\u00e9",
    "\u0663", "1.", "2e+", "1e+5.5", "2t1",
]
# What {} stands for: mostly numbers, one too large for a float, and texts
# that a number pattern could take for one (a non-ASCII digit, 1., 2e+).
_LEAF_NUMBERS = st.sampled_from(
    ["0", "3", "0.5", "12.25", "1e3", "2E-2", "1e+5", "007", "5e-324", "1e309", "\u0663", "1\u0663", "1.", "2e+"]
)


class TestLeafCode:
    """The table of generated code that texts of one shape share."""

    @given(_STEPS, _ROWS, st.integers(min_value=1, max_value=4))
    @settings(max_examples=300, deadline=None)
    def test_a_hit_has_the_bits_and_errors_of_a_fresh_parse(self, steps, rows, bound):
        table, sources = expr._LEAF_CODE, expr._CODE
        table.clear()  # each example starts cold; the fixture's tables serve all of them
        sources.clear()
        with mock.patch.object(expr, "LEAF_CODE_SIZE", bound):
            for index, numbers, dim in steps:
                text = _TEMPLATES[index].format(*numbers)
                before = dict(table)
                fresh = _outcome(lambda: compile_expr(parse_expr(text), dim))
                if isinstance(fresh, tuple):  # an error: the same one, and no entry
                    assert _outcome(lambda: expr._leaf_code(text, dim)) == fresh
                    assert table == before
                    continue
                code = expr._leaf_code(text, dim)
                reference = compile_expr(parse_expr(text), dim).code
                tree = parse_expr(text)
                for row in rows:
                    t = row[:dim]
                    assert _outcome(lambda: code(t)) == _outcome(lambda: reference(t))
                    interpreted = _outcome(lambda: eval_expr(tree, t))
                    if isinstance(interpreted, str):
                        assert _outcome(lambda: code(t)) == interpreted
                    else:
                        assert interpreted[0] == "EvalError"
                assert 1 <= len(table) <= bound and 1 <= len(sources) <= bound

    @pytest.mark.parametrize("built", ["text", "expr"])
    def test_one_template_compiles_once(self, built, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return builtins.compile(*args)

        monkeypatch.setattr(expr, "compile", counting, raising=False)
        texts = [f"1.5 + {k / 8!r}*(t1 + {k / 4!r}) + 0.0625*(t1 + {k / 4!r})^2" for k in range(200)]
        # Trees skip the text table, but numbers of either sign are one
        # parameter each, so all 200 trees share one generated source.
        leaves = texts if built == "text" else [
            Bin("+", Num((-1) ** k * k / 8), Bin("*", Var(1), Num(k / 4))) for k in range(200)
        ]
        pieces = [cube_from_exprs(1, Shape((0.25,)), Euclidean(1), [leaf]) for leaf in leaves]
        assert len(calls) == 1
        for leaf, piece in zip(leaves, pieces):
            tree = parse_expr(leaf) if built == "text" else leaf
            assert repr(piece.at((0.125,)).coords) == repr((eval_expr(tree, (0.125,)),))

    def test_a_hit_keeps_its_entry_longest(self, monkeypatch):
        monkeypatch.setattr(expr, "LEAF_CODE_SIZE", 2)
        texts = ["1 + t1", "2*t1", "3 + t1", "t1^4"]  # the third is a hit on the first
        for text in texts:
            expr._leaf_code(text, 1)
        assert [key[1:] for key in expr._LEAF_CODE] == [("", " + t1"), ("t1^", "")]
        expr._CODE.clear()
        for text in texts:  # trees skip the text table and hit the source table
            compile_expr(parse_expr(text), 1)
        assert list(expr._CODE) == ["lambda t,c0: c0+t[0]", "lambda t,c0: _pow(t[0],c0)"]

    @given(
        st.lists(st.sampled_from(_FRAGMENTS), min_size=1, max_size=10).map("".join),
        st.lists(st.lists(_LEAF_NUMBERS, min_size=10, max_size=10), min_size=1, max_size=4),
        st.integers(min_value=1, max_value=2),
    )
    @example("t{}", [["1"], ["2"]], 2)  # the digits of a variable are not a number
    @example("{}*t1", [["3"], ["\u0663"]], 1)  # nor is a non-ASCII digit
    @settings(max_examples=500, deadline=None)
    def test_the_split_key_agrees_with_a_fresh_parse(self, skeleton, number_sets, dim):
        """Texts of one skeleton, each keyed cold or after the others."""
        table = expr._LEAF_CODE
        table.clear()  # each example starts cold
        expr._CODE.clear()
        texts = [skeleton.format(*numbers) for numbers in number_sets]
        for text in texts + texts:  # the second pass finds every shape warm
            before = dict(table)
            ours = _function_or_error(lambda: expr._leaf_code(text, dim))
            assert ours == _function_or_error(lambda: compile_expr(parse_expr(text), dim).code)
            if isinstance(ours[0], str):  # an error adds no entry
                assert table == before


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
