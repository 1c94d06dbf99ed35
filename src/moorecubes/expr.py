"""A small arithmetic language for cube actions.

Expressions mention coordinates t1, t2, ... and combine them with
+ - * / ^ (with ^ binding tightest and associating to the right,
then unary minus, then * and /, then + and -), parentheses, and the
functions sin, cos, exp, abs (one argument) and min, max (two).

parse_expr reports syntax errors with a byte offset and the set of
tokens that would have been accepted; eval_expr is the reference
interpreter; compile_expr produces an equivalent fast callable used
for cube actions.

Grammar:

    expr    = term , { ("+" | "-") , term } ;
    term    = factor , { ("*" | "/") , factor } ;
    factor  = "-" , factor | power ;
    power   = atom , [ "^" , factor ] ;
    atom    = number | variable | call | "(" , expr , ")" ;
    call    = function , "(" , expr , { "," , expr } , ")" ;
    number  = digit , { digit } , [ "." , digit , { digit } ] ,
              [ ("e" | "E") , [ "+" | "-" ] , digit , { digit } ] ;
    variable = "t" , nonzero-digit , { digit } ;
"""
from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .core import MooreCube, Shape, Space, _leaf
from .errors import DimensionMismatch, EvalError, ParseError

FUNCTIONS: dict[str, tuple[int, Callable]] = {
    "sin": (1, math.sin),
    "cos": (1, math.cos),
    "exp": (1, math.exp),
    "abs": (1, abs),
    "min": (2, min),
    "max": (2, max),
}

# What math functions raise on overflow (exp) or outside their domain (sin(inf)).
_MATH_FAULTS = (OverflowError, ValueError)
# What compiled code raises where eval_expr raises EvalError: the math faults
# of math.pow and the functions, and ZeroDivisionError from /.
_FAULTS = (ArithmeticError, ValueError)
# The names compiled code reads: math.pow and the functions; no builtins.
_NAMESPACE = {
    "__builtins__": {},
    "_pow": math.pow,
    **{name: fn for name, (_, fn) in FUNCTIONS.items()},
}

_ATOM_EXPECTED = ("number", "variable", "function", "'('", "'-'")

# Deepest expression that parses: the height of its syntax tree, where each
# number, variable, operator, function call and pair of parentheses is one
# level.  Parsing, compiling and evaluating recurse once or a few times per
# level, so this keeps them within Python's recursion limit, also for the
# leaves of a cube file nested as deep as its own limit allows.
MAX_DEPTH = 50
_TOO_DEEP = f"expression nested too deeply (the limit is {MAX_DEPTH} levels)"


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True, slots=True)
class Num:
    value: float
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True, slots=True)
class Var:
    index: int  # 1-based
    span: tuple[int, int] = field(compare=False, default=(0, 0))

    @property
    def name(self) -> str:
        return f"t{self.index}"


@dataclass(frozen=True, slots=True)
class Unary:
    op: str
    operand: "Expr"
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True, slots=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"
    span: tuple[int, int] = field(compare=False, default=(0, 0))


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple["Expr", ...]
    span: tuple[int, int] = field(compare=False, default=(0, 0))


Expr = Union[Num, Var, Unary, Bin, Call]


# ---------------------------------------------------------------------------
# lexer


class _Token:
    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind = kind  # "num", "ident", "sym" (one of +-*/^(),) or "eof"
        self.text = text
        self.start = start  # byte offsets
        self.end = end


# One token after optional whitespace.  The first two alternatives are the
# malformed numbers, each ending where a digit is missing; word is any other
# run of \w (str.isalnum() or "_"), an identifier if it starts with a letter.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:"
    r"(?P<bad_fraction>[0-9]+\.)(?![0-9])"
    r"|(?P<bad_exponent>[0-9]+(?:\.[0-9]+)?[eE](?:[+-](?![0-9])|(?![-+0-9])))"
    r"|(?P<num>[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<sym>[-+*/^(),])"
    r"|(?P<eof>\Z)"
    r"|(?P<word>\w+)"
    r"|(?P<other>.))",
    re.DOTALL,
)
_MALFORMED = {
    "bad_fraction": "digit must follow decimal point",
    "bad_exponent": "malformed exponent",
}


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, start = m.group(kind), m.start(kind)
        if kind in _MALFORMED:
            raise ParseError(_MALFORMED[kind], _byte(text, m.end()), ("digit",))
        if kind == "word" and word[0].isalpha():
            kind = "ident"
        elif kind == "word" or kind == "other":
            raise ParseError(f"unexpected character {word[0]!r}", _byte(text, start), _ATOM_EXPECTED)
        tokens.append(_Token(kind, word, start, m.end()))
    if not text.isascii():
        byte = list(itertools.accumulate((len(ch.encode("utf-8")) for ch in text), initial=0))
        for tok in tokens:
            tok.start, tok.end = byte[tok.start], byte[tok.end]
    return tokens


def _byte(text: str, index: int) -> int:
    """The byte offset of text[index]."""
    return len(text[:index].encode("utf-8"))


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent; each method returns a node and its height (see MAX_DEPTH)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.cur = tokens[0]
        self.depth = 0  # levels open around the current token

    def take(self) -> _Token:
        tok = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]
        return tok

    def fail(self, message: str, expected: tuple[str, ...]) -> ParseError:
        return ParseError(message, self.cur.start, expected)

    def level(self, tok: _Token, height: int) -> int:
        """height, checked for a node started at tok inside the open levels."""
        if self.depth + height > MAX_DEPTH:
            raise ParseError(_TOO_DEEP, tok.start)
        return height

    def enter(self, tok: _Token) -> None:
        """Open a level at tok; its contents are parsed one level deeper."""
        self.level(tok, 2)
        self.depth += 1

    def expr(self) -> tuple[Expr, int]:
        node, height = self.term()
        while self.cur.text in ("+", "-"):
            op = self.take()
            right, right_height = self.term()
            height = self.level(op, 1 + max(height, right_height))
            node = Bin(op.text, node, right, (node.span[0], right.span[1]))
        return node, height

    def term(self) -> tuple[Expr, int]:
        node, height = self.factor()
        while self.cur.text in ("*", "/"):
            op = self.take()
            right, right_height = self.factor()
            height = self.level(op, 1 + max(height, right_height))
            node = Bin(op.text, node, right, (node.span[0], right.span[1]))
        return node, height

    def factor(self) -> tuple[Expr, int]:
        if self.cur.text == "-":
            tok = self.take()
            self.enter(tok)
            operand, height = self.factor()
            self.depth -= 1
            return Unary("-", operand, (tok.start, operand.span[1])), height + 1
        # power = atom , [ "^" , factor ], parsed here to spare a frame per level
        base, height = self.atom()
        if self.cur.text == "^":
            op = self.take()
            self.enter(op)
            exponent, exponent_height = self.factor()
            self.depth -= 1
            height = self.level(op, 1 + max(height, exponent_height))
            return Bin("^", base, exponent, (base.span[0], exponent.span[1])), height
        return base, height

    def atom(self) -> tuple[Expr, int]:
        tok = self.cur
        if tok.kind == "num":
            self.take()
            value = float(tok.text)
            if value == math.inf:
                raise ParseError(f"number {tok.text} is too large", tok.start, ("number",))
            return Num(value, (tok.start, tok.end)), 1
        if tok.kind == "ident":
            self.take()
            word = tok.text
            if word in FUNCTIONS:
                return self.call(tok)
            digits = word[1:]
            if word[0] == "t" and digits.isdigit() and digits.isascii() and digits[0] != "0":
                return Var(int(digits), (tok.start, tok.end)), 1
            raise ParseError(
                f"unknown identifier {word!r}",
                tok.start,
                ("variable", "function"),
            )
        if tok.text == "(":
            self.take()
            self.enter(tok)
            node, height = self.expr()
            self.depth -= 1
            if self.cur.text != ")":
                raise self.fail("expected ')'", ("operator", "')'"))
            close = self.take()
            return _respan(node, tok.start, close.end), height + 1
        raise self.fail(f"expected an operand, found {tok.text or 'end of input'!r}", _ATOM_EXPECTED)

    def call(self, name: _Token) -> tuple[Expr, int]:
        arity = FUNCTIONS[name.text][0]
        if self.cur.text != "(":
            raise self.fail(f"{name.text} requires arguments", ("'('",))
        self.take()
        self.enter(name)
        args = [self.expr()]
        while len(args) < arity:
            if self.cur.text != ",":
                raise self.fail(
                    f"{name.text} takes {arity} arguments", ("','",)
                )
            self.take()
            args.append(self.expr())
        self.depth -= 1
        if self.cur.text == ",":
            raise self.fail(f"{name.text} takes {arity} arguments", ("')'",))
        if self.cur.text != ")":
            raise self.fail("expected ')'", ("operator", "')'"))
        close = self.take()
        nodes = tuple(node for node, _ in args)
        return Call(name.text, nodes, (name.start, close.end)), 1 + max(h for _, h in args)


def _respan(node: Expr, start: int, end: int) -> Expr:
    """Widen a parenthesised expression's span without adding an AST node."""
    cls = type(node)
    fields = {f: getattr(node, f) for f in node.__dataclass_fields__ if f != "span"}
    return cls(**fields, span=(start, end))


def parse_expr(text: str) -> Expr:
    """Parse text; ParseError on a syntax error or past MAX_DEPTH levels."""
    parser = _Parser(_lex(text))
    node, _ = parser.expr()
    if parser.cur.kind != "eof":
        raise parser.fail(
            f"unexpected {parser.cur.text!r} after expression",
            ("operator", "end of input"),
        )
    return node


# ---------------------------------------------------------------------------
# evaluation


def _pow(base: float, exponent: float, start: int, end: int) -> float:
    try:
        result = base ** exponent
    except ZeroDivisionError:
        raise EvalError("zero raised to a negative power", (start, end)) from None
    except OverflowError:
        raise EvalError(f"{base!r}^{exponent!r} overflows", (start, end)) from None
    if isinstance(result, complex):
        raise EvalError(
            "fractional power of a negative base", (start, end)
        )
    return result


def _div(num: float, den: float, start: int, end: int) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        raise EvalError("division by zero", (start, end)) from None


def eval_expr(expr: Expr, env: Sequence[float] | Mapping[str, float]) -> float:
    """Reference interpreter; env is positional (t1 is env[0]) or by name."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        if isinstance(env, Mapping):
            try:
                return float(env[expr.name])
            except KeyError:
                raise EvalError(f"unbound variable {expr.name}", expr.span) from None
        if expr.index > len(env):
            raise EvalError(f"unbound variable {expr.name}", expr.span)
        return float(env[expr.index - 1])
    if isinstance(expr, Unary):
        return -eval_expr(expr.operand, env)
    if isinstance(expr, Bin):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        if expr.op == "/":
            return _div(left, right, *expr.span)
        return _pow(left, right, *expr.span)
    args = [eval_expr(a, env) for a in expr.args]
    try:
        return FUNCTIONS[expr.fn][1](*args)
    except _MATH_FAULTS:
        shown = ", ".join(repr(a) for a in args)
        raise EvalError(f"{expr.fn}({shown}) has no finite value", expr.span) from None


# ---------------------------------------------------------------------------
# pretty-printing

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _render(expr: Expr, floor: int) -> tuple[str, int]:
    """Source text and the height parse_expr gives it (see MAX_DEPTH)."""
    if isinstance(expr, Var):
        return expr.name, 1
    if isinstance(expr, Call):
        args = [_render(a, _LEVEL_ADD) for a in expr.args]
        inner = ", ".join(text for text, _ in args)
        return f"{expr.fn}({inner})", 1 + max(height for _, height in args)
    if isinstance(expr, Num):
        text = repr(expr.value)
        if text[0] != "-":
            return text, 1
        height, level = 1, _LEVEL_UNARY  # it reads back as a minus sign and a number
    elif isinstance(expr, Unary):
        text, height = _render(expr.operand, _LEVEL_UNARY)
        text = "-" + text
        level = _LEVEL_UNARY
    else:
        if expr.op in "+-":
            floors, sep, level = (_LEVEL_ADD, _LEVEL_MUL), f" {expr.op} ", _LEVEL_ADD
        elif expr.op in "*/":
            floors, sep, level = (_LEVEL_MUL, _LEVEL_UNARY), expr.op, _LEVEL_MUL
        else:  # ^ is right-associative
            floors, sep, level = (_LEVEL_ATOM, _LEVEL_UNARY), "^", _LEVEL_POW
        left, left_height = _render(expr.left, floors[0])
        right, height = _render(expr.right, floors[1])
        text = left + sep + right
        height = max(left_height, height)
    if level < floor:
        return f"({text})", height + 2
    return text, height + 1


def to_source(expr: Expr) -> str:
    """Render with minimal parentheses; reparsing gives an equal tree.

    A negative number reads back as a minus sign applied to a number.
    """
    return _render(expr, _LEVEL_ADD)[0]


def substitute(expr: Expr, index: int, value: Expr) -> Expr:
    """expr with every occurrence of t<index> replaced by value."""
    if isinstance(expr, Var):
        return value if expr.index == index else expr
    if isinstance(expr, Unary):
        return Unary(expr.op, substitute(expr.operand, index, value), expr.span)
    if isinstance(expr, Bin):
        left, right = substitute(expr.left, index, value), substitute(expr.right, index, value)
        return Bin(expr.op, left, right, expr.span)
    if isinstance(expr, Call):
        return Call(expr.fn, tuple(substitute(a, index, value) for a in expr.args), expr.span)
    return expr


# ---------------------------------------------------------------------------
# compilation


def compile_expr(expr: Expr, n_vars: int) -> Callable[[Sequence[float]], float]:
    """Compile to a plain Python callable equivalent to eval_expr.

    The generated code, the callable's code attribute, reads the numbers
    of expr from its parameters (see _emit) and does the arithmetic inline,
    with math.pow for ^ (the bits of ** where ** gives a float; it raises
    where ** would give a complex number).  Where it raises, the callable
    runs eval_expr instead, which raises the EvalError (with its span) that
    names the failing node.  Variables beyond n_vars are rejected here, at
    compile time.
    """
    code = _bind(*_emit(expr, n_vars))

    def compiled(t: Sequence[float]) -> float:
        try:
            return code(t)
        except _FAULTS:
            return eval_expr(expr, t)

    compiled.code = code
    return compiled


def _emit(expr: Expr, n_vars: int) -> tuple[CodeType, tuple[float, ...]]:
    """The code of lambda t, c0, c1, ...: <expr>, and the numbers of expr.

    There is one parameter per number, in source order (the emitter never
    reorders operands), so expressions that differ only in their numbers
    share one source, compiled once while _CODE keeps it.  A minus sign
    applied directly to a number makes one negative number, which is the
    value Python's constant folding gave an inline -c.  The numbers are
    bound as defaults (_bind), not as the cells of an outer maker lambda,
    which compile() takes a third longer or more to compile.
    """
    values: list[float] = []

    def emit(e: Expr, floor: int) -> str:
        """Python text for e, in parentheses only where floor binds tighter.

        Python's + - * / and unary minus bind and associate as the DSL's
        do, so the text parses to the tree of the fully parenthesised form,
        which compile() would take longer to parse.
        """
        if isinstance(e, Num):
            text, level = f"c{len(values)}", _LEVEL_ATOM
            values.append(e.value)
        elif isinstance(e, Var):
            if e.index > n_vars:
                raise EvalError(f"unbound variable {e.name}", e.span)
            text, level = f"t[{e.index - 1}]", _LEVEL_ATOM
        elif isinstance(e, Unary) and isinstance(e.operand, Num):
            text, level = f"c{len(values)}", _LEVEL_ATOM
            values.append(-e.operand.value)
        elif isinstance(e, Unary):
            text, level = "-" + emit(e.operand, _LEVEL_UNARY), _LEVEL_UNARY
        elif isinstance(e, Call):
            text, level = f"{e.fn}({','.join(emit(a, _LEVEL_ADD) for a in e.args)})", _LEVEL_ATOM
        elif e.op == "^":
            text, level = f"_pow({emit(e.left, _LEVEL_ADD)},{emit(e.right, _LEVEL_ADD)})", _LEVEL_ATOM
        elif e.op in "+-":
            text, level = emit(e.left, _LEVEL_ADD) + e.op + emit(e.right, _LEVEL_MUL), _LEVEL_ADD
        else:
            text, level = emit(e.left, _LEVEL_MUL) + e.op + emit(e.right, _LEVEL_UNARY), _LEVEL_MUL
        return text if level >= floor else f"({text})"

    body = emit(expr, _LEVEL_ADD)
    source = f"lambda t{''.join(f',c{i}' for i in range(len(values)))}: {body}"
    code = _recall(_CODE, source)
    if code is None:
        code = eval(compile(source, "<moore-expr>", "eval"), _NAMESPACE).__code__
        _keep(_CODE, source, code)
    return code, tuple(values)


def _bind(code: CodeType, numbers: tuple[float, ...]) -> Callable[[Sequence[float]], float]:
    """The function of code from _emit, with numbers as its c0, c1, ..."""
    return FunctionType(code, _NAMESPACE, None, numbers)


# The most entries _CODE and _LEAF_CODE each keep; the least recently used
# goes first.  run_suite(100, 42) compiles 6,838 trees of 1,151 distinct
# sources: 64 entries leave 2,259 compile() calls.
LEAF_CODE_SIZE = 64
# The Python source _emit generates -> its compiled code.
_CODE: dict[str, CodeType] = {}
# (dim, the text between the numbers of a leaf) -> the code _emit made for
# the first text of that shape, and the positions of its numbers that carry
# a folded minus sign.  Filled by _leaf_code.
_LEAF_CODE: dict[tuple, tuple[CodeType, tuple[int, ...]]] = {}
# A number of the grammar standing alone: no letter, digit, "_" or "." on
# either side, so the digits of t12 or of 2e+ are not numbers.  In a text
# that parses the matches are its number tokens, and a text with the same
# text between its numbers lexes to the same tokens but for their values.
# The look-behind comes after the first digit, so the search tries it only
# where a digit stands.
_NUMBER = re.compile(r"([0-9](?<![\w.][0-9])[0-9]*(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)(?![\w.])")


def _recall(table: dict, key):
    """table[key], now the most recently used entry; None when absent."""
    value = table.pop(key, None)
    if value is not None:
        table[key] = value
    return value


def _keep(table: dict, key, value) -> None:
    """table[key] = value, first dropping the least recently used entry of a full table."""
    if len(table) >= LEAF_CODE_SIZE:
        del table[next(iter(table))]
    table[key] = value


def _leaf_code(text: str, dim: int) -> Callable[[Sequence[float]], float]:
    """The code of compile_expr(parse_expr(text), dim), with the same bits.

    text is split at its numbers (_NUMBER): the key of _LEAF_CODE is dim
    and the text between them, whitespace included, and the numbers bind
    to the stored code.  So texts that differ only in their numbers share
    one entry, and only the first of a shape is parsed.  A text that fails
    to parse or compile raises what parse_expr or compile_expr raises and
    adds no entry; a number too large for a float always goes to the parser.
    """
    parts = _NUMBER.split(text)
    key = (dim, *parts[::2])
    numbers = list(map(float, parts[1::2]))
    entry = _recall(_LEAF_CODE, key)
    if entry is not None and math.inf not in numbers:
        code, negated = entry
        for k in negated:
            numbers[k] = -numbers[k]
        return _bind(code, tuple(numbers))
    code, values = _emit(parse_expr(text), dim)
    # The numbers of a text are never negative, so a value has its sign
    # bit set (-0.0 included) just where a minus sign was folded into it.
    _keep(_LEAF_CODE, key, (code, tuple(k for k, v in enumerate(values) if math.copysign(1.0, v) < 0)))
    return _bind(code, values)


def _interpret(sources: tuple[str, ...], rows: list[tuple[float, ...]]) -> list[list[float]]:
    """The values of each source on the rows, by eval_expr in the order the code runs.

    Called where the compiled code raised, so it raises the EvalError of
    the first fault, with a span into its source.
    """
    trees = [parse_expr(source) for source in sources]
    return [[eval_expr(tree, ts) for ts in rows] for tree in trees]


def cube_from_exprs(
    dim: int,
    shape: Shape | Sequence[float],
    space: Space,
    exprs: Sequence[str | Expr],
) -> MooreCube:
    """Build a cube whose action components are DSL expressions.

    An Expr is kept as its to_source text, so one whose text would not read
    back (nested deeper than MAX_DEPTH, or holding a number that is not
    finite) raises the ParseError that parsing the text does.  The cube keeps
    the texts, the generated code of compile_expr and, when every expression
    is an Expr, the trees (Primitive.trees): where the code raises, the texts
    are parsed again and interpreted, so the EvalError's span points into the
    text.  The code of a text comes from _leaf_code, which compiles each
    shape of text once.
    """
    if isinstance(exprs, str):
        raise TypeError(f"exprs must be a sequence of expressions, one per coordinate, not the str {exprs!r}")
    if len(exprs) != space.total_dim:
        raise DimensionMismatch(
            f"{len(exprs)} expression(s) for a space of dimension {space.total_dim}"
        )
    return _dsl_cube(dim, shape, space, map(_text_and_tree, exprs))


def _text_and_tree(e: str | Expr) -> tuple[str, Expr | None]:
    if isinstance(e, str):
        return e, None
    source, height = _render(e, _LEVEL_ADD)
    # A number that is not finite renders as the name inf or nan.
    if height > MAX_DEPTH or "inf" in source or "nan" in source:
        parse_expr(source)  # raises the ParseError that loading the source would
    return source, e


def _dsl_cube(
    dim: int, shape: Shape | Sequence[float], space: Space, leaves: Iterable[tuple[str, Expr | None]]
) -> MooreCube:
    """The cube of cube_from_exprs from (text, tree) pairs, one per coordinate of space.

    Each tree must be parse_expr(text) and is compiled as it is drawn, to
    compile_expr's code without its wrapper (batch catches the faults); a
    text without a tree gets its code from _leaf_code.  The trees are kept
    when every text has one.
    """
    sources: list[str] = []
    nodes: list[Expr | None] = []
    fns: list[Callable[[Sequence[float]], float]] = []
    for source, node in leaves:
        sources.append(source)
        nodes.append(node)
        fns.append(_leaf_code(source, dim) if node is None else _bind(*_emit(node, dim)))
    texts = tuple(sources)
    trees = None if None in nodes else tuple(nodes)

    def batch(rows: list[tuple[float, ...]]) -> list:
        try:
            if len(rows) == 1:  # Primitive.act's one point: one call per function
                (ts,) = rows
                return [(fn(ts),) for fn in fns]
            return [list(map(fn, rows)) for fn in fns]
        except _FAULTS:
            return _interpret(texts, rows)

    return _leaf(dim, shape, space, texts, batch, trees)
