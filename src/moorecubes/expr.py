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

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

from .core import MooreCube, Shape, Space, make_cube
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

_ATOM_EXPECTED = ("number", "variable", "function", "'('", "'-'")
_DIGITS = "0123456789"  # str.isdigit also accepts characters such as '²' and '١'

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


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "num", "ident", "op", "(", ")", ",", "eof"
    text: str
    start: int  # byte offsets
    end: int


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0  # char index
    byte = 0  # byte offset of text[pos]
    n = len(text)

    def advance(count: int) -> None:
        nonlocal pos, byte
        byte += len(text[pos : pos + count].encode("utf-8"))
        pos += count

    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            advance(1)
            continue
        start = byte
        if ch in _DIGITS:
            end = pos + 1
            while end < n and text[end] in _DIGITS:
                end += 1
            if end < n and text[end] == ".":
                if end + 1 >= n or text[end + 1] not in _DIGITS:
                    raise ParseError(
                        "digit must follow decimal point",
                        start + (end + 1 - pos),
                        ("digit",),
                    )
                end += 1
                while end < n and text[end] in _DIGITS:
                    end += 1
            if end < n and text[end] in "eE":
                mark = end + 1
                if mark < n and text[mark] in "+-":
                    mark += 1
                if mark >= n or text[mark] not in _DIGITS:
                    raise ParseError(
                        "malformed exponent", start + (mark - pos), ("digit",)
                    )
                end = mark
                while end < n and text[end] in _DIGITS:
                    end += 1
            word = text[pos:end]
            advance(end - pos)
            tokens.append(_Token("num", word, start, byte))
            continue
        if ch.isalpha() or ch == "_":
            end = pos + 1
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            advance(end - pos)
            tokens.append(_Token("ident", word, start, byte))
            continue
        if ch in "+-*/^":
            advance(1)
            tokens.append(_Token("op", ch, start, byte))
            continue
        if ch in "(),":
            advance(1)
            tokens.append(_Token(ch if ch != "," else ",", ch, start, byte))
            continue
        raise ParseError(f"unexpected character {ch!r}", start, _ATOM_EXPECTED)
    tokens.append(_Token("eof", "", byte, byte))
    return tokens


# ---------------------------------------------------------------------------
# parser


class _Parser:
    """Recursive descent; each method returns a node and its height (see MAX_DEPTH)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels open around the current token

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.cur
        self.pos += 1
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
        while self.cur.kind == "op" and self.cur.text in "+-":
            op = self.take()
            right, right_height = self.term()
            height = self.level(op, 1 + max(height, right_height))
            node = Bin(op.text, node, right, (node.span[0], right.span[1]))
        return node, height

    def term(self) -> tuple[Expr, int]:
        node, height = self.factor()
        while self.cur.kind == "op" and self.cur.text in "*/":
            op = self.take()
            right, right_height = self.factor()
            height = self.level(op, 1 + max(height, right_height))
            node = Bin(op.text, node, right, (node.span[0], right.span[1]))
        return node, height

    def factor(self) -> tuple[Expr, int]:
        if self.cur.kind == "op" and self.cur.text == "-":
            tok = self.take()
            self.enter(tok)
            operand, height = self.factor()
            self.depth -= 1
            return Unary("-", operand, (tok.start, operand.span[1])), height + 1
        # power = atom , [ "^" , factor ], parsed here to spare a frame per level
        base, height = self.atom()
        if self.cur.kind == "op" and self.cur.text == "^":
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
        if tok.kind == "(":
            self.take()
            self.enter(tok)
            node, height = self.expr()
            self.depth -= 1
            if self.cur.kind != ")":
                raise self.fail("expected ')'", ("operator", "')'"))
            close = self.take()
            return _respan(node, tok.start, close.end), height + 1
        raise self.fail(f"expected an operand, found {tok.text or 'end of input'!r}", _ATOM_EXPECTED)

    def call(self, name: _Token) -> tuple[Expr, int]:
        arity = FUNCTIONS[name.text][0]
        if self.cur.kind != "(":
            raise self.fail(f"{name.text} requires arguments", ("'('",))
        self.take()
        self.enter(name)
        args = [self.expr()]
        while len(args) < arity:
            if self.cur.kind != ",":
                raise self.fail(
                    f"{name.text} takes {arity} arguments", ("','",)
                )
            self.take()
            args.append(self.expr())
        self.depth -= 1
        if self.cur.kind == ",":
            raise self.fail(f"{name.text} takes {arity} arguments", ("')'",))
        if self.cur.kind != ")":
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

    Division and power faults raise the same EvalError (with spans) as the
    interpreter; a function call that overflows or leaves its domain
    re-runs the interpreter, which names the failing call.  Variables
    beyond n_vars are rejected here, at compile time.
    """

    calls = False

    def emit(e: Expr) -> str:
        nonlocal calls
        if isinstance(e, Num):
            return repr(e.value)
        if isinstance(e, Var):
            if e.index > n_vars:
                raise EvalError(f"unbound variable {e.name}", e.span)
            return f"t[{e.index - 1}]"
        if isinstance(e, Unary):
            return f"(-{emit(e.operand)})"
        if isinstance(e, Bin):
            left, right = emit(e.left), emit(e.right)
            if e.op in "+-*":
                return f"({left}{e.op}{right})"
            helper = "_div" if e.op == "/" else "_pow"
            return f"{helper}({left},{right},{e.span[0]},{e.span[1]})"
        calls = True
        args = ",".join(emit(a) for a in e.args)
        return f"_f_{e.fn}({args})"

    namespace: dict[str, object] = {"_div": _div, "_pow": _pow, "__builtins__": {}}
    for name, (_, fn) in FUNCTIONS.items():
        namespace[f"_f_{name}"] = fn
    body = emit(expr)
    if not calls:
        return eval(compile(f"lambda t: {body}", "<moore-expr>", "eval"), namespace)
    # A def with try compiles about 40% slower than a lambda, so only
    # expressions with function calls, which alone can raise a bare math
    # error, pay for it.
    namespace.update(_faults=_MATH_FAULTS, _interpret=lambda t: eval_expr(expr, t))
    source = f"def compiled(t):\n try:\n  return {body}\n except _faults:\n  return _interpret(t)"
    exec(compile(source, "<moore-expr>", "exec"), namespace)
    return namespace["compiled"]


def cube_from_exprs(
    dim: int,
    shape: Shape | Sequence[float],
    space: Space,
    exprs: Sequence[str | Expr],
) -> MooreCube:
    """Build a cube whose action components are DSL expressions.

    An Expr is kept as its to_source text, so one that text would nest
    deeper than MAX_DEPTH raises the ParseError that parsing the text does.
    """
    if len(exprs) != space.total_dim:
        raise DimensionMismatch(
            f"{len(exprs)} expression(s) for a space of dimension {space.total_dim}"
        )
    sources: list[str] = []
    compiled: list[Callable[[Sequence[float]], float]] = []
    for e in exprs:
        if isinstance(e, str):
            node, source = parse_expr(e), e
        else:
            node = e
            source, height = _render(e, _LEVEL_ADD)
            if height > MAX_DEPTH:
                parse_expr(source)  # raises the ParseError that loading the source would
        sources.append(source)
        compiled.append(compile_expr(node, dim))
    fns = tuple(compiled)

    def evaluator(ts: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(fn(ts) for fn in fns)

    def batch(rows: list[tuple[float, ...]]) -> list[list[float]]:
        return [list(map(fn, rows)) for fn in fns]

    return make_cube(dim, shape, space, evaluator, exprs=sources, batch=batch)
