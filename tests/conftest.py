"""Shared fixtures and frozen regression data for the test suite."""
from __future__ import annotations

import pytest

from moorecubes import (
    Euclidean,
    MooreCube,
    Product,
    Sign,
    compose_lenient,
    compose_strict,
    connection,
    degeneracy,
    expr,
    extend_chain,
    face,
    gen_cube,
    make_cube,
    reassociate,
    reverse,
    tensor,
)

# Twenty expression cases whose results are exact IEEE-754 doubles that can
# be derived by hand. They are asserted with == (no tolerance) against both
# the interpreter and the compiled form.
DSL_REGRESSION_VECTOR: list[tuple[str, tuple[float, ...], float]] = [
    ("2+3*t1", (2.0,), 8.0),
    ("t1^2", (1.5,), 2.25),
    ("t1*t2 + sin(t1)", (0.0, 5.0), 0.0),
    ("min(t1, t2)", (1.0, 1.7), 1.0),
    ("max(t1, -t2)", (1.0, 1.7), 1.0),
    ("-t1^2", (2.0,), -4.0),
    ("2^3^2", (), 512.0),
    ("(2+3)*t1", (2.0,), 10.0),
    ("7/2", (), 3.5),
    ("1 - 2 - 3", (), -4.0),
    ("12/3/2", (), 2.0),
    ("cos(0)", (), 1.0),
    ("exp(0) + 41", (), 42.0),
    ("abs(0 - 3.5)", (), 3.5),
    ("2*t1 - t2/4", (0.5, 2.0), 0.5),
    ("t1^0.5", (6.25,), 2.5),
    ("(-2)^2", (), 4.0),
    ("1/(1+t1)", (3.0,), 0.25),
    ("min(max(t1, t2), 3)", (2.5, 1.0), 2.5),
    ("0.1 + 0.2", (), 0.30000000000000004),
]

# Malformed inputs and the byte offset their ParseError must report.
DSL_PARSE_ERRORS: list[tuple[str, int]] = [
    ("(t1", 3),
    ("", 0),
    ("1 +", 3),
    ("2 ** 3", 3),
    ("sin()", 4),
    ("min(1)", 5),
    ("foo(1)", 0),
    ("1 + )", 4),
    ("t0", 0),
    ("1.2.3", 3),
    ("min(1, 2", 8),
]


def square_path(extent: float = 2.0) -> MooreCube:
    """The running example: t maps to t squared on [0, extent]."""
    return make_cube(1, (extent,), Euclidean(1), lambda ts: (ts[0] ** 2,))


def line_path(offset: float = 4.0, extent: float = 3.0) -> MooreCube:
    """The running example's partner: t maps to offset + t."""
    return make_cube(1, (extent,), Euclidean(1), lambda ts: (offset + ts[0],))


@pytest.fixture(autouse=True)
def empty_code_tables(monkeypatch):
    """Each test starts with empty code tables, so no count of parses or
    compile() calls depends on the tests that ran before it."""
    monkeypatch.setattr(expr, "_CODE", {})
    monkeypatch.setattr(expr, "_LEAF_CODE", {})


@pytest.fixture
def c_square() -> MooreCube:
    return square_path()


@pytest.fixture
def c_line() -> MooreCube:
    return line_path()


def rebracketed(space):
    """The other bracketing of a product of three factors, or the space itself."""
    if isinstance(space, Product) and isinstance(space.left, Product):
        return Product(space.left.left, Product(space.left.right, space.right))
    if isinstance(space, Product) and isinstance(space.right, Product):
        return Product(Product(space.left, space.right.left), space.right.right)
    return space


def mapped(rng, name, c):
    """c under the structure map name, with indices drawn from rng."""
    i, sign = rng.randint(1, max(c.dim, 1)), rng.choice(list(Sign))
    if name == "face":
        return face(c, i, sign)
    if name == "degeneracy":
        return degeneracy(c, rng.randint(1, c.dim + 1))
    if name == "connection":
        return connection(c, i, sign)
    if name == "reverse":
        return reverse(c, i)
    if name == "strict":  # then a zero-extent piece on c's upper i-face
        return compose_strict(c, degeneracy(face(c, i, Sign.PLUS), i), i)
    if name == "lenient":  # after a zero-extent piece on c's lower i-face
        return compose_lenient(degeneracy(face(c, i, Sign.MINUS), i), c, i)
    if name == "chain":
        return compose_strict(c, extend_chain(rng, c, i), i)
    if name == "tensor":
        return tensor(c, gen_cube(rng, rng.randint(0, 1)))
    return reassociate(c, rebracketed(c.space))


# The dimensions each structure map of the fuzz cubes is applied at.
MAP_DIMS = {
    "face": range(1, 5),
    "degeneracy": range(0, 4),
    "connection": range(1, 4),
    "reverse": range(1, 5),
    "strict": range(1, 4),
    "lenient": range(1, 4),
    "chain": range(1, 4),
    "tensor": range(0, 4),
    "reassociate": range(0, 5),
}


def fuzz_cube(rng, dim, names):
    """gen_cube(rng, dim) under each structure map of names in turn, where MAP_DIMS allows it."""
    cube = gen_cube(rng, dim)
    for name in names:
        if name == "chain" and getattr(cube.provenance, "exprs", None) is None:
            continue  # extend_chain takes DSL leaves only
        if cube.dim in MAP_DIMS[name]:
            cube = mapped(rng, name, cube)
    return cube
