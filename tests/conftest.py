"""Shared fixtures and frozen regression data for the test suite."""
from __future__ import annotations

import pytest

from moorecubes import Euclidean, MooreCube, expr, make_cube

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
