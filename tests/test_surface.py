"""The names lawbench's tracer drives must exist in the shape it expects.

``lawbench/tracing.py`` wraps public functions by module and name, counts
``MooreCube.at`` calls by swapping the class attribute, keys its per-node
metrics by provenance class names, and subclasses ``EqualityOracle``.  A
rename here would silently zero its counters, so the surface is pinned.
"""
from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from moorecubes import core

_spec = importlib.util.spec_from_file_location(
    "lawbench_tracing", Path(__file__).resolve().parents[1] / "lawbench" / "tracing.py"
)
tracing = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize("hook", tracing.HOOKS, ids=lambda h: f"{h.module}.{h.name}")
def test_hooked_function_exists(hook):
    module = importlib.import_module(f"moorecubes.{hook.module}")
    assert callable(getattr(module, hook.name, None))


@pytest.mark.parametrize("name", sorted(tracing.ROOTS))
def test_root_class_exists_in_core(name):
    assert isinstance(getattr(core, name, None), type)


@pytest.mark.parametrize("name", sorted(set(tracing.ROOTS) - {"Primitive"}))
def test_node_has_its_children(name):
    fields = {f.name for f in dataclasses.fields(getattr(core, name))}
    assert "source" in fields or {"left", "right"} <= fields


def test_at_is_a_class_attribute():
    assert "at" in vars(core.MooreCube)


def test_frozen_oracle_subclass_constructs_without_arguments():
    @dataclasses.dataclass(frozen=True)
    class Subclass(core.EqualityOracle):
        pass

    assert dataclasses.astuple(Subclass()) == dataclasses.astuple(core.EqualityOracle())


def test_an_oracle_subclass_sees_the_grid_of_every_comparison():
    """lawbench counts grid points by wrapping grid and union_grid."""
    from moorecubes import Euclidean, cube_from_exprs

    seen = []

    def walk(points):
        for p in points:
            seen.append(p)
            yield p

    @dataclasses.dataclass(frozen=True)
    class Counting(core.EqualityOracle):
        def grid(self, shape):
            return walk(super().grid(shape))

        def union_grid(self, a, b):
            return walk(super().union_grid(a, b))

    plain, counting = core.EqualityOracle(), Counting()
    a = cube_from_exprs(2, (1.0, 2.0), Euclidean(1), ["t1*t2"])
    b = cube_from_exprs(2, (1.5, 2.0), Euclidean(1), ["t1*t2 + t1"])
    nan = cube_from_exprs(2, (1.0, 2.0), Euclidean(1), ["t1*t2*1e308*10 - t1*t2*1e308*10"])
    for x, y in ((a, a), (a, nan)):
        seen.clear()
        assert repr(counting.equals_strict(x, y)) == repr(plain.equals_strict(x, y))
        assert seen == list(plain.grid(x.shape))
    for x, y in ((a, b), (b, a), (a, nan)):
        seen.clear()
        assert repr(counting.equals_action(x, y)) == repr(plain.equals_action(x, y))
        assert seen == list(plain.union_grid(x.shape, y.shape))
