"""Generated cubes: sampled values pinned across refactors of the generators."""
from __future__ import annotations

import hashlib
import random

import pytest

from moorecubes import BadIndex, EqualityOracle, Euclidean, cube_from_exprs, parse_expr
from moorecubes import expr, generators
from moorecubes.generators import extend_chain, gen_composable_pair, gen_cube, quadrants, subdivide
from moorecubes.lawlab import run_suite


def _cut(rng: random.Random, r: float) -> float:
    """0, r or a point between; a third of the time one where (r - cut) + cut > r."""
    if rng.random() < 1 / 3:
        for _ in range(10_000):
            cut = rng.uniform(0.0, r)
            if (r - cut) + cut > r:
                return cut
    return rng.choice((0.0, r, rng.uniform(0.0, r)))


def _generated_cubes(seed: int) -> list:
    """A chain of three cubes (dims 1-3, zero extents on or off) and four quadrants."""
    rng = random.Random(seed)
    dim = 1 + seed % 3
    allow_zero = (seed // 3) % 2 == 1
    j = rng.randint(1, dim)
    a, b = gen_composable_pair(rng, dim, j, allow_zero=allow_zero)
    c = extend_chain(rng, b, j, allow_zero=allow_zero)
    x = gen_cube(rng, 2, allow_zero=allow_zero)
    (low_low, low_high), (high_low, high_high) = quadrants(x, *(_cut(rng, r) for r in x.shape))
    return [a, b, c, low_low, low_high, high_low, high_high]


def test_sampled_values_of_generated_cubes():
    """The grid-5 values of 100 seeds of chains and quadrants, bit for bit.

    The upper faces of the right quadrant pieces evaluate x at
    (r - cut) + cut, which can round past r; the digest pins that they
    still read the value at r.
    """
    grid = EqualityOracle(samples_per_axis=5).grid
    digest = hashlib.sha256()
    for seed in range(100):
        rows = [(p, cube.at(p).coords) for cube in _generated_cubes(seed) for p in grid(cube.shape)]
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == "5006c65bd74faccdba4b5abd6bd5f03ca061489fb0aadf880c18d0ab59af9c79"


def _leaves(seed: int) -> list:
    """The DSL primitives the generators build for one seed, each keeping its trees."""
    rng = random.Random(seed)
    dim = 1 + seed % 3
    allow_zero = (seed // 3) % 2 == 1
    j = rng.randint(1, dim)
    a, b = gen_composable_pair(rng, dim, j, allow_zero=allow_zero)
    c = extend_chain(rng, b, j, allow_zero=allow_zero)
    x = gen_cube(rng, 2, allow_zero=allow_zero)
    low, high = subdivide(x, 1, _cut(rng, x.shape[0]))
    cut = _cut(rng, x.shape[1])
    return [a, b, c, x, low, high, *subdivide(low, 2, cut), *subdivide(high, 2, cut)]


def test_kept_trees_are_the_parsed_texts():
    for seed in range(100):
        for cube in _leaves(seed):
            trees = cube.provenance.trees
            assert trees == tuple(parse_expr(text) for text in cube.provenance.exprs)


def test_kept_trees_make_the_cubes_the_texts_make():
    for seed in range(30):
        for cube in _leaves(seed):
            assert cube.provenance.trees is not None
            again = cube_from_exprs(cube.dim, cube.shape, cube.space, list(cube.provenance.exprs))
            points = list(EqualityOracle().grid(cube.shape))
            assert repr(cube.coords_at(points)) == repr(again.coords_at(points))


def test_only_a_leaf_given_every_tree_keeps_its_trees():
    trees = (parse_expr("t1 + 1"), parse_expr("2*t1"))
    space = Euclidean(2)
    assert cube_from_exprs(1, (1.0,), space, list(trees)).provenance.trees == trees
    assert cube_from_exprs(1, (1.0,), space, ["t1 + 1", "2*t1"]).provenance.trees is None
    assert cube_from_exprs(1, (1.0,), space, [trees[0], "2*t1"]).provenance.trees is None


def test_a_text_leaf_is_rewritten_from_its_parsed_texts():
    rng = random.Random(5)
    text = cube_from_exprs(2, (1.0, 2.0), Euclidean(1), ["t1*t2 + 1"])
    (low_low, _), _ = quadrants(text, 0.5, 1.0)
    assert low_low.provenance is text.provenance
    right = extend_chain(rng, text, 2)
    assert right.provenance.trees is not None
    assert right.at((0.5, 0.0)) == text.at((0.5, 2.0))


class TestBadIndex:
    def test_extend_chain_direction(self):
        cube = gen_cube(random.Random(0), 2)
        for j in (0, 3):
            with pytest.raises(BadIndex, match=f"direction {j} out of range for dimension 2"):
                extend_chain(random.Random(0), cube, j)

    def test_subdivide_direction(self):
        cube = gen_cube(random.Random(0), 1)
        for j in (0, 2):
            with pytest.raises(BadIndex, match=f"direction {j} out of range for dimension 1"):
                subdivide(cube, j, 0.0)

    def test_quadrants_of_a_1_cube(self):
        cube = gen_cube(random.Random(0), 1)
        with pytest.raises(BadIndex, match="quadrants requires a 2-cube, got dimension 1"):
            quadrants(cube, 0.0, 0.0)


def test_the_lab_parses_only_the_texts_it_writes(monkeypatch):
    calls = []

    def counting(text):
        calls.append(text)
        return parse_expr(text)

    monkeypatch.setattr(expr, "parse_expr", counting)
    monkeypatch.setattr(generators, "parse_expr", counting)
    run_suite(n_instances=3, seed=42)
    # the canonical path of 2.7.first and 2.7.second: the second t1 reuses the first's code
    assert calls == ["t1"]
