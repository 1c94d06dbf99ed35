"""Generated cubes: sampled values pinned across refactors of the generators."""
from __future__ import annotations

import hashlib
import random

from moorecubes import EqualityOracle, cube_from_exprs, parse_expr
from moorecubes import expr, generators
from moorecubes.generators import extend_chain, gen_composable_pair, gen_cube, quadrants
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
    """The (cube, trees) pairs the lab's private helpers pass on, for one seed."""
    rng = random.Random(seed)
    dim = 1 + seed % 3
    allow_zero = (seed // 3) % 2 == 1
    j = rng.randint(1, dim)
    a, b = generators._composable_pair(rng, dim, j, None, allow_zero)
    c = generators._extend_chain(rng, b, j, allow_zero)
    x = generators._gen_leaf(rng, 2, allow_zero=allow_zero)
    low, high = generators._subdivide(x, 1, _cut(rng, x[0].shape[0]))
    cut = _cut(rng, x[0].shape[1])
    return [a, b, c, x, low, high, *generators._subdivide(low, 2, cut), *generators._subdivide(high, 2, cut)]


def test_kept_trees_are_the_parsed_texts():
    for seed in range(100):
        for cube, trees in _leaves(seed):
            assert trees == [parse_expr(text) for text in cube.provenance.exprs]


def test_kept_trees_make_the_cubes_the_texts_make():
    for seed in range(30):
        for cube, trees in _leaves(seed):
            again = cube_from_exprs(cube.dim, cube.shape, cube.space, list(cube.provenance.exprs))
            points = list(EqualityOracle().grid(cube.shape))
            assert repr(cube.coords_at(points)) == repr(again.coords_at(points))


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
