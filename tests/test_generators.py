"""Generated cubes: sampled values pinned across refactors of the generators."""
from __future__ import annotations

import hashlib
import random

from moorecubes import EqualityOracle
from moorecubes.generators import extend_chain, gen_composable_pair, gen_cube, quadrants


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
