"""The verifier's shared draws and size rule.

Every suite draws from its own ``random.Random(seed)`` through these
helpers, in a fixed order, so a report is reproducible from its seed.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from . import frames
from .algebra import Algebra, Multivector, combination


def _rational(rng: random.Random) -> Fraction:
    """A random p/q with p in -9..9 and q in 1..9."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_multivector(algebra: Algebra, rng: random.Random,
                       terms=5) -> Multivector:
    """``terms`` times, a value drawn as :func:`_rational` draws it, then a
    blade; a later draw on a blade replaces its value and keeps its place.
    Built from the integer numerators over their lcm, with no ``Fraction``."""
    draws = {}
    for _ in range(terms):
        value = rng.randint(-9, 9), rng.randint(1, 9)
        draws[rng.randrange(algebra.dim)] = value
    den = math.lcm(*(d for _, d in draws.values()))
    return algebra._from_integers({b: n * (den // d) for b, (n, d) in draws.items()}, den)


def random_vector(vectors, rng: random.Random) -> Multivector:
    """A random rational combination of the given grade-1 vectors."""
    return combination(vectors[0].algebra, [(a, _rational(rng)) for a in vectors])


def _sizes(n_max: int, lo: int = 2, hi: int = frames.FRAME_LIMIT) -> range:
    """Sizes lo..hi cut at ``n_max``; a size is a frame's n+1 or a G(p,q)'s p+q."""
    return range(lo, min(hi, n_max) + 1)


def _frames(n_max: int, lo: int = 2, hi: int = frames.FRAME_LIMIT, sign: int = 1):
    """The null frames of ``_sizes(n_max, lo, hi)``, built one at a time."""
    for size in _sizes(n_max, lo, hi):
        yield frames.build_null_frame(size, sign)
