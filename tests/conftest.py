"""Shared random-value builders for the test suite.

Everything takes an explicit random.Random so each test pins its own seed.
"""

from __future__ import annotations

import random

from hypothesis import settings

from excalc.extensors import ExtensorFactors
from excalc.multivector import Multivector

# Property tests draw the same bounded set of examples on every run, so the
# suite is reproducible and its wall time does not drift.
settings.register_profile(
    "excalc", derandomize=True, max_examples=40, deadline=None, database=None
)
settings.load_profile("excalc")


def random_coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def random_mv(rng: random.Random, d: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << d)] = random_coeff(rng)
    return Multivector(d, terms)


def random_homogeneous(rng: random.Random, d: int, k: int, max_terms: int = 3) -> Multivector:
    masks = [m for m in range(1 << d) if m.bit_count() == k]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(masks)] = random_coeff(rng)
    return Multivector(d, terms)


def random_vector(rng: random.Random, d: int) -> tuple[complex, ...]:
    return tuple(random_coeff(rng) for _ in range(d))


def random_factors(rng: random.Random, d: int, k: int) -> ExtensorFactors:
    return ExtensorFactors(d, tuple(random_vector(rng, d) for _ in range(k)))
