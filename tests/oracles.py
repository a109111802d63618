"""Test helpers shared by more than one test module, each kept once.

This module holds no tests.  A helper here states its rule without the
kernel it checks: it calls into `excalc` only to build a value.
"""

from __future__ import annotations

from excalc.multivector import Multivector


def blade(d: int, *indices: int) -> Multivector:
    """The unit blade e_i1 ^ ... ^ e_ik in dimension d, built from its index list."""
    return Multivector.from_indices(d, indices)


def hex_terms(value: Multivector) -> list[tuple[int, str, str]]:
    """Every stored term as (mask, real part, imaginary part), the parts in
    `float.hex` form, so two values compare equal only when bit for bit equal,
    signed zeros and term order included."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in value]
