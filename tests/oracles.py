"""Test helpers shared by more than one test module, each kept once.

This module holds no tests.  A helper here states its rule without the
kernel it checks: it calls into `excalc` only to build a value.  The rules:

- `blade`: the unit blade e_i1 ^ ... ^ e_ik, built from its index list;
- `hex_terms`: a value's terms in `float.hex` form, for bit-for-bit equality;
- `sort_sign`: the sign of a wedge of two blades, the parity of a bubble sort;
- `positions`: a blade mask's index list.
"""

from __future__ import annotations

from collections.abc import Iterable

from excalc.multivector import Multivector


def blade(d: int, *indices: int) -> Multivector:
    """The unit blade e_i1 ^ ... ^ e_ik in dimension d, built from its index list."""
    return Multivector.from_indices(d, indices)


def hex_terms(value: Multivector) -> list[tuple[int, str, str]]:
    """Every stored term as (mask, real part, imaginary part), the parts in
    `float.hex` form, so two values compare equal only when bit for bit equal,
    signed zeros and term order included."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in value]


def sort_sign(left: Iterable[int], right: Iterable[int]) -> int:
    """The sign of e_left ^ e_right against its sorted blade: (-1) to the
    number of swaps a bubble sort of left + right makes, 0 when an index
    repeats.  The merge sign of two disjoint blades and the sign of a split
    of a factor list are this rule.  It sorts index lists, so it shares
    neither the bit masks nor the pair count that `merge_sign` and the
    kernels use."""
    seq = [*left, *right]
    if len(set(seq)) != len(seq):
        return 0
    swaps = 0
    for end in range(len(seq) - 1, 0, -1):
        for j in range(end):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps & 1 else 1


def positions(mask: int) -> list[int]:
    """The positions of mask's set bits, lowest first: a blade mask's index
    list, 0-based, as `sort_sign` takes it."""
    return [p for p in range(mask.bit_length()) if mask >> p & 1]
