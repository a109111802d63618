"""Ladder operators: single modes, operator strings, matrix relations."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from excalc import fock
from excalc.errors import DimensionError, IndexRangeError
from excalc.fock import (
    MATRIX_MAX_DIM,
    apply_annihilation,
    apply_creation,
    multi_annihilate,
    multi_create,
    operator_matrix,
)
from excalc.multivector import Multivector, _result, all_blades, mv_equal_approx
from oracles import blade, hex_terms


def test_single_creation():
    assert apply_creation(1, Multivector.vacuum(1)) == blade(1, 1)
    assert apply_creation(2, blade(3, 2)).is_zero()
    assert apply_creation(2, blade(3, 1)) == -blade(3, 1, 2)
    assert apply_creation(1, blade(3, 2)) == blade(3, 1, 2)
    with pytest.raises(IndexRangeError):
        apply_creation(4, Multivector.vacuum(3))


def test_single_annihilation():
    assert apply_annihilation(1, blade(2, 1)) == Multivector.vacuum(2)
    assert apply_annihilation(2, blade(3, 1, 2)) == -blade(3, 1)
    assert apply_annihilation(3, blade(3, 1, 2)).is_zero()


def test_creation_string_on_vacuum():
    assert multi_create({1, 4}, Multivector.vacuum(4)) == blade(4, 1, 4)
    assert multi_create({1}, blade(4, 1)).is_zero()
    for d in (2, 3, 4, 5):
        for mask in range(1 << d):
            indices = [i + 1 for i in range(d) if mask >> i & 1]
            got = multi_create(indices, Multivector.vacuum(d))
            assert got == blade(d, *indices)


def test_annihilation_string_on_top():
    d = 4
    got = multi_annihilate({1, 4}, Multivector.top(d))
    # unit-magnitude coefficient on exactly the complementary blade; the
    # computed sign under this convention is (-1)^(sum of (i-1) over the set)
    assert len(got) == 1
    assert abs(abs(got.coeff((2, 3))) - 1.0) <= 1e-12
    assert got == -blade(d, 2, 3)
    for d in (2, 3, 4, 5):
        for mask in range(1 << d):
            indices = [i + 1 for i in range(d) if mask >> i & 1]
            got = multi_annihilate(indices, Multivector.top(d))
            rest = [i for i in range(1, d + 1) if i not in indices]
            expected_sign = -1 if sum(i - 1 for i in indices) & 1 else 1
            assert got == expected_sign * blade(d, *rest)


def test_operator_matrix_d1():
    created = operator_matrix(1, "create", 1)
    assert np.array_equal(created, np.array([[0, 0], [1, 0]], dtype=complex))
    with pytest.raises(DimensionError):
        operator_matrix(9, "create", 1)
    with pytest.raises(ValueError):
        operator_matrix(2, "destroy", 1)


def test_ladder_matrices_are_exact_signed_partial_permutations():
    """Plain rows of Python complex, checked with `==` and no numpy: for every
    d <= 8 and every mode, annihilation is the transpose of creation, each
    column holds at most one nonzero entry, 1 or -1, and no part of any entry
    is -0.0, so `fock` may key its rendered entries by value."""
    for d in range(1, MATRIX_MAX_DIM + 1):
        for i in range(1, d + 1):
            created = operator_matrix(d, "create", i)
            killed = operator_matrix(d, "annihilate", i)
            for matrix in (created, killed):
                assert type(matrix) is list and len(matrix) == 1 << d
                assert all(type(row) is list and len(row) == 1 << d for row in matrix)
                assert all(type(c) is complex for row in matrix for c in row)
                parts = [p for row in matrix for c in row for p in (c.real, c.imag)]
                assert all(math.copysign(1.0, p) == 1.0 for p in parts if p == 0)
                columns = [[c for c in column if c != 0] for column in zip(*matrix)]
                assert all(nonzero in ([], [1], [-1]) for nonzero in columns)
                # every blade without mode i, and only those, has an image
                assert sum(map(len, columns)) == 1 << (d - 1)
            assert killed == [list(column) for column in zip(*created)]


def per_column_matrix(d: int, kind: str, i: int) -> list[list[complex]]:
    """The oracle: one ladder call per column, on that column's blade."""
    op = {"create": apply_creation, "annihilate": apply_annihilation}[kind]
    basis = all_blades(d)
    index_of = {mask: col for col, mask in enumerate(basis)}
    matrix = [[0j] * (1 << d) for _ in basis]
    for col, mask in enumerate(basis):
        image = op(i, Multivector(d, {mask: 1 + 0j}))
        for out_mask, c in image._terms.items():
            matrix[index_of[out_mask]][col] = c
    return matrix


def test_operator_matrix_equals_the_per_column_images():
    for d in range(1, MATRIX_MAX_DIM + 1):
        for kind in ("create", "annihilate"):
            for i in range(1, d + 1):
                assert operator_matrix(d, kind, i) == per_column_matrix(d, kind, i), (d, kind, i)


@pytest.mark.parametrize("kind", ["create", "annihilate"])
def test_a_matrix_makes_one_product_call(monkeypatch, kind):
    calls = []
    for name in ("wedge", "vee"):
        product = getattr(fock, name)
        monkeypatch.setattr(fock, name, lambda a, b, product=product: calls.append(b) or product(a, b))
    for d in range(1, MATRIX_MAX_DIM + 1):
        calls.clear()
        operator_matrix(d, kind, d)
        assert len(calls) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_anticommutation_relations(d):
    identity = np.eye(1 << d)
    creators = {
        i: np.array(operator_matrix(d, "create", i), dtype=complex) for i in range(1, d + 1)
    }
    killers = {
        i: np.array(operator_matrix(d, "annihilate", i), dtype=complex) for i in range(1, d + 1)
    }
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            mixed = killers[j] @ creators[k] + creators[k] @ killers[j]
            want = identity if j == k else np.zeros_like(identity)
            assert np.max(np.abs(mixed - want)) <= 1e-12
            assert np.max(np.abs(killers[j] @ killers[k] + killers[k] @ killers[j])) <= 1e-12
            assert np.max(np.abs(creators[j] @ creators[k] + creators[k] @ creators[j])) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_annihilation_is_adjoint_of_creation(d):
    for i in range(1, d + 1):
        created = np.array(operator_matrix(d, "create", i), dtype=complex)
        killed = np.array(operator_matrix(d, "annihilate", i), dtype=complex)
        assert np.max(np.abs(created.conj().T - killed)) <= 1e-12


def test_number_operator_counts_occupation():
    d = 4
    for i in range(1, d + 1):
        for mask in all_blades(d):
            state = Multivector(d, {mask: 1.0})
            counted = apply_creation(i, apply_annihilation(i, state))
            want = state if mask >> (i - 1) & 1 else Multivector.zero(d)
            assert mv_equal_approx(counted, want, 1e-12)


def interior_product(i: int, a: Multivector) -> Multivector:
    """Annihilation as a hand-written interior product: remove mode i with a
    (-1)^(occupied modes below i) crossing sign.  Kept as the oracle that the
    join a v *e_i must match."""
    bit = 1 << i - 1
    below = bit - 1
    out: dict[int, complex] = {}
    for mask, c in a._terms.items():
        if not mask & bit:
            continue
        sign = -1 if (mask & below).bit_count() & 1 else 1
        new = mask & ~bit
        out[new] = out.get(new, 0j) + sign * c
    return _result(a.d, out)


def random_part(rng: random.Random, kind: str) -> float:
    if kind == "gaussian":
        return float(rng.randint(-3, 3))
    if kind == "signed zero":
        return rng.choice((0.0, -0.0, rng.uniform(-2.0, 2.0)))
    return rng.uniform(-2.0, 2.0)


def test_annihilation_is_the_join_with_the_one_hole_state():
    """a_i a, the join a v *e_i, equals the interior product term by term and
    bit for bit: on every blade at d <= 8, and on seeded float,
    Gaussian-integer and signed-zero-part superpositions up to d = 10."""
    cases = 0
    for d in range(1, 9):
        for i in range(1, d + 1):
            for mask in range(1 << d):
                state = Multivector(d, {mask: 1 + 0j})
                assert hex_terms(apply_annihilation(i, state)) == hex_terms(
                    interior_product(i, state)
                )
                cases += 1
    assert cases == 3586
    rng = random.Random(811)
    for kind in ("float", "gaussian", "signed zero"):
        for _ in range(300):
            d = rng.randint(1, 10)
            i = rng.randint(1, d)
            state = Multivector(
                d,
                {
                    rng.randrange(1 << d): complex(random_part(rng, kind), random_part(rng, kind))
                    for _ in range(rng.randint(1, 12))
                },
            )
            assert hex_terms(apply_annihilation(i, state)) == hex_terms(
                interior_product(i, state)
            )
