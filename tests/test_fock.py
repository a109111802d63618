"""Ladder operators: single modes, operator strings, matrix relations."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from excalc.errors import DimensionError, IndexRangeError
from excalc.fock import (
    MATRIX_MAX_DIM,
    apply_annihilation,
    apply_creation,
    multi_annihilate,
    multi_create,
    operator_matrix,
)
from excalc.multivector import Multivector, all_blades, covector, mv_equal_approx, vee


def blade(d, *indices):
    return Multivector.from_indices(d, indices)


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


def test_annihilation_is_the_join_with_the_one_hole_state():
    """a_i a == a v *e_i, exactly: the kernel and the duality route agree on
    every blade at d <= 8, and on Gaussian-integer superpositions."""
    cases = 0
    for d in range(1, 9):
        for i in range(1, d + 1):
            hole = covector(d, i)
            for mask in range(1 << d):
                state = Multivector(d, {mask: 1 + 0j})
                assert apply_annihilation(i, state) == vee(state, hole)
                cases += 1
    assert cases == 3586
    rng = random.Random(811)
    for _ in range(300):
        d = rng.randint(1, 8)
        i = rng.randint(1, d)
        state = Multivector(
            d,
            {
                rng.randrange(1 << d): complex(rng.randint(-3, 3), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 12))
            },
        )
        assert apply_annihilation(i, state) == vee(state, covector(d, i))
