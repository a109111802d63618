"""Creation and annihilation operators on the blade basis.

Creation of mode i is the left wedge with e_i; annihilation is the interior
product removing index i with a (-1)^(occupied modes below i) crossing sign.
With these conventions the canonical anticommutation relations hold exactly,
and annihilation is the matrix adjoint of creation in the blade basis.

A multi-mode operator string over an ascending index set is applied rightmost
first, so the composite for {i1 < ... < ik} reads a_{i1} ... a_{ik} (or the
daggered string) left to right.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import DimensionError
from .multivector import (
    Multivector,
    _result,
    all_blades,
    basis_vector,
    check_dim,
    check_index,
    mask_from_indices,
    wedge,
)

MATRIX_MAX_DIM = 8


def apply_creation(i: int, a: Multivector) -> Multivector:
    """e_i ^ a; terms already occupying mode i vanish."""
    return wedge(basis_vector(a.d, i), a)


def apply_annihilation(i: int, a: Multivector) -> Multivector:
    """Interior product removing mode i; terms without it vanish."""
    bit = mask_from_indices(a.d, (i,))
    below = bit - 1
    out: dict[int, complex] = {}
    for mask, c in a:
        if not mask & bit:
            continue
        sign = -1 if (mask & below).bit_count() & 1 else 1
        new = mask & ~bit
        out[new] = out.get(new, 0j) + sign * c
    return _result(a.d, out)


def _ladder_string(op, indices: Iterable[int], a: Multivector) -> Multivector:
    """op of each distinct index, checked, from the highest down."""
    for i in sorted({check_index(a.d, i) for i in indices}, reverse=True):
        a = op(i, a)
    return a


def multi_create(indices: Iterable[int], a: Multivector) -> Multivector:
    """Ascending creation string, rightmost operator applied first."""
    return _ladder_string(apply_creation, indices, a)


def multi_annihilate(indices: Iterable[int], a: Multivector) -> Multivector:
    """Ascending annihilation string, rightmost operator applied first."""
    return _ladder_string(apply_annihilation, indices, a)


def operator_matrix(d: int, kind: str, i: int) -> np.ndarray:
    """2^d x 2^d matrix of one ladder operator in (step, index) blade order."""
    import numpy as np

    check_dim(d)
    if d > MATRIX_MAX_DIM:
        raise DimensionError(f"matrix form limited to d <= {MATRIX_MAX_DIM}")
    if kind == "create":
        op = apply_creation
    elif kind == "annihilate":
        op = apply_annihilation
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    basis = all_blades(d)
    index_of = {mask: col for col, mask in enumerate(basis)}
    matrix = np.zeros((1 << d, 1 << d), dtype=np.complex128)
    for col, mask in enumerate(basis):
        image = op(i, Multivector(d, {mask: 1 + 0j}))
        for out_mask, c in image:
            matrix[index_of[out_mask], col] = c
    return matrix
