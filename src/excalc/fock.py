"""Creation and annihilation operators on the blade basis.

Creation of mode i is the meet with e_i, e_i ^ a; annihilation is the join
with the one-hole state, a v *e_i, so the product kernels sign both.  With
these conventions the canonical anticommutation relations hold exactly, and
annihilation is the matrix adjoint of creation in the blade basis.

A multi-mode operator string over an ascending index set is applied rightmost
first, so the composite for {i1 < ... < ik} reads a_{i1} ... a_{ik} (or the
daggered string) left to right.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial

from .errors import DimensionError
from .multivector import (
    Multivector,
    _blade_images,
    _echo,
    all_blades,
    basis_vector,
    check_dim,
    check_index,
    covector,
    vee,
    wedge,
)

MATRIX_MAX_DIM = 8


def apply_creation(i: int, a: Multivector) -> Multivector:
    """e_i ^ a; terms already occupying mode i vanish."""
    return wedge(basis_vector(a.d, i), a)


def apply_annihilation(i: int, a: Multivector) -> Multivector:
    """a v *e_i: the join with the one-hole state; terms without mode i vanish."""
    return vee(a, covector(a.d, i))


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


def operator_matrix(d: int, kind: str, i: int) -> list[list[complex]]:
    """2^d rows of 2^d complex entries: one ladder operator in (step, index) blade order.

    A ladder operator sends each blade to +-1 times a blade or to 0, and
    distinct blades to distinct blades, so one call on the tagged sum of all
    blades (`multivector._blade_images`) gives every column.
    """
    check_dim(d)
    if d > MATRIX_MAX_DIM:
        raise DimensionError(f"matrix form limited to d <= {MATRIX_MAX_DIM}")
    if kind == "create":
        op = apply_creation
    elif kind == "annihilate":
        op = apply_annihilation
    else:
        raise ValueError(f"unknown ladder kind {_echo(kind)}")
    index_of = {mask: row for row, mask in enumerate(all_blades(d))}
    matrix = [[0j] * (1 << d) for _ in index_of]
    (image,) = _blade_images(d, [partial(op, i)])
    for col, hit in enumerate(image):
        if hit is not None:
            matrix[index_of[hit[0]]][col] = hit[1]
    return matrix
