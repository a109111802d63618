"""Creation and annihilation operators on the blade basis.

Creation of mode i is the meet with e_i, e_i ^ a; annihilation is the join
with the one-hole state, a v *e_i, so the product kernels sign both.  With
these conventions the canonical anticommutation relations hold exactly, and
annihilation is the matrix adjoint of creation in the blade basis.

A multi-mode operator string over an ascending index set is applied rightmost
first, so the composite for {i1 < ... < ik} reads a_{i1} ... a_{ik} (or the
daggered string) left to right.

`_matrix_text` prints a matrix for `excalc fock`: a row is its nonzero
entries, each rendered once by value, and the runs of zero entries between
them, each cut from one string of zeros.  A ladder row has at most one
nonzero entry, so the work goes by row and by distinct entry, not by entry.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from itertools import compress

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


def _matrix_text(rows: list[list[complex]], fmt: str) -> str:
    """`excalc fock`'s matrix: one text line per row, or the JSON list of rows.
    Every entry equal to 0 prints as 0j does, exact under the `operator_matrix`
    contract: plain Python complex, no part of it a negative zero."""
    from .textform import Cells, scalar_to_text

    if fmt == "json":
        import json

        zero, sep, cells = "[0.0, 0.0]", ", ", Cells(lambda c: json.dumps([c.real, c.imag]))
    else:
        zero, sep, cells = "0", " ", Cells(scalar_to_text)
    step = len(zero) + len(sep)
    zeros = (zero + sep) * max(map(len, rows), default=0)

    def line(row) -> str:
        parts, done = [], 0
        for col in compress(range(len(row)), row):
            if col > done:
                parts.append(zeros[: (col - done) * step - len(sep)])
            parts.append(cells[row[col]])
            done = col + 1
        if len(row) > done:
            parts.append(zeros[: (len(row) - done) * step - len(sep)])
        return sep.join(parts)

    if fmt == "json":
        return "[%s]" % ", ".join(map("[{}]".format, map(line, rows)))
    return "".join(map("{}\n".format, map(line, rows)))
