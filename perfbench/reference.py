"""Independent numpy model of the algebra, used only to check benchmark outputs.

Nothing here imports excalc.  A multivector is a pair of arrays: blade
bitmasks (bit i-1 set for e_i) and their complex coefficients.  Signs come
from first principles: reordering e_S ^ e_T into ascending order takes one
transposition per pair (i in S, j in T) with i > j, so with B the 0/1 bit
matrix of the blades and L the strictly-lower-triangular ones matrix, the
inversion counts of all pairs are B_S @ L @ B_T.T.  The star complement is
fixed by e_S ^ *e_S = E, and vee is defined by duality, *(a v b) = *a ^ *b.
Determinants come from np.linalg.det.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

Terms = tuple  # (masks: int64 array, coefficients: complex array)


def terms(pairs) -> Terms:
    """Terms from (mask, coefficient) pairs; repeated masks add up."""
    pairs = list(pairs)
    masks = np.array([m for m, _ in pairs], dtype=np.int64)
    coeffs = np.array([c for _, c in pairs], dtype=complex)
    return _collect(masks, coeffs)


def _collect(masks: np.ndarray, coeffs: np.ndarray) -> Terms:
    unique, where = np.unique(masks, return_inverse=True)
    summed = np.bincount(where, weights=coeffs.real, minlength=len(unique)).astype(complex)
    summed += 1j * np.bincount(where, weights=coeffs.imag, minlength=len(unique))
    return unique, summed


def bit_matrix(masks: np.ndarray, d: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(d)) & 1


def _lower(d: int) -> np.ndarray:
    return np.tril(np.ones((d, d), dtype=np.int64), -1)


def pair_signs(s: np.ndarray, t: np.ndarray, d: int) -> np.ndarray:
    """sign[i, j] of reordering e_{s[i]} ^ e_{t[j]}; meaningful where disjoint."""
    inversions = bit_matrix(s, d) @ _lower(d) @ bit_matrix(t, d).T
    return 1 - 2 * (inversions & 1)


def wedge(a: Terms, b: Terms, d: int) -> Terms:
    (s, cs), (t, ct) = a, b
    disjoint = (s[:, None] & t[None, :]) == 0
    values = pair_signs(s, t, d) * cs[:, None] * ct[None, :]
    union = s[:, None] | t[None, :]
    return _collect(union[disjoint], values[disjoint])


def star_signs(masks: np.ndarray, d: int) -> np.ndarray:
    """sigma[S] with e_S ^ e_{S^c} = sigma[S] E, so *e_S = sigma[S] e_{S^c}."""
    full = (1 << d) - 1
    inversions = ((bit_matrix(masks, d) @ _lower(d)) * bit_matrix(full ^ masks, d)).sum(1)
    return 1 - 2 * (inversions & 1)


def star(a: Terms, d: int) -> Terms:
    masks, coeffs = a
    return _collect(((1 << d) - 1) ^ masks, star_signs(masks, d) * coeffs)


def star_inverse(a: Terms, d: int) -> Terms:
    """Undo star: *e_S = sigma[S] e_{S^c} gives star^-1(e_{S^c}) = sigma[S] e_S."""
    comp = ((1 << d) - 1) ^ a[0]
    return _collect(comp, star_signs(comp, d) * a[1])


def vee(a: Terms, b: Terms, d: int) -> Terms:
    return star_inverse(wedge(star(a, d), star(b, d), d), d)


def add(a: Terms, b: Terms) -> Terms:
    return _collect(np.concatenate([a[0], b[0]]), np.concatenate([a[1], b[1]]))


def scale(a: Terms, c: complex) -> Terms:
    return a[0], a[1] * c


def blade(mask: int, coeff: complex = 1.0) -> Terms:
    return np.array([mask], dtype=np.int64), np.array([coeff], dtype=complex)


def expand(factors: np.ndarray, d: int) -> Terms:
    """Multivector of x_1^...^x_k: the minor on rows S is the blade-S coefficient."""
    k = len(factors)
    if k == 0:
        return blade(0)
    rows = np.array(list(combinations(range(d), k)))
    minors = np.transpose(factors[:, rows], (1, 2, 0))  # minor[r][i][j] = x_j[rows[r][i]]
    return (1 << rows).sum(1), np.linalg.det(minors)


def det_columns(columns: np.ndarray) -> complex:
    return complex(np.linalg.det(np.asarray(columns).T))


def is_decomposable(a: Terms, d: int, k: int) -> bool:
    """Annihilator test: dim {v : v ^ a = 0} == k, with the rank from numpy."""
    images = np.zeros((1 << d, d), complex)
    for i in range(d):
        masks, coeffs = wedge(blade(1 << i), a, d)
        images[masks, i] = coeffs
    tol = 1e-9 * max(1.0, np.abs(images).max())
    return d - np.linalg.matrix_rank(images, tol=tol) == k


def indices(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def canonical_order(d: int) -> list[int]:
    """Blade masks by (step, ascending index tuple)."""
    return sorted(range(1 << d), key=lambda m: (bin(m).count("1"), indices(m)))


def ladder_entries(d: int, kind: str, i: int) -> list[list[int]]:
    """Nonzero [row, col, value] of a ladder matrix in the canonical blade order.

    Creation is e_i ^ (.); annihilation is its adjoint.
    """
    order = canonical_order(d)
    position = {m: p for p, m in enumerate(order)}
    entries = []
    for col, mask in enumerate(order):
        out_masks, coeffs = wedge(blade(1 << (i - 1)), blade(mask), d)
        for m, c in zip(out_masks, coeffs):
            r = position[int(m)]
            entries.append([r, col, int(c.real)] if kind == "create" else [col, r, int(c.real)])
    return sorted(entries)


def to_json(a: Terms) -> list[list[float]]:
    """[[mask, re, im], ...] of the nonzero coefficients."""
    return [[int(m), float(c.real), float(c.imag)] for m, c in zip(*a) if c != 0]
