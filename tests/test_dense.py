"""Dense kernels against the routes they replace on large operands.

The dense wedge and vee form the same products as the dict kernel, but add
them in another order, so the routes agree to a float64 rounding bound fixed
here, not bit for bit.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excalc import dense, multivector
from excalc.multivector import (
    PRUNE_TOL,
    Multivector,
    hodge,
    hodge_inverse,
    mv_equal_approx,
    vee,
    wedge,
)
from excalc.verify import random_coeff, run_verification
from test_duality import walked_merge_sign

EPS = sys.float_info.epsilon


def random_operand(rng: random.Random, d: int, n: int) -> Multivector:
    return Multivector(d, {m: random_coeff(rng) for m in rng.sample(range(1 << d), n)})


def dict_vee(a: Multivector, b: Multivector) -> Multivector:
    return hodge_inverse(multivector._wedge_dict(hodge(a), hodge(b)))


def sum_bound(d: int, a: Multivector, b: Multivector) -> float:
    """Two routes that each add up to 2^d products into one blade, in any
    order, differ by at most twice the sequential-sum error bound."""
    n = 1 << d
    biggest = max(abs(c) for _, c in a) * max(abs(c) for _, c in b)
    return PRUNE_TOL + 2 * (n + 2) * EPS * n * biggest


def dispatch_boundary(d: int) -> int:
    """Largest pair count |a|*|b| that stays on the dict kernel."""
    return (multivector._DENSE_OVERHEAD + 3**d) // multivector._DICT_PAIR_COST


@st.composite
def operand_pairs(draw, d: int, on_dense: bool):
    """Operands on the given side of the dispatch boundary, with at most
    twice the boundary's pair count."""
    full, boundary = 1 << d, dispatch_boundary(d)
    if on_dense:
        n_a = draw(st.integers(boundary // full + 1, full))
        n_b = draw(st.integers(boundary // n_a + 1, min(full, 2 * boundary // n_a)))
    else:
        n_a = draw(st.integers(1, full))
        n_b = draw(st.integers(1, min(full, boundary // n_a)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return random_operand(rng, d, n_a), random_operand(rng, d, n_b)


SIDES = [
    (d, on_dense)
    for d in range(1, 11)
    for on_dense in (False, True)
    if not on_dense or 4**d > dispatch_boundary(d)
]


@pytest.mark.parametrize("d,on_dense", SIDES)
@settings(max_examples=5)
@given(data=st.data())
def test_dense_wedge_and_vee_match_the_dict_kernel(d, on_dense, data):
    a, b = data.draw(operand_pairs(d, on_dense))
    assert multivector._dense_pays(a, b) is on_dense
    tol = sum_bound(d, a, b)
    assert mv_equal_approx(dense.wedge(a, b), multivector._wedge_dict(a, b), tol)
    assert mv_equal_approx(dense.vee(a, b), dict_vee(a, b), tol)


def test_dense_kernel_past_the_table_cut_off():
    d = 12
    assert d > dense.TABLE_DIM  # the top-mode split runs
    rng = random.Random(1201)
    a, b = random_operand(rng, d, 300), random_operand(rng, d, 300)
    tol = sum_bound(d, a, b)
    assert mv_equal_approx(dense.wedge(a, b), multivector._wedge_dict(a, b), tol)
    assert mv_equal_approx(dense.vee(a, b), dict_vee(a, b), tol)


@pytest.mark.parametrize("d, n", [(8, 50), (10, 150), (12, 400)])
def test_dense_kernels_are_exact_on_gaussian_integer_operands(d, n):
    # every product and partial sum is a small integer, so any order of
    # addition gives the same float64 value
    rng = random.Random(1210 + d)

    def operand():
        return Multivector(
            d,
            {
                m: complex(rng.randint(-3, 3), rng.randint(-3, 3))
                for m in rng.sample(range(1 << d), n)
            },
        )

    a, b = operand(), operand()
    assert multivector._dense_pays(a, b)
    assert dense.wedge(a, b) == multivector._wedge_dict(a, b)
    assert dense.vee(a, b) == multivector._vee_dict(a, b)


# sha256 over (mask, re.hex(), im.hex()) of dense.wedge and dense.vee on the
# seeded operands below, taken when the pair table was built from the d-1
# table.  The tolerance and Gaussian-integer tests cannot see the order in
# which products are added; the walk of each kernel exists only for that order.
DENSE_DIGEST = "571b51ba50026fbf"


def test_dense_float_bits_are_pinned():
    h = hashlib.sha256()
    for d in (8, 9, 10, 12):
        rng = random.Random(2200 + d)
        a, b = random_operand(rng, d, 1 << d), random_operand(rng, d, 1 << d)
        for kernel in (dense.wedge, dense.vee):
            for m, c in kernel(a, b):
                h.update(f"{m} {c.real.hex()} {c.imag.hex()}\n".encode())
    assert h.hexdigest()[:16] == DENSE_DIGEST


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("reverse", [False, True])
def test_pair_table_lists_each_disjoint_pair_with_its_merge_sign(d, reverse):
    """The one table per d, and the reversed views of it that the dense vee walks."""
    s, t, u, sign = dense._pair_table(d)
    pairs = [(x, y) for x in range(1 << d) for y in range(1 << d) if not x & y]
    if reverse:
        s, t, u, sign = s[::-1], t[::-1], u[::-1], sign[::-1]
        pairs.reverse()
    assert list(zip(s.tolist(), t.tolist())) == pairs
    assert (u == s | t).all()
    assert sign.tolist() == [walked_merge_sign(x, y) for x, y in pairs]
    assert s.dtype == t.dtype == u.dtype == np.intp and sign.dtype == np.float64
    assert not any(x.flags.writeable for x in (s, t, u, sign))


@pytest.mark.parametrize("d", [6, 9])
def test_dense_wedge_and_vee_share_one_pair_table(d):
    rng = random.Random(2300 + d)
    a, b = random_operand(rng, d, 1 << d), random_operand(rng, d, 1 << d)
    dense._pair_table.cache_clear()
    dense.wedge(a, b)
    dense.vee(a, b)
    assert dense._pair_table.cache_info().currsize == 1


@pytest.mark.parametrize("d", range(1, 11))
def test_dense_star_signs_are_the_index_sum_and_double_star_formulas(d):
    """The star sign (-1)^(i1 + ... + ik - k(k+1)/2) of each mask, and the
    inverse star's sign: the star sign times (-1)^(k(d-k))."""
    star = dense._star_signs(d)
    inverse = star[::-1]
    for m in range(1 << d):
        k = m.bit_count()
        index_sum = sum(i + 1 for i in range(d) if m >> i & 1)
        want = -1.0 if (index_sum - k * (k + 1) // 2) & 1 else 1.0
        assert star[m] == want
        assert inverse[m] == want * (-1) ** (k * (d - k))


# ---- conversion ----------------------------------------------------------------------


def numpy_pruned_from_array(d: int, values) -> Multivector:
    """The conversion that pruned in numpy before `_result`, kept as an oracle."""
    keep = np.flatnonzero(~(np.abs(values) <= PRUNE_TOL))
    return multivector._result(d, dict(zip(keep.tolist(), values[keep].tolist())))


def hexed(a: Multivector) -> list[tuple[int, str, str]]:
    return [(m, c.real.hex(), c.imag.hex()) for m, c in a]


def padded(entries) -> tuple[int, np.ndarray]:
    """(d, the entries as a 2^d complex array, zero-padded)."""
    values = np.array(entries, complex)
    d = max(1, (len(values) - 1).bit_length())
    return d, np.concatenate((values, np.zeros((1 << d) - len(values), complex)))


def test_from_array_prunes_as_the_numpy_conversion_did():
    above = np.nextafter(PRUNE_TOL, 1.0)
    edge = [PRUNE_TOL, -PRUNE_TOL, above, -above, 1j * PRUNE_TOL, 1j * above, 0, -0.0, 1]
    rng = np.random.default_rng(1207)
    spread = (rng.normal(size=1000) + 1j * rng.normal(size=1000)) * PRUNE_TOL
    for entries in (edge, spread, rng.normal(size=1000) * PRUNE_TOL):
        d, values = padded(entries)
        want = numpy_pruned_from_array(d, values)
        assert 0 < len(want) < len(entries)
        assert hexed(dense._from_array(d, values)) == hexed(want)


def test_from_array_prunes_by_the_magnitude_every_kernel_prunes_by():
    # off the axes np.abs and abs may round a magnitude one ulp apart, so
    # near PRUNE_TOL a numpy pre-prune could drop a term that abs keeps
    rng = np.random.default_rng(1208)
    radius = PRUNE_TOL * (1 + rng.integers(-4, 5, 2000) * EPS)
    d, values = padded(radius * np.exp(1j * rng.uniform(0, 2 * np.pi, 2000)))
    want = [(m, c) for m, c in enumerate(values.tolist()) if abs(c) > PRUNE_TOL]
    assert 0 < len(want) < 2000
    assert list(dense._from_array(d, values)) == want


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, complex(0, np.inf), -np.inf, complex(1.5e308, 1.5e308)])
def test_from_array_names_a_non_finite_entry_as_the_numpy_conversion_did(bad):
    # a NaN follows at mask 3: the first bad entry is the one named
    values = np.array([1, PRUNE_TOL, bad, np.nan, 2, 0, 0, 0], complex)
    errors = []
    for convert in (numpy_pruned_from_array, dense._from_array):
        with pytest.raises(ValueError, match="blade mask 0x2") as caught:
            convert(3, values)
        errors.append(str(caught.value))
    assert errors[0] == errors[1]


# ---- dispatch ------------------------------------------------------------------------


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the calls that reach the dense kernels."""
    calls: Counter = Counter()
    for name in ("wedge", "vee"):
        def counted(*args, real=getattr(dense, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(dense, name, counted)
    return calls


def test_dispatch_follows_operand_size(dense_calls):
    rng = random.Random(88)
    d = 8
    full = random_operand(rng, d, 1 << d)
    few = random_operand(rng, d, 4)
    wedge(few, few), vee(few, full), wedge(full, few)
    assert not dense_calls
    wedge(full, full), vee(full, full)
    assert dense_calls == {"wedge": 1, "vee": 1}


def test_verify_paper_stays_on_the_small_kernels(dense_calls):
    assert all(r.passed for r in run_verification())
    assert not dense_calls


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_dense_wedge_raises_on_a_non_finite_product_like_the_dict_kernel():
    # 1e400 - 1e400 is NaN on e1^e2; dropping it would read as a clean zero
    a = multivector.Multivector(2, {0b01: 1e200, 0b10: 1e200})
    for kernel in (multivector._wedge_dict, dense.wedge):
        with pytest.raises(ValueError, match="non-finite"):
            kernel(a, a)
