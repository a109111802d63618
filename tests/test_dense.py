"""Dense kernels against the routes they replace on large operands.

The dense wedge and vee and the batched `expand` form the same products as
the dict kernel and the per-minor `_eliminate`, but add them in another order, so
the routes agree to a float64 rounding bound fixed here, not bit for bit.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excalc import dense, extensors, multivector
from excalc.extensors import ExtensorFactors, expand, is_decomposable
from excalc.multivector import (
    PRUNE_TOL,
    Multivector,
    hodge,
    hodge_inverse,
    mv_equal_approx,
    vee,
    wedge,
)
from excalc.verify import random_coeff, random_vector, run_verification

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


@pytest.mark.parametrize("d", range(1, 11))
def test_dense_star_signs_are_the_index_sum_and_double_star_formulas(d):
    """The star sign (-1)^(i1 + ... + ik - k(k+1)/2) of each mask, and the
    inverse star's sign: the star sign times (-1)^(k(d-k))."""
    star, inverse = dense._star_signs(d)
    for m in range(1 << d):
        k = m.bit_count()
        index_sum = sum(i + 1 for i in range(d) if m >> i & 1)
        want = -1.0 if (index_sum - k * (k + 1) // 2) & 1 else 1.0
        assert star[m] == want
        assert inverse[m] == want * (-1) ** (k * (d - k))


# ---- dispatch ------------------------------------------------------------------------


@pytest.fixture
def dense_calls(monkeypatch):
    """Count the calls that reach the dense kernels and the batched expand."""
    calls: Counter = Counter()
    for name in ("wedge", "vee", "expand"):
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
    expand(ExtensorFactors(6, tuple(random_vector(rng, 6) for _ in range(3))))  # 20 minors
    assert not dense_calls
    wedge(full, full), vee(full, full)
    expand(ExtensorFactors(8, tuple(random_vector(rng, 8) for _ in range(4))))  # 70 minors
    assert dense_calls == {"wedge": 1, "vee": 1, "expand": 1}


def test_verify_paper_stays_on_the_small_kernels(dense_calls):
    assert all(r.passed for r in run_verification())
    assert not dense_calls


# ---- batched expand ------------------------------------------------------------------


@st.composite
def factor_lists(draw, min_dim: int = 1):
    """Generic, rank-deficient and near-singular factor lists, and whether
    every minor is singular.

    The last factor is replaced by a combination of two others plus a
    perturbation of the given size: 0 is exactly dependent, 1e-14 falls under
    the SINGULAR_TOL cut-off and 1e-9 stays well above it.
    """
    d = draw(st.integers(min_dim, 10))
    k = draw(st.integers(1, d))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    factors = [random_vector(rng, d) for _ in range(k)]
    size = draw(st.sampled_from((None, 0.0, 1e-14, 1e-9)))
    if size is not None and k >= 3:
        u, w = factors[0], factors[1]
        p, q = random_coeff(rng), random_coeff(rng)
        factors[-1] = tuple(
            p * x + q * y + size * random_coeff(rng) for x, y in zip(u, w)
        )
    singular = size is not None and size < 1e-12 and k >= 3
    return ExtensorFactors(d, tuple(factors)), singular


def det_bound(x: ExtensorFactors) -> float:
    """k^2 eps times the Hadamard bound on every k x k minor."""
    k = x.step
    hadamard = prod(sum(abs(c) ** 2 for c in f) ** 0.5 for f in x.factors)
    return PRUNE_TOL + k * k * EPS * max(1.0, hadamard)


@given(factor_lists())
def test_batched_expand_matches_the_per_minor_determinants(case):
    x, singular = case
    batched, per_minor = dense.expand(x), extensors._expand_minors(x)
    assert mv_equal_approx(batched, per_minor, det_bound(x))
    assert mv_equal_approx(expand(x), batched, det_bound(x))
    if singular:
        assert batched.is_zero() and per_minor.is_zero()


@given(factor_lists(min_dim=4), st.integers(0, 2**32 - 1))
def test_batched_expand_keeps_decomposability_verdicts(case, seed):
    x, _ = case
    rng = random.Random(seed)
    y = ExtensorFactors(x.d, tuple(random_vector(rng, x.d) for _ in range(x.step)))
    single = [route(x) for route in (dense.expand, extensors._expand_minors)]
    summed = [
        route(x) + route(y) for route in (dense.expand, extensors._expand_minors)
    ]
    for batched, per_minor in (single, summed):
        if batched.is_zero() or per_minor.is_zero():
            assert batched.is_zero() and per_minor.is_zero()
            continue
        assert is_decomposable(batched) == is_decomposable(per_minor)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_dense_wedge_raises_on_a_non_finite_product_like_the_dict_kernel():
    # 1e400 - 1e400 is NaN on e1^e2; dropping it would read as a clean zero
    a = multivector.Multivector(2, {0b01: 1e200, 0b10: 1e200})
    for kernel in (multivector._wedge_dict, dense.wedge):
        with pytest.raises(ValueError, match="non-finite"):
            kernel(a, a)
