"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Criteria covered, with their stated tolerances and budgets:
  1  d=2 meet/join table, 32 entries, coefficients in {0,+-1}, 1e-12, <1s
  2  d=2 partial-gate domains and cells, <1s
  3  d=2 qubit gate table, 32 entries including signs and zeros, <1s
  4  worked examples (superposition meet/join, d=4 joins, complement tables),
     100 random coefficient draws, 1e-10, <5s
  5  identity suite, >=1000 randomized trials across d in 2..8, 1e-10, <60s
  6  join-definition equivalence, >=500 random extensor pairs, d<=6, 1e-9, <60s
  7  ladder-operator suite, matrices for d<=6, max-norm 1e-12, <30s
  8  subspace-semantics oracle, >=500 random factor sets, d<=6, <60s
  9  scalar-product suite, all blade pairs d<=6, <10s
 10  parser robustness, 1e5 fuzz inputs and 1e3 print round trips, <60s
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from excalc.boolean_gates import all_subsets, pseudo_vee, pseudo_wedge, subset
from excalc.errors import ExprSyntaxError, GradeError
from excalc.expr import Environment, evaluate, parse_text
from excalc.extensors import (
    ExtensorFactors,
    expand,
    intersection_dim,
    join_by_splits,
    span_covers,
)
from excalc.fock import multi_annihilate, multi_create, operator_matrix
from excalc.multivector import (
    Multivector,
    all_blades,
    basis_vector,
    hodge,
    mv_equal_approx,
    scalar_product,
    vee,
    wedge,
)
from excalc.qubits import QubitState, parse_basis_state, q_vee, q_wedge
from excalc.verify import (
    IDENTITY_TOL,
    RELATIONS,
    random_coeff,
    random_factors,
    random_homogeneous,
    random_mv,
    random_vector,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, detail: str):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, f"{self.name} took {elapsed:.1f}s, budget {self.seconds}s"
        print(f"PASS {self.name}: {detail} [{elapsed:.2f}s]")


def blade(d, *indices):
    return Multivector.from_indices(d, indices)


# ---- criterion 1: d=2 meet/join table ------------------------------------------------

TABLE_D2 = [
    # (a, b, wedge sign, wedge blade or None, vee sign, vee blade or None)
    ("1", "1", 1, "1", 0, None),
    ("1", "e1", 1, "e1", 0, None),
    ("1", "e2", 1, "e2", 0, None),
    ("1", "E", 1, "E", 1, "1"),
    ("e1", "1", 1, "e1", 0, None),
    ("e1", "e1", 0, None, 0, None),
    ("e1", "e2", 1, "E", 1, "1"),
    ("e1", "E", 0, None, 1, "e1"),
    ("e2", "1", 1, "e2", 0, None),
    ("e2", "e1", -1, "E", -1, "1"),
    ("e2", "e2", 0, None, 0, None),
    ("e2", "E", 0, None, 1, "e2"),
    ("E", "1", 1, "E", 1, "1"),
    ("E", "e1", 0, None, 1, "e1"),
    ("E", "e2", 0, None, 1, "e2"),
    ("E", "E", 0, None, 1, "E"),
]

BASIS_D2 = {
    "1": (),
    "e1": (1,),
    "e2": (2,),
    "E": (1, 2),
}


def _expected(d, sign, name):
    if sign == 0:
        return Multivector.zero(d)
    return sign * blade(d, *BASIS_D2[name])


def test_criterion_table_d2():
    budget = Budget("table-d2-meet-join", 1.0)
    for a, b, wsign, wblade, vsign, vblade in TABLE_D2:
        left, right = blade(2, *BASIS_D2[a]), blade(2, *BASIS_D2[b])
        got_w, got_v = wedge(left, right), vee(left, right)
        assert mv_equal_approx(got_w, _expected(2, wsign, wblade), 1e-12), (a, b)
        assert mv_equal_approx(got_v, _expected(2, vsign, vblade), 1e-12), (a, b)
        for _, c in list(got_w) + list(got_v):
            assert min(abs(c - t) for t in (-1.0, 0.0, 1.0)) <= 1e-12
    budget.done("16 meet and 16 join entries exact")


# ---- criterion 2: d=2 partial-gate table ----------------------------------------------

D1_PAIRS = {
    ((), ()), (((1,)), ()), (((2,)), ()), (((1, 2)), ()),
    ((), (1,)), ((), (2,)), ((1,), (2,)), ((), (1, 2)),
}
D2_PAIRS = {
    ((1, 2), ()), ((1, 2), (1,)), ((1,), (2,)), ((1, 2), (2,)),
    ((), (1, 2)), ((1,), (1, 2)), ((2,), (1, 2)), ((1, 2), (1, 2)),
}
# full 16-row listing: (a, b, meet cell or None, join cell or None)
TABLE_PARTIAL_D2 = [
    ((), (), (), None),
    ((1,), (), (1,), None),
    ((2,), (), (2,), None),
    ((1, 2), (), (1, 2), ()),
    ((), (1,), (1,), None),
    ((1,), (1,), None, None),
    ((2,), (1,), None, None),
    ((1, 2), (1,), None, (1,)),
    ((), (2,), (2,), None),
    ((1,), (2,), (1, 2), ()),
    ((2,), (2,), None, None),
    ((1, 2), (2,), None, (2,)),
    ((), (1, 2), (1, 2), ()),
    ((1,), (1, 2), None, (1,)),
    ((2,), (1, 2), None, (2,)),
    ((1, 2), (1, 2), None, (1, 2)),
]


def test_criterion_table_partial_gates_d2():
    budget = Budget("table-d2-partial-gates", 1.0)
    want_d1 = {(frozenset(a), frozenset(b)) for a, b in D1_PAIRS}
    want_d2 = {(frozenset(a), frozenset(b)) for a, b in D2_PAIRS}
    states = all_subsets(2)
    for op, want in ((pseudo_wedge, want_d1), (pseudo_vee, want_d2)):
        defined = {(a.members, b.members) for a in states for b in states if op(a, b) is not None}
        assert defined == want
    for a, b, meet_cell, join_cell in TABLE_PARTIAL_D2:
        sa, sb = subset(2, a), subset(2, b)
        got_meet = pseudo_wedge(sa, sb)
        got_join = pseudo_vee(sa, sb)
        assert (got_meet.members if got_meet else None) == (
            frozenset(meet_cell) if meet_cell is not None else None
        ), (a, b)
        assert (got_join.members if got_join else None) == (
            frozenset(join_cell) if join_cell is not None else None
        ), (a, b)
        if got_meet is not None:
            assert got_meet.members == frozenset(a) | frozenset(b)
        if got_join is not None:
            assert got_join.members == frozenset(a) & frozenset(b)
    budget.done("domains are the 8-pair listings; cells are union/intersection")


# ---- criterion 3: d=2 qubit gate table ---------------------------------------------------

TABLE_QUBIT_D2 = [
    ("00", "00", (1, "00"), None),
    ("00", "10", (1, "10"), None),
    ("00", "01", (1, "01"), None),
    ("00", "11", (1, "11"), (1, "00")),
    ("10", "00", (1, "10"), None),
    ("10", "10", None, None),
    ("10", "01", (1, "11"), (1, "00")),
    ("10", "11", None, (1, "10")),
    ("01", "00", (1, "01"), None),
    ("01", "10", (-1, "11"), (-1, "00")),
    ("01", "01", None, None),
    ("01", "11", None, (1, "01")),
    ("11", "00", (1, "11"), (1, "00")),
    ("11", "10", None, (1, "10")),
    ("11", "01", None, (1, "01")),
    ("11", "11", None, (1, "11")),
]


def test_criterion_table_qubit_d2():
    budget = Budget("table-d2-qubit-gates", 1.0)
    for s1, s2, want_w, want_v in TABLE_QUBIT_D2:
        got_w = q_wedge(QubitState.basis(parse_basis_state(s1)), QubitState.basis(parse_basis_state(s2)))
        got_v = q_vee(QubitState.basis(parse_basis_state(s1)), QubitState.basis(parse_basis_state(s2)))
        for got, want in ((got_w, want_w), (got_v, want_v)):
            if want is None:
                assert got.is_zero(), (s1, s2)
            else:
                sign, bits = want
                assert abs(got.amplitude(parse_basis_state(bits)) - sign) <= 1e-12, (s1, s2)
                assert len(got.amplitudes()) == 1
    budget.done("all 32 qubit entries, signs and zero cells included")


# ---- criterion 4: worked examples -----------------------------------------------------------

STAR_D2 = {(): (1, (1, 2)), (1,): (1, (2,)), (2,): (-1, (1,)), (1, 2): (1, ())}
STAR_D3 = {
    (): (1, (1, 2, 3)),
    (1,): (1, (2, 3)),
    (2,): (-1, (1, 3)),
    (3,): (1, (1, 2)),
    (1, 2): (1, (3,)),
    (1, 3): (-1, (2,)),
    (2, 3): (1, (1,)),
    (1, 2, 3): (1, ()),
}


def test_criterion_worked_examples():
    budget = Budget("worked-examples", 5.0)
    rng = random.Random(501)
    z = ExtensorFactors.from_indices(3, (1, 2))
    for _ in range(100):
        alpha, beta, gamma, delta = (random_coeff(rng) for _ in range(4))
        x = ExtensorFactors(3, ((alpha, beta, 0), (0, gamma, delta)))
        meet = wedge(expand(x), basis_vector(3, 1))
        assert mv_equal_approx(meet, beta * delta * Multivector.top(3), 1e-10)
        join_want = -alpha * delta * basis_vector(3, 1) - beta * delta * basis_vector(3, 2)
        assert mv_equal_approx(vee(expand(x), expand(z)), join_want, 1e-10)
        assert mv_equal_approx(join_by_splits(x, z, "first"), join_want, 1e-10)
        assert mv_equal_approx(join_by_splits(x, z, "second"), join_want, 1e-10)

    assert vee(blade(4, 1, 2), blade(4, 3)).is_zero()
    assert mv_equal_approx(vee(blade(4, 1, 2), blade(4, 3, 4)), Multivector.vacuum(4), 1e-12)
    assert mv_equal_approx(
        vee(blade(4, 1, 2), wedge(blade(4, 3, 4), blade(4, 1))), blade(4, 1), 1e-12
    )

    for d, table in ((2, STAR_D2), (3, STAR_D3)):
        for indices, (sign, comp) in table.items():
            assert mv_equal_approx(
                hodge(blade(d, *indices)), sign * blade(d, *comp), 1e-12
            )
    budget.done("100 coefficient draws, d=4 joins, both complement tables")


# ---- criterion 5: identity suite --------------------------------------------------------------


def test_criterion_identity_suite():
    budget = Budget("identity-suite", 60.0)
    rng = random.Random(502)
    trials = 1000
    for _ in range(trials):
        d = rng.randint(2, 8)
        for relation in RELATIONS:
            assert relation(rng, d), (relation.__name__, d)
    budget.done(f"{trials} randomized trials across d in 2..8 at {IDENTITY_TOL:g}")


# ---- criterion 6: join-definition equivalence ---------------------------------------------------


def test_criterion_join_definition_equivalence():
    budget = Budget("join-definition-equivalence", 60.0)
    rng = random.Random(503)
    pairs = 500
    for _ in range(pairs):
        d = rng.randint(2, 6)
        k, l = rng.randint(0, d), rng.randint(0, d)
        a, b = random_factors(rng, d, k), random_factors(rng, d, l)
        first = join_by_splits(a, b, "first")
        second = join_by_splits(a, b, "second")
        dual = vee(expand(a), expand(b))
        assert mv_equal_approx(first, second, 1e-9)
        assert mv_equal_approx(first, dual, 1e-9)
    budget.done(f"{pairs} random extensor pairs, both split sums and the duality route")


# ---- criterion 7: ladder-operator suite ----------------------------------------------------------


def test_criterion_fock_operator_suite():
    budget = Budget("ladder-operator-suite", 30.0)
    for d in range(1, 7):
        identity = np.eye(1 << d)
        creators = {i: operator_matrix(d, "create", i) for i in range(1, d + 1)}
        killers = {i: operator_matrix(d, "annihilate", i) for i in range(1, d + 1)}
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                mixed = killers[j] @ creators[k] + creators[k] @ killers[j]
                want = identity if j == k else 0.0
                assert np.max(np.abs(mixed - want)) <= 1e-12
                assert np.max(np.abs(killers[j] @ killers[k] + killers[k] @ killers[j])) <= 1e-12
                assert (
                    np.max(np.abs(creators[j] @ creators[k] + creators[k] @ creators[j]))
                    <= 1e-12
                )
    for d in range(1, 7):
        for mask in range(1 << d):
            indices = [i + 1 for i in range(d) if mask >> i & 1]
            assert multi_create(indices, Multivector.vacuum(d)) == blade(d, *indices)
            emptied = multi_annihilate(indices, Multivector.top(d))
            rest = tuple(i for i in range(1, d + 1) if i not in indices)
            assert len(emptied) == 1
            coeff = emptied.coeff(rest)
            assert abs(abs(coeff) - 1.0) <= 1e-12
    budget.done("anticommutators and vacuum mappings exact for d <= 6")


# ---- criterion 8: subspace-semantics oracle ---------------------------------------------------------


def _shared_factor_sets(rng, d, k, l, shared):
    u = random_factors(rng, d, k)
    vecs = []
    for _ in range(shared):
        mix = [0j] * d
        for f in u.factors:
            coeff = random_coeff(rng)
            mix = [m + coeff * x for m, x in zip(mix, f)]
        vecs.append(tuple(mix))
    while len(vecs) < l:
        vecs.append(random_vector(rng, d))
    return u, ExtensorFactors(d, tuple(vecs))


def test_criterion_subspace_semantics():
    budget = Budget("subspace-semantics", 60.0)
    rng = random.Random(504)
    sets = 0
    annihilation_checks = 0
    while sets < 500:
        d = rng.randint(2, 6)
        k = rng.randint(1, d - 1)
        forced = rng.random() < 0.5
        shared = rng.randint(1, k) if forced else 0
        l_max = min(d, d - k + shared) if forced else d - k
        l = rng.randint(1, max(1, l_max))
        u, w = _shared_factor_sets(rng, d, k, l, shared)
        sets += 1

        product = wedge(expand(u), expand(w))
        overlap = intersection_dim(d, u.factors, w.factors)
        scale = max([1.0] + [abs(coeff) for _, coeff in product])
        if overlap > 0:
            assert all(abs(coeff) <= 1e-8 for _, coeff in product)
        else:
            assert any(abs(coeff) > 1e-8 for _, coeff in product)

        if shared and span_covers(d, u.factors, w.factors):
            joined = vee(expand(u), expand(w))
            assert not joined.is_zero()
            jscale = max(abs(coeff) for _, coeff in joined)
            for v in w.factors[:shared]:
                vec = Multivector(d, {1 << i: coeff for i, coeff in enumerate(v)})
                leftover = wedge(vec, joined)
                assert all(
                    abs(coeff) <= 1e-8 * max(jscale, 1.0) for _, coeff in leftover
                )
                annihilation_checks += 1
    assert annihilation_checks >= 100
    budget.done(
        f"500 random factor sets; {annihilation_checks} join-annihilation checks"
    )


# ---- criterion 9: scalar-product suite ------------------------------------------------------------------


def test_criterion_scalar_product_suite():
    budget = Budget("scalar-product-suite", 10.0)
    rng = random.Random(505)
    for d in range(1, 7):
        for s in all_blades(d):
            for t in all_blades(d):
                if s.bit_count() != t.bit_count():
                    continue
                got = scalar_product(Multivector(d, {s: 1.0}), Multivector(d, {t: 1.0}))
                assert abs(got - (1.0 if s == t else 0.0)) <= 1e-12
    for _ in range(300):
        d = rng.randint(2, 6)
        k = rng.randint(0, d)
        a, b = random_homogeneous(rng, d, k), random_homogeneous(rng, d, k)
        assert abs(scalar_product(a, b) - scalar_product(b, a).conjugate()) <= 1e-10
    d = 6
    for _ in range(100):
        av = [random_coeff(rng) for _ in range(d)]
        bv = [random_coeff(rng) for _ in range(d)]
        a = sum((c * basis_vector(d, i + 1) for i, c in enumerate(av)), Multivector.zero(d))
        b = sum((c * basis_vector(d, i + 1) for i, c in enumerate(bv)), Multivector.zero(d))
        assert abs(
            scalar_product(a, b) - sum(x.conjugate() * y for x, y in zip(av, bv))
        ) <= 1e-10
    with pytest.raises(GradeError):
        scalar_product(basis_vector(2, 1), Multivector.top(2))
    budget.done("orthonormality over all blade pairs d<=6, Hermitian, vector reduction")


# ---- criterion 10: parser robustness ------------------------------------------------------------------------


def test_criterion_parser_robustness():
    budget = Budget("parser-robustness", 60.0)
    rng = random.Random(506)
    grammarish = "e1 e2 ^v*~+-() E 1 2.5 i ip , x"
    fuzzed = 0
    for _ in range(100_000):
        if rng.random() < 0.5:
            text = bytes(rng.randrange(256) for _ in range(rng.randint(0, 24))).decode(
                "latin-1"
            )
        else:
            text = "".join(rng.choice(grammarish) for _ in range(rng.randint(0, 24)))
        fuzzed += 1
        try:
            parse_text(text)
        except ExprSyntaxError as err:
            assert err.line >= 1 and err.col >= 1

    round_trips = 0
    for _ in range(1000):
        d = rng.randint(2, 4)
        value = random_mv(rng, d)
        text = value.to_text()
        again = evaluate(parse_text(text), Environment(d))
        assert isinstance(again, Multivector)
        assert mv_equal_approx(again, value, 1e-10)
        assert again.to_text() == text
        round_trips += 1
    budget.done(f"{fuzzed} fuzz inputs crash-free; {round_trips} print round trips")
