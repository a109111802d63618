"""Built-in verification of the bundled reference tables and identities.

Each check replays frozen reference data (the d=2 product tables, the partial
set-gate domains, the qubit gate table, the complement tables) or a batch of
randomized identity trials, and reports pass/fail.  The suite is what the
`verify-paper` CLI subcommand runs; it exists so a build can prove in one
command that every published value it claims to reproduce still comes out.

The identities of meet, join and star are stated once, as the named relations
in RELATIONS, over operands from the seeded generators `random_*`.  The
identity check samples them here; the test suite checks the same relations as
hypothesis properties and in a longer seeded run.  Nothing here loads numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial, reduce

from .boolean_gates import domain_d1, domain_d2, pseudo_vee, pseudo_wedge, subset
from .errors import GradeError
from .extensors import ExtensorFactors, det_columns, expand, join_by_splits, triple_det
from .fock import apply_annihilation, apply_creation, multi_annihilate, multi_create
from .multivector import (
    Multivector,
    basis_vector,
    covector,
    hodge,
    hodge_inverse,
    mv_equal_approx,
    scalar_product,
    vee,
    wedge,
)
from .qubits import QubitState, parse_basis_state, q_vee, q_wedge

DEFAULT_SEED = 1118
# Absolute tolerance of a randomized identity whose two sides are summed in
# different orders (associativity, star duality, antisymmetry, the determinant
# routes and the worked examples); coefficient parts lie in (-2, 2).
IDENTITY_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    kind: str  # "table" or "example"
    passed: bool
    detail: str = ""


def _result(name: str, kind: str, failures: list[str], passed_detail: str) -> CheckResult:
    """Pass with passed_detail, or fail naming the first 4 failures."""
    detail = "; ".join(failures[:4]) if failures else passed_detail
    return CheckResult(name, kind, not failures, detail)


# ---- frozen reference data ------------------------------------------------------

# d=2 basis order: 1, e1, e2, E.  Entries are (a, b, a^b, a v b) in text form.
MEET_JOIN_TABLE_D2 = [
    ("1", "1", "1", "0"),
    ("1", "e1", "e1", "0"),
    ("1", "e2", "e2", "0"),
    ("1", "E", "E", "1"),
    ("e1", "1", "e1", "0"),
    ("e1", "e1", "0", "0"),
    ("e1", "e2", "E", "1"),
    ("e1", "E", "0", "e1"),
    ("e2", "1", "e2", "0"),
    ("e2", "e1", "-E", "-1"),
    ("e2", "e2", "0", "0"),
    ("e2", "E", "0", "e2"),
    ("E", "1", "E", "1"),
    ("E", "e1", "0", "e1"),
    ("E", "e2", "0", "e2"),
    ("E", "E", "0", "E"),
]

# Subset pairs (as frozensets) on which the induced partial operations are defined.
DOMAIN_D1_REFERENCE = {
    (frozenset(), frozenset()),
    (frozenset({1}), frozenset()),
    (frozenset({2}), frozenset()),
    (frozenset({1, 2}), frozenset()),
    (frozenset(), frozenset({1})),
    (frozenset(), frozenset({2})),
    (frozenset({1}), frozenset({2})),
    (frozenset(), frozenset({1, 2})),
}
DOMAIN_D2_REFERENCE = {
    (frozenset({1, 2}), frozenset()),
    (frozenset({1, 2}), frozenset({1})),
    (frozenset({1}), frozenset({2})),
    (frozenset({1, 2}), frozenset({2})),
    (frozenset(), frozenset({1, 2})),
    (frozenset({1}), frozenset({1, 2})),
    (frozenset({2}), frozenset({1, 2})),
    (frozenset({1, 2}), frozenset({1, 2})),
}

# d=2 qubit basis order: |00>, |10>, |01>, |11>.  Entries (s1, s2, s1^s2, s1 v s2).
QUBIT_TABLE_D2 = [
    ("00", "00", "|00>", "0"),
    ("00", "10", "|10>", "0"),
    ("00", "01", "|01>", "0"),
    ("00", "11", "|11>", "|00>"),
    ("10", "00", "|10>", "0"),
    ("10", "10", "0", "0"),
    ("10", "01", "|11>", "|00>"),
    ("10", "11", "0", "|10>"),
    ("01", "00", "|01>", "0"),
    ("01", "10", "-|11>", "-|00>"),
    ("01", "01", "0", "0"),
    ("01", "11", "0", "|01>"),
    ("11", "00", "|11>", "|00>"),
    ("11", "10", "0", "|10>"),
    ("11", "01", "0", "|01>"),
    ("11", "11", "0", "|11>"),
]

# blade -> (sign, complement blade)
COMPLEMENT_ENTRIES_D2 = {
    (): (1, (1, 2)),
    (1,): (1, (2,)),
    (2,): (-1, (1,)),
    (1, 2): (1, ()),
}
COMPLEMENT_ENTRIES_D3 = {
    (): (1, (1, 2, 3)),
    (1,): (1, (2, 3)),
    (2,): (-1, (1, 3)),
    (3,): (1, (1, 2)),
    (1, 2): (1, (3,)),
    (1, 3): (-1, (2,)),
    (2, 3): (1, (1,)),
    (1, 2, 3): (1, ()),
}


# ---- seeded random values ---------------------------------------------------------
#
# The randomized checks, the relations and the tests draw their operands from
# these, each from an explicit random.Random, so a seed pins the draws.
# Coefficient parts lie in (-2, 2).


def random_coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def random_mv(rng: random.Random, d: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.randrange(1 << d)] = random_coeff(rng)
    return Multivector(d, terms)


def random_homogeneous(rng: random.Random, d: int, k: int, max_terms: int = 3) -> Multivector:
    masks = [m for m in range(1 << d) if m.bit_count() == k]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(masks)] = random_coeff(rng)
    return Multivector(d, terms)


def random_vector(rng: random.Random, d: int) -> tuple[complex, ...]:
    return tuple(random_coeff(rng) for _ in range(d))


def random_factors(rng: random.Random, d: int, k: int) -> ExtensorFactors:
    return ExtensorFactors(d, tuple(random_vector(rng, d) for _ in range(k)))


# ---- identity relations -------------------------------------------------------------
#
# Each relation draws its operands from rng in dimension d >= 1 and returns
# whether it holds.  Sides reached by different summation orders are compared
# within tol; sides that differ only by factors of +-1 are compared exactly.
# `check_identity_relations`, the property tests and the acceptance suite all
# loop over RELATIONS.


def unit_rows(rng: random.Random, d: int, tol: float) -> bool:
    """1 and E are the units of wedge and vee; 1 v 1 and E ^ E vanish."""
    a = random_mv(rng, d)
    one, top = Multivector.vacuum(d), Multivector.top(d)
    return (
        wedge(a, one) == a == vee(a, top)
        and wedge(one, one) == one == vee(one, top)
        and wedge(one, top) == top == vee(top, top)
        and vee(one, one).is_zero()
        and wedge(top, top).is_zero()
    )


def associativity(rng: random.Random, d: int, tol: float) -> bool:
    a, b, c = (random_mv(rng, d) for _ in range(3))
    return (
        mv_equal_approx(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), tol)
        and mv_equal_approx(vee(vee(a, b), c), vee(a, vee(b, c)), tol)
    )


def star_duality(rng: random.Random, d: int, tol: float) -> bool:
    """The star turns wedge into vee and vee into wedge."""
    a, b = random_mv(rng, d), random_mv(rng, d)
    return (
        mv_equal_approx(hodge(wedge(a, b)), vee(hodge(a), hodge(b)), tol)
        and mv_equal_approx(hodge(vee(a, b)), wedge(hodge(a), hodge(b)), tol)
    )


def star_inverse(rng: random.Random, d: int, tol: float) -> bool:
    a = random_mv(rng, d)
    return hodge_inverse(hodge(a)) == a == hodge(hodge_inverse(a))


def graded_antisymmetry(rng: random.Random, d: int, tol: float) -> bool:
    """For steps k and l: a ^ b = (-1)^(kl) b ^ a, a v b = (-1)^((d-k)(d-l))
    b v a, and **a = (-1)^(k(d-k)) a."""
    k, l = rng.randint(0, d), rng.randint(0, d)
    a, b = random_homogeneous(rng, d, k), random_homogeneous(rng, d, l)
    return (
        mv_equal_approx(wedge(a, b), (-1) ** (k * l) * wedge(b, a), tol)
        and mv_equal_approx(vee(a, b), (-1) ** ((d - k) * (d - l)) * vee(b, a), tol)
        and hodge(hodge(a)) == (-1) ** (k * (d - k)) * a
    )


def pauli_rows(rng: random.Random, d: int, tol: float) -> bool:
    """A blade of positive step vanishes against E and itself under wedge,
    and, below step d, against 1 and itself under vee."""
    mask = rng.randrange(1, 1 << d)
    blade = Multivector(d, {mask: 1.0})
    killed = [wedge(blade, Multivector.top(d)), wedge(blade, blade)]
    if mask.bit_count() < d:
        killed += [vee(blade, Multivector.vacuum(d)), vee(blade, blade)]
    return all(x.is_zero() for x in killed)


def exclusion_corollary(rng: random.Random, d: int, tol: float) -> bool:
    """A shared fermion forbids the meet: two blades whose join survives also
    meet exactly when they are complementary, that is when their steps sum to
    at most d."""
    mask, other = rng.randrange(1, 1 << d), rng.randrange(1 << d)
    a, b = Multivector(d, {mask: 1.0}), Multivector(d, {other: 1.0})
    if vee(a, b).is_zero():
        return True
    complementary = other == mask ^ ((1 << d) - 1)
    met = not wedge(a, b).is_zero()
    return met == complementary == (mask.bit_count() + other.bit_count() <= d)


def covector_formula(rng: random.Random, d: int, tol: float) -> bool:
    """The one-hole state of mode i is (-1)^(i-1) times the blade of the other modes."""
    i = rng.randint(1, d)
    rest = [r for r in range(1, d + 1) if r != i]
    return covector(d, i) == (-1) ** (i - 1) * Multivector.from_indices(d, rest)


def one_hole_fill(rng: random.Random, d: int, tol: float) -> bool:
    """e_j fills the hole of mode i to E when j = i and meets an occupied mode otherwise."""
    i, j = rng.randint(1, d), rng.randint(1, d)
    want = Multivector.top(d) if i == j else Multivector.zero(d)
    return wedge(basis_vector(d, j), covector(d, i)) == want


def covector_join(rng: random.Random, d: int, tol: float) -> bool:
    """The one-hole states of modes k+1..d join to (-1)^(k(d-k)) e_1^...^e_k;
    for k = 0, all d of them join to the vacuum."""
    k = rng.randrange(d)
    joined = reduce(vee, (covector(d, i) for i in range(k + 1, d + 1)))
    return joined == (-1) ** (k * (d - k)) * Multivector.from_indices(d, range(1, k + 1))


def complementary_determinant(rng: random.Random, d: int, tol: float) -> bool:
    """Expansions x, y of steps k and d-k: x ^ y = det(x, y) E, x v y =
    det(x, y) 1, and x ^ *x is E times the scalar x v *x."""
    k = rng.randint(0, d)
    fx, fy = random_factors(rng, d, k), random_factors(rng, d, d - k)
    det = det_columns(fx.factors + fy.factors, d)
    x, y = expand(fx), expand(fy)
    one, top, star_x = Multivector.vacuum(d), Multivector.top(d), hodge(x)
    return (
        mv_equal_approx(wedge(x, y), det * top, tol)
        and mv_equal_approx(vee(x, y), det * one, tol)
        and mv_equal_approx(wedge(x, star_x), vee(x, star_x).coeff_mask(0) * top, tol)
    )


def triple_determinant(rng: random.Random, d: int, tol: float) -> bool:
    """The three routes of `triple_det` agree on steps summing to d."""
    a_step = rng.randint(0, d - 1)
    b_step = rng.randint(0, d - a_step)
    steps = (a_step, b_step, d - a_step - b_step)
    first, second, third = triple_det(*(random_factors(rng, d, s) for s in steps))
    return abs(first - third) <= tol and abs(second - third) <= tol


RELATIONS = (
    unit_rows,
    associativity,
    star_duality,
    star_inverse,
    graded_antisymmetry,
    pauli_rows,
    exclusion_corollary,
    covector_formula,
    one_hole_fill,
    covector_join,
    complementary_determinant,
    triple_determinant,
)


# ---- table checks -----------------------------------------------------------------


def check_identity_relations(trials: int, rng: random.Random) -> CheckResult:
    failures = []
    for _ in range(trials):
        d = rng.randint(2, 6)
        failures += [f"{r.__name__} (d={d})" for r in RELATIONS if not r(rng, d, IDENTITY_TOL)]
    return _result("identity-relations", "table", failures, f"{trials} randomized trials")


def check_meet_join_table() -> CheckResult:
    env_blades = {
        "1": Multivector.vacuum(2),
        "e1": basis_vector(2, 1),
        "e2": basis_vector(2, 2),
        "E": Multivector.top(2),
    }
    failures = []
    for a, b, want_wedge, want_vee in MEET_JOIN_TABLE_D2:
        got_w = wedge(env_blades[a], env_blades[b]).to_text()
        got_v = vee(env_blades[a], env_blades[b]).to_text()
        if got_w != want_wedge:
            failures.append(f"{a}^{b}: got {got_w}, want {want_wedge}")
        if got_v != want_vee:
            failures.append(f"{a} v {b}: got {got_v}, want {want_vee}")
    return _result("meet-join-table-d2", "table", failures, "32 entries")


def check_partial_gate_table() -> CheckResult:
    failures = []
    d1 = domain_d1(2)
    d2 = domain_d2(2)
    if d1 != DOMAIN_D1_REFERENCE:
        failures.append(f"wedge domain mismatch: {sorted(map(sorted, d1 - DOMAIN_D1_REFERENCE))}")
    if d2 != DOMAIN_D2_REFERENCE:
        failures.append("vee domain mismatch")
    for members1, members2 in DOMAIN_D1_REFERENCE:
        got = pseudo_wedge(subset(2, members1), subset(2, members2))
        if got is None or got.members != members1 | members2:
            failures.append(f"pseudo-wedge {set(members1)},{set(members2)}")
    for members1, members2 in DOMAIN_D2_REFERENCE:
        got = pseudo_vee(subset(2, members1), subset(2, members2))
        if got is None or got.members != members1 & members2:
            failures.append(f"pseudo-vee {set(members1)},{set(members2)}")
    return _result("partial-set-gate-table-d2", "table", failures, "2x8 domain pairs")


def check_qubit_gate_table() -> CheckResult:
    failures = []
    for s1, s2, want_wedge, want_vee in QUBIT_TABLE_D2:
        q1 = QubitState.basis(parse_basis_state(s1))
        q2 = QubitState.basis(parse_basis_state(s2))
        got_w = q_wedge(q1, q2).to_text()
        got_v = q_vee(q1, q2).to_text()
        if got_w != want_wedge:
            failures.append(f"|{s1}>^|{s2}>: got {got_w}, want {want_wedge}")
        if got_v != want_vee:
            failures.append(f"|{s1}> v |{s2}>: got {got_v}, want {want_vee}")
    return _result("qubit-gate-table-d2", "table", failures, "32 entries")


# ---- worked example checks ---------------------------------------------------------


def check_superposition_meet(rng: random.Random) -> CheckResult:
    failures = []
    for _ in range(25):
        alpha, beta, gamma, delta = random_vector(rng, 4)
        x = ExtensorFactors(3, ((alpha, beta, 0), (0, gamma, delta)))
        got = wedge(expand(x), basis_vector(3, 1))
        want = beta * delta * Multivector.top(3)
        if not mv_equal_approx(got, want, IDENTITY_TOL):
            failures.append(f"coefficients {alpha:.3f},{beta:.3f},{gamma:.3f},{delta:.3f}")
    return _result("superposition-meet-d3", "example", failures, "25 random coefficient draws")


def check_superposition_join(rng: random.Random) -> CheckResult:
    failures = []
    z = ExtensorFactors.from_indices(3, (1, 2))
    for _ in range(25):
        alpha, beta, gamma, delta = random_vector(rng, 4)
        x = ExtensorFactors(3, ((alpha, beta, 0), (0, gamma, delta)))
        want = -alpha * delta * basis_vector(3, 1) - beta * delta * basis_vector(3, 2)
        for variant in ("first", "second"):
            if not mv_equal_approx(join_by_splits(x, z, variant), want, IDENTITY_TOL):
                failures.append(f"split variant {variant}")
        if not mv_equal_approx(vee(expand(x), expand(z)), want, IDENTITY_TOL):
            failures.append("duality route")
    return _result(
        "superposition-join-d3", "example", failures, "25 random coefficient draws, 3 routes"
    )


def check_join_examples_d4() -> CheckResult:
    e12 = Multivector.from_indices(4, (1, 2))
    e3 = basis_vector(4, 3)
    e34 = Multivector.from_indices(4, (3, 4))
    e341 = wedge(e34, basis_vector(4, 1))
    failures = []
    if not vee(e12, e3).is_zero():
        failures.append("step-short join not zero")
    if vee(e12, e34) != Multivector.vacuum(4):
        failures.append("complementary join not the vacuum")
    if vee(e12, e341) != basis_vector(4, 1):
        failures.append("overlap join wrong")
    return _result("join-examples-d4", "example", failures, "3 evaluations")


def _check_complement_table(d: int, entries) -> list[str]:
    failures = []
    for indices, (sign, comp) in entries.items():
        got = hodge(Multivector.from_indices(d, indices))
        if got != sign * Multivector.from_indices(d, comp):
            failures.append(f"star of {indices} in d={d}")
    return failures


def check_complement_tables() -> list[CheckResult]:
    f2 = _check_complement_table(2, COMPLEMENT_ENTRIES_D2)
    f3 = _check_complement_table(3, COMPLEMENT_ENTRIES_D3)
    return [
        _result("complement-table-d2", "example", f2, "4 entries"),
        _result("complement-table-d3", "example", f3, "8 entries"),
    ]


def _anticommutator(f, g, x: Multivector) -> Multivector:
    return f(g(x)) + g(f(x))


def check_ladder_maps() -> CheckResult:
    failures = []
    d = 4
    created = multi_create({1, 4}, Multivector.vacuum(d))
    if created != Multivector.from_indices(d, (1, 4)):
        failures.append("creation string on the vacuum")
    emptied = multi_annihilate({1, 4}, Multivector.top(d))
    coeff = emptied.coeff((2, 3))
    if len(emptied) != 1 or abs(coeff) != 1.0:
        failures.append("annihilation string on the top blade")
    for masks in range(1 << d):
        indices = [i + 1 for i in range(d) if masks >> i & 1]
        got = multi_create(indices, Multivector.vacuum(d))
        if got != Multivector.from_indices(d, indices):
            failures.append(f"creation string for {indices}")
            break
    # {a_j, a_k^dagger} = delta_jk and {a_j, a_k} = {a_j^dagger, a_k^dagger} = 0,
    # exactly, on each of the 2^d basis blades
    blades = [Multivector(d, {mask: 1.0}) for mask in range(1 << d)]
    zero = Multivector.zero(d)
    for j in range(1, d + 1):
        aj, cj = partial(apply_annihilation, j), partial(apply_creation, j)
        for k in range(1, d + 1):
            ak, ck = partial(apply_annihilation, k), partial(apply_creation, k)
            if any(_anticommutator(aj, ck, x) != (x if j == k else zero) for x in blades):
                failures.append(f"mixed anticommutator ({j},{k})")
            if not all(
                _anticommutator(aj, ak, x).is_zero() and _anticommutator(cj, ck, x).is_zero()
                for x in blades
            ):
                failures.append(f"like anticommutator ({j},{k})")
    return _result("ladder-vacuum-maps", "example", failures, "strings and anticommutators at d=4")


def check_vector_orthonormality(rng: random.Random) -> CheckResult:
    failures = []
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                got = scalar_product(basis_vector(d, i), basis_vector(d, j))
                if got != (1.0 if i == j else 0.0):
                    failures.append(f"(e{i},e{j}) d={d}")
    d = 4
    for _ in range(20):
        avec, bvec = random_vector(rng, d), random_vector(rng, d)
        a = sum((c * basis_vector(d, i + 1) for i, c in enumerate(avec)), Multivector.zero(d))
        b = sum((c * basis_vector(d, i + 1) for i, c in enumerate(bvec)), Multivector.zero(d))
        want = sum(x.conjugate() * y for x, y in zip(avec, bvec))
        if abs(scalar_product(a, b) - want) > IDENTITY_TOL:
            failures.append("vector reduction")
            break
    try:
        scalar_product(basis_vector(2, 1), Multivector.top(2))
        failures.append("cross-step product did not raise")
    except GradeError:
        pass
    return _result(
        "vector-orthonormality", "example", failures, "all pairs d<=4, 20 random vector pairs"
    )


def check_one_hole_fill() -> CheckResult:
    failures = []
    for d in range(2, 6):
        top = Multivector.top(d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                got = wedge(basis_vector(d, i), covector(d, j))
                if got != (top if i == j else Multivector.zero(d)):
                    failures.append(f"e{i}^cov{j} d={d}")
    return _result("one-hole-fill", "example", failures, "all pairs d<=5")


# ---- driver -------------------------------------------------------------------------


def run_verification(trials: int = 150, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    results = [
        check_identity_relations(trials, rng),
        check_meet_join_table(),
        check_partial_gate_table(),
        check_qubit_gate_table(),
        check_superposition_meet(rng),
        check_superposition_join(rng),
        check_join_examples_d4(),
        *check_complement_tables(),
        check_ladder_maps(),
        check_vector_orthonormality(rng),
        check_one_hole_fill(),
    ]
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for kind, title in (("table", "reference tables"), ("example", "worked examples")):
        lines.append(f"{title}:")
        for r in results:
            if r.kind != kind:
                continue
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"  {status}  {r.name}  ({r.detail})")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
