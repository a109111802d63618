"""Built-in verification of the bundled reference tables and identities.

Each check replays frozen reference data or a batch of randomized identity
trials, and reports pass/fail.  The suite is what the `verify-paper` CLI
subcommand runs; it exists so a build can prove in one command that every
published value it claims to reproduce still comes out.

The d=2 gate tables (meet/join, the partial set gates, the qubit gates) are
frozen as the rows `excalc table --dim 2` prints and are checked against
`tables.table_rows`, the loop that prints them.  The worked examples with
exact answers are frozen as (d, expression, printed result) rows, checked by
printing each expression as `excalc eval --dim d` does, so a failing row can
be pasted into that command.

The identities of meet, join and star are stated once, as the named relations
in RELATIONS, over operands from the seeded generators `random_*`.  The
identity check samples them here; the test suite checks the same relations as
hypothesis properties and in a longer seeded run.  Nothing here loads numpy.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import partial, reduce

from .errors import GradeError
from .expr import Environment, evaluate_text
from .extensors import ExtensorFactors, det_columns, expand, join_by_splits, triple_det
from .fock import apply_annihilation, apply_creation, multi_annihilate, multi_create
from .multivector import (
    IDENTITY_TOL,
    Multivector,
    basis_vector,
    covector,
    hodge,
    hodge_inverse,
    indices_from_mask,
    mv_equal_approx,
    scalar_product,
    vee,
    wedge,
)
# bound at import, so a wrapper put on `tables.table_rows` later (perfbench's
# traced mode) times the `table` command alone
from .tables import table_rows
from .textform import format_result

DEFAULT_SEED = 1118


# kind is "table" or "example"
CheckResult = namedtuple("CheckResult", "name kind passed detail", defaults=("",))


def _result(name: str, kind: str, failures: list[str], passed_detail: str) -> CheckResult:
    """Pass with passed_detail, or fail naming the first 4 failures."""
    detail = "; ".join(failures[:4]) if failures else passed_detail
    return CheckResult(name, kind, not failures, detail)


def _row_failures(rows) -> list[str]:
    """The (d, expression, printed) rows that `excalc eval --dim d` does not
    print as frozen, each named so it can be pasted into that command."""
    failures = []
    for d, source, want in rows:
        got = format_result(evaluate_text(source, Environment(d)), "text")
        if got != want:
            failures.append(f"{source} at d={d}: got {got}, want {want}")
    return failures


# ---- frozen reference data ------------------------------------------------------
#
# The d=2 gate tables, as `excalc table --dim 2` prints them: rows (a, b,
# left-op cell, right-op cell) in (step, index) order, with "" where a partial
# set gate is undefined.

# wedge and vee on 1, e1, e2, E
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

# pseudo-wedge and pseudo-vee on {}, {1}, {2}, {1,2}
PARTIAL_GATE_TABLE_D2 = [
    ("{}", "{}", "{}", ""),
    ("{}", "{1}", "{1}", ""),
    ("{}", "{2}", "{2}", ""),
    ("{}", "{1,2}", "{1,2}", "{}"),
    ("{1}", "{}", "{1}", ""),
    ("{1}", "{1}", "", ""),
    ("{1}", "{2}", "{1,2}", "{}"),
    ("{1}", "{1,2}", "", "{1}"),
    ("{2}", "{}", "{2}", ""),
    ("{2}", "{1}", "", ""),
    ("{2}", "{2}", "", ""),
    ("{2}", "{1,2}", "", "{2}"),
    ("{1,2}", "{}", "{1,2}", "{}"),
    ("{1,2}", "{1}", "", "{1}"),
    ("{1,2}", "{2}", "", "{2}"),
    ("{1,2}", "{1,2}", "", "{1,2}"),
]

# q-wedge and q-vee on |00>, |10>, |01>, |11>
QUBIT_TABLE_D2 = [
    ("|00>", "|00>", "|00>", "0"),
    ("|00>", "|10>", "|10>", "0"),
    ("|00>", "|01>", "|01>", "0"),
    ("|00>", "|11>", "|11>", "|00>"),
    ("|10>", "|00>", "|10>", "0"),
    ("|10>", "|10>", "0", "0"),
    ("|10>", "|01>", "|11>", "|00>"),
    ("|10>", "|11>", "0", "|10>"),
    ("|01>", "|00>", "|01>", "0"),
    ("|01>", "|10>", "-|11>", "-|00>"),
    ("|01>", "|01>", "0", "0"),
    ("|01>", "|11>", "0", "|01>"),
    ("|11>", "|00>", "|11>", "|00>"),
    ("|11>", "|10>", "0", "|10>"),
    ("|11>", "|01>", "0", "|01>"),
    ("|11>", "|11>", "0", "|11>"),
]

# The worked examples, as `excalc eval --dim d` prints them: rows (d,
# expression, printed result).  First the star of each blade of `all_blades(d)`.
COMPLEMENT_TABLE_D2 = [(2, "*(1)", "E"), (2, "*(e1)", "e2"), (2, "*(e2)", "-e1"), (2, "*(E)", "1")]
COMPLEMENT_TABLE_D3 = [
    (3, "*(1)", "E"),
    (3, "*(e1)", "e2^e3"),
    (3, "*(e2)", "-e1^e3"),
    (3, "*(e3)", "e1^e2"),
    (3, "*(e1^e2)", "e3"),
    (3, "*(e1^e3)", "-e2"),
    (3, "*(e2^e3)", "e1"),
    (3, "*(E)", "1"),
]

# a join of steps summing below d vanishes, to d is a scalar, above d overlaps
JOIN_EXAMPLES_D4 = [
    (4, "e1^e2 v e3", "0"),
    (4, "e1^e2 v e3^e4", "1"),
    (4, "e1^e2 v e3^e4^e1", "e1"),
]

# e_i fills the hole of mode j to E when i = j and meets an occupied mode otherwise
ONE_HOLE_FILL_ROWS = [
    (d, f"e{i} ^ *e{j}", "E" if i == j else "0")
    for d in range(2, 6) for i in range(1, d + 1) for j in range(1, d + 1)
]

# the basis vectors are orthonormal
BASIS_PRODUCT_ROWS = [
    (d, f"ip(e{i}, e{j})", "1" if i == j else "0")
    for d in (2, 3, 4) for i in range(1, d + 1) for j in range(1, d + 1)
]


# ---- seeded random values ---------------------------------------------------------
#
# The randomized checks, the relations and the tests draw their operands from
# these, each from an explicit random.Random, so a seed pins the draws.
# Coefficient parts lie in (-2, 2).  random_mv draws 1 to 4 terms and
# random_homogeneous 1 to 3; a repeated mask keeps its last draw.


def random_coeff(rng: random.Random) -> complex:
    return complex(rng.uniform(-2, 2), rng.uniform(-2, 2))


def random_mv(rng: random.Random, d: int) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        terms[rng.randrange(1 << d)] = random_coeff(rng)
    return Multivector(d, terms)


def random_homogeneous(rng: random.Random, d: int, k: int) -> Multivector:
    masks = [m for m in range(1 << d) if m.bit_count() == k]
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.choice(masks)] = random_coeff(rng)
    return Multivector(d, terms)


def random_vector(rng: random.Random, d: int) -> tuple[complex, ...]:
    return tuple(random_coeff(rng) for _ in range(d))


def random_factors(rng: random.Random, d: int, k: int) -> ExtensorFactors:
    return ExtensorFactors(d, tuple(random_vector(rng, d) for _ in range(k)))


# ---- identity relations -------------------------------------------------------------
#
# Each relation draws its operands from rng in dimension d >= 1 and returns
# whether it holds.  Sides summed in different orders are compared within
# IDENTITY_TOL; sides that differ only by factors of +-1 are compared exactly.
# `check_identity_relations`, the property tests and the acceptance suite all
# loop over RELATIONS.


def unit_rows(rng: random.Random, d: int) -> bool:
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


def associativity(rng: random.Random, d: int) -> bool:
    a, b, c = (random_mv(rng, d) for _ in range(3))
    return (
        mv_equal_approx(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), IDENTITY_TOL)
        and mv_equal_approx(vee(vee(a, b), c), vee(a, vee(b, c)), IDENTITY_TOL)
    )


def star_duality(rng: random.Random, d: int) -> bool:
    """The star turns wedge into vee and vee into wedge."""
    a, b = random_mv(rng, d), random_mv(rng, d)
    return (
        mv_equal_approx(hodge(wedge(a, b)), vee(hodge(a), hodge(b)), IDENTITY_TOL)
        and mv_equal_approx(hodge(vee(a, b)), wedge(hodge(a), hodge(b)), IDENTITY_TOL)
    )


def star_inverse(rng: random.Random, d: int) -> bool:
    a = random_mv(rng, d)
    return hodge_inverse(hodge(a)) == a == hodge(hodge_inverse(a))


def graded_antisymmetry(rng: random.Random, d: int) -> bool:
    """For steps k and l: a ^ b = (-1)^(kl) b ^ a, a v b = (-1)^((d-k)(d-l))
    b v a, and **a = (-1)^(k(d-k)) a."""
    k, l = rng.randint(0, d), rng.randint(0, d)
    a, b = random_homogeneous(rng, d, k), random_homogeneous(rng, d, l)
    return (
        mv_equal_approx(wedge(a, b), (-1) ** (k * l) * wedge(b, a), IDENTITY_TOL)
        and mv_equal_approx(vee(a, b), (-1) ** ((d - k) * (d - l)) * vee(b, a), IDENTITY_TOL)
        and hodge(hodge(a)) == (-1) ** (k * (d - k)) * a
    )


def pauli_rows(rng: random.Random, d: int) -> bool:
    """A blade of positive step vanishes against E and itself under wedge,
    and, below step d, against 1 and itself under vee."""
    mask = rng.randrange(1, 1 << d)
    blade = Multivector(d, {mask: 1.0})
    killed = [wedge(blade, Multivector.top(d)), wedge(blade, blade)]
    if mask.bit_count() < d:
        killed += [vee(blade, Multivector.vacuum(d)), vee(blade, blade)]
    return all(x.is_zero() for x in killed)


def exclusion_corollary(rng: random.Random, d: int) -> bool:
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


def covector_formula(rng: random.Random, d: int) -> bool:
    """The one-hole state of mode i is (-1)^(i-1) times the blade of the other modes."""
    i = rng.randint(1, d)
    rest = [r for r in range(1, d + 1) if r != i]
    return covector(d, i) == (-1) ** (i - 1) * Multivector.from_indices(d, rest)


def one_hole_fill(rng: random.Random, d: int) -> bool:
    """e_j fills the hole of mode i to E when j = i and meets an occupied mode otherwise."""
    i, j = rng.randint(1, d), rng.randint(1, d)
    want = Multivector.top(d) if i == j else Multivector.zero(d)
    return wedge(basis_vector(d, j), covector(d, i)) == want


def covector_join(rng: random.Random, d: int) -> bool:
    """The one-hole states of modes k+1..d join to (-1)^(k(d-k)) e_1^...^e_k;
    for k = 0, all d of them join to the vacuum."""
    k = rng.randrange(d)
    joined = reduce(vee, (covector(d, i) for i in range(k + 1, d + 1)))
    return joined == (-1) ** (k * (d - k)) * Multivector.from_indices(d, range(1, k + 1))


def complementary_determinant(rng: random.Random, d: int) -> bool:
    """Expansions x, y of steps k and d-k: x ^ y = det(x, y) E, x v y =
    det(x, y) 1, and x ^ *x is E times the scalar x v *x."""
    k = rng.randint(0, d)
    fx, fy = random_factors(rng, d, k), random_factors(rng, d, d - k)
    det = det_columns(fx.factors + fy.factors)
    x, y = expand(fx), expand(fy)
    one, top, star_x = Multivector.vacuum(d), Multivector.top(d), hodge(x)
    return (
        mv_equal_approx(wedge(x, y), det * top, IDENTITY_TOL)
        and mv_equal_approx(vee(x, y), det * one, IDENTITY_TOL)
        and mv_equal_approx(wedge(x, star_x), vee(x, star_x).coeff_mask(0) * top, IDENTITY_TOL)
    )


def triple_determinant(rng: random.Random, d: int) -> bool:
    """The three routes of `triple_det` agree on steps summing to d."""
    a_step = rng.randint(0, d - 1)
    b_step = rng.randint(0, d - a_step)
    steps = (a_step, b_step, d - a_step - b_step)
    first, second, third = triple_det(*(random_factors(rng, d, s) for s in steps))
    return abs(first - third) <= IDENTITY_TOL and abs(second - third) <= IDENTITY_TOL


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
        failures += [f"{r.__name__} (d={d})" for r in RELATIONS if not r(rng, d)]
    return _result("identity-relations", "table", failures, f"{trials} randomized trials")


def _check_gate_table(name: str, left: str, right: str, frozen, detail: str) -> CheckResult:
    """Both result columns of a frozen d=2 table against the rows of `table_rows`."""
    failures = []
    rows = zip(frozen, table_rows(left, 2), table_rows(right, 2), strict=True)
    for (a, b, *cells), *got in rows:
        for op, cell, row in zip((left, right), cells, got):
            if row != (a, b, cell):
                failures.append(f"{op} {a},{b}: got {row!r}, want {(a, b, cell)!r}")
    return _result(name, "table", failures, detail)


def check_meet_join_table() -> CheckResult:
    return _check_gate_table("meet-join-table-d2", "wedge", "vee", MEET_JOIN_TABLE_D2, "32 entries")


def check_partial_gate_table() -> CheckResult:
    return _check_gate_table(
        "partial-set-gate-table-d2", "pseudo-wedge", "pseudo-vee", PARTIAL_GATE_TABLE_D2,
        "2x8 domain pairs",
    )


def check_qubit_gate_table() -> CheckResult:
    return _check_gate_table(
        "qubit-gate-table-d2", "q-wedge", "q-vee", QUBIT_TABLE_D2, "32 entries"
    )


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
    return _result("join-examples-d4", "example", _row_failures(JOIN_EXAMPLES_D4), "3 evaluations")


def check_complement_tables() -> list[CheckResult]:
    return [
        _result(f"complement-table-d{d}", "example", _row_failures(rows), f"{len(rows)} entries")
        for d, rows in ((2, COMPLEMENT_TABLE_D2), (3, COMPLEMENT_TABLE_D3))
    ]


def _anticommutator(f, g, x: Multivector) -> Multivector:
    return f(g(x)) + g(f(x))


def check_ladder_maps() -> CheckResult:
    failures = []
    d = 4
    emptied = multi_annihilate({1, 4}, Multivector.top(d))
    coeff = emptied.coeff((2, 3))
    if len(emptied) != 1 or abs(coeff) != 1.0:
        failures.append("annihilation string on the top blade")
    for mask in range(1 << d):
        indices = list(indices_from_mask(mask))
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
    failures = _row_failures(BASIS_PRODUCT_ROWS)
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
    return _result("one-hole-fill", "example", _row_failures(ONE_HOLE_FILL_ROWS), "all pairs d<=5")


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
