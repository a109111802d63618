"""Built-in verification of the bundled reference tables and identities.

Each check replays frozen reference data (the d=2 product tables, the partial
set-gate domains, the qubit gate table, the complement tables) or a batch of
randomized identity trials, and reports pass/fail.  The suite is what the
`verify-paper` CLI subcommand runs; it exists so a build can prove in one
command that every published value it claims to reproduce still comes out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .boolean_gates import domain_d1, domain_d2, pseudo_vee, pseudo_wedge, subset
from .errors import GradeError
from .extensors import ExtensorFactors, expand, join_by_splits, triple_det
from .fock import multi_annihilate, multi_create, operator_matrix
from .multivector import (
    PRUNE_TOL,
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


# ---- randomized value helpers ----------------------------------------------------


def _random_mv(rng: random.Random, d: int, max_terms: int = 4) -> Multivector:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mask = rng.randrange(1 << d)
        terms[mask] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return Multivector(d, terms)


def _random_homogeneous(rng: random.Random, d: int, k: int, max_terms: int = 3) -> Multivector:
    masks = [m for m in range(1 << d) if m.bit_count() == k]
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(masks)] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return Multivector(d, terms)


def _random_factors(rng: random.Random, d: int, k: int) -> ExtensorFactors:
    return ExtensorFactors(
        d,
        tuple(
            tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d))
            for _ in range(k)
        ),
    )


# ---- table checks -----------------------------------------------------------------


def check_identity_relations(tol: float, trials: int, rng: random.Random) -> CheckResult:
    failures: list[str] = []

    def expect(cond: bool, label: str):
        if not cond:
            failures.append(label)

    for _ in range(trials):
        d = rng.randint(2, 6)
        one = Multivector.vacuum(d)
        top = Multivector.top(d)
        a = _random_mv(rng, d)
        b = _random_mv(rng, d)
        c = _random_mv(rng, d)

        expect(mv_equal_approx(wedge(a, one), a, tol), f"a^1 != a (d={d})")
        expect(mv_equal_approx(vee(a, top), a, tol), f"a v E != a (d={d})")
        expect(
            mv_equal_approx(wedge(wedge(a, b), c), wedge(a, wedge(b, c)), 1e-10),
            f"wedge associativity (d={d})",
        )
        expect(
            mv_equal_approx(vee(vee(a, b), c), vee(a, vee(b, c)), 1e-10),
            f"vee associativity (d={d})",
        )
        expect(
            mv_equal_approx(hodge(vee(a, b)), wedge(hodge(a), hodge(b)), 1e-10),
            f"star of vee (d={d})",
        )
        expect(
            mv_equal_approx(hodge(wedge(a, b)), vee(hodge(a), hodge(b)), 1e-10),
            f"star of wedge (d={d})",
        )
        expect(mv_equal_approx(hodge_inverse(hodge(a)), a, 1e-10), f"star inverse (d={d})")

        k = rng.randint(0, d)
        l = rng.randint(0, d)
        ha = _random_homogeneous(rng, d, k)
        hb = _random_homogeneous(rng, d, l)
        sign_w = -1 if (k * l) & 1 else 1
        sign_v = -1 if ((d - k) * (d - l)) & 1 else 1
        expect(
            mv_equal_approx(wedge(ha, hb), sign_w * wedge(hb, ha), 1e-10),
            f"wedge antisymmetry (d={d},k={k},l={l})",
        )
        expect(
            mv_equal_approx(vee(ha, hb), sign_v * vee(hb, ha), 1e-10),
            f"vee antisymmetry (d={d},k={k},l={l})",
        )
        ss = -1 if (k * (d - k)) & 1 else 1
        expect(
            mv_equal_approx(hodge(hodge(ha)), ss * ha, 1e-10),
            f"double star sign (d={d},k={k})",
        )

        mask = rng.randrange(1, 1 << d)
        blade = Multivector(d, {mask: 1.0})
        step = mask.bit_count()
        expect(wedge(blade, top).is_zero(), "blade^E != 0")
        expect(wedge(blade, blade).is_zero() or step == 0, "blade^blade != 0")
        if step <= d - 1:
            expect(vee(blade, one).is_zero(), "blade v 1 != 0")
            expect(vee(blade, blade).is_zero(), "blade v blade != 0")
        # exclusion corollary: a shared fermion (join of positive step) forbids
        # the meet; complementary blades are the one case where both survive
        other_mask = rng.randrange(1 << d)
        other = Multivector(d, {other_mask: 1.0})
        if not vee(blade, other).is_zero():
            if step + other_mask.bit_count() > d:
                expect(wedge(blade, other).is_zero(), "vee nonzero but wedge nonzero")
            else:
                expect(other_mask == ((1 << d) - 1) ^ mask, "unexpected surviving join")

        # join of the complementary one-hole states recovers the occupied block
        # up to the (-1)^{k(d-k)} double-star sign
        kk = rng.randint(1, d - 1)
        block = Multivector.from_indices(d, range(1, kk + 1))
        joined = covector(d, kk + 1)
        for idx in range(kk + 2, d + 1):
            joined = vee(joined, covector(d, idx))
        sign = -1 if (kk * (d - kk)) & 1 else 1
        expect(
            mv_equal_approx(joined, sign * block, 1e-10),
            f"covector join sign (d={d},k={kk})",
        )
        expect(
            mv_equal_approx(
                wedge(basis_vector(d, 1), covector(d, 1)), top, 1e-10
            )
            and wedge(basis_vector(d, 2), covector(d, 1)).is_zero(),
            "one-hole fill rule",
        )

        # the one-hole states joined over every index collapse to the vacuum
        chain = covector(d, 1)
        for idx in range(2, d + 1):
            chain = vee(chain, covector(d, idx))
        expect(mv_equal_approx(chain, one, 1e-10), f"full covector join != 1 (d={d})")

        steps = [1, rng.randint(0, d - 2)]
        steps.append(d - sum(steps))
        if min(steps) >= 0:
            fa, fb, fc = (_random_factors(rng, d, s) for s in steps)
            t1, t2, t3 = triple_det(fa, fb, fc)
            expect(
                abs(t1 - t3) <= 1e-9 and abs(t2 - t3) <= 1e-9,
                f"triple determinant routes disagree (d={d},steps={steps})",
            )

        expect(mv_equal_approx(wedge(one, one), one, tol), "1^1 != 1")
        expect(vee(one, one).is_zero(), "1 v 1 != 0")
        expect(wedge(top, top).is_zero(), "E^E != 0")
        expect(mv_equal_approx(vee(top, top), top, tol), "E v E != E")

    return _result("identity-relations", "table", failures, f"{trials} randomized trials")


def check_meet_join_table(tol: float) -> CheckResult:
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


def check_partial_gate_table(tol: float) -> CheckResult:
    failures = []
    d1 = domain_d1(2)
    d2 = domain_d2(2)
    if d1 != DOMAIN_D1_REFERENCE:
        failures.append(f"wedge domain mismatch: {sorted(map(sorted, d1 - DOMAIN_D1_REFERENCE))}")
    if d2 != DOMAIN_D2_REFERENCE:
        failures.append("vee domain mismatch")
    for members1, members2 in DOMAIN_D1_REFERENCE:
        got = pseudo_wedge(subset(2, members1), subset(2, members2), tol)
        if got is None or got.members != members1 | members2:
            failures.append(f"pseudo-wedge {set(members1)},{set(members2)}")
    for members1, members2 in DOMAIN_D2_REFERENCE:
        got = pseudo_vee(subset(2, members1), subset(2, members2), tol)
        if got is None or got.members != members1 & members2:
            failures.append(f"pseudo-vee {set(members1)},{set(members2)}")
    return _result("partial-set-gate-table-d2", "table", failures, "2x8 domain pairs")


def check_qubit_gate_table(tol: float) -> CheckResult:
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


def check_superposition_meet(tol: float, rng: random.Random) -> CheckResult:
    failures = []
    for _ in range(25):
        alpha, beta, gamma, delta = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        x = ExtensorFactors(3, ((alpha, beta, 0), (0, gamma, delta)))
        got = wedge(expand(x), basis_vector(3, 1))
        want = beta * delta * Multivector.top(3)
        if not mv_equal_approx(got, want, 1e-10):
            failures.append(f"coefficients {alpha:.3f},{beta:.3f},{gamma:.3f},{delta:.3f}")
    return _result("superposition-meet-d3", "example", failures, "25 random coefficient draws")


def check_superposition_join(tol: float, rng: random.Random) -> CheckResult:
    failures = []
    z = ExtensorFactors.from_indices(3, (1, 2))
    for _ in range(25):
        alpha, beta, gamma, delta = (
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4)
        )
        x = ExtensorFactors(3, ((alpha, beta, 0), (0, gamma, delta)))
        want = -alpha * delta * basis_vector(3, 1) - beta * delta * basis_vector(3, 2)
        for variant in ("first", "second"):
            if not mv_equal_approx(join_by_splits(x, z, variant), want, 1e-10):
                failures.append(f"split variant {variant}")
        if not mv_equal_approx(vee(expand(x), expand(z)), want, 1e-10):
            failures.append("duality route")
    return _result(
        "superposition-join-d3", "example", failures, "25 random coefficient draws, 3 routes"
    )


def check_join_examples_d4(tol: float) -> CheckResult:
    e12 = Multivector.from_indices(4, (1, 2))
    e3 = basis_vector(4, 3)
    e34 = Multivector.from_indices(4, (3, 4))
    e341 = wedge(e34, basis_vector(4, 1))
    failures = []
    if not vee(e12, e3).is_zero():
        failures.append("step-short join not zero")
    if not mv_equal_approx(vee(e12, e34), Multivector.vacuum(4), tol):
        failures.append("complementary join not the vacuum")
    if not mv_equal_approx(vee(e12, e341), basis_vector(4, 1), tol):
        failures.append("overlap join wrong")
    return _result("join-examples-d4", "example", failures, "3 evaluations")


def _check_complement_table(d: int, entries, tol: float) -> list[str]:
    failures = []
    for indices, (sign, comp) in entries.items():
        got = hodge(Multivector.from_indices(d, indices))
        want = sign * Multivector.from_indices(d, comp)
        if not mv_equal_approx(got, want, tol):
            failures.append(f"star of {indices} in d={d}")
    return failures


def check_complement_tables(tol: float) -> list[CheckResult]:
    f2 = _check_complement_table(2, COMPLEMENT_ENTRIES_D2, tol)
    f3 = _check_complement_table(3, COMPLEMENT_ENTRIES_D3, tol)
    return [
        _result("complement-table-d2", "example", f2, "4 entries"),
        _result("complement-table-d3", "example", f3, "8 entries"),
    ]


def check_ladder_maps(tol: float) -> CheckResult:
    failures = []
    d = 4
    created = multi_create({1, 4}, Multivector.vacuum(d))
    if not mv_equal_approx(created, Multivector.from_indices(d, (1, 4)), tol):
        failures.append("creation string on the vacuum")
    emptied = multi_annihilate({1, 4}, Multivector.top(d))
    coeff = emptied.coeff((2, 3))
    if len(emptied) != 1 or abs(abs(coeff) - 1.0) > tol:
        failures.append("annihilation string on the top blade")
    for masks in range(1 << d):
        indices = [i + 1 for i in range(d) if masks >> i & 1]
        got = multi_create(indices, Multivector.vacuum(d))
        if not mv_equal_approx(got, Multivector.from_indices(d, indices), tol):
            failures.append(f"creation string for {indices}")
            break
    identity = np.eye(1 << d)
    for j in range(1, d + 1):
        for k in range(1, d + 1):
            aj = operator_matrix(d, "annihilate", j)
            ak = operator_matrix(d, "annihilate", k)
            cj = operator_matrix(d, "create", j)
            ck = operator_matrix(d, "create", k)
            delta = identity if j == k else 0.0
            if np.max(np.abs(aj @ ck + ck @ aj - delta)) > tol:
                failures.append(f"mixed anticommutator ({j},{k})")
            if np.max(np.abs(aj @ ak + ak @ aj)) > tol or np.max(
                np.abs(cj @ ck + ck @ cj)
            ) > tol:
                failures.append(f"like anticommutator ({j},{k})")
    return _result("ladder-vacuum-maps", "example", failures, "strings and anticommutators at d=4")


def check_vector_orthonormality(tol: float, rng: random.Random) -> CheckResult:
    failures = []
    for d in (2, 3, 4):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                got = scalar_product(basis_vector(d, i), basis_vector(d, j))
                want = 1.0 if i == j else 0.0
                if abs(got - want) > tol:
                    failures.append(f"(e{i},e{j}) d={d}")
    d = 4
    for _ in range(20):
        avec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        bvec = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(d)]
        a = sum((c * basis_vector(d, i + 1) for i, c in enumerate(avec)), Multivector.zero(d))
        b = sum((c * basis_vector(d, i + 1) for i, c in enumerate(bvec)), Multivector.zero(d))
        want = sum(x.conjugate() * y for x, y in zip(avec, bvec))
        if abs(scalar_product(a, b) - want) > 1e-10:
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


def check_one_hole_fill(tol: float) -> CheckResult:
    failures = []
    for d in range(2, 6):
        top = Multivector.top(d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                got = wedge(basis_vector(d, i), covector(d, j))
                want = top if i == j else Multivector.zero(d)
                if not mv_equal_approx(got, want, tol):
                    failures.append(f"e{i}^cov{j} d={d}")
    return _result("one-hole-fill", "example", failures, "all pairs d<=5")


# ---- driver -------------------------------------------------------------------------


def run_verification(
    tol: float = PRUNE_TOL, trials: int = 150, seed: int = DEFAULT_SEED
) -> list[CheckResult]:
    rng = random.Random(seed)
    results = [
        check_identity_relations(tol, trials, rng),
        check_meet_join_table(tol),
        check_partial_gate_table(tol),
        check_qubit_gate_table(tol),
        check_superposition_meet(tol, rng),
        check_superposition_join(tol, rng),
        check_join_examples_d4(tol),
        *check_complement_tables(tol),
        check_ladder_maps(tol),
        check_vector_orthonormality(tol, rng),
        check_one_hole_fill(tol),
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
