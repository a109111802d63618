"""Qubit-side view: the basis bijection and the transferred operations."""

from __future__ import annotations

import random
import re

import pytest

from excalc.errors import DimensionError, GradeError, IndexRangeError
from excalc.multivector import (
    Multivector,
    hodge,
    mv_equal_approx,
    scalar_product,
    vee,
    wedge,
)
from excalc.qubits import (
    QubitState,
    format_basis_state,
    n_inverse,
    n_map,
    parse_basis_state,
    q_star,
    q_vee,
    q_wedge,
    qubit_inner_product,
)
from excalc.verify import random_coeff

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


def ket(text):
    return QubitState.basis(parse_basis_state(text))


def random_state(rng, d, max_terms=4):
    return QubitState(d, {rng.randrange(1 << d): random_coeff(rng) for _ in range(max_terms)})


def test_basis_map_examples():
    assert n_map(QubitState.basis((1, 0, 1, 0))) == Multivector.from_indices(4, (1, 3))
    assert n_map(QubitState.basis((0, 0))) == Multivector.vacuum(2)
    assert n_map(QubitState.basis((1, 1))) == Multivector.top(2)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0, "1", None])
def test_a_bit_is_the_int_0_or_1(bit):
    with pytest.raises(ValueError, match="is not 0 or 1"):
        QubitState.basis([bit, 0])
    with pytest.raises(ValueError, match="is not 0 or 1"):
        n_map(QubitState.basis([0, bit]))
    with pytest.raises(ValueError, match="is not 0 or 1"):
        QubitState.zero(2).amplitude([bit, 1])


def test_superpositions_map_componentwise():
    a, b, c, d = (random_coeff(random.Random(i)) for i in range(4))
    state = QubitState(2, {0b00: a, 0b01: b, 0b10: c, 0b11: d})
    want = (
        a * Multivector.vacuum(2)
        + b * Multivector.from_indices(2, (1,))
        + c * Multivector.from_indices(2, (2,))
        + d * Multivector.top(2)
    )
    assert mv_equal_approx(n_map(state), want, 1e-12)


def test_zero_maps_to_zero():
    assert n_inverse(Multivector.zero(2)).is_zero()
    assert n_map(QubitState.zero(3)).is_zero()


@pytest.mark.parametrize("d", range(1, 11))
def test_round_trip_all_basis_states(d):
    for mask in range(1 << d):
        bits = tuple(mask >> i & 1 for i in range(d))
        state = QubitState.basis(bits)
        assert n_inverse(n_map(state)) == state


def test_commuting_square_with_the_algebra():
    rng = random.Random(301)
    for _ in range(150):
        d = rng.randint(1, 6)
        s1, s2 = random_state(rng, d), random_state(rng, d)
        assert mv_equal_approx(
            n_map(q_wedge(s1, s2)), wedge(n_map(s1), n_map(s2)), 1e-12
        )
        assert mv_equal_approx(n_map(q_vee(s1, s2)), vee(n_map(s1), n_map(s2)), 1e-12)
        assert mv_equal_approx(n_map(q_star(s1)), hodge(n_map(s1)), 1e-12)


def test_gate_table_d2():
    for s1, s2, want_wedge, want_vee in QUBIT_TABLE_D2:
        assert q_wedge(ket(s1), ket(s2)).to_text() == want_wedge
        assert q_vee(ket(s1), ket(s2)).to_text() == want_vee


def test_star_example():
    assert q_star(ket("10")) == ket("01")


def test_physically_impossible_cases():
    assert q_vee(ket("00"), ket("00")).is_zero()
    assert not q_wedge(ket("00"), ket("00")).is_zero()
    assert QubitState.zero(2).is_zero()


def test_inner_product_defined_where_the_algebra_refuses():
    # <10|11> is a fine qubit question; the grade-restricted product is not
    assert qubit_inner_product(ket("10"), ket("11")) == 0j
    with pytest.raises(GradeError):
        scalar_product(n_map(ket("10")), n_map(ket("11")))
    assert abs(qubit_inner_product(ket("10"), ket("10")) - 1.0) <= 1e-12


def test_inner_product_conjugates_the_left_state_whichever_is_shorter():
    assert qubit_inner_product(QubitState(2, {1: 1, 2: 2}), QubitState(2, {1: 3})) == 3
    long, short = QubitState(1, {0: 1, 1: 1}), QubitState(1, {1: 1j})
    assert qubit_inner_product(long, short) == 1j
    assert qubit_inner_product(short, long) == -1j


def test_qubit_state_is_never_equal_to_a_multivector():
    state, mv = QubitState(2, {1: 1}), Multivector(2, {1: 1})
    assert state != mv and mv != state
    assert state.__eq__(mv) is NotImplemented


def test_the_bijection_shares_the_terms_and_sets_the_class():
    state, mv = QubitState(2, {1: 1, 2: 0.5j}), Multivector(2, {1: 1, 2: 0.5j})
    assert type(n_map(state)) is Multivector and n_map(state)._terms is state._terms
    assert type(n_inverse(mv)) is QubitState and n_inverse(mv)._terms is mv._terms
    for gate in (q_wedge(state, state), q_vee(state, state), q_star(state)):
        assert type(gate) is QubitState


def test_a_set_keeps_a_state_and_a_multivector_with_equal_terms_apart():
    assert len({QubitState(2, {1: 1}), Multivector(2, {1: 1})}) == 2


def test_a_state_prints_as_kets():
    state = QubitState(2, {0b01: 1, 0b10: 2j})
    assert str(state) == state.to_text() == "|10> + 2i |01>"
    assert repr(state) == "QubitState(d=2, '|10> + 2i |01>')"


def test_multivector_operations_take_a_state_as_its_multivector():
    state = QubitState(2, {0b01: 1, 0b10: 2j})
    total = state + state
    assert type(total) is Multivector and total == n_map(state) + n_map(state)


def test_inner_product_of_disjoint_supports_is_complex_zero():
    for s1, s2 in (
        (ket("10"), ket("11")),
        (QubitState.zero(2), ket("00")),
        (QubitState.zero(2), QubitState.zero(2)),
    ):
        got = qubit_inner_product(s1, s2)
        assert type(got) is complex and got == 0


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        q_wedge(ket("10"), ket("100"))


def test_parse_and_format():
    assert parse_basis_state("|101>") == (1, 0, 1)
    assert parse_basis_state("101") == (1, 0, 1)
    assert parse_basis_state("|1,0,1⟩") == (1, 0, 1)
    assert format_basis_state((1, 0, 1)) == "|101>"
    with pytest.raises(ValueError):
        parse_basis_state("|10x>")


def test_json_round_trip():
    rng = random.Random(302)
    for _ in range(30):
        d = rng.randint(1, 6)
        state = random_state(rng, d)
        assert QubitState.from_json(state.to_json()) == state


def test_json_lists_the_amplitudes_in_the_order_the_text_prints_them():
    example = QubitState(3, {3: 1, 4: 2, 1: 3})
    assert example.to_text() == "3 |100> + 2 |001> + |110>"
    assert [a["bits"] for a in example.to_json()["amps"]] == ["100", "001", "110"]
    rng = random.Random(303)
    for _ in range(20):
        state = random_state(rng, 4, max_terms=10)
        # a ket with a complex amplitude prints twice, once per part
        kets = list(dict.fromkeys(re.findall(r"\|([01]+)>", state.to_text())))
        assert [a["bits"] for a in state.to_json()["amps"]] == kets


def test_text_form():
    assert QubitState.zero(2).to_text() == "0"
    assert ket("10").to_text() == "|10>"
    assert (q_wedge(ket("01"), ket("10"))).to_text() == "-|11>"


@pytest.mark.parametrize(
    "amps, text",
    [
        ({0b01: 1j}, "i |10>"),
        ({0b01: -1j}, "-i |10>"),
        ({0b01: 0.5j}, "0.5i |10>"),
        ({0b01: -2}, "-2 |10>"),
        ({0b01: 1j, 0b11: -0.5}, "i |10> - 0.5 |11>"),
        ({0b00: 1 + 1j}, "|00> + i |00>"),
        ({0b10: -1 - 0.5j, 0b00: -1}, "-|00> - |01> - 0.5i |01>"),
    ],
)
def test_text_form_signs_and_imaginary_units(amps, text):
    assert QubitState(2, amps).to_text() == text


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(0, float("-inf"))])
def test_non_finite_amplitudes_raise(bad):
    with pytest.raises(ValueError):
        QubitState(2, {0b01: bad, 0b10: 1})


def test_amplitude_with_overflowing_magnitude_raises():
    with pytest.raises(ValueError, match=r"on blade mask 0x2 has no finite magnitude"):
        QubitState(2, {0b01: 1, 0b10: 1.5e308 - 1.5e308j})


def test_mask_outside_the_qubits_raises():
    with pytest.raises(IndexRangeError):
        QubitState(2, {0b100: 1})


def test_amplitude_wants_one_bit_per_qubit():
    state = QubitState(2, {0b11: 1})
    assert state.amplitude((1, 1)) == 1
    assert state.amplitude((1, 0)) == 0
    for bits in [(1, 1, 0), (1, 1, 1), (1,), ()]:
        with pytest.raises(DimensionError):
            state.amplitude(bits)
