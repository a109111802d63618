"""Value semantics of the library's records.

The expression tokens and tree nodes, `Environment`, `SubsetState`,
`ExtensorFactors`, `Split` and `CheckResult`: equal fields give equal
objects with equal hashes and equal reprs, an object never equals one of
another class, copies and pickles come back equal, and the immutable ones
refuse assignment.  The four state classes, `Multivector`, `QubitState`,
`SubsetState` and `ExtensorFactors`, copy and pickle through their
constructors, and each constructor checks its arguments and returns
`cls._build`, made by `_Record`; `_result` prunes and then builds.
"""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from excalc import boolean_gates, extensors, qubits
from excalc.boolean_gates import SubsetState, all_subsets, subset
from excalc.expr import (
    Add,
    Blade,
    Conj,
    Environment,
    InnerProduct,
    ScalarLit,
    ScalarMul,
    Star,
    Token,
    TopBlade,
    Var,
    Vee,
    Wedge,
    parse_text,
    tokenize,
)
from excalc.extensors import ExtensorFactors, Split, enumerate_splits
from excalc.multivector import Multivector, _Record
from excalc.qubits import QubitState
from excalc.verify import CheckResult


def e(i: int) -> Blade:
    return Blade((i,))


def f(*indices: int) -> ExtensorFactors:
    return ExtensorFactors.from_indices(3, indices)


# (build, a build with one field or the class changed); build() twice gives equal objects
VALUES = {
    "Token": (
        lambda: Token("basis", "e1", 1, 4, index=(1,)),
        lambda: Token("basis", "e1", 1, 4, index=(2,)),
    ),
    "Blade": (lambda: Blade((1, 2)), lambda: Blade((2, 1))),
    "TopBlade": (TopBlade, lambda: ScalarLit(1 + 0j)),
    "ScalarLit": (lambda: ScalarLit(2j), lambda: ScalarLit(3j)),
    "Var": (lambda: Var("x"), lambda: Var("y")),
    "Wedge": (lambda: Wedge((e(1), e(2))), lambda: Wedge((e(2), e(1)))),
    "Vee": (lambda: Vee((e(1), e(2))), lambda: Wedge((e(1), e(2)))),
    "Star": (lambda: Star(e(1)), lambda: Conj(e(1))),
    "Conj": (lambda: Conj(e(1)), lambda: Conj(e(2))),
    "Add": (lambda: Add(((1, e(1)), (-1, e(2)))), lambda: Add(((1, e(1)), (1, e(2))))),
    "ScalarMul": (lambda: ScalarMul(2j, e(1)), lambda: ScalarMul(2j, TopBlade())),
    "InnerProduct": (lambda: InnerProduct(e(1), e(2)), lambda: InnerProduct(e(2), e(1))),
    "SubsetState": (lambda: SubsetState(3, 0b101), lambda: SubsetState(3, 0b110)),
    "ExtensorFactors": (lambda: f(1, 2), lambda: f(2, 1)),
    "Split": (lambda: Split(1, f(1), f(2, 3)), lambda: Split(-1, f(1), f(2, 3))),
    "CheckResult": (
        lambda: CheckResult("rows", "table", True),
        lambda: CheckResult("rows", "table", True, "detail"),
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_fields_give_equal_objects_and_hashes(name):
    build, other = VALUES[name]
    a, b, c = build(), build(), other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    assert a != c
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


STATES = {
    "Multivector": Multivector(2, {1: 1, 3: -0.0 - 2j}),
    "QubitState": QubitState(2, {1: 1}),
    "SubsetState": SubsetState(3, 0b101),
    "ExtensorFactors": ExtensorFactors(2, ((1, 2j), (0, -0.0))),
}


@pytest.mark.parametrize("value", STATES.values(), ids=STATES.keys())
def test_copies_and_pickles_of_the_state_classes_come_back_equal(value):
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
    with pytest.raises(AttributeError):
        value.d = 3


@pytest.mark.parametrize("value", STATES.values(), ids=STATES.keys())
def test_state_classes_build_in_one_place(value):
    # the constructor is a __new__ that returns the trusted build; no class
    # sets its fields in an __init__ or guards them itself
    cls = type(value)
    assert cls.__init__ is object.__init__
    assert cls.__setattr__ is _Record.__setattr__
    # _Record makes each class's build from its two fields
    d, field = (getattr(value, f) for f in cls.__match_args__)
    built = cls._build(d, field)
    assert type(built) is cls and built == value
    assert getattr(built, cls.__match_args__[1]) is field
    assert SubsetState._build is not QubitState._build
    for module in (extensors, boolean_gates, qubits):
        source = inspect.getsource(module)
        assert "object.__new__" not in source and ".__set__" not in source


def test_built_and_parsed_values_agree():
    assert parse_text("e1 ^ e2 - 2 * E") == Add(
        ((1, Wedge((e(1), e(2)))), (-1, ScalarMul(2 + 0j, TopBlade())))
    )
    assert parse_text("ip(x, *~e3) v e1") == parse_text("ip( x , * ~ e3 )v e1")
    assert repr(e(1)) == "Blade(indices=(1,))"
    assert tokenize("e1")[0] == Token("basis", "e1", 1, 1, index=(1,))
    assert tokenize("e1^e3")[0] == Token("basis", "e1^e3", 1, 1, index=(1, 3))
    # the trusted builds of the library equal the checked constructors
    assert subset(3, (3, 1)) == SubsetState(3, 0b101)
    assert all_subsets(2) == [SubsetState(2, m) for m in (0, 1, 2, 3)]
    assert enumerate_splits(f(1, 2), 1)[0] == Split(1, f(1), f(2))


def test_environment_compares_its_fields_and_is_not_hashable():
    bound = Environment(3)
    bound.bind("x", Multivector(3, {1: 1}))
    assert Environment(3) == Environment(3) != bound
    with pytest.raises(TypeError):  # bindings enter only through bind
        Environment(3, {"x": Multivector(2, {1: 1})})
    assert Environment(3) != Environment(4)
    assert copy.deepcopy(Environment(3)) == Environment(3)
    with pytest.raises(TypeError):
        hash(Environment(3))


@pytest.mark.parametrize(
    "value, field",
    [
        (Token("end", "", 1, 1), "kind"),
        (SubsetState(3, 1), "mask"),
        (f(1), "factors"),
        (Split(1, f(1), f()), "sign"),
        (Multivector(2, {1: 1}), "d"),
        (QubitState(2, {1: 1}), "_terms"),
    ],
    ids=["Token", "SubsetState", "ExtensorFactors", "Split", "Multivector", "QubitState"],
)
def test_immutable_values_refuse_assignment(value, field):
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == before
