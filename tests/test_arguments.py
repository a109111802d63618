"""One argument vocabulary, checked across the public API.

`ROWS` maps every public function, class and argument-taking public method
of the core modules to the kind of each argument.  Each kind lists hostile
values, each with the one error its checker raises.  A call with a hostile
value must raise exactly that error: never a raw TypeError, IndexError or
AttributeError, and never a result that reads the value as a valid one.  A
public name with no row fails the test.

Out of scope: an argument of the wrong Python class (an int passed to
`wedge`, a non-iterable passed as a vector list); those fail loudly, and no
CLI input reaches them.
"""

from __future__ import annotations

import inspect
import math
from collections import OrderedDict
from types import MappingProxyType

import pytest

from excalc import boolean_gates, dense, extensors, fock, multivector, qubits, tables, textform
from excalc.boolean_gates import SubsetState, subset
from excalc.errors import DimensionError, GradeError, IndexRangeError, SchemaError
from excalc.extensors import ExtensorFactors
from excalc.multivector import MAX_DIM, Multivector, basis_vector
from excalc.qubits import QubitState

MODULES = (multivector, dense, extensors, qubits, boolean_gates, fock, tables)
# operators taking an argument; the other dunders are object protocol
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__xor__")

D = 3
NAN, INF = math.nan, math.inf

X = Multivector(D, {0: 1, 0b011: 2j, 0b111: -1})
V = basis_vector(D, 1) + 2 * basis_vector(D, 2)
S = subset(D, (1, 2))
Q = QubitState(D, {0b101: 1, 0b011: 0.5j})
F = ExtensorFactors.from_indices(D, (1, 2, 3))
G = ExtensorFactors.from_indices(D, (2,))
E = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def elsewhere(x):
    """An operand of x's type in another dimension."""
    if isinstance(x, Multivector):
        return basis_vector(D + 1, 1)
    if isinstance(x, SubsetState):
        return subset(D + 1, (1,))
    if isinstance(x, QubitState):
        return QubitState(D + 1, {1: 1})
    # no factors: a join or triple product with it is otherwise defined
    return ExtensorFactors(D + 1, ())


# an int past the interpreter's 4300-digit limit on decimal conversion,
# which an error message must quote without converting it whole
HUGE = 10**5000


def dims():
    return [True, False, 1.0, 3.0, NAN, INF, -INF, 0, -1, MAX_DIM + 1, "3"]


def ints(top):
    """Hostile values of a kind whose valid values are the ints 0..top."""
    return [True, False, 1.0, NAN, INF, -INF, -1, top + 1, 10**200, HUGE, -HUGE, "1", None]


def coeffs():
    return [
        True, False, NAN, INF, -INF, complex(NAN, 0), complex(0, INF), 10**400, HUGE, "1", b"1",
        None, [1],
    ]


def bits():
    return [2, -1, HUGE, True, False, 1.0, NAN, "1", None]


def vectors():
    wrong_length = [((1,) * (D - 1), DimensionError), ((1,) * (D + 1), DimensionError)]
    return wrong_length + [((c,) + (0,) * (D - 1), ValueError) for c in coeffs()]


def json_parts(layout):
    """Serialized forms whose re or im part is not an int or a float, or
    not a finite one."""
    return [(layout(re, 0), SchemaError) for re in (True, "1", None, [1])] + [
        (layout(0, im), SchemaError) for im in (False, "0", None)
    ] + [(layout(x, y), ValueError) for x, y in ((NAN, 0), (10**400, 0), (0, 10**400))]


# kind -> function of the row's argument -> [(hostile value, the error it raises)]
KINDS = {
    # an operand of one space; the wrong Python class is out of scope
    "operand": lambda x: [],
    # an operand that must share the first operand's dimension
    "same": lambda x: [(elsewhere(x), DimensionError)],
    "dim": lambda x: [(v, DimensionError) for v in dims() + [None, HUGE]],
    "index": lambda x: [(v, IndexRangeError) for v in ints(D) + [0]],
    # after a valid index, so a set of indices cannot merge True or 1.0 into 1
    "indices": lambda x: [((1, v), IndexRangeError) for v in ints(D) + [0]],
    "step": lambda top: [(v, GradeError) for v in ints(top)],
    "mask": lambda d: [(v, IndexRangeError) for v in ints((1 << d) - 1)],
    "coeff": lambda x: [(v, ValueError) for v in coeffs()],
    "terms": lambda x: [({m: 1}, IndexRangeError) for m in ints((1 << D) - 1)]
    + [({1: c}, ValueError) for c in coeffs()],
    "vector": lambda x: vectors(),
    "vectors": lambda x: [([v], error) for v, error in vectors()],
    "columns": lambda x: [([v] + E[1:], error) for v, error in vectors()]
    + [(E[:2], DimensionError)],
    "factors": lambda x: [((v,), error) for v, error in vectors()]
    + [(tuple(E) + (E[0],), GradeError)],
    "tol": lambda x: [(v, ValueError) for v in (True, NAN, -1.0, -INF, "x", None, 1j)],
    "signed_terms": lambda x: [
        ([(s, V)], ValueError) for s in (True, False, 0, 2, HUGE, 1.0, -1.0, "1", None)
    ] + [([(1, elsewhere(V))], DimensionError)],
    "bits": lambda x: [((b,), ValueError) for b in bits()],
    # the bits of a basis state of the operand's dimension
    "ket": lambda x: [((1,) * (D - 1), DimensionError), ((0,) * (D + 1), DimensionError)]
    + [((b,) + (0,) * (D - 1), ValueError) for b in bits()],
    "text": lambda x: [(t, ValueError) for t in ("", "2", "|1x>", "1 0", "|>", "⟩")],
    "choice": lambda x: [(v, ValueError) for v in ("bogus", "", None, True, 1)],
    "mv_json": lambda x: [
        (None, SchemaError),
        ([], SchemaError),
        ({"dim": D}, SchemaError),
        ({"dim": HUGE}, SchemaError),
        (OrderedDict(dim=HUGE), SchemaError),
        ({"dim": True, "terms": []}, DimensionError),
        ({"dim": D, "terms": [{"blade": [True], "re": 1, "im": 0}]}, IndexRangeError),
    ] + json_parts(lambda re, im: {"dim": D, "terms": [{"blade": [1], "re": re, "im": im}]}),
    "qubit_json": lambda x: [
        (None, SchemaError),
        ({"d": D}, SchemaError),
        ({"d": HUGE}, SchemaError),
        (MappingProxyType({"d": HUGE}), SchemaError),
        ({"d": D, "amps": [{"bits": 101, "re": 1, "im": 0}]}, SchemaError),
        ({"d": True, "amps": []}, DimensionError),
        ({"d": D, "amps": [{"bits": "10", "re": 1, "im": 0}]}, DimensionError),
        ({"d": HUGE, "amps": [{"bits": "10", "re": 1, "im": 0}]}, DimensionError),
        ({"d": D, "amps": [{"bits": "1x1", "re": 1, "im": 0}]}, ValueError),
    ] + json_parts(lambda re, im: {"d": D, "amps": [{"bits": "101", "re": re, "im": im}]}),
    "factors_json": lambda x: [
        (None, SchemaError),
        ({"dim": D}, SchemaError),
        ({"dim": HUGE}, SchemaError),
        ((HUGE,), SchemaError),
        ({"dim": True, "factors": []}, DimensionError),
        ({"dim": D, "factors": [[{"re": 1, "im": 0}]]}, DimensionError),
    ] + json_parts(
        lambda re, im: {"dim": D, "factors": [[{"re": re, "im": im}] + [{"re": 0, "im": 0}] * 2]}
    ),
}


def trusted(why: str):
    return ("trusted", why)


# name -> (callable, valid arguments, one kind per argument).  A kind is a
# KINDS key, or (key, parameter) for "step" and "mask"; None marks the space
# or label a checker is given by its caller, already checked there.
ROWS = {
    "multivector.check_dim": (multivector.check_dim, (D,), ("dim",)),
    "multivector.check_index": (multivector.check_index, (D, 2), (None, "index")),
    "multivector.check_step": (multivector.check_step, (1, D, "step"), (("step", D), None, None)),
    "multivector.check_mask": (multivector.check_mask, (D, 5), (None, ("mask", D))),
    "multivector.check_coeff": (multivector.check_coeff, (1.5,), ("coeff",)),
    "multivector.check_same_dim": (multivector.check_same_dim, (X, V), ("operand", "same")),
    "multivector.mask_from_indices": (multivector.mask_from_indices, (D, (1, 3)), ("dim", "indices")),
    "multivector.indices_from_mask": (multivector.indices_from_mask, (5,), (("mask", MAX_DIM),)),
    "multivector.merge_sign": trusted("the sign of every pair in the dict kernels"),
    "multivector.star_sign": trusted(
        "the star sign of every blade in hodge, hodge_inverse and dense._star_signs"
    ),
    "multivector.Multivector": (Multivector, (D, {1: 1}), ("dim", "terms")),
    "multivector.Multivector.zero": (Multivector.zero, (D,), ("dim",)),
    "multivector.Multivector.scalar": (Multivector.scalar, (D, 2.5), ("dim", "coeff")),
    "multivector.Multivector.vacuum": (Multivector.vacuum, (D,), ("dim",)),
    "multivector.Multivector.top": (Multivector.top, (D,), ("dim",)),
    "multivector.Multivector.from_indices": (
        Multivector.from_indices, (D, (2, 1), 0.5j), ("dim", "indices", "coeff"),
    ),
    "multivector.Multivector.coeff": (Multivector.coeff, (X, (1, 2)), ("operand", "indices")),
    "multivector.Multivector.coeff_mask": (Multivector.coeff_mask, (X, 3), ("operand", ("mask", D))),
    "multivector.Multivector.from_json": (Multivector.from_json, (X.to_json(),), ("mv_json",)),
    "multivector.Multivector.__add__": (Multivector.__add__, (X, V), ("operand", "same")),
    "multivector.Multivector.__sub__": (Multivector.__sub__, (X, V), ("operand", "same")),
    "multivector.Multivector.__mul__": (Multivector.__mul__, (X, 2), ("operand", "coeff")),
    "multivector.Multivector.__rmul__": (Multivector.__rmul__, (X, 1j), ("operand", "coeff")),
    "multivector.Multivector.__xor__": (Multivector.__xor__, (X, V), ("operand", "same")),
    "multivector.combine": (multivector.combine, (X, [(1, V), (-1, X)]), ("operand", "signed_terms")),
    "multivector.basis_vector": (multivector.basis_vector, (D, 2), ("dim", "index")),
    "multivector.all_blades": (multivector.all_blades, (D,), ("dim",)),
    "multivector.wedge": (multivector.wedge, (X, V), ("operand", "same")),
    "multivector.vee": (multivector.vee, (X, V), ("operand", "same")),
    "multivector.hodge": (multivector.hodge, (X,), ("operand",)),
    "multivector.hodge_inverse": (multivector.hodge_inverse, (X,), ("operand",)),
    "multivector.conjugate": (multivector.conjugate, (X,), ("operand",)),
    "multivector.step_of": (multivector.step_of, (X,), ("operand",)),
    "multivector.grade_project": (multivector.grade_project, (X, 2), ("operand", ("step", D))),
    "multivector.parity_sector": (multivector.parity_sector, (X,), ("operand",)),
    "multivector.covector": (multivector.covector, (D, 1), ("dim", "index")),
    "multivector.scalar_product": (multivector.scalar_product, (V, V), ("operand", "same")),
    "multivector.mv_equal_approx": (
        multivector.mv_equal_approx, (X, V, 0.5), ("operand", "same", "tol"),
    ),
    "dense.wedge": (dense.wedge, (X, V), ("operand", "same")),
    "dense.vee": (dense.vee, (X, V), ("operand", "same")),
    "extensors.make_vector": (extensors.make_vector, (D, (1, 2.5, 1j)), ("dim", "vector")),
    "extensors.ExtensorFactors": (ExtensorFactors, (D, (E[0], (1, 1, 0))), ("dim", "factors")),
    "extensors.ExtensorFactors.from_indices": (
        ExtensorFactors.from_indices, (D, (3, 1)), ("dim", "indices"),
    ),
    "extensors.ExtensorFactors.from_json": (
        ExtensorFactors.from_json, (F.to_json(),), ("factors_json",),
    ),
    "extensors.Split": trusted("a record of two factor lists that enumerate_splits has checked"),
    "extensors.det_columns": (extensors.det_columns, (E,), ("columns",)),
    "extensors.expand": (extensors.expand, (F,), ("operand",)),
    "extensors.enumerate_splits": (extensors.enumerate_splits, (F, 1), ("operand", ("step", D))),
    "extensors.join_by_splits": (
        extensors.join_by_splits, (F, G, "first"), ("operand", "same", "choice"),
    ),
    "extensors.triple_det": (
        extensors.triple_det,
        tuple(ExtensorFactors.from_indices(D, (i,)) for i in (2, 1, 3)),
        ("operand", "same", "same"),
    ),
    # no vectors, so only the dimension's own check sees a bad one
    "extensors.intersection_dim": (extensors.intersection_dim, (D, [], []), ("dim", "vectors", "vectors")),
    "extensors.span_covers": (extensors.span_covers, (D, [], []), ("dim", "vectors", "vectors")),
    "extensors.is_decomposable": (extensors.is_decomposable, (V,), ("operand",)),
    "qubits.bits_to_mask": (qubits.bits_to_mask, ((1, 0, 1),), ("bits",)),
    "qubits.mask_to_bits": trusted("the bits of every stored mask in QubitState.to_text and to_json"),
    "qubits.parse_basis_state": (qubits.parse_basis_state, ("|1,0,1>",), ("text",)),
    "qubits.format_basis_state": (qubits.format_basis_state, ((1, 0, 1),), ("bits",)),
    "qubits.QubitState": (QubitState, (D, {5: 1}), ("dim", "terms")),
    "qubits.QubitState.basis": (QubitState.basis, ((0, 1, 1),), ("bits",)),
    "qubits.QubitState.amplitude": (QubitState.amplitude, (Q, (1, 0, 1)), ("operand", "ket")),
    "qubits.QubitState.from_json": (QubitState.from_json, (Q.to_json(),), ("qubit_json",)),
    "qubits.n_map": (qubits.n_map, (Q,), ("operand",)),
    "qubits.n_inverse": (qubits.n_inverse, (X,), ("operand",)),
    "qubits.q_wedge": (qubits.q_wedge, (Q, Q), ("operand", "same")),
    "qubits.q_vee": (qubits.q_vee, (Q, Q), ("operand", "same")),
    "qubits.q_star": (qubits.q_star, (Q,), ("operand",)),
    "qubits.qubit_inner_product": (qubits.qubit_inner_product, (Q, Q), ("operand", "same")),
    "boolean_gates.SubsetState": (SubsetState, (D, 6), ("dim", ("mask", D))),
    "boolean_gates.subset": (subset, (D, (3, 1, 3)), ("dim", "indices")),
    "boolean_gates.all_subsets": (boolean_gates.all_subsets, (D,), ("dim",)),
    "boolean_gates.m_map": (boolean_gates.m_map, (S,), ("operand",)),
    "boolean_gates.m_inverse": (boolean_gates.m_inverse, (X,), ("operand",)),
    "boolean_gates.pseudo_wedge": (boolean_gates.pseudo_wedge, (S, S), ("operand", "same")),
    "boolean_gates.pseudo_vee": (boolean_gates.pseudo_vee, (S, S), ("operand", "same")),
    "boolean_gates.bool_or": (boolean_gates.bool_or, (S, S), ("operand", "same")),
    "boolean_gates.bool_and": (boolean_gates.bool_and, (S, S), ("operand", "same")),
    "boolean_gates.bool_not": (boolean_gates.bool_not, (S,), ("operand",)),
    "fock.apply_creation": (fock.apply_creation, (3, X), ("index", "operand")),
    "fock.apply_annihilation": (fock.apply_annihilation, (1, X), ("index", "operand")),
    "fock.multi_create": (fock.multi_create, ((3, 1), X), ("indices", "operand")),
    "fock.multi_annihilate": (fock.multi_annihilate, ((1, 2), X), ("indices", "operand")),
    "fock.operator_matrix": (fock.operator_matrix, (D, "create", 2), ("dim", "choice", "index")),
    "tables.table_rows": (tables.table_rows, ("q-vee", D), ("choice", "dim")),
    "tables.table_command": (tables.table_command, ("vee", D, "csv"), ("choice", "dim", "choice")),
}


def public_names() -> set[str]:
    """Every public function and class of MODULES, and every public method
    or operator of those classes that takes an argument."""
    names = set()
    for module in MODULES:
        prefix = module.__name__.rsplit(".", 1)[1]
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            names.add(f"{prefix}.{name}")
            if not isinstance(obj, type):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                fn = getattr(member, "__func__", member)  # classmethods
                if inspect.isfunction(fn) and len(inspect.signature(fn).parameters) > 1:
                    names.add(f"{prefix}.{name}.{attr}")
    return names


def test_every_public_name_has_a_row():
    assert not public_names() - ROWS.keys(), "add a row to ROWS"
    assert not ROWS.keys() - public_names(), "a row names no public name"


# hostile calls at an edge that no kind's values reach
EDGES = {
    # zero columns: a 0 x 0 determinant, in a dimension outside 1..MAX_DIM
    "extensors.det_columns": [(([],), DimensionError)],
}


def hostile_calls(name: str):
    """(arguments, the error they raise) for each hostile value of each argument."""
    fn, args, kinds = ROWS[name]
    assert len(args) == len(kinds), name
    for pos, kind in enumerate(kinds):
        if kind is None:
            continue
        key, param = kind if isinstance(kind, tuple) else (kind, args[pos])
        for value, error in KINDS[key](param):
            yield args[:pos] + (value,) + args[pos + 1:], error
    yield from EDGES.get(name, ())


CHECKED = sorted(name for name, row in ROWS.items() if row[0] != "trusted")


@pytest.mark.parametrize("name", CHECKED)
def test_hostile_arguments_raise_their_kinds_error(name):
    fn, args, _ = ROWS[name]
    fn(*args)  # the row's own arguments are valid
    for hostile, error in hostile_calls(name):
        try:
            where = f"{name}{hostile!r}"[:200]
        except ValueError:  # repr of HUGE, past the limit on decimal conversion
            where = f"{name} with a 5001-digit int"
        try:
            fn(*hostile)
        except error:
            continue
        except Exception as err:
            pytest.fail(f"{where} raised {type(err).__name__}: {err}, not {error.__name__}")
        pytest.fail(f"{where} gave a result, not {error.__name__}")


def test_trusted_rows_say_why():
    for name, row in ROWS.items():
        if row[0] == "trusted":
            assert row[1], name


def test_each_kind_has_a_row():
    used = {k[0] if isinstance(k, tuple) else k for row in ROWS.values() if row[0] != "trusted"
            for k in row[2] if k is not None}
    assert used == KINDS.keys()


@pytest.mark.parametrize("d", dims(), ids=repr)
def test_the_inherited_zero_state_checks_its_dimension(d):
    # QubitState.zero is Multivector.zero, whose row checks the "dim" kind
    with pytest.raises(DimensionError):
        QubitState.zero(d)


# a call on a long string argument -> the error it raises, which quotes at
# most 80 characters of the argument and then `...`
LONG = "x" * 10**6
LONG_ARGUMENTS = {
    "qubits.parse_basis_state": lambda: qubits.parse_basis_state("2" * 10**6),
    "qubits.QubitState.from_json": lambda: QubitState.from_json(
        {"d": 2, "amps": [{"bits": "2" * 10**6, "re": 1, "im": 0}]}
    ),
    "tables.table_rows": lambda: tables.table_rows(LONG, D),
    "tables.table_command-op": lambda: tables.table_command(LONG, D),
    "tables.table_command-format": lambda: tables.table_command("vee", D, LONG),
    "textform.format_result": lambda: textform.format_result(X, LONG),
    "extensors.join_by_splits": lambda: extensors.join_by_splits(F, G, LONG),
    "fock.operator_matrix": lambda: fock.operator_matrix(D, LONG, 2),
}


@pytest.mark.parametrize("name", LONG_ARGUMENTS)
def test_a_long_argument_is_quoted_cut_at_80_characters(name):
    with pytest.raises(ValueError) as err:
        LONG_ARGUMENTS[name]()
    message = str(err.value)
    assert len(message) <= 120 and message.endswith("...")
