"""Checks of the benchmark's own pieces: the numpy reference, the output
parsers, the metric list and the repeatability of inputs and counts.

    python3 -m pytest perfbench -q
"""

import json
import os

import numpy as np

import reference as R
from outputs import parse_csv, parse_json, parse_text, same_terms
from spec import END_TO_END, PER_LAYER
from workloads import GENERATORS, computed_counts, long_expressions, sweep_calls, tables_for

HERE = os.path.dirname(os.path.abspath(__file__))


def as_dict(terms):
    return {int(m): complex(c) for m, c in zip(*terms) if c != 0}


def test_reference_matches_readme_values():
    e1, e2, top = R.blade(0b01), R.blade(0b10), R.blade(0b11)
    assert as_dict(R.wedge(e2, e1, 2)) == {0b11: -1}  # e2 ^ e1 = -E
    assert as_dict(R.star(e2, 2)) == {0b01: -1}  # *e2 = -e1
    assert as_dict(R.vee(e2, top, 2)) == {0b10: 1}  # e2 v E = e2
    assert as_dict(R.vee(e1, e2, 2)) == {0: 1}  # e1 v e2 = 1


def test_reference_star_inverse_and_determinant():
    rng = np.random.default_rng(3)
    d = 5
    a = (np.arange(1 << d), rng.normal(size=1 << d) + 1j * rng.normal(size=1 << d))
    back = R.star_inverse(R.star(a, d), d)
    assert np.allclose(back[1], a[1]) and (back[0] == a[0]).all()
    factors = rng.normal(size=(d, d)) + 0j
    masks, minors = R.expand(factors, d)
    assert masks.tolist() == [(1 << d) - 1]
    assert np.isclose(minors[0], R.det_columns(factors))


def test_parsers_agree_on_one_value():
    d = 3
    want = [[0, 2.0, 0.0], [0b011, 0.0, -1.0], [0b111, -0.5, 1.5]]
    text = "2 - i * e1^e2 - 0.5 * E + 1.5i * E"
    doc = {"dim": 3, "terms": [{"blade": [], "re": 2.0, "im": 0.0},
                               {"blade": [1, 2], "re": 0.0, "im": -1.0},
                               {"blade": [1, 2, 3], "re": -0.5, "im": 1.5}]}
    csv_text = "blade,re,im\n1,2.0,0.0\ne1^e2,0.0,-1.0\ne1^e2^e3,-0.5,1.5"
    for got in (parse_text(d, text), parse_json(d, json.dumps(doc)), parse_csv(d, csv_text)):
        assert same_terms(got, want)
    assert not same_terms(parse_text(d, "e1"), [[1, -1.0, 0.0]])


def test_reference_tables_match_paper_d2_rows():
    rows = {tuple(r[:2]): r[2] for r in tables_for(2, ("wedge", "vee", "q-vee"))["wedge.d2"]}
    assert rows[("e2", "e1")] == "-E" and rows[("e1", "e2")] == "E" and rows[("E", "e1")] == "0"
    q = {tuple(r[:2]): r[2] for r in tables_for(2, ("q-vee",))["q-vee.d2"]}
    assert q[("|01>", "|10>")] == "-|00>"


def test_benchmark_json_lists_the_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert {w["name"] for w in bench["workloads"]} == set(GENERATORS)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in PER_LAYER.items()
    }


def test_same_seed_gives_same_inputs_and_counts():
    first, second = long_expressions(7), long_expressions(7)
    assert json.dumps(first) == json.dumps(second)
    assert json.dumps(long_expressions(8)) != json.dumps(first)
    sweep, _ = sweep_calls(7, {})
    again, _ = sweep_calls(7, {})
    assert computed_counts(sweep) == computed_counts(again)
    assert computed_counts(sweep)["extensors.expand.minors"] == 252 + 924
