"""Seeded inputs and reference outputs for the four workloads.

A workload is a cycle of call types; each type has a few seeded variants, and
round k of the closed loop runs variant k mod len(variants) of every type.  A
call spec is plain JSON: the measured process gets the inputs and the expected
outputs, never the generator or the reference.  The seed changes operand
values, expression contents and option choices, never the mix of call types
or their shapes, so every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import comb

import numpy as np

import reference as R
from outputs import blade_text
from spec import FORMATS, SPARSE_BATCH, TABLE_OPS

COEFFS = ("", "2", "3", "0.5", "1.5", "0.25", "i", "2i", "0.5i")
HOSTILE = (
    "(" * 3000 + "e1" + ")" * 3000,
    "+".join(["e1"] * 5000),
    "*" * 5000 + "e1",
)
# cli-oneshot round: 14 valid evals, 1 typed error, 1 table, 1 fock,
# 2 verify-paper, 1 hostile.  Two verify-paper calls (not one) put p90 in the
# middle of the verify-paper times instead of on the edge between two groups.
CLI_ROUND = ("eval",) * 14 + ("eval-error", "table", "fock", "verify", "verify", "hostile")
CLI_VARIANTS = 5
DENSE_VARIANTS = 2
LONG_VARIANTS = 3


def _coeff_value(text: str) -> complex:
    if text == "":
        return 1.0
    if text.endswith("i"):
        return 1j * (float(text[:-1]) if len(text) > 1 else 1.0)
    return float(text)


def _complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _terms_json(rng: random.Random, masks) -> list[list[float]]:
    out = []
    for m in masks:
        c = _complex(rng)
        out.append([m, c.real, c.imag])
    return out


def _as_terms(spec_terms) -> tuple:
    return R.terms((m, complex(re_, im_)) for m, re_, im_ in spec_terms)


def _factors(rng: random.Random, d: int, k: int) -> np.ndarray:
    return np.array([[_complex(rng) for _ in range(d)] for _ in range(k)])


def _factors_json(f: np.ndarray) -> list:
    return [[[c.real, c.imag] for c in row] for row in f]


# ---- expression trees: ("t", coeff, mask) | ("star", x) | ("w", l, r) |
# ("v", l, r) | ("sum", [(sign, x), ...]) | ("var", name) ----------------------


def render(node, d: int) -> str:
    kind = node[0]
    if kind == "t":
        blade = blade_text(d, node[2])
        return f"{node[1]} * {blade}" if node[1] else blade
    if kind == "var":
        return node[1]
    if kind == "star":
        return f"*({render(node[1], d)})"
    if kind in ("w", "v"):
        op = "^" if kind == "w" else "v"
        return f"{_operand(node[1], d, kind, True)} {op} {_operand(node[2], d, kind, False)}"
    out = ""
    for i, (sign, x) in enumerate(node[1]):
        out += ("-" if sign < 0 else "") if i == 0 else (" - " if sign < 0 else " + ")
        out += render(x, d)
    return out


def _operand(x, d: int, parent: str, left: bool) -> str:
    bare = x[0] in ("t", "star", "var") or (parent == "v" and left and x[0] == "w")
    return render(x, d) if bare else f"({render(x, d)})"


def ref_eval(node, d: int, env: dict) -> tuple:
    kind = node[0]
    if kind == "t":
        return R.blade(node[2], _coeff_value(node[1]))
    if kind == "var":
        return env[node[1]]
    if kind == "star":
        return R.star(ref_eval(node[1], d, env), d)
    if kind in ("w", "v"):
        op = R.wedge if kind == "w" else R.vee
        return op(ref_eval(node[1], d, env), ref_eval(node[2], d, env), d)
    total = R.terms([])
    for sign, x in node[1]:
        total = R.add(total, R.scale(ref_eval(x, d, env), sign))
    return total


def _term(rng: random.Random, d: int, grade: int | None = None):
    """A scaled blade; of the given grade, else of any."""
    coeff = rng.choice(COEFFS)
    if grade is None:
        return ("t", coeff, rng.randrange(1 << d))
    return ("t", coeff, sum(1 << i for i in rng.sample(range(d), grade)))


def _flat_sum(rng: random.Random, d: int, n: int, grade: int | None = None):
    return ("sum", [(rng.choice((1, -1)), _term(rng, d, grade)) for _ in range(n)])


# ---- cli-oneshot -------------------------------------------------------------


def _eval_call(rng: random.Random) -> dict:
    d = rng.randint(2, 8)
    fmt = rng.choice(FORMATS)
    argv = ["eval", "--dim", str(d), "--format", fmt]
    env = {}
    names = []
    if rng.random() < 0.25:
        k = rng.randint(1, d - 1)
        f = _factors(rng, d, k)
        data = {"dim": d, "factors": [[{"re": c.real, "im": c.imag} for c in row] for row in f]}
        argv += ["--factors", "F=" + json.dumps(data)]
        env["F"] = R.expand(f, d)
        names.append("F")
    items = []
    for _ in range(rng.randint(1, 30)):
        roll = rng.random()
        if names and roll < 0.05:
            x = ("var", "F")
        elif roll < 0.6:
            x = _term(rng, d)
        elif roll < 0.75:
            x = ("star", _term(rng, d))
        elif roll < 0.9:
            x = ("w", _term(rng, d), _term(rng, d))
        else:
            x = ("v", _term(rng, d), _term(rng, d))
        items.append((rng.choice((1, -1)), x))
    tree = ("sum", items)
    expect = {"exit": 0, "fmt": fmt, "d": d, "terms": R.to_json(ref_eval(tree, d, env))}
    return {"type": "cli", "label": f"eval.{fmt}", "argv": argv + ["--", render(tree, d)], "expect": expect}


def _eval_error_call(rng: random.Random, variant: int) -> dict:
    d = rng.randint(2, 8)
    left = render(_term(rng, d), d)
    if variant % 2:
        return {"type": "cli", "label": "eval.error-syntax",
                "argv": ["eval", "--dim", str(d), "--", f"{left} + $e1"], "expect": {"exit": 2}}
    return {"type": "cli", "label": "eval.error-range",
            "argv": ["eval", "--dim", str(d), "--", f"{left} ^ e9"], "expect": {"exit": 1}}


def _hostile_call(variant: int) -> dict:
    d = 3
    source = HOSTILE[variant % 3]
    if variant % 3 == 0:
        value = R.blade(1)
    elif variant % 3 == 1:
        value = R.blade(1, 5000.0)
    else:
        value = R.blade(1)
        for _ in range(5000):
            value = R.star(value, d)
    return {"type": "cli", "label": f"hostile.{variant % 3}",
            "argv": ["eval", "--dim", str(d), "--", source],
            "expect": {"hostile": True, "d": d, "terms": R.to_json(value)}}


def _table_call(op: str, d: int, fmt: str, kind: str) -> dict:
    argv = ["table", "--op", op, "--dim", str(d), "--format", fmt]
    return {"type": kind, "label": f"table.{op}.{fmt}", "argv": argv,
            "expect": {"exit": 0, "fmt": fmt, "table": f"{op}.d{d}"}}


def _fock_call(kind: str, d: int, i: int, fmt: str, call_type: str) -> dict:
    argv = ["fock", "--matrix", f"{kind}:{i}", "--dim", str(d), "--format", fmt]
    return {"type": call_type, "label": f"fock.{kind}.{fmt}", "argv": argv,
            "expect": {"exit": 0, "fmt": fmt, "ladder": R.ladder_entries(d, kind, i)}}


def _verify_call(call_type: str) -> dict:
    return {"type": call_type, "label": "verify-paper", "argv": ["verify-paper"],
            "expect": {"exit": 0, "verify": 12}}


def cli_oneshot(seed: int) -> dict:
    rng = random.Random(f"cli-oneshot:{seed}")
    cycle = []
    for slot, kind in enumerate(CLI_ROUND):
        variants = []
        for v in range(CLI_VARIANTS):
            if kind == "eval":
                variants.append(_eval_call(rng))
            elif kind == "eval-error":
                variants.append(_eval_error_call(rng, v + slot))
            elif kind == "table":
                variants.append(_table_call(rng.choice(TABLE_OPS), 3, rng.choice(FORMATS), "cli"))
            elif kind == "fock":
                variants.append(_fock_call(rng.choice(("create", "annihilate")), 3,
                                           rng.randint(1, 3), rng.choice(("text", "json")), "cli"))
            elif kind == "verify":
                variants.append(_verify_call("cli"))
            else:
                variants.append(_hostile_call(v))
        cycle.append(variants)
    rng.shuffle(cycle)
    return {"cycle": cycle, "tables": tables_for(3, TABLE_OPS)}


# ---- dense-kernels -----------------------------------------------------------


def _dense_call(rng: random.Random, op: str, d: int) -> dict:
    a = _terms_json(rng, range(1 << d))
    spec = {"type": "dense", "label": f"{op}.d{d}", "op": op, "d": d, "a": a}
    if op == "hodge":
        spec["expect"] = R.to_json(R.star(_as_terms(a), d))
        return spec
    b = _terms_json(rng, range(1 << d))
    ref = R.wedge if op == "wedge" else R.vee
    spec["b"] = b
    spec["expect"] = R.to_json(ref(_as_terms(a), _as_terms(b), d))
    return spec


def _expand_call(rng: random.Random, d: int, k: int) -> dict:
    f = _factors(rng, d, k)
    return {"type": "dense", "label": f"expand.d{d}k{k}", "op": "expand", "d": d,
            "a": _factors_json(f), "expect": R.to_json(R.expand(f, d))}


def _join_call(rng: random.Random, variant: str) -> dict:
    d, k, l = 10, 6, 6
    fa, fb = _factors(rng, d, k), _factors(rng, d, l)
    expect = R.vee(R.expand(fa, d), R.expand(fb, d), d)
    return {"type": "dense", "label": f"join_by_splits.{variant}", "op": "join",
            "variant": variant, "d": d, "a": _factors_json(fa), "b": _factors_json(fb),
            "expect": R.to_json(expect)}


def _decomposable_call(rng: random.Random) -> dict:
    d, k = 10, 4
    a = R.expand(_factors(rng, d, k), d)
    return {"type": "dense", "label": "is_decomposable", "op": "decomposable", "d": d,
            "a": R.to_json(a), "expect": bool(R.is_decomposable(a, d, k))}


def _triple_call(rng: random.Random) -> dict:
    d = 8
    fs = [_factors(rng, d, k) for k in (2, 3, 3)]
    det = R.det_columns(np.concatenate(fs))
    return {"type": "dense", "label": "triple_det", "op": "triple", "d": d,
            "a": _factors_json(fs[0]), "b": _factors_json(fs[1]), "c": _factors_json(fs[2]),
            "expect": [det.real, det.imag]}


def dense_kernels(seed: int) -> dict:
    rng = random.Random(f"dense-kernels:{seed}")
    makers = [
        *(lambda op=op, d=d: _dense_call(rng, op, d)
          for op in ("wedge", "vee", "hodge") for d in (8, 10)),
        lambda: _expand_call(rng, 10, 5),
        lambda: _expand_call(rng, 12, 6),
        lambda: _join_call(rng, "first"),
        lambda: _join_call(rng, "second"),
        lambda: _decomposable_call(rng),
        lambda: _triple_call(rng),
    ]
    return {"cycle": [[make() for _ in range(DENSE_VARIANTS)] for make in makers], "tables": {}}


# ---- sparse-tables -----------------------------------------------------------


def subset_text(mask: int) -> str:
    return "{" + ",".join(str(i) for i in R.indices(mask)) + "}"


def ket_text(d: int, mask: int) -> str:
    return "|" + "".join(str(mask >> p & 1) for p in range(d)) + ">"


def _signed(c: complex, text: str) -> str:
    if abs(abs(c) - 1.0) > 1e-12 or c.imag:
        raise ValueError(f"basis product with coefficient {c!r}")
    return ("-" if c.real < 0 else "") + text


def tables_for(d: int, ops) -> dict:
    """Expected [a, b, cell] rows of each table op, in the reference's rendering."""
    order = R.canonical_order(d)
    pairs = list(product(order, order))
    results = {
        name: [[(int(m), c) for m, c in zip(*ref(R.blade(a), R.blade(b), d)) if c != 0]
               for a, b in pairs]
        for name, ref in (("wedge", R.wedge), ("vee", R.vee))
    }
    labels = {"": lambda m: blade_text(d, m), "pseudo": subset_text, "q": lambda m: ket_text(d, m)}
    out = {}
    for op in ops:
        family, _, base = op.rpartition("-")
        label = labels[family]
        rows = []
        for (a, b), result in zip(pairs, results[base]):
            if family == "pseudo":
                # defined only where the product is a plain +1 blade
                cell = label(result[0][0]) if result and result[0][1] == 1 else ""
            else:
                cell = _signed(result[0][1], label(result[0][0])) if result else "0"
            rows.append([label(a), label(b), cell])
        out[f"{op}.d{d}"] = rows
    return out


def _batch_call(rng: random.Random, op: str, d: int) -> dict:
    operands, expect = [], []
    arity = 1 if op == "hodge" else 2
    ref = {"wedge": R.wedge, "vee": R.vee, "hodge": R.star}[op]
    for _ in range(SPARSE_BATCH):
        xs = [_terms_json(rng, rng.sample(range(1 << d), 4)) for _ in range(arity)]
        operands.append(xs)
        expect.append(R.to_json(ref(*(_as_terms(x) for x in xs), d)))
    return {"type": "batch", "label": f"sparse.{op}.d{d}", "op": op, "d": d,
            "operands": operands, "expect": expect}


def sparse_tables(seed: int) -> dict:
    rng = random.Random(f"sparse-tables:{seed}")
    cycle = [_table_call(op, 6, fmt, "main") for op in TABLE_OPS for fmt in FORMATS]
    cycle.append(_verify_call("main"))
    for kind in ("create", "annihilate"):
        for fmt in ("text", "json"):
            cycle.append(_fock_call(kind, 8, rng.randint(1, 8), fmt, "main"))
    for d in (6, 16):
        for op in ("wedge", "vee", "hodge"):
            cycle.append(_batch_call(rng, op, d))
    return {"cycle": [[c] for c in cycle], "tables": tables_for(6, TABLE_OPS)}


# ---- long-expressions --------------------------------------------------------

FLAT_SUMS = (50, 150, 350, 600)  # terms, at d=12
# (d, terms in each of the three sums).  The sums hold blades of grade d//4,
# so the size of (S1 ^ S2), and with it the cost of the vee, varies little
# from seed to seed.
PRODUCTS = ((8, 10), (10, 25), (12, 40))


def _expr_call(tree, d: int, fmt: str, label: str) -> dict:
    return {"type": "expr", "label": f"{label}.{fmt}", "d": d, "fmt": fmt,
            "source": render(tree, d), "expect": R.to_json(ref_eval(tree, d, {}))}


def long_expressions(seed: int) -> dict:
    rng = random.Random(f"long-expressions:{seed}")
    cycle = []
    for fmt in FORMATS:
        for n in FLAT_SUMS:
            cycle.append([_expr_call(_flat_sum(rng, 12, n), 12, fmt, f"sum{n}")
                          for _ in range(LONG_VARIANTS)])
        for d, n in PRODUCTS:
            variants = []
            for _ in range(LONG_VARIANTS):
                s1, s2, s3 = (_flat_sum(rng, d, n, d // 4) for _ in range(3))
                tree = ("v", ("w", s1, s2), ("star", s3))
                variants.append(_expr_call(tree, d, fmt, f"product.d{d}n{n}"))
            cycle.append(variants)
    return {"cycle": cycle, "tables": {}}


GENERATORS = {
    "cli-oneshot": cli_oneshot,
    "dense-kernels": dense_kernels,
    "sparse-tables": sparse_tables,
    "long-expressions": long_expressions,
}

# The traced run's sweep visits one variant of every call type of every
# workload; of cli-oneshot only these, since each is a whole process.
CLI_SWEEP = ("eval.text", "eval.json", "table", "fock", "verify-paper", "hostile")


def sweep_calls(seed: int, built: dict) -> tuple[list[dict], dict]:
    """One call of each type across all workloads, plus the tables they need."""
    sweep, tables = [], {}
    for name, generate in GENERATORS.items():
        job = built.get(name) or generate(seed)
        tables.update(job["tables"])
        if name == "cli-oneshot":
            picked = {}
            for call in (v for variants in job["cycle"] for v in variants):
                prefix = next((p for p in CLI_SWEEP if call["label"].startswith(p)), None)
                picked.setdefault(prefix, call)
            sweep += [picked[p] for p in CLI_SWEEP if p in picked]
        else:
            sweep += [variants[0] for variants in job["cycle"]]
    return sweep, tables


def computed_counts(sweep: list[dict]) -> dict[str, float]:
    """Counts derived from operand sizes alone, not observed in the program."""
    pairs = useful = minors = 0
    for p in sweep:
        if p["type"] == "dense" and p["op"] == "wedge":
            a = np.array([t[0] for t in p["a"]])
            b = np.array([t[0] for t in p["b"]])
            pairs += len(a) * len(b)
            useful += int(((a[:, None] & b[None, :]) == 0).sum())
        elif p["type"] == "dense" and p["op"] == "expand":
            minors += comb(p["d"], len(p["a"]))
    return {
        "multivector.wedge.pairs": pairs,
        "multivector.wedge.useful_ratio": useful / pairs,
        "extensors.expand.minors": minors,
    }
