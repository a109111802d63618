"""Metric names, units and directions, and which end-to-end metric each layer
metric should move.  BENCHMARK.json at the repository root lists the same
names; test_perfbench.py keeps the two in step.
"""

from __future__ import annotations

WORKLOADS = ("cli-oneshot", "dense-kernels", "sparse-tables", "long-expressions")
SPARSE_BATCH = 1000  # sparse products in one sparse-tables batch call

# name -> (unit, better)
END_TO_END = {
    "call_ms.p50": ("ms", "lower"),
    "call_ms.p90": ("ms", "lower"),
    "calls_per_s": ("1/s", "higher"),
    "pass_ratio": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

TABLE_OPS = ("wedge", "vee", "pseudo-wedge", "pseudo-vee", "q-wedge", "q-vee")
FORMATS = ("text", "json", "csv")
VERIFY_CHECKS = (
    "identity_relations",
    "meet_join_table",
    "partial_gate_table",
    "qubit_gate_table",
    "superposition_meet",
    "superposition_join",
    "join_examples_d4",
    "complement_tables",
    "ladder_maps",
    "vector_orthonormality",
    "one_hole_fill",
)

_CLI_P50 = "moves call_ms.p50 on cli-oneshot and setup_s on the in-process workloads"
_DENSE = "moves calls_per_s on dense-kernels"
_SPARSE = "moves call_ms.p50 on sparse-tables"
_LONG = "moves call_ms.p50 on long-expressions"
_RENDER = "moves call_ms.p50 on long-expressions and sparse-tables"
_HOLD = "must leave call_ms.p50 on sparse-tables where it is"

# name -> (unit, better, how it is obtained, the end-to-end metric it should
# move).  "span": median self time of the spans of that name;
# "derived": arithmetic on spans; "counted": counted at the layer boundary in
# one sweep; "computed": computed from operand sizes, not observed.
PER_LAYER = {
    "cli.interpreter_ms": ("ms", "lower", "span", _CLI_P50),
    "cli.import_numpy_ms": ("ms", "lower", "span", _CLI_P50),
    "cli.import_excalc_ms": ("ms", "lower", "span", _CLI_P50),
    "cli.main_ms": ("ms", "lower", "span", _CLI_P50),
    "cli.teardown_ms": ("ms", "lower", "span", _CLI_P50),
    "multivector.wedge_ms.d8": ("ms", "lower", "span", _DENSE),
    "multivector.wedge_ms.d10": ("ms", "lower", "span", _DENSE),
    "multivector.vee_ms.d8": ("ms", "lower", "span", _DENSE),
    "multivector.vee_ms.d10": ("ms", "lower", "span", _DENSE),
    "multivector.hodge_ms.d10": ("ms", "lower", "span", _DENSE),
    "multivector.sparse_us.d6": ("us", "lower", "derived", _HOLD),
    "multivector.sparse_us.d16": ("us", "lower", "derived", _HOLD),
    "multivector.wedge.pairs": ("count", "lower", "computed", _DENSE),
    "multivector.wedge.useful_ratio": ("ratio", "higher", "computed", _DENSE),
    "extensors.expand_ms.d10k5": ("ms", "lower", "span", _DENSE),
    "extensors.expand_ms.d12k6": ("ms", "lower", "span", _DENSE),
    "extensors.expand.minors": ("count", "lower", "computed", _DENSE),
    "extensors.join_by_splits_ms": ("ms", "lower", "span", _DENSE),
    "extensors.is_decomposable_ms": ("ms", "lower", "span", _DENSE),
    "extensors.triple_det_ms": ("ms", "lower", "span", _DENSE),
    "expr.tokenize_ms": ("ms", "lower", "span", _LONG),
    "expr.parse_ms": ("ms", "lower", "span", _LONG),
    "expr.evaluate_ms": ("ms", "lower", "span", _LONG),
    "expr.tokens": ("count", "lower", "counted", _LONG),
    "expr.nodes": ("count", "lower", "counted", _LONG),
    "textform.to_text_ms": ("ms", "lower", "span", _RENDER),
    "cli.format_result_ms.json": ("ms", "lower", "span", _RENDER),
    "cli.format_result_ms.csv": ("ms", "lower", "span", _RENDER),
    "render.bytes": ("count", "lower", "counted", _RENDER),
    **{f"tables.table_rows_ms.{op}": ("ms", "lower", "span", _SPARSE) for op in TABLE_OPS},
    **{f"tables.render_ms.{fmt}": ("ms", "lower", "span", _SPARSE) for fmt in FORMATS},
    "tables.rows": ("count", "higher", "counted", _SPARSE),
    "fock.operator_matrix_ms.d8": ("ms", "lower", "span", "moves calls_per_s on sparse-tables"),
    **{f"verify.{c}_ms": ("ms", "lower", "span", "moves call_ms.p90 on sparse-tables") for c in VERIFY_CHECKS},
    "trace.overhead_ratio": ("ratio", "lower", "derived", "traced over untraced call time; moves nothing"),
}
