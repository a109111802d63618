"""The measured process: one fresh interpreter per workload run.

Reads a job (call specs with expected outputs) as JSON on stdin, times the
set-up, runs the closed loop or the traced sweep, checks every output outside
the timed region, and writes one JSON result line to stdout.  Start it from
the checkout root with `src` on PYTHONPATH; run.py does that.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from outputs import PARSERS, check_cli, same_number, same_terms
from spans import Tracer
from spec import PER_LAYER, SPARSE_BATCH, VERIFY_CHECKS

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
MIN_CALLS = 100
SETUP_SAMPLES = 9
CALL_TIMEOUT_S = 60
# Spans that tile a traced CLI call from spawn to reap, in order.
CLI_LAYERS = ("cli.interpreter_ms", "cli.import_numpy_ms", "cli.import_excalc_ms",
              "cli.main_ms", "cli.teardown_ms")
# Reported times are calibrated: a fixed probe runs after every call, and each
# call's time is scaled by NOMINAL / (median time of the probes nearest it).
# On a shared host the speed of Python code and of process start swings by
# 20-80% within seconds with other tenants' load; the ratio of a call to its
# probe moves by a few percent.  Process-level times use a bare interpreter
# start as the probe, in-process calls use calibration_kernel().  The nominal
# values are the probes' times on an idle core of an Intel Xeon host with
# 2 vCPUs.
BARE_START_S = 0.039
KERNEL_S = 0.00027
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import excalc.cli; "
    "print(time.perf_counter() - t)"
)


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "excalc.cli", *argv]


def run_process(command: list[str]) -> tuple[int, str, str]:
    proc = subprocess.run(command, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


# ---- set-up -----------------------------------------------------------------


def bare_start() -> float:
    """Wall seconds of `python -c pass`: the probe for process-level times."""
    t0 = time.perf_counter()
    run_process([sys.executable, "-c", "pass"])
    return time.perf_counter() - t0


def calibration_kernel() -> dict:
    """Fixed dict-and-complex loop shaped like the sparse products; never edit."""
    out = {}
    for s in range(64):
        for t in range(64):
            if s & t:
                continue
            u = s | t
            out[u] = out.get(u, 0j) + (s * 0.5 + 1j) * (t - 0.25j)
    return out


def kernel_time() -> float:
    """Seconds of one calibration_kernel(): the probe for in-process calls."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def setup_seconds(in_process: bool) -> tuple[float, float]:
    """Median set-up time, raw and calibrated, over SETUP_SAMPLES fresh processes.

    cli-oneshot: the wall time of a whole warm-up CLI call, none of them
    timed as a call.  In-process workloads: `import excalc.cli` in a fresh
    interpreter, timed inside it.
    """
    samples, probes = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        if in_process:
            code, out, err = run_process([sys.executable, "-c", SETUP_PROBE])
        else:
            code, out, err = run_process(cli_command(["eval", "--dim", "2", "e1 ^ e2"]))
        wall = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up process failed: {err}")
        samples.append(float(out) if in_process else wall)
        probes.append(bare_start())
    raw = statistics.median(samples)
    return raw, raw * BARE_START_S / statistics.median(probes)


# ---- program-side operands ---------------------------------------------------


def prepare(spec: dict):
    """Build the program's own objects for a call, outside any timing."""
    from excalc.extensors import ExtensorFactors
    from excalc.multivector import Multivector

    def mv(d, terms):
        return Multivector(d, {m: complex(re_, im_) for m, re_, im_ in terms})

    def factors(d, rows):
        return ExtensorFactors(d, tuple(tuple(complex(*c) for c in row) for row in rows))

    kind = spec["type"]
    if kind == "dense":
        d, op = spec["d"], spec["op"]
        if op in ("wedge", "vee"):
            return mv(d, spec["a"]), mv(d, spec["b"])
        if op in ("hodge", "decomposable"):
            return (mv(d, spec["a"]),)
        if op == "expand":
            return (factors(d, spec["a"]),)
        if op == "join":
            return factors(d, spec["a"]), factors(d, spec["b"])
        return tuple(factors(d, spec[k]) for k in "abc")
    if kind == "batch":
        return [tuple(mv(spec["d"], x) for x in xs) for xs in spec["operands"]]
    return None


def _kernel(spec: dict):
    from excalc import extensors, multivector

    op = spec["op"]
    if op == "join":
        return lambda a, b: extensors.join_by_splits(a, b, spec["variant"])
    return {
        "wedge": multivector.wedge,
        "vee": multivector.vee,
        "hodge": multivector.hodge,
        "expand": extensors.expand,
        "decomposable": extensors.is_decomposable,
        "triple": extensors.triple_det,
    }[op]


def _dense_span(spec: dict) -> str:
    op, d = spec["op"], spec["d"]
    if op in ("wedge", "vee", "hodge"):
        return f"multivector.{op}_ms.d{d}"
    if op == "expand":
        return f"extensors.expand_ms.d{d}k{len(spec['a'])}"
    return {
        "join": "extensors.join_by_splits_ms",
        "decomposable": "extensors.is_decomposable_ms",
        "triple": "extensors.triple_det_ms",
    }[op]


# ---- one call: untraced, traced, checked ---------------------------------------


def call_main(argv: list[str]) -> tuple[int, str, str]:
    from excalc import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_untraced(spec: dict, prepared):
    kind = spec["type"]
    if kind == "cli":
        return run_process(cli_command(spec["argv"]))
    if kind == "main":
        return call_main(spec["argv"])
    if kind == "dense":
        return _kernel(spec)(*prepared)
    if kind == "batch":
        op = _kernel(spec)
        return [op(*xs) for xs in prepared]
    from excalc.cli import format_result
    from excalc.expr import Environment, evaluate_text

    return format_result(evaluate_text(spec["source"], Environment(spec["d"])), spec["fmt"])


def run_traced(spec: dict, prepared, tracer: Tracer):
    kind = spec["type"]
    if kind == "cli":
        return _traced_cli(spec, tracer)
    with tracer.span("call"):
        if kind == "main":
            with instrumented(tracer):
                return call_main(spec["argv"])
        if kind == "dense":
            with tracer.span(_dense_span(spec)):
                return _kernel(spec)(*prepared)
        if kind == "batch":
            op = _kernel(spec)
            with tracer.span(f"multivector.sparse.d{spec['d']}"):
                return [op(*xs) for xs in prepared]
        return _traced_expr(spec, tracer)


def _traced_cli(spec: dict, tracer: Tracer):
    read_end, write_end = os.pipe()
    t0 = time.monotonic_ns()
    try:
        proc = subprocess.Popen(
            [sys.executable, TRACED_CLI, str(write_end), *spec["argv"]],
            pass_fds=(write_end,), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        with os.fdopen(read_end, "rb") as f:
            stamps = [int(x) for x in f.read().split()]
    t1 = time.monotonic_ns()
    root = tracer.add("cli.call", t0, t1)
    edges = [t0, *stamps, t1]
    for name, start, end in zip(CLI_LAYERS[: len(stamps)] + CLI_LAYERS[-1:], edges, edges[1:]):
        tracer.add(name, start, end, parent=root)
    return proc.returncode, out, err


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Wrap the public functions `cli.main` reaches, so each call is a span.

    `table_command` calls `table_rows`, so the self time of the span around
    `table_command`, named `tables.render_ms.<fmt>`, is the rendering alone.
    """
    from excalc import cli, tables, verify

    def wrap(fn, name_of, count=None):
        def traced(*args, **kwargs):
            with tracer.span(name_of(*args, **kwargs)):
                out = fn(*args, **kwargs)
            if count:
                tracer.count(*count(out))
            return out
        return traced

    patches = [
        (tables, "table_rows", lambda op, *a, **k: f"tables.table_rows_ms.{op}",
         lambda rows: ("tables.rows", len(rows))),
        (cli, "table_command", lambda op, d, fmt="text", *a, **k: f"tables.render_ms.{fmt}",
         lambda out: ("render.bytes", len(out.encode()))),
        (cli, "operator_matrix", lambda d, *a, **k: f"fock.operator_matrix_ms.d{d}", None),
        *((verify, f"check_{c}", lambda *a, c=c, **k: f"verify.{c}_ms", None) for c in VERIFY_CHECKS),
    ]
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
    try:
        for module, attr, name_of, count in patches:
            setattr(module, attr, wrap(getattr(module, attr), name_of, count))
        yield
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


def _traced_expr(spec: dict, tracer: Tracer) -> str:
    from excalc.cli import format_result
    from excalc.expr import Environment, evaluate, parse, tokenize

    with tracer.span("expr.tokenize_ms"):
        tokens = tokenize(spec["source"])
    with tracer.span("expr.parse_ms"):
        tree = parse(tokens)
    with tracer.span("expr.evaluate_ms"):
        value = evaluate(tree, Environment(spec["d"]))
    fmt = spec["fmt"]
    with tracer.span("textform.to_text_ms" if fmt == "text" else f"cli.format_result_ms.{fmt}"):
        out = format_result(value, fmt)
    tracer.count("expr.tokens", len(tokens))
    tracer.count("expr.nodes", count_nodes(tree))
    tracer.count("render.bytes", len(out.encode()))
    return out


def count_nodes(tree) -> int:
    n, stack = 0, [tree]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(v for v in vars(node).values() if hasattr(v, "__dataclass_fields__"))
    return n


def check(spec: dict, output, tables: dict) -> str | None:
    """None when the output matches the reference, else why not."""
    kind, expect = spec["type"], spec["expect"]
    if kind in ("cli", "main"):
        return check_cli(expect, *output, tables)
    if kind == "expr":
        ok = same_terms(PARSERS[spec["fmt"]](spec["d"], output), expect)
    elif kind == "batch":
        ok = all(same_terms(out.terms(), want) for out, want in zip(output, expect))
    elif spec["op"] == "decomposable":
        ok = output == expect
    elif spec["op"] == "triple":
        ok = all(same_number(x, expect) for x in output)
    else:
        ok = same_terms(output.terms(), expect)
    return None if ok else "output differs from the reference"


class Tally:
    """Counts attempted calls and sorts failures into the two kinds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.reasons: dict[str, str] = {}

    def record(self, spec: dict, reason: str | None) -> bool:
        self.attempted += 1
        if reason is None:
            return True
        self.failed += 1
        # A hostile input that ends in a traceback is the known defect the
        # workload keeps visible; anything else failing is a wrong answer.
        if not (spec["expect"].get("hostile") and reason == "traceback"):
            self.wrong += 1
        self.reasons.setdefault(spec["label"], reason)
        return False


def attempt(spec: dict, prepared, tables: dict, tally: Tally, tracer: Tracer | None = None):
    """Run one call; returns its wall seconds and whether it passed."""
    t0 = time.perf_counter()
    try:
        output = run_traced(spec, prepared, tracer) if tracer else run_untraced(spec, prepared)
        reason = None
    except Exception as exc:  # a crash inside the program is a failed call
        reason = f"{type(exc).__name__}: {exc}"[:200]
    elapsed = time.perf_counter() - t0
    if reason is None:
        try:
            reason = check(spec, output, tables)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            reason = f"unparseable output: {exc}"[:200]
    return elapsed, tally.record(spec, reason)


# ---- the two kinds of run ------------------------------------------------------


def closed_loop(job: dict, tally: Tally, probe, nominal: float) -> tuple[list[list], float]:
    """Whole rounds of the cycle until the time is up and MIN_CALLS are done.

    probe() runs after every call, outside its timing.  Returns [seconds,
    calibrated seconds, passed] per call and the median probe seconds.
    """
    cycle, tables = job["cycle"], job["tables"]
    prepared = {id(s): prepare(s) for variants in cycle for s in variants}
    calls, probes = [], []
    deadline = time.perf_counter() + job["seconds"]
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline or len(calls) < MIN_CALLS:
        for variants in cycle:
            spec = variants[rnd % len(variants)]
            calls.append(attempt(spec, prepared[id(spec)], tables, tally))
            probes.append(probe())
        rnd += 1
    samples = []
    for i, (seconds, ok) in enumerate(calls):
        # the probes just before and just after the call, and the next one
        near = statistics.median(probes[max(0, i - 1): i + 2])
        samples.append([seconds, seconds * nominal / near, ok])
    return samples, statistics.median(probes)


def traced_run(job: dict, tally: Tally) -> dict[str, float]:
    """Sweep every layer once, then pair traced with untraced calls of this workload."""
    tables, sweep, cycle = job["tables"], job["sweep"], job["cycle"]
    prepared = {id(s): prepare(s) for s in sweep}
    prepared.update({id(s): prepare(s) for variants in cycle for s in variants})
    tracer = Tracer()
    deadline = time.perf_counter() + job["seconds"]
    for spec in sweep:
        tracer.new_call()
        attempt(spec, prepared[id(spec)], tables, tally, tracer)
    counts = dict(tracer.counts)
    traced_s, untraced_s = 0.0, 0.0
    rnd = 0
    while rnd == 0 or time.perf_counter() < deadline:
        for variants in cycle:
            spec = variants[rnd % len(variants)]
            for traced in ((False, True) if rnd % 2 else (True, False)):
                if traced:
                    tracer.new_call()
                elapsed, _ = attempt(spec, prepared[id(spec)], tables, tally, tracer if traced else None)
                if traced:
                    traced_s += elapsed
                else:
                    untraced_s += elapsed
        rnd += 1
    metrics = layer_metrics(tracer)
    metrics.update(counts)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    return metrics


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    self_ns = tracer.self_ns()
    by_name: dict[str, list[int]] = {}
    for span, own in zip(tracer.spans, self_ns):
        by_name.setdefault(span.name, []).append(own)
    out = {}
    for name, (_, _, source, _) in PER_LAYER.items():
        if source == "span":
            out[name] = statistics.median(by_name[name]) / 1e6
    for d in (6, 16):
        batch_ns = statistics.median(by_name[f"multivector.sparse.d{d}"])
        out[f"multivector.sparse_us.d{d}"] = batch_ns / 1e3 / SPARSE_BATCH
    return out


def main() -> None:
    job = json.load(sys.stdin)
    in_process = job["workload"] != "cli-oneshot"
    tally = Tally()
    result = {}
    if job["trace"] or in_process:
        # Load the program before the first call; set-up is timed in fresh processes.
        import excalc.cli  # noqa: F401
    if job["trace"]:
        result["metrics"] = traced_run(job, tally)
    else:
        result["setup_raw_s"], result["setup_s"] = setup_seconds(in_process)
        probe, nominal = (kernel_time, KERNEL_S) if in_process else (bare_start, BARE_START_S)
        result["samples"], result["probe_s"] = closed_loop(job, tally, probe, nominal)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
                  reasons=tally.reasons)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
