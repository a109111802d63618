"""excalc benchmark: one workload per run, in a fresh measured process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: cli-oneshot, dense-kernels,
sparse-tables, long-expressions (see workloads.py).  The seed fixes the
inputs; the program sees only the generated inputs.  Every output is checked
against the numpy model in reference.py.  With --trace 0 the run reports the
end-to-end metrics; with --trace 1 a separate traced run reports the
per-layer metrics (see spec.py) and the tracing overhead.  Each metric is
printed by name with its unit; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.

A run measures whole rounds of the workload's cycle for at least S seconds
and at least 100 calls, so cli-oneshot (about 0.3 s a call) runs past S when
S is short.  The loop is closed with one client: each call starts when the
previous one has returned.  Reported times are calibrated against a fixed
probe timed between calls (see worker.py); the uncalibrated figures are
printed as well.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import subprocess
import sys
import time

import numpy as np

from spec import END_TO_END, PER_LAYER, WORKLOADS
from workloads import GENERATORS, computed_counts, sweep_calls

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170


def measured_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_omp_threads": 1,
    }


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def call_times(samples: list[tuple[float, bool]]) -> dict[str, float]:
    passed = [t for t, ok in samples if ok]
    slowest = max(t for t, _ in samples)
    # Failed calls rank as the slowest; a percentile that lands on one reads
    # as the slowest call measured.
    ranked = passed + [math.inf] * (len(samples) - len(passed))
    p50, p90 = (min(percentile(ranked, p), slowest) for p in (0.5, 0.9))
    return {
        "call_ms.p50": p50 * 1e3,
        "call_ms.p90": p90 * 1e3,
        "calls_per_s": len(passed) / sum(t for t, _ in samples),
    }


def end_to_end(result: dict) -> dict[str, float]:
    samples = result["samples"]
    metrics = call_times([(calibrated, ok) for _, calibrated, ok in samples])
    metrics.update(
        pass_ratio=sum(ok for _, _, ok in samples) / len(samples),
        peak_rss_mb=result["peak_rss_mb"],
        setup_s=result["setup_s"],
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "excalc", "cli.py")):
        print(f"error: no excalc sources under {ROOT}/src", file=sys.stderr)
        return 2
    started = time.monotonic()

    job = GENERATORS[args.workload](args.seed)
    if args.trace:
        job["sweep"], tables = sweep_calls(args.seed, {args.workload: job})
        job["tables"].update(tables)
    job.update(workload=args.workload, seconds=args.seconds, trace=args.trace)

    # Its own process group, so a timeout can kill the CLI processes it started too.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py")], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        env=measured_env(), process_group=0,
    )
    try:
        out, err = proc.communicate(json.dumps(job), RUN_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
    if proc.returncode != 0:
        sys.stderr.write(err)
        print(f"error: measured process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(out.splitlines()[-1])

    if args.trace:
        metrics = result["metrics"]
        metrics.update(computed_counts(job["sweep"]))
        specs = {name: (unit, better) for name, (unit, better, _, _) in PER_LAYER.items()}
    else:
        metrics = end_to_end(result)
        specs = END_TO_END
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}))
    print(f"calls: {result['attempted']} attempted, {result['failed']} failed "
          f"(fail_ratio {result['failed'] / result['attempted']:.4f}), "
          f"{result['wrong']} wrong")
    for label, reason in sorted(result["reasons"].items()):
        print(f"  failed: {label}: {reason}")
    if not args.trace:
        raw = call_times([(seconds, ok) for seconds, _, ok in result["samples"]])
        raw["setup_s"] = result["setup_raw_s"]
        print(f"uncalibrated (median probe {result['probe_s'] * 1e3:.4g} ms): "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    for name, (unit, better) in specs.items():
        note = ""
        if args.trace:
            note = "  [{}; {}]".format(*PER_LAYER[name][2:])
        print(f"{name} = {metrics[name]:.6g} {unit} ({better} is better){note}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, (unit, _) in specs.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
