"""The CI workflow's `Console script` step, run as a test.

The step is read from `.github/workflows/tests.yml` and run under `bash -e`,
as CI runs it, in the checkout's root, with `excalc` standing for
`python -m excalc.cli` on this checkout's sources.  A failure names each
failing CLI case.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

import yaml

import excalc

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SRC = str(Path(excalc.__file__).resolve().parents[1])


def test_console_script_step_passes(tmp_path):
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    (script,) = [
        s["run"] for job in jobs.values() for s in job["steps"] if s.get("name") == "Console script"
    ]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    # the step calls both `python` and `excalc`; both run this interpreter
    for name, command in (("python", ""), ("excalc", " -m excalc.cli")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}"{command} "$@"\n')
        shim.chmod(shim.stat().st_mode | stat.S_IXUSR)
    env = dict(os.environ)
    env["PATH"] = str(bin_dir) + os.pathsep + env["PATH"]
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        ["bash", "-e", "-c", script], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=600,
    )
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED ")]
    assert done.returncode == 0, "\n".join(failed) or done.stdout[-2000:] + done.stderr[-2000:]
