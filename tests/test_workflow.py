"""The CI workflow's `Console script` step, run as a test.

The step is read from `.github/workflows/tests.yml` and run under `bash -e`,
as CI runs it, in a temporary directory, with `excalc` standing for
`python -m excalc.cli` on this checkout's sources.
"""

from __future__ import annotations

import os
import stat
import subprocess
import sys
from pathlib import Path

import yaml

import excalc

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"
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
    (tmp_path / "step.sh").write_text(script)
    env = dict(os.environ)
    env["PATH"] = str(bin_dir) + os.pathsep + env["PATH"]
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        ["bash", "-e", "step.sh"], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
