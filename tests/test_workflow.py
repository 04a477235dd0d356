"""The CI workflow's shell steps, run as CI runs them, against src/.

Every ``run:`` step after the install runs by ``bash -e`` in one
temporary directory, which is also ``RUNNER_TEMP``, in order, with a
``condflow`` shim (``python -m condflow`` on this checkout's ``src``) on
PATH, so a later step sees what an earlier one wrote."""

import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

INSTALL = "pip install . pytest hypothesis pyyaml"
#: steps this test does not run, with the reason
OUT_OF_SCOPE = {
    "pip install ${{ matrix.floor }}":
        "the floor install: it needs the network and a matrix entry",
    INSTALL: "the install: the shim runs this checkout in its place",
    "python -m pytest -q --durations=15": "tier-1 itself",
}


def _run_steps():
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["pytest"]["steps"]
    return [step["run"] for step in steps if "run" in step]


def test_every_run_step_is_run_or_named_out_of_scope():
    runs = _run_steps()
    assert set(OUT_OF_SCOPE) <= set(runs)
    install = runs.index(INSTALL)
    # the out-of-scope steps are the install, what precedes it, and the
    # final pytest step; everything between them runs below
    assert set(runs[:install + 1]) | {runs[-1]} == set(OUT_OF_SCOPE)


def test_ci_shell_steps_pass_on_this_checkout(tmp_path):
    shims = tmp_path / "bin"
    shims.mkdir()
    (shims / "python").symlink_to(sys.executable)
    condflow = shims / "condflow"
    condflow.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m condflow '
                        '"$@"\n')
    condflow.chmod(0o755)
    work = tmp_path / "runner"
    work.mkdir()
    env = dict(os.environ, RUNNER_TEMP=str(work),
               PATH=f"{shims}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=str(ROOT / "src"))
    runs = [r for r in _run_steps() if r not in OUT_OF_SCOPE]
    assert runs
    for run in runs:
        done = subprocess.run(["bash", "-e", "-c", run], cwd=work, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, (
            f"step failed with exit code {done.returncode}:\n{run}\n"
            f"stderr:\n{done.stderr}")
