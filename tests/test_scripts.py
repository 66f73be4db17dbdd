"""Smoke runs of the research scripts and the README quick start at tiny scale: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

RUNS = {
    "moment_study": ["moment_study.py", "--model", "stochvol", "--p", "1", "2",
                     "--levels", "8", "16", "--paths", "64", "--workers", "2"],
    "moment_study-quadratic": ["moment_study.py", "--model", "quadratic_control",
                               "--levels", "8", "16", "--paths", "64"],
    "exp_moment_boundary": ["exp_moment_boundary.py", "--gamma", "0.6", "1.5",
                            "--n", "16", "--paths", "64"],
    "rho_boundary": ["rho_boundary.py", "--rho", "0.1", "0.4", "--levels", "8", "16",
                     "--paths", "64"],
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_script_runs(run):
    script, *args = RUNS[run]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
