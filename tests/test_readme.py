"""README.md stays true: every fenced python block runs as written, in a fresh
interpreter, and the CLI block runs every command and every example config."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mixedsde import cli

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(tmp_path, index):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", BLOCKS[index]], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_cli_block_names_every_command_and_example_config():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    runs = re.findall(r"^mixedsde (\S+) +--config (configs/\S+\.cfg)$", block, re.M)
    assert len(runs) == len(block.splitlines()), block  # every line is one such run
    assert {command for command, _ in runs} == set(cli.COMMANDS)
    assert {config for _, config in runs} == {f"configs/{p.name}" for p in (ROOT / "configs").glob("*.cfg")}
    for command, config in runs:  # each config is one its command accepts
        path = str(ROOT / config)
        cli.resolve_config(command, cli.parse_config_file(path), path, {})
