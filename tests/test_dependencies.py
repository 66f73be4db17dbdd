"""Runtime dependencies stay numpy and scipy: in the imports, in pyproject.toml, and at run time."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {"numpy", "scipy", "mixedsde"}


def test_package_imports_only_stdlib_numpy_and_scipy():
    outside = []
    for source in sorted((ROOT / "src" / "mixedsde").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in sys.stdlib_module_names and top not in ALLOWED:
                    outside.append(f"{source.name}:{node.lineno}: {name}")
    assert not outside, outside


def test_pyproject_declares_exactly_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in project["dependencies"]}
    assert names == {"numpy", "scipy"}


def test_cli_study_runs_with_yaml_blocked(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("n: 8\npaths: 4\nseed: 1\ntol: 1e-3  # steps: 8\n")
    code = (
        "import sys; sys.modules['yaml'] = None\n"
        "from mixedsde.cli import main\n"
        f"sys.exit(main(['integrate', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'o')!r}]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "integrate.csv").is_file()


def test_cli_import_leaves_scipy_special_unloaded():
    code = "import sys\nimport mixedsde.cli\nprint('scipy.special' in sys.modules)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_fernique_run_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call, about 10 ms of a run;
    # fernique takes its medians from sorted samples instead (fit, growth)
    code = "import sys\nfrom mixedsde.cli import main\n"
    for mu in ("0.6", "0.8"):
        cfg = tmp_path / f"{mu}.cfg"
        cfg.write_text(f"hurst: 0.75\nmu: {mu}\nn: 16\npaths: 200\nseed: 1\n")
        code += f"assert main(['fernique', '--config', {str(cfg)!r}, '--out', {str(tmp_path / mu)!r}]) == 0\n"
    code += "print('numpy.ma' in sys.modules)\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
