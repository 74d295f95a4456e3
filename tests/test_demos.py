"""Every script in demos/ and README's library example run to completion
in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    proc = _run_python([str(script)], tmp_path)
    assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr}"


def test_readme_library_example_runs(tmp_path):
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    proc = _run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, f"README library example failed:\n{proc.stderr}"
    assert '"acc"' in proc.stdout
