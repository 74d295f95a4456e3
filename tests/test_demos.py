"""Every script in demos/ runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, f"{script.name} failed:\n{proc.stderr}"
