"""Every demo script runs to the end and reports no failed comparison."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    assert "False" not in result.stdout, result.stdout
