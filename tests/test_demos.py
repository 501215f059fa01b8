"""Each demo script runs to completion as a user would run it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import datamarket

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path):
    src = str(Path(datamarket.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # run from a scratch directory: demo 05 writes its CSVs below the cwd
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_demos_found():
    assert DEMOS, "no demo scripts under demos/"
