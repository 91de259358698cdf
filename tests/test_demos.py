"""Smoke runs of the demos that exercise the walk API end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expect", [
    ("01_operator_basics.py", "sparse == dense matrix product: True"),
    ("05_multiclass_deflation.py", "accuracy after label matching"),
])
def test_demo_runs(script, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
