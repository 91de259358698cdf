"""Smoke runs of the demos that exercise the walk, LP and theory APIs end to end."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, expect", [
    ("01_operator_basics.py", "sparse == dense matrix product: True"),
    ("02_synthetic_clustering.py", "nblw synth --n 20000"),
    ("03_theory_bounds.py", "(limit 2.6667)"),
    ("04_blobs_vs_label_propagation.py", "LP @ 10% labels"),
    ("05_multiclass_block_walk.py", "accuracy after label matching"),
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
    assert "ConvergenceWarning" not in proc.stderr
