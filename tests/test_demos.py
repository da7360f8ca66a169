"""Each narrative script in demos/ runs to a clean exit."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("demo_comparisons", "demo_grid_solver", "demo_main_inequality",
         "demo_minimal_surfaces", "demo_modulus", "demo_radial_maps")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout
