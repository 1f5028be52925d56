"""Smoke runs of the experiment scripts with small spins."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b", re.IGNORECASE)


@pytest.mark.parametrize("script, args", [
    ("contraction_sweep.py", ["--two-j", "4", "8"]),
    ("propagator_error.py", ["--two-j", "2", "4"]),
    ("shorttime_accuracy.py", ["--two-j", "1", "4", "--points", "3"]),
])
def test_script_runs_and_prints_finite_numbers(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    numbers = [float(x) for x in NUMBER.findall(done.stdout)]
    assert numbers
    assert all(math.isfinite(x) for x in numbers), done.stdout
