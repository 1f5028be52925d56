"""Smoke runs of the experiment scripts with small spins, and of the
README's library-usage example."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b", re.IGNORECASE)


def _run(*args):
    """Run python with args in a subprocess, with src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("script, args", [
    ("contraction_sweep.py", ["--two-j", "4", "8"]),
    ("propagator_error.py", ["--two-j", "2", "4"]),
    ("shorttime_accuracy.py", ["--two-j", "1", "4", "--points", "3"]),
])
def test_script_runs_and_prints_finite_numbers(script, args):
    done = _run(str(ROOT / "scripts" / script), *args)
    assert done.returncode == 0, done.stderr
    numbers = [float(x) for x in NUMBER.findall(done.stdout)]
    assert numbers
    assert all(math.isfinite(x) for x in numbers), done.stdout


def test_readme_library_usage_runs():
    # the README's example names only what the package still exports
    section = (ROOT / "README.md").read_text().split("## Library usage", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "import spinsemi" in code
    done = _run("-c", code)
    assert done.returncode == 0, done.stderr
