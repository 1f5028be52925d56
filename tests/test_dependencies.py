"""numpy is the one runtime dependency: no module of the package or of its
tests imports scipy, and pyproject.toml declares numpy alone."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("tree", ["src", "tests"])
def test_no_module_imports_scipy(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    offenders = [str(p.relative_to(ROOT)) for p in files if "scipy" in set(_imported_roots(p))]
    assert offenders == []


def test_import_walk_sees_scipy(tmp_path):
    # the check above would pass vacuously if the walk missed these forms
    probe = tmp_path / "probe.py"
    for line in ("import scipy", "import scipy.integrate as si", "from scipy import linalg",
                 "from scipy.integrate._ivp import dop853_coefficients",
                 "def f():\n    import scipy.linalg"):
        probe.write_text(line + "\n")
        assert "scipy" in set(_imported_roots(probe)), line


def test_runtime_dependencies_are_numpy_alone():
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python 3.10: read the one line
        deps = ast.literal_eval(re.search(r"^dependencies = (\[.*\])$", text, re.M).group(1))
    else:
        deps = tomllib.loads(text)["project"]["dependencies"]
    assert deps == ["numpy>=1.24"]
