"""What the package depends on and what depends on it: numpy is the one
runtime dependency (no module of the package or of its tests imports scipy,
and pyproject.toml declares numpy alone), and every name the package
exports is used by the program: its own modules, scripts/ or perfbench/."""

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


def _exported_names():
    tree = ast.parse((ROOT / "src" / "spinsemi" / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _code_references(tree):
    """The names a module reads as code (Name and Attribute loads), except
    inside the def or class of the same name: imports, docstrings and a
    definition's own body do not count."""
    found = set()

    def visit(node, own):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = own | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and isinstance(node.ctx, ast.Load) and name not in own:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    visit(tree, frozenset())
    return found


def test_every_export_is_used_by_the_program():
    package = ROOT / "src" / "spinsemi"
    files = [p for p in sorted(package.rglob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    used = set().union(*(_code_references(ast.parse(p.read_text(), filename=str(p)))
                         for p in files))
    exported = _exported_names()
    assert len(exported) > 40
    assert sorted(exported - used) == []


def test_reference_walk_skips_imports_docstrings_and_own_bodies():
    # the check above would pass vacuously if these counted as uses
    tree = ast.parse('from m import a\n'
                     '"""b"""\n'
                     'def c(x):\n'
                     '    """d"""\n'
                     '    return c(x) + e.f\n'
                     'g = h\n')
    assert _code_references(tree) == {"x", "e", "f", "h"}
