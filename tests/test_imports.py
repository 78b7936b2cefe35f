"""Every name a package module imports is used there, every module it
imports is the standard library, the package itself or a declared
dependency, and every private module-level name it defines is read
somewhere in the repo."""

import ast
import functools
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wigsolve"
# __init__.py only re-exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the files whose reads keep a private package name alive
READERS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, __future__ ones left out."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree).items() if name not in used]


def declared_dependencies(pyproject: str) -> set[str]:
    """Import names of the `[project] dependencies` of a pyproject.toml (a
    regex read: tomllib is not in Python 3.10)."""
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", pyproject, re.M | re.S).group(1)
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.M | re.S).group(1)
    names = re.findall(r"[\"']([A-Za-z0-9_.-]+)", listed)
    return {name.lower().replace("-", "_") for name in names}


def undeclared_imports(source: str, declared: set[str]) -> list[str]:
    """Top-level modules an absolute import names that are neither standard
    library nor declared; relative imports are the package itself."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names and top not in declared:
                out.append(f"line {node.lineno}: {top}")
    return out


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level name with one leading underscore -> line of its definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out.setdefault(name, node.lineno)
    return out


def _reads(tree: ast.Module) -> set[str]:
    """Names a file reads: loaded names, attributes, names imported from a
    module, and the dotted parts of string constants (a layer trace names
    the entry points it wraps as strings)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out |= set(node.value.split("."))
    return out


def unread_private_names(source: str, readers: list[str]) -> list[str]:
    read = set().union(*(_reads(ast.parse(r)) for r in readers))
    defined = _private_definitions(ast.parse(source))
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


@functools.cache
def _repo_sources() -> tuple[str, ...]:
    return tuple(p.read_text(encoding="utf-8") for p in READERS)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_declared_dependencies(path):
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert undeclared_imports(path.read_text(encoding="utf-8"), declared) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8"), _repo_sources()) == []


def test_guard_flags_an_unused_import_and_spares_exports():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\nimport os.path\nfrom math import pi, tau\n"
        "__all__ = ['tau']\nx = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 3: os", "line 4: pi"]


def test_guard_flags_an_undeclared_dependency():
    pyproject = (
        '[build-system]\nrequires = ["setuptools>=68"]\n\n'
        '[project]\nname = "pkg"\ndependencies = [\n    "numpy>=1.24",\n    "scipy>=1.10",\n]\n\n'
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    declared = declared_dependencies(pyproject)
    assert declared == {"numpy", "scipy"}
    source = (
        "from __future__ import annotations\nimport math\nimport numpy as np\n"
        "from scipy.special import sici\nfrom .errors import DomainError\n"
        "import mpmath\nfrom pytest import approx\n"
    )
    assert undeclared_imports(source, declared) == ["line 6: mpmath", "line 7: pytest"]


def test_guard_flags_an_unread_private_name_and_spares_read_ones():
    module = (
        "_SMALL = 1e-8\n_USED = 2\n_traced = 3\n__all__ = []\n"
        "def _helper():\n    _SMALL = 0\n    return _USED\n"
        "class _Plan:\n    pass\n"
    )
    reader = (
        "from pkg.mod import _Plan\nimport pkg.mod as mod\n"
        "mod._helper()\nENTRY = ('pkg.mod', '_traced.__init__')\n"
    )
    # a local that shadows _SMALL stores it, and its definition reads nothing
    assert unread_private_names(module, [module, reader]) == ["line 1: _SMALL"]
    assert unread_private_names(module, [module]) == [
        "line 1: _SMALL", "line 3: _traced", "line 5: _helper", "line 8: _Plan",
    ]
    assert unread_private_names(module, [module + "y = _SMALL\n", reader]) == []
