"""The runtime package is pure standard library.

The test extra installs numpy, so a stray runtime import of it (or of any
other third-party module) would go unnoticed by the rest of the suite.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchenum"


def absolute_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for path in sources:
        for name in absolute_imports(path):
            top = name.split(".")[0]
            assert top in sys.stdlib_module_names or top == "matchenum", (path.name, name)


def test_no_declared_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in [line.strip() for line in lines]
