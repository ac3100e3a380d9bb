"""The runtime package is pure standard library, and loads none of
``dataclasses``, ``inspect``, ``argparse`` and ``gettext`` when it starts.

The test extra installs numpy, so a stray runtime import of it (or of any
other third-party module) would go unnoticed by the rest of the suite.
"""

import ast
import os
import subprocess
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


def test_cli_import_loads_no_dataclasses_inspect_argparse_or_gettext():
    # a fresh interpreter, since pytest itself has loaded them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    probe = ("import sys, matchenum.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect', 'argparse', 'gettext') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []
