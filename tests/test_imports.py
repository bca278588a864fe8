"""The package runs on the standard library alone: `pyproject.toml` declares
no dependencies, so every module under `src/hypmoduli` imports only from the
standard library and from the package itself."""

import ast
import sys
from pathlib import Path

import hypmoduli

PACKAGE = Path(hypmoduli.__file__).resolve().parent


def test_pyproject_declares_no_dependencies():
    pyproject = PACKAGE.parent.parent / "pyproject.toml"
    assert "\ndependencies = []\n" in pyproject.read_text(encoding="utf-8")


def test_package_imports_only_the_standard_library():
    outside = []
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 5
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "hypmoduli" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno}: {name}")
    assert outside == []
