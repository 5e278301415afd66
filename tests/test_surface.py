"""The public surface: every exported name has a caller outside the tests."""

from __future__ import annotations

import ast
from pathlib import Path

import mislab

ROOT = Path(__file__).resolve().parent.parent


def test_every_public_name_is_used_by_the_package_or_perfbench():
    # A use is a Name, an Attribute or an import alias in the package's own
    # modules or in perfbench; a definition or a docstring mention is not.
    sources = [p for p in (ROOT / "src" / "mislab").glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert sorted(set(mislab.__all__) - used) == []
