"""Every name a module under ``src/bloff`` imports is used in that module, so
a deletion leaves no import behind."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bloff"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports, at any depth, and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .crypto import Digest, ZERO_DIGEST as ZERO, sha256_digest\n"
        "def f(x: Digest):\n"
        "    return sha256_digest(x)\n"
    )
    assert unused_imports(source) == ["ZERO", "os"]
