"""Every name a module under ``src/bloff`` imports is used in that module,
so a deletion leaves no import behind; every definition there is named
elsewhere in the package, so code no entry point reaches shows up; and the
registry rules are applied only where they belong."""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bloff"

# Definitions that nothing in the package names yet, each with the reason it
# is kept. The list must stay exact: a definition that gains a caller, or is
# deleted, leaves it.
UNNAMED_ALLOWED = {
    "InclusionProof.from_dict": "reader of `verify --proof-out` files; ROADMAP item 5",
    "verify_inclusion_proof": "checks an inclusion proof without the chain; ROADMAP item 5",
    "make_attestation": "writer of the attestations `verify --custody` reads; ROADMAP item 5",
}

# The modules that may apply the registry rules: block validation and pool
# admission. A command, the miner and the simulator admit a tx through
# ``Mempool.add``, so they name no rule.
REGISTRY_RULE_MODULES = {"ledger.py", "consensus.py"}


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


def unnamed_definitions(sources: dict[str, str]) -> list[str]:
    """Each function, class and method in ``sources`` (module name to
    source), dunders aside, whose name appears in no line of them outside
    its own definition; as ``name`` or ``Class.name``."""
    lines = {module: source.splitlines() for module, source in sources.items()}
    unnamed = []

    def visit(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(module, child, prefix)
                continue
            name = child.name
            if not (name.startswith("__") and name.endswith("__")):
                word = re.compile(rf"\b{name}\b")
                own = range(child.lineno - 1 - len(child.decorator_list), child.end_lineno)
                if not any(
                    word.search(line)
                    for other, text in lines.items()
                    for number, line in enumerate(text)
                    if other != module or number not in own
                ):
                    unnamed.append(prefix + name)
            visit(module, child, f"{prefix}{name}.")

    for module, source in sources.items():
        visit(module, ast.parse(source), "")
    return sorted(unnamed)


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


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unnamed_definitions(sources) == sorted(UNNAMED_ALLOWED)


def test_check_finds_unnamed_definitions():
    sources = {
        "a.py": (
            "class Store:\n"
            "    def __init__(self):\n"
            "        self.write()\n"
            "    def write(self):\n"
            "        pass\n"
            "    @staticmethod\n"
            "    def helper():\n"
            "        return helper\n"  # a name inside its own definition counts for nothing
            "def dead():\n"
            "    pass\n"
        ),
        "b.py": "from a import Store\n",
    }
    assert unnamed_definitions(sources) == ["Store.helper", "dead"]


def test_registry_rules_are_named_only_where_they_apply():
    rule = re.compile(r"\b(registry_walk|tx_context_reason)\b")
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert {name for name, source in sources.items() if rule.search(source)} <= REGISTRY_RULE_MODULES
