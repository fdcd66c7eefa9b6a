"""The package's public surface: every exported name resolves, and every
public function or class defined in `src/acg` has a caller outside the tests.

A caller is any mention of the name in `src/acg` (outside its own
definition and outside `__init__.py`, whose re-exports call nothing), in
README.md, in `docs/` or in `clibench/`.  Test-only oracles belong in
`tests/helpers.py`, not in the package.
"""

import ast
import re
from pathlib import Path

import acg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "acg"

# public names that wait on a caller before they are kept or removed
AWAITING_CALLER = {
    # ROADMAP item 3 (the configuration law checked against sampling) decides it
    "two_node_edge_prob",
    # ROADMAP item 3 (the configuration law checked against sampling) decides it
    "cycle_order_estimate",
}


def _public_definitions():
    """(module file, name, module text without the definition) per public def or class."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                yield path, node.name, "".join(lines[: start - 1] + lines[node.end_lineno :])


def _text_outside_src() -> str:
    files = [ROOT / "README.md"]
    for folder in ("docs", "clibench"):
        files += sorted(f for f in (ROOT / folder).rglob("*") if f.suffix in (".md", ".py"))
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def test_every_exported_name_resolves():
    missing = [name for name in acg.__all__ if not hasattr(acg, name)]
    assert not missing


def test_every_public_definition_has_a_caller():
    modules = {path: path.read_text(encoding="utf-8") for path in SRC.glob("*.py") if path.name != "__init__.py"}
    outside = _text_outside_src()
    orphans = []
    defined = set()
    for path, name, rest in _public_definitions():
        defined.add(name)
        if name in AWAITING_CALLER:
            continue
        texts = [rest if other == path else text for other, text in modules.items()] + [outside]
        if not any(re.search(rf"\b{name}\b", text) for text in texts):
            orphans.append(f"{path.name}:{name}")
    assert not orphans
    assert AWAITING_CALLER <= defined, "an allow-listed name is gone; drop it from AWAITING_CALLER"
