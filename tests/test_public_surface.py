"""The package's public surface: every exported name resolves, and every
public name defined in `src/acg` has a caller outside the tests.

A public name is a function or class at module level, or a method or
property of a public class.  A caller is any mention of a module-level
name, or any attribute access `.name` of a method or property, in
`src/acg` (outside its own definition and outside `__init__.py`, whose
re-exports call nothing), in README.md, in `docs/` or in `clibench/`.
Test-only oracles belong in `tests/helpers.py`, not in the package.
"""

import ast
import re
from pathlib import Path

import acg

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "acg"


def _public(body, kinds) -> list:
    return [node for node in body if isinstance(node, kinds) and not node.name.startswith("_")]


def _without(lines, node) -> str:
    """The module text without node's definition, decorators included."""
    start = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return "".join(lines[: start - 1] + lines[node.end_lineno :])


def _public_definitions():
    """(is a method, module file, label, pattern of a caller, module text without the definition) per public name."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        for node in _public(ast.parse(text).body, (ast.FunctionDef, ast.ClassDef)):
            yield False, path, node.name, rf"\b{node.name}\b", _without(lines, node)
            if isinstance(node, ast.ClassDef):
                for method in _public(node.body, ast.FunctionDef):
                    yield True, path, f"{node.name}.{method.name}", rf"\.{method.name}\b", _without(lines, method)


def _text_outside_src() -> str:
    files = [ROOT / "README.md"]
    for folder in ("docs", "clibench"):
        files += sorted(f for f in (ROOT / folder).rglob("*") if f.suffix in (".md", ".py"))
    return "\n".join(f.read_text(encoding="utf-8") for f in files)


def _orphans(methods: bool) -> list:
    modules = {path: path.read_text(encoding="utf-8") for path in SRC.glob("*.py") if path.name != "__init__.py"}
    outside = _text_outside_src()
    orphans = []
    for is_method, path, label, pattern, rest in _public_definitions():
        if is_method != methods:
            continue
        texts = [rest if other == path else text for other, text in modules.items()] + [outside]
        if not any(re.search(pattern, text) for text in texts):
            orphans.append(f"{path.name}:{label}")
    return orphans


def test_every_exported_name_resolves():
    missing = [name for name in acg.__all__ if not hasattr(acg, name)]
    assert not missing


def test_every_public_definition_has_a_caller():
    assert not _orphans(methods=False)


def test_every_public_method_has_a_caller():
    assert not _orphans(methods=True)
