"""The package defines no public function, class or method that it does not use.

A helper that only tests call belongs in the tests (see tests/_lemmas.py),
so every public module-level function and class in src/kurasync, and every
public method of a class there, must be named by some code of the package
outside its own definition. Names are matched, not resolved: a method counts
as used wherever an attribute of that name is read. The re-exports of
kurasync/__init__.py do not count as a use.
"""

import ast
import importlib
from pathlib import Path

import kurasync

SRC = Path(kurasync.__file__).parent

# public names that nothing in the package calls, each kept for a reason
UNUSED_OK = set()


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public(nodes):
    return [node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions(modules):
    """(module, qualified name, node) for each public top-level function and
    class, and each public method of a top-level class."""
    defs = []
    for mod, tree in modules.items():
        defs += [(mod, node.name, node) for node in _public(tree.body)]
        defs += [(mod, f"{cls.name}.{node.name}", node)
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in _public(cls.body) if isinstance(node, ast.FunctionDef)]
    return defs


def _uses(tree, skip):
    """Every name a Name or Attribute node of tree reads, outside skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_is_used_by_the_package():
    modules = _modules()
    defs = _public_definitions(modules)
    used = {mod: _uses(tree, None) for mod, tree in modules.items()}
    unused = [(mod, name) for mod, name, node in defs
              if node.name not in _uses(modules[mod], node) and not any(
                  node.name in names for other, names in used.items() if other != mod)]
    extra = [f"{mod}.{name}" for mod, name in unused if name not in UNUSED_OK]
    assert extra == [], f"public but used by nothing in the package: {extra}"
    # the allowlist names only definitions that exist and are unused, so an
    # entry cannot outlive its reason
    stale = UNUSED_OK - {name for _, name in unused}
    assert not stale, f"allowlisted but used by the package: {stale}"


def test_every_module_export_is_a_package_export():
    # each name a module lists in __all__, such as the element types of a
    # report's tuples, can be imported from kurasync itself
    missing = [f"{mod}.{name}" for mod in _modules()
               for name in getattr(importlib.import_module(f"kurasync.{mod}"), "__all__", ())
               if not hasattr(kurasync, name)]
    assert missing == [], f"in a module's __all__ but not exported by kurasync: {missing}"
