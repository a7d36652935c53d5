"""Surface guard: every public top-level name of ``src/entcap`` is read
somewhere other than its own definition.

A read is a name, an attribute or an import in another ``src/entcap``
module, elsewhere in the defining module, in a ``perfbench/`` or
``scripts/`` file, or an import into ``entcap/__init__.py``.  Tests do
not count, and neither does text inside strings: a helper that only a
test calls belongs in the tests.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entcap"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
READERS += sorted((ROOT / "scripts").glob("*.py"))


def _public_definitions(tree):
    """(name, node) for each public top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node


def _reads(tree, skip=()):
    """Names read in ``tree`` outside the nodes in ``skip``: loaded names,
    attribute names and imported names."""
    found = set()
    stack = [n for n in ast.iter_child_nodes(tree) if n not in skip]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unread_public_names():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    culprits = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue
        elsewhere = set().union(*(r for p, r in reads.items() if p != path))
        for name, node in _public_definitions(tree):
            if name not in elsewhere and name not in _reads(tree, skip=(node,)):
                culprits.append(f"{path.stem}.{name}")
    return culprits


def test_every_public_name_is_read():
    culprits = unread_public_names()
    assert not culprits, "read nowhere outside their definitions: " + ", ".join(culprits)
