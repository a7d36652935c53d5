"""Surface guards over ``src/entcap``: every top-level name, public or
private, is read somewhere other than its own definition, every method
and property of a class is read as an attribute somewhere, and every
defaulted parameter of a function or of a class's ``__init__``, and every
defaulted field of a dataclass, public or private, is set somewhere.

A read is a name, an attribute or an import in another ``src/entcap``
module, elsewhere in the defining module, or in a ``perfbench/`` or
``scripts/`` file.  Tests do not count, nor does text inside strings:
a helper that only a test calls belongs in the tests, and a knob that
only a test turns has one sound value.

A last guard keeps ``cli.py`` to one exit path: after parsing, every
exit code is ``main``'s return value.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "entcap"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))
READERS += sorted((ROOT / "scripts").glob("*.py"))

#: Defaulted parameters that nothing in the readers sets, with the reason.
UNSET_ALLOWED = {
    "cli.main.argv": "the tests' hook; the console script leaves it None",
}


def test_package_init_is_its_docstring():
    # Callers import from the modules; the package namespace re-exports nothing.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert len(tree.body) == 1 and ast.get_docstring(tree)


def _definitions(tree):
    """(name, node) for each top-level function, class and constant."""
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


def unread_names(private=False):
    """The unread top-level names, ``module.name``: the public ones, or
    with ``private`` the ``_``-prefixed ones."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    reads = {path: _reads(tree) for path, tree in trees.items()}
    culprits = []
    for path, tree in trees.items():
        if path not in MODULES:
            continue
        elsewhere = set().union(*(r for p, r in reads.items() if p != path))
        for name, node in _definitions(tree):
            if name.startswith("_") != private:
                continue
            if name not in elsewhere and name not in _reads(tree, skip=(node,)):
                culprits.append(f"{path.stem}.{name}")
    return culprits


def test_every_public_name_is_read():
    culprits = unread_names()
    assert not culprits, "read nowhere outside their definitions: " + ", ".join(culprits)


def test_every_private_name_is_read():
    culprits = unread_names(private=True)
    assert not culprits, "read nowhere outside their definitions: " + ", ".join(culprits)


def _members(tree):
    """(class, name, node) for each method and property of a top-level
    class, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("__"):
                    yield node.name, member.name, member


def _attributes(tree, skip):
    """Attribute names read in ``tree`` outside the node ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found


def unread_members():
    """The methods and properties, ``module.Class.name``, that no reader
    reads as an attribute outside their own definition.

    Dataclass fields are left out: the check goes by name alone, so it
    cannot tell one class's field from another's of the same name
    (``RoundedPair.c1`` from ``C1Result.c1``), and a field read under a
    shared name would always pass.
    """
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    culprits = []
    for path in MODULES:
        for owner, name, node in _members(trees[path]):
            if not any(name in _attributes(tree, node) for tree in trees.values()):
                culprits.append(f"{path.stem}.{owner}.{name}")
    return culprits


def test_every_member_is_read():
    culprits = unread_members()
    assert not culprits, "read nowhere outside their definitions: " + ", ".join(culprits)


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaulted(func, skip=0):
    """(parameter, position) for each defaulted parameter of ``func``,
    the first ``skip`` positional ones not counted; a keyword-only
    parameter has no position."""
    args = func.args
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _knobs(tree):
    """(owner, parameter, position) for each defaulted parameter of a
    top-level function, public or private, and of each other class's
    ``__init__``, keyed by the class with ``self`` not counted, and for
    each defaulted field of a dataclass, public or private."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for name, i in _defaulted(node):
                yield node.name, name, i
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
            for i, f in enumerate(fields):
                if f.value is not None:
                    yield node.name, f.target.id, i
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name == "__init__":
                    for name, i in _defaulted(member, skip=1):
                        yield node.name, name, i


def _calls(tree):
    """(callee name, positional count, keyword names) for each call in
    ``tree``.  A ``*args`` counts as setting every position, and a
    ``**kwargs`` shows as the keyword name None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            yield callee, count, {k.arg for k in node.keywords}


def unset_knobs():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in READERS}
    calls = [call for tree in trees.values() for call in _calls(tree)]
    culprits = []
    for path in MODULES:
        for owner, name, position in _knobs(trees[path]):
            key = f"{path.stem}.{owner}.{name}"
            is_set = any(
                callee == owner
                and (name in names or None in names or position is not None and position < count)
                for callee, count, names in calls
            )
            if not is_set and key not in UNSET_ALLOWED:
                culprits.append(key)
    return culprits


def test_every_knob_is_set():
    culprits = unset_knobs()
    assert not culprits, "defaulted but never set outside tests: " + ", ".join(culprits)


#: The only places ``cli.py`` may end the process itself, by enclosing
#: scope: argparse's error exit, and the script entry point.
EXITS_ALLOWED = [("_Parser.error", "self.exit"), ("__main__", "sys.exit")]


def _exit_sites(tree):
    """(enclosing scope, text) for each reference to ``SystemExit`` and each
    ``exit(...)``, ``quit(...)`` or ``.exit(...)`` call in ``tree``.  The
    scope is the dotted class and function path, or ``__main__`` inside
    the ``if __name__ == "__main__"`` block."""
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, ast.If) and ast.unparse(child.test) == "__name__ == '__main__'":
                inner = ("__main__",)
            if isinstance(child, ast.Name) and child.id == "SystemExit":
                sites.append((".".join(inner), "SystemExit"))
            elif isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "exit") or (
                    isinstance(func, ast.Name) and func.id in ("exit", "quit")
                ):
                    sites.append((".".join(inner), ast.unparse(func)))
            visit(child, inner)

    visit(tree, ())
    return sites


def test_cli_has_one_exit_path():
    # After parsing, every exit code is main's return value.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _exit_sites(tree) == EXITS_ALLOWED
    (entry,) = [n for n in tree.body if isinstance(n, ast.If)]
    assert [ast.unparse(n) for n in entry.body] == ["sys.exit(main())"]
