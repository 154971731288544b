"""Dead-name guard for the package source, in place of a linter.

Parses src/quditid/*.py with ast and fails on a private name, defined at
module level or as a method in a class body, that nothing in the package
reads, or on an import its module never reads.  An import kept on purpose
(a re-export, or a name a benchmark patches) carries "# noqa: F401" on
one of its lines.  A public module-level name must be read by the package
(quditid/__init__.py's re-exports count), be imported by the acceptance
suite, or sit in PUBLIC_UNREAD with its reason.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "quditid"

# Public names that nothing in the package reads, each kept for a reason.
PUBLIC_UNREAD = {
    "montecarlo.trial_stream": "perfbench/child.py patches it by name",
}


def _modules():
    """{file name: (source text, ast)} of every package module."""
    texts = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    return {name: (text, ast.parse(text)) for name, text in texts.items()}


def _exported(tree):
    """The strings listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _reads(tree):
    """Every name a module reads: loaded names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bound_names(node):
    """Names a module-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _private_definitions(tree):
    """Private names a module defines: module-level functions, classes and
    assignments, and the methods of its module-level classes."""
    for node in tree.body:
        names = _bound_names(node)
        if isinstance(node, ast.ClassDef):
            names += [m.name for m in node.body if isinstance(m, ast.FunctionDef)]
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _public_definitions(tree):
    """Public names a module defines at module level."""
    for node in tree.body:
        yield from (n for n in _bound_names(node) if not n.startswith("_"))


def _unread_public(modules, imported):
    """"module.name" of each public name that no module reads and that is
    not in `imported`."""
    read = set().union(*(_reads(tree) for _, tree in modules.values()), imported)
    return [
        f"{name[:-3]}.{public}"
        for name, (_, tree) in modules.items()
        for public in _public_definitions(tree)
        if public not in read
    ]


def test_private_definitions_include_methods():
    tree = ast.parse(
        "class _Hidden:\n"
        "    def __post_init__(self): pass\n"
        "    def _swap(self, vec): pass\n"
        "    def apply(self, vec): pass\n"
        "def _helper(): pass\n"
    )
    assert list(_private_definitions(tree)) == ["_Hidden", "_swap", "_helper"]


def test_every_private_module_name_is_read():
    modules = _modules()
    read = set().union(*(_reads(tree) for _, tree in modules.values()))
    dead = [
        f"{name}: {private}"
        for name, (_, tree) in modules.items()
        for private in _private_definitions(tree)
        if private not in read
    ]
    assert dead == []


def test_every_public_module_name_is_read_or_listed():
    acceptance = ast.parse((TESTS / "test_acceptance.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("quditid")
        for alias in node.names
    }
    assert "conclusive_sum_spectrum" in imported
    # Both ways: an unread name must be listed, and a listed one unread.
    assert sorted(_unread_public(_modules(), imported)) == sorted(PUBLIC_UNREAD)


def test_public_guard_flags_an_unread_function():
    modules = {"extra.py": (None, ast.parse("def helper():\n    return 1\n"))}
    assert _unread_public(modules, set()) == ["extra.helper"]
    assert _unread_public(modules, {"helper"}) == []


def test_every_import_is_read():
    unused = []
    for name, (text, tree) in _modules().items():
        lines = text.splitlines()
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        } | _exported(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{name}:{node.lineno}: {bound}")
    assert unused == []


def test_only_jsonio_spells_the_float_format():
    """The 17-significant-digit text rule has one home: a string constant
    holding "17g" (a format spec, a row template) appears only in jsonio."""
    found = [
        f"{name}:{node.lineno}: {node.value!r}"
        for name, (_, tree) in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "17g" in node.value
    ]
    assert found and all(entry.startswith("jsonio.py:") for entry in found), found
