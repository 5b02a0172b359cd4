"""The Python sources keep to the project's line width and import only what
they use, and the package defines no public name that its code never uses
and no private top-level name that its code never reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_LINE = 100


def test_no_python_line_is_wider_than_the_limit():
    wide = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} characters"
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert wide == []


def _unused_imports(path):
    """``path:line: name`` for each name the module imports and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    unused = [
        entry
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for entry in _unused_imports(path)
    ]
    assert unused == []


def _public_definitions(path):
    """(name, line) of each public function, class and method ``path`` defines."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [(node.name, node.lineno) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _private_definitions(path):
    """(name, line) of each private function, class and constant that
    ``path`` defines at its top level; a dunder name is not private."""
    found = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node.lineno) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def _named(path):
    """Every name ``path`` reads, as a bare name or as an attribute: an
    assignment's target is not read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)}


def _unused_definitions(package, users, definitions=_public_definitions, root=ROOT):
    """``path:line: name``, ``path`` relative to ``root``, of each of the
    ``definitions`` in the ``package`` files that no file of ``users`` names."""
    used = set().union(*(_named(path) for path in users))
    return [f"{path.relative_to(root)}:{line}: {name}"
            for path in package
            for name, line in definitions(path)
            if name not in used]


def test_every_public_definition_in_the_package_is_used_outside_the_tests():
    """Library code that only tests call is dead code: it must be named by
    the package itself or by a script."""
    package = sorted((ROOT / "src").rglob("*.py"))
    users = [path for folder in ("src", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py"))]
    assert _unused_definitions(package, users) == []


def test_every_private_top_level_definition_in_the_package_is_read():
    """A private helper, class or constant that no code under ``src/``
    reads is left over from code that is gone."""
    package = sorted((ROOT / "src").rglob("*.py"))
    assert _unused_definitions(package, package, _private_definitions) == []


def test_the_dead_definition_check_finds_what_nothing_names(tmp_path):
    """The public check reports a public function, class or method that no
    code names, counts a name read bare or as an attribute as a use, and
    ignores private definitions.  The private check reports a private
    top-level function or constant that no code reads, and ignores a
    private method, a dunder and a name that is only assigned to."""
    lib = tmp_path / "lib.py"
    lib.write_text(
        "class Model:\n"
        "    def price(self):\n"
        "        return helper()\n"
        "    def unused_method(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return 1\n"
        "def dead():\n"
        "    pass\n"
        "def _private():\n"
        "    pass\n"
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "__version__ = '1'\n"
        "def _reads():\n"
        "    return _TABLE\n"
        "class _Unread:\n"
        "    def _method(self):\n"
        "        pass\n"
        "_unread = _Other = None\n"
    )
    script = tmp_path / "script.py"
    script.write_text("from lib import Model\nModel().price()\n")
    assert sorted(_unused_definitions([lib], [lib, script], root=tmp_path)) == [
        "lib.py:4: unused_method",
        "lib.py:8: dead",
    ]
    script.write_text("from lib import _reads\n_reads()\n")
    assert sorted(_unused_definitions([lib], [lib, script], _private_definitions,
                                      root=tmp_path)) == [
        "lib.py:10: _private",
        "lib.py:12: _LIMIT",
        "lib.py:17: _Unread",
        "lib.py:20: _Other",
        "lib.py:20: _unread",
    ]
