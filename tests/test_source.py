import ast
from pathlib import Path

import fracops

SOURCE = Path(fracops.__file__).parent


def _private_definitions(tree):
    """(name, line) of every module-level private function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def _references(tree):
    """(name, line) of every name, attribute and import alias in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno


def test_every_private_module_name_is_referenced_elsewhere():
    # a deletion that leaves a private helper behind leaves a name that no
    # other line uses; docstrings and comments do not count as uses
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCE.glob("*.py")}
    used = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            used.setdefault(name, set()).add((module, line))
    unused = [
        f"{module}: {name}"
        for module, tree in sorted(trees.items())
        for name, line in _private_definitions(tree)
        if not used.get(name, set()) - {(module, line)}
    ]
    assert not unused, unused


def test_cli_reads_no_private_name_of_another_module():
    # each check is computed by the module that owns it, so the command line
    # needs none of their private names: the AST form of
    # grep -n "\b[a-z_]*\._[a-z]" src/fracops/cli.py
    modules = {path.stem for path in SOURCE.glob("*.py")} | {"fracops"}
    read = []
    for node in ast.walk(ast.parse((SOURCE / "cli.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fracops")):
            read += [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                read.append(node.attr)
    private = [name for name in read if name.startswith("_") and not name.startswith("__")]
    assert not private, private
