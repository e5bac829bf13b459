"""Every definition shipped in src/possheaf is reached from src/possheaf.

Code that only tests use belongs under tests/ (dense_oracle.py,
specseq_oracle.py, engine_oracle.py, fixtures.py), so the package ships
what the command line runs and nothing a later change has to keep
working for a test's sake.

The scan collects every top-level function and class, and every method
whose name is not a dunder, in src/possheaf.  A definition counts as
referenced when its name appears somewhere in src/possheaf outside its
own body, as an `ast.Name`, an `ast.Attribute` or an import alias.
`cli.main` is the entry point and is exempt.

Known limit: names are matched bare, with no types behind them, so a
definition whose name matches an attribute used anywhere passes even if
nothing calls it: `DoubleComplex.transpose` passes on the strength of
`Matrix.transpose`, and `MonotoneMap.identity` on `Matrix.identity`, though
only tests call either.  So the test can miss dead code, and it flags only
definitions that no code in src/possheaf names.
"""

import ast
import collections
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "possheaf")
EXEMPT = {("cli", "main")}


def _definitions(tree):
    """(qualified name, bare name, node) of each top-level def/class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _references(node):
    """Bare names referenced anywhere under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
            if sub.asname:
                yield sub.asname


def unreferenced_definitions():
    """`module.name` of each definition that src/possheaf names only inside its own body."""
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname[:-3]] = ast.parse(fh.read(), filename=fname)
    everywhere = collections.Counter(ref for tree in trees.values() for ref in _references(tree))
    found = []
    for module, tree in trees.items():
        for qualname, name, node in _definitions(tree):
            inside = sum(1 for ref in _references(node) if ref == name)
            if (module, qualname) not in EXEMPT and everywhere[name] == inside:
                found.append("%s.%s" % (module, qualname))
    return found


def test_every_shipped_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []
