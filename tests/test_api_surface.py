"""Every public name of the package is reached by the program itself.

A name counts as reached when it is used, as code and not inside a
docstring, by `cli.py`, by any other module of the package, or by a demo.
Public names are the package exports, every module-level function, class
and assignment in `src/matchcover/*.py` whose name has no leading
underscore, and every method of those classes whose name has none.
Library API that only the tests call belongs in the tests
(`oracles.py`, `lemmas.py`), so these tests fail when such a name comes
back to `src/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchcover"

# public, reached by no program code, and kept because the benchmark's span
# tracer (`bench/tracing.py`) wraps it by name
PINNED = {
    "ramsey_mu": "bench/tracing.py SPANS['ramsey.ramsey_mu']; the object-level "
    "route, which leaves with the next benchmark change",
    "validate_witness": "bench/tracing.py SPANS['bipartite.validate_witness']",
    "multiply": "bench/tracing.py COUNTS['groups.multiply'] wraps it on each model",
}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def defined_names() -> set:
    """Public names that a module of the package defines at module level."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                )
    return {name for name in names if not name.startswith("_")}


def method_names() -> set:
    """Public methods of the classes that a module of the package defines."""
    return {
        item.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
    }


def used_names(path: Path) -> set:
    """Names loaded or read as attributes; strings and imports do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def reached_names() -> set:
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += sorted((ROOT / "demos").glob("*.py"))
    return set().union(*map(used_names, program))


def test_every_export_is_reached_by_the_program():
    exported = exported_names()
    assert sorted(exported - reached_names()) == sorted(exported & PINNED.keys())


def test_every_public_name_is_reached_by_the_program():
    public = defined_names() | method_names()
    assert sorted(public - reached_names()) == sorted(PINNED)
