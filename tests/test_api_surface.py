"""Every public name of the package is reached by the program itself.

A name counts as reached when it is used, as code and not inside a
docstring, by `cli.py`, by any other module of the package, or by a demo.
Public names are the package exports, every module-level function, class
and assignment in `src/matchcover/*.py` whose name has no leading
underscore, and every method of those classes whose name has none.
Library API that only the tests call belongs in the tests
(`oracles.py`, `lemmas.py`), so these tests fail when such a name comes
back to `src/`.

Private names (one leading underscore, not a dunder) at module level, and
private methods, must be read by `src/` itself: a helper that a change
leaves behind fails here.  The CLI's handlers are read through the
`handler=` strings their subcommands set.
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


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def module_level_names() -> set:
    """Names that a module of the package defines at module level."""
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
    return names


def all_method_names() -> set:
    """Methods of the classes that a module of the package defines."""
    return {
        item.name
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef)
    }


def defined_names() -> set:
    """Public names that a module of the package defines at module level."""
    return {name for name in module_level_names() if not name.startswith("_")}


def method_names() -> set:
    """Public methods of the classes that a module of the package defines."""
    return {name for name in all_method_names() if not name.startswith("_")}


def private_names() -> set:
    """Private module-level names and private methods of the package."""
    return set(filter(is_private, module_level_names() | all_method_names()))


def used_names(path: Path) -> set:
    """Names loaded or read as attributes; strings and imports do not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def handler_names() -> set:
    """The ``handler=`` strings of the CLI's ``set_defaults`` calls."""
    return {
        kw.value.value
        for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
        if isinstance(node, ast.Call)
        for kw in node.keywords
        if kw.arg == "handler" and isinstance(kw.value, ast.Constant)
    }


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


def test_every_private_name_is_read_by_the_package():
    read = set().union(*map(used_names, PACKAGE.glob("*.py"))) | handler_names()
    assert sorted(private_names() - read) == []


def test_the_private_guard_sees_methods_and_handlers():
    # the scan finds what it must judge: private methods and the handlers
    assert {"_store", "_unchecked", "_cmd_verify"} <= private_names()
    assert "_cmd_verify" in handler_names() and "__init__" not in private_names()
