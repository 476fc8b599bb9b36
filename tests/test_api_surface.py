"""Every name the package exports is reached by the program itself.

A name counts as reached when it is used, as code and not inside a
docstring, by `cli.py`, by any other module of the package, or by a demo.
Library API that only the tests call belongs in the tests (`oracles.py`,
`lemmas.py`), so this test fails when such a name comes back to
`matchcover/__init__.py`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "matchcover"

# exported, reached by no program code, and kept because the benchmark's span
# tracer (`bench/tracing.py`) wraps it by name
PINNED = {
    "ramsey_mu": "bench/tracing.py SPANS['ramsey.ramsey_mu']; the object-level "
    "route, which leaves with the next benchmark change",
}


def exported_names() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
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


def test_every_export_is_reached_by_the_program():
    program = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    program += sorted((ROOT / "demos").glob("*.py"))
    reached = set().union(*map(used_names, program))
    assert sorted(exported_names() - reached) == sorted(PINNED)
