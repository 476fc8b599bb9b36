"""Every document field is read through `serialize._fields` or `_each`.

A reader (a `*_from_json` or `_read_*` function of `serialize.py`, or a
`verify` function of `cli.py`) that indexes a document with a string
literal, or calls `.get("...")` on it, skips the check that names the
document kind and the missing key.  Writes such as `doc["schema"] = ...`
stay allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "matchcover"


def is_reader(name: str) -> bool:
    return name.endswith("_from_json") or name.startswith("_read_") or "verify" in name


def literal_reads(function: ast.FunctionDef) -> list:
    """The line and text of each string-literal read in ``function``."""
    found = []
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ) or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            found.append((node.lineno, ast.unparse(node)))
    return found


def readers(source: str) -> list:
    return [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and is_reader(node.name)
    ]


@pytest.mark.parametrize("module", ["serialize.py", "cli.py"])
def test_readers_index_no_document_by_a_literal_key(module):
    functions = readers((PACKAGE / module).read_text())
    assert functions
    offenders = {f.name: literal_reads(f) for f in functions if literal_reads(f)}
    assert offenders == {}


def test_the_guard_sees_a_literal_read_and_allows_a_write():
    source = '''
def thing_from_json(obj):
    return obj["theta"]

def _read_thing(obj):
    return obj.get("theta")

def _verify_thing(doc):
    doc["schema"] = "x"
    return doc[key]
'''
    found = {f.name: literal_reads(f) for f in readers(source)}
    assert found == {
        "thing_from_json": [(3, "obj['theta']")],
        "_read_thing": [(6, "obj.get('theta')")],
        "_verify_thing": [],
    }
