"""The checker route of `folner.py` reaches no name of the builder.

`check_certificate` replays a certificate on its own route: `_check_pair`,
`_ground_translate`, `_incidence` and `_augment_fully`.  If that route read
a builder name (`_translates`, `build_certificate`, or a matcher:
`_match_rows`, `_covering_rows`, `mu_with_witness`, `mu_partition_witness`,
`mu`), directly or through another function or class of `folner.py` that it
reads, a fault of the builder could pass its own check.
"""

import ast
from pathlib import Path

FOLNER = Path(__file__).resolve().parents[1] / "src" / "matchcover" / "folner.py"

ROUTE = ("check_certificate", "_check_pair", "_ground_translate", "_incidence", "_augment_fully")
BUILDER = {
    "_translates",
    "build_certificate",
    "_match_rows",
    "_covering_rows",
    "mu_with_witness",
    "mu_partition_witness",
    "mu",
}


def read_names(node: ast.AST) -> set:
    """Names loaded, and attributes read, anywhere in ``node``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def route_reads(source: str) -> tuple[set, set]:
    """(the module's functions and classes on the route, every name they
    read), following each module-level function or class the route reads."""
    defs = {
        node.name: node
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    walked, names = set(), set()
    todo = list(ROUTE)
    while todo:
        name = todo.pop()
        if name in walked or name not in defs:
            continue
        walked.add(name)
        found = read_names(defs[name])
        names |= found
        todo.extend(found)
    return walked, names


def test_the_checker_route_reaches_no_builder_name():
    walked, names = route_reads(FOLNER.read_text())
    assert set(ROUTE) <= walked
    assert "_require_window" in walked  # followed through _ground_translate
    assert sorted(names & BUILDER) == []


def test_the_guard_sees_a_builder_name_behind_a_helper():
    source = '''
def check_certificate(cert):
    return [_check_pair(p) for p in cert.pairs]

def _check_pair(pair):
    return _replay(pair)

def _replay(pair):
    return bipartite.mu(pair.left, pair.right, pair.cover)

def build_certificate():  # off the route, so not read
    return _translates()
'''
    walked, names = route_reads(source)
    assert walked == {"check_certificate", "_check_pair", "_replay"}
    assert sorted(names & BUILDER) == ["mu"]
