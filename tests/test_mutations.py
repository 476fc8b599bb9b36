"""Seeded pair-level mutation suite for ``verify`` on certificate documents.

Genuine PASS and EXHAUSTED certificates on Z^2, F_2 and S_4 are emitted by
``folner search``.  Every stored pair then has each of its fields ``g``,
``h``, ``mu``, ``witness`` and ``witness.pairs`` dropped, emptied, retyped,
swapped (g with h) or pushed out of range, one mutation per document.  A
mutated document must exit 1 (the claim fails) or 2 (invalid input, one
``error:`` line), and no exception may escape ``dispatch``.  A mutation that
leaves the document as it was (reordering witness pairs, emptying an empty
witness) must verify exactly as the original does.

Whole ``ramsey-check/1`` reports (one that holds, one that fails, one that
holds vacuously) have every top-level field dropped, emptied, retyped, pushed
out of range or swapped with another field.  Such a report may exit 0 only
when it is exactly what ``ramsey check`` emits for the parameters it records.
"""

import contextlib
import copy
import io
import itertools
import json
import random

import pytest

from matchcover import serialize as ser
from matchcover.cli import dispatch
from matchcover.groups import symmetric_group
from matchcover.ramsey import ramsey_condition_check

SEED = 7
RETYPES = (None, [], {}, 1.5, True, "zz")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = dispatch(argv)
        except Exception as exc:  # the CLI would print a traceback here
            pytest.fail(f"{argv}: {exc!r} escaped dispatch")
    return code, out.getvalue(), err.getvalue()


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """name -> (genuine certificate document, out-of-range element string)."""
    work = tmp_path_factory.mktemp("mutations")
    rng = random.Random(SEED)
    s4 = symmetric_group(4)
    s4_file = _write(work / "s4.json", s4.describe())
    s4_e = rng.sample(s4.names[1:], 3)
    colors = [rng.randrange(2) for _ in s4.names]
    colors[0], colors[s4.names.index(s4_e[0])] = 0, 1  # F = {e} cannot pass
    s4_coloring = _write(work / "s4-coloring.json", {"ground": s4.names, "colors": colors, "k": 1})
    specs = {
        "zd2-pass": (["--group", "zd2", "--coloring", "parity", "--e", "1,0;0,1",
                      "--theta", "4/5", "--max-radius", "6"], 0, "1000,1000"),
        "zd2-exhausted": (["--group", "zd2", "--coloring", "parity", "--e", "1,0;0,1",
                           "--theta", "99/100", "--max-radius", "3"], 1, "1000,1000"),
        "free2-pass": (["--group", "free2", "--coloring", "first-letter", "--e", "a;b",
                        "--theta", "2/5", "--max-radius", "3"], 0, "a" * 40),
        "free2-exhausted": (["--group", "free2", "--coloring", "first-letter", "--e", "a;B",
                             "--theta", "9/10", "--max-radius", "2"], 1, "a" * 40),
        "s4-sym-pass": (["--group", s4_file, "--coloring", s4_coloring, "--mode", "sym",
                         "--e", ";".join(s4_e), "--theta", "1", "--max-radius", "2"], 0, "9999"),
        "s4-exhausted": (["--group", s4_file, "--coloring", s4_coloring,
                          "--e", ";".join(s4_e), "--theta", "1", "--max-radius", "0"], 1, "9999"),
    }
    docs = {}
    for name, (argv, expect, far) in specs.items():
        out = work / f"{name}.json"
        code, _, err = _run(["folner", "search", *argv, "--out", str(out)])
        assert code == expect, err
        docs[name] = (json.loads(out.read_text()), far)
    return docs


def _mutations(doc, far, rng):
    """(label, mutated document) for every pair, field and mutation."""
    n = len(doc["f"])
    for k, pair in enumerate(doc["pairs"]):
        def edited(field, value, drop=False):
            new = copy.deepcopy(doc)
            target = new["pairs"][k]
            if field == "witness.pairs":
                target, field = target["witness"], "pairs"
            if drop:
                del target[field]
            else:
                target[field] = value
            return new

        witness_pairs = pair["witness"]["pairs"]
        for field, empty in (("g", ""), ("h", ""), ("mu", 0), ("witness", {}),
                             ("witness.pairs", [])):
            yield f"pair {k} drop {field}", edited(field, None, drop=True)
            yield f"pair {k} empty {field}", edited(field, empty)
            for value in RETYPES:
                yield f"pair {k} retype {field} to {value!r}", edited(field, value)
        swapped = edited("g", pair["h"])
        swapped["pairs"][k]["h"] = pair["g"]
        yield f"pair {k} swap g and h", swapped
        yield f"pair {k} g out of range", edited("g", far)
        yield f"pair {k} h out of range", edited("h", far)
        yield f"pair {k} mu below range", edited("mu", -1)
        yield f"pair {k} mu above range", edited("mu", n + 1)
        yield f"pair {k} witness out of range", edited(
            "witness", {"pairs": witness_pairs + [[n, n]]})
        if witness_pairs:
            i = rng.randrange(len(witness_pairs))
            for side, value in ((0, n), (1, -1)):
                moved = copy.deepcopy(witness_pairs)
                moved[i][side] = value
                yield f"pair {k} witness index {i}.{side} out of range", edited(
                    "witness.pairs", moved)
        reordered = copy.deepcopy(witness_pairs)
        rng.shuffle(reordered)
        yield f"pair {k} reorder witness pairs", edited("witness.pairs", reordered)


def _normal(doc) -> str:
    """The document as JSON text with every witness's pairs in sorted order
    (text, so that true and 1.0 differ from 1)."""
    doc = copy.deepcopy(doc)
    for pair in doc["pairs"]:
        witness = pair.get("witness")
        if isinstance(witness, dict) and isinstance(witness.get("pairs"), list):
            try:
                witness["pairs"] = sorted(witness["pairs"])
            except TypeError:
                pass
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize(
    "name", ["zd2-pass", "zd2-exhausted", "free2-pass", "free2-exhausted",
             "s4-sym-pass", "s4-exhausted"]
)
def test_pair_mutations_fail_cleanly(documents, tmp_path, name):
    doc, far = documents[name]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    genuine = _run(["verify", str(path)])
    assert genuine[:2] == (0, "OK\n"), genuine
    rng = random.Random(f"{SEED}-{name}")
    checked = no_ops = 0
    for label, mutated in _mutations(doc, far, rng):
        path.write_text(json.dumps(mutated))
        code, out, err = _run(["verify", str(path)])
        checked += 1
        assert "Traceback" not in err, label
        if _normal(mutated) == _normal(doc):
            no_ops += 1
            assert (code, out, err) == genuine, label
        elif code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (label, err)
        else:
            assert (code, out) == (1, "FAIL\n"), (label, code, out, err)
    assert checked > 60 and no_ops >= len(doc["pairs"])


# -- whole-document mutations of ramsey-check/1 --------------------------------

RAMSEY_METRICS = {
    "point": {"points": ["p"], "dist": [["0"]]},
    "far-pair": {"points": ["p", "q"], "dist": [["0", "5"], ["5", "0"]]},
    "edge": {"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
    "path3": {"points": ["u", "v", "w"],
              "dist": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]]},
    "path4": {"points": ["c0", "c1", "c2", "c3"],
              "dist": [["0", "1", "2", "3"], ["1", "0", "1", "2"],
                       ["2", "1", "0", "1"], ["3", "2", "1", "0"]]},
}
# a metric-shaped value that is not a metric: distinct points at distance -1
NOT_A_METRIC = {"points": ["p", "q"], "dist": [["0", "-1"], ["-1", "0"]]}
# verify replays the claim and does not read the provenance record
UNREAD = {"manifest"}


@pytest.fixture(scope="module")
def ramsey_documents(tmp_path_factory):
    """name -> genuine ramsey-check/1 report: one that holds, one with a
    counterexample, and one that holds vacuously (emb(A, B) is empty)."""
    work = tmp_path_factory.mktemp("ramsey-mutations")
    files = {name: _write(work / f"{name}.json", m) for name, m in RAMSEY_METRICS.items()}
    specs = {
        "holds": (("point", "edge", "path4"), ["--eps", "1/2"], 0),
        "fails": (("point", "edge", "path3"), ["--eps", "1/2", "--max-family", "1"], 1),
        "vacuous": (("far-pair", "edge", "path4"), ["--eps", "1/3", "--colors", "2"], 0),
    }
    docs = {}
    for name, ((a, b, c), extra, expect) in specs.items():
        out = work / f"{name}-report.json"
        argv = ["ramsey", "check", "--a", files[a], "--b", files[b], "--c", files[c],
                *extra, "--out", str(out)]
        code, _, err = _run(argv)
        assert code == expect, err
        docs[name] = json.loads(out.read_text())
    return docs


def _empty(value):
    return {str: "", dict: {}, list: [], int: 0, bool: False}.get(type(value), [])


def _out_of_range(doc, field) -> list:
    """Values of the right type that the field may not take."""
    k = doc["k"]
    colors = [k + 1] * len(doc["witnesses"][0]["coloring"]) if doc["witnesses"] else [k + 1]
    return {
        "schema": ["ramsey-check/2"],
        "a": [NOT_A_METRIC], "b": [NOT_A_METRIC], "c": [NOT_A_METRIC],
        "k": [0, -1, 10**6],
        "eps": ["0", "1", "-1/2", "3/2"],
        "max_family": [-1],
        "family_budget": [-1],
        "colorings_checked": [-1, doc["colorings_checked"] + 1],
        "witnesses": [doc["witnesses"] + [{"coloring": colors, "family": [0]}]],
        "counterexample": [colors],
    }.get(field, [])


def _ramsey_mutations(doc):
    """(label, touched fields, mutated document) for every top-level field."""
    fields = sorted(doc)
    for field in fields:
        dropped = copy.deepcopy(doc)
        del dropped[field]
        yield f"drop {field}", {field}, dropped
        values = [("empty", _empty(doc[field]))]
        values += [(f"retype to {v!r}", v) for v in RETYPES]
        values += [(f"out of range {v!r}", v) for v in _out_of_range(doc, field)]
        for how, value in values:
            new = copy.deepcopy(doc)
            new[field] = copy.deepcopy(value)
            yield f"{how} {field}", {field}, new
    for i, first in enumerate(fields):
        for second in fields[i + 1:]:
            new = copy.deepcopy(doc)
            new[first], new[second] = doc[second], doc[first]
            yield f"swap {first} and {second}", {first, second}, new


def _claim(doc) -> str:
    """The document as JSON text, without the provenance record."""
    return json.dumps({k: v for k, v in doc.items() if k not in UNREAD}, sort_keys=True)


def _rebuilt(doc) -> str:
    """What ``ramsey check`` emits for the inputs and bounds the document
    records.  A mutated report may verify only if it is this document: the
    genuine report for its own parameters."""
    outcome, a, b, c, max_family, budget = ser.ramsey_outcome_from_json(doc)
    rebuilt = ramsey_condition_check(a, b, c, outcome.k, outcome.eps, max_family, budget)
    return _claim(ser.ramsey_outcome_to_json(rebuilt, a, b, c, max_family, budget))


@pytest.mark.parametrize("name", ["holds", "fails", "vacuous"])
def test_ramsey_document_mutations_fail_cleanly(ramsey_documents, tmp_path, name):
    doc = ramsey_documents[name]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    genuine = _run(["verify", str(path)])
    assert genuine == (0, "OK\n", ""), genuine
    checked = 0
    for label, touched, mutated in _ramsey_mutations(doc):
        path.write_text(json.dumps(mutated))
        result = _run(["verify", str(path)])
        code, out, err = result
        checked += 1
        if json.dumps(mutated, sort_keys=True) == json.dumps(doc, sort_keys=True):
            assert result == genuine, label
        elif touched <= UNREAD and result == genuine:
            pass
        elif code == 0:
            assert out == "OK\n" and _rebuilt(mutated) == _claim(mutated), label
        elif code == 2:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (label, err)
        else:
            assert (code, out) == (1, "FAIL\n"), (label, code, out, err)
    assert checked > 150


def test_search_index_is_the_search_order():
    """The decoder's bound: exact for the true number of embeddings, and
    never above it for fewer (those the largest stored index shows)."""
    for n in range(1, 6):
        order = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n), size) for size in range(1, 5)
        )
        for index, family in enumerate(order):
            assert ser._search_index(list(family), n) == index
            for fewer in range(family[-1] + 1, n):
                assert ser._search_index(list(family), fewer) <= index
