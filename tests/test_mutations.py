"""Seeded pair-level mutation suite for ``verify`` on certificate documents.

Genuine PASS and EXHAUSTED certificates on Z^2, F_2 and S_4 are emitted by
``folner search``.  Every stored pair then has each of its fields ``g``,
``h``, ``mu``, ``witness`` and ``witness.pairs`` dropped, emptied, retyped,
swapped (g with h) or pushed out of range, one mutation per document.  A
mutated document must exit 1 (the claim fails) or 2 (invalid input, one
``error:`` line), and no exception may escape ``dispatch``.  A mutation that
leaves the document as it was (reordering witness pairs, emptying an empty
witness) must verify exactly as the original does.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from matchcover.cli import dispatch
from matchcover.groups import symmetric_group

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
