"""``serialize.canonical_dumps`` writes what ``json.dumps`` writes.

The writer must give ``json.dumps(doc, sort_keys=True, indent=2,
ensure_ascii=False) + "\\n"`` byte for byte: on every document the golden
corpus emits, on seeded random JSON aimed at its fast paths (lists of
strs, of ints and of int pairs) and at their edges, and it must refuse a
float, which no exact document holds, as it refuses any other type and a
key that is not a str.
"""

import json
import random

import pytest

from matchcover import serialize as ser
from matchcover.serialize import canonical_dumps

from test_golden import CORPUS, run_corpus


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def test_every_golden_document(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    docs = []
    writer = ser.canonical_dumps

    def recording(doc):
        docs.append(doc)
        return writer(doc)

    monkeypatch.setattr(ser, "canonical_dumps", recording)
    run_corpus(tmp_path)
    written = set()
    for doc in docs:
        text = writer(doc)
        assert text == reference(doc)
        written.add(text)
    for out, _, _ in CORPUS:  # every JSON output was one of the compared documents
        if out.endswith(".json"):
            assert (tmp_path / out).read_text(encoding="utf-8") in written, out


# characters that json escapes, or that are easy to escape wrongly
CHARS = ['a', 'Z', ' ', '"', '\\', '/', '\x00', '\x01', '\x1f', '\x7f', '\n', '\t',
         '\b', '\f', '\r', '\u2028', '\u2029', 'é', 'ß', '漢', '\U0001f600', '\ud800']
ATOMS = [0, 1, -1, 7, 10**40, -(10**40) + 3, True, False, None]


def random_str(rng) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(5)))


def random_value(rng, depth: int = 0):
    shape = rng.randrange(12 if depth < 4 else 5)
    if shape == 0:
        return random_str(rng)
    if shape == 1:
        return rng.choice(ATOMS)
    if shape == 2:  # would-be int lists, now and then with a bool or None inside
        seq = [rng.choice([-3, 0, 5, 10**40]) for _ in range(rng.randrange(5))]
        if seq and rng.random() < 0.3:
            seq[rng.randrange(len(seq))] = rng.choice([True, False, None, "1"])
        return seq if rng.random() < 0.8 else tuple(seq)
    if shape == 3:  # would-be pair lists: bools, ragged, tuples, longer rows
        seq = [[rng.randrange(-9, 40), rng.randrange(50)] for _ in range(rng.randrange(5))]
        if seq and rng.random() < 0.5:
            k = rng.randrange(len(seq))
            seq[k] = rng.choice(
                [[True, 1], [1, False], [3], [1, 2, 3], [], (4, 5), ("1", 2), [None, 0]]
            )
        return seq
    if shape == 4:
        return rng.choice([[], {}, (), [[]], [{}], {"": []}, [[1, 2], [3]], [(1, 2), [3, 4]]])
    if shape < 8:
        seq = [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
        return seq if shape % 2 else tuple(seq)
    return {random_str(rng): random_value(rng, depth + 1) for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("seed", range(4))
def test_seeded_random_json(seed):
    rng = random.Random(seed)
    for _ in range(1500):
        doc = {random_str(rng): random_value(rng) for _ in range(rng.randrange(6))}
        assert canonical_dumps(doc) == reference(doc), doc


@pytest.mark.parametrize(
    "doc",
    [
        {"pairs": [[1, 2], [True, 3]]},
        {"pairs": [[1, 2], [3]]},
        {"pairs": ((1, 2), (3, 4))},
        {"ints": [1, True, 0, False]},
        {"strs": ["a", " ", None]},
        {"big": [10**40, -(10**40)], "neg": [[-1, -2]]},
        {"b": 1, "a": {"d": 2, "c": 3}, "é": 4, "Z": 5},
        {"": {}, "e": [], "t": (), "n": None, "b": [True, False]},
    ],
    ids=["bool-pair", "ragged", "tuple-pairs", "bool-ints", "str-null", "big-ints",
         "key-order", "empties"],
)
def test_fast_path_edges(doc):
    assert canonical_dumps(doc) == reference(doc)


@pytest.mark.parametrize(
    "doc",
    [{"x": 0.5}, {"x": [1, 2.0]}, {"x": [[1, 2], [3, 4.0]]}, {"x": {1, 2}}, {"x": {0.5: 1}},
     {"x": {1: "a"}}],
)
def test_floats_other_types_and_other_keys_are_refused(doc):
    """No exact document holds a float, a set or a key that is not a str."""
    with pytest.raises(TypeError):
        canonical_dumps(doc)
