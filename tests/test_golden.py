"""Byte-for-byte guard over a fixed corpus of emitted documents.

Every command runs in-process in a fresh directory, with relative paths and
SOURCE_DATE_EPOCH=0, so each output file is fully determined by the code.
A refactor must reproduce these digests.  A change that alters emitted bytes
on purpose must say which bytes and why, and record the new digests here.
"""

import hashlib
import json

import pytest

from matchcover.cli import dispatch
from matchcover.groups import symmetric_group

INPUTS = {
    "overlap.json": {
        "ground": [str(i) for i in range(-10, 11)],
        "blocks": [[str(j) for j in range(i, i + 3)] for i in range(-10, 9, 2)],
    },
    "graph.json": {
        "left": [f"l{i}" for i in range(14)],
        "right": [f"r{j}" for j in range(12)],
        "edges": [
            [i, j]
            for i in range(14)
            for j in range(12)
            if (j < 3 if i < 6 else (3 * i + 5 * j) % 7 < 2)
        ],
    },
    "left.json": [str(i) for i in range(-4, 3)],
    "right.json": [str(i) for i in range(-1, 6)],
    "f2-ball2.json": ["1", "a", "A", "b", "B", "aa", "ab", "aB", "AA", "Ab", "AB",
                      "ba", "bA", "bb", "Ba", "BA", "BB"],
    "a.json": {"points": ["p"], "dist": [["0"]]},
    "b.json": {"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
    "c.json": {
        "points": ["c0", "c1", "c2", "c3", "c4"],
        "dist": [[str(abs(i - j)) for j in range(5)] for i in range(5)],
    },
    "s4.json": symmetric_group(4).describe(),
}

# (output file, argv, expected exit code)
CORPUS = [
    ("balls-pass.json",
     ["folner", "search", "--group", "zd2", "--coloring", "parity",
      "--e", "1,0;0,1", "--theta", "4/5", "--max-radius", "8"], 0),
    ("balls-exhausted.json",
     ["folner", "search", "--group", "zd2", "--coloring", "parity",
      "--e", "1,0;0,1", "--theta", "99/100", "--max-radius", "5"], 1),
    ("sym.json",
     ["folner", "search", "--group", "zd2", "--coloring", "parity",
      "--e", "0,0;1,0;0,1", "--theta", "3/4", "--mode", "sym",
      "--max-radius", "8"], 0),
    ("overlap-cert.json",
     ["folner", "search", "--group", "zd1", "--cover", "overlap.json",
      "--e", "2;-3", "--theta", "7/10", "--max-radius", "6"], 0),
    ("local-f2.json",
     ["folner", "search", "--group", "free2", "--coloring", "first-letter",
      "--e", "a;b", "--theta", "9/10", "--strategy", "local",
      "--budget", "150", "--seed", "3"], 1),
    ("sweep.csv",
     ["sweep", "--group", "zd2", "--theta-grid", "1/2:1:1/8",
      "--max-radius", "5"], 0),
    ("sweep-sym-overlap.csv",
     ["sweep", "--group", "zd1", "--cover", "overlap.json", "--e", "0;2;-3",
      "--mode", "sym", "--theta-grid", "1/2:1:1/4", "--max-radius", "6"], 0),
    ("adversary-f2.json",
     ["folner", "adversary", "--group", "free2", "--f-file", "f2-ball2.json",
      "--e", "a;b;ab", "--colors", "2", "--budget", "600", "--seed", "4"], 0),
    ("sweep-zd3.csv",
     ["sweep", "--group", "zd3", "--e", "1,0,0;0,1,1", "--theta-grid", "1/2:1:1/4",
      "--max-radius", "4"], 0),
    ("balls-free2-exhausted.json",
     ["folner", "search", "--group", "free2", "--coloring", "first-letter",
      "--e", "a;b;aB", "--theta", "99/100", "--max-radius", "3"], 1),
    ("match.json",
     ["match", "--graph", "graph.json", "--deficiency", "--json"], 0),
    ("mu.json",
     ["mu", "--cover", "overlap.json", "--left", "left.json",
      "--right", "right.json", "--json"], 0),
    ("ramsey.json",
     ["ramsey", "check", "--a", "a.json", "--b", "b.json", "--c", "c.json",
      "--colors", "1", "--eps", "1/2", "--seed", "2"], 0),
    # V is the Klein four-group, |F| = 6, and 12 of the 24 matchings move
    ("net-s4.json",
     ["folner", "net", "--group", "s4.json", "--u", "0123;1032;2301;3210;1023",
      "--json"], 0),
]

DIGESTS = {
    "balls-pass.json": "279f2a59807a56f06069ced0aaf50225e9fa91c9885062f7415de5a78779a868",
    "balls-exhausted.json": "9ed9d94352203852df616a007356e7a7c6d0e04b76298115a2cbeb705f86eec8",
    "sym.json": "8ed15347bfe9d2e53745c811f4840fe393e91b7b6b50c64cd0096d68bf0cad2e",
    "overlap-cert.json": "ba31ae4263a9ff9701edcc46662b31d0634c4bf238b08b57efc5ed7f4d04d63f",
    "local-f2.json": "e7b986f856e02bee4714ec146aa9a9a0a0f8caf1a5a98f9f1086f3288febac3a",
    "sweep.csv": "cc9d26c3aa71767e46f6a7a1d956555129a1d53f01388584d02dc0af387df3a1",
    "sweep-sym-overlap.csv": "53f1ce0bc87556eea39bda5b5438b96f2f54303cf7115db32f8c7f4a9c2b6acb",
    "adversary-f2.json": "a413999e07dea110e76dbf029a63a344ae04e7f3d35df11a6633b4303fcd720c",
    "sweep-zd3.csv": "38bea0e0c432819e2fe6f00995cd0a0336fe83c7c925b5c0097193b46938a6c5",
    "balls-free2-exhausted.json": "759e982e59225d71df480819b1829afbb18a7f66669b59a6052a8640d1076f14",
    "match.json": "2f881cd7c14f59e32db11dc61104b25852761875f645a6c45a28f359460a6fd7",
    "mu.json": "38c7e46f4b3cb650659545340b5782e6427e96d8447116b0aee9e885f7b3df2a",
    "ramsey.json": "450972ed261221f6951f8030c1effb1b29984097a9a649bb3272bc23121eeb25",
    "net-s4.json": "f03f53e224efc31f5835ae56bbce5eb20ecb2f72fc4ba52b7ecdf901f46a687f",
}


def run_corpus(directory) -> dict:
    """Write the inputs into ``directory``, run the corpus there, hash outputs.

    The caller must already have made ``directory`` the working directory.
    """
    for name, obj in INPUTS.items():
        (directory / name).write_text(json.dumps(obj))
    digests = {}
    for out, argv, expected in CORPUS:
        code = dispatch(argv + ["--out", out])
        assert code == expected, (out, code)
        digests[out] = hashlib.sha256((directory / out).read_bytes()).hexdigest()
    return digests


@pytest.fixture
def corpus_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    return tmp_path


def test_corpus_bytes_unchanged(corpus_dir):
    assert run_corpus(corpus_dir) == DIGESTS
