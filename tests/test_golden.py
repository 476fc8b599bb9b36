"""Byte-for-byte guard over a fixed corpus of emitted documents.

Every command runs in-process in a fresh directory, with relative paths and
SOURCE_DATE_EPOCH=0, so each output file is fully determined by the code.
A refactor must reproduce these digests.  A change that alters emitted bytes
on purpose must say which bytes and why, and record the new digests here.

``verify`` is guarded the same way: the digest of its exit code, stdout and
stderr on every golden certificate and report, and on fixed tampered copies
of the certificates, pins its findings, not only the emitted bytes.
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


# the documents ``verify`` replays
VERIFIED = (
    "balls-pass.json",
    "balls-exhausted.json",
    "sym.json",
    "overlap-cert.json",
    "local-f2.json",
    "balls-free2-exhausted.json",
    "ramsey.json",
)


def _tamper_mu(doc):
    doc["pairs"][-1]["mu"] -= 1


def _tamper_witness(doc):
    del doc["pairs"][-1]["witness"]["pairs"][0]


def _tamper_status(doc):
    doc["status"] = "FAIL" if doc["status"] == "PASS" else "PASS"


def _tamper_best_ratio(doc):
    doc["best_ratio"] = "1"  # a search that ran out stays below theta <= 1


# each applies to every golden Folner document that has the field
TAMPERS = {
    "mu": _tamper_mu,
    "witness": _tamper_witness,
    "status": _tamper_status,
    "best_ratio": _tamper_best_ratio,
}

TRANSCRIPTS = {
    "balls-pass.json": "08c606e99c15d94cb53d694afba83891b1a1f8dee6c164982c571b0539bef01e",
    "balls-pass.json:mu": "4db3fa9fc0576b307b7d09d929125fc4b57fe433b987a8d576f73fb8ac3b3618",
    "balls-pass.json:witness": "12a10ddbb3348cbb8d7c752a21112a3b1befc685c7789f3d33ff41246977a6e5",
    "balls-pass.json:status": "dbe6a810d7c9babf1816a082accc97becc4da4472c2cb673fc4aaecd4771aea5",
    "balls-exhausted.json": "b41d97c375172eb0871a3bf37d4f5cc5e1873526783a13ffe40c0b1772710411",
    "balls-exhausted.json:mu": "e8d89bf090b93464a3f365e89716fd6284b5db20c1c5a7c202dfedf3349085df",
    "balls-exhausted.json:witness": "058fc6f3e4d31164b79f952029e2308a2282a097c179be39ac92bbae14dc7e57",
    "balls-exhausted.json:status": "812ea09f6f63b3166c9ea52803f499d9cce6d3761d178ddc6d167b28e3c3f5f8",
    "balls-exhausted.json:best_ratio": "81b91db19fcc36f1c59690bfbac48b84b8a7f8e4a9607860b467eb315b5dbff9",
    "sym.json": "08c606e99c15d94cb53d694afba83891b1a1f8dee6c164982c571b0539bef01e",
    "sym.json:mu": "b79d02d99348b70c0bd22598b685ad97846ea0d4e530b1b4032b1d954f7b6403",
    "sym.json:witness": "a7c315c3135bccce4313dfd0ba655a852e7270bad0864fa8fc1d84d478e635d7",
    "sym.json:status": "dbe6a810d7c9babf1816a082accc97becc4da4472c2cb673fc4aaecd4771aea5",
    "overlap-cert.json": "08c606e99c15d94cb53d694afba83891b1a1f8dee6c164982c571b0539bef01e",
    "overlap-cert.json:mu": "77124f32a041936073ff96e2f2e9a1aecd6f205f7aa3cd36cfab5e4aab306581",
    "overlap-cert.json:witness": "923d66c1d797f296ac2e887f4fc8a42ff807fa5d2e9f06a578b83e7e9bb7caa6",
    "overlap-cert.json:status": "dbe6a810d7c9babf1816a082accc97becc4da4472c2cb673fc4aaecd4771aea5",
    "local-f2.json": "8b37adc1b77dd6e409a8f91cac428a2882db99529b37940e977780e6e3997a63",
    "local-f2.json:mu": "330a6c1889d60ae553a19bb2da75c42978f9f8aa7b442a7b544c77d51ccca714",
    "local-f2.json:witness": "ba3dcc88ba9d7d37b9f94781ed6015f2c69af17b7440a452c918b91b1ef80bf5",
    "local-f2.json:status": "9bcb22832a8361cb60d8f39933ea613e2f91da4ba81ee9192fa89113a1c54fb2",
    "local-f2.json:best_ratio": "ff175428f7bbbcfc2c127d609efd1b14fe2c95e3051b30694528b5a29552c1ef",
    "balls-free2-exhausted.json": "c899eb61d7d45f98f96cef893158b4d0bec73b81e2e2b9fb1292a9c727b6e36a",
    "balls-free2-exhausted.json:mu": "ec5a50957c03bef27e753f70a91553e4d0110f5735834f3f95ffa8c3b19599b0",
    "balls-free2-exhausted.json:witness": "dd8870b2cccfe85f24be792012de6679eb79cd7e3de8fe7f4c0b6446a580d060",
    "balls-free2-exhausted.json:status": "77c6bd9bcd664dc157133ff9a07c9101c1c39048e429297a8e9e432fcbcd00fd",
    "balls-free2-exhausted.json:best_ratio": "b71b234034781425a8e8ac161065c4a7a318f307e16385084c86af0cfdbe9747",
    "ramsey.json": "08c606e99c15d94cb53d694afba83891b1a1f8dee6c164982c571b0539bef01e",
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


def verify_transcripts(directory, capsys) -> dict:
    """sha256 of ``verify``'s (exit code, stdout, stderr) on each golden
    document in ``VERIFIED``, and on each tamper of each golden Folner
    document that has the field, keyed ``<file>`` or ``<file>:<tamper>``.

    The corpus must already have been run in ``directory``.
    """
    documents = []
    for name in VERIFIED:
        doc = json.loads((directory / name).read_text())
        documents.append((name, doc))
        if doc["schema"].startswith("folner-"):
            for how, tamper in TAMPERS.items():
                if how in doc or how in ("mu", "witness"):
                    copy = json.loads(json.dumps(doc))
                    tamper(copy)
                    documents.append((f"{name}:{how}", copy))
    capsys.readouterr()
    digests = {}
    for key, doc in documents:
        (directory / "replayed.json").write_text(json.dumps(doc))
        code = dispatch(["verify", "replayed.json"])
        out, err = capsys.readouterr()
        digests[key] = hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()
    return digests


def test_verify_transcripts_unchanged(corpus_dir, capsys):
    run_corpus(corpus_dir)
    assert verify_transcripts(corpus_dir, capsys) == TRANSCRIPTS
