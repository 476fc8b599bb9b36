"""Seeded inputs, job mixes and independent result checks for each workload.

A workload turns its seed into input files (colorings, coverings, graphs,
group tables, metric spaces, a replay corpus) and a fixed list of CLI jobs.
The program only ever sees those files and argv.  The seed changes labels,
translate sets, shifts, edges, tamper positions and distance scales, never
the size class of a job, so the work per pass stays put across seeds.

Every job carries the exit code the CLI contract requires (0 PASS, 1 FAIL or
EXHAUSTED, 2 invalid input) and a check that does not share a route with the
job: closed forms and brute force written in this file, or the CLI's own
`verify` (the checker route) for certificates and reports.  Nothing here
imports matchcover.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


@dataclass
class JobRun:
    rc: int
    stdout: str
    stderr: str
    seconds: float


@dataclass
class Job:
    name: str
    argv: list
    expect: int
    outputs: tuple = ()
    check: Callable | None = None  # (JobRun) -> list of problems


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return str(path)


def _load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# -- Z^d ---------------------------------------------------------------------


def l1_ball(d: int, r: int) -> list:
    if d == 1:
        return [(x,) for x in range(-r, r + 1)]
    return [
        (x,) + rest for x in range(-r, r + 1) for rest in l1_ball(d - 1, r - abs(x))
    ]


def l1_shell(d: int, r: int) -> list:
    return [v for v in l1_ball(d, r) if sum(map(abs, v)) == r]


def zd_str(v) -> str:
    return ",".join(str(x) for x in v)


def parity_split(d: int, r: int) -> tuple:
    """(even, odd) point counts of the l1 ball; even means even coordinate sum."""
    ball = l1_ball(d, r)
    even = sum(1 for v in ball if sum(v) % 2 == 0)
    return even, len(ball) - even


def parity_mu(d: int, r: int) -> int:
    """mu(F, gF) under the parity partition for F the r-ball and g odd."""
    even, odd = parity_split(d, r)
    return 2 * min(even, odd)


def first_passing_radius(d: int, theta: Fraction, max_radius: int) -> int | None:
    for r in range(max_radius + 1):
        size = len(l1_ball(d, r))
        if parity_mu(d, r) >= math.ceil(theta * size):
            return r
    return None


def write_parity_coloring(path: Path, d: int, radius: int, rng) -> str:
    """Parity coloring of an l1 ball, with seeded color labels."""
    swap = rng.randrange(2)
    pts = l1_ball(d, radius)
    return _write_json(
        path,
        {"ground": [zd_str(v) for v in pts], "colors": [(sum(v) + swap) % 2 for v in pts], "k": 1},
    )


def write_parity_squares_cover(path: Path, radius: int, rng) -> str:
    """Non-partition covering of the Z^2 l1 ball: 4x4 squares at stride 3,
    shifted by a seeded offset, each split by parity.  Squares overlap, so
    the search needs the general matcher; parity keeps mu(F, gF) below
    2*min(even, odd) for odd g, so a ball search never reaches theta near 1."""
    ox, oy = rng.randrange(3), rng.randrange(3)
    ground = l1_ball(2, radius)
    inside = set(ground)
    blocks = []
    lo = -radius - 3
    for ax in range(lo + ox, radius + 1, 3):
        for ay in range(lo + oy, radius + 1, 3):
            for parity in (0, 1):
                block = [
                    zd_str((x, y))
                    for x in range(ax, ax + 4)
                    for y in range(ay, ay + 4)
                    if (x, y) in inside and (x + y) % 2 == parity
                ]
                if block:
                    blocks.append(block)
    return _write_json(path, {"ground": [zd_str(v) for v in ground], "blocks": blocks})


# -- free group F_2: words over a, A (= a^-1), b, B ---------------------------

F2_LETTERS = "aAbB"


def fg_mul(u: str, v: str) -> str:
    out = list(u)
    for ch in v:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def fg_ball(r: int) -> list:
    seen = {""}
    frontier = [""]
    for _ in range(r):
        nxt = []
        for w in frontier:
            for s in F2_LETTERS:
                x = fg_mul(w, s)
                if x not in seen:
                    seen.add(x)
                    nxt.append(x)
        frontier = nxt
    return sorted(seen, key=lambda w: (len(w), w))


def fg_str(w: str) -> str:
    return w or "1"


def write_first_letter_coloring(path: Path, radius: int, rng) -> str:
    """First-letter coloring of the F_2 ball with seeded labels 1..4 (identity 0)."""
    labels = [1, 2, 3, 4]
    rng.shuffle(labels)
    code = dict(zip(F2_LETTERS, labels))
    words = fg_ball(radius)
    return _write_json(
        path,
        {
            "ground": [fg_str(w) for w in words],
            "colors": [code[w[0]] if w else 0 for w in words],
            "k": 4,
        },
    )


def f2_translate_set(rng) -> list:
    """Two generators, one from {a, A} and one from {b, B}."""
    return [rng.choice("aA"), rng.choice("bB")]


# -- finite groups ------------------------------------------------------------


def symmetric_table(n: int) -> tuple:
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["".join(map(str, p)) for p in perms]
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return names, table, perms


def cycle_type(p) -> tuple:
    seen, lengths = set(), []
    for i in range(len(p)):
        length = 0
        while i not in seen:
            seen.add(i)
            i = p[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def table_inverse(table) -> list:
    n = len(table)
    e = next(x for x in range(n) if all(table[x][y] == y for y in range(n)))
    return [next(y for y in range(n) if table[x][y] == e) for x in range(n)]


# -- checks --------------------------------------------------------------------


def _rc_matches_schema(run: JobRun, doc: dict) -> list:
    want = 0 if doc.get("schema") == "folner-certificate/1" else 1
    if run.rc != want:
        return [f"exit {run.rc} but document schema {doc.get('schema')!r}"]
    return []


def certificate_check(runner, out: str, f_size: int | None = None) -> Callable:
    """The emitted certificate must replay through `verify` with exit 0,
    agree with the job's exit code, and have the expected |F|."""

    def check(run: JobRun) -> list:
        try:
            doc = _load(out)
        except (OSError, ValueError) as exc:
            return [f"no certificate: {exc}"]
        problems = _rc_matches_schema(run, doc)
        if f_size is not None and len(doc["f"]) != f_size:
            problems.append(f"|F| = {len(doc['f'])}, expected {f_size}")
        replay = runner.run(["verify", out])
        if replay.rc != 0:
            problems.append(f"verify exit {replay.rc}: {replay.stderr.strip()[:200]}")
        return problems

    return check


def sweep_check(out: str, d: int, max_radius: int, thetas: list) -> Callable:
    """Every CSV row against the parity closed form (all translates odd)."""

    def check(run: JobRun) -> list:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(thetas) * (max_radius + 1):
            return [f"{len(rows)} rows"]
        problems = []
        expected = []
        for theta in thetas:
            for r in range(max_radius + 1):
                size = len(l1_ball(d, r))
                mu = parity_mu(d, r)
                expected.append((theta, r, size, mu, mu >= math.ceil(theta * size)))
        for row, (theta, r, size, mu, passed) in zip(rows, expected):
            got = (
                Fraction(row["theta"]),
                int(row["radius"]),
                int(row["f_size"]),
                int(row["min_mu"]),
                row["pass"] == "True",
            )
            if got != (theta, r, size, mu, passed) or Fraction(row["min_ratio"]) != Fraction(mu, size):
                problems.append(f"row {row} != {(theta, r, size, mu, passed)}")
        return problems[:3]

    return check


def adversary_check(out: str, f_words: list, e_words: list) -> Callable:
    """Recompute the reported min ratio from the emitted coloring: for a
    partition, mu(F, gF) is the sum over colors of min of the two counts."""

    def check(run: JobRun) -> list:
        doc = _load(out)
        color = dict(zip(doc["coloring"]["ground"], doc["coloring"]["colors"]))
        worst = None
        for g in e_words:
            left = [fg_str(w) for w in f_words]
            right = [fg_str(fg_mul(g, w)) for w in f_words]
            if any(x not in color for x in left + right):
                return ["coloring misses part of the window"]
            value = 0
            for c in set(color[x] for x in left + right):
                value += min(
                    sum(1 for x in left if color[x] == c), sum(1 for x in right if color[x] == c)
                )
            worst = value if worst is None else min(worst, value)
        ratio = Fraction(worst, len(f_words))
        if Fraction(doc["min_ratio"]) != ratio:
            return [f"min ratio {doc['min_ratio']} != recomputed {ratio}"]
        return []

    return check


def match_check(out: str, graph: dict) -> Callable:
    """size + deficiency = |left|; the witness is a matching of that size;
    the reported S has |S| - |N(S)| equal to the deficiency."""

    def check(run: JobRun) -> list:
        doc = _load(out)
        edges = {tuple(e) for e in graph["edges"]}
        nl = len(graph["left"])
        problems = []
        pairs = [tuple(p) for p in doc["witness"]["pairs"]]
        if len(pairs) != doc["size"]:
            problems.append("witness size differs from the matching size")
        if any(p not in edges for p in pairs):
            problems.append("witness pair is not an edge")
        if len({i for i, _ in pairs}) != len(pairs) or len({j for _, j in pairs}) != len(pairs):
            problems.append("witness is not injective")
        if doc["size"] + doc["deficiency"] != nl:
            problems.append(f"size {doc['size']} + deficiency {doc['deficiency']} != {nl}")
        position = {name: i for i, name in enumerate(graph["left"])}
        subset = {position[name] for name in doc["deficiency_witness"]}
        nbrs = {j for i, j in edges if i in subset}
        if len(subset) - len(nbrs) != doc["deficiency"]:
            problems.append("|S| - |N(S)| differs from the deficiency")
        return problems

    return check


def net_check(out: str, table: list, names: list, u_idx: list) -> Callable:
    """V is the core of U, V*F covers G, and every translate gF is matched
    perfectly to F in the covering by the right translates of U^-1 U."""

    def check(run: JobRun) -> list:
        doc = _load(out)
        n = len(table)
        inv = table_inverse(table)
        core = set(range(n))
        for g in range(n):
            core &= {table[table[inv[g]][x]][g] for x in u_idx}
        index = {name: i for i, name in enumerate(names)}
        problems = []
        if [index[v] for v in doc["v"]] != sorted(core):
            problems.append("V is not the core of U")
        f_idx = [index[f] for f in doc["f"]]
        if {table[v][f] for v in core for f in f_idx} != set(range(n)):
            problems.append("V*F does not cover the group")
        w_set = {table[inv[x]][y] for x in u_idx for y in u_idx}
        blocks_of: list = [set() for _ in range(n)]
        for x in range(n):
            for w in w_set:
                blocks_of[table[w][x]].add(x)
        if len(doc["matchings"]) != n:
            problems.append(f"{len(doc['matchings'])} matchings for {n} translates")
        for item in doc["matchings"]:
            g = index[item["g"]]
            gf = sorted({table[g][f] for f in f_idx})
            pairs = item["witness"]["pairs"]
            if len(pairs) != len(f_idx) or len({i for i, _ in pairs}) != len(pairs) or len(
                {j for _, j in pairs}
            ) != len(pairs):
                problems.append(f"translate {item['g']}: not a perfect matching")
                break
            if any(not (blocks_of[f_idx[i]] & blocks_of[gf[j]]) for i, j in pairs):
                problems.append(f"translate {item['g']}: pair outside every block")
                break
        return problems

    return check


def isometric_maps(a: dict, c: dict) -> int:
    """Count isometric maps between metric-space documents by brute force."""
    da = [[Fraction(x) for x in row] for row in a["dist"]]
    dc = [[Fraction(x) for x in row] for row in c["dist"]]
    n = len(da)
    return sum(
        1
        for images in itertools.product(range(len(dc)), repeat=n)
        if all(dc[images[i]][images[j]] == da[i][j] for i in range(n) for j in range(n))
    )


def ramsey_check(out: str, a: dict, c: dict, k: int) -> Callable:
    """A report that holds carries one witness per coloring of emb(A, C)."""

    def check(run: JobRun) -> list:
        doc = _load(out)
        if run.rc != (0 if doc["holds"] else 1):
            return [f"exit {run.rc} for holds = {doc['holds']}"]
        if not doc["holds"]:
            return [] if doc["counterexample"] is not None else ["no counterexample"]
        total = (k + 1) ** isometric_maps(a, c)
        colorings = {tuple(w["coloring"]) for w in doc["witnesses"]}
        problems = []
        if doc["colorings_checked"] != total or len(doc["witnesses"]) != total:
            problems.append(f"{len(doc['witnesses'])} witnesses for {total} colorings")
        if len(colorings) != len(doc["witnesses"]):
            problems.append("a coloring is witnessed twice")
        if any(not w["family"] for w in doc["witnesses"]):
            problems.append("empty witness family")
        return problems

    return check


def replay_check(expect_word: str) -> Callable:
    def check(run: JobRun) -> list:
        if run.stdout.strip() != expect_word:
            return [f"verify printed {run.stdout.strip()!r}, expected {expect_word!r}"]
        return []

    return check


# -- workloads -------------------------------------------------------------------


def build_search(seed: int, work: Path, runner) -> list:
    """Candidate search without large certificates: `groups` dominates."""
    rng = _rng("search", seed)
    jobs = []
    thetas = [Fraction(9, 10), Fraction(99, 100)]
    grid = "9/10:99/100:9/100"
    for d, radius, e_norm, count in ((2, 30, 3, 4), (2, 26, 3, 4), (3, 11, 1, 4)):
        e_set = rng.sample(l1_shell(d, e_norm), count)
        coloring = write_parity_coloring(work / f"zd{d}-r{radius}-parity.json", d, radius + e_norm, rng)
        out = str(work / f"sweep-zd{d}-r{radius}.csv")
        jobs.append(
            Job(
                f"sweep-zd{d}-r{radius}",
                ["sweep", "--group", f"zd{d}", "--coloring", coloring,
                 "--e=" + ";".join(zd_str(g) for g in e_set), "--theta-grid", grid,
                 "--max-radius", str(radius), "--out", out],
                0,
                (out,),
                sweep_check(out, d, radius, thetas),
            )
        )
    coloring = write_first_letter_coloring(work / "free2-first-letter.json", 5, rng)
    for i in range(2):
        e_set = f2_translate_set(rng)
        out = str(work / f"ball-free2-{i}.json")
        jobs.append(
            Job(
                f"ball-free2-{i}",
                ["folner", "search", "--group", "free2", "--coloring", coloring,
                 "--e=" + ";".join(e_set), "--theta", "99/100", "--max-radius", "4",
                 "--out", out],
                1,
                (out,),
                certificate_check(runner, out, f_size=161),
            )
        )
    for i in range(2):
        e_set = f2_translate_set(rng)
        out = str(work / f"local-free2-{i}.json")
        jobs.append(
            Job(
                f"local-free2-{i}",
                ["folner", "search", "--group", "free2", "--coloring", coloring,
                 "--e=" + ";".join(e_set), "--theta", "99/100", "--strategy", "local",
                 "--budget", "2500", "--seed", str(rng.randrange(10**6)), "--out", out],
                1,
                (out,),
                certificate_check(runner, out),
            )
        )
    f_words = fg_ball(3)
    f_file = _write_json(work / "free2-ball3.json", [fg_str(w) for w in f_words])
    for i in range(2):
        e_set = f2_translate_set(rng)
        out = str(work / f"adversary-free2-{i}.json")
        jobs.append(
            Job(
                f"adversary-free2-{i}",
                ["folner", "adversary", "--group", "free2", "--f-file", f_file,
                 "--e=" + ";".join(e_set), "--colors", "2", "--budget", "24000",
                 "--seed", str(rng.randrange(10**6)), "--out", out],
                0,
                (out,),
                adversary_check(out, f_words, e_set),
            )
        )
    return jobs


def _ball_search(name, work, runner, d, radius, theta, e_set, coloring, mode="asym",
                 expect=1, f_size=None, cover=None) -> Job:
    out = str(work / f"{name}.json")
    source = ["--cover", cover] if cover else ["--coloring", coloring]
    return Job(
        name,
        ["folner", "search", "--group", f"zd{d}", *source,
         "--e=" + ";".join(zd_str(g) for g in e_set), "--theta", theta, "--mode", mode,
         "--max-radius", str(radius), "--out", out],
        expect,
        (out,),
        certificate_check(runner, out, f_size=f_size),
    )


def build_certify(seed: int, work: Path, runner) -> list:
    """Jobs that emit large certificates: `bipartite` dominates."""
    rng = _rng("certify", seed)
    jobs = []
    e2 = rng.sample(l1_shell(2, 3), 4)
    col2 = write_parity_coloring(work / "zd2-parity.json", 2, 17, rng)
    jobs.append(_ball_search("exhaust-zd2-r14", work, runner, 2, 14, "99/100", e2, col2,
                             f_size=len(l1_ball(2, 14))))
    e3 = rng.sample(l1_shell(3, 1), 4)
    col3 = write_parity_coloring(work / "zd3-parity.json", 3, 8, rng)
    jobs.append(_ball_search("exhaust-zd3-r7", work, runner, 3, 7, "99/100", e3, col3,
                             f_size=len(l1_ball(3, 7))))
    sym_e = rng.sample(l1_shell(2, 1), 3) + [rng.choice(l1_shell(2, 2))]
    jobs.append(_ball_search("sym-zd2-r12", work, runner, 2, 12, "99/100", sym_e, col2,
                             mode="sym"))
    pass_e = rng.sample(l1_shell(2, 3), 4)
    r_pass = first_passing_radius(2, Fraction(93, 100), 14)
    jobs.append(_ball_search("pass-zd2", work, runner, 2, 14, "93/100", pass_e, col2, expect=0,
                             f_size=len(l1_ball(2, r_pass))))
    cover = write_parity_squares_cover(work / "zd2-squares.json", 13, rng)
    unit_e = [(rng.choice((1, -1)), 0), (0, rng.choice((1, -1)))]
    jobs.append(_ball_search("cover-zd2-r12", work, runner, 2, 12, "99/100", unit_e, None,
                             cover=cover))

    names, table, perms = symmetric_table(5)
    group = _write_json(work / "s5.json", {"kind": "table", "elements": names, "mul": table})
    u_perms = [p for p in perms if cycle_type(p) in ((1, 1, 1, 1, 1), (1, 1, 3))]
    u_perms.append(rng.choice([p for p in perms if cycle_type(p) == (1, 1, 1, 2)]))
    u_idx = [perms.index(p) for p in u_perms]
    out = str(work / "net-s5.json")
    jobs.append(
        Job(
            "net-s5",
            ["folner", "net", "--group", group, "--u=" + ";".join(names[i] for i in u_idx),
             "--out", out],
            0,
            (out,),
            net_check(out, table, names, u_idx),
        )
    )
    for nl, nr in ((17, 17), (18, 18), (19, 19), (400, 400), (800, 700)):
        edges = sorted({(i, rng.randrange(nr)) for i in range(nl) for _ in range(3)})
        graph = {
            "left": [f"l{i}" for i in range(nl)],
            "right": [f"r{j}" for j in range(nr)],
            "edges": [list(e) for e in edges],
        }
        path = _write_json(work / f"graph-{nl}.json", graph)
        out = str(work / f"match-{nl}.json")
        jobs.append(
            Job(
                f"match-{nl}",
                ["match", "--graph", path, "--deficiency", "--json", "--out", out],
                0,
                (out,),
                match_check(out, graph),
            )
        )
    return jobs


def _tamper(doc: dict, how: str, rng) -> dict:
    doc = json.loads(json.dumps(doc))
    pair = doc["pairs"][rng.randrange(len(doc["pairs"]))]
    if how == "mu":
        pair["mu"] += 1
    elif how == "witness":
        pairs = pair["witness"]["pairs"]
        i = rng.randrange(1, len(pairs))
        pairs[i] = list(pairs[i - 1])  # one left vertex matched twice
    elif how == "status":
        doc["status"] = "FAIL"
    elif how == "best_ratio":
        doc["best_ratio"] = str(Fraction(doc["best_ratio"]) - Fraction(1, len(doc["f"])))
    return doc


def build_replay(seed: int, work: Path, runner) -> list:
    """`verify` only, over a corpus emitted here by certify-like jobs:
    `bipartite` on the checker route dominates."""
    rng = _rng("replay", seed)
    corpus = work / "corpus"
    corpus.mkdir(exist_ok=True)
    col2 = write_parity_coloring(corpus / "zd2-parity.json", 2, 17, rng)
    col3 = write_parity_coloring(corpus / "zd3-parity.json", 3, 8, rng)
    colf = write_first_letter_coloring(corpus / "free2-first-letter.json", 5, rng)
    names, table, _ = symmetric_table(4)
    s4 = _write_json(corpus / "s4.json", {"kind": "table", "elements": names, "mul": table})
    s4_e = rng.sample(names[1:], 3)
    s4_colors = [rng.randrange(2) for _ in names]
    s4_colors[0], s4_colors[names.index(s4_e[0])] = 0, 1  # radius 0 cannot pass
    cols4 = _write_json(corpus / "s4-coloring.json", {"ground": names, "colors": s4_colors, "k": 1})

    def zd_e(d, norm, count):
        return "--e=" + ";".join(zd_str(g) for g in rng.sample(l1_shell(d, norm), count))

    mixed_e = "--e=" + ";".join(
        zd_str(g) for g in rng.sample(l1_shell(2, 1), 3) + [rng.choice(l1_shell(2, 2))]
    )
    mixed_e3 = "--e=" + ";".join(
        zd_str(g) for g in rng.sample(l1_shell(3, 1), 2) + [rng.choice(l1_shell(3, 2))]
    )
    specs = [
        # name, argv after "folner search", exit code
        ("zd2-exhausted", ["--group", "zd2", "--coloring", col2, zd_e(2, 3, 4),
                           "--theta", "99/100", "--max-radius", "14"], 1),
        ("zd2-pass", ["--group", "zd2", "--coloring", col2, zd_e(2, 3, 4),
                      "--theta", "9/10", "--max-radius", "14"], 0),
        ("zd3-exhausted", ["--group", "zd3", "--coloring", col3, zd_e(3, 1, 4),
                           "--theta", "99/100", "--max-radius", "6"], 1),
        ("zd2-sym-exhausted", ["--group", "zd2", "--coloring", col2, mixed_e, "--mode", "sym",
                               "--theta", "99/100", "--max-radius", "11"], 1),
        ("zd3-sym-exhausted", ["--group", "zd3", "--coloring", col3, mixed_e3, "--mode", "sym",
                               "--theta", "99/100", "--max-radius", "4"], 1),
        ("free2-exhausted", ["--group", "free2", "--coloring", colf,
                             "--e=" + ";".join(f2_translate_set(rng)),
                             "--theta", "99/100", "--max-radius", "4"], 1),
        ("free2-pass", ["--group", "free2", "--coloring", colf,
                        "--e=" + ";".join(f2_translate_set(rng)),
                        "--theta", "2/5", "--max-radius", "4"], 0),
        ("s4-pass", ["--group", s4, "--coloring", cols4, "--e=" + ";".join(s4_e),
                     "--theta", "1", "--max-radius", "2"], 0),
        ("s4-sym-pass", ["--group", s4, "--coloring", cols4, "--e=" + ";".join(s4_e),
                         "--mode", "sym", "--theta", "1", "--max-radius", "2"], 0),
    ]
    jobs = []
    docs = {}
    for name, argv, code in specs:
        out = str(corpus / f"{name}.json")
        built = runner.run(["folner", "search", *argv, "--out", out])
        if built.rc != code:
            raise RuntimeError(f"corpus job {name} exited {built.rc}: {built.stderr.strip()}")
        docs[name] = _load(out)
        jobs.append(Job(f"verify-{name}", ["verify", out], 0, (), replay_check("OK")))
    for name, how in (("zd2-exhausted", "mu"), ("zd3-exhausted", "witness"),
                      ("zd2-sym-exhausted", "best_ratio"), ("zd2-pass", "status")):
        path = _write_json(corpus / f"{name}-tampered-{how}.json", _tamper(docs[name], how, rng))
        jobs.append(Job(f"verify-{name}-tampered-{how}", ["verify", path], 1, (),
                        replay_check("FAIL")))
    return jobs


def _metric_doc(rng, prefix: str, dist: list, scale: Fraction) -> dict:
    """Metric space with seeded point names, distances multiplied by scale."""
    names = [f"{prefix}{i}-{rng.randrange(10**4)}" for i in range(len(dist))]
    return {"points": names, "dist": [[str(scale * x) for x in row] for row in dist]}


def _path(n: int) -> list:
    return [[abs(i - j) for j in range(n)] for i in range(n)]


def _cycle(n: int) -> list:
    return [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]


def build_ramsey(seed: int, work: Path, runner) -> list:
    """`ramsey check` on small metric spaces, each followed by `verify` of its
    report: the only workload that loads `ramsey`."""
    rng = _rng("ramsey", seed)
    point = [[0]]
    cases = [
        # name, A, B, C, k, exit code
        ("pt-p3-p5-k2", point, _path(3), _path(5), 2, 0),
        ("pt-p3-p9-k1", point, _path(3), _path(9), 1, 0),
        ("pt-p3-p8-k1", point, _path(3), _path(8), 1, 0),
        ("pt-p3-c8-k1", point, _path(3), _cycle(8), 1, 0),
        ("edge-p3-p5-k1", _path(2), _path(3), _path(5), 1, 0),
        ("edge-c4-p6-k1", _path(2), _cycle(4), _path(6), 1, 1),
    ]
    jobs = []
    for name, a, b, c, k, code in cases:
        # A seeded whole scale, shared by A, B and C.  With eps < 1 distinct
        # points stay farther apart than eps, so the answer is the same.
        scale = Fraction(rng.randint(1, 5))
        docs = [
            _metric_doc(rng, prefix, dist, scale)
            for prefix, dist in (("a", a), ("b", b), ("c", c))
        ]
        paths = [_write_json(work / f"{name}-{p}.json", doc) for p, doc in zip("abc", docs)]
        out = str(work / f"{name}-report.json")
        jobs.append(
            Job(
                f"check-{name}",
                ["ramsey", "check", "--a", paths[0], "--b", paths[1], "--c", paths[2],
                 "--colors", str(k), "--eps", "1/2", "--seed", str(rng.randrange(10**6)),
                 "--out", out],
                code,
                (out,),
                ramsey_check(out, docs[0], docs[2], k),
            )
        )
        jobs.append(Job(f"verify-{name}", ["verify", out], 0, (), replay_check("OK")))
    return jobs


WORKLOADS = {
    "search": build_search,
    "certify": build_certify,
    "replay": build_replay,
    "ramsey": build_ramsey,
}
