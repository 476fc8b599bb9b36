"""Acceptance gate: each test pins one numbered criterion at exact arithmetic.

Every check is tolerance-zero (integers and Fractions throughout); the only
stated budgets are wall-clock ceilings, asserted per criterion.  One summary
line is printed per criterion (visible with -s or in captured output).
"""

import json
import random
import time
from fractions import Fraction

from matchcover.bipartite import (
    covering_graph,
    hall_deficiency,
    max_matching,
    mu,
    mu_partition,
    validate_witness,
)
from matchcover.cli import dispatch
from matchcover.cover import Covering, GroundSet, star_iterate
from matchcover.folner import (
    BallsStrategy,
    Coloring,
    adversary_coloring,
    check_certificate,
    folner_search,
    perfect_net,
)
from matchcover.groups import FreeGroup, IntegerLattice, cyclic_group, symmetric_group
from matchcover.means import (
    ConvexCombination,
    convolve,
    dirac,
    rationalize,
    uniform,
)
from matchcover.ramsey import FinMetric, embeddings, ramsey_condition_check, ramsey_mu

from lemmas import (
    FiniteFunction,
    function_modulus,
    moore_gap,
    push_function,
    theta_boost_check,
)
from oracles import (
    hall_deficiency_bruteforce,
    max_matching_bruteforce,
    random_covering,
    random_graph,
    random_partition,
    random_subset,
    right_translate_covering,
)

Z = IntegerLattice(1)
F2 = FreeGroup(2)


def report(n, label):
    print(f"criterion {n}: PASS - {label}")


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.seconds, f"budget {self.seconds}s exceeded: {elapsed:.1f}s"


def test_c01_hall_identity():
    budget = Budget(10)
    rng = random.Random(101)
    for _ in range(500):
        g = random_graph(rng, 12, 12, density=rng.uniform(0.1, 0.7))
        size, witness = max_matching(g)
        validate_witness(g, witness)
        deficiency, subset = hall_deficiency(g)  # Koenig: built from a matching
        assert size == len(g.left) - deficiency
        idx = {a: i for i, a in enumerate(g.left)}
        nbrs = {j for (i, j) in g.edges if g.left[i] in set(subset)}
        assert len(subset) - len(nbrs) == deficiency
        # independent route: subset enumeration, no matching involved
        assert (deficiency, subset) == hall_deficiency_bruteforce(g)
    budget.check()
    report(1, "matching size + Hall deficiency = |left|, deficiency and subset"
              " equal to subset enumeration, on 500 graphs")


def test_c02_matching_oracle_equivalence():
    budget = Budget(30)
    rng = random.Random(102)
    for _ in range(500):
        g = random_graph(rng, 8, 8, density=rng.uniform(0.1, 0.8))
        assert max_matching(g)[0] == max_matching_bruteforce(g)
    budget.check()
    report(2, "augmenting-path optimum = exhaustive-injection optimum on 500 graphs")


def test_c03_composition_inequality():
    budget = Budget(60)
    rng = random.Random(103)
    for _ in range(500):
        ground = rng.randint(3, 10)
        u = random_covering(rng, ground)
        n = rng.randint(2, 4)
        chain = [random_subset(rng, range(ground)) for _ in range(n + 1)]
        lhs = mu(chain[0], chain[-1], star_iterate(u, n - 1))
        rhs = sum(mu(chain[i], chain[i + 1], u) for i in range(n)) - sum(
            len(set(chain[i])) for i in range(1, n)
        )
        assert lhs >= rhs
    budget.check()
    report(3, "n-fold star composition bound holds on 500 random chains (n <= 4)")


def test_c04_partition_closed_form():
    budget = Budget(30)
    rng = random.Random(104)
    for _ in range(500):
        ground = rng.randint(3, 10)
        p = random_partition(rng, ground)
        e = random_subset(rng, range(ground))
        f = random_subset(rng, range(ground))
        assert mu_partition(e, f, p) == mu(e, f, p)
    budget.check()
    report(4, "partition closed form equals general matching number on 500 instances")


def test_c05_z_certificates_and_moore_bound():
    budget = Budget(60)
    rng = random.Random(105)
    for m in (1, 2, 3):
        e_set = [(j,) for j in range(-m, m + 1) if j != 0]
        for eps in (Fraction(1, 10), Fraction(1, 20)):
            theta = 1 - eps
            max_radius = int(-(-m * eps.denominator // eps.numerator)) + m  # ceil(m/eps) + m
            window = Z.ball(max_radius + m)
            ground = GroundSet(window)
            for _ in range(17):
                k = rng.randint(1, 3)
                coloring = Coloring(
                    ground, tuple(rng.randint(0, k) for _ in window), k
                )
                result = folner_search(
                    Z, e_set, coloring, theta, strategy=BallsStrategy(max_radius)
                )
                assert result.status == "PASS"
                assert check_certificate(result.certificate).ok
    for _ in range(1000):
        m = rng.randint(1, 3)
        n = rng.randint(5, 40)
        f = [(i,) for i in range(n)]
        g = (rng.choice([-1, 1]) * rng.randint(1, m),)
        window = [(i,) for i in range(-3, n + 4)]
        a = random_subset(rng, window, allow_empty=True)
        assert moore_gap(Z, f, g, a, window) <= abs(g[0]) <= m
    budget.check()
    report(5, "interval certificates PASS at 1-eps for 102 colorings; gap <= m on 1000 subsets")


def test_c06_f2_adversarial_demonstration():
    budget = Budget(30)
    f = F2.ball(2)
    assert len(f) == 17
    af = F2.translate((1,), f)
    window = sorted(set(f) | set(af), key=F2.sort_key)
    ground = GroundSet(window)
    a_class = [w for w in window if w and w[0] == 1]
    cover = Covering(ground, [a_class, [w for w in window if w not in set(a_class)]])
    # the exhaustive-injection oracle fixes the value before it is pinned
    oracle_value = max_matching_bruteforce(covering_graph(f, af, cover))
    assert mu(f, af, cover) == oracle_value == 8
    ratio = Fraction(oracle_value, len(f))
    assert ratio == Fraction(8, 17)
    coloring, found = adversary_coloring(F2, f, [(1,)], 1)
    assert found == ratio
    gf = F2.translate((1,), f)
    assert found == Fraction(mu(f, gf, coloring.partition()), 17)
    budget.check()
    report(6, "first-letter 2-coloring gives oracle value 8/17; the adversary's overlap coloring matches it")


def test_c07_perfect_nets():
    budget = Budget(10)
    z6 = cyclic_group(6)
    net = perfect_net(z6, [0, 1])
    assert net.v_set == (0, 1) and net.f_set == (0, 2, 4) and net.minimal

    s3 = symmetric_group(3)
    z12 = cyclic_group(12)
    cases = [
        (z6, [0, 1]),
        (s3, [s3.identity, s3.parse_elem("102")]),
        (s3, [s3.parse_elem("012"), s3.parse_elem("120"), s3.parse_elem("201")]),
        (z12, [0, 1]),
        (z12, [0, 1, 2]),
    ]
    for model, u in cases:
        result = perfect_net(model, u)
        cover = right_translate_covering(model, u)
        # the lookup perfect_net joins by: a and b share a block W*x exactly
        # when b*a^-1 lies in W*W, with W = U^-1 U
        w_set = {model.multiply(model.inverse(x), y) for x in u for y in u}
        ww = {model.multiply(w, v) for w in w_set for v in w_set}
        for a in range(model.order):
            for b in range(model.order):
                share = not cover.blocks_of[a].isdisjoint(cover.blocks_of[b])
                assert share == (model.multiply(b, model.inverse(a)) in ww)
        assert len(result.matchings) == model.order
        for g, witness in result.matchings:
            gf = model.translate(g, result.f_set)
            graph = covering_graph(result.f_set, gf, cover)
            validate_witness(graph, witness)
            assert len(witness) == len(result.f_set)
            assert hall_deficiency(graph)[0] == 0  # neighborhood condition
            assert max_matching(graph)[0] == len(graph.left)
    budget.check()
    report(7, "perfect nets with all-translate perfect matchings on Z/6, S3 x2, Z/12 x2")


def _random_mean(rng, model, pool, max_support=5):
    support = rng.sample(pool, rng.randint(1, max_support))
    raw = [rng.randint(1, 9) for _ in support]
    total = sum(raw)
    return ConvexCombination(
        model, {g: Fraction(r, total) for g, r in zip(support, raw)}
    )


def test_c08_means_algebra():
    budget = Budget(30)
    rng = random.Random(108)
    pool_z = [(i,) for i in range(-4, 5)]
    pool_f = list(F2.ball(1))
    for model, pool in ((Z, pool_z), (F2, pool_f)):
        for _ in range(150):
            a = _random_mean(rng, model, pool)
            b = _random_mean(rng, model, pool)
            c = _random_mean(rng, model, pool)
            left = convolve(convolve(a, b), c)
            right = convolve(a, convolve(b, c))
            assert left == right
            assert sum(w for _, w in left.items()) == 1
            products = {model.multiply(x, y) for x in a.support for y in b.support}
            assert set(convolve(a, b).support) <= products
    for _ in range(100):
        g = (rng.randint(-5, 5),)
        h = (rng.randint(-5, 5),)
        assert convolve(dirac(Z, g), dirac(Z, h)) == dirac(Z, Z.multiply(g, h))

    z8 = cyclic_group(8)
    index2 = Covering(GroundSet(range(8)), [[0, 2, 4, 6], [1, 3, 5, 7]])
    index4 = Covering(GroundSet(range(8)), [[0, 4], [1, 5], [2, 6], [3, 7]])
    all_indicators = [
        FiniteFunction(z8, {x: Fraction((mask >> x) & 1) for x in range(8)})
        for mask in range(256)
    ]
    for _ in range(50):
        nu = _random_mean(rng, z8, list(range(8)), max_support=4)
        for partition in (index2, index4):
            for f in all_indicators:
                eps = function_modulus(f, partition)
                pushed = FiniteFunction(
                    z8, {x: push_function(f, nu, x) for x in range(8)}
                )
                assert function_modulus(pushed, partition) <= eps
    budget.check()
    report(8, "convolution algebra exact on 300 triples; push preserves coset modulus for all 256 indicators")


def test_c09_rationalize_contract():
    budget = Budget(30)
    rng = random.Random(109)
    for _ in range(1000):
        m = rng.randint(1, 8)
        raw = [rng.randint(1, 99) for _ in range(m)]
        total = sum(raw)
        alpha = {i: Fraction(r, total) for i, r in enumerate(raw)}
        theta = Fraction(rng.randint(1, 1000), 1000)
        beta, n, gamma = rationalize(alpha, theta)
        assert set(beta) == set(alpha)
        assert sum(gamma.values()) == n
        assert all(isinstance(c, int) and c >= 1 for c in gamma.values())
        assert all(beta[k] == Fraction(gamma[k], n) for k in beta)
        assert sum(abs(alpha[k] - beta[k]) for k in alpha) <= theta
    budget.check()
    report(9, "rationalize meets the L1 bound with positive integer parts on 1000 draws")


def test_c10_theta_boost():
    budget = Budget(60)
    for theta0, seed in ((Fraction(3, 4), 1101), (Fraction(9, 10), 1102)):
        outcome = theta_boost_check(theta0, trials=100, seed=seed)
        assert outcome["checked"] == 100
        assert outcome["violations"] == []
    budget.check()
    report(10, "2*theta0-1 bound in the star covering holds on 200 constructed instances")


def test_c11_ramsey_desk_case():
    budget = Budget(30)
    a = FinMetric.build(["p"], [["0"]])
    b = FinMetric.build(["x", "y"], [["0", "1"], ["1", "0"]])
    c = FinMetric.build(
        ["c0", "c1", "c2", "c3"],
        [
            ["0", "1", "2", "3"],
            ["1", "0", "1", "2"],
            ["2", "1", "0", "1"],
            ["3", "2", "1", "0"],
        ],
    )
    assert len(embeddings(a, c)) == 4  # 2^4 = 16 colorings, full enumeration
    outcome = ramsey_condition_check(a, b, c, 1, Fraction(1, 2))
    assert outcome.colorings_checked == 16
    assert outcome.holds and not outcome.vacuous
    emb_ab = embeddings(a, b)
    emb_ac = embeddings(a, c)
    emb_bc = embeddings(b, c)
    for vector, combo in outcome.witnesses:
        phi = {e: col for e, col in zip(emb_ac, vector)}
        psi = [emb_bc[i] for i in combo]
        need = Fraction(1, 2) * len(psi)
        for alpha in emb_ab:
            for beta in emb_ab:
                assert ramsey_mu(psi, alpha, beta, phi, Fraction(1, 2)) >= need
    budget.check()
    report(11, "full 16-coloring enumeration holds; every witness re-validates")


def test_c12_certificate_replay(tmp_path, monkeypatch):
    budget = Budget(60)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    ramsey_inputs = {
        "a.json": {"points": ["p"], "dist": [["0"]]},
        "b.json": {"points": ["x", "y"], "dist": [["0", "1"], ["1", "0"]]},
        "c.json": {
            "points": ["c0", "c1", "c2", "c3"],
            "dist": [
                ["0", "1", "2", "3"],
                ["1", "0", "1", "2"],
                ["2", "1", "0", "1"],
                ["3", "2", "1", "0"],
            ],
        },
    }
    commands = {
        "pass.json": [
            "folner", "search", "--group", "zd1", "--coloring", "parity",
            "--e", "1;-1", "--theta", "9/10", "--max-radius", "10",
            "--out", "pass.json",
        ],
        "exhausted.json": [
            "folner", "search", "--group", "free2", "--coloring", "first-letter",
            "--e", "a;b", "--theta", "9/10", "--max-radius", "3",
            "--out", "exhausted.json",
        ],
        "ramsey.json": [
            "ramsey", "check", "--a", "a.json", "--b", "b.json", "--c", "c.json",
            "--colors", "1", "--eps", "1/2", "--out", "ramsey.json",
        ],
    }
    emitted = {}
    for run in ("one", "two"):
        run_dir = tmp_path / run
        run_dir.mkdir()
        for name, payload in ramsey_inputs.items():
            (run_dir / name).write_text(json.dumps(payload))
        monkeypatch.chdir(run_dir)
        for out_name, argv in commands.items():
            code = dispatch(list(argv))
            assert code in (0, 1)
            emitted.setdefault(out_name, []).append((run_dir / out_name).read_bytes())
            assert dispatch(["verify", out_name]) == 0
    for name, blobs in emitted.items():
        assert blobs[0] == blobs[1], f"{name} differs between runs"
    budget.check()
    report(12, "three document kinds byte-identical across runs and verified")
