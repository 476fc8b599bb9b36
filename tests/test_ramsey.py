import itertools
import math
import random
from fractions import Fraction

import pytest

from matchcover import ramsey as ramsey_module
from matchcover.bipartite import BipartiteGraph, max_matching
from matchcover.ramsey import (
    MAX_COLORINGS,
    CapExceeded,
    Embedding,
    FinMetric,
    RamseyOutcome,
    _family_holds,
    _hall_mu,
    _images,
    _matcher_mu,
    check_report,
    embeddings,
    ramsey_condition_check,
    ramsey_mu,
)

from oracles import (
    _ramsey_mu_reference,
    compose,
    embeddings_reference,
    finmetric_error_reference,
    max_matching_bruteforce,
    ramsey_check_reference,
    rho,
)


POINT = FinMetric.build(["p"], [["0"]])
EDGE = FinMetric.build(["x", "y"], [["0", "1"], ["1", "0"]])
PATH3 = FinMetric.build(
    ["u", "v", "w"],
    [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
)
SIMPLEX12 = FinMetric.build(
    [f"s{i}" for i in range(12)],
    [[0 if i == j else 1 for j in range(12)] for i in range(12)],
)
PATH4 = FinMetric.build(
    ["c0", "c1", "c2", "c3"],
    [
        ["0", "1", "2", "3"],
        ["1", "0", "1", "2"],
        ["2", "1", "0", "1"],
        ["3", "2", "1", "0"],
    ],
)


def _hall_mu_within(width):
    """``_hall_mu`` that fails on left masks holding more than ``width``
    colors between them, since it walks 2^colors sets."""

    def hall_mu(left, right):
        union = 0
        for mask in left:
            union |= mask
        assert union.bit_count() <= width, f"Hall's defect over {union.bit_count()} colors"
        return _hall_mu(left, right)

    return hall_mu


class TestFinMetric:
    def test_triangle_violation_rejected(self):
        with pytest.raises(ValueError, match="triangle"):
            FinMetric.build(
                ["a", "b", "c"],
                [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
            )

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FinMetric.build(["a", "b"], [["0", "1"], ["2", "0"]])

    def test_zero_off_diagonal_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FinMetric.build(["a", "b"], [["0", "0"], ["0", "0"]])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            FinMetric.build(["a", "b"], [[0, 0.5], [0.5, 0]])

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bools are not accepted"):
            FinMetric.build(["a", "b"], [[0, True], [True, 0]])


def _seeded_distance_matrix(rng, n: int) -> list:
    """A symmetric matrix with a zero diagonal and entries in [1, 2] over
    mixed denominators, so a metric; then, by the draw, one pair pushed to
    the tightest triangle, just past it, or far past it, two pairs at one
    point pushed far, or one entry made asymmetric, diagonal or zero."""
    dist = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.choice([1, 2, 3, 5, 7, 12])
            dist[i][j] = dist[j][i] = Fraction(rng.randint(q, 2 * q), q)
    how = rng.choice(["metric", "tight", "past", "far", "fan", "asym", "diag", "zero"])
    if n >= 4 and how == "fan":  # two failing k for one (i, j)
        a, b, c = rng.sample(range(n), 3)
        dist[a][b] = dist[b][a] = Fraction(rng.randint(13, 30), 2)
        dist[a][c] = dist[c][a] = Fraction(rng.randint(13, 30), 3)
    elif n >= 3 and how in ("tight", "past", "far"):
        a, b = rng.sample(range(n), 2)
        bound = min(dist[a][j] + dist[j][b] for j in range(n) if j not in (a, b))
        extra = {"tight": 0, "past": Fraction(1, rng.choice([6, 35])), "far": 3}[how]
        dist[a][b] = dist[b][a] = bound + extra
    elif n >= 2 and how == "asym":
        a, b = rng.sample(range(n), 2)
        dist[a][b] *= 2
    elif n >= 2 and how == "zero":
        a, b = rng.sample(range(n), 2)
        dist[a][b] = dist[b][a] = Fraction(0)
    elif how == "diag":
        i = rng.randrange(n)
        dist[i][i] = Fraction(1, 3)
    return dist


class TestFinMetricIntegerChecks:
    """The checks run on the matrix scaled by its common denominator; they
    must give the ``Fraction`` route's verdict and its first failing triple."""

    def test_matches_the_fraction_route_on_seeded_matrices(self):
        rng = random.Random(20260)
        verdicts = []
        for _ in range(400):
            n = rng.randint(1, 8)
            points = [f"p{i}" for i in range(n)]
            dist = _seeded_distance_matrix(rng, n)
            want = finmetric_error_reference(points, dist)
            try:
                FinMetric.build(points, dist)
                got = None
            except ValueError as exc:
                got = str(exc)
            assert got == want, (points, dist)
            verdicts.append((want or "metric").split(" at ")[0])  # drop the names
        # every branch is reached, valid and violating alike
        assert set(verdicts) == {
            "metric",
            "triangle inequality fails",
            "distance matrix is not symmetric",
            "nonzero diagonal",
            "distinct points",
        }
        assert verdicts.count("triangle inequality fails") >= 50
        assert verdicts.count("metric") >= 50


class TestEmbeddings:
    def test_point_goes_anywhere(self):
        assert len(embeddings(POINT, PATH4)) == 4

    def test_edge_into_itself(self):
        found = embeddings(EDGE, EDGE)
        assert len(found) == 2
        assert {e.images for e in found} == {(0, 1), (1, 0)}

    def test_edge_into_path3(self):
        assert len(embeddings(EDGE, PATH3)) == 4

    def test_lexicographic_and_duplicate_free(self):
        found = embeddings(EDGE, PATH4)
        images = [e.images for e in found]
        assert images == sorted(images) and len(set(images)) == len(images)

    def test_caps(self):
        big = FinMetric.build(
            [f"p{i}" for i in range(13)],
            [
                ["0" if i == j else str(1 + abs(i - j) % 3) for j in range(13)]
                for i in range(13)
            ],
        )
        with pytest.raises(CapExceeded):
            embeddings(POINT, big)

    def test_non_isometric_rejected(self):
        with pytest.raises(ValueError, match="isometric"):
            Embedding(EDGE, PATH4, (0, 2))


class TestRho:
    def test_self_distance_zero(self):
        e = embeddings(EDGE, PATH3)[0]
        assert rho(e, e) == 0

    def test_symmetric(self):
        found = embeddings(EDGE, PATH3)
        for a in found:
            for b in found:
                assert rho(a, b) == rho(b, a)

    def test_swap_moves_both_points(self):
        ident, swap = embeddings(EDGE, EDGE)
        assert rho(ident, swap) == 1

    def test_mismatched_sources(self):
        with pytest.raises(ValueError):
            rho(embeddings(POINT, EDGE)[0], embeddings(EDGE, EDGE)[0])


class TestCompose:
    def test_all_composites_are_embeddings(self):
        for inner in embeddings(POINT, EDGE):
            for outer in embeddings(EDGE, PATH4):
                out = compose(inner, outer)
                assert out.source == POINT and out.target == PATH4

    def test_chain_mismatch(self):
        with pytest.raises(ValueError):
            compose(embeddings(POINT, EDGE)[0], embeddings(PATH3, PATH4)[0])


class TestRamseyMu:
    def test_constant_family_same_maps_is_perfect(self):
        emb_ab = embeddings(POINT, EDGE)
        emb_bc = embeddings(EDGE, PATH4)
        emb_ac = embeddings(POINT, PATH4)
        phi = {e: i % 2 for i, e in enumerate(emb_ac)}
        psi = [emb_bc[0]] * 3
        alpha = emb_ab[0]
        assert ramsey_mu(psi, alpha, alpha, phi, Fraction(1, 2)) == 3

    def test_single_color_is_perfect(self):
        emb_ab = embeddings(POINT, EDGE)
        emb_bc = embeddings(EDGE, PATH4)
        emb_ac = embeddings(POINT, PATH4)
        phi = {e: 0 for e in emb_ac}
        psi = [emb_bc[0], emb_bc[1], emb_bc[2]]
        assert ramsey_mu(psi, emb_ab[0], emb_ab[1], phi, Fraction(1, 3)) == 3

    def test_point_counting_case_against_bruteforce(self):
        # one-point source and mid space: the family is a multiset of target
        # points; with eps below the minimum distance, edges join equal colors
        emb_ab = embeddings(POINT, POINT)
        emb_bc = embeddings(POINT, PATH3)
        emb_ac = embeddings(POINT, PATH3)
        phi = {e: e.images[0] % 2 for e in emb_ac}
        psi = [emb_bc[0], emb_bc[1], emb_bc[2], emb_bc[1]]
        eps = Fraction(1, 2)
        value = ramsey_mu(psi, emb_ab[0], emb_ab[0], phi, eps)
        colors = [phi[e] for e in (compose(emb_ab[0], p) for p in psi)]
        edges = frozenset(
            (i, j)
            for i in range(4)
            for j in range(4)
            if colors[i] == colors[j]
        )
        graph = BipartiteGraph(tuple(range(4)), tuple(range(4)), edges)
        assert value == max_matching_bruteforce(graph) == 4

    def test_monotone_in_eps(self):
        emb_ab = embeddings(POINT, EDGE)
        emb_bc = embeddings(EDGE, PATH4)
        emb_ac = embeddings(POINT, PATH4)
        phi = {e: i % 2 for i, e in enumerate(emb_ac)}
        psi = [emb_bc[0], emb_bc[1], emb_bc[2]]
        small = ramsey_mu(psi, emb_ab[0], emb_ab[1], phi, Fraction(1, 4))
        large = ramsey_mu(psi, emb_ab[0], emb_ab[1], phi, Fraction(3, 2))
        assert small <= large

    def test_transpose_invariance(self):
        emb_ab = embeddings(POINT, EDGE)
        emb_bc = embeddings(EDGE, PATH4)
        emb_ac = embeddings(POINT, PATH4)
        phi = {e: i % 2 for i, e in enumerate(emb_ac)}
        psi = [emb_bc[0], emb_bc[3], emb_bc[1]]
        for alpha in emb_ab:
            for beta in emb_ab:
                assert ramsey_mu(psi, alpha, beta, phi, Fraction(1, 2)) == ramsey_mu(
                    psi, beta, alpha, phi, Fraction(1, 2)
                )

    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(2)])
    def test_many_colors_against_reference(self, eps, monkeypatch):
        # the 132 embeddings of an edge into 12 equidistant points, each its
        # own color; at eps = 2 every composite lies near all 132 colors
        monkeypatch.setattr(ramsey_module, "_hall_mu", _hall_mu_within(6))
        emb_ab = embeddings(EDGE, EDGE)
        emb_bc = embeddings(EDGE, SIMPLEX12)
        phi = {e: i for i, e in enumerate(embeddings(EDGE, SIMPLEX12))}
        psi = [emb_bc[0], emb_bc[11], emb_bc[1], emb_bc[5]]
        for alpha in emb_ab:
            for beta in emb_ab:
                value = ramsey_mu(psi, alpha, beta, phi, eps)
                assert value == _ramsey_mu_reference(psi, alpha, beta, phi, eps)

    def test_family_must_chain(self):
        emb_ac = embeddings(POINT, PATH4)
        phi = {e: 0 for e in emb_ac}
        alpha = embeddings(POINT, EDGE)[0]
        with pytest.raises(ValueError, match="chain"):
            ramsey_mu([embeddings(PATH3, PATH4)[0]], alpha, alpha, phi, Fraction(1, 2))

    def test_coloring_must_be_total(self):
        emb_ab = embeddings(POINT, EDGE)
        emb_bc = embeddings(EDGE, PATH4)
        emb_ac = embeddings(POINT, PATH4)
        phi = {emb_ac[0]: 0}
        with pytest.raises(ValueError, match="total"):
            ramsey_mu([emb_bc[0]], emb_ab[0], emb_ab[0], phi, Fraction(1, 2))


class TestHallDefect:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_matchers_on_random_mask_graphs(self, k):
        # colors 0..k; masks drawn over all k+1 bits, empty ones included
        rng = random.Random(1955 + k)
        for m in range(7):
            for _ in range(40):
                left = [rng.randrange(1 << (k + 1)) for _ in range(m)]
                right = [rng.randrange(1 << (k + 1)) for _ in range(m)]
                if m and rng.random() < 0.3:
                    left[rng.randrange(m)] = 0
                    right[rng.randrange(m)] = 0
                edges = frozenset(
                    (i, j) for i in range(m) for j in range(m) if left[i] & right[j]
                )
                graph = BipartiteGraph(tuple(range(m)), tuple(range(m)), edges)
                value = _hall_mu(left, right)
                assert value == _matcher_mu(left, right)
                assert value == max_matching(graph)[0] == max_matching_bruteforce(graph)


class TestConditionCheck:
    def test_vacuous_when_no_small_embeddings(self):
        wide = FinMetric.build(["x", "y"], [["0", "5"], ["5", "0"]])
        outcome = ramsey_condition_check(wide, EDGE, PATH4, 1, Fraction(1, 2))
        assert outcome.holds and outcome.vacuous

    def test_b_equals_a_constant_family(self):
        outcome = ramsey_condition_check(EDGE, EDGE, PATH4, 1, Fraction(1, 2))
        assert outcome.holds and not outcome.vacuous
        assert outcome.colorings_checked == 2 ** len(embeddings(EDGE, PATH4))

    def test_desk_case_holds_with_validated_witnesses(self):
        outcome = ramsey_condition_check(POINT, EDGE, PATH4, 1, Fraction(1, 2))
        assert outcome.colorings_checked == 16
        assert outcome.holds
        emb_ab = embeddings(POINT, EDGE)
        emb_ac = embeddings(POINT, PATH4)
        emb_bc = embeddings(EDGE, PATH4)
        for vector, combo in outcome.witnesses:
            phi = {e: c for e, c in zip(emb_ac, vector)}
            psi = [emb_bc[i] for i in combo]
            need = Fraction(1, 2) * len(psi)
            for alpha in emb_ab:
                for beta in emb_ab:
                    assert ramsey_mu(psi, alpha, beta, phi, Fraction(1, 2)) >= need

    def test_cap_guard(self):
        # a point has 12 placements in a 12-point path: 4^12 colorings at k = 3
        assert 4**12 > MAX_COLORINGS
        with pytest.raises(CapExceeded, match="4\\^12"):
            ramsey_condition_check(POINT, EDGE, path(12), 3, Fraction(1, 2))
        # a vacuous check enumerates nothing, so the cap does not apply
        wide = FinMetric.build(["x", "y"], [["0", "5"], ["5", "0"]])
        assert ramsey_condition_check(wide, EDGE, path(12), 3, Fraction(1, 2)).vacuous


def path(n, spacing=1):
    return FinMetric.build(
        [f"p{i}" for i in range(n)],
        [[abs(i - j) * spacing for j in range(n)] for i in range(n)],
    )


def cycle(n, spacing=1):
    return FinMetric.build(
        [f"c{i}" for i in range(n)],
        [[min(abs(i - j), n - abs(i - j)) * spacing for j in range(n)] for i in range(n)],
    )


def random_metric(rng, n, denominators=(1, 2)):
    """Shortest-path metric of a complete graph with random rational weights."""
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 4), rng.choice(denominators))
    for m in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][m] + d[m][j])
    return FinMetric.build([f"r{i}" for i in range(n)], d)


def equivalence_cases():
    rng = random.Random(20150209)
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    cases = [
        # name, expected holds, then a, b, c, k, eps, max_family, family_budget
        ("pt-p3-p5-k1", True, POINT, PATH3, path(5), 1, half, 4, 2000),
        ("pt-p3-p5-k2", True, POINT, PATH3, path(5), 2, half, 4, 2000),
        ("pt-edge-c5-k2", True, POINT, EDGE, cycle(5), 2, half, 4, 2000),
        ("edge-p3-p5-k1", True, EDGE, PATH3, path(5), 1, half, 4, 2000),
        ("edge-c4-p6-fail", False, EDGE, cycle(4), path(6), 1, half, 4, 2000),
        ("pt-p3-p5-small-eps-fail", False, POINT, PATH3, path(5), 1, Fraction(1, 10), 2, 2000),
        # 11 families per coloring are just enough, 10 are not
        ("pt-p3-p6", True, POINT, PATH3, path(6), 1, half, 4, 11),
        ("pt-p3-p6-budget", False, POINT, PATH3, path(6), 1, half, 4, 10),
        # eps equals the spacing: closeness is strict, so neighbours are not near
        ("pt-p3-p5-eps-at-spacing", True, POINT, path(3, half), path(5, half), 1, half, 4, 2000),
        ("vacuous", True, cycle(4), EDGE, path(5), 1, half, 4, 2000),
        # spacing 1/4 < eps: each closeness list holds a point's neighbours too
        ("pt-p3q-p5q-k1", True, POINT, path(3, quarter), path(5, quarter), 1, half, 4, 2000),
        ("pt-p3q-p5q-k2", True, POINT, path(3, quarter), path(5, quarter), 2, half, 4, 2000),
        ("pt-p3-c8", True, POINT, PATH3, cycle(8), 1, half, 4, 2000),
        ("pt-p3h-p5q-k1", True, POINT, path(3, half), path(5, quarter), 1, half, 4, 2000),
        ("pt-p3q-c8q", True, POINT, path(3, quarter), cycle(8, quarter), 1, half, 4, 2000),
    ]
    for i in range(6):
        big = random_metric(rng, rng.randint(3, 5))
        # a sub-space of c, so that b embeds in c and families get searched
        sub = rng.sample(range(len(big)), 2)
        mid = FinMetric.build(["m0", "m1"], [[big.d(x, y) for y in sub] for x in sub])
        eps = Fraction(rng.randint(1, 9), 10)
        budget = rng.choice((5, 40, 2000))
        cases.append((f"random-{i}", None, POINT, mid, big, 1 + i % 2, eps, 3, budget))
    return cases


CASES = equivalence_cases()


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_matches_object_level_reference(case):
    _, holds, *args = case
    outcome = ramsey_condition_check(*args)
    assert outcome == ramsey_check_reference(*args)
    assert holds in (None, outcome.holds)


class TestCheckReport:
    """Replay of a report whose closeness lists hold more than one element.

    B, a path at spacing 1/2, lands on C's points 0, 2 and 4 only.  B's end
    points land on C's ends, whose closeness lists {c0, c1} and {c3, c4} are
    disjoint, so a coloring that splits them needs a family of two.
    """

    SPACES = (POINT, path(3, Fraction(1, 2)), path(5, Fraction(1, 4)))

    def fails(self, vector, family):
        """Whether the family fails for the coloring on the object-level oracle."""
        a, b, c = self.SPACES
        eps = Fraction(1, 2)
        emb_ab, emb_ac, emb_bc = embeddings(a, b), embeddings(a, c), embeddings(b, c)
        phi = dict(zip(emb_ac, vector))
        psi = [emb_bc[i] for i in family]
        return any(
            _ramsey_mu_reference(psi, x, y, phi, eps) < (1 - eps) * len(psi)
            for x in emb_ab
            for y in emb_ab
        )

    def test_genuine_report_passes(self):
        outcome = ramsey_condition_check(*self.SPACES, 1, Fraction(1, 2))
        assert outcome.holds
        assert check_report(outcome, *self.SPACES, 4, 2000).status == "PASS"

    def test_failing_witness_family_is_caught(self):
        a, b, c = self.SPACES
        eps = Fraction(1, 2)
        outcome = ramsey_condition_check(a, b, c, 1, eps)
        # the first witness with a failing single-embedding family, on the oracle
        swaps = (
            (n, vector, (i,))
            for n, (vector, _) in enumerate(outcome.witnesses)
            for i in range(len(embeddings(b, c)))
            if self.fails(vector, (i,))
        )
        n, vector, family = next(swaps)
        witnesses = list(outcome.witnesses)
        witnesses[n] = (vector, family)
        checked = outcome.colorings_checked
        forged = RamseyOutcome(True, False, eps, 1, checked, tuple(witnesses), None)
        report = check_report(forged, a, b, c, 4, 2000)
        assert report.status == "FAIL"
        assert [finding.code for finding in report.findings] == ["witness-fails"]

    @pytest.mark.parametrize("edit", ["short", "long", "huge-color"])
    def test_odd_stored_coloring_is_a_finding(self, edit):
        # decoded colorings are lists of integers of any length and size
        outcome = ramsey_condition_check(*self.SPACES, 1, Fraction(1, 2))
        vector, family = outcome.witnesses[3]
        vector = {
            "short": vector[:2],
            "long": vector + (0,),
            "huge-color": (10**9,) + vector[1:],
        }[edit]
        witnesses = outcome.witnesses[:3] + ((vector, family),) + outcome.witnesses[4:]
        checked = outcome.colorings_checked
        forged = RamseyOutcome(True, False, outcome.eps, 1, checked, witnesses, None)
        report = check_report(forged, *self.SPACES, 4, 2000)
        assert report.status == "FAIL"
        assert report.findings[0].code == "witnesses-mismatch"

    def test_many_color_coloring_stays_off_hall_defect(self, monkeypatch):
        # a stored coloring that gives each of emb(a, c)'s five elements its
        # own color; Hall's defect may only see the k + 1 = 2 colors of a
        # real coloring, or a forged report with many colors takes 2^colors
        monkeypatch.setattr(ramsey_module, "_hall_mu", _hall_mu_within(2))
        outcome = ramsey_condition_check(*self.SPACES, 1, Fraction(1, 2))
        witnesses = list(outcome.witnesses)
        for n, (vector, family) in enumerate(outcome.witnesses):
            wide = tuple(range(len(vector)))
            witnesses[n] = (wide, family)
            forged = RamseyOutcome(
                True, False, outcome.eps, 1, outcome.colorings_checked, tuple(witnesses), None
            )
            report = check_report(forged, *self.SPACES, 4, 2000)
            codes = [finding.code for finding in report.findings]
            failing = [code for code in codes if code == "witness-fails"]
            assert codes[0] == "witnesses-mismatch"
            assert len(failing) == sum(self.fails(v, f) for v, f in witnesses)


# the bench's six ramsey shapes (eps 1/2) and two larger ones
MEMO_CASES = {
    "pt-p3-p5-k2": (POINT, PATH3, path(5), 2, Fraction(1, 2)),
    "pt-p3-p9-k1": (POINT, PATH3, path(9), 1, Fraction(1, 2)),
    "pt-p3-p8-k1": (POINT, PATH3, path(8), 1, Fraction(1, 2)),
    "pt-p3-c8-k1": (POINT, PATH3, cycle(8), 1, Fraction(1, 2)),
    "edge-p3-p5-k1": (EDGE, PATH3, path(5), 1, Fraction(1, 2)),
    "edge-c4-p6-k1": (EDGE, cycle(4), path(6), 1, Fraction(1, 2)),
    "pt-p3-c10-k1": (POINT, PATH3, cycle(10), 1, Fraction(1, 2)),
    "pt-p3-p7-k2-eps3": (POINT, PATH3, path(7), 2, Fraction(1, 3)),
}


class TestVerdictMemo:
    """One check, and one replay, keep each family's verdict under its mask
    matrix and evaluate a matrix only once."""

    @pytest.mark.parametrize("name", list(MEMO_CASES))
    def test_check_and_replay_match_reference(self, name):
        spaces = MEMO_CASES[name]
        outcome = ramsey_condition_check(*spaces)
        assert outcome == ramsey_check_reference(*spaces)
        assert check_report(outcome, *spaces[:3], 4, 2000).status == "PASS"

    def evaluations(self, monkeypatch):
        """Record each mask matrix that ``_family_holds`` evaluates, and fail
        on a ``_hall_mu`` call outside such an evaluation."""
        matrices: list = []
        current: list = []
        family_holds, hall_mu = ramsey_module._family_holds, ramsey_module._hall_mu

        def counting_family_holds(masks, need, mu):
            matrices.append(masks)
            current.append(masks)
            try:
                return family_holds(masks, need, mu)
            finally:
                current.pop()

        def counting_hall_mu(left, right):
            assert current, "Hall's defect run outside a mask matrix evaluation"
            return hall_mu(left, right)

        monkeypatch.setattr(ramsey_module, "_family_holds", counting_family_holds)
        monkeypatch.setattr(ramsey_module, "_hall_mu", counting_hall_mu)
        return matrices

    @pytest.mark.parametrize("name", ["pt-p3-p9-k1", "edge-p3-p5-k1", "pt-p3-c10-k1"])
    def test_each_matrix_is_evaluated_once(self, name, monkeypatch):
        spaces = MEMO_CASES[name]
        matrices = self.evaluations(monkeypatch)
        outcome = ramsey_condition_check(*spaces)
        # many more families are tried than there are distinct matrices
        assert matrices and len(set(matrices)) == len(matrices) < len(outcome.witnesses)
        first = list(matrices)
        matrices.clear()
        assert check_report(outcome, *spaces[:3], 4, 2000).status == "PASS"
        assert matrices and len(set(matrices)) == len(matrices)
        # nothing carries over from one call to the next
        matrices.clear()
        assert ramsey_condition_check(*spaces) == outcome
        assert matrices == first

    def test_many_color_replay_shares_the_memo(self, monkeypatch):
        # a stored coloring with more than k + 1 colors goes to Hopcroft-Karp;
        # its verdicts land in the same dict as Hall's defect's
        spaces = (POINT, path(3, Fraction(1, 2)), path(5, Fraction(1, 4)))
        outcome = ramsey_condition_check(*spaces, 1, Fraction(1, 2))
        wide = tuple(range(len(outcome.witnesses[0][0])))
        witnesses = outcome.witnesses + tuple((wide, family) for _, family in outcome.witnesses)
        forged = RamseyOutcome(
            True, False, outcome.eps, 1, outcome.colorings_checked, witnesses, None
        )
        matrices = self.evaluations(monkeypatch)
        report = check_report(forged, *spaces, 4, 2000)
        assert [f.code for f in report.findings][:1] == ["witnesses-mismatch"]
        assert matrices and len(set(matrices)) == len(matrices)


def sub_space(space, points, prefix):
    """The sub-space of ``space`` on the given point indices."""
    return FinMetric.build(
        [f"{prefix}{i}" for i in range(len(points))],
        [[space.d(x, y) for y in points] for x in points],
    )


def denominator(space):
    return math.lcm(*(x.denominator for row in space.dist for x in row))


class TestIntegerEmbeddings:
    """The kernel finds embeddings on ints, both matrices scaled by one
    common denominator; trying every image tuple on ``Fraction`` distances
    is the reference."""

    def spaces(self):
        rng = random.Random(7411)
        for _ in range(80):
            c = random_metric(rng, rng.randint(2, 6), denominators=(1, 2, 3))
            points = rng.sample(range(len(c)), rng.randint(1, min(3, len(c))))
            # a sub-space embeds; an independent space in thirds mostly not
            yield sub_space(c, points, "a"), c
            yield random_metric(rng, rng.randint(1, 3), denominators=(3,)), c

    def test_matches_the_fraction_route_on_seeded_spaces(self):
        differing = found = 0
        for a, c in self.spaces():
            reference = [e.images for e in embeddings_reference(a, c)]
            assert _images(a, c) == reference
            assert [e.images for e in embeddings(a, c)] == reference
            differing += denominator(a) != denominator(c)
            found += bool(reference)
        assert differing >= 40 and found >= 60

    def test_distances_are_compared_on_one_scale(self):
        # scaled apart, 1/2 and 1/3 would both read 1
        half = FinMetric.build(["x", "y"], [["0", "1/2"], ["1/2", "0"]])
        third = FinMetric.build(["u", "v"], [["0", "1/3"], ["1/3", "0"]])
        assert _images(half, third) == [] and _images(half, half) == [(0, 1), (1, 0)]

    def test_check_and_replay_build_no_embedding(self, monkeypatch):
        spaces = (POINT, path(3, Fraction(1, 2)), path(5, Fraction(1, 4)))
        outcome = ramsey_condition_check(*spaces, 1, Fraction(1, 2))

        def refuse(self):
            raise AssertionError("an Embedding was built")

        monkeypatch.setattr(Embedding, "__post_init__", refuse)
        assert ramsey_condition_check(*spaces, 1, Fraction(1, 2)) == outcome
        assert check_report(outcome, *spaces, 4, 2000).status == "PASS"


class TestFamilyHolds:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_verdict_is_the_same_under_every_permutation(self, k):
        # columns of masks over colors 0..k, one mask per row (alpha)
        rng = random.Random(3301 + k)
        seen = set()
        for _ in range(120):
            rows, size = rng.randint(1, 3), rng.randint(1, 4)
            columns = [
                tuple(rng.randrange(1 << (k + 1)) for _ in range(rows)) for _ in range(size)
            ]
            for need in range(1, size + 1):
                verdicts = {
                    _family_holds(tuple(zip(*order)), need, mu)
                    for order in itertools.permutations(columns)
                    for mu in (_hall_mu, _matcher_mu)
                }
                assert len(verdicts) == 1
                seen |= verdicts
        assert seen == {True, False}


def column_memo_configurations():
    """Seeded (a, b, c, k, eps, max_family, family_budget) with at most 256
    colorings: a is a sub-space of b and b one of c, so families get
    searched, and the budget often ends inside a family size."""
    rng = random.Random(1602)
    configs = []
    while len(configs) < 64:
        c = random_metric(rng, rng.randint(3, 5), denominators=(1, 2, 3))
        points = rng.sample(range(len(c)), rng.randint(2, 3))
        b = sub_space(c, points, "b")
        a = POINT if rng.random() < 0.7 else sub_space(c, points[:2], "a")
        k = 1 + len(configs) % 3
        if (k + 1) ** len(embeddings_reference(a, c)) > 256:
            continue
        eps = rng.choice([Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                          Fraction(2, 3), Fraction(9, 10)])
        n = len(embeddings_reference(b, c))
        max_family = rng.randint(1, 4)
        budget = rng.choice([rng.randint(1, n), rng.randint(n + 1, n * (n + 3) // 2), 2000])
        configs.append((a, b, c, k, eps, max_family, budget))
    return configs


MEMO_CONFIGS = column_memo_configurations()


@pytest.mark.parametrize("config", MEMO_CONFIGS, ids=[f"config-{i}" for i in range(64)])
def test_column_memo_matches_reference(config):
    outcome = ramsey_condition_check(*config)
    assert outcome == ramsey_check_reference(*config)
    assert check_report(outcome, *config[:3], *config[5:]).status == "PASS"


def test_column_memo_configurations_cover_the_search():
    outcomes = [ramsey_condition_check(*config) for config in MEMO_CONFIGS]
    assert {config[3] for config in MEMO_CONFIGS} == {1, 2, 3}
    assert {config[5] for config in MEMO_CONFIGS} == {1, 2, 3, 4}
    assert len({config[4] for config in MEMO_CONFIGS}) >= 5
    holds = [outcome.holds for outcome in outcomes]
    assert holds.count(True) >= 10 and holds.count(False) >= 10
    # a witness past the first family size, or a failure cut by the budget
    assert any(len(family) > 1 for o in outcomes for _, family in o.witnesses)
    assert any(
        not o.holds and config[6] < 2000 for o, config in zip(outcomes, MEMO_CONFIGS)
    )


def family_fails_reference(spaces, eps, vector, family) -> bool:
    """Whether a family fails for a coloring, on the object-level oracle."""
    a, b, c = spaces
    emb_ab, emb_ac, emb_bc = (embeddings_reference(x, y) for x, y in ((a, b), (a, c), (b, c)))
    phi = dict(zip(emb_ac, vector))
    psi = [emb_bc[i] for i in family]
    return any(
        _ramsey_mu_reference(psi, x, y, phi, eps) < (1 - eps) * len(psi)
        for x in emb_ab
        for y in emb_ab
    )


def test_replay_keys_families_on_the_multiset():
    # stored families with repeated members, whose verdict may differ from
    # that of the set of their members
    spaces = (POINT, PATH3, path(5))
    rng = random.Random(4401)
    n_ac, n_bc = len(embeddings_reference(POINT, path(5))), len(embeddings_reference(PATH3, path(5)))
    vectors = list(itertools.product(range(2), repeat=n_ac))
    differs = False
    for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
        witnesses = tuple(
            (vector, tuple(sorted(rng.choices(range(n_bc), k=rng.randint(2, 4)))))
            for vector in vectors
        )
        forged = RamseyOutcome(True, False, eps, 1, len(vectors), witnesses, None)
        findings = check_report(forged, *spaces, 4, 2000).findings
        fails = [family_fails_reference(spaces, eps, v, f) for v, f in witnesses]
        assert [finding.message for finding in findings] == [
            f"family {list(f)} fails for coloring {list(v)}"
            for (v, f), failing in zip(witnesses, fails)
            if failing
        ]
        as_sets = [family_fails_reference(spaces, eps, v, sorted(set(f))) for v, f in witnesses]
        differs |= fails != as_sets
    assert differs
