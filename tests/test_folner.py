import copy
import csv
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from matchcover.bipartite import MatchingWitness, _match_rows, mu, mu_partition, mu_with_witness
from matchcover.cover import Covering, GroundSet, join
from matchcover import bipartite, folner
from matchcover.folner import (
    BallsStrategy,
    Coloring,
    LocalSetStrategy,
    WindowEscape,
    adversary_coloring,
    build_certificate,
    check_certificate,
    folner_search,
    monochromatic_translate,
    perfect_net,
    required_pairs,
    theta_threshold,
)
from matchcover.groups import (
    FreeGroup,
    GroupError,
    IntegerLattice,
    cyclic_group,
    symmetric_group,
)
from matchcover.serialize import certificate_to_json, canonical_dumps

from lemmas import (
    cantor_check,
    compose_matchings,
    moore_gap,
    rotation_action,
    theta_boost_check,
)
from oracles import (
    adversary_exhaustive_reference,
    ball_reference,
    check_pair_reference,
    folner_search_reference,
    max_matching_bruteforce,
    perfect_net_reference,
    random_covering,
    random_partition,
    random_subset,
    right_translate_covering,
    sweep_reference,
)
from matchcover.bipartite import covering_graph
from matchcover.cli import _search_window, builtin_coloring, dispatch

Z = IntegerLattice(1)
Z2 = IntegerLattice(2)
F2 = FreeGroup(2)


def translate_witness(model, shift, left, right, witness):
    """Reindex a matching between ``left`` and ``right`` after translating
    both by ``shift``, into the canonical orders of shift*left and
    shift*right."""
    left_pos = {a: i for i, a in enumerate(model.translate(shift, left))}
    right_pos = {a: j for j, a in enumerate(model.translate(shift, right))}
    pairs = [
        (left_pos[model.multiply(shift, left[li])],
         right_pos[model.multiply(shift, right[ri])])
        for li, ri in witness.pairs
    ]
    return MatchingWitness(tuple(sorted(pairs)))


def z_atoms(lo, hi):
    return [(i,) for i in range(lo, hi + 1)]


def z_parity_cover(lo, hi):
    ground = GroundSet(z_atoms(lo, hi))
    evens = [(i,) for i in range(lo, hi + 1) if i % 2 == 0]
    odds = [(i,) for i in range(lo, hi + 1) if i % 2 == 1]
    return Covering(ground, [evens, odds])


def first_letter_coloring(window):
    """F2 window colored by leading letter; the empty word gets its own color."""
    ground = GroundSet(sorted(set(window), key=F2.sort_key))

    def code(w):
        if not w:
            return 0
        return 2 * w[0] - 1 if w[0] > 0 else -2 * w[0]

    return Coloring(ground, tuple(code(w) for w in ground.atoms), 4)


class TestThreshold:
    def test_integral_theta(self):
        assert theta_threshold(Fraction(1, 2), 10) == 5

    def test_fractional_rounds_up(self):
        assert theta_threshold(Fraction(9, 10), 17) == 16

    @pytest.mark.parametrize("theta", [0.1, 0.5, True])
    def test_inexact_theta_is_rejected(self, theta):
        # 0.1 is 3602879701896397/36028797018963968 as a float, which would
        # give ceil(theta*10) = 2 where 1/10 gives 1
        with pytest.raises(TypeError, match="not accepted for exact rationals"):
            theta_threshold(theta, 10)

    @pytest.mark.parametrize("theta", [0.1, False])
    def test_builders_reject_inexact_theta(self, theta):
        cover = z_parity_cover(-1, 10)
        f = z_atoms(0, 9)
        for build in (
            lambda: build_certificate(Z, f, [(1,)], cover, theta),
            lambda: folner_search(Z, [(1,)], cover, theta, strategy=BallsStrategy(2)),
        ):
            with pytest.raises(ValueError, match="not accepted for exact rationals"):
                build()

    def test_zero_denominator_theta_is_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            theta_threshold("1/0", 10)


class TestRequiredPairs:
    def test_asym_pairs_anchor_identity(self):
        pairs = required_pairs(Z, [(1,), (-1,)], "asym")
        assert pairs == (((0,), (-1,)), ((0,), (1,)))

    def test_sym_pairs_are_unordered(self):
        pairs = required_pairs(Z, [(1,), (2,), (-1,)], "sym")
        assert len(pairs) == 3
        assert all(Z.sort_key(g) < Z.sort_key(h) for g, h in pairs)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            required_pairs(Z, [], "diagonal")


class TestCertificates:
    def test_trivial_singleton_passes_at_one(self):
        g1 = cyclic_group(1)
        cover = Covering(GroundSet([0]), [[0]])
        cert = build_certificate(g1, [0], [0], cover, 1, "asym")
        assert cert.status == "PASS"
        assert check_certificate(cert).ok

    def test_z_interval_parity_certificate(self):
        cover = z_parity_cover(-1, 10)
        f = z_atoms(0, 9)
        cert = build_certificate(Z, f, [(-1,), (1,)], cover, Fraction(9, 10), "asym")
        assert cert.status == "PASS"
        assert all(p.value == 10 for p in cert.pairs)
        assert check_certificate(cert).ok

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    def test_partition_certificate_builds_no_covering_graph(self, monkeypatch, mode):
        f = F2.ball(2)
        e_set = [(1,), (-2,), (1, 2)]
        window = {w for g in [F2.identity, *e_set] for w in F2.translate(g, f)}
        cases = [
            (F2, f, e_set, first_letter_coloring(window).partition(), Fraction(1, 2)),
            (Z, z_atoms(0, 9), [(-1,), (1,), (3,)], z_parity_cover(-1, 12), Fraction(9, 10)),
        ]

        def build_all():
            return [
                canonical_dumps(certificate_to_json(build_certificate(*case, mode)))
                for case in cases
            ]

        with monkeypatch.context() as m:  # the general matcher, as for any covering
            m.setattr(folner, "mu_partition_witness", mu_with_witness)
            general = build_all()

        def no_graph(*args):
            raise AssertionError("covering graph built for a partition")

        assert not hasattr(folner, "covering_graph")
        monkeypatch.setattr(bipartite, "covering_graph", no_graph)
        assert build_all() == general

    def test_non_partition_routes_build_no_covering_graph(self, monkeypatch):
        """On a covering that is not a partition, certificates, both
        searches, the checker and mu read the block index: no covering graph,
        no BipartiteGraph and no max_matching."""
        cover = strip_cover(Z2.ball(5))
        e_set = [(2, 0), (0, 1), (1, 1)]
        f = Z2.ball(3)
        theta = Fraction(99, 100)

        def run_all():
            cert = build_certificate(Z2, f, e_set, cover, Fraction(1, 2), "sym")
            return [
                canonical_dumps(certificate_to_json(cert)),
                check_certificate(cert),
                folner_search(Z2, e_set, cover, theta, "asym", BallsStrategy(3)),
                folner_search(Z2, e_set, cover, theta, "sym", LocalSetStrategy(seed=3, budget=300)),
                mu(f, Z2.translate((2, 0), f), cover),
            ]

        want = run_all()
        assert want[1].ok and want[4] < len(f)
        assert want[2] == folner_search_reference(Z2, e_set, cover, theta, "asym", BallsStrategy(3))

        def refuse(*args, **kwargs):
            raise AssertionError("a covering graph route was taken")

        assert not hasattr(folner, "covering_graph") and not hasattr(folner, "max_matching")
        for name in ("covering_graph", "BipartiteGraph", "max_matching"):
            monkeypatch.setattr(bipartite, name, refuse)
        assert run_all() == want

    def test_f2_first_letter_fails_at_nine_tenths(self):
        f = F2.ball(2)
        af = F2.translate((1,), f)
        window = sorted(set(f) | set(af), key=F2.sort_key)
        cover = first_letter_coloring(window).partition()
        cert = build_certificate(F2, f, [(1,)], cover, Fraction(9, 10), "asym")
        assert cert.status == "FAIL"
        mu_value = cert.pairs[0].value
        assert mu_value == 8  # oracle-pinned below
        assert mu_value == max_matching_bruteforce(covering_graph(f, af, cover))
        assert mu_value < theta_threshold(Fraction(9, 10), 17) == 16
        report = check_certificate(cert)
        assert not report.ok
        assert {f.code for f in report.findings} == {"threshold-miss"}

    def test_tampered_witness_detected(self):
        cover = z_parity_cover(-1, 10)
        cert = build_certificate(Z, z_atoms(0, 9), [(1,)], cover, Fraction(1, 2), "asym")
        pair = cert.pairs[0]
        bad_pairs = ((pair.witness.pairs[0][0], pair.witness.pairs[1][1]),) + pair.witness.pairs[1:]
        tampered = pair.__class__(pair.g, pair.h, pair.value, MatchingWitness(bad_pairs))
        bad_cert = cert.__class__(
            cert.group, cert.f_set, cert.e_set, cert.theta, cert.mode,
            cert.cover, (tampered,), cert.status,
        )
        report = check_certificate(bad_cert)
        assert not report.ok
        assert any(f.code == "witness-invalid" for f in report.findings)

    def test_wrong_value_detected(self):
        cover = z_parity_cover(-1, 10)
        cert = build_certificate(Z, z_atoms(0, 9), [(1,)], cover, Fraction(1, 2), "asym")
        pair = cert.pairs[0]
        lied = pair.__class__(pair.g, pair.h, pair.value - 1, pair.witness)
        bad_cert = cert.__class__(
            cert.group, cert.f_set, cert.e_set, cert.theta, cert.mode,
            cert.cover, (lied,), cert.status,
        )
        report = check_certificate(bad_cert)
        codes = {f.code for f in report.findings}
        assert "value-mismatch" in codes and "witness-size" in codes

    def test_window_escape_raises(self):
        cover = z_parity_cover(0, 5)
        with pytest.raises(WindowEscape):
            build_certificate(Z, z_atoms(0, 5), [(1,)], cover, Fraction(1, 2), "asym")


def _with_witness(cert, index, value, witness):
    pairs = list(cert.pairs)
    pair = pairs[index]
    pairs[index] = pair.__class__(pair.g, pair.h, value, witness)
    return cert.__class__(
        cert.group, cert.f_set, cert.e_set, cert.theta, cert.mode,
        cert.cover, tuple(pairs), cert.status,
    )


def _greedy_matching(rng, edges):
    """A maximal matching from the edges in random order: it has no
    augmenting path of one edge, so any shortfall needs a longer one."""
    order = sorted(edges)
    rng.shuffle(order)
    used_left, used_right, pairs = set(), set(), []
    for i, j in order:
        if i not in used_left and j not in used_right:
            used_left.add(i)
            used_right.add(j)
            pairs.append((i, j))
    return pairs


def _witness_variants(rng, value, witness, nl, nr, edges, non_edges):
    """(stored value, witness) pairs: the maximum witness, one pair removed
    and a random maximal matching (valid, maybe not maximum), out of range,
    a non-edge, a left or right index used twice, and a stored value off by
    one."""
    pairs = list(witness.pairs)
    greedy = _greedy_matching(rng, edges)
    out = [(value, pairs), (value - 1, pairs), (value + 1, pairs),
           (value, greedy), (len(greedy), greedy)]
    if pairs:
        k = rng.randrange(len(pairs))
        fewer = pairs[:k] + pairs[k + 1:]
        out += [(value, fewer), (len(fewer), fewer)]
        i, j = pairs[k]
        for bad in ((nl, j), (i, nr), (-1, j), (i, -1)):
            out.append((value, pairs[:k] + [bad] + pairs[k + 1:]))
        if non_edges:
            out.append((value, pairs[:k] + [rng.choice(non_edges)] + pairs[k + 1:]))
    if len(pairs) >= 2:
        a, b = rng.sample(range(len(pairs)), 2)
        twice_left = list(pairs)
        twice_left[b] = (pairs[a][0], pairs[b][1])
        twice_right = list(pairs)
        twice_right[b] = (pairs[b][0], pairs[a][1])
        out += [(value, twice_left), (value, twice_right), (value, pairs + [pairs[a]])]
    return [(v, MatchingWitness(tuple(sorted(w)))) for v, w in out]


def _checker_route(model, f_set, cover, pair, need):
    """``_check_pair`` on the pair's translates, built by the checker's own
    ``_ground_translate``."""
    pos, members, blocks_at = folner._incidence(cover)
    left, right = (
        folner._ground_translate(model, model.validate(x), f_set, pos)
        for x in (pair.g, pair.h)
    )
    label = f"({model.elem_str(pair.g)},{model.elem_str(pair.h)})"
    return folner._check_pair(left, right, members, blocks_at, pair, label, need)


class TestCheckerRoute:
    """``_check_pair`` (block lookup plus an alternating search) against the
    general route in ``oracles.check_pair_reference`` (whole covering graph,
    ``validate_witness``, Hopcroft-Karp)."""

    def test_matches_general_route_on_random_coverings(self):
        rng = random.Random(20261018)
        cases = fallbacks = deep = 0
        for trial in range(300):
            n = rng.randint(1, 12)
            model = cyclic_group(n)
            raw = random_partition(rng, n) if trial % 2 else random_covering(rng, n)
            atoms = list(range(n))
            rng.shuffle(atoms)  # ground order differs from element order
            cover = Covering(GroundSet(atoms), raw.blocks)
            f_set = model.canon_set(random_subset(rng, range(n)))
            g, h = rng.randrange(n), rng.randrange(n)
            gf, hf = model.translate(g, f_set), model.translate(h, f_set)
            value, witness = mu_with_witness(gf, hf, cover)
            graph = covering_graph(gf, hf, cover)
            non_edges = [
                (i, j)
                for i in range(len(f_set))
                for j in range(len(f_set))
                if (i, j) not in graph.edges
            ]
            need = rng.randint(0, len(f_set) + 1)
            variants = _witness_variants(
                rng, value, witness, len(gf), len(hf), graph.edges, non_edges
            )
            for stored, w in variants:
                pair = folner.PairResult(g, h, stored, w)
                got = _checker_route(model, f_set, cover, pair, need)
                want = check_pair_reference(model, f_set, cover, pair, need)
                assert [(x.code, x.message) for x in got] == [
                    (x.code, x.message) for x in want
                ], (trial, stored, w)
                cases += 1
                if (not got or got[0].code != "witness-invalid") and len(w) < value:
                    fallbacks += 1
                    free_left = set(range(len(gf))) - {i for i, _ in w.pairs}
                    free_right = set(range(len(hf))) - {j for _, j in w.pairs}
                    deep += not any(
                        i in free_left and j in free_right for i, j in graph.edges
                    )
        # deep: the shortest augmenting path has three edges or more
        assert cases > 2000 and fallbacks > 100 and deep >= 10

    def test_recomputed_value_is_the_brute_force_optimum(self):
        """A valid witness that is not maximum is augmented by the checker's
        own search; the value it reports is the exhaustive optimum."""
        rng = random.Random(20261019)
        deep = 0
        for trial in range(400):
            n = rng.randint(2, 12)
            model = cyclic_group(n)
            raw = random_covering(rng, n)
            atoms = list(range(n))
            rng.shuffle(atoms)
            cover = Covering(GroundSet(atoms), raw.blocks)
            f_set = model.canon_set(random_subset(rng, range(n)))
            g, h = rng.randrange(n), rng.randrange(n)
            gf, hf = model.translate(g, f_set), model.translate(h, f_set)
            graph = covering_graph(gf, hf, cover)
            best = max_matching_bruteforce(graph)
            # a greedy matching in a random edge order, on every other trial
            # with some edges passed over: valid, and when maximal short of
            # the optimum only by paths of three edges or more
            edges = sorted(graph.edges)
            rng.shuffle(edges)
            keep = 1 if trial % 2 else 0.7
            used_l, used_r, pairs = set(), set(), []
            for i, j in edges:
                if i not in used_l and j not in used_r and rng.random() < keep:
                    used_l.add(i)
                    used_r.add(j)
                    pairs.append((i, j))
            if len(pairs) == best:
                continue
            deep += all(i in used_l or j in used_r for i, j in graph.edges)
            witness = MatchingWitness(tuple(sorted(pairs)))
            pair = folner.PairResult(g, h, len(pairs), witness)
            got = _checker_route(model, f_set, cover, pair, 0)
            assert [(x.code, x.message) for x in got] == [
                ("value-mismatch", f"pair ({g},{h}): stored {len(pairs)}, recomputed {best}")
            ], trial
        assert deep >= 10

    def test_valid_non_maximum_witness_reports_recomputed_value(self):
        cover = z_parity_cover(-1, 10)
        cert = build_certificate(Z, z_atoms(0, 9), [(1,)], cover, Fraction(1, 2), "asym")
        fewer = MatchingWitness(cert.pairs[0].witness.pairs[1:])
        report = check_certificate(_with_witness(cert, 0, 9, fewer))
        assert [(f.code, f.message) for f in report.findings] == [
            ("value-mismatch", "pair (0,1): stored 9, recomputed 10"),
            ("status-inconsistent", "certificate marked PASS"),
        ]

    @pytest.mark.parametrize("where", ["f", "g", "h"])
    def test_malformed_element_raises(self, where):
        """The checker validates F, g and h at its boundary, then builds the
        translates on the unchecked law: a hand-built certificate with a
        malformed element still raises GroupError."""
        cover = z_parity_cover(-1, 10)
        cert = build_certificate(Z, z_atoms(0, 9), [(1,)], cover, Fraction(1, 2), "asym")
        bad = ("1",)  # the unchecked law would raise TypeError on it
        if where == "f":
            cert = dataclasses.replace(cert, f_set=cert.f_set[:-1] + (bad,))
        else:
            pair = dataclasses.replace(cert.pairs[0], **{where: bad})
            cert = dataclasses.replace(cert, pairs=(pair,))
        with pytest.raises(GroupError, match=r"not a Z\^1 element"):
            check_certificate(cert)


def _z2_box(lo, hi):
    return [(x, y) for x in range(lo, hi + 1) for y in range(lo, hi + 1)]


def _z2_mod3_partition(window):
    """Blocks by (x + 2y) mod 3: not invariant under any translate of E."""
    return Covering(GroundSet(window), [
        [a for a in window if (a[0] + 2 * a[1]) % 3 == r] for r in range(3)
    ])


def _z2_diagonal_strips(window):
    """Overlapping blocks: x + y in {2k, 2k + 1, 2k + 2}, so each atom on an
    even diagonal lies in two blocks."""
    sums = sorted({x + y for x, y in window})
    return Covering(GroundSet(window), [
        [a for a in window if 2 * k <= a[0] + a[1] <= 2 * k + 2]
        for k in range(sums[0] // 2, sums[-1] // 2 + 1)
    ])


def _tampers(model, cert, index):
    """The certificate with pair ``index`` given a wrong value, a witness
    short of one pair, and a witness holding a non-edge."""
    pair = cert.pairs[index]
    pairs = pair.witness.pairs
    yield _with_witness(cert, index, pair.value + 1, pair.witness)
    yield _with_witness(cert, index, pair.value, MatchingWitness(pairs[1:]))
    ground, blocks_of = cert.cover.ground, cert.cover.blocks_of
    left = ground.canon(model.translate(pair.g, cert.f_set))
    right = ground.canon(model.translate(pair.h, cert.f_set))
    non_edge = next(
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        if blocks_of[left[i]].isdisjoint(blocks_of[right[j]])
    )
    bad = MatchingWitness(tuple(sorted((non_edge,) + pairs[1:])))
    yield _with_witness(cert, index, pair.value, bad)


class TestTranslateMemo:
    """The checker builds each distinct translate once and hands it to every
    pair that uses it; the findings stay those of checking each pair on its
    own, in pair order."""

    @pytest.mark.parametrize("cover_of", [_z2_mod3_partition, _z2_diagonal_strips],
                             ids=["partition", "overlapping"])
    @pytest.mark.parametrize("mode, e_set", [
        ("asym", [(1, 0), (0, 1), (1, 1), (-2, 1)]),
        ("sym", [(0, 0), (1, 0), (0, 1), (1, -1)]),
    ])
    def test_findings_are_the_per_pair_reference(self, cover_of, mode, e_set):
        f_set = tuple(sorted(Z2.ball(3)))
        cover = cover_of(_z2_box(-6, 6))
        cert = build_certificate(Z2, f_set, e_set, cover, Fraction(1, 4), mode)
        assert cert.status == "PASS" and len(cert.pairs) >= 4
        need = theta_threshold(cert.theta, len(f_set))
        checked = 0
        for index in range(len(cert.pairs)):
            for tampered in _tampers(Z2, cert, index):
                want = [
                    (x.code, x.message)
                    for pair in tampered.pairs
                    for x in check_pair_reference(Z2, f_set, tampered.cover, pair, need)
                ]
                assert want  # each tamper shows
                want.append(("status-inconsistent", "certificate marked PASS"))
                got = check_certificate(tampered).findings
                assert [(x.code, x.message) for x in got] == want, (index, tampered.pairs[index])
                checked += 1
        assert checked == 3 * len(cert.pairs)

    def test_escape_text_names_the_second_translate(self, tmp_path, capsys):
        """A window that misses part of the second distinct translate: the
        escape names its first four escapees in canonical order, whatever
        the ground order, and ``verify`` exits 2 with that one line."""
        f_set = tuple(_z2_box(0, 2))
        e_set = [(0, 0), (0, 3), (3, 0)]
        kept = [(0, 3), (2, 4), (1, 5)]  # of (0,3)F = [0,2] x [3,5]
        window = sorted(
            set(f_set) | {Z2.multiply((3, 0), x) for x in f_set} | set(kept), reverse=True
        )
        cover = Covering(GroundSet(window), [window])
        pairs = tuple(
            folner.PairResult(g, h, 0, MatchingWitness(()))
            for g, h in required_pairs(Z2, e_set, "sym")
        )
        cert = folner.FolnerCertificate(
            Z2, f_set, tuple(e_set), Fraction(1, 2), "sym", cover, pairs, "PASS"
        )
        text = "translate 0,3F escapes the window at: 0,4, 0,5, 1,3, 1,4"
        with pytest.raises(WindowEscape) as got:
            check_certificate(cert)
        assert str(got.value) == text
        path = tmp_path / "escape.json"
        path.write_text(canonical_dumps(certificate_to_json(cert)))
        assert dispatch(["verify", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {text}\n")


class TestBuilderTranslates:
    """``folner._translates`` builds each translate as its products in F's
    order and sorts one only to name an escape."""

    def test_sorts_only_on_an_escape(self, monkeypatch):
        f_canon = F2.ball(2)
        pairs = required_pairs(F2, [(1,), (-2,), (1, 2)], "sym")
        # B{a, b, ab} = {Ba, 1, Bab}: the products come out of canonical order
        f_small = F2.canon_set([(1,), (2,), (1, 2)])
        only_b = required_pairs(F2, [(-2,)], "asym")
        inside = GroundSet(F2.ball(4))
        holed = GroundSet(x for x in inside.atoms if x not in {(), (-2, 1)})
        keyed = []
        sort_key = FreeGroup.sort_key
        monkeypatch.setattr(
            FreeGroup, "sort_key", lambda self, g: keyed.append(g) or sort_key(self, g)
        )
        built = folner._translates(F2, f_canon, pairs, inside)
        assert keyed == []
        with pytest.raises(WindowEscape) as got:
            folner._translates(F2, f_small, only_b, holed)
        assert sorted(keyed, key=F2.sort_key) == list(F2.translate((-2,), f_small))
        monkeypatch.undo()
        assert [(sorted(gf), sorted(hf)) for gf, hf in built] == [
            (sorted(F2.translate(g, f_canon)), sorted(F2.translate(h, f_canon)))
            for g, h in pairs
        ]
        assert str(got.value) == "translate BF escapes the window at: 1, Ba"


class TestMooreGap:
    def test_empty_a(self):
        window = z_atoms(-1, 10)
        assert moore_gap(Z, z_atoms(0, 9), (1,), [], window) == 0

    def test_interval_boundary(self):
        rng = random.Random(1)
        window = z_atoms(-1, 21)
        f = z_atoms(0, 19)
        for _ in range(50):
            a = random_subset(rng, window, allow_empty=True)
            assert moore_gap(Z, f, (1,), a, window) <= 1

    def test_f2_first_letter_gap(self):
        f = F2.ball(2)
        af = F2.translate((1,), f)
        window = sorted(set(f) | set(af), key=F2.sort_key)
        a = [w for w in window if w and w[0] == 1]
        assert moore_gap(F2, f, (1,), a, window) == 9  # |13 - 4|, oracle-checked counts

    def test_escape(self):
        with pytest.raises(WindowEscape):
            moore_gap(Z, z_atoms(0, 9), (1,), [], z_atoms(0, 9))


class TestCantor:
    def test_identity_always_ok(self):
        act = rotation_action(6)
        p = Covering(GroundSet(act.points), [["0", "2", "4"], ["1", "3", "5"]])
        ok, gaps = cantor_check(act, ["0", "1"], [act.group.identity], p, 0)
        assert ok and all(g == 0 for _, _, g in gaps)

    def test_full_orbit_invariant(self):
        act = rotation_action(6)
        p = Covering(GroundSet(act.points), [["0", "2", "4"], ["1", "3", "5"]])
        ok, _ = cantor_check(act, act.points, list(range(act.group.order)), p, 0)
        assert ok

    def test_rotation_gaps(self):
        act = rotation_action(6)
        p = Covering(GroundSet(act.points), [["0", "2", "4"], ["1", "3", "5"]])
        ok, gaps = cantor_check(act, ["0", "1", "2"], [1], p, Fraction(1, 3))
        assert ok
        assert sorted(g for _, _, g in gaps) == [1, 1]


class TestSearch:
    def test_trivial_group(self):
        g1 = cyclic_group(1)
        cover = Covering(GroundSet([0]), [[0]])
        result = folner_search(g1, [0], cover, 1, strategy=BallsStrategy(0))
        assert result.status == "PASS"
        assert result.best_f == (0,) and result.best_ratio == 1

    def test_z_parity_interval(self):
        cover = z_parity_cover(-11, 11)
        result = folner_search(
            Z, [(-1,), (1,)], cover, Fraction(9, 10), strategy=BallsStrategy(10)
        )
        assert result.status == "PASS"
        f = result.certificate.f_set
        values = [v[0] for v in f]
        assert values == list(range(min(values), max(values) + 1))  # an interval
        assert check_certificate(result.certificate).ok

    def test_f2_exhausts_under_first_letter(self):
        window = F2.ball(5)
        coloring = first_letter_coloring(window)
        result = folner_search(
            F2,
            [(1,), (-1,), (2,), (-2,)],
            coloring,
            Fraction(9, 10),
            strategy=BallsStrategy(4),
        )
        assert result.status == "EXHAUSTED"
        assert result.best_ratio < Fraction(9, 10)

    @pytest.mark.parametrize("strategy", [BallsStrategy(3), LocalSetStrategy(seed=3, budget=60)])
    def test_exhausted_carries_the_certificate_of_best_f(self, strategy):
        # the certificate of the best F, status FAIL, whose min ratio the
        # search's own counters give
        e_set = [(1,), (-1,), (2,), (-2,)]
        cover = first_letter_coloring(F2.ball(5)).partition()
        theta = Fraction(9, 10)
        result = folner_search(F2, e_set, cover, theta, strategy=strategy)
        assert result.status == "EXHAUSTED"
        assert result.certificate == build_certificate(F2, result.best_f, e_set, cover, theta)
        assert result.certificate.status == "FAIL"
        assert result.certificate.min_ratio == result.best_ratio

    def test_local_strategy_finds_interval(self):
        cover = z_parity_cover(-15, 15)
        result = folner_search(
            Z,
            [(1,), (-1,)],
            cover,
            Fraction(3, 4),
            strategy=LocalSetStrategy(seed=0, budget=400),
        )
        assert result.status == "PASS"
        assert check_certificate(result.certificate).ok

    @pytest.mark.parametrize("budget", [0, -1])
    def test_local_budget_below_one_is_refused(self, budget):
        # the start alone is one evaluation
        with pytest.raises(ValueError, match=f"^local search budget must be at least 1, got {budget}$"):
            LocalSetStrategy(budget=budget)

    def test_deterministic_bytes(self):
        cover = z_parity_cover(-11, 11)
        runs = []
        for _ in range(2):
            result = folner_search(
                Z, [(1,)], cover, Fraction(9, 10), strategy=BallsStrategy(10)
            )
            runs.append(canonical_dumps(certificate_to_json(result.certificate)))
        assert runs[0] == runs[1]


def builtin_partition(model, name, window) -> Covering:
    return builtin_coloring(model, name, window).partition()


def strip_cover(window) -> Covering:
    """Overlapping vertical strips of a Z^2 window: not a partition."""
    blocks: dict = {}
    for x in window:
        blocks.setdefault(("even", x[0] // 2), []).append(x)
        blocks.setdefault(("odd", (x[0] + 1) // 2), []).append(x)
    return Covering(GroundSet(window), blocks.values())


# (id, model, window radius, builtin coloring, E); every E has translators
# g != h that put g*y and h*y in one block: (0,0) and (1,1), or (2,1) and
# (-1,0), keep Z^2 parity for every y, the identity and ab keep F_2 parity,
# and a and ab give a*y and ab*y the first letter a unless y starts with A
COUNT_CASES = [
    ("z2-parity", Z2, 6, "parity", [(0, 0), (1, 0), (0, 1), (1, 1)]),
    ("z2-parity-far", Z2, 6, "parity", [(2, 1), (-1, 0), (0, 2)]),
    ("f2-parity", F2, 4, "parity", [(), (1,), (1, 2), (-2, -1)]),
    ("f2-first-letter", F2, 4, "first-letter", [(1,), (1, 2), (-2,)]),
]


class TestPartitionCounts:
    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, radius, coloring, e_set", COUNT_CASES, ids=[c[0] for c in COUNT_CASES]
    )
    def test_values_track_mu_partition(self, name, model, radius, coloring, e_set, mode):
        window = model.ball(radius)
        cover = builtin_partition(model, coloring, window)
        pairs = required_pairs(model, e_set, mode)
        counts = folner._PartitionCounts(model, pairs, cover)
        rng = random.Random(f"{name}/{mode}")
        index = cover.blocks_of
        members: set = set()
        same_block = refused = drops = 0
        for _ in range(400):
            if members and rng.random() < 0.4:
                y = rng.choice(sorted(members, key=model.sort_key))
                counts.drop(y)
                members.remove(y)
                drops += 1
            else:
                y = rng.choice([x for x in window if x not in members])
                before = (list(counts.values), [list(c) for c in counts.counts], counts.size)
                if not counts.add(y):
                    refused += 1
                    assert (counts.values, counts.counts, counts.size) == before
                    continue
                members.add(y)
            same_block += any(
                g != h and index[model.multiply(g, y)] == index[model.multiply(h, y)]
                for g, h in pairs
            )
            f = model.canon_set(members)
            want = [
                mu_partition(model.translate(g, f), model.translate(h, f), cover)
                for g, h in pairs
            ]
            assert counts.values == want
            assert counts.size == len(f)
            assert counts.least() == min(want, default=len(f))
        assert same_block and refused and drops

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, radius, coloring, e_set", COUNT_CASES, ids=[c[0] for c in COUNT_CASES]
    )
    def test_covering_recount_agrees_on_a_partition(
        self, name, model, radius, coloring, e_set, mode
    ):
        # a partition is also a covering: both counters read their pairs from
        # one index, and must refuse the same adds and give the same least value
        window = model.ball(radius)
        cover = builtin_partition(model, coloring, window)
        pairs = required_pairs(model, e_set, mode)
        kinds = (folner._PartitionCounts, folner._CoveringRecount)
        both = [kind(model, pairs, cover) for kind in kinds]
        rng = random.Random(f"{name}/{mode}/both")
        members: set = set()
        refused = drops = 0
        for _ in range(150):
            if members and rng.random() < 0.4:
                y = rng.choice(sorted(members, key=model.sort_key))
                for counts in both:
                    counts.drop(y)
                members.remove(y)
                drops += 1
            else:
                y = rng.choice([x for x in window if x not in members])
                added = [counts.add(y) for counts in both]
                assert added[0] == added[1]
                if added[0]:
                    members.add(y)
                else:
                    refused += 1
            assert both[0].least() == both[1].least()
            assert both[0].size == both[1].size == len(members)
        assert refused and drops

    @staticmethod
    def apply_read_undo(counts, y, inserted):
        """The least value after the move, read off a deep copy that makes it;
        the copy shares the window's block map and the memo of ``_at``."""
        shared = (counts._where, counts._known)
        moved = copy.deepcopy(counts, {id(d): d for d in shared})
        if inserted:
            if not moved.add(y):
                return None
        else:
            moved.drop(y)
        return moved.least()

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, radius, coloring, e_set", COUNT_CASES, ids=[c[0] for c in COUNT_CASES]
    )
    def test_after_move_equals_apply_read_undo(self, name, model, radius, coloring, e_set, mode):
        window = model.ball(radius)
        cover = builtin_partition(model, coloring, window)
        pairs = required_pairs(model, e_set, mode)
        counts = folner._PartitionCounts(model, pairs, cover)
        rng = random.Random(f"{name}/{mode}/after")
        members: set = set()
        refused = drops = 0
        for _ in range(120):
            state = copy.deepcopy((counts.counts, counts.values, counts.size))
            # seeded adds, refused ones included, and drops, each scored read-only
            outside = [x for x in window if x not in members]
            for y in rng.sample(outside, min(8, len(outside))):
                want = self.apply_read_undo(counts, y, True)
                assert counts.after_add(y) == want
                refused += want is None
            for y in rng.sample(sorted(members, key=model.sort_key), min(8, len(members))):
                assert counts.after_drop(y) == self.apply_read_undo(counts, y, False)
            assert (counts.counts, counts.values, counts.size) == state
            if members and rng.random() < 0.4:
                y = rng.choice(sorted(members, key=model.sort_key))
                counts.drop(y)
                members.remove(y)
                drops += 1
            else:
                y = rng.choice(outside)
                if counts.add(y):
                    members.add(y)
        assert refused and drops

    def test_after_move_without_pairs_is_the_new_size(self):
        # sym mode with one translate has no pair: least() is |F|
        cover = builtin_partition(Z2, "parity", Z2.ball(3))
        counts = folner._PartitionCounts(Z2, required_pairs(Z2, [(1, 0)], "sym"), cover)
        for y in Z2.ball(1):
            assert counts.add(y)
        assert counts.after_add((2, 0)) == 6 and counts.after_drop((0, 0)) == 4
        assert counts.after_add((4, 0)) is None  # outside the window
        assert counts.size == counts.least() == 5

    @pytest.mark.parametrize("partition", [True, False], ids=["partition", "covering"])
    @pytest.mark.parametrize(
        "e_set, mode, radius",
        [([(1, 0), (0, 2)], "sym", 2), ([(1, 0)], "asym", 3), ([(1, 0)], "sym", 4)],
        ids=["translate-of-two", "translate", "ball-itself"],
    )
    def test_ball_walk_escape_text_is_the_translates_text(self, partition, e_set, mode, radius):
        # the first ball that leaves the window (or whose translate does) raises
        # the error _translates gives for it; "ball-itself" has no pair at all
        cover = builtin_partition(Z2, "parity", Z2.ball(3))
        if not partition:
            cover = Covering(cover.ground, [*cover.blocks, Z2.ball(1)])
        pairs = required_pairs(Z2, e_set, mode)
        walked = []
        with pytest.raises(WindowEscape) as got:
            for size, _, ball in folner.ball_walk(Z2, 5, pairs, cover):
                walked.append(ball())
                assert size == len(walked[-1])
        assert walked == [Z2.ball(r) for r in range(radius)]
        with pytest.raises(WindowEscape) as want:
            folner._translates(Z2, Z2.ball(radius), pairs, cover.ground)
        assert str(got.value) == str(want.value)


def overlapping_cases() -> list:
    """(id, model, window, covering, E, radius) with coverings that are not
    partitions; the ball of the radius and its translates fit the window."""
    z2_window = Z2.ball(6)
    rng = random.Random(20261019)
    z2_extra = [[x for x in z2_window if rng.random() < 0.2] for _ in range(3)]
    z2_random = Covering(
        GroundSet(z2_window),
        [*builtin_partition(Z2, "parity", z2_window).blocks, *z2_extra],
    )
    f2_window = F2.ball(4)
    f2_first = builtin_partition(F2, "first-letter", f2_window)
    f2_cover = Covering(f2_first.ground, [*f2_first.blocks, F2.ball(1)])
    return [
        ("z2-strips", Z2, z2_window, strip_cover(z2_window), [(2, 0), (0, 1), (1, 1)], 4),
        ("z2-parity-plus", Z2, z2_window, z2_random, [(0, 0), (1, 0), (2, 1)], 3),
        ("f2-first-letter-plus", F2, f2_window, f2_cover, [(1,), (1, 2), (-2,)], 2),
    ]


OVERLAPPING_CASES = overlapping_cases()


class TestCoveringRecount:
    """The warm matchings of ``_CoveringRecount`` against a cold ``_match_rows``
    on each pair's rows, after every ball radius and every local move."""

    @staticmethod
    def assert_warm_is_cold(counts, model, pairs, cover, members) -> None:
        least = counts.least()
        f = model.canon_set(members)
        atom = cover.ground.atoms  # the sides hold ground positions
        index = cover.blocks_of
        cold = []
        for (g, h), (free, right, mate_l, mate_r) in zip(pairs, counts._sides):
            gf, hf = model.translate(g, f), model.translate(h, f)
            _, _, rows = bipartite._covering_rows(gf, hf, cover)
            cold.append(_match_rows(rows, len(hf))[0])
            # a matching of the pair's covering graph, kept the same both ways
            assert len(mate_l) == cold[-1]
            assert mate_r == {c: a for a, c in mate_l.items()}
            assert {atom[a] for a in free} == set(gf) - {atom[a] for a in mate_l}
            assert {atom[c] for c in right} == set(hf) and set(mate_r) <= right
            assert all(
                not index[atom[a]].isdisjoint(index[atom[c]]) for a, c in mate_l.items()
            )
        assert counts.size == len(f)
        assert least == min(cold, default=len(f))

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, window, cover, e_set, radius", OVERLAPPING_CASES,
        ids=[c[0] for c in OVERLAPPING_CASES],
    )
    def test_every_ball_radius(self, name, model, window, cover, e_set, radius, mode):
        assert not cover.is_partition()
        pairs = required_pairs(model, e_set, mode)
        counts = folner._CoveringRecount(model, pairs, cover)
        ball: list = []
        for sphere in spheres(model, radius):
            assert all(map(counts.add, sphere))
            ball.extend(sphere)
            self.assert_warm_is_cold(counts, model, pairs, cover, ball)

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, window, cover, e_set, radius", OVERLAPPING_CASES,
        ids=[c[0] for c in OVERLAPPING_CASES],
    )
    def test_every_local_move(self, name, model, window, cover, e_set, radius, mode):
        pairs = required_pairs(model, e_set, mode)
        counts = folner._CoveringRecount(model, pairs, cover)
        rng = random.Random(f"{name}/{mode}")
        # the ball one past the radius: dense enough that a dropped atom's
        # translates are matched apart, with some adds that leave the window
        reach = model.ball(radius + 1)
        members: set = set()
        refused = drops = both_sides = 0
        for _ in range(300):
            if members and rng.random() < 0.3:
                y = rng.choice(sorted(members, key=model.sort_key))
                # count the drops that unmatch an atom of gF and a different
                # atom of hF in the same pair: two matched edges go
                for (g, h), (_, _, mate_l, mate_r) in zip(pairs, counts._sides):
                    a, c = (cover.ground.atoms.index(model.multiply(x, y)) for x in (g, h))
                    if a in mate_l and c in mate_r and mate_l[a] != c:
                        both_sides += 1
                        break
                counts.drop(y)
                members.remove(y)
                drops += 1
            else:
                y = rng.choice([x for x in reach if x not in members])
                before = copy.deepcopy((counts._sides, counts.size))
                if not counts.add(y):
                    refused += 1
                    assert (counts._sides, counts.size) == before
                    continue
                members.add(y)
            self.assert_warm_is_cold(counts, model, pairs, cover, members)
        assert refused and drops and both_sides

    @staticmethod
    def cold_least(model, pairs, cover, members) -> int:
        f = model.canon_set(members)
        values = []
        for g, h in pairs:
            hf = model.translate(h, f)
            _, _, rows = bipartite._covering_rows(model.translate(g, f), hf, cover)
            values.append(_match_rows(rows, len(hf))[0])
        return min(values, default=len(f))

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, window, cover, e_set, radius", OVERLAPPING_CASES,
        ids=[c[0] for c in OVERLAPPING_CASES],
    )
    def test_after_move_equals_cold_recount(self, name, model, window, cover, e_set, radius,
                                            mode):
        pairs = required_pairs(model, e_set, mode)
        counts = folner._CoveringRecount(model, pairs, cover)
        rng = random.Random(f"{name}/{mode}/after")
        reach = model.ball(radius + 1)
        members: set = set()
        refused = drops = 0
        for _ in range(60):
            least = counts.least()
            outside = [x for x in reach if x not in members]
            for y in rng.sample(outside, min(6, len(outside))):
                got = counts.after_add(y)
                if got is None:
                    refused += 1
                    assert counts._at(y) is None
                else:
                    assert got == self.cold_least(model, pairs, cover, members | {y})
                assert (counts.size, counts.least()) == (len(members), least)
            for y in rng.sample(sorted(members, key=model.sort_key), min(6, len(members))):
                assert counts.after_drop(y) == self.cold_least(model, pairs, cover, members - {y})
                assert (counts.size, counts.least()) == (len(members), least)
            if members and rng.random() < 0.3:
                y = rng.choice(sorted(members, key=model.sort_key))
                counts.drop(y)
                members.remove(y)
                drops += 1
            else:
                y = rng.choice(outside)
                if counts.add(y):
                    members.add(y)
        assert refused and drops


def search_cases() -> list:
    """(id, model, E, cover, theta, mode, strategy) for the reference tests.

    The windows are tight, so local moves leave them, and theta is out of
    reach for most, so the local searches restart."""
    z2_window = Z2.ball(5)
    z2_parity = builtin_partition(Z2, "parity", z2_window)
    f2_window = F2.ball(4)
    f2_first = builtin_partition(F2, "first-letter", f2_window)
    f2_parity = builtin_partition(F2, "parity", f2_window)
    cases = []
    for mode in ("asym", "sym"):
        # the balls fit their windows; the local searches roam out of them
        for radius, seed, budget in ((None, 1, 400), (None, 7, 900), (3, None, None)):
            if radius is None:
                z2_strategy = f2_strategy = LocalSetStrategy(seed=seed, budget=budget)
                tag = f"local{seed}-{mode}"
            else:
                z2_strategy, f2_strategy = BallsStrategy(radius), BallsStrategy(radius - 1)
                tag = f"balls-{mode}"
            cases += [
                (f"z2-parity-{tag}", Z2, [(0, 0), (1, 0), (0, 1), (1, 1)], z2_parity,
                 Fraction(99, 100), mode, z2_strategy),
                (f"z2-parity-pass-{tag}", Z2, [(1, 0), (0, 1), (-1, 1)], z2_parity,
                 Fraction(1, 2), mode, z2_strategy),
                (f"z2-strips-{tag}", Z2, [(1, 0), (0, 1), (1, 1)], strip_cover(z2_window),
                 Fraction(99, 100), mode, z2_strategy),
                (f"f2-first-letter-{tag}", F2, [(1,), (-2,), (1, 2)], f2_first,
                 Fraction(99, 100), mode, f2_strategy),
                (f"f2-parity-{tag}", F2, [(), (1,), (2, 1)], f2_parity,
                 Fraction(9, 10), mode, f2_strategy),
            ]
    return cases


SEARCH_CASES = search_cases()


class TestSearchReference:
    @pytest.mark.parametrize(
        "name, model, e_set, cover, theta, mode, strategy",
        SEARCH_CASES,
        ids=[c[0] for c in SEARCH_CASES],
    )
    def test_whole_result_matches_full_recount(self, name, model, e_set, cover, theta,
                                               mode, strategy):
        got = folner_search(model, e_set, cover, theta, mode, strategy)
        want = folner_search_reference(model, e_set, cover, theta, mode, strategy)
        assert got == want

    @pytest.mark.parametrize("seed", [11, 523])
    @pytest.mark.parametrize("e_set", [[(x,), (y,)] for x in (1, -1) for y in (2, -2)],
                             ids=["ab", "aB", "Ab", "AB"])
    def test_benchmark_shape_matches_full_recount(self, e_set, seed):
        # the shape of the benchmark's local F_2 jobs: the first-letter
        # partition of the radius-5 ball, theta 99/100, budget 2500, asym
        cover = builtin_partition(F2, "first-letter", F2.ball(5))
        strategy = LocalSetStrategy(seed=seed, budget=2500)
        theta = Fraction(99, 100)
        got = folner_search(F2, e_set, cover, theta, "asym", strategy)
        assert got.status == "EXHAUSTED" and got.evaluations >= 2500
        assert got == folner_search_reference(F2, e_set, cover, theta, "asym", strategy)

    def test_cases_leave_the_window_and_restart(self):
        stats = {}
        for _, model, e_set, cover, theta, mode, strategy in SEARCH_CASES:
            if isinstance(strategy, LocalSetStrategy):
                folner_search_reference(model, e_set, cover, theta, mode, strategy, stats)
        assert stats["escapes"] > 0 and stats["restarts"] > 0

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    def test_ball_escape_text_matches_reference(self, mode):
        cases = [
            (Z2, [(0, 0), (1, 0), (0, 3)], builtin_partition(Z2, "parity", Z2.ball(4))),
            (Z2, [(3, 0), (0, 1)], strip_cover(Z2.ball(4))),
            (F2, [(1,), (2, 2)], builtin_partition(F2, "first-letter", F2.ball(3))),
        ]
        for model, e_set, cover in cases:
            with pytest.raises(WindowEscape) as got:
                folner_search(model, e_set, cover, 1, mode, BallsStrategy(6))
            with pytest.raises(WindowEscape) as want:
                folner_search_reference(model, e_set, cover, 1, mode, BallsStrategy(6))
            assert str(got.value) == str(want.value)
            pairs = required_pairs(model, e_set, mode)
            with pytest.raises(WindowEscape) as walked:
                list(folner.ball_walk(model, 6, pairs, cover))
            with pytest.raises(WindowEscape) as swept:
                sweep_reference(model, 6, pairs, cover)
            assert str(walked.value) == str(swept.value) == str(want.value)

    @pytest.mark.parametrize("seed", range(5))
    def test_restart_finds_a_single_element_start(self, seed):
        # E = {5} leaves only F inside {-2, -1} valid; the identity is not,
        # and a shuffled prefix is valid only when it starts with -2 or -1
        ground = GroundSet(z_atoms(-2, 4))
        cover = Covering(ground, [z_atoms(-2, 2), z_atoms(3, 4)])
        strategy = LocalSetStrategy(seed=seed, budget=50)
        result = folner_search(Z, [(5,)], cover, 1, strategy=strategy)
        assert result.status == "EXHAUSTED"
        assert result.best_f == ((-2,),) and result.best_ratio == 0
        assert result == folner_search_reference(Z, [(5,)], cover, 1, "asym", strategy)

    def test_no_valid_start_is_window_escape(self):
        cover = Covering(GroundSet(z_atoms(-2, 2)), [z_atoms(-2, 2)])
        with pytest.raises(WindowEscape, match="no valid starting candidate"):
            folner_search(Z, [(5,)], cover, 1, strategy=LocalSetStrategy(seed=0, budget=50))


class TestBallWalk:
    @pytest.mark.parametrize("d, radius", [(1, 9), (2, 6), (3, 4)])
    def test_matches_per_ball_recount(self, d, radius):
        model = IntegerLattice(d)
        rng = random.Random(d)
        window = model.ball(radius + 2)
        covers = [builtin_partition(model, "parity", window)]
        for _ in range(2):
            # a random partition and a random covering of the window
            colors = [rng.randrange(3) for _ in window]
            covers.append(Coloring(GroundSet(window), tuple(colors), 2).partition())
            extra = [[x for x in window if rng.random() < 0.3] or [window[0]]]
            covers.append(Covering(GroundSet(window), [*covers[-1].blocks, *extra]))
        e_sets = [model.generators(), rng.sample(model.ball(2), 3)]
        for cover in covers:
            for e_set in e_sets:
                for mode in ("asym", "sym"):
                    pairs = required_pairs(model, e_set, mode)
                    walked = [
                        (size, least, ball())
                        for size, least, ball in folner.ball_walk(model, radius, pairs, cover)
                    ]
                    assert walked == [
                        (len(ball), least, ball)
                        for ball, least in sweep_reference(model, radius, pairs, cover)
                    ]

    @pytest.mark.parametrize("partition", [True, False], ids=["partition", "covering"])
    def test_sizes_alone_build_no_ball(self, partition, monkeypatch):
        # a walk read for sizes and values (a sweep) keys no element: its
        # spheres come unsorted, and it never puts a ball together
        window = Z2.ball(8)
        cover = builtin_partition(Z2, "parity", window)
        if not partition:
            cover = Covering(cover.ground, [*cover.blocks, Z2.ball(1)])
        pairs = required_pairs(Z2, [(1, 0), (0, 1)], "asym")
        keyed = []
        sort_key = IntegerLattice.sort_key
        monkeypatch.setattr(
            IntegerLattice, "sort_key", lambda self, g: keyed.append(g) or sort_key(self, g)
        )
        sizes = [size for size, _, _ in folner.ball_walk(Z2, 6, pairs, cover)]
        monkeypatch.undo()
        assert sizes == [len(Z2.ball(r)) for r in range(7)]
        assert keyed == []

    @pytest.mark.parametrize("model, radius", [(Z2, 6), (IntegerLattice(3), 4), (F2, 4)],
                             ids=["zd2", "zd3", "free2"])
    def test_ball_read_at_every_radius_is_the_reference(self, model, radius):
        # a ball search whose ratio improves at every radius reads each ball;
        # each read sorts the new spheres into the ball read before
        window = model.ball(radius + 2)
        cover = Covering(GroundSet(window), [window])
        pairs = required_pairs(model, model.generators(), "asym")
        balls = [ball() for _, _, ball in folner.ball_walk(model, radius, pairs, cover)]
        assert balls == [ball_reference(model, r) for r in range(radius + 1)]

    @pytest.mark.parametrize("d, radius, e_text", [(1, 12, "2;-3"), (2, 7, "1,0;0,-2;1,1"),
                                                    (3, 4, "1,0,0;0,1,-1")])
    @pytest.mark.parametrize("mode", ["asym", "sym"])
    def test_sweep_rows_match_reference(self, tmp_path, d, radius, e_text, mode):
        model = IntegerLattice(d)
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--group", f"zd{d}", f"--e={e_text}", "--theta-grid", "1/2:1:1/4",
                "--max-radius", str(radius), "--mode", mode, "--out", str(out)]
        assert dispatch(argv) == 0
        e_set = [model.parse_elem(part) for part in e_text.split(";")]
        window = _search_window(model, e_set, BallsStrategy(radius))
        cover = builtin_partition(model, "parity", window)
        want = [
            (str(r), str(len(ball)), str(least))
            for r, (ball, least) in enumerate(
                sweep_reference(model, radius, required_pairs(model, e_set, mode), cover)
            )
        ]
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * len(want)
        got = [(row["radius"], row["f_size"], row["min_mu"]) for row in rows]
        assert got == want * 3


def seeded_coloring(model, window, rng, k=2) -> Coloring:
    return Coloring(GroundSet(window), tuple(rng.randrange(k + 1) for _ in window), k)


def spheres(model, radius) -> list:
    """The walk's spheres 0..radius, each checked to hold exactly the new
    elements of ``ball_reference`` at its radius, each once, and returned
    in canonical order, so seeded picks from a sphere do not depend on the
    BFS's order."""
    layers = [sorted(layer, key=model.sort_key) for layer in model.ball_layers(radius)]
    previous: set = set()
    for r, layer in enumerate(layers):
        want = set(ball_reference(model, r))
        assert len(layer) == len(want - previous) and set(layer) == want - previous
        previous = want
    return layers


# (id, model, ball radius walked, window radius); S_4's generators are all
# of its elements, so its window is the whole group and nothing escapes
TALLY_CASES = [
    ("zd2", Z2, 6, 8),
    ("zd3", IntegerLattice(3), 3, 5),
    ("free2", F2, 3, 5),
    ("s4", symmetric_group(4), 1, 1),
]


class TestSphereTally:
    """``_PartitionCounts.add_all`` against one ``add`` per element."""

    @staticmethod
    def state(counts):
        return (list(counts.values), [list(c) for c in counts.counts], counts.size, counts.least())

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, radius, window_radius", TALLY_CASES, ids=[c[0] for c in TALLY_CASES]
    )
    def test_equals_one_add_per_element(self, name, model, radius, window_radius, mode):
        rng = random.Random(f"{name}/{mode}/tally")
        window = model.ball(window_radius)
        ball2 = [g for g in model.ball(2) if g != model.identity]
        for trial in range(3):
            cover = seeded_coloring(model, window, rng).partition()
            # the identity is in E: in asym mode its pair (e, e) has g = h
            e_set = [model.identity, *rng.sample(ball2, 3)]
            pairs = required_pairs(model, e_set, mode)
            assert (model.identity, model.identity) in pairs or mode == "sym"
            tallied, stepped = (folner._PartitionCounts(model, pairs, cover) for _ in range(2))
            for sphere in spheres(model, radius):
                rng.shuffle(sphere)
                assert tallied.add_all(sphere)
                assert all(map(stepped.add, sphere))
                assert self.state(tallied) == self.state(stepped)
            assert tallied._known == {}

    @pytest.mark.parametrize("mode", ["asym", "sym"])
    @pytest.mark.parametrize(
        "name, model, radius, window_radius", TALLY_CASES[:3], ids=[c[0] for c in TALLY_CASES[:3]]
    )
    def test_one_escape_refuses_the_sphere(self, name, model, radius, window_radius, mode):
        # a sphere with one element outside the window, or one whose translate
        # leaves it, is refused and changes nothing
        rng = random.Random(f"{name}/{mode}/escape")
        window = model.ball(window_radius)
        cover = seeded_coloring(model, window, rng).partition()
        pairs = required_pairs(model, [model.identity, *model.generators()], mode)
        counts = folner._PartitionCounts(model, pairs, cover)
        layers = spheres(model, window_radius + 1)
        for sphere in layers[:radius]:
            assert counts.add_all(sphere)
        before = self.state(counts)
        outside, rim = rng.choice(layers[window_radius + 1]), rng.choice(layers[window_radius])
        for stray in (outside, rim):
            sphere = layers[radius] + [stray]
            rng.shuffle(sphere)
            assert not counts.add_all(sphere)
            assert self.state(counts) == before
        assert counts.add_all(layers[radius])

    @pytest.mark.parametrize(
        "name, model, radius, window_radius", TALLY_CASES[:3], ids=[c[0] for c in TALLY_CASES[:3]]
    )
    def test_a_hole_in_the_window_is_an_escape(self, name, model, radius, window_radius):
        # sym mode without the identity: y itself is no translate, so a sphere
        # element missing from the window is caught by its own check; the
        # generators move an element one step, so no translate meets the hole
        rng = random.Random(f"{name}/hole")
        layers = spheres(model, radius)
        hole = rng.choice(layers[radius])
        window = [x for x in model.ball(window_radius) if x != hole]
        cover = seeded_coloring(model, window, rng).partition()
        pairs = required_pairs(model, model.generators(), "sym")
        assert model.identity not in {g for pair in pairs for g in pair}
        tallied, stepped = (folner._PartitionCounts(model, pairs, cover) for _ in range(2))
        for counts in (tallied, stepped):
            assert counts.add_all(layers[radius - 2])
        before = self.state(tallied)
        assert not tallied.add_all(layers[radius])
        assert self.state(tallied) == before
        assert not all(map(stepped.add, layers[radius]))

    @pytest.mark.parametrize("partition", [True, False], ids=["partition", "covering"])
    @pytest.mark.parametrize(
        "e_set, mode, text",
        [
            ([(1, 0)], "asym", "translate 1,0F escapes the window at: 1,-3, 1,3, 2,-2, 2,2"),
            ([(1, 0), (0, 2)], "sym",
             "translate 0,2F escapes the window at: -2,2, -1,3, 0,4, 1,3"),
            ([(1, 0)], "sym", "candidate set F escapes the window at: -4,0, -3,-1, -3,1, -2,-2"),
        ],
        ids=["translate", "translate-of-two", "ball-itself"],
    )
    def test_ball_walk_escape_text_is_pinned(self, partition, e_set, mode, text):
        cover = builtin_partition(Z2, "parity", Z2.ball(3))
        if not partition:
            cover = Covering(cover.ground, [*cover.blocks, Z2.ball(1)])
        with pytest.raises(WindowEscape) as got:
            list(folner.ball_walk(Z2, 5, required_pairs(Z2, e_set, mode), cover))
        assert str(got.value) == text

    def test_ball_walk_fills_no_memo(self, monkeypatch):
        # a ball element is inserted once, so the walk keeps no per-element
        # memo; the local search, which scores elements again, still does
        made = []
        pair_counts = folner._pair_counts
        monkeypatch.setattr(
            folner, "_pair_counts", lambda *args: made.append(pair_counts(*args)) or made[-1]
        )
        cover = builtin_partition(Z2, "parity", Z2.ball(22))
        pairs = required_pairs(Z2, [(1, 0), (0, 1), (1, 1)], "asym")
        assert len(list(folner.ball_walk(Z2, 20, pairs, cover))) == 21
        assert type(made[0]) is folner._PartitionCounts and made[0]._known == {}
        folner_search(Z2, [(1, 0), (0, 1)], cover, Fraction(99, 100),
                      strategy=LocalSetStrategy(seed=3, budget=200))
        assert type(made[1]) is folner._PartitionCounts and made[1]._known


class TestColoringPartition:
    """``Coloring.partition`` against the checked ``Covering`` constructor."""

    @pytest.mark.parametrize(
        "name, model, radius",
        [("zd2", Z2, 4), ("zd3", IntegerLattice(3), 2), ("free2", F2, 3),
         ("s4", symmetric_group(4), 1)],
        ids=["zd2", "zd3", "free2", "s4"],
    )
    def test_equals_the_checked_covering(self, name, model, radius):
        rng = random.Random(f"{name}/partition")
        window = model.ball(radius)
        for k, unused in [(1, None), (2, None), (3, 2), (4, 0)]:
            colors = [rng.choice([c for c in range(k + 1) if c != unused]) for _ in window]
            coloring = Coloring(GroundSet(window), tuple(colors), k)
            classes = [
                [a for a, c in zip(window, colors) if c == color]
                for color in range(k + 1)
                if color != unused
            ]
            rng.shuffle(classes)
            got, want = coloring.partition(), Covering(coloring.ground, classes)
            assert got == want and hash(got) == hash(want)
            assert got.blocks == want.blocks and len(got) == k + (unused is None)
            assert dict(got.blocks_of) == dict(want.blocks_of)
            assert list(got.blocks_of) == list(want.blocks_of)
            assert got.is_partition() and want.is_partition()
            # one shared index entry per block, as the checked constructor gives
            assert len({id(bs) for bs in got.blocks_of.values()}) == len(got)
            again = pickle.loads(pickle.dumps(got))
            assert again == got and dict(again.blocks_of) == dict(got.blocks_of)


class TestAdversary:
    def test_single_point_identity(self):
        g2 = cyclic_group(2)
        coloring, ratio = adversary_coloring(g2, [0], [0], 1)
        assert ratio == 1

    def test_whole_finite_group_immune(self):
        g4 = cyclic_group(4)
        coloring, ratio = adversary_coloring(g4, list(range(4)), [1, 2], 1)
        assert ratio == 1  # gF = F, identity matching survives any coloring

    def test_f2_ball_two_optimum(self):
        f = F2.ball(2)
        coloring, ratio = adversary_coloring(F2, f, [(1,)], 1)
        # |B_2 & aB_2| = 8: the one-sided coloring realizes the optimum 8/17
        assert ratio == Fraction(8, 17)

    def test_ratio_recomputed_exactly(self):
        g6 = cyclic_group(6)
        coloring, ratio = adversary_coloring(g6, [0, 1], [2], 2)
        gf = g6.translate(2, (0, 1))
        assert ratio == Fraction(mu((0, 1), gf, coloring.partition()), 2)

    def test_a_tie_goes_to_the_first_pair(self):
        # pairs (0, -1) then (0, 1), each with overlap 1: F - (F - 1) = {1}
        coloring, ratio = adversary_coloring(Z, [(0,), (1,)], [(1,), (-1,)], 1)
        assert dict(zip(coloring.ground.atoms, coloring.colors)) == {
            (-1,): 0, (0,): 0, (1,): 1, (2,): 0,
        }
        assert ratio == Fraction(1, 2)

    def test_no_pairs_colors_everything_zero(self):
        coloring, ratio = adversary_coloring(Z, [(0,), (1,)], [(1,)], 2, "sym")
        assert (coloring.colors, ratio) == ((0, 0), 1)

    @pytest.mark.parametrize("k, f, message", [
        (0, [(0,)], "k must be at least 1"),
        (-1, [(0,)], "k must be at least 1"),
        (1, [], "candidate set F must be non-empty"),
    ])
    def test_fewer_than_two_colors_or_empty_f_is_refused(self, k, f, message):
        with pytest.raises(ValueError, match=message):
            adversary_coloring(Z, f, [(1,)], k)

    @pytest.mark.parametrize("model", [Z, Z2, F2], ids=["z1", "z2", "f2"])
    def test_every_covering_matches_at_least_the_overlap(self, model):
        # the closed form rests on this bound: each common atom of gF and hF
        # matches itself, whatever the covering, partition or not
        rng = random.Random(27)
        overlapping = 0
        for _ in range(60):
            pool = list(model.ball(2))
            f = model.canon_set(rng.sample(pool, rng.randint(1, min(6, len(pool)))))
            e_set = rng.sample(list(model.ball(1)), rng.randint(1, 3))
            pairs = required_pairs(model, e_set, rng.choice(["asym", "sym"]))
            window = set(f)
            for pair in pairs:
                for g in pair:
                    window.update(model.translate(g, f))
            atoms = sorted(window, key=model.sort_key)
            drawn = random_covering(rng, len(atoms), max_blocks=6)
            cover = Covering(GroundSet(atoms), [[atoms[i] for i in b] for b in drawn])
            overlapping += not cover.is_partition()
            for g, h in pairs:
                gf, hf = model.translate(g, f), model.translate(h, f)
                assert mu(gf, hf, cover) >= len(set(gf) & set(hf)), (f, g, h)
        assert overlapping > 30


def _sides(model, f, e_set, mode) -> set:
    """Which sides of the required pairs the window's atoms lie on: "left"
    and "right" for gF or hF alone, "both" for both translates."""
    f_canon = model.canon_set(f)
    found = set()
    for g, h in required_pairs(model, e_set, mode):
        left, right = set(model.translate(g, f_canon)), set(model.translate(h, f_canon))
        found.update("both" if x in right else "left" for x in left)
        found.update("right" for x in right - left)
    return found


# (model, F, E, mode); each puts atoms on the left alone, the right alone and both
ONE_SIDED_CASES = {
    # the identity in E: every atom of F is on both sides of (1, 1)
    "asym-identity-z2": (Z2, Z2.ball(2), [(0, 0), (1, 0)], "asym"),
    "asym-identity-f2": (F2, F2.ball(2), [(), (1,), (-2,)], "asym"),
    # translates by short steps share most of their atoms
    "sym-overlap-z2": (Z2, Z2.ball(3), [(0, 0), (1, 0), (0, 1), (1, 1)], "sym"),
    "sym-overlap-z1": (Z, Z.ball(6), [(0,), (1,), (2,), (-1,)], "sym"),
    "sym-f2": (F2, F2.ball(2), [(1,), (2,), (1, 2)], "sym"),
    "asym-table-s3": (symmetric_group(3), [0, 1, 2], [1, 3, 4], "asym"),
    "sym-table-c7": (cyclic_group(7), [0, 1, 3], [0, 2, 5], "sym"),
}


def _check_closed_form(model, f, e_set, k, mode) -> Fraction:
    """The adversary's coloring uses colors 0 and 1 only, and mu on it,
    over every pair built on the validating group law, gives its ratio."""
    coloring, ratio = adversary_coloring(model, f, e_set, k, mode)
    assert set(coloring.colors) <= {0, 1}
    f_canon = model.canon_set(f)
    partition = coloring.partition()
    values = [
        mu(model.translate(g, f_canon), model.translate(h, f_canon), partition)
        for g, h in required_pairs(model, e_set, mode)
    ]
    assert ratio == Fraction(min(values, default=len(f_canon)), len(f_canon))
    return ratio


class TestOneSidedRule:
    """The adversary's closed form: on the first pair with the least overlap,
    color the atoms of gF alone with 1 and the rest of the window with 0.
    The cases put atoms on the left side alone, the right side alone and
    both sides of a pair, and run with two, three and four colors."""

    @pytest.mark.parametrize("name", ONE_SIDED_CASES)
    def test_cases_reach_every_side(self, name):
        assert _sides(*ONE_SIDED_CASES[name]) == {"left", "right", "both"}

    @pytest.mark.parametrize("name", ONE_SIDED_CASES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_reference(self, name, k):
        # the least overlap, which no covering goes below
        model, f, e_set, mode = ONE_SIDED_CASES[name]
        f_canon = model.canon_set(f)
        least = min(
            len(set(model.translate(g, f_canon)) & set(model.translate(h, f_canon)))
            for g, h in required_pairs(model, e_set, mode)
        )
        assert _check_closed_form(model, f, e_set, k, mode) == Fraction(least, len(f_canon))

    # the cases whose 6-atom window has at most 4^6 colorings, the oracle's cap
    @pytest.mark.parametrize("name", ["asym-table-s3", "sym-table-c7"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_exhaustive_reference(self, name, k):
        model, f, e_set, mode = ONE_SIDED_CASES[name]
        want = adversary_exhaustive_reference(model, f, e_set, k, mode)
        assert _check_closed_form(model, f, e_set, k, mode) == want

    def test_seeded_random_configurations_match_reference(self):
        rng = random.Random(23)
        models = [Z, Z2, F2, cyclic_group(7), symmetric_group(3)]
        checked = 0
        for _ in range(120):
            model = rng.choice(models)
            f = rng.sample(list(model.ball(2)), rng.randint(1, 4))
            e_set = rng.sample(list(model.ball(1)), rng.randint(1, 3))
            mode = rng.choice(["asym", "sym"])
            k = rng.randint(1, 3)
            try:
                want = adversary_exhaustive_reference(model, f, e_set, k, mode)
            except ValueError:
                continue  # over the oracle's cap
            got = _check_closed_form(model, f, e_set, k, mode)
            assert got == want, (model.describe(), f, e_set, mode, k)
            checked += 1
        assert checked >= 100


class TestThetaBoost:
    def test_perfect_hypotheses_compose_perfectly(self):
        report = theta_boost_check(1, trials=40, seed=1)
        assert report["violations"] == []
        assert report["checked"] == 40

    def test_three_quarters(self):
        report = theta_boost_check(Fraction(3, 4), trials=60, seed=2)
        assert report["violations"] == []

    def test_rejects_weak_theta(self):
        with pytest.raises(ValueError):
            theta_boost_check(Fraction(1, 2))


def fixed_points(model, g) -> int:
    """Fixed points of a ``symmetric_group`` element, read off its name."""
    return sum(int(c) == i for i, c in enumerate(model.elem_str(g)))


def net_cases() -> list:
    """(id, group, U) inputs for comparing ``perfect_net`` with its reference."""
    z6, z12 = cyclic_group(6), cyclic_group(12)
    s3, s4, s5 = symmetric_group(3), symmetric_group(4), symmetric_group(5)
    rng = random.Random(15)
    cases = [
        ("z6", z6, [0, 1]),
        ("z12", z12, [0, 1, 2]),
        ("s3", s3, [s3.identity, s3.parse_elem("102")]),
        # the stabilizer of the last point: the blocks are its right cosets
        ("s4-subgroup", s4, [g for g in range(s4.order) if s4.elem_str(g)[3] == "3"]),
    ]
    for k in range(3):
        others = rng.sample(s4.generators(), rng.randint(1, 6))
        cases.append((f"s4-random{k}", s4, [s4.identity, *others]))
    # the benchmark's S_5 shape: the identity, the 3-cycles, one transposition
    three_cycles = [g for g in range(s5.order) if fixed_points(s5, g) == 2]
    transpositions = [g for g in range(s5.order) if fixed_points(s5, g) == 3]
    for k in range(2):
        cases.append(
            (f"s5-bench{k}", s5, [s5.identity, *three_cycles, rng.choice(transpositions)])
        )
    # W*W a proper subset of S_5, so no translate graph is complete: A_5
    # (the 3-cycles alone; most witnesses are not i -> i), and {e, t} (two
    # edges per row)
    cases.append(("s5-even", s5, [s5.identity, *three_cycles]))
    cases.append(("s5-transposition", s5, [s5.identity, rng.choice(transpositions)]))
    return cases


NET_CASES = net_cases()


class TestPerfectNet:
    @pytest.mark.parametrize(
        "model, u", [c[1:] for c in NET_CASES], ids=[c[0] for c in NET_CASES]
    )
    def test_matches_covering_reference(self, model, u):
        assert perfect_net(model, u) == perfect_net_reference(model, u)

    def test_subgroup_blocks_form_a_partition(self):
        _, s4, u = next(c for c in NET_CASES if c[0] == "s4-subgroup")
        assert right_translate_covering(s4, u).is_partition()

    @pytest.mark.parametrize("case", ["z12", "s4-random0", "s4-subgroup"])
    def test_greedy_branch_matches_reference(self, monkeypatch, case):
        _, model, u = next(c for c in NET_CASES if c[0] == case)
        monkeypatch.setattr(folner, "DEFAULT_NET_CAP", 3)
        net = perfect_net(model, u)
        assert not net.minimal
        assert net == perfect_net_reference(model, u)

    @pytest.mark.parametrize("case", ["z12", "s4-subgroup", "s5-bench0"])
    def test_builds_no_covering(self, monkeypatch, case):
        _, model, u = next(c for c in NET_CASES if c[0] == case)
        expected = perfect_net_reference(model, u)

        def refuse(*args, **kwargs):
            raise AssertionError("perfect_net built a covering or a covering graph")

        assert not hasattr(folner, "covering_graph")
        for owner, name in [
            (folner, "Covering"),
            (bipartite, "covering_graph"),
            (folner, "mu_with_witness"),
        ]:
            monkeypatch.setattr(owner, name, refuse)
        assert perfect_net(model, u) == expected

    def test_whole_group_as_u(self):
        g6 = cyclic_group(6)
        net = perfect_net(g6, list(range(6)))
        assert net.v_set == tuple(range(6))
        assert net.f_set == (0,)

    def test_z6_with_edge_pair(self):
        g6 = cyclic_group(6)
        net = perfect_net(g6, [0, 1])
        assert net.v_set == (0, 1)
        assert net.f_set == (0, 2, 4)
        assert net.minimal
        assert len(net.matchings) == 6
        for g, witness in net.matchings:
            assert len(witness) == 3

    def test_s3_transposition(self):
        s3 = symmetric_group(3)
        e = s3.identity
        t = s3.parse_elem("102")  # swap of the first two points
        net = perfect_net(s3, [e, t])
        assert net.v_set == (e,)
        for g, witness in net.matchings:
            assert len(witness) == len(net.f_set)

    def test_u_must_contain_identity(self):
        g6 = cyclic_group(6)
        with pytest.raises(ValueError, match="identity"):
            perfect_net(g6, [1, 2])

    def test_greedy_fallback_flagged(self, monkeypatch):
        g6 = cyclic_group(6)
        monkeypatch.setattr(folner, "DEFAULT_NET_CAP", 3)  # force the over-cap path
        net = perfect_net(g6, [0, 1])
        assert not net.minimal
        for g, witness in net.matchings:
            assert len(witness) == len(net.f_set)

    def test_z12_net_sizes(self):
        g12 = cyclic_group(12)
        assert len(perfect_net(g12, [0, 1]).f_set) == 6
        assert len(perfect_net(g12, [0, 1, 2]).f_set) == 4


class TestMonochromatic:
    def test_singleton_e_always_found(self):
        cover = z_parity_cover(-3, 3)
        found = monochromatic_translate(Z, z_atoms(-3, 3), cover, [(0,)])
        assert found is not None

    def test_singleton_blocks_never_fit_pairs(self):
        atoms = z_atoms(-2, 2)
        cover = Covering(GroundSet(atoms), [[a] for a in atoms])
        assert monochromatic_translate(Z, atoms, cover, [(0,), (1,)]) is None

    def test_interval_blocks(self):
        atoms = z_atoms(-10, 10)
        blocks = [z_atoms(i, min(i + 2, 10)) for i in range(-10, 11)]
        cover = Covering(GroundSet(atoms), blocks)
        found = monochromatic_translate(Z, atoms, cover, [(0,), (1,)])
        assert found is not None
        g, block = found
        assert {Z.multiply((0,), g), Z.multiply((1,), g)} <= set(block)


class TestBridges:
    def test_classical_overlap_implies_matching_bound(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(4, 9)
            cover = random_partition(rng, n)
            f = random_subset(rng, range(n))
            shift = rng.randrange(n)
            gf = [(x + shift) % n for x in f]
            overlap = len(set(f) & set(gf))
            value = mu(f, gf, cover)
            assert value >= overlap

    def test_two_coloring_moore_matching_identity(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(4, 10)
            atoms = list(range(n))
            a = set(random_subset(rng, atoms, allow_empty=True))
            blocks = [sorted(a), sorted(set(atoms) - a)]
            blocks = [b for b in blocks if b]
            cover = Covering(GroundSet(atoms), blocks)
            f = random_subset(rng, atoms)
            shift = rng.randrange(n)
            gf = [(x + shift) % n for x in f]
            expected = min(len(set(f) & a), len(set(gf) & a)) + min(
                len(set(f) - a), len(set(gf) - a)
            )
            value = mu_partition(f, gf, cover) if len(blocks) > 1 else len(set(f))
            assert value == expected == mu(f, gf, cover)
            gap = abs(len(set(f) & a) - len(set(gf) & a))
            assert value == len(set(f)) - gap

    def test_generator_amplification_on_z2(self):
        # per-letter matchings against the joined pullback covering compose,
        # after translation, into a matching for the full word in the
        # iterated star of the base covering
        z2 = IntegerLattice(2)
        rng = random.Random(13)
        for _ in range(8):
            n = rng.randint(2, 3)
            letters = [rng.choice(z2.generators()) for _ in range(n)]
            box = 6
            window = [
                (x, y) for x in range(-box, box + 1) for y in range(-box, box + 1)
            ]
            ground = GroundSet(sorted(window, key=z2.sort_key))
            base = Covering(
                ground,
                [
                    [p for p in window if (p[0] + p[1]) % 2 == 0],
                    [p for p in window if (p[0] + p[1]) % 2 == 1],
                ],
            )
            # pull the covering back along every shift that appears
            shifts = [z2.identity]
            suffix = z2.identity
            for letter in reversed(letters):
                suffix = z2.multiply(suffix, letter)
                shifts.append(suffix)
            core = [
                p
                for p in window
                if all(
                    z2.multiply(s, p) in ground
                    and z2.multiply(z2.multiply(s, letter), p) in ground
                    for s in shifts
                    for letter in letters
                )
            ]
            core_ground = GroundSet(sorted(core, key=z2.sort_key))
            wedge = None
            for s in shifts:
                pulled = Covering(
                    core_ground,
                    [
                        [p for p in core if z2.multiply(s, p) in bs]
                        for bs in base.blocks
                        if any(z2.multiply(s, p) in bs for p in core)
                    ],
                )
                wedge = pulled if wedge is None else join(wedge, pulled)
            f = z2.canon_set(
                (x, y) for x in range(-1, 2) for y in range(-1, 2)
            )
            chain_sets = [f]
            witnesses = []
            total = 0
            for i in range(n):
                letter = letters[n - 1 - i]
                shift = shifts[i]
                value, witness = mu_with_witness(
                    f, z2.translate(letter, f), wedge
                )
                total += value
                witnesses.append(
                    translate_witness(
                        z2, shift, f, z2.translate(letter, f), witness
                    )
                )
                chain_sets.append(
                    z2.translate(shift, z2.translate(letter, f))
                )
            composed = compose_matchings(chain_sets, witnesses, base)
            assert len(composed) >= total - (n - 1) * len(f)
