import random

import pytest

from matchcover import bipartite
from matchcover.bipartite import (
    BipartiteGraph,
    MatchingWitness,
    WitnessError,
    covering_graph,
    hall_deficiency,
    max_matching,
    mu,
    mu_partition,
    mu_partition_witness,
    mu_with_witness,
    validate_witness,
)
from matchcover.cover import Covering, GroundSet, refines, star_iterate

from lemmas import compose_matchings
from oracles import (
    hall_deficiency_bruteforce,
    koenig_reference,
    max_matching_bruteforce,
    random_covering,
    random_graph,
    random_partition,
    random_subset,
)


def complete(nl, nr):
    return BipartiteGraph(
        tuple(range(nl)),
        tuple(range(nr)),
        frozenset((i, j) for i in range(nl) for j in range(nr)),
    )


DEFICIENT_GRAPH = BipartiteGraph(
    ("a", "b", "c"), ("1", "2"), frozenset({(0, 0), (1, 0), (2, 1)})
)


def long_alternating_path(n: int) -> BipartiteGraph:
    """Left i sees rights i and i+1, the last left only right 0: the final
    augmenting path runs through every vertex."""
    edges = {(i, i) for i in range(n - 1)} | {(i, i + 1) for i in range(n - 1)}
    return BipartiteGraph(tuple(range(n)), tuple(range(n)), frozenset(edges | {(n - 1, 0)}))


class TestMaxMatching:
    def test_complete_k33(self):
        size, w = max_matching(complete(3, 3))
        assert size == 3
        validate_witness(complete(3, 3), w)

    def test_edgeless(self):
        g = BipartiteGraph((1, 2), (3,), frozenset())
        assert max_matching(g) == (0, MatchingWitness(()))

    def test_three_against_two(self):
        size, w = max_matching(DEFICIENT_GRAPH)
        assert size == 2 == max_matching_bruteforce(DEFICIENT_GRAPH)
        validate_witness(DEFICIENT_GRAPH, w)

    def test_deterministic_witness(self):
        rng = random.Random(1)
        for _ in range(20):
            g = random_graph(rng, 8, 8)
            assert max_matching(g) == max_matching(g)

    def test_long_alternating_path_needs_no_recursion(self):
        n = 100_000
        g = long_alternating_path(n)
        size, witness = max_matching(g)
        assert size == n
        validate_witness(g, witness)


class TestHallDeficiency:
    def test_complete_has_none(self):
        assert hall_deficiency(complete(4, 4)) == (0, ())

    def test_spec_example(self):
        deficiency, witness = hall_deficiency(DEFICIENT_GRAPH)
        assert deficiency == 1
        assert witness == ("a", "b")

    def test_edgeless_left(self):
        g = BipartiteGraph((1, 2, 3), (4,), frozenset())
        assert hall_deficiency(g) == (3, (1, 2, 3))

    def test_koenig_mode_matches_exhaustive(self):
        rng = random.Random(2)
        for _ in range(80):
            g = random_graph(rng, 9, 9)
            # same deficiency and the same subset: the reachable set is the
            # inclusion-minimal maximizer, hence the first one in mask order
            assert hall_deficiency(g) == hall_deficiency_bruteforce(g)


    def test_one_matching_gives_both(self):
        rng = random.Random(7)
        for _ in range(80):
            g = random_graph(rng, 12, 12)
            assert bipartite._match_with_deficiency(g) == (*max_matching(g), *hall_deficiency(g))

    def test_last_phase_is_the_koenig_reference(self):
        """The subset read from the matcher's last phase is the one a
        separate alternating search finds, on graphs past the brute force."""
        rng = random.Random(11)
        beyond_unmatched = 0
        for trial in range(60):
            g = random_graph(rng, 200, 200, density=rng.choice((0.005, 0.01, 0.03)))
            deficiency, subset = hall_deficiency(g)
            assert (deficiency, subset) == koenig_reference(g, max_matching(g)[1]), trial
            beyond_unmatched += len(subset) > deficiency
        # most subsets hold matched left vertices too, reached by alternating paths
        assert beyond_unmatched >= 30

    @pytest.mark.parametrize("drop_right_zero", [False, True], ids=["perfect", "deficient"])
    def test_long_alternating_path_is_the_koenig_reference(self, drop_right_zero):
        """Hopcroft-Karp runs many phases here; without right 0 the last
        left vertex has no edge and one left vertex stays unmatched."""
        g = long_alternating_path(100_000)
        if drop_right_zero:
            edges = frozenset((i, j - 1) for i, j in g.edges if j)
            g = BipartiteGraph(g.left, g.right[1:], edges)
        got = hall_deficiency(g)
        assert got == koenig_reference(g, max_matching(g)[1])
        assert got[0] == drop_right_zero


class TestPerfectMatching:
    def test_complete(self):
        g = complete(5, 5)
        assert max_matching(g)[0] == len(g.left)

    def test_pigeonhole(self):
        g = complete(4, 3)
        assert max_matching(g)[0] != len(g.left)

    def test_spec_example(self):
        assert max_matching(DEFICIENT_GRAPH)[0] != len(DEFICIENT_GRAPH.left)


class TestCoveringGraph:
    def test_same_sets_have_all_loops(self):
        rng = random.Random(3)
        for _ in range(20):
            u = random_covering(rng, 6)
            e = random_subset(rng, range(6))
            g = covering_graph(e, e, u)
            for i in range(len(g.left)):
                assert (i, i) in g.edges
            assert max_matching(g)[0] == len(g.left)

    def test_z6_parity_edges(self):
        parity = Covering(GroundSet(range(6)), [[0, 2, 4], [1, 3, 5]])
        g = covering_graph([0, 1, 2], [1, 2, 3], parity)
        for i, j in g.edges:
            assert (g.left[i] - g.right[j]) % 2 == 0

    def test_whole_set_gives_complete_graph(self):
        u = Covering(GroundSet(range(5)), [range(5)])
        g = covering_graph([0, 1], [2, 3, 4], u)
        assert len(g.edges) == 6

    def test_elements_outside_ground(self):
        u = Covering(GroundSet(range(3)), [range(3)])
        with pytest.raises(ValueError, match="not in ground"):
            covering_graph([0, 7], [1], u)


class TestCoveringRows:
    """``_covering_rows`` reads the covering graph's rows off the block index."""

    def test_rows_are_the_covering_graph_adjacency(self):
        rng = random.Random(20261019)
        overlapping = 0
        for trial in range(300):
            n = rng.randint(1, 14)
            raw = random_covering(rng, n, max_blocks=7)
            atoms = list(range(n))
            rng.shuffle(atoms)  # ground order differs from atom order
            u = Covering(GroundSet(atoms), raw.blocks)
            overlapping += not u.is_partition()
            e = random_subset(rng, range(n)) + random_subset(rng, range(n), allow_empty=True)
            f = random_subset(rng, range(n), allow_empty=True)
            graph = covering_graph(e, f, u)
            left, right, rows = bipartite._covering_rows(e, f, u)
            assert (left, right) == (graph.left, graph.right)
            assert rows == graph.adjacency(), (trial, u.blocks, e, f)
            assert mu_with_witness(e, f, u) == max_matching(graph)
        assert overlapping > 200

    def test_builds_no_graph(self, monkeypatch):
        u = Covering(GroundSet(range(6)), [[0, 1, 2], [2, 3], [3, 4, 5], [1, 4]])
        want = max_matching(covering_graph([0, 1, 2, 3], [2, 3, 4, 5], u))

        def refuse(*args, **kwargs):
            raise AssertionError("mu_with_witness built a graph")

        for name in ("covering_graph", "BipartiteGraph", "max_matching"):
            monkeypatch.setattr(bipartite, name, refuse)
        assert mu_with_witness([0, 1, 2, 3], [2, 3, 4, 5], u) == want

    def test_elements_outside_ground(self):
        u = Covering(GroundSet(range(3)), [range(3)])
        with pytest.raises(ValueError, match="not in ground"):
            mu([0, 7], [1], u)


class TestMu:
    def test_self_matching_is_full(self):
        rng = random.Random(4)
        for _ in range(20):
            u = random_covering(rng, 7)
            f = random_subset(rng, range(7))
            assert mu(f, f, u) == len(set(f))

    def test_z6_parity_value(self):
        parity = Covering(GroundSet(range(6)), [[0, 2, 4], [1, 3, 5]])
        assert mu([0, 1, 2], [1, 2, 3], parity) == 2

    def test_intersection_lower_bound(self):
        u = Covering(GroundSet(range(6)), [[0, 1, 2], [2, 3], [3, 4, 5]])
        value = mu([1, 2], [2, 5], u)
        assert value >= 1  # shared elements always self-match
        assert value == max_matching_bruteforce(covering_graph([1, 2], [2, 5], u))

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(3, 8)
            u = random_covering(rng, n)
            e = random_subset(rng, range(n))
            f = random_subset(rng, range(n))
            assert mu(e, f, u) == mu(f, e, u)

    def test_covering_monotonicity(self):
        rng = random.Random(6)
        for _ in range(60):
            n = rng.randint(3, 7)
            u = random_covering(rng, n)
            v = random_covering(rng, n)
            if not refines(u, v):
                continue
            e = random_subset(rng, range(n))
            f = random_subset(rng, range(n))
            assert mu(e, f, v) <= mu(e, f, u)

    def test_relabeling_monotonicity(self):
        # edge-preserving bijections never decrease the matching number
        rng = random.Random(7)
        for _ in range(40):
            g = random_graph(rng, 7, 7)
            perm_l = list(range(len(g.left)))
            perm_r = list(range(len(g.right)))
            rng.shuffle(perm_l)
            rng.shuffle(perm_r)
            extra = frozenset(
                (rng.randrange(len(g.left)), rng.randrange(len(g.right)))
                for _ in range(rng.randint(0, 5))
            )
            relabeled = BipartiteGraph(
                g.left,
                g.right,
                frozenset((perm_l[i], perm_r[j]) for i, j in g.edges) | extra,
            )
            assert max_matching(g)[0] <= max_matching(relabeled)[0]


class TestMuPartition:
    def test_singleton_partition(self):
        p = Covering(GroundSet(range(5)), [[i] for i in range(5)])
        assert mu_partition([0, 1, 2], [1, 2, 4], p) == 2
        assert mu_partition([0, 1, 2, 1, 0], [1, 2, 4, 4], p) == 2

    def test_whole_set(self):
        p = Covering(GroundSet(range(5)), [range(5)])
        assert mu_partition([0, 1, 2], [3, 4], p) == 2
        assert mu_partition([0, 0, 0], [3, 4], p) == 1

    def test_z6_parity(self):
        parity = Covering(GroundSet(range(6)), [[0, 2, 4], [1, 3, 5]])
        assert mu_partition([0, 1, 2], [1, 2, 3], parity) == 2
        assert mu_partition([0, 1, 2, 2, 1], [1, 2, 3, 2], parity) == 2
        for e, f in (([0, 9], [1]), ([0], [1, 9, 8]), ([9], [8])):
            for route in (mu_partition, mu_partition_witness):
                with pytest.raises(ValueError, match=r"^atom not in ground set: 9$"):
                    route(e, f, parity)

    def test_rejects_non_partition(self):
        u = Covering(GroundSet(range(3)), [[0, 1], [1, 2]])
        for route in (mu_partition, mu_partition_witness):
            with pytest.raises(ValueError, match="not a partition"):
                route([0], [1], u)

    def test_agrees_with_general_mu(self):
        rng = random.Random(8)
        for _ in range(60):
            n = rng.randint(3, 8)
            p = random_partition(rng, n)
            e = random_subset(rng, range(n))
            f = random_subset(rng, range(n))
            assert mu_partition(e, f, p) == mu(e, f, p)
            # repeated entries count once on both routes
            e2, f2 = e + e[::2], f[:2] + f
            assert mu_partition(e2, f2, p) == mu(e2, f2, p) == mu(e, f, p)
            # an atom outside the ground: the same error on both routes
            for args in ((e2 + [n], f), (e, [n] + f2)):
                for route in (mu_partition, mu):
                    with pytest.raises(ValueError, match=rf"^atom not in ground set: {n}$"):
                        route(*args, p)


class TestMuPartitionWitness:
    """The per-block greedy is the general matcher's answer on partitions."""

    def shuffled_partition(self, rng, n):
        atoms = list(range(n))
        rng.shuffle(atoms)  # ground order is not the atoms' natural order
        parts = rng.randint(1, n)
        blocks = [atoms[b::parts] for b in range(parts)]
        if rng.random() < 0.5:  # some singleton blocks
            blocks = [[a] for a in blocks.pop()] + blocks
        return Covering(GroundSet(atoms), [b for b in blocks if b])

    def test_equals_max_matching_on_the_covering_graph(self):
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(1, 14)
            p = self.shuffled_partition(rng, n)
            e = [rng.randrange(n) for _ in range(rng.randint(0, n + 3))]  # repeats, empty
            f = [rng.randrange(n) for _ in range(rng.randint(0, n + 3))]
            got = mu_partition_witness(e, f, p)
            assert got == max_matching(covering_graph(e, f, p)), (e, f, p.blocks)
            assert got[0] == mu_partition(e, f, p)

    def test_lowest_free_right_index_per_block(self):
        p = Covering(GroundSet(range(6)), [[0, 2, 4], [1, 3, 5]])
        # left 0,1,2,4 and right 0,3,4,5 in ground order; atom 4 finds its block used up
        assert mu_partition_witness([4, 2, 1, 0], [5, 4, 3, 0], p) == (
            3,
            MatchingWitness(((0, 0), (1, 1), (2, 2))),
        )


class TestCompose:
    def test_identity_chain(self):
        u = Covering(GroundSet(range(4)), [range(4)])
        f = (0, 1, 2)
        ident = MatchingWitness(((0, 0), (1, 1), (2, 2)))
        out = compose_matchings([f, f, f], [ident, ident], u)
        assert out == ident

    def test_size_bound_two_step(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(3, 8)
            u = random_covering(rng, n)
            f0 = random_subset(rng, range(n))
            f1 = random_subset(rng, range(n))
            f2 = random_subset(rng, range(n))
            m0, w0 = mu_with_witness(f0, f1, u)
            m1, w1 = mu_with_witness(f1, f2, u)
            out = compose_matchings([f0, f1, f2], [w0, w1], u)
            assert len(out) >= m0 + m1 - len(set(f1))

    def test_empty_witness_gives_empty_composite(self):
        u = Covering(GroundSet(range(3)), [[0], [1], [2]])
        w_full = MatchingWitness(((0, 0),))
        w_empty = MatchingWitness(())
        out = compose_matchings([[0], [0], [1]], [w_full, w_empty], u)
        assert out == MatchingWitness(())

    def test_incompatible_chain(self):
        u = Covering(GroundSet(range(3)), [range(3)])
        with pytest.raises(ValueError):
            compose_matchings([[0], [1]], [], u)

    def test_bad_witness_rejected(self):
        u = Covering(GroundSet(range(3)), [[0], [1], [2]])
        bad = MatchingWitness(((0, 0),))  # not an edge: 0 and 1 share no block
        with pytest.raises(WitnessError):
            compose_matchings([[0], [1]], [bad], u)


class TestHallIdentity:
    def test_matching_plus_deficiency_is_left_size(self):
        rng = random.Random(10)
        for _ in range(100):
            g = random_graph(rng, 10, 10)
            size, _ = max_matching(g)
            deficiency, _ = hall_deficiency(g)
            assert size + deficiency == len(g.left)


class TestCompositionInequality:
    def test_star_composition_bound(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(3, 8)
            u = random_covering(rng, n)
            f0 = random_subset(rng, range(n))
            f1 = random_subset(rng, range(n))
            f2 = random_subset(rng, range(n))
            lhs = mu(f0, f2, star_iterate(u, 1))
            rhs = mu(f0, f1, u) + mu(f1, f2, u) - len(set(f1))
            assert lhs >= rhs


class TestWitnessValidation:
    def test_duplicate_left_rejected(self):
        g = complete(2, 2)
        with pytest.raises(WitnessError, match="matched twice"):
            validate_witness(g, MatchingWitness(((0, 0), (0, 1))))

    def test_duplicate_right_rejected(self):
        g = complete(2, 2)
        with pytest.raises(WitnessError, match="matched twice"):
            validate_witness(g, MatchingWitness(((0, 0), (1, 0))))

    def test_non_edge_rejected(self):
        g = BipartiteGraph((0, 1), (0, 1), frozenset({(0, 0)}))
        with pytest.raises(WitnessError, match="not an edge"):
            validate_witness(g, MatchingWitness(((1, 1),)))
