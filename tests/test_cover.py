import copy
import pickle
import random

import pytest

from matchcover.cover import (
    Covering,
    GroundMismatch,
    GroundSet,
    StarLimitExceeded,
    join,
    refines,
    star_covering,
    star_iterate,
    star_refines,
    star_set,
)

from matchcover.folner import Coloring

from oracles import random_covering, random_partition


def cov(ground, *blocks):
    return Covering(GroundSet(ground), blocks)


class TestValidation:
    def test_ground_rejects_duplicates(self):
        with pytest.raises(ValueError):
            GroundSet([1, 2, 2])

    @pytest.mark.parametrize(
        "atoms, named", [(["a", "b", "b", "a"], "'b'"), (["a", "b", "a", "b"], "'a'")]
    )
    def test_ground_names_the_first_atom_seen_twice(self, atoms, named):
        with pytest.raises(ValueError) as error:
            GroundSet(atoms)
        assert str(error.value) == f"duplicate atom in ground set: {named}"

    def test_ground_rejects_empty(self):
        with pytest.raises(ValueError):
            GroundSet([])

    def test_blocks_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            cov([1, 2, 3], [1, 2])

    def test_empty_block_rejected_by_default(self):
        with pytest.raises(ValueError, match="empty"):
            cov([1, 2], [1, 2], [])

    def test_duplicate_blocks_merged(self):
        c = cov([1, 2], [1, 2], [2, 1])
        assert len(c.blocks) == 1

    def test_blocks_canonicalized(self):
        c = cov([3, 1, 2], [2, 1, 3])
        assert c.blocks == ((3, 1, 2),)  # ground order, not value order


class TestRefines:
    def test_whole_set_is_coarsest(self):
        u = cov([1, 2, 3], [1], [2], [3])
        top = cov([1, 2, 3], [1, 2, 3])
        assert refines(top, u)

    def test_reflexive(self):
        u = cov([1, 2, 3], [1, 2], [2, 3])
        assert refines(u, u)

    def test_counterexample(self):
        coarse = cov([1, 2, 3], [1, 2], [3])
        fine = cov([1, 2, 3], [1], [2, 3])
        assert not refines(coarse, fine)

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatch):
            refines(cov([1, 2], [1, 2]), cov([1, 3], [1, 3]))


class TestJoin:
    def test_whole_set_absorbs(self):
        u = cov([1, 2, 3, 4], [1, 2], [3, 4])
        assert join(u, cov([1, 2, 3, 4], [1, 2, 3, 4])) == u

    def test_z4_parity_against_halves(self):
        parity = cov([0, 1, 2, 3], [0, 2], [1, 3])
        halves = cov([0, 1, 2, 3], [0, 1], [2, 3])
        assert join(parity, halves) == cov([0, 1, 2, 3], [0], [1], [2], [3])

    def test_idempotent_on_partitions(self):
        p = cov([0, 1, 2, 3], [0, 1], [2], [3])
        assert join(p, p) == p


class TestStars:
    def test_star_of_empty_set(self):
        u = cov([1, 2, 3], [1, 2], [2, 3])
        assert star_set([], u) == ()

    def test_star_of_whole_set(self):
        u = cov([1, 2, 3], [1, 2], [2, 3])
        assert star_set([1, 2, 3], u) == (1, 2, 3)

    def test_star_of_point(self):
        u = cov([1, 2, 3, 4], [1, 2], [2, 3], [3, 4])
        assert star_set([2], u) == (1, 2, 3)

    def test_star_covering_fixes_partitions(self):
        p = cov([0, 1, 2, 3], [0, 1], [2, 3])
        assert star_covering(p) == p

    def test_star_covering_path(self):
        u = cov([1, 2, 3, 4], [1, 2], [2, 3], [3, 4])
        assert star_covering(u) == cov(
            [1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 4], [2, 3, 4]
        )

    def test_star_covering_fixes_singleton_cover(self):
        u = cov([1, 2, 3], [1], [2], [3])
        assert star_covering(u) == u

    def test_iterate_zero_is_identity(self):
        u = cov([1, 2, 3], [1, 2], [2, 3])
        assert star_iterate(u, 0) == u

    def test_iterate_fixes_partitions(self):
        p = cov([0, 1, 2], [0], [1, 2])
        assert star_iterate(p, 5) == p

    def test_iterate_path_twice(self):
        u = cov([1, 2, 3, 4, 5], [1, 2], [2, 3], [3, 4], [4, 5])
        assert star_iterate(u, 2) == cov([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])

    def test_iterate_limit(self):
        u = cov([1, 2], [1, 2])
        with pytest.raises(StarLimitExceeded):
            star_iterate(u, 9)

    def test_star_refines_whole_set(self):
        v = cov([1, 2, 3], [1, 2], [2, 3])
        assert star_refines(cov([1, 2, 3], [1, 2, 3]), v)

    def test_star_refines_partition_is_plain_refinement(self):
        p = cov([0, 1, 2, 3], [0, 1], [2, 3])
        assert star_refines(p, p) == refines(p, p) is True

    def test_star_refines_computed_case(self):
        coarse = cov([1, 2, 3, 4], [1, 2, 3], [2, 3, 4])
        fine = cov([1, 2, 3, 4], [1, 2], [2, 3], [3, 4])
        # fine* contains the block {1,2,3,4}, which fits in no coarse block
        assert star_refines(coarse, fine) is False


class TestProperties:
    def test_refinement_is_a_preorder(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 6)
            u = random_covering(rng, n)
            v = random_covering(rng, n)
            w = random_covering(rng, n)
            assert refines(u, u)
            if refines(u, v) and refines(v, w):
                assert refines(u, w)

    def test_star_contains_original_blocks(self):
        rng = random.Random(8)
        for _ in range(40):
            u = random_covering(rng, rng.randint(2, 7))
            assert refines(star_covering(u), u)

    def test_star_monotone_under_refinement(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 6)
            u = random_covering(rng, n)
            v = random_covering(rng, n)
            if not refines(u, v):
                continue
            for _ in range(3):
                s = random_covering(rng, n).blocks[0]
                assert set(star_set(s, v)) <= set(star_set(s, u))

    def test_join_refines_both(self):
        rng = random.Random(10)
        for _ in range(40):
            n = rng.randint(2, 6)
            u = random_covering(rng, n)
            v = random_covering(rng, n)
            j = join(u, v)
            assert refines(u, j) and refines(v, j)

    def test_star_iterate_adds_up(self):
        rng = random.Random(11)
        for _ in range(20):
            u = random_covering(rng, rng.randint(2, 6))
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            assert star_iterate(u, m + n) == star_iterate(star_iterate(u, m), n)

    def test_restrict_keeps_pair_relations(self):
        rng = random.Random(12)
        for _ in range(30):
            n = rng.randint(3, 7)
            u = random_covering(rng, n)
            window = rng.sample(range(n), rng.randint(2, n))
            sub = u.restrict(window)
            for x in window:
                for y in window:
                    joined = any({x, y} <= set(b) for b in u.blocks)
                    joined_sub = any({x, y} <= set(b) for b in sub.blocks)
                    assert joined == joined_sub


class TestBlockIndex:
    """``Covering.blocks_of`` against a scan of ``cover.blocks``."""

    def test_matches_block_scan(self):
        rng = random.Random(13)
        partitions = 0
        for trial in range(200):
            n = rng.randint(1, 12)
            raw = random_partition(rng, n) if trial % 2 else random_covering(rng, n)
            atoms = list(range(n))
            rng.shuffle(atoms)  # ground order differs from atom order
            cover = Covering(GroundSet(atoms), raw.blocks)
            scan = {
                a: frozenset(b for b, block in enumerate(cover.blocks) if a in block)
                for a in atoms
            }
            assert dict(cover.blocks_of) == scan
            one_block_each = all(len(bs) == 1 for bs in scan.values())
            assert cover.is_partition() == one_block_each
            if one_block_each:  # equal entries are shared: one per block
                assert len({id(bs) for bs in cover.blocks_of.values()}) == len(cover)
            partitions += one_block_each
        assert 100 <= partitions < 200

    def test_index_is_read_only(self):
        cover = cov([1, 2, 3], [1, 2], [2, 3])
        assert cover.blocks_of[2] == frozenset({0, 1})
        with pytest.raises(TypeError):
            cover.blocks_of[1] = frozenset()
        with pytest.raises(AttributeError):
            cover.blocks_of = {}

    def test_covering_pickles_and_copies(self):
        cover = cov([1, 2, 3], [1, 2], [2, 3])
        for again in (pickle.loads(pickle.dumps(cover)), copy.deepcopy(cover)):
            assert again == cover and dict(again.blocks_of) == dict(cover.blocks_of)


def entry_sharing(cover) -> list:
    """The atoms of each distinct ``blocks_of`` entry object, in index order."""
    groups: dict = {}
    for atom, entry in cover.blocks_of.items():
        groups.setdefault(id(entry), []).append(atom)
    return list(groups.values())


def assert_checked_equal(got, ground, blocks) -> None:
    """``got`` reads as ``Covering(ground, blocks)`` does, in every way."""
    want = Covering(ground, blocks)
    assert got == want and hash(got) == hash(want)
    assert got.ground == want.ground and got.blocks == want.blocks
    assert dict(got.blocks_of) == dict(want.blocks_of)
    assert list(got.blocks_of) == list(want.blocks_of)
    assert entry_sharing(got) == entry_sharing(want)
    assert got.is_partition() == want.is_partition()


def reordered(cover, rng) -> Covering:
    """The same blocks over the same atoms in a shuffled ground order."""
    atoms = list(cover.ground.atoms)
    rng.shuffle(atoms)
    return Covering(GroundSet(atoms), cover.blocks)


class TestUncheckedCoverings:
    """``restrict``, ``join``, ``star_covering`` and ``Coloring.partition``
    skip the constructor's checks; each must build the covering that the
    checked ``Covering`` builds from the same blocks."""

    @staticmethod
    def seeded(rng, trials: int) -> list:
        out = []
        for trial in range(trials):
            n = rng.randint(1, 10)
            raw = random_partition(rng, n) if trial % 2 else random_covering(rng, n)
            out.append(reordered(raw, rng) if trial % 3 else raw)
        return out

    def test_restrict(self):
        rng = random.Random(31)
        kinds = set()
        for u in self.seeded(rng, 200):
            window = rng.sample(u.ground.atoms, rng.randint(1, len(u.ground)))
            keep = set(window)
            sub_ground = GroundSet(a for a in u.ground.atoms if a in keep)
            trimmed = [[a for a in block if a in keep] for block in u.blocks]
            got = u.restrict(window)
            assert_checked_equal(got, sub_ground, [b for b in trimmed if b])
            kinds.add((u.is_partition(), got.is_partition()))
        assert kinds == {(True, True), (False, False), (False, True)}

    def test_join(self):
        rng = random.Random(32)
        for trial, u in enumerate(self.seeded(rng, 150)):
            other = random_partition if trial % 4 < 2 else random_covering
            v = Covering(u.ground, other(rng, len(u.ground)).blocks)  # the same atoms
            common = [set(a) & set(b) for a in u.blocks for b in v.blocks]
            assert_checked_equal(join(u, v), u.ground, [c for c in common if c])

    def test_star_covering(self):
        rng = random.Random(33)
        for u in self.seeded(rng, 150):
            stars = [
                {a for b in u.blocks if set(b) & set(block) for a in b} for block in u.blocks
            ]
            assert_checked_equal(star_covering(u), u.ground, stars)

    def test_coloring_partition(self):
        rng = random.Random(34)
        for u in self.seeded(rng, 150):
            k = rng.randint(1, 4)
            colors = tuple(rng.randint(0, k) for _ in u.ground.atoms)
            classes = [[a for a, c in zip(u.ground.atoms, colors) if c == color]
                       for color in range(k + 1)]
            rng.shuffle(classes)
            got = Coloring(u.ground, colors, k).partition()
            assert_checked_equal(got, u.ground, [c for c in classes if c])
            assert got.is_partition()

    def test_restrict_reorders_overlapping_blocks(self):
        u = cov(range(6), [0, 1, 5], [0, 2], [3, 4])
        assert u.blocks == ((0, 1, 5), (0, 2), (3, 4))
        got = u.restrict([0, 2, 3, 4, 5])
        assert got.blocks == ((0, 2), (0, 5), (3, 4)) and not got.is_partition()
        assert_checked_equal(got, GroundSet([0, 2, 3, 4, 5]), [[0, 5], [0, 2], [3, 4]])

    def test_restrict_reorders_a_partition(self):
        u = cov(range(6), [0, 5], [1, 2], [3, 4])
        assert u.blocks == ((0, 5), (1, 2), (3, 4)) and u.is_partition()
        got = u.restrict([1, 2, 3, 4, 5])
        assert got.blocks == ((1, 2), (3, 4), (5,)) and got.is_partition()
        assert_checked_equal(got, GroundSet([1, 2, 3, 4, 5]), [[5], [1, 2], [3, 4]])

    def test_restrict_merges_repeats_into_a_partition(self):
        u = cov(range(4), [0, 1, 2], [1, 2], [3])
        assert not u.is_partition()
        got = u.restrict([1, 2, 3])
        assert got.blocks == ((1, 2), (3,)) and got.is_partition()
        assert len(entry_sharing(got)) == len(got)  # one entry per block
        assert_checked_equal(got, GroundSet([1, 2, 3]), [[1, 2], [1, 2], [3]])
