"""Every matcher of the library stores a witness's pairs strictly ascending
in the left index, so ``serialize.witness_to_json`` writes them as stored.

The producers are ``max_matching``, ``mu_with_witness``,
``mu_partition_witness``, ``perfect_net`` and ``build_certificate``.  A
hand-built witness is written as given; ``witness_from_json`` sorts the
pairs it reads, so the order in a document never changes a verdict.
"""

import random
from fractions import Fraction

import pytest

from matchcover import serialize as ser
from matchcover.bipartite import (
    MatchingWitness,
    max_matching,
    mu_partition_witness,
    mu_with_witness,
)
from matchcover.cover import Covering, GroundSet
from matchcover.folner import build_certificate, perfect_net
from matchcover.groups import IntegerLattice, cyclic_group, symmetric_group

from oracles import random_covering, random_graph, random_partition, random_subset

Z2 = IntegerLattice(2)


def left_ascending(witness) -> bool:
    lefts = [i for i, _ in witness.pairs]
    return all(a < b for a, b in zip(lefts, lefts[1:]))


@pytest.mark.parametrize("seed", range(30))
def test_matchers_store_pairs_by_left_index(seed):
    rng = random.Random(seed)
    witnesses = [max_matching(random_graph(rng, 14, 14))[1]]
    ground = range(14)
    for cover in (random_covering(rng, 14), random_partition(rng, 14)):
        e, f = random_subset(rng, ground), random_subset(rng, ground)
        witnesses.append(mu_with_witness(e, f, cover)[1])
        if cover.is_partition():
            witnesses.append(mu_partition_witness(e, f, cover)[1])
    assert max(map(len, witnesses)) > 1
    assert all(map(left_ascending, witnesses))


def parity_blocks(window) -> list:
    return [[g for g in window if sum(g) % 2 == parity] for parity in (0, 1)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("partition", [True, False], ids=["partition", "covering"])
@pytest.mark.parametrize("mode", ["asym", "sym"])
def test_certificate_pairs_by_left_index(seed, partition, mode):
    rng = random.Random(seed)
    window = Z2.ball(4)
    blocks = parity_blocks(window)
    if not partition:  # overlapping squares put the general matcher to work
        blocks += [
            [(x + dx, y + dy) for dx in (0, 1) for dy in (0, 1)]
            for x, y in rng.sample([g for g in Z2.ball(2) if g[0] < 2], 4)
        ]
    cover = Covering(GroundSet(window), blocks)
    assert cover.is_partition() == partition
    f = rng.sample(Z2.ball(2), rng.randint(10, 13))  # both parities
    e = rng.sample(Z2.ball(1), rng.randint(2, 5))  # two translates, so sym has a pair
    cert = build_certificate(Z2, f, e, cover, Fraction(1, 2), mode)
    assert max(len(p.witness) for p in cert.pairs) > 1
    assert all(left_ascending(p.witness) for p in cert.pairs)


@pytest.mark.parametrize("seed", range(6))
def test_perfect_net_witnesses_by_left_index(seed):
    rng = random.Random(seed)
    model = rng.choice([cyclic_group(8), symmetric_group(3), symmetric_group(4)])
    u = [model.identity, *rng.sample(model.generators(), rng.randint(1, 3))]
    net = perfect_net(model, u)
    assert max(len(w) for _, w in net.matchings) > 1
    assert all(left_ascending(w) for _, w in net.matchings)


def test_a_hand_built_witness_is_written_as_given_and_read_sorted():
    w = MatchingWitness(((2, 0), (0, 1)))
    doc = ser.witness_to_json(w)
    assert doc == {"pairs": [[2, 0], [0, 1]]}
    assert ser.witness_from_json(doc) == MatchingWitness(((0, 1), (2, 0)))
