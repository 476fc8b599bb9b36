"""Maximum bipartite matching with certified witnesses.

The matcher is an augmenting-path implementation (Hopcroft-Karp phasing)
that returns an explicit matching.  Its core runs on adjacency rows, which
library callers build directly (a covering's rows come from its block
index); ``BipartiteGraph`` is the checked type for graphs from outside, and
``covering_graph`` spells a covering graph out edge by edge for display and
for reference checks.  The Hall deficiency certifies maximality from the
dual side: matching size plus deficiency always equals the size of the left
part.  Its attaining subset is Koenig's set, the left vertices on
alternating paths from the unmatched ones, which the matcher's last phase
has already reached when it finds no augmenting path.

Covering-induced graphs connect x to y whenever some block of the covering
contains both, so matching numbers between finite sets with respect to a
covering reduce to plain maximum matching here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .cover import Covering

_UNSET = -1


class WitnessError(ValueError):
    """A matching witness failed validation against its graph."""


@dataclass(frozen=True)
class BipartiteGraph:
    """Two ordered vertex lists and a set of (left-index, right-index) edges."""

    left: tuple
    right: tuple
    edges: frozenset

    def __post_init__(self):
        for side, names in (("left", self.left), ("right", self.right)):
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate {side} vertex names")
        nl, nr = len(self.left), len(self.right)
        for i, j in self.edges:
            if not (0 <= i < nl and 0 <= j < nr):
                raise ValueError(f"edge ({i},{j}) out of range")

    def adjacency(self) -> list:
        """Right neighbors per left index, ascending (fixes determinism)."""
        adj: list = [[] for _ in self.left]
        for i, j in self.edges:
            adj[i].append(j)
        for row in adj:
            row.sort()
        return adj


@dataclass(frozen=True)
class MatchingWitness:
    """An injective partial map left -> right, stored as index pairs."""

    pairs: tuple

    def __len__(self) -> int:
        return len(self.pairs)


def validate_witness(graph: BipartiteGraph, witness: MatchingWitness) -> None:
    """Raise WitnessError unless the witness is a matching of the graph."""
    seen_left: set = set()
    seen_right: set = set()
    for i, j in witness.pairs:
        if (i, j) not in graph.edges:
            raise WitnessError(f"pair ({i},{j}) is not an edge")
        if i in seen_left:
            raise WitnessError(f"left index {i} matched twice")
        if j in seen_right:
            raise WitnessError(f"right index {j} matched twice")
        seen_left.add(i)
        seen_right.add(j)


def max_matching(graph: BipartiteGraph) -> tuple[int, MatchingWitness]:
    """Maximum matching via Hopcroft-Karp on the graph's adjacency rows."""
    return _match_rows(graph.adjacency(), len(graph.right))[:2]


def _match_rows(adj: Sequence, n_right: int) -> tuple[int, MatchingWitness, list]:
    """Hopcroft-Karp on ``adj[i]``, the right indices (below ``n_right``,
    ascending) joined to left index i: (size, witness, reached).

    Left vertices are scanned in index order and rows ascend, so the
    witness depends only on the rows.  Rows are trusted: callers inside the
    library build them in range and in order, and ``BipartiteGraph`` checks
    graphs that come from outside.  ``reached`` lists the left indices
    that the last phase's search reached, in the order it reached them: it
    finds no augmenting path, so these are the left vertices on alternating
    paths from the unmatched ones (Koenig's set).
    """
    nl = len(adj)
    match_l = [_UNSET] * nl
    match_r = [_UNSET] * n_right
    dist = [0] * nl
    inf = nl + 1

    def bfs() -> list | None:
        # the left vertices reached, in order, or None if a path was found
        queue = []
        for u in range(nl):
            if match_l[u] == _UNSET:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == _UNSET:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return None if found else queue

    def augment(root: int) -> bool:
        # Depth-first search along the layered graph on an explicit stack, so
        # long alternating paths cannot hit the recursion limit.  Each entry
        # into a vertex scans its adjacency from the start, as the recursive
        # formulation does; the witnesses depend on that scan order.
        stack = [(root, iter(adj[root]))]  # path vertices and their scans
        via: list = []  # right vertex taken out of each path vertex
        while stack:
            u, scan = stack[-1]
            for v in scan:
                w = match_r[v]
                if w == _UNSET:
                    via.append(v)
                    for (x, _), y in zip(stack, via):
                        match_l[x] = y
                        match_r[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    via.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = inf
                stack.pop()
                if via:
                    via.pop()
        return False

    size = 0
    while (reached := bfs()) is None:
        for u in range(nl):
            if match_l[u] == _UNSET and augment(u):
                size += 1
    pairs = tuple((u, match_l[u]) for u in range(nl) if match_l[u] != _UNSET)
    return size, MatchingWitness(pairs), reached


def hall_deficiency(graph: BipartiteGraph) -> tuple[int, tuple]:
    """Largest value of |S| - |N(S)| over S inside the left part.

    The deficiency is recovered from a maximum matching, with the attaining
    subset read from the matcher's last phase: alternating reachability
    from the unmatched left vertices (the Koenig construction).  Every
    maximizer contains the left vertices the matching leaves unmatched and
    is closed under alternating steps, so the reachable set is the unique
    inclusion-minimal maximizer; it is reported in left order.
    """
    return _match_with_deficiency(graph)[2:]


def _match_with_deficiency(graph: BipartiteGraph) -> tuple[int, MatchingWitness, int, tuple]:
    """``max_matching`` and ``hall_deficiency`` from one matcher run:
    (size, witness, deficiency, attaining subset)."""
    size, witness, reached = _match_rows(graph.adjacency(), len(graph.right))
    return size, witness, len(graph.left) - size, tuple(graph.left[i] for i in sorted(reached))


def covering_graph(e: Iterable, f: Iterable, u: Covering) -> BipartiteGraph:
    """Graph joining x in e to y in f when some block contains both."""
    left = u.ground.canon(e)
    right = u.ground.canon(f)
    left_pos = {a: i for i, a in enumerate(left)}
    right_pos = {a: j for j, a in enumerate(right)}
    # built straight into the frozenset: no second hash table of every edge
    edges = frozenset(
        edge
        for block in u.blocks
        for edge in product(
            [left_pos[a] for a in block if a in left_pos],
            [right_pos[a] for a in block if a in right_pos],
        )
    )
    return BipartiteGraph(left, right, edges)


def _covering_rows(e: Iterable, f: Iterable, u: Covering) -> tuple[tuple, tuple, list]:
    """The canonical orders of e and f and the adjacency rows of their
    covering graph, read from the covering's block index.

    The row of a left atom is the ascending right indices of the atoms that
    share one of its blocks: the same row as in
    ``covering_graph(e, f, u).adjacency()``, with no edge set built.  Atoms
    with the same blocks share one row.
    """
    left = u.ground.canon(e)
    right = u.ground.canon(f)
    blocks_of = u.blocks_of
    in_block: dict = {}  # block index -> its right indices, ascending
    for j, a in enumerate(right):
        for b in blocks_of[a]:
            in_block.setdefault(b, []).append(j)
    rows: dict = {}  # blocks_of entry -> its row
    for blocks in map(blocks_of.__getitem__, left):
        if blocks not in rows:
            near: set = set()
            for b in blocks:
                near.update(in_block.get(b, ()))
            rows[blocks] = sorted(near)
    return left, right, [rows[blocks_of[a]] for a in left]


def mu_with_witness(e: Iterable, f: Iterable, u: Covering) -> tuple[int, MatchingWitness]:
    """Maximum matching of the covering graph, on ``_covering_rows``: the
    value and witness of ``max_matching(covering_graph(e, f, u))``."""
    _, right, rows = _covering_rows(e, f, u)
    return _match_rows(rows, len(right))[:2]


def mu(e: Iterable, f: Iterable, u: Covering) -> int:
    return mu_with_witness(e, f, u)[0]


def mu_partition(e: Iterable, f: Iterable, p: Covering) -> int:
    """Closed form for partitions: sum of min(|e & B|, |f & B|) over blocks.

    Valid because disjoint blocks make the covering graph a disjoint union
    of complete bipartite graphs.  Repeated atoms count once.  The value of
    ``mu_partition_witness``, the one partition route.
    """
    return mu_partition_witness(e, f, p)[0]


def mu_partition_witness(e: Iterable, f: Iterable, p: Covering) -> tuple[int, MatchingWitness]:
    """``mu_with_witness`` on a partition, without building the graph.

    Each left index, in order, takes the lowest-index free right index of
    its block.  That is exactly what Hopcroft-Karp's first phase does on
    sorted adjacency lists (every left vertex starts at distance 0, so an
    augmenting path is a single edge), and on a disjoint union of complete
    bipartite blocks the greedy is maximum, so the second phase finds
    nothing: value and witness equal ``max_matching(covering_graph(...))``.
    """
    if not p.is_partition():
        raise ValueError("covering is not a partition")
    index = p.blocks_of
    left = p.ground.canon(e)
    free: dict = {}  # block entry -> its right indices, highest first
    for j, a in enumerate(p.ground.canon(f)):
        free.setdefault(index[a], []).append(j)
    for stack in free.values():
        stack.reverse()
    pairs = []
    for i, a in enumerate(left):
        stack = free.get(index[a])
        if stack:
            pairs.append((i, stack.pop()))
    return len(pairs), MatchingWitness(tuple(pairs))
