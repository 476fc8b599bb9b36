"""Exact calculus of finite coverings: refinement, joins, stars.

Blocks are canonicalized (sorted in ground order, deduplicated) so that
covering equality, refinement, and star computations reduce to plain set
algebra with no tolerance knobs.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Hashable, Iterable, Mapping

Atom = Hashable

DEFAULT_STAR_LIMIT = 8


class GroundMismatch(ValueError):
    """Two coverings over different ground sets were combined."""


class StarLimitExceeded(ValueError):
    """A star iterate exceeded the configured bound."""


class GroundSet:
    """Ordered universe of distinct atoms.

    The construction order fixes the canonical order used for every block
    and every set output derived from this ground set, which keeps all
    downstream certificates byte-reproducible.  ``_pos`` maps each atom to
    its position; it is built in one pass, and the atoms are scanned for
    the first one seen twice only when that index comes out short.
    """

    __slots__ = ("atoms", "_pos")

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms = tuple(atoms)
        if not self.atoms:
            raise ValueError("ground set must be non-empty")
        self._pos: dict[Atom, int] = dict(zip(self.atoms, range(len(self.atoms))))
        if len(self._pos) != len(self.atoms):
            seen: set = set()
            for atom in self.atoms:
                if atom in seen:
                    raise ValueError(f"duplicate atom in ground set: {atom!r}")
                seen.add(atom)

    def __len__(self) -> int:
        return len(self.atoms)

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._pos

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroundSet) and self.atoms == other.atoms

    def __hash__(self) -> int:
        return hash(self.atoms)

    def __repr__(self) -> str:
        return f"GroundSet({list(self.atoms)!r})"

    def canon(self, atoms: Iterable[Atom]) -> tuple:
        """Sort a subset into canonical ground order, dropping duplicates."""
        pos = self._pos
        try:
            idx = sorted({pos[a] for a in atoms})
        except KeyError as missing:
            raise ValueError(f"atom not in ground set: {missing.args[0]!r}") from None
        return tuple(map(self.atoms.__getitem__, idx))


class Covering:
    """A finite family of blocks whose union is the ground set.

    Duplicate blocks are silently merged; empty blocks are rejected.  The
    constructor checks its input; the coverings derived here from a
    covering, and a coloring's classes, are canonical as built and reach
    the same core, ``_store``, through ``_unchecked``, which checks nothing.
    """

    __slots__ = ("ground", "blocks", "_blocks_of", "_partition")

    def __init__(self, ground: GroundSet, blocks: Iterable[Iterable[Atom]]) -> None:
        canon_blocks = []
        for raw in blocks:
            block = ground.canon(raw)
            if not block:
                raise ValueError("empty block not permitted")
            canon_blocks.append(block)
        covered = set().union(*canon_blocks)
        if len(covered) != len(ground):
            missing = [a for a in ground.atoms if a not in covered]
            raise ValueError(f"blocks do not cover the ground set; missing {missing!r}")
        self._store(ground, canon_blocks)

    @classmethod
    def _unchecked(cls, ground: GroundSet, blocks: Iterable[Iterable[Atom]]) -> "Covering":
        """The covering of ``ground`` by ``blocks``, taken as given: each
        block non-empty and in ground order, and together covering the
        ground.  Nothing is checked, so a covering read from a document
        never comes here."""
        self = cls.__new__(cls)
        self._store(ground, map(tuple, blocks))
        return self

    def _store(self, ground: GroundSet, blocks: Iterable[tuple]) -> None:
        """Store canonical blocks, each in ground order, and index them.

        Repeats merge, and the blocks are ordered by their position tuples.
        Blocks that cover the ground with sizes summing to its size are a
        partition: listed by first atom, each block's atoms share one
        frozenset entry.  Otherwise equal index entries share one frozenset.
        """
        blocks = list(blocks)
        pos = ground._pos
        partition = sum(map(len, blocks)) == len(ground)
        if partition:
            blocks.sort(key=lambda b: pos[b[0]])
        else:
            blocks = sorted(set(blocks), key=lambda b: tuple(map(pos.__getitem__, b)))
            partition = sum(map(len, blocks)) == len(ground)
        self.ground = ground
        self.blocks = tuple(blocks)
        self._partition = partition
        index: dict = {}
        if partition:
            for b, block in enumerate(self.blocks):
                index.update(dict.fromkeys(block, frozenset((b,))))
        else:
            for b, block in enumerate(self.blocks):
                for atom in block:
                    index.setdefault(atom, []).append(b)
            shared: dict = {}  # equal entries share one frozenset
            for atom, bs in index.items():
                entry = frozenset(bs)
                index[atom] = shared.setdefault(entry, entry)
        self._blocks_of = index

    @property
    def blocks_of(self) -> Mapping:
        """Atom -> frozenset of the indices of the blocks that contain it."""
        return MappingProxyType(self._blocks_of)

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Covering)
            and self.ground == other.ground
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.ground, self.blocks))

    def __repr__(self) -> str:
        return f"Covering({len(self.blocks)} blocks over {len(self.ground)} atoms)"

    def is_partition(self) -> bool:
        return self._partition

    def restrict(self, atoms: Iterable[Atom]) -> "Covering":
        """Covering induced on a subset: blocks are intersected, empties dropped.

        Intersecting blocks preserves every pair relation inside the subset,
        so matching numbers between subsets of ``atoms`` are unchanged.  The
        trimmed blocks stay in ground order, so they need no check.
        """
        sub_ground = GroundSet(self.ground.canon(atoms))
        keep = sub_ground._pos
        trimmed = ([a for a in block if a in keep] for block in self.blocks)
        return Covering._unchecked(sub_ground, filter(None, trimmed))


def _require_same_ground(u: Covering, v: Covering) -> None:
    if u.ground != v.ground:
        raise GroundMismatch("coverings live on different ground sets")


def refines(coarse: Covering, fine: Covering) -> bool:
    """True iff every block of ``fine`` sits inside some block of ``coarse``."""
    _require_same_ground(coarse, fine)
    index = coarse.blocks_of
    # a fine block sits inside a coarse block iff its atoms share a block index
    return all(frozenset.intersection(*(index[a] for a in small)) for small in fine.blocks)


def join(u: Covering, v: Covering) -> Covering:
    """Common refinement: all pairwise intersections, empties dropped."""
    _require_same_ground(u, v)
    common: dict = {}  # (u-block, v-block) index pair -> the atoms of both
    for a in u.ground.atoms:
        for i in u.blocks_of[a]:
            for j in v.blocks_of[a]:
                common.setdefault((i, j), []).append(a)
    return Covering._unchecked(u.ground, common.values())


def star_set(s: Iterable[Atom], u: Covering) -> tuple:
    """Union of all blocks meeting ``s``, in canonical order."""
    meeting = set().union(*(u.blocks_of[a] for a in u.ground.canon(s)))
    return u.ground.canon(a for b in meeting for a in u.blocks[b])


def star_covering(u: Covering) -> Covering:
    """Covering of block stars; each block is contained in its own star."""
    return Covering._unchecked(u.ground, (star_set(block, u) for block in u.blocks))


def star_iterate(u: Covering, n: int) -> Covering:
    if n < 0:
        raise ValueError("star iterate count must be non-negative")
    if n > DEFAULT_STAR_LIMIT:
        raise StarLimitExceeded(f"star iterate {n} exceeds limit {DEFAULT_STAR_LIMIT}")
    out = u
    for _ in range(n):
        out = star_covering(out)
    return out


def star_refines(coarse: Covering, fine: Covering) -> bool:
    """True iff ``coarse`` is refined by the star of ``fine``."""
    _require_same_ground(coarse, fine)
    return refines(coarse, star_covering(fine))
