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
    downstream certificates byte-reproducible.
    """

    __slots__ = ("atoms", "_pos")

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms = tuple(atoms)
        if not self.atoms:
            raise ValueError("ground set must be non-empty")
        self._pos: dict[Atom, int] = {}
        for i, atom in enumerate(self.atoms):
            if atom in self._pos:
                raise ValueError(f"duplicate atom in ground set: {atom!r}")
            self._pos[atom] = i

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

    Duplicate blocks are silently merged; empty blocks are rejected.
    """

    __slots__ = ("ground", "blocks", "_blocks_of", "_partition")

    def __init__(self, ground: GroundSet, blocks: Iterable[Iterable[Atom]]) -> None:
        canon_blocks = []
        seen = set()
        covered: set = set()
        for raw in blocks:
            block = ground.canon(raw)
            if not block:
                raise ValueError("empty block not permitted")
            if block in seen:
                continue
            seen.add(block)
            canon_blocks.append(block)
            covered.update(block)
        if covered != set(ground.atoms):
            missing = [a for a in ground.atoms if a not in covered]
            raise ValueError(f"blocks do not cover the ground set; missing {missing!r}")
        canon_blocks.sort(key=lambda b: tuple(map(ground._pos.__getitem__, b)))
        self.ground = ground
        self.blocks = tuple(canon_blocks)
        index: dict = {}
        for b, block in enumerate(self.blocks):
            for atom in block:
                index.setdefault(atom, []).append(b)
        shared: dict = {}  # equal entries share one frozenset: one per block on a partition
        for atom, bs in index.items():
            entry = frozenset(bs)
            index[atom] = shared.setdefault(entry, entry)
        self._blocks_of = index
        self._partition = sum(map(len, self.blocks)) == len(ground)

    @classmethod
    def _of_classes(cls, ground: GroundSet, classes: Iterable[Iterable[Atom]]) -> "Covering":
        """The partition of ``ground`` into ``classes``, taken as given.

        The classes must already be canonical: disjoint, non-empty, covering
        the ground, each in ground order, and listed by first atom, as a
        coloring's classes are when read off the ground in order.  Nothing is
        re-checked, so a covering read from a document never comes here.
        """
        self = cls.__new__(cls)
        self.ground = ground
        self.blocks = tuple(map(tuple, classes))
        index: dict = {}
        for b, block in enumerate(self.blocks):
            index.update(dict.fromkeys(block, frozenset((b,))))
        self._blocks_of = index
        self._partition = True
        return self

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
        so matching numbers between subsets of ``atoms`` are unchanged.
        """
        keep = set(self.ground.canon(atoms))
        sub_ground = GroundSet(a for a in self.ground.atoms if a in keep)
        sub_blocks = []
        for block in self.blocks:
            trimmed = [a for a in block if a in keep]
            if trimmed:
                sub_blocks.append(trimmed)
        return Covering(sub_ground, sub_blocks)


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
    return Covering(u.ground, common.values())


def star_set(s: Iterable[Atom], u: Covering) -> tuple:
    """Union of all blocks meeting ``s``, in canonical order."""
    meeting = set().union(*(u.blocks_of[a] for a in u.ground.canon(s)))
    return u.ground.canon(a for b in meeting for a in u.blocks[b])


def star_covering(u: Covering) -> Covering:
    """Covering of block stars; each block is contained in its own star."""
    return Covering(u.ground, (star_set(block, u) for block in u.blocks))


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
