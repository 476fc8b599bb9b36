"""Finitely generated group models with canonical element forms.

Three concrete models ship: integer lattices Z^d, free groups of finite
rank, and finite groups given by an explicit multiplication table that is
validated on load.  Elements are plain values (int tuples, freely reduced
words as signed-int tuples, table indices); the model supplies the group
law, canonical ordering, ball enumeration, and the string codecs used by
the JSON layer.  Balls come from one BFS that walks sphere by sphere:
``ball_layers`` yields each sphere sorted once, each element with its sort
key, and ``ball`` sorts all the spheres together once, so no element is
keyed twice and no ball is copied per radius.

Elements are checked where they enter: by the string codecs and by the
public ``multiply``, ``inverse``, ``canon_set`` and ``translate``.  Each
model also has one unchecked product, ``unchecked_multiply``, for callers
whose elements are already valid; the public ``multiply`` is ``validate``
on both arguments followed by it, so each model has one group law (Z^d
binds it at construction, unrolled for d = 2 and 3).  In the same way
``elem_str`` is ``validate`` followed by ``unchecked_elem_str``, the one
spelling, which the JSON writer uses on the library's own elements.
``parse_elems`` reads a list of strings as ``parse_elem`` reads each; Z^d
reads it in bulk.
"""

from __future__ import annotations

import re
import string
from fractions import Fraction
from itertools import chain
from operator import add, itemgetter, methodcaller
from typing import Iterable, Sequence

DEFAULT_BALL_LIMIT = 10**6

_commas = methodcaller("count", ",")
_first = itemgetter(0)

_LETTERS = string.ascii_lowercase
# Z^d spellings exactly as elem_str writes them: str(int) per coordinate
_ZD_SPELLING = re.compile(r"(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")


class GroupError(ValueError):
    """Invalid element, invalid table, or mixed-group operation."""


def _require_str(s) -> None:
    """``parse_elem`` decodes strings only; anything else is a GroupError."""
    if not isinstance(s, str):
        raise GroupError(f"element must be a string: {s!r}")


def _require_int(value, what: str) -> int:
    """A JSON integer: bools, floats and strings are not coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise GroupError(f"{what} must be an integer, not {value!r}")


class InexactRational(ValueError, TypeError):
    """A float or bool where an exact rational belongs."""


def _require_fraction(value) -> Fraction:
    """An exact rational from a Fraction, an int or a 'p/q' string.

    Floats and bools are not coerced, and a zero denominator is a
    ValueError rather than a ZeroDivisionError.
    """
    if isinstance(value, (float, bool)):
        raise InexactRational(
            f"{type(value).__name__}s are not accepted for exact rationals; "
            "pass a Fraction, an int or a 'p/q' string"
        )
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"rational {value!r} has a zero denominator") from None


class GroupModel:
    """Common interface: group law, canonical order, enumeration."""

    kind: str = "abstract"

    @property
    def identity(self):
        raise NotImplementedError

    def multiply(self, g, h):
        raise NotImplementedError

    def unchecked_multiply(self, g, h):
        """The group law on elements already known to be valid."""
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def validate(self, g):
        """Return the element if well formed for this model, else raise."""
        raise NotImplementedError

    def sort_key(self, g):
        raise NotImplementedError

    def generators(self) -> tuple:
        raise NotImplementedError

    def elem_str(self, g) -> str:
        return self.unchecked_elem_str(self.validate(g))

    def unchecked_elem_str(self, g) -> str:
        """``elem_str`` of an element already known to be valid."""
        raise NotImplementedError

    def parse_elem(self, s: str):
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError

    def canon_set(self, elems: Iterable) -> tuple:
        """Validate, deduplicate, and sort a finite set of elements."""
        unique = {self.validate(g) for g in elems}
        return tuple(sorted(unique, key=self.sort_key))

    def translate(self, g, f: Iterable) -> tuple:
        """Left translate {g*x : x in f}, canonically ordered."""
        g = self.validate(g)
        return self.unchecked_translate(g, {self.validate(x) for x in f})

    def unchecked_translate(self, g, f: Iterable) -> tuple:
        """``translate`` for a valid g and distinct valid elements f.

        Left translation is injective, so the products are distinct too.
        """
        mul = self.unchecked_multiply
        return tuple(sorted([mul(g, x) for x in f], key=self.sort_key))

    def _spheres(self, radius: int):
        """Yield the sphere of each radius 0..radius, in the order the BFS
        reaches it; the sphere of radius 0 is the identity alone.  More than
        ``DEFAULT_BALL_LIMIT`` elements is a GroupError."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        limit = DEFAULT_BALL_LIMIT
        mul = self.unchecked_multiply
        gens = self.generators()
        seen = {self.identity}
        frontier = [self.identity]
        yield frontier
        for _ in range(radius):
            nxt = []
            for g in frontier:
                for s in gens:
                    h = mul(g, s)
                    if h not in seen:
                        seen.add(h)
                        nxt.append(h)
                        if len(seen) > limit:
                            raise GroupError(f"ball size exceeds cap {limit}")
            frontier = nxt
            yield nxt

    def ball_layers(self, radius: int):
        """Yield the sphere of each radius 0..radius from a single BFS as a
        list of (sort key, element) in canonical order: one sort per sphere,
        each element keyed once.  Runs of these merge by key alone, so a
        caller that puts spheres together never keys an element again."""
        key = self.sort_key
        for sphere in self._spheres(radius):
            yield sorted(zip(map(key, sphere), sphere), key=_first)

    def ball(self, radius: int) -> tuple:
        """All elements of word length <= radius over the symmetric generators,
        canonically ordered: the spheres of one BFS, sorted once."""
        return tuple(sorted(chain.from_iterable(self._spheres(radius)), key=self.sort_key))

    def parse_elems(self, strings) -> list:
        """``parse_elem`` of each string of a list, in order."""
        return [self.parse_elem(s) for s in strings]


def _require_reduced(word: tuple) -> tuple:
    """A word with no letter next to its inverse, else a GroupError."""
    for a, b in zip(word, word[1:]):
        if a == -b:
            raise GroupError(f"word not freely reduced: {word!r}")
    return word


def _zd_add(g, h):
    return tuple(map(add, g, h))


def _z2_add(g, h):
    return (g[0] + h[0], g[1] + h[1])


def _z3_add(g, h):
    return (g[0] + h[0], g[1] + h[1], g[2] + h[2])


# the law unrolled where d is small; ``map(add, ...)`` costs about 3x as much
_ZD_LAWS = {2: _z2_add, 3: _z3_add}


class IntegerLattice(GroupModel):
    """Z^d with componentwise addition; word metric is the l1 norm."""

    kind = "zd"

    def __init__(self, d: int) -> None:
        if d < 1:
            raise GroupError("dimension must be positive")
        self.d = d
        self.unchecked_multiply = _ZD_LAWS.get(d, _zd_add)

    @property
    def identity(self):
        return (0,) * self.d

    def validate(self, g):
        if (
            isinstance(g, tuple)
            and len(g) == self.d
            and all(isinstance(x, int) for x in g)
        ):
            return g
        raise GroupError(f"not a Z^{self.d} element: {g!r}")

    def multiply(self, g, h):
        return self.unchecked_multiply(self.validate(g), self.validate(h))

    def inverse(self, g):
        g = self.validate(g)
        return tuple(-a for a in g)

    def sort_key(self, g):
        return g

    def generators(self) -> tuple:
        gens = []
        for i in range(self.d):
            unit = tuple(1 if j == i else 0 for j in range(self.d))
            gens.append(unit)
            gens.append(self.inverse(unit))
        return tuple(gens)

    def unchecked_elem_str(self, g) -> str:
        return ",".join(map(str, g))

    def parse_elem(self, s: str):
        _require_str(s)
        try:
            if not _ZD_SPELLING.fullmatch(s):
                raise ValueError
            vec = tuple(map(int, s.split(",")))
        except ValueError:
            raise GroupError(f"bad Z^{self.d} element string: {s!r}") from None
        # the spelling gives ints; only the length is left to check
        if len(vec) != self.d:
            raise GroupError(f"not a Z^{self.d} element: {vec!r}")
        return vec

    def parse_elems(self, strings) -> list:
        """``parse_elem`` of each string of a list, read in bulk: one ``int``
        pass over the joined text, kept only when it spells every coordinate
        back as ``elem_str`` does and every string has d - 1 commas.  Any
        other list goes string by string, so the error is ``parse_elem``'s
        for the first bad element."""
        try:
            text = ",".join(strings)
            ints = list(map(int, text.split(",")))
        except (TypeError, ValueError):  # a non-string, or text int() refuses
            return super().parse_elems(strings)
        if ",".join(map(str, ints)) == text and set(map(_commas, strings)) == {self.d - 1}:
            return list(zip(*[iter(ints)] * self.d))
        return super().parse_elems(strings)

    def describe(self) -> dict:
        return {"kind": "zd", "d": self.d}


class FreeGroup(GroupModel):
    """Free group of finite rank; elements are freely reduced words.

    A word is a tuple of nonzero ints: i stands for the i-th generator,
    -i for its inverse.  Generators print as a, b, c, ... and inverses as
    the corresponding capitals, so the rank is capped at 26.
    """

    kind = "free"

    def __init__(self, rank: int) -> None:
        if not (1 <= rank <= 26):
            raise GroupError("rank must be between 1 and 26")
        self.rank = rank
        # the spelling of each letter: a generator, or a capital for its inverse
        self._letter_values = {}
        for i, ch in enumerate(_LETTERS[:rank], 1):
            self._letter_values[ch] = i
            self._letter_values[ch.upper()] = -i

    @property
    def identity(self):
        return ()

    def validate(self, g):
        if not isinstance(g, tuple):
            raise GroupError(f"not a free-group word: {g!r}")
        for x in g:
            if not isinstance(x, int) or x == 0 or abs(x) > self.rank:
                raise GroupError(f"bad letter {x!r} in word {g!r}")
        return _require_reduced(g)

    def multiply(self, g, h):
        return self.unchecked_multiply(self.validate(g), self.validate(h))

    def unchecked_multiply(self, g, h):
        # both words are reduced: cancel the longest suffix of g that is
        # inverse to a prefix of h, and nothing else cancels
        n = 0
        limit = min(len(g), len(h))
        while n < limit and g[-1 - n] == -h[n]:
            n += 1
        return g[: len(g) - n] + h[n:]

    def inverse(self, g):
        g = self.validate(g)
        return tuple(-x for x in reversed(g))

    def sort_key(self, g):
        return (len(g), g)

    def generators(self) -> tuple:
        gens = []
        for i in range(1, self.rank + 1):
            gens.append((i,))
            gens.append((-i,))
        return tuple(gens)

    def unchecked_elem_str(self, g) -> str:
        if not g:
            return "1"
        return "".join(
            _LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in g
        )

    def parse_elem(self, s: str):
        _require_str(s)
        if s == "1":
            return ()
        if not s:
            raise GroupError("empty word string (the identity is written 1)")
        try:
            word = tuple(map(self._letter_values.__getitem__, s))
        except KeyError as exc:
            raise GroupError(f"bad letter {exc.args[0]!r} in word string {s!r}") from None
        # the table gives valid letters; only the reduction is left to check
        return _require_reduced(word)

    def describe(self) -> dict:
        return {"kind": "free", "rank": self.rank}


class FiniteTableGroup(GroupModel):
    """Finite group given by a multiplication table, validated on load.

    Elements are indices into ``names``; ``table[i][j]`` is the index of
    the product of element i with element j.
    """

    kind = "table"

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]) -> None:
        self.names = tuple(str(n) for n in names)
        n = len(self.names)
        if n == 0:
            raise GroupError("empty element list")
        if len(set(self.names)) != n:
            raise GroupError("duplicate element names")
        if len(table) != n or any(len(row) != n for row in table):
            raise GroupError("multiplication table is not square")
        # one pass over the types and one over the range; the loops below run
        # only to name the first entry that fails
        if set(map(type, chain.from_iterable(table))) == {int}:
            self.table = tuple(map(tuple, table))
        else:
            self.table = tuple(
                tuple(_require_int(x, "table entry") for x in row) for row in table
            )
        if not (min(map(min, self.table)) >= 0 and max(map(max, self.table)) < n):
            for row in self.table:
                for x in row:
                    if not (0 <= x < n):
                        raise GroupError(f"table entry {x} out of range")
        self._identity = self._find_identity()
        self._inverses = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        n = len(self.names)
        for e in range(n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(n)):
                return e
        raise GroupError("table has no identity element")

    def _find_inverses(self) -> tuple:
        n = len(self.names)
        inv = []
        for x in range(n):
            candidates = [
                y
                for y in range(n)
                if self.table[x][y] == self._identity
                and self.table[y][x] == self._identity
            ]
            if not candidates:
                raise GroupError(f"element {self.names[x]!r} has no inverse")
            inv.append(candidates[0])
        return tuple(inv)

    def _check_associativity(self) -> None:
        """Light's test (Clifford and Preston, Algebraic Theory of Semigroups
        I, 1.2): the s with (x*s)*y = x*(s*y) for all x, y contain the
        identity and are closed under the product, so it suffices to check
        a generating set, in O(n^2 |S|) instead of n^3.  S is picked
        greedily: the lowest index outside the closure of the identity
        under right multiplication by S.  On failure the full scan runs, so
        the error names the lexicographically first triple."""
        n = len(self.names)
        t = self.table
        closure = {self._identity}
        gens: list = []
        while len(closure) < n:
            s = next(x for x in range(n) if x not in closure)
            ts = t[s]
            if any(t[tx[s]] != tuple(map(tx.__getitem__, ts)) for tx in t):  # y -> x*(s*y)
                self._scan_associativity()
            gens.append(s)
            queue = list(closure)
            for x in queue:  # grows while it is walked
                for g in gens:
                    xg = t[x][g]
                    if xg not in closure:
                        closure.add(xg)
                        queue.append(xg)

    def _scan_associativity(self) -> None:
        """Raise at the first (a, b, c) with (a*b)*c != a*(b*c), row by row."""
        t = self.table
        for a, ta in enumerate(t):
            for b, ab in enumerate(ta):
                row = tuple(map(ta.__getitem__, t[b]))  # c -> a*(b*c)
                if t[ab] != row:
                    c = next(c for c, (x, y) in enumerate(zip(t[ab], row)) if x != y)
                    raise GroupError(
                        "table is not associative at "
                        f"({self.names[a]},{self.names[b]},{self.names[c]})"
                    )

    @property
    def order(self) -> int:
        return len(self.names)

    @property
    def identity(self):
        return self._identity

    def validate(self, g):
        if isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.order:
            return g
        raise GroupError(f"not an element index: {g!r}")

    def multiply(self, g, h):
        return self.unchecked_multiply(self.validate(g), self.validate(h))

    def unchecked_multiply(self, g, h):
        return self.table[g][h]

    def inverse(self, g):
        return self._inverses[self.validate(g)]

    def sort_key(self, g):
        return g

    def generators(self) -> tuple:
        return tuple(x for x in range(self.order) if x != self._identity)

    def unchecked_elem_str(self, g) -> str:
        return self.names[g]

    def parse_elem(self, s: str):
        _require_str(s)
        try:
            return self.names.index(s)
        except ValueError:
            raise GroupError(f"unknown element name: {s!r}") from None

    def describe(self) -> dict:
        return {
            "kind": "table",
            "elements": list(self.names),
            "mul": [list(row) for row in self.table],
        }


def cyclic_group(n: int) -> FiniteTableGroup:
    """Z/n as a table group with elements named '0', '1', ..."""
    names = [str(i) for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteTableGroup(names, table)


def symmetric_group(n: int) -> FiniteTableGroup:
    """S_n (small n) as a table group; names are one-line permutation strings."""
    if n > 5:
        raise GroupError("symmetric_group is intended for small n")
    import itertools

    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    names = ["".join(str(x) for x in p) for p in perms]
    table = [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms
    ]
    return FiniteTableGroup(names, table)


def _group_field(obj: dict, key: str):
    if key not in obj:
        raise GroupError(f"group is missing the key {key!r}")
    return obj[key]


def group_from_json(obj: dict) -> GroupModel:
    if not isinstance(obj, dict):
        raise GroupError(f"group must be a JSON object, not {type(obj).__name__}")
    kind = _group_field(obj, "kind")
    if kind == "zd":
        return IntegerLattice(_require_int(_group_field(obj, "d"), "group d"))
    if kind == "free":
        return FreeGroup(_require_int(_group_field(obj, "rank"), "group rank"))
    if kind == "table":
        return FiniteTableGroup(_group_field(obj, "elements"), _group_field(obj, "mul"))
    raise GroupError(f"unknown group kind: {kind!r}")
