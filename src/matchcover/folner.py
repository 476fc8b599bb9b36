"""Matching-based almost-invariance certificates on finitely generated groups.

A certificate fixes a finite candidate set F, a translate set E, a covering
of an explicit finite window, and a rational threshold theta.  It records,
for every required pair of translates, the exact matching number together
with a witness matching.  The checker works on ground positions: it reads
the covering once per certificate as a block incidence, recomputes each
distinct translate once as its ascending positions, verifies each stored
witness by block lookup and proves it maximum by an alternating search on
the incidence (Berge's theorem), augmenting a witness that is not maximum
until it is, and builds no covering graph.  The search's counter on a
covering that is not a partition runs the same alternating search; the
builder matches with Hopcroft-Karp, so the checker stays independent of
it.  Nothing outside the window is ever consulted, and any reference
escaping the window is an error rather than a silent truncation.

Two pair modes ship side by side: ``asym`` compares F against each
translate gF, while ``sym`` compares all pairs of translates gF, hF.  The
distinction is preserved deliberately; the two conditions are recorded
next to each other and no equivalence between them is assumed.

The candidate search is deterministic given its seed, and is artifact
machinery: balls by radius plus a boundary-move hill climb.  Balls are
walked sphere by sphere, and a ball is scored by its size and least pair
value alone; its canonical element tuple is built only when it is read
(kept as the best, in a ratio tie, on a pass, or to name a window escape),
so a sweep builds none.  It keeps counts rather than recount: on a
partition it keeps the block counts of every translate gF and each pair's
value, so a ball is scored from its new sphere and a local move from the
one element it inserts or drops, read without applying the move; on any
other covering it keeps one maximum matching per pair and re-augments it
after each change.  Each step of the hill climb is one pass over its moves:
every boundary element is scored once, and the best improving move is kept
as the pass goes.

The adversary needs no search.  Against a fixed F, the least min ratio over
colorings of the window is min over pairs of |gF & hF| / |F|: no covering
goes below the overlap, and the two-coloring of gF - hF against the rest
meets it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Container, Iterable, Sequence

from .bipartite import (
    _match_rows,
    MatchingWitness,
    mu,
    mu_partition_witness,
    mu_with_witness,
)
from .cover import Covering, GroundSet
from .groups import FiniteTableGroup, GroupModel, _require_fraction

MODES = ("asym", "sym")

DEFAULT_NET_CAP = 60

_first = itemgetter(0)
_second = itemgetter(1)


class WindowEscape(ValueError):
    """A translate or subset referenced elements outside the window."""


def theta_threshold(theta: Fraction, size: int) -> int:
    """Exact integer test value: mu passes iff mu >= ceil(theta*size)."""
    return math.ceil(_require_fraction(theta) * size)


@dataclass(frozen=True)
class Coloring:
    """A total coloring of a ground set with colors 0..k."""

    ground: GroundSet
    colors: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least two colors (k >= 1)")
        if len(self.colors) != len(self.ground):
            raise ValueError("color vector length does not match ground")
        for c in self.colors:
            if not (0 <= c <= self.k):
                raise ValueError(f"color {c} out of range 0..{self.k}")

    def partition(self) -> Covering:
        classes: dict = {}
        for atom, c in zip(self.ground.atoms, self.colors):
            classes.setdefault(c, []).append(atom)
        return Covering(self.ground, classes.values())


@dataclass(frozen=True)
class PairResult:
    g: object
    h: object
    value: int
    witness: MatchingWitness


@dataclass(frozen=True)
class FolnerCertificate:
    group: GroupModel
    f_set: tuple
    e_set: tuple
    theta: Fraction
    mode: str
    cover: Covering
    pairs: tuple
    status: str

    @property
    def min_ratio(self) -> Fraction:
        if not self.pairs:
            return Fraction(1)
        return Fraction(min(p.value for p in self.pairs), len(self.f_set))


@dataclass(frozen=True)
class Finding:
    code: str
    message: str


@dataclass(frozen=True)
class CheckReport:
    status: str
    findings: tuple

    @property
    def ok(self) -> bool:
        return self.status == "PASS"


def required_pairs(model: GroupModel, e_set: Iterable, mode: str) -> tuple:
    """Translate pairs a certificate must cover.

    ``asym``: (identity, g) for g in E, i.e. F against each gF.
    ``sym``: all unordered pairs g < h from E; diagonal pairs are omitted
    because the identity matching makes them pass at any theta <= 1.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    e = model.canon_set(e_set)
    if mode == "asym":
        return tuple((model.identity, g) for g in e)
    return tuple(itertools.combinations(e, 2))


def _require_window(model: GroupModel, elems: Iterable, ground: Container, what: str):
    missing = [g for g in elems if g not in ground]
    if missing:
        names = ", ".join(model.elem_str(g) for g in missing[:4])
        raise WindowEscape(f"{what} escapes the window at: {names}")


def _translates(model: GroupModel, f_canon: tuple, pairs, ground: GroundSet) -> list:
    """The translate pair (gF, hF) of each pair, all inside the window.

    F must be canonical and the pairs must come from ``required_pairs``;
    the translates are then built with the unchecked group law.  F is
    checked against the window first; then each distinct translate is
    built once and checked, in order of first use, so the first escape
    raised is the first one met when walking the pairs.
    """
    _require_window(model, f_canon, ground, "candidate set F")
    built: dict = {}
    for pair in pairs:
        for g in pair:
            if g not in built:
                built[g] = model.unchecked_translate(g, f_canon)
                _require_window(model, built[g], ground, f"translate {model.elem_str(g)}F")
    return [(built[g], built[h]) for g, h in pairs]


class _PairIndex:
    """The translators and pair slots of a candidate search, and ``_at(y)``:
    where each g*y lies, read from ``where`` (atom -> block on a partition,
    atom -> ground position otherwise), or None when y or some g*y leaves
    the window.  Kept per y: a local search scores the same elements again
    and again."""

    def __init__(self, model: GroupModel, pairs, where: dict) -> None:
        self._mul = model.unchecked_multiply
        self._where = where
        self._translators = tuple(dict.fromkeys(g for pair in pairs for g in pair))
        slot = {g: t for t, g in enumerate(self._translators)}
        self._pairs = tuple((slot[g], slot[h]) for g, h in pairs)
        self._known: dict = {}
        self.reset()

    def _at(self, y) -> list | None:
        found = self._known.get(y, False)
        if found is False:
            where = self._where
            found = None
            if y in where:
                mul = self._mul
                found = [where.get(mul(g, y)) for g in self._translators]
                if None in found:
                    found = None
            self._known[y] = found
        return found


class _PartitionCounts(_PairIndex):
    """Incremental pair values of a candidate set F under a partition.

    For each distinct translator g of the pairs it keeps the block counts
    c_g[B] = |gF & B|, and for each pair (g, h) the value sum over B of
    min(c_g[B], c_h[B]), which is ``mu_partition(gF, hF)``.  Adding y puts
    g*y in block b and h*y in block b': the pair's value rises by 1 when
    b = b', and otherwise by [c_g[b] < c_h[b]] + [c_h[b'] < c_g[b']], read
    before the counts change.  Dropping y is the same rule with <=, and the
    value falls.  An add that would put y or some g*y outside the window is
    refused and changes nothing.
    """

    def __init__(self, model: GroupModel, pairs, cover: Covering) -> None:
        self._nblocks = len(cover.blocks)
        block = {a: b for b, members in enumerate(cover.blocks) for a in members}
        super().__init__(model, pairs, block)

    def reset(self) -> None:
        """Make F empty."""
        self.size = 0
        self.counts = [[0] * self._nblocks for _ in self._translators]
        self.values = [0] * len(self._pairs)

    def least(self) -> int:
        """The smallest pair value; |F| when there are no pairs."""
        return min(self.values, default=self.size)

    def add(self, y) -> bool:
        """Insert y, which is not in F; False, changing nothing, on an escape."""
        found = self._at(y)
        if found is None:
            return False
        counts, values = self.counts, self.values
        for p, (s, t) in enumerate(self._pairs):
            b, b2 = found[s], found[t]
            if b == b2:
                values[p] += 1
            else:
                cs, ct = counts[s], counts[t]
                values[p] += (cs[b] < ct[b]) + (ct[b2] < cs[b2])
        for count, b in zip(counts, found):
            count[b] += 1
        self.size += 1
        return True

    def drop(self, y) -> None:
        """Remove y, which is in F."""
        found = self._at(y)
        counts, values = self.counts, self.values
        for p, (s, t) in enumerate(self._pairs):
            b, b2 = found[s], found[t]
            if b == b2:
                values[p] -= 1
            else:
                cs, ct = counts[s], counts[t]
                values[p] -= (cs[b] <= ct[b]) + (ct[b2] <= cs[b2])
        for count, b in zip(counts, found):
            count[b] -= 1
        self.size -= 1

    def after_add(self, y) -> int | None:
        """``least()`` as it would be after ``add(y)``, changing nothing;
        None on an escape.  An add never lowers a pair's value, so a pair
        already at or above the running minimum is not read; the minimum
        starts at |F| + 1, which no pair can exceed."""
        found = self._at(y)
        if found is None:
            return None
        counts = self.counts
        least = self.size + 1
        for (s, t), value in zip(self._pairs, self.values):
            if value >= least:
                continue
            b, b2 = found[s], found[t]
            if b == b2:
                value += 1
            else:
                cs, ct = counts[s], counts[t]
                value += (cs[b] < ct[b]) + (ct[b2] < cs[b2])
            if value < least:
                least = value
        return least

    def after_drop(self, y) -> int:
        """``least()`` as it would be after ``drop(y)``, changing nothing;
        the minimum starts at |F| - 1, which no pair can exceed."""
        found = self._at(y)
        counts = self.counts
        least = self.size - 1
        for (s, t), value in zip(self._pairs, self.values):
            b, b2 = found[s], found[t]
            if b == b2:
                value -= 1
            else:
                cs, ct = counts[s], counts[t]
                value -= (cs[b] <= ct[b]) + (ct[b2] <= cs[b2])
            if value < least:
                least = value
        return least


class _CoveringRecount(_PairIndex):
    """``_PartitionCounts``'s moves on a covering that is not a partition.

    Each pair (g, h) keeps the atoms of gF and hF, by their positions in
    the ground, and one maximum matching between them across adds and
    drops.  An add puts g*y and h*y into the two sides and checks the
    window as ``_PartitionCounts`` does; a drop takes them out together with
    their matched edges, at most two per pair.  A read re-augments every
    pair: first a direct edge for each free left atom, to a free right atom
    in one of its blocks, then the checker's ``_augment_fully`` on the
    covering's ``_incidence``.  The search reads values only, so the
    matching may differ from the one a cold ``mu_with_witness`` finds.
    """

    def __init__(self, model: GroupModel, pairs, cover: Covering) -> None:
        pos, self._members, self._blocks_at = _incidence(cover)
        self._near: list = [None] * len(pos)  # position -> the positions sharing a block
        super().__init__(model, pairs, pos)

    def reset(self) -> None:
        """Make F empty."""
        self.size = 0
        # per pair: the free atoms of gF, the atoms of hF, and the matching
        # both ways (left atom -> right atom, right atom -> left atom)
        self._sides = [(set(), set(), {}, {}) for _ in self._pairs]

    def least(self) -> int:
        """The smallest pair value; |F| when there are no pairs."""
        least = self.size
        for free, right, mate_l, mate_r in self._sides:
            if free:
                open_right = right.difference(mate_r)
                for a in list(free):
                    hit = open_right.intersection(self._nearby(a))
                    if hit:
                        c = hit.pop()
                        open_right.remove(c)
                        mate_l[a], mate_r[c] = c, a
                        free.remove(a)
                _augment_fully(free, right, mate_l, mate_r, self._members, self._blocks_at)
            least = min(least, len(mate_l))
        return least

    def _nearby(self, a) -> frozenset:
        """The atoms that share a block with a, kept per atom."""
        near = self._near[a]
        if near is None:
            members = self._members
            near = frozenset(itertools.chain.from_iterable(members[b] for b in self._blocks_at[a]))
            self._near[a] = near
        return near

    def add(self, y) -> bool:
        """Insert y, which is not in F; False, changing nothing, on an escape."""
        found = self._at(y)
        if found is None:
            return False
        for (s, t), (free, right, _, _) in zip(self._pairs, self._sides):
            free.add(found[s])
            right.add(found[t])
        self.size += 1
        return True

    def drop(self, y) -> None:
        """Remove y, which is in F."""
        found = self._at(y)
        for (s, t), (free, right, mate_l, mate_r) in zip(self._pairs, self._sides):
            a, c = found[s], found[t]
            if a in mate_l:
                del mate_r[mate_l.pop(a)]
            else:
                free.remove(a)
            right.remove(c)
            if c in mate_r:
                k = mate_r.pop(c)
                del mate_l[k]
                free.add(k)
        self.size -= 1

    def after_add(self, y) -> int | None:
        """``least()`` after ``add(y)``, by apply, read, undo; None on an
        escape.  Size and ``least()`` are as before, though the matchings
        may differ."""
        if not self.add(y):
            return None
        least = self.least()
        self.drop(y)
        return least

    def after_drop(self, y) -> int:
        """``least()`` after ``drop(y)``, by apply, read, undo."""
        self.drop(y)
        least = self.least()
        self.add(y)
        return least


def _pair_counts(model: GroupModel, pairs, cover: Covering):
    kind = _PartitionCounts if cover.is_partition() else _CoveringRecount
    return kind(model, pairs, cover)


def ball_walk(model: GroupModel, radius: int, pairs, cover: Covering):
    """Yield (|B_r|, least pair value of B_r, ball) for radius 0..radius.

    The least pair value is the smallest mu(gF, hF) over the pairs, or |F|
    when there are none.  The counts of each ball are those of the last
    one plus its sphere, so no translate is built twice, and the ball is
    built only when read: called before the walk's next step, ``ball()``
    returns the canonical B_r, merging in the spheres walked since its last
    call by the sort keys stored with them, so no element is keyed twice
    however often the ball is read.  When the ball or one of its translates leaves the covering's
    ground, this raises the WindowEscape that ``_translates`` gives for
    that ball.
    """
    counts = _pair_counts(model, pairs, cover)
    keyed = []  # (sort key, element) of the ball last built, canonical
    built = ()
    walked = []  # the keyed spheres since ``built``, each canonical

    def ball() -> tuple:
        nonlocal keyed, built
        if walked:
            # sorted runs, which the sort finds and merges by the stored key
            keyed = sorted(itertools.chain(keyed, *walked), key=_first)
            built = tuple(map(_second, keyed))
            walked.clear()
        return built

    size = 0
    for layer in model.ball_layers(radius):
        walked.append(layer)
        size += len(layer)
        if not all(map(counts.add, map(_second, layer))):
            _translates(model, ball(), pairs, cover.ground)  # raises the escape
            raise AssertionError("the ball and its translates lie inside the window")
        yield size, counts.least(), ball


def build_certificate(
    model: GroupModel,
    f_set: Iterable,
    e_set: Iterable,
    cover: Covering,
    theta,
    mode: str = "asym",
) -> FolnerCertificate:
    """Evaluate all required pairs and assemble a certificate.

    The stored covering is restricted to the union of F and the translates
    actually used; restriction preserves every pair relation inside that
    window, so matching numbers are unchanged.  A partition takes the
    per-block greedy ``mu_partition_witness``, any other covering the
    general matcher on rows read from the block index
    (``mu_with_witness``); both give the witness of the covering graph's
    matcher without building the graph.
    """
    theta = _require_fraction(theta)
    f_canon = model.canon_set(f_set)
    if not f_canon:
        raise ValueError("candidate set F must be non-empty")
    e_canon = model.canon_set(e_set)
    pairs = required_pairs(model, e_canon, mode)
    translates = _translates(model, f_canon, pairs, cover.ground)
    window: set = set(f_canon)
    for gf, hf in translates:
        window.update(gf)
        window.update(hf)
    sub_cover = cover.restrict(window)
    need = theta_threshold(theta, len(f_canon))
    evaluate = mu_partition_witness if sub_cover.is_partition() else mu_with_witness
    results = []
    ok = True
    for pair, (gf, hf) in zip(pairs, translates):
        value, witness = evaluate(gf, hf, sub_cover)
        if value < need:
            ok = False
        results.append(PairResult(pair[0], pair[1], value, witness))
    return FolnerCertificate(
        group=model,
        f_set=f_canon,
        e_set=e_canon,
        theta=theta,
        mode=mode,
        cover=sub_cover,
        pairs=tuple(results),
        status="PASS" if ok else "FAIL",
    )


def _incidence(cover: Covering) -> tuple[dict, list, list]:
    """The covering on ground positions: (atom -> its position, block index
    -> its member positions, position -> its frozenset of block indices)."""
    atoms = cover.ground.atoms
    pos = {a: p for p, a in enumerate(atoms)}
    members = [tuple(map(pos.__getitem__, block)) for block in cover.blocks]
    return pos, members, list(map(cover.blocks_of.__getitem__, atoms))


def _witness_error(left: list, right: list, blocks_at: list, witness) -> str | None:
    """Why the witness is not a matching of the covering graph, else None.

    An index pair is an edge when both indices are in range and the two
    positions share a block.  Checks and messages follow ``validate_witness``.
    """
    seen_left: set = set()
    seen_right: set = set()
    for i, j in witness.pairs:
        if not (
            0 <= i < len(left)
            and 0 <= j < len(right)
            and not blocks_at[left[i]].isdisjoint(blocks_at[right[j]])
        ):
            return f"pair ({i},{j}) is not an edge"
        if i in seen_left:
            return f"left index {i} matched twice"
        if j in seen_right:
            return f"right index {j} matched twice"
        seen_left.add(i)
        seen_right.add(j)
    return None


def _augment_fully(free: set, right, mate_l: dict, mate_r: dict, members, blocks_at) -> None:
    """Augment a matching on the block incidence until it is maximum.

    Vertices are ground positions: ``free`` holds the unmatched left ones,
    ``right`` the right ones, ``mate_l`` and ``mate_r`` the matching both
    ways, all updated in place; ``members`` and ``blocks_at`` come from
    ``_incidence``.  Each round searches from the free left vertices: a
    left vertex expands each of its blocks not yet expanded, reaching every
    right vertex in it; a matched right vertex leads on to its mate, and a
    free one ends an augmenting path, which is flipped (Berge).  No edge is
    built, and a round that finds no path ends the search.
    """
    while free:
        queue = list(free)
        via = dict.fromkeys(queue)  # left vertex reached -> the left vertex it came from
        expanded: set = set()
        for a in queue:  # grows while it is walked
            for b in blocks_at[a]:
                if b in expanded:
                    continue
                expanded.add(b)
                for c in members[b]:
                    if c not in right:
                        continue
                    k = mate_r.get(c)
                    if k is None:
                        break
                    if k not in via:
                        via[k] = a
                        queue.append(k)
                else:  # no free right vertex in block b
                    continue
                break
            else:  # none in any block of a
                continue
            break  # a reaches the free right vertex c
        else:
            return  # no augmenting path: the matching is maximum
        while True:  # flip the path back to the free left vertex it started from
            c_before = mate_l.get(a)
            mate_l[a], mate_r[c] = c, a
            if via[a] is None:
                break
            a, c = via[a], c_before
        free.remove(a)


def _ground_translate(model: GroupModel, g, f_canon: tuple, pos: dict) -> list:
    """The ground positions of gF, ascending, for a valid g and a canonical F.

    ``pos`` maps each atom of the ground to its position.  When a product
    is missing, the window check runs on the translate in canonical order
    instead, so the WindowEscape names the first escapees in that order.
    """
    mul = model.unchecked_multiply
    try:
        return sorted([pos[mul(g, x)] for x in f_canon])
    except KeyError:
        what = f"translate {model.unchecked_elem_str(g)}F"
        _require_window(model, model.unchecked_translate(g, f_canon), pos, what)
        raise


def _check_pair(left: list, right: list, members, blocks_at, pair, label: str, need: int) -> list:
    """Findings for one stored pair, on the checker's own route.

    ``left`` and ``right`` are the ground positions of the pair's
    translates gF and hF, ascending (``_ground_translate``), so witness
    index i names ``left[i]``; ``members`` and ``blocks_at`` are the
    covering's ``_incidence``, and ``label`` names the pair in every
    finding.  The witness is validated by block lookup and proved maximum
    by ``_augment_fully``; a valid witness that is not maximum is augmented
    until it is, which gives the value it should have had.
    """
    error = _witness_error(left, right, blocks_at, pair.witness)
    if error is not None:
        return [Finding("witness-invalid", f"pair {label}: {error}")]
    findings = []
    if len(pair.witness) != pair.value:
        findings.append(
            Finding(
                "witness-size",
                f"pair {label}: witness has {len(pair.witness)} pairs, "
                f"claimed {pair.value}",
            )
        )
    mate_l = {left[i]: right[j] for i, j in pair.witness.pairs}
    mate_r = {c: a for a, c in mate_l.items()}
    _augment_fully(set(left).difference(mate_l), set(right), mate_l, mate_r, members, blocks_at)
    value = len(mate_l)
    if value != pair.value:
        findings.append(
            Finding("value-mismatch", f"pair {label}: stored {pair.value}, recomputed {value}")
        )
    if value < need:
        findings.append(
            Finding(
                "threshold-miss",
                f"pair {label}: mu = {value} < {need} = ceil(theta*|F|)",
            )
        )
    return findings


def check_certificate(cert: FolnerCertificate) -> CheckReport:
    """Replay a certificate and compare field by field.

    Witness validation, matching-number checks, threshold tests, and pair
    coverage are reported as separate findings so a tampered certificate
    pinpoints what was altered.  Each pair's g and h are validated in turn,
    and each distinct translate is built once, in ground order, when a pair
    first uses it; later pairs share it.  Window escapes raise, since such a
    certificate is malformed rather than merely wrong.
    """
    model = cert.group
    findings = []
    f_size = len(cert.f_set)
    need = theta_threshold(cert.theta, f_size)
    expected = required_pairs(model, cert.e_set, cert.mode)
    stored = tuple((p.g, p.h) for p in cert.pairs)
    if stored != expected:
        findings.append(
            Finding("pairs-mismatch", f"stored pairs {stored!r} != required {expected!r}")
        )
    f_canon = model.canon_set(cert.f_set)
    pos, members, blocks_at = _incidence(cert.cover)
    built: dict = {}  # validated translator -> the ground positions of its translate
    for pair in cert.pairs:
        g, h = model.validate(pair.g), model.validate(pair.h)
        for x in (g, h):
            if x not in built:
                built[x] = _ground_translate(model, x, f_canon, pos)
        label = f"({model.unchecked_elem_str(g)},{model.unchecked_elem_str(h)})"
        findings.extend(_check_pair(built[g], built[h], members, blocks_at, pair, label, need))
    all_good = not findings
    if all_good != (cert.status == "PASS"):
        findings.append(
            Finding("status-inconsistent", f"certificate marked {cert.status}")
        )
    return CheckReport("PASS" if not findings else "FAIL", tuple(findings))


# ---------------------------------------------------------------------------
# candidate search


@dataclass(frozen=True)
class BallsStrategy:
    """Try balls of radius 0..max_radius as candidate sets."""

    max_radius: int = 8


@dataclass(frozen=True)
class LocalSetStrategy:
    """Hill climb on the min ratio by adding/removing boundary elements."""

    seed: int = 0
    budget: int = 300

    def __post_init__(self):
        # the start is an evaluation: a budget below 1 would already be overrun
        if self.budget < 1:
            raise ValueError(f"local search budget must be at least 1, got {self.budget}")


@dataclass(frozen=True)
class SearchResult:
    """``certificate`` is that of ``best_f`` in both outcomes (status FAIL when
    EXHAUSTED); ``best_ratio`` and ``evaluations`` come from the search's counters."""

    status: str
    certificate: FolnerCertificate
    best_f: tuple
    best_ratio: Fraction
    evaluations: int


def _as_cover(cover_source) -> Covering:
    if isinstance(cover_source, Coloring):
        return cover_source.partition()
    if isinstance(cover_source, Covering):
        return cover_source
    raise TypeError("cover_source must be a Covering or Coloring")


def folner_search(
    model: GroupModel,
    e_set: Iterable,
    cover_source,
    theta,
    mode: str = "asym",
    strategy=None,
) -> SearchResult:
    """Search for a candidate set meeting theta against every required pair.

    Returns a PASS result with the certificate of the first candidate that
    meets theta, or EXHAUSTED with the certificate of the best candidate
    found and its exact min ratio.  Candidates whose translates would leave
    the covering's ground raise WindowEscape for the ball strategy (the
    caller sized the window) and are skipped as invalid moves by the local
    strategy.

    Both strategies keep the pair counts of the current candidate: balls
    grow by spheres (``ball_walk``), and a local move is scored by the
    counter's ``after_add`` or ``after_drop``, which on a partition reads
    the least pair value after the move without applying it.  A ball or a
    move's candidate set is built only when it is read: when it becomes or
    ties the best ratio, when it meets theta, or, for a move, when it
    becomes or ties the chosen move.
    Only a random restart counts a candidate from scratch.
    """
    theta = _require_fraction(theta)
    if not (0 <= theta <= 1):
        raise ValueError("theta must lie in [0, 1]")
    strategy = strategy if strategy is not None else BallsStrategy()
    cover = _as_cover(cover_source)
    e_canon = model.canon_set(e_set)
    pairs = required_pairs(model, e_canon, mode)
    evaluations = 0
    best_f: tuple = ()
    best_least = -1  # the best ratio is best_least / |best_f|, -1 before any candidate
    key = model.sort_key
    need: dict = {}  # |F| -> theta_threshold(theta, |F|)

    def sorts_first(f_canon, than_f) -> bool:
        """The tie-break between candidates of one ratio."""
        return tuple(map(key, f_canon)) < tuple(map(key, than_f))

    def meets(least, size) -> bool:
        if size not in need:
            need[size] = theta_threshold(theta, size)
        return least >= need[size]

    def consider(size, least, build) -> bool:
        """Count and track the candidate of ``size`` elements; True when it
        meets theta.  ``build()`` gives its canonical set, called only to
        keep it as the best or to break a ratio tie with the best."""
        nonlocal evaluations, best_f, best_least
        evaluations += 1
        # above, at or below 0 as least/|F| is above, at or below the best ratio
        ahead = least * len(best_f) - best_least * size
        if ahead > 0 or ahead == 0 and sorts_first(build(), best_f):
            best_f, best_least = build(), least
        return meets(least, size)

    def finish(status, f_canon, least) -> SearchResult:
        cert = build_certificate(model, f_canon, e_canon, cover, theta, mode)
        return SearchResult(status, cert, f_canon, Fraction(least, len(f_canon)), evaluations)

    if isinstance(strategy, BallsStrategy):
        for size, least, ball in ball_walk(model, strategy.max_radius, pairs, cover):
            if consider(size, least, ball):
                return finish("PASS", ball(), least)
        return finish("EXHAUSTED", best_f, best_least)

    if isinstance(strategy, LocalSetStrategy):
        rng = random.Random(strategy.seed)
        gens = model.generators()
        mul = model.unchecked_multiply
        counts = _pair_counts(model, pairs, cover)
        pool = [x for x in model.ball(2) if x in cover.ground]

        def start(f_canon) -> int | None:
            """Count F from scratch: its least pair value, or None when it
            leaves the window (the counts are then unusable until the next
            start)."""
            counts.reset()
            return counts.least() if all(map(counts.add, f_canon)) else None

        def score(y, inserted: bool) -> int | None:
            """The least pair value after the move, None when it leaves the
            window; read without applying the move on a partition."""
            return counts.after_add(y) if inserted else counts.after_drop(y)

        def moved(y, inserted: bool) -> tuple:
            """The candidate of a move: y goes in or out of the current one
            at its sorted position, so it keeps canonical order."""
            at = bisect.bisect_left(current, key(y), key=key)
            if inserted:
                return current[:at] + (y,) + current[at:]
            return current[:at] + current[at + 1 :]

        def random_start() -> tuple:
            """A valid start: a prefix of the shuffled pool, longest first,
            then the identity, then each single element of the pool.  A
            subset of a valid start is valid, so once one start was valid
            every later restart finds one."""
            shuffled = pool[:]
            rng.shuffle(shuffled)
            tries = [shuffled[:size] for size in range(min(4, len(shuffled)), 0, -1)]
            tries.append([model.identity])
            tries.extend([x] for x in shuffled)
            for elems in tries:
                cand = model.canon_set(elems)
                least = start(cand)
                if least is not None:
                    return cand, least
            raise WindowEscape("no valid starting candidate inside the window")

        def moves():
            """(y, inserted) for each move off the current candidate: every
            boundary element x*s inside the window once, in first-reach
            order, then every element to drop when |F| > 1."""
            reached = set(current)
            for x in current:
                for s in gens:
                    y = mul(x, s)
                    if y not in reached and y in cover.ground:
                        reached.add(y)
                        yield y, True
            if len(current) > 1:
                for y in current:
                    yield y, False

        current = model.canon_set([model.identity])
        current_least = start(current)
        if current_least is None:
            current, current_least = random_start()
        if consider(len(current), current_least, lambda: current):
            return finish("PASS", current, current_least)
        while evaluations < strategy.budget:
            choice = None  # the best move that raises the ratio: (least, cand, y, inserted)
            for y, inserted in moves():
                least = score(y, inserted)
                if least is None:
                    continue
                # ``consider`` on the move's new size: the candidate itself is
                # built only to be kept as the best or ``choice``, to break a
                # ratio tie with either, or to pass theta
                size = len(current) + 1 if inserted else len(current) - 1
                cand = None
                evaluations += 1
                ahead = least * len(best_f) - best_least * size
                if ahead >= 0:
                    cand = moved(y, inserted)
                    if ahead > 0 or sorts_first(cand, best_f):
                        best_f, best_least = cand, least
                if meets(least, size):
                    return finish("PASS", cand or moved(y, inserted), least)
                if least * len(current) > current_least * size:
                    ahead = 1 if choice is None else least * len(choice[1]) - choice[0] * size
                    if ahead >= 0:
                        cand = cand or moved(y, inserted)
                        if ahead > 0 or sorts_first(cand, choice[1]):
                            choice = (least, cand, y, inserted)
                if evaluations >= strategy.budget:
                    break
            if choice is not None:
                current_least, current, y, inserted = choice
                if inserted:
                    counts.add(y)
                else:
                    counts.drop(y)
            else:
                current, current_least = random_start()
                if consider(len(current), current_least, lambda: current):
                    return finish("PASS", current, current_least)
        return finish("EXHAUSTED", best_f, best_least)

    raise TypeError(f"unknown strategy: {strategy!r}")


# ---------------------------------------------------------------------------
# adversarial coloring


def adversary_coloring(
    model: GroupModel,
    f_set: Iterable,
    e_set: Iterable,
    k: int,
    mode: str = "asym",
) -> tuple[Coloring, Fraction]:
    """Coloring of the window minimizing the min matching ratio for F.

    The coloring plays against a fixed candidate set: among colorings with
    colors 0..k of the window spanned by F and its required translates, it
    minimizes min over required pairs of mu(gF, hF, partition)/|F|.  That
    optimum has a closed form.  Every covering gives mu(gF, hF) >= |gF & hF|,
    since each common atom matches itself; coloring gF - hF with 1 and every
    other atom with 0 meets the bound, since no atom of hF has color 1.  So
    the worst pair is the first one, in ``required_pairs`` order, with the
    least overlap, and its two-coloring is returned for every k.  The
    reported ratio is recomputed exactly through the general matcher.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    f_canon = model.canon_set(f_set)
    if not f_canon:
        raise ValueError("candidate set F must be non-empty")
    pairs = required_pairs(model, model.canon_set(e_set), mode)
    translates = {g: model.unchecked_translate(g, f_canon) for pair in pairs for g in pair}
    ground = GroundSet(
        sorted(set(f_canon).union(*translates.values()), key=model.sort_key)
    )
    one_side: set = set()
    if pairs:
        g, h = min(pairs, key=lambda p: len(set(translates[p[0]]).intersection(translates[p[1]])))
        one_side = set(translates[g]).difference(translates[h])
    coloring = Coloring(ground, tuple(int(x in one_side) for x in ground.atoms), k)
    partition = coloring.partition()
    f_size = len(f_canon)
    exact = min(
        (mu(translates[g], translates[h], partition) for g, h in pairs),
        default=f_size,
    )
    return coloring, Fraction(exact, f_size)


# ---------------------------------------------------------------------------
# perfect nets on finite groups


@dataclass(frozen=True)
class PerfectNet:
    v_set: tuple
    f_set: tuple
    matchings: tuple  # (g, MatchingWitness) per group element
    minimal: bool


def _exact_min_cover(universe_size: int, set_masks: Sequence[int]) -> tuple:
    """Minimum subfamily covering everything, by iterative deepening.

    Branches on the lowest uncovered point, trying candidate sets in index
    order; the first solution at the minimal depth is returned, which fixes
    a deterministic choice.
    """
    full = (1 << universe_size) - 1
    covers_point: list = [[] for _ in range(universe_size)]
    for idx, mask in enumerate(set_masks):
        m = mask
        while m:
            low = m & -m
            covers_point[low.bit_length() - 1].append(idx)
            m ^= low
    for point, options in enumerate(covers_point):
        if not options:
            raise ValueError(f"point {point} not coverable")
    max_size = max(mask.bit_count() for mask in set_masks)

    def dfs(uncovered: int, budget: int, chosen: list):
        if uncovered == 0:
            return list(chosen)
        if budget * max_size < uncovered.bit_count():
            return None
        point = (uncovered & -uncovered).bit_length() - 1
        for idx in covers_point[point]:
            chosen.append(idx)
            found = dfs(uncovered & ~set_masks[idx], budget - 1, chosen)
            if found is not None:
                return found
            chosen.pop()
        return None

    lower = math.ceil(universe_size / max_size)
    for depth in range(lower, universe_size + 1):
        found = dfs(full, depth, [])
        if found is not None:
            return tuple(sorted(found))
    raise RuntimeError("set cover search failed")  # unreachable: singletons cover


def _greedy_cover(universe_size: int, set_masks: Sequence[int]) -> tuple:
    uncovered = (1 << universe_size) - 1
    chosen = []
    while uncovered:
        best_idx = None
        best_gain = -1
        for idx, mask in enumerate(set_masks):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best_gain, best_idx = gain, idx
        if best_gain <= 0:
            raise ValueError("universe not coverable")
        chosen.append(best_idx)
        uncovered &= ~set_masks[best_idx]
    return tuple(sorted(chosen))


def perfect_net(model: FiniteTableGroup, u_set: Iterable) -> PerfectNet:
    """Conjugation-stable core, minimal net, and all-translate perfect matchings.

    Given a subset U containing the identity of a finite group G, computes
    V as the intersection of all conjugates of U, a minimum-cardinality F
    with V*F = G (exact branch and bound up to ``DEFAULT_NET_CAP`` elements,
    greedy beyond with ``minimal=False``), and for every g in G a perfect
    matching between F and gF in the covering by right translates of U^{-1}U.
    The covering is never built: its graph is read from the group law.
    """
    n = model.order
    u_canon = model.canon_set(u_set)
    if model.identity not in u_canon:
        raise ValueError("U must contain the identity")
    u_elems = set(u_canon)
    mul = model.unchecked_multiply  # every element below is valid already
    v_elems = None
    for g in range(n):
        ginv = model.inverse(g)
        conj = {mul(mul(ginv, x), g) for x in u_elems}
        v_elems = conj if v_elems is None else (v_elems & conj)
    v_canon = model.canon_set(v_elems)

    set_masks = []
    for f in range(n):
        mask = 0
        for v in v_canon:
            mask |= 1 << mul(v, f)
        set_masks.append(mask)
    if n <= DEFAULT_NET_CAP:
        f_idx = _exact_min_cover(n, set_masks)
        minimal = True
    else:
        f_idx = _greedy_cover(n, set_masks)
        minimal = False
    f_canon = model.canon_set(f_idx)

    # a and b share a right translate W*x of W = U^-1 U iff b*a^-1 lies in
    # W*W^-1 = W*W (W is symmetric), i.e. iff b lies in W*W*a
    w_set = {mul(model.inverse(x), y) for x in u_elems for y in u_elems}
    ww = {mul(w, v) for w in w_set for v in w_set}
    near = [{mul(w, a) for w in ww} for a in f_canon]
    matchings = []
    for g in range(n):
        gf = model.unchecked_translate(g, f_canon)
        rows = [[j for j, b in enumerate(gf) if b in reach] for reach in near]
        size, witness, _ = _match_rows(rows, len(gf))
        if size != len(f_canon):
            raise RuntimeError(
                f"imperfect matching for translate {model.elem_str(g)}"
            )
        matchings.append((g, witness))
    return PerfectNet(v_canon, f_canon, tuple(matchings), minimal)


def monochromatic_translate(
    model: GroupModel, window: Iterable, cover: Covering, e_set: Iterable
) -> tuple | None:
    """First right translate Eg of E fitting inside a single block.

    Scans g over the window in canonical order, skipping translates that
    leave the window, and returns (g, block) for the first block containing
    the whole translate; None reports exhaustive failure over the window.
    """
    win = model.canon_set(window)
    win_set = set(win)
    e_canon = model.canon_set(e_set)
    mul = model.unchecked_multiply
    index = cover.blocks_of
    every = frozenset(range(len(cover)))
    for g in win:
        eg_set = {mul(x, g) for x in e_canon}
        if not eg_set <= win_set:
            continue
        # the blocks holding all of Eg; the least index is the first block
        common = every.intersection(*(index.get(x, ()) for x in eg_set))
        if common:
            return g, cover.blocks[min(common)]
    return None

