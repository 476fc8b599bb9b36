"""Matching condition for colorings of embeddings between finite metric spaces.

Works over finite metric spaces with rational distances and no extra
relational structure.  Embeddings are isometric maps; the sup-distance
between two embeddings with a common source is taken over the SOURCE
points, where both maps are defined (over the target it would make no
sense for partial images).

The matching condition asks, for every coloring of the source-to-large
embeddings, for a finite family of mid-to-large embeddings whose induced
bipartite graphs (composites strictly within eps of a common color class)
have matching number at least (1-eps) times the family size, for every
pair of source-to-mid embeddings.

Inputs are validated where they enter.  Inside, one kernel works on image
tuples, found on integer distances.  Once per check it lists, for each
source-to-large embedding, those within eps of it (its closeness list), and
tabulates each mid-to-large embedding after each source-to-mid one.  Once
per coloring it ORs the colors over each closeness list into a bitmask, so
a family's two sides are mask lookups and the matching number is Hall's
defect over at most 2^(k+1) color sets (König; Ore), or Hopcroft-Karp where
colors are unbounded (``ramsey_mu``, or a stored coloring with too many).
``check_report`` replays a stored outcome on the same kernel.

A verdict depends only on the multiset of the family's mask columns (column
p: the masks near p after each source-to-mid embedding), as permuting the
family permutes both sides of every (alpha, beta) graph alike and the bound
depends only on its size.  So a check, or a replay, numbers each column when
a family first needs it and keeps a dict from sorted column numbers to
verdict; a matcher runs only on a miss, and nothing outlives the call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import gt
from typing import Mapping, Sequence

from .bipartite import _match_rows
from .folner import CheckReport, Finding
from .groups import _require_fraction

MAX_SOURCE_POINTS = 6
MAX_TARGET_POINTS = 12
MAX_COLORINGS = 65536


class CapExceeded(ValueError):
    """An enumeration would exceed its configured size cap."""


def _scaled(*dists) -> list:
    """Rational matrices as ints, scaled by the common denominator of all."""
    scale = math.lcm(*(x.denominator for dist in dists for row in dist for x in row))
    return [[[x.numerator * (scale // x.denominator) for x in row] for row in d] for d in dists]


@dataclass(frozen=True)
class FinMetric:
    """A finite metric space with rational distances, validated on load."""

    points: tuple
    dist: tuple  # tuple of tuples of Fraction

    def __post_init__(self):
        n = len(self.points)
        if n == 0:
            raise ValueError("metric space must be non-empty")
        if len(set(self.points)) != n:
            raise ValueError("duplicate point names")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise ValueError("distance matrix is not square")
        (d,) = _scaled(self.dist)
        for i in range(n):
            if d[i][i] != 0:
                raise ValueError(f"nonzero diagonal at {self.points[i]!r}")
            for j in range(n):
                if d[i][j] != d[j][i]:
                    raise ValueError("distance matrix is not symmetric")
                if i != j and d[i][j] <= 0:
                    raise ValueError("distinct points at non-positive distance")
        for i, row in enumerate(d):
            for j, via in enumerate(row):
                # d(i, k) > d(i, j) + d(j, k) for some k, the first such k
                if any(map(gt, row, map(via.__add__, d[j]))):
                    k = next(k for k, (x, y) in enumerate(zip(row, d[j])) if x > via + y)
                    raise ValueError(
                        "triangle inequality fails at "
                        f"({self.points[i]!r},{self.points[j]!r},{self.points[k]!r})"
                    )

    @classmethod
    def build(cls, points: Sequence, dist: Sequence[Sequence]) -> "FinMetric":
        rows = tuple(tuple(_require_fraction(x) for x in row) for row in dist)
        return cls(tuple(points), rows)

    def __len__(self) -> int:
        return len(self.points)

    def d(self, i: int, j: int) -> Fraction:
        return self.dist[i][j]


@dataclass(frozen=True)
class Embedding:
    """An isometric map, stored as target point indices per source point."""

    source: FinMetric
    target: FinMetric
    images: tuple

    def __post_init__(self):
        n = len(self.source)
        if len(self.images) != n:
            raise ValueError("image tuple has wrong length")
        for idx in self.images:
            if not (0 <= idx < len(self.target)):
                raise ValueError(f"image index {idx} out of range")
        for (i, x), (j, y) in itertools.product(enumerate(self.images), repeat=2):
            if self.target.d(x, y) != self.source.d(i, j):
                names = self.source.points
                raise ValueError(f"map is not isometric at ({names[i]!r},{names[j]!r})")

    def mapping(self) -> dict:
        return dict(zip(self.source.points, map(self.target.points.__getitem__, self.images)))


def _images(a: FinMetric, c: FinMetric) -> list:
    """``embeddings`` as image tuples, found on ints."""
    if len(a) > MAX_SOURCE_POINTS:
        raise CapExceeded(f"source has more than {MAX_SOURCE_POINTS} points")
    if len(c) > MAX_TARGET_POINTS:
        raise CapExceeded(f"target has more than {MAX_TARGET_POINTS} points")
    da, dc = _scaled(a.dist, c.dist)
    found = [()]
    for row in da:  # extend each partial map, in order, by each fitting image
        found = [
            m + (cand,) for m in found for cand, to in enumerate(dc)
            if all(to[x] == row[j] for j, x in enumerate(m))
        ]
    return found


def embeddings(a: FinMetric, c: FinMetric) -> tuple:
    """All isometric maps from a into c, lexicographic by image indices."""
    return tuple(Embedding(a, c, images) for images in _images(a, c))


def _kernel(dist, eps: Fraction, emb_ab: Sequence, emb_ac: Sequence, emb_bc: Sequence) -> tuple:
    """The closeness lists, for each element of emb(a, c) the indices of
    those within sup-distance < eps of it (``dist`` is c's matrix), and the
    table ``comp[p][alpha]``, the emb(a, c) index of p after alpha."""
    close = [
        [j for j, other in enumerate(emb_ac) if max(dist[x][y] for x, y in zip(e, other)) < eps]
        for e in emb_ac
    ]
    index = {e: i for i, e in enumerate(emb_ac)}
    comp = [[index[tuple(p[j] for j in alpha)] for alpha in emb_ab] for p in emb_bc]
    return close, comp


def _near(close, vector) -> list:
    """``near[i]``: the colors within eps of element i of emb(a, c) as a
    bitmask, one bit per color of ``vector`` in order of first appearance;
    elements past the end of ``vector`` have no color."""
    codes = {}
    bits = [1 << codes.setdefault(color, len(codes)) for color in vector]
    bits += [0] * (len(close) - len(bits))
    near = []
    for row in close:
        mask = 0
        for j in row:
            mask |= bits[j]
        near.append(mask)
    return near


class _Memo(dict):
    """One call's family verdicts, keyed on sorted mask column numbers; as
    a dict, p -> the number of p's column under the current coloring."""

    def __init__(self, comp: list):
        self.comp, self.near = comp, []
        self.numbers: dict = {}  # mask column -> its number
        self.verdicts: dict = {}

    def color(self, near: list) -> None:
        self.clear()
        self.near = near

    def __missing__(self, p: int) -> int:
        column = tuple(map(self.near.__getitem__, self.comp[p]))
        n = self[p] = self.numbers.setdefault(column, len(self.numbers))
        return n

    def verdict(self, family, need: int, mu) -> bool:
        """``_family_holds`` for a family of emb(b, c) indices, memoised;
        either matcher may fill an entry, as both are exact."""
        key = tuple(sorted(map(self.__getitem__, family)))
        holds = self.verdicts.get(key)
        if holds is None:
            near, comp = self.near, self.comp
            columns = [tuple(map(near.__getitem__, comp[p])) for p in sorted(family, key=self.get)]
            holds = self.verdicts[key] = _family_holds(tuple(zip(*columns)), need, mu)
        return holds


def _hall_mu(left: Sequence, right: Sequence) -> int:
    """Matching number of the graph joining left i to right j when the color
    masks ``left[i]`` and ``right[j]`` meet.

    Hall's defect form (König; Ore): len(left) minus the max over color
    sets U of #{left masks inside U} - #{right masks meeting U}.  Meeting U
    with the union of the left masks loses no left mask and meets no more
    right masks, so U ranges over the subsets of that union.
    """
    union = 0
    for mask in left:
        union |= mask
    defect, u = 0, union
    while True:
        inside = sum(1 for mask in left if not mask & ~u)
        meeting = sum(1 for mask in right if mask & u)
        defect = max(defect, inside - meeting)
        if not u:
            return len(left) - defect
        u = (u - 1) & union


def _matcher_mu(left: Sequence, right: Sequence) -> int:
    """The matching number of ``_hall_mu``'s graph by Hopcroft-Karp, whose
    cost does not grow with the number of colors."""
    rows = [[j for j, y in enumerate(right) if x & y] for x in left]
    return _match_rows(rows, len(right))[0]


def _need(eps: Fraction, size: int) -> int:
    """ceil((1 - eps) * size), the least matching number a family of that
    size must reach, in integer arithmetic."""
    return -((eps.numerator - eps.denominator) * size // eps.denominator)


def _family_holds(masks, need: int, mu) -> bool:
    """Whether every pair (alpha, beta) of rows of a family's mask matrix
    reaches ``need``, with ``mu`` the mask matcher."""
    return all(mu(left, right) >= need for left in masks for right in masks)


def ramsey_mu(
    psi: Sequence[Embedding],
    alpha: Embedding,
    beta: Embedding,
    phi: Mapping[Embedding, int],
    eps,
) -> int:
    """Matching number of the color-proximity graph on a family of embeddings.

    ``psi`` lists mid-to-large embeddings, ``alpha`` and ``beta`` are
    source-to-mid ones.  Indices gamma and gamma' are joined when psi[gamma]
    o alpha and psi[gamma'] o beta both lie strictly within eps of a single
    color class of ``phi``.  Runs the check's kernel, with (alpha, beta) as
    emb(a, b) and ``psi`` as emb(b, c), and Hopcroft-Karp.
    """
    eps = _require_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if not psi:
        raise ValueError("family must be non-empty")
    mid, large = alpha.target, psi[0].target
    if (beta.source, beta.target) != (alpha.source, mid) or any(
        (p.source, p.target) != (mid, large) for p in psi
    ):
        raise ValueError("embeddings do not chain")
    emb_ac = embeddings(alpha.source, large)
    if set(phi.keys()) != set(emb_ac):
        raise ValueError("coloring is not total on the source-to-large embeddings")
    emb_ab, emb_bc = [alpha.images, beta.images], [p.images for p in psi]
    close, comp = _kernel(large.dist, eps, emb_ab, [e.images for e in emb_ac], emb_bc)
    near = _near(close, [phi[e] for e in emb_ac])
    left, right = zip(*(map(near.__getitem__, row) for row in comp))
    return _matcher_mu(left, right)


@dataclass(frozen=True)
class RamseyOutcome:
    holds: bool
    vacuous: bool
    eps: Fraction
    k: int
    colorings_checked: int
    witnesses: tuple  # (coloring vector, family as emb(B,C) index tuple)
    counterexample: tuple | None  # failing coloring vector, or None


def _image_spaces(a, b, c, k: int, eps: Fraction) -> tuple:
    """Check k and eps; return emb(a, b), emb(a, c) and emb(b, c) as image
    tuples.  Unless emb(a, b) is empty, emb(a, c) must be non-empty and have
    at most ``MAX_COLORINGS`` colorings."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    emb_ab, emb_ac, emb_bc = (_images(x, y) for x, y in ((a, b), (a, c), (b, c)))
    if emb_ab and not emb_ac:
        raise ValueError("no embeddings of the small space into the large one")
    n = len(emb_ac)
    # (k+1)^n >= 2^n, so a long emb(a, c) is over the cap for every k
    if emb_ab and (n >= MAX_COLORINGS.bit_length() or (k + 1) ** n > MAX_COLORINGS):
        raise CapExceeded(f"coloring space {k + 1}^{n} exceeds cap {MAX_COLORINGS}")
    return emb_ab, emb_ac, emb_bc


def ramsey_condition_check(
    a: FinMetric,
    b: FinMetric,
    c: FinMetric,
    k: int,
    eps,
    max_family: int = 4,
    family_budget: int = 2000,
) -> RamseyOutcome:
    """Check the matching condition for every coloring of emb(a, c).

    For each coloring with colors 0..k, in ``itertools.product`` order,
    tries multiset families psi of embeddings b -> c, by size 1..max_family
    and at most ``family_budget`` per coloring, for one with min over alpha,
    beta in emb(a, b) of ramsey_mu >= (1-eps)*|F|.  Returns the witnesses,
    or the first coloring whose search fails; vacuous when emb(a, b) is
    empty.  Raises ``CapExceeded`` beyond ``MAX_COLORINGS`` colorings.
    """
    eps = _require_fraction(eps)
    _require_bounds(max_family, family_budget)
    emb_ab, emb_ac, emb_bc = _image_spaces(a, b, c, k, eps)
    if not emb_ab:
        return RamseyOutcome(True, True, eps, k, 0, (), None)
    close, comp = _kernel(c.dist, eps, emb_ab, emb_ac, emb_bc)
    # no b -> c embedding means no family, however large max_family is
    sizes = range(1, max_family + 1) if emb_bc else ()
    need = {size: _need(eps, size) for size in sizes}
    memo = _Memo(comp)
    verdicts = memo.verdicts
    witnesses = []
    for checked, vector in enumerate(itertools.product(range(k + 1), repeat=len(emb_ac)), 1):
        memo.color(_near(close, vector))
        families = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(len(emb_bc)), size)
            for size in sizes
        )
        for combo in itertools.islice(families, family_budget):
            # nearly every family is a hit, found here without a call
            key = tuple(sorted(map(memo.__getitem__, combo)))
            holds = verdicts.get(key)
            if holds is None:
                holds = memo.verdict(combo, need[len(combo)], _hall_mu)
            if holds:
                witnesses.append((vector, combo))
                break
        else:
            return RamseyOutcome(False, False, eps, k, checked, tuple(witnesses), vector)
    return RamseyOutcome(True, False, eps, k, len(witnesses), tuple(witnesses), None)


def _require_bounds(max_family: int, family_budget: int) -> None:
    for name, bound in (("max_family", max_family), ("family_budget", family_budget)):
        if bound < 1:  # no family would be tried
            raise ValueError(f"{name} must be at least 1, got {bound}")


def check_report(
    outcome: RamseyOutcome,
    a: FinMetric,
    b: FinMetric,
    c: FinMetric,
    max_family: int,
    family_budget: int,
) -> CheckReport:
    """Replay a stored ``ramsey_condition_check`` outcome.

    Raises ``ValueError`` on a malformed report: eps outside (0, 1), k < 1,
    a bound below 1, or a witness family that is not a non-empty list of
    emb(b, c) indices.  A report that holds must pair each coloring, in
    product order, with a family that passes; any other must equal a rerun.
    """
    k, eps = outcome.k, outcome.eps
    _require_bounds(max_family, family_budget)
    emb_ab, emb_ac, emb_bc = _image_spaces(a, b, c, k, eps)
    for _, family in outcome.witnesses:
        if not family or not all(0 <= i < len(emb_bc) for i in family):
            raise ValueError(
                f"witness family {list(family)} is not a non-empty list of "
                f"indices into emb(B, C), which has {len(emb_bc)} elements"
            )
    replay = bool(emb_ab) and outcome.holds
    if replay:
        vectors = tuple(itertools.product(range(k + 1), repeat=len(emb_ac)))
        # pad with (), which matches no stored family, so a missing one shows
        families = [family for _, family in outcome.witnesses] + [()] * len(vectors)
        paired = tuple(zip(vectors, families))
        expected = RamseyOutcome(True, False, eps, k, len(vectors), paired, None)
    else:
        expected = ramsey_condition_check(a, b, c, k, eps, max_family, family_budget)
    findings = []
    for name in ("holds", "vacuous", "colorings_checked", "counterexample"):
        stored, want = getattr(outcome, name), getattr(expected, name)
        if stored != want:
            findings.append(Finding(f"{name}-mismatch", f"stored {stored}, expected {want}"))
    if outcome.witnesses != expected.witnesses:
        n, m = len(outcome.witnesses), len(expected.witnesses)
        message = f"the {n} stored witnesses differ from the {m} expected"
        findings.append(Finding("witnesses-mismatch", message))
    if replay:
        close, comp = _kernel(c.dist, eps, emb_ab, emb_ac, emb_bc)
        memo = _Memo(comp)
        need = {len(family): _need(eps, len(family)) for _, family in outcome.witnesses}
        for vector, family in outcome.witnesses:
            # a stored vector may have any length and colors (a witnesses-
            # mismatch already): past its end no color, and Hall's defect,
            # which walks 2^colors sets, only on k + 1 colors at most
            head = vector[: len(emb_ac)]
            mu = _hall_mu if len(set(head)) <= k + 1 else _matcher_mu
            memo.color(_near(close, head))
            if not memo.verdict(family, need[len(family)], mu):
                message = f"family {list(family)} fails for coloring {list(vector)}"
                findings.append(Finding("witness-fails", message))
    return CheckReport("PASS" if not findings else "FAIL", tuple(findings))
