"""Matching condition for colorings of embeddings between finite metric spaces.

Works over finite metric spaces with rational distances and no extra
relational structure.  Embeddings are isometric maps; the sup-distance
between two embeddings with a common source is taken over the SOURCE
points (the natural reading when both maps are defined on the source; the
alternative convention of ranging over the target makes no sense for
partial images and is not used here).

The matching condition asks, for every coloring of the source-to-large
embeddings, for a finite family of mid-to-large embeddings whose induced
bipartite graphs (composites landing near a common color class) have
matching number at least (1-eps) times the family size, for every pair of
source-to-mid embeddings.  Eps-balls around color classes use strict
inequality.

Inputs are validated where they enter; inside, one indexed kernel works on
image tuples and builds no ``Embedding``.  Once per check it lists, for each
source-to-large embedding, the ones within eps of it (its closeness list),
and tabulates each mid-to-large embedding after each source-to-mid one as
an index.  Once per coloring it ORs the colors over each closeness list
into a bitmask.  A family's two sides are then mask lookups, and since
adjacency depends only on the masks, the matching number is Hall's defect
over sets of colors (König; Ore), which walks 2^(k+1) sets at most.
``check_report`` replays a stored outcome for ``matchcover verify`` on the
same kernel.  Where a mask graph may carry more colors than that (a stored
coloring with too many colors, or ``ramsey_mu``, which has no k), its
matching number comes from Hopcroft-Karp on the mask graph's rows instead.

A family's verdict depends only on its mask matrix, one row of masks per
source-to-mid embedding, and few matrices recur across many colorings and
families.  So one check, and one replay, keeps a dict from each matrix it
has met to its verdict and runs a matcher only on a miss.  The dict lives
and dies with the call; nothing is cached between calls.
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
        # scaled once by the common denominator, the checks compare ints
        scale = math.lcm(*(x.denominator for row in self.dist for x in row))
        d = [[x.numerator * (scale // x.denominator) for x in row] for row in self.dist]
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
        for i in range(n):
            for j in range(n):
                if self.target.d(self.images[i], self.images[j]) != self.source.d(i, j):
                    raise ValueError(
                        "map is not isometric at "
                        f"({self.source.points[i]!r},{self.source.points[j]!r})"
                    )

    def mapping(self) -> dict:
        return {
            self.source.points[i]: self.target.points[self.images[i]]
            for i in range(len(self.source))
        }


def embeddings(a: FinMetric, c: FinMetric) -> tuple:
    """All isometric maps from a into c, lexicographic by image indices."""
    if len(a) > MAX_SOURCE_POINTS:
        raise CapExceeded(f"source has more than {MAX_SOURCE_POINTS} points")
    if len(c) > MAX_TARGET_POINTS:
        raise CapExceeded(f"target has more than {MAX_TARGET_POINTS} points")
    n, m = len(a), len(c)
    found = []
    images: list = []

    def extend(i: int) -> None:
        if i == n:
            found.append(Embedding(a, c, tuple(images)))
            return
        for cand in range(m):
            if all(c.d(images[j], cand) == a.d(j, i) for j in range(i)):
                images.append(cand)
                extend(i + 1)
                images.pop()

    extend(0)
    return tuple(found)


def _kernel(dist, eps: Fraction, emb_ab: Sequence, emb_ac: Sequence, emb_bc: Sequence) -> tuple:
    """The coloring-independent index of a check, with ``dist`` the large
    space's matrix and the embeddings as image tuples.

    Returns the closeness lists, for each element of emb(a, c) the indices
    of emb(a, c) within sup-distance < eps of it, and the composition table
    ``comp[alpha][p]``, the emb(a, c) index of p after alpha, whose image
    tuple is ``tuple(p[j] for j in alpha)``.
    """
    close = [
        [
            j
            for j, other in enumerate(emb_ac)
            if max(dist[x][y] for x, y in zip(images, other)) < eps
        ]
        for images in emb_ac
    ]
    index = {images: i for i, images in enumerate(emb_ac)}
    comp = [[index[tuple(p[j] for j in alpha)] for p in emb_bc] for alpha in emb_ab]
    return close, comp


def _color_bits(vector) -> list:
    """One bit per color of a coloring in emb(a, c) order, the colors
    numbered in order of first appearance; matching numbers do not depend
    on the names of the colors."""
    codes: dict = {}
    return [1 << codes.setdefault(color, len(codes)) for color in vector]


def _sides(close, comp, bits) -> list:
    """``sides[alpha][p]``: the bitmask of the colors that lie near p after
    alpha, with ``bits[j]`` the color bit of element j of emb(a, c)."""
    near = []
    for row in close:
        mask = 0
        for j in row:
            mask |= bits[j]
        near.append(mask)
    return [[near[i] for i in row] for row in comp]


def _hall_mu(left: Sequence, right: Sequence) -> int:
    """Matching number of the graph joining left i to right j when the color
    masks ``left[i]`` and ``right[j]`` meet.

    Hall's theorem in defect form (König; Ore): the matching number is
    len(left) minus the max over color sets U of #{left masks inside U}
    minus #{right masks meeting U}.  Shrinking U to its meet with the union
    of the left masks loses no left mask and meets no more right masks, so
    U ranges over the subsets of that union.
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


def _family_verdict(verdicts: dict, sides, family, need: int, mu) -> bool:
    """``_family_holds`` for the family of emb(b, c) indices, looked up in
    ``verdicts`` under its mask matrix, ``masks[alpha][gamma]``.

    Within one check eps is fixed and ``need`` follows from the family size,
    the row length, so the matrix alone decides the verdict; Hall's defect
    and Hopcroft-Karp give the same exact one, so either may fill the entry.
    """
    masks = tuple(tuple(row[p] for p in family) for row in sides)
    holds = verdicts.get(masks)
    if holds is None:
        holds = verdicts[masks] = _family_holds(masks, need, mu)
    return holds


def ramsey_mu(
    psi: Sequence[Embedding],
    alpha: Embedding,
    beta: Embedding,
    phi: Mapping[Embedding, int],
    eps,
) -> int:
    """Matching number of the color-proximity graph on a family of embeddings.

    ``psi`` lists mid-to-large embeddings indexed by a finite set F;
    ``alpha`` and ``beta`` are source-to-mid embeddings.  Indices gamma and
    gamma' are joined when the composites psi[gamma] o alpha and
    psi[gamma'] o beta both lie strictly within eps of a single color class
    of ``phi``.  Validates eps, the family and the coloring, then reads the
    two sides off the check's kernel, with (alpha, beta) as emb(a, b) and
    ``psi`` as emb(b, c), and matches the mask graph with ``_matcher_mu``.
    Nothing bounds the number of colors here, so Hall's defect, which walks
    every set of them, is not used.
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
    left, right = _sides(close, comp, _color_bits([phi[e] for e in emb_ac]))
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
    tuples.  Unless emb(a, b) is empty, emb(a, c) must be non-empty and its
    colorings must fit under ``MAX_COLORINGS``."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not (0 < eps < 1):
        raise ValueError("eps must lie strictly between 0 and 1")
    emb_ab, emb_ac, emb_bc = (
        [e.images for e in embeddings(x, y)] for x, y in ((a, b), (a, c), (b, c))
    )
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
    searches multiset families psi of embeddings b -> c (sizes
    1..max_family, at most ``family_budget`` candidates per coloring)
    achieving min over alpha, beta in emb(a, b) of ramsey_mu >= (1-eps)*|F|.
    Returns per-coloring witnesses, or the first coloring whose budgeted
    search fails.  When emb(a, b) is empty the condition holds vacuously.
    Raises ``CapExceeded`` beyond ``MAX_COLORINGS`` colorings.
    """
    eps = _require_fraction(eps)
    emb_ab, emb_ac, emb_bc = _image_spaces(a, b, c, k, eps)
    if not emb_ab:
        return RamseyOutcome(True, True, eps, k, 0, (), None)
    close, comp = _kernel(c.dist, eps, emb_ab, emb_ac, emb_bc)
    # no b -> c embedding means no family, however large max_family is
    sizes = range(1, max_family + 1) if emb_bc else ()
    need = {size: _need(eps, size) for size in sizes}
    verdicts: dict = {}
    witnesses = []
    for checked, vector in enumerate(itertools.product(range(k + 1), repeat=len(emb_ac)), 1):
        sides = _sides(close, comp, _color_bits(vector))
        families = itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(len(emb_bc)), size)
            for size in sizes
        )
        for combo in itertools.islice(families, max(family_budget, 0)):
            if _family_verdict(verdicts, sides, combo, need[len(combo)], _hall_mu):
                witnesses.append((vector, combo))
                break
        else:
            return RamseyOutcome(False, False, eps, k, checked, tuple(witnesses), vector)
    return RamseyOutcome(True, False, eps, k, len(witnesses), tuple(witnesses), None)


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
    or a witness family that is not a non-empty list of emb(b, c) indices.
    A report that holds must pair each coloring, in ``itertools.product``
    order, with a family that passes on the evaluator.  Any other report
    must equal a rerun of the budgeted search.
    """
    k, eps = outcome.k, outcome.eps
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
        verdicts: dict = {}
        for vector, family in outcome.witnesses:
            # a stored vector may have any length and colors; as under zip,
            # the elements of emb(a, c) past its end have no color
            head = vector[: len(emb_ac)]
            bits = _color_bits(head) + [0] * (len(emb_ac) - len(head))
            # more than k + 1 colors is already a witnesses-mismatch; Hall's
            # defect would walk 2^colors sets for it
            mu = _hall_mu if len(set(head)) <= k + 1 else _matcher_mu
            sides = _sides(close, comp, bits)
            if not _family_verdict(verdicts, sides, family, _need(eps, len(family)), mu):
                message = f"family {list(family)} fails for coloring {list(vector)}"
                findings.append(Finding("witness-fails", message))
    return CheckReport("PASS" if not findings else "FAIL", tuple(findings))
