"""Lemma harnesses and helper classes that only the tests use.

The paper-reproduction tests check a few statements that no CLI subcommand
or demo reaches: the composition inequality for chains of matchings, the
Moore and Cantor counting gaps, the 2*theta0 - 1 amplification step, and
push-forwards of rational functions on a window.  Their harnesses live
here, on top of the library's public API, together with the finite actions
and finite functions they act on and the graph encoder the round-trip test
pairs with ``serialize.graph_from_json``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from matchcover.bipartite import (
    BipartiteGraph,
    MatchingWitness,
    covering_graph,
    mu,
    validate_witness,
)
from matchcover.cover import Covering, GroundSet, star_covering, star_iterate
from matchcover.folner import WindowEscape
from matchcover.groups import (
    FiniteTableGroup,
    GroupError,
    GroupModel,
    _require_fraction,
    _require_int,
    cyclic_group,
    group_from_json,
)
from matchcover.means import ConvexCombination
from matchcover.serialize import _atom_writer


# -- matchings ----------------------------------------------------------------


def compose_matchings(
    sets: Sequence[Iterable],
    witnesses: Sequence[MatchingWitness],
    u: Covering,
) -> MatchingWitness:
    """Relational composition of a chain of matchings.

    ``witnesses[i]`` must be a matching in the covering graph between
    ``sets[i]`` and ``sets[i+1]``.  The composite, restricted to indices
    where the whole chain is defined, is a matching between the first and
    last set with respect to the (n-1)-fold star of ``u``; its size is at
    least the sum of the chain sizes minus the sizes of the interior sets.
    """
    if len(sets) != len(witnesses) + 1:
        raise ValueError("need exactly one more set than witnesses")
    if not witnesses:
        raise ValueError("empty chain")
    canon_sets = [u.ground.canon(s) for s in sets]
    maps = []
    for i, witness in enumerate(witnesses):
        graph = covering_graph(canon_sets[i], canon_sets[i + 1], u)
        validate_witness(graph, witness)
        maps.append(dict(witness.pairs))
    pairs = []
    for start in sorted(maps[0]):
        idx = start
        alive = True
        for step in maps:
            if idx not in step:
                alive = False
                break
            idx = step[idx]
        if alive:
            pairs.append((start, idx))
    composed = MatchingWitness(tuple(pairs))
    target = covering_graph(
        canon_sets[0], canon_sets[-1], star_iterate(u, len(witnesses) - 1)
    )
    validate_witness(target, composed)
    return composed


def graph_to_json(g: BipartiteGraph, model: GroupModel | None = None) -> dict:
    """The encoding ``serialize.graph_from_json`` reads."""
    write = _atom_writer(model)
    return {
        "left": list(map(write, g.left)),
        "right": list(map(write, g.right)),
        "edges": sorted([i, j] for i, j in g.edges),
    }


# -- finite actions -----------------------------------------------------------


class FiniteAction:
    """A finite table group acting on a finite point set.

    ``act[i][p]`` is the image of point index p under element i.  The
    identity row and the homomorphism law are checked on load.
    """

    def __init__(
        self,
        group: FiniteTableGroup,
        points: Sequence,
        act: Sequence[Sequence[int]],
    ) -> None:
        self.group = group
        self.points = tuple(points)
        npts = len(self.points)
        if len(set(self.points)) != npts or npts == 0:
            raise GroupError("points must be distinct and non-empty")
        if len(act) != group.order or any(len(row) != npts for row in act):
            raise GroupError("action table has wrong shape")
        self.table = tuple(tuple(_require_int(x, "action entry") for x in row) for row in act)
        for row in self.table:
            for x in row:
                if not (0 <= x < npts):
                    raise GroupError(f"action entry {x} out of range")
        e = group.identity
        if any(self.table[e][p] != p for p in range(npts)):
            raise GroupError("identity does not act as identity")
        for g in range(group.order):
            for h in range(group.order):
                gh = group.multiply(g, h)
                for p in range(npts):
                    if self.table[g][self.table[h][p]] != self.table[gh][p]:
                        raise GroupError("action does not respect multiplication")

    def point_index(self, p) -> int:
        try:
            return self.points.index(p)
        except ValueError:
            raise GroupError(f"unknown point: {p!r}") from None

    def act(self, g, subset: Iterable) -> tuple:
        """Image of a point subset under g, in point order."""
        g = self.group.validate(g)
        images = {self.table[g][self.point_index(p)] for p in subset}
        return tuple(self.points[i] for i in sorted(images))

    def describe(self) -> dict:
        out = self.group.describe()
        out["points"] = list(self.points)
        out["act"] = [list(row) for row in self.table]
        return out


def rotation_action(n: int) -> FiniteAction:
    """Z/n rotating n points labelled '0'..'n-1'."""
    group = cyclic_group(n)
    points = [str(i) for i in range(n)]
    act = [[(p + g) % n for p in range(n)] for g in range(n)]
    return FiniteAction(group, points, act)


def action_from_json(obj: dict) -> FiniteAction:
    group = group_from_json({k: obj[k] for k in ("kind", "elements", "mul")})
    if not isinstance(group, FiniteTableGroup):
        raise GroupError("actions require a finite table group")
    return FiniteAction(group, obj["points"], obj["act"])


# -- counting gaps ------------------------------------------------------------


def moore_gap(model: GroupModel, f_set: Iterable, g, a: Iterable, window: Iterable) -> int:
    """Exact value of ||F & A| - |gF & A|| inside an explicit window."""
    f_canon = model.canon_set(f_set)
    translated = model.translate(g, f_canon)
    win = set(model.canon_set(window))
    a_set = set(model.canon_set(a))
    for label, elems in (("F", f_canon), ("gF", translated), ("A", a_set)):
        missing = [x for x in elems if x not in win]
        if missing:
            raise WindowEscape(f"{label} escapes the window")
    return abs(len(set(f_canon) & a_set) - len(set(translated) & a_set))


def cantor_check(
    action: FiniteAction, f_set: Iterable, e_set: Iterable, p: Covering, eps
) -> tuple[bool, tuple]:
    """Per-translate, per-block counting gaps for a finite action.

    Returns (ok, gaps) where gaps lists (g, block, gap) for every element
    of e_set and every block of the partition; ok is True iff every gap is
    at most eps*|F|.
    """
    eps = Fraction(eps)
    if set(p.ground.atoms) != set(action.points):
        raise ValueError("partition ground must be the action's point set")
    if not p.is_partition():
        raise ValueError("covering is not a partition")
    f_canon = tuple(dict.fromkeys(f_set))
    bound = eps * len(f_canon)
    gaps = []
    ok = True
    f_points = set(f_canon)
    for g in e_set:
        image = set(action.act(g, f_canon))
        for block in p.blocks:
            gap = abs(len(f_points.intersection(block)) - len(image.intersection(block)))
            gaps.append((g, block, gap))
            if gap > bound:
                ok = False
    return ok, tuple(gaps)


# -- threshold amplification --------------------------------------------------


def theta_boost_check(theta0, trials: int = 100, seed: int = 0) -> dict:
    """Randomized harness for the 2*theta0 - 1 amplification step.

    Generates random instances on cyclic groups of order 6 to 12 until
    ``trials`` of them satisfy both hypotheses mu(F, gF, V) >= theta0*|F|
    and mu(F, hF, V) >= theta0*|F| exactly, then asserts the symmetric pair
    bound mu(gF, hF, V*) >= (2*theta0 - 1)*|F| in the star covering.
    Returns a report with any violations (expected: none).
    """
    theta0 = Fraction(theta0)
    if not (Fraction(1, 2) < theta0 <= 1):
        raise ValueError("theta0 must lie in (1/2, 1]")
    theta1 = 2 * theta0 - 1
    rng = random.Random(seed)
    groups = {n: cyclic_group(n) for n in range(6, 13)}
    checked = 0
    attempts = 0
    violations = []
    while checked < trials:
        attempts += 1
        if attempts > 1000 * trials:
            raise RuntimeError("instance generator failed to satisfy hypotheses")
        n = rng.randint(6, 12)
        model = groups[n]
        ground = GroundSet(range(n))
        f_size = rng.randint(2, n - 1)
        f_set = model.canon_set(rng.sample(range(n), f_size))
        g = rng.randrange(n)
        h = rng.randrange(n)
        style = rng.random()
        if style < 0.3:
            cover = Covering(ground, [range(n)])
        else:
            parts = rng.randint(2, 3)
            assignment = [rng.randrange(parts) for _ in range(n)]
            blocks = [
                [x for x in range(n) if assignment[x] == b] for b in range(parts)
            ]
            blocks = [b for b in blocks if b]
            grown = []
            for b in blocks:
                extra = rng.sample(range(n), rng.randint(0, n // 2))
                grown.append(sorted(set(b) | set(extra)))
            cover = Covering(ground, grown)
        gf = model.translate(g, f_set)
        hf = model.translate(h, f_set)
        hyp_g = Fraction(mu(f_set, gf, cover), f_size) >= theta0
        hyp_h = Fraction(mu(f_set, hf, cover), f_size) >= theta0
        if not (hyp_g and hyp_h):
            continue
        checked += 1
        star = star_covering(cover)
        conclusion = Fraction(mu(gf, hf, star), f_size)
        if conclusion < theta1:
            violations.append(
                {
                    "order": n,
                    "f": f_set,
                    "g": g,
                    "h": h,
                    "blocks": cover.blocks,
                    "ratio": conclusion,
                }
            )
    return {
        "theta0": theta0,
        "theta1": theta1,
        "checked": checked,
        "attempts": attempts,
        "violations": violations,
    }


# -- finite functions ---------------------------------------------------------


class DomainEscape(ValueError):
    """A push-forward referenced a product outside the function's domain."""


class FiniteFunction:
    """A rational-valued function on a finite window of group elements."""

    __slots__ = ("group", "_values")

    def __init__(self, group: GroupModel, values: Mapping) -> None:
        cleaned = {group.validate(g): _require_fraction(v) for g, v in values.items()}
        if not cleaned:
            raise ValueError("empty domain")
        self.group = group
        self._values = {g: cleaned[g] for g in sorted(cleaned, key=group.sort_key)}

    @property
    def domain(self) -> tuple:
        return tuple(self._values)

    def __call__(self, g) -> Fraction:
        g = self.group.validate(g)
        try:
            return self._values[g]
        except KeyError:
            raise DomainEscape(
                f"element {self.group.elem_str(g)} outside function domain"
            ) from None

    def items(self) -> tuple:
        return tuple(self._values.items())


def push_function(f: FiniteFunction, nu: ConvexCombination, g) -> Fraction:
    """Weighted average of f over the left translate of nu's support by g.

    Every product g*x with x in the support must lie in the domain of f;
    silently extending f by zero would corrupt downstream gap computations,
    so escapes raise instead, naming the offending product.
    """
    group = f.group
    g = group.validate(g)
    total = Fraction(0)
    for x, w in nu.items():
        gx = group.multiply(g, x)
        if gx not in f._values:
            raise DomainEscape(
                f"product {group.elem_str(g)}*{group.elem_str(x)} = "
                f"{group.elem_str(gx)} outside function domain"
            )
        total += w * f._values[gx]
    return total


def function_modulus(f: FiniteFunction, u: Covering) -> Fraction:
    """Largest oscillation of f over a single block of the covering."""
    if set(u.ground.atoms) != set(f.domain):
        raise ValueError("covering ground must equal the function domain")
    worst = Fraction(0)
    for block in u.blocks:
        values = [f(g) for g in block]
        worst = max(worst, max(values) - min(values))
    return worst


def modulus_check(f: FiniteFunction, u: Covering, eps) -> bool:
    """True iff f oscillates by at most eps on every block."""
    return function_modulus(f, u) <= _require_fraction(eps)


def condition6_gap(f: FiniteFunction, delta: ConvexCombination, e: Iterable) -> Fraction:
    """Largest spread of the delta-averaged translates of f over e."""
    group = f.group
    elems = group.canon_set(e)
    if not elems:
        raise ValueError("empty translate set")
    values = [push_function(f, delta, g) for g in elems]
    return max(values) - min(values)
