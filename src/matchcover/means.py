"""Finitely supported probability weights on a group, with convolution.

All arithmetic is exact rational; no floating point enters this module.
The certificates downstream are inequalities between averages, and exact
arithmetic removes any tolerance ambiguity from them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .groups import GroupModel, _require_fraction


class ConvexCombination:
    """Positive rational weights on finitely many group elements, summing to 1."""

    __slots__ = ("group", "_weights")

    def __init__(self, group: GroupModel, weights: Mapping) -> None:
        cleaned = {}
        for g, w in weights.items():
            g = group.validate(g)
            w = _require_fraction(w)
            if w <= 0:
                raise ValueError(f"weight must be positive, got {w} at {g!r}")
            cleaned[g] = cleaned.get(g, Fraction(0)) + w
        if not cleaned:
            raise ValueError("empty support")
        total = sum(cleaned.values())
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")
        self.group = group
        self._weights = {
            g: cleaned[g] for g in sorted(cleaned, key=group.sort_key)
        }

    @property
    def support(self) -> tuple:
        return tuple(self._weights)

    def items(self) -> tuple:
        return tuple(self._weights.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ConvexCombination)
            and self.group.describe() == other.group.describe()
            and self._weights == other._weights
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{self.group.elem_str(g)}: {w}" for g, w in self._weights.items()
        )
        return f"ConvexCombination({{{inner}}})"


def dirac(group: GroupModel, g) -> ConvexCombination:
    return ConvexCombination(group, {group.validate(g): Fraction(1)})


def uniform(group: GroupModel, elems: Iterable) -> ConvexCombination:
    support = group.canon_set(elems)
    if not support:
        raise ValueError("uniform mean needs a non-empty set")
    w = Fraction(1, len(support))
    return ConvexCombination(group, {g: w for g in support})


def convolve(a: ConvexCombination, b: ConvexCombination) -> ConvexCombination:
    """Convolution product; the support lies inside the product of supports."""
    if a.group.describe() != b.group.describe():
        raise ValueError("convolution of means over different groups")
    group = a.group
    out: dict = {}
    for x, wx in a.items():
        for y, wy in b.items():
            z = group.unchecked_multiply(x, y)
            out[z] = out.get(z, Fraction(0)) + wx * wy
    return ConvexCombination(group, out)


def rationalize(alpha: Mapping, theta) -> tuple[dict, int, dict]:
    """Approximate probability weights by ones with a common denominator.

    Returns (beta, n, gamma) with beta = gamma/n, gamma positive integers
    summing to n, the support unchanged, and the L1 distance to alpha at
    most theta.  Uses largest-remainder apportionment at denominator
    ceil(2*|support|/theta) and verifies the bound a posteriori, doubling
    the denominator until it holds.
    """
    theta = _require_fraction(theta)
    if theta <= 0:
        raise ValueError("theta must be positive")
    items = [(g, _require_fraction(w)) for g, w in alpha.items()]
    if not items:
        raise ValueError("empty support")
    for _, w in items:
        if w <= 0:
            raise ValueError("alpha weights must be positive")
    if sum(w for _, w in items) != 1:
        raise ValueError("alpha weights must sum to 1")

    m = len(items)
    n = max(m, math.ceil(Fraction(2 * m) / theta))
    while True:
        quotas = [w * n for _, w in items]
        gamma = [math.floor(q) for q in quotas]
        remainders = sorted(
            range(m), key=lambda i: (-(quotas[i] - gamma[i]), i)
        )
        leftover = n - sum(gamma)
        for step in range(leftover):
            gamma[remainders[step % m]] += 1
        # positivity repair: steal from the largest entry for each zero
        for i in range(m):
            if gamma[i] == 0:
                donor = max(range(m), key=lambda j: (gamma[j], -j))
                gamma[donor] -= 1
                gamma[i] += 1
        if all(c >= 1 for c in gamma):
            beta = {g: Fraction(c, n) for (g, _), c in zip(items, gamma)}
            deviation = sum(abs(w - beta[g]) for g, w in items)
            if deviation <= theta:
                return beta, n, {g: c for (g, _), c in zip(items, gamma)}
        n *= 2
