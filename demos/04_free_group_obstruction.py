"""The free group resists almost-invariance: colorings that beat every ball.

In the rank-2 free group the ball of radius 2 has 17 elements, but its
translate by the generator a shares only 8 of them.  Coloring words by
their leading letter pins the matching number between the ball and its
translate to that overlap.  No coloring goes lower, since each common word
matches itself, so the adversary's best two-coloring states the overlap:
the words of the ball that the translate misses get color 1, the rest 0.

Run:  python3 demos/04_free_group_obstruction.py
"""

from fractions import Fraction

from matchcover import (
    BallsStrategy,
    Coloring,
    FreeGroup,
    adversary_coloring,
    folner_search,
    mu,
)
from matchcover.cover import Covering, GroundSet

F2 = FreeGroup(2)
a = F2.parse_elem("a")

ball = F2.ball(2)
shifted = F2.translate(a, ball)
print("|ball(2)| =", len(ball), " |ball & a*ball| =", len(set(ball) & set(shifted)))

# partition the window by leading letter: 5 classes (the empty word alone)
window = sorted(set(ball) | set(shifted), key=F2.sort_key)
ground = GroundSet(window)
by_letter = {}
for w in window:
    by_letter.setdefault(w[0] if w else 0, []).append(w)
first_letter = Covering(ground, by_letter.values())
value = mu(ball, shifted, first_letter)
print("mu(ball, a*ball, first-letter partition) =", value, "=", Fraction(value, 17))

# the adversary's optimum is the overlap: |ball & a*ball| / |ball|
coloring, ratio = adversary_coloring(F2, ball, [a], k=1)
print("adversarial 2-coloring ratio:", ratio)

# no ball reaches ratio 9/10 against the first-letter coloring
big_window = F2.ball(5)
search_coloring = Coloring(
    GroundSet(big_window),
    tuple((2 * w[0] - 1 if w[0] > 0 else -2 * w[0]) if w else 0 for w in big_window),
    k=4,
)
result = folner_search(
    F2,
    [F2.parse_elem(s) for s in ("a", "A", "b", "B")],
    search_coloring,
    Fraction(9, 10),
    strategy=BallsStrategy(4),
)
print("ball search:", result.status, "best ratio", result.best_ratio)
