"""Independent brute-force references and instance generators for the tests.

The matching oracle never touches augmenting paths: it enumerates matchings
as injections directly (memoized over right-vertex subsets), after splitting
the graph into connected components to keep the subset space small.  The
Hall-deficiency oracle never touches a matching: it enumerates every subset
of the left part.  The ball oracle runs one BFS per radius on the validating
group law, and the adversary oracle tries every coloring up to a cap.  The
candidate-search and sweep oracles build every translate of every candidate
and recount its blocks with ``mu_partition`` (``mu`` on a covering that is
not a partition).  The ramsey oracle is the object-level loop: embeddings
found by trying every image tuple on ``Fraction`` distances, ``Embedding``
composites, ``rho`` on each pair of embeddings, and colorings as dicts keyed
by embedding.  The certificate-pair oracle builds the whole covering graph,
validates the witness against its edge set and reruns Hopcroft-Karp.  The
perfect-net oracle builds the covering by all right translates of U^-1 U
and matches each translate on its covering graph.  The associativity oracle
scans every triple of a multiplication table.
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from functools import lru_cache

from matchcover.bipartite import (
    BipartiteGraph,
    WitnessError,
    covering_graph,
    max_matching,
    mu,
    mu_partition,
    mu_with_witness,
    validate_witness,
)
from matchcover import folner
from matchcover.cover import Covering, GroundSet
from matchcover.folner import (
    BallsStrategy,
    Finding,
    LocalSetStrategy,
    SearchResult,
    WindowEscape,
    build_certificate,
    required_pairs,
    theta_threshold,
)
from matchcover.ramsey import Embedding, RamseyOutcome


def _component_optimum(adj_masks: list) -> int:
    """Best injection count for one component, right sets as bitmasks."""

    @lru_cache(maxsize=None)
    def go(i: int, used: int) -> int:
        if i == len(adj_masks):
            return 0
        best = go(i + 1, used)
        free = adj_masks[i] & ~used
        while free:
            low = free & -free
            best = max(best, 1 + go(i + 1, used | low))
            free ^= low
        return best

    result = go(0, 0)
    go.cache_clear()
    return result


def max_matching_bruteforce(graph: BipartiteGraph) -> int:
    """Exhaustive-injection optimum, via per-component subset recursion."""
    nl, nr = len(graph.left), len(graph.right)
    adj = [set() for _ in range(nl)]
    radj = [set() for _ in range(nr)]
    for i, j in graph.edges:
        adj[i].add(j)
        radj[j].add(i)
    seen_l = [False] * nl
    total = 0
    for start in range(nl):
        if seen_l[start] or not adj[start]:
            continue
        comp_l, comp_r = [], []
        stack = [("L", start)]
        seen_l[start] = True
        seen_r = set()
        while stack:
            side, v = stack.pop()
            if side == "L":
                comp_l.append(v)
                for j in adj[v]:
                    if j not in seen_r:
                        seen_r.add(j)
                        stack.append(("R", j))
            else:
                comp_r.append(v)
                for i in radj[v]:
                    if not seen_l[i]:
                        seen_l[i] = True
                        stack.append(("L", i))
        remap = {j: pos for pos, j in enumerate(sorted(comp_r))}
        masks = []
        for i in sorted(comp_l):
            mask = 0
            for j in adj[i]:
                mask |= 1 << remap[j]
            masks.append(mask)
        total += _component_optimum(masks)
    return total


def hall_deficiency_bruteforce(graph: BipartiteGraph) -> tuple[int, tuple]:
    """Largest |S| - |N(S)| by enumerating every left subset S.

    Reports the first maximizer in mask order (bit i set means left vertex
    i is in S), as a tuple of left atoms in left order.
    """
    nl = len(graph.left)
    nbr_mask = [0] * nl
    for i, j in graph.edges:
        nbr_mask[i] |= 1 << j
    best = 0
    best_mask = 0
    for mask in range(1 << nl):
        union = 0
        size = 0
        m = mask
        while m:
            low = m & -m
            union |= nbr_mask[low.bit_length() - 1]
            size += 1
            m ^= low
        value = size - union.bit_count()
        if value > best:
            best = value
            best_mask = mask
    return best, tuple(graph.left[i] for i in range(nl) if best_mask >> i & 1)


def random_graph(rng, max_left: int, max_right: int, density: float = 0.4) -> BipartiteGraph:
    nl = rng.randint(1, max_left)
    nr = rng.randint(1, max_right)
    edges = frozenset(
        (i, j)
        for i in range(nl)
        for j in range(nr)
        if rng.random() < density
    )
    return BipartiteGraph(tuple(range(nl)), tuple(range(nr)), edges)


def random_covering(rng, ground_size: int, max_blocks: int = 5) -> Covering:
    ground = GroundSet(range(ground_size))
    nblocks = rng.randint(1, max_blocks)
    blocks = [
        rng.sample(range(ground_size), rng.randint(1, ground_size))
        for _ in range(nblocks)
    ]
    leftover = set(range(ground_size)) - set().union(*map(set, blocks))
    if leftover:
        blocks.append(sorted(leftover))
    return Covering(ground, blocks)


def random_partition(rng, ground_size: int, max_parts: int = 4) -> Covering:
    ground = GroundSet(range(ground_size))
    parts = rng.randint(1, max_parts)
    assignment = [rng.randrange(parts) for _ in range(ground_size)]
    blocks = [
        [x for x in range(ground_size) if assignment[x] == b] for b in range(parts)
    ]
    return Covering(ground, [b for b in blocks if b])


def random_subset(rng, universe, allow_empty: bool = False) -> list:
    atoms = list(universe)
    size = rng.randint(0 if allow_empty else 1, len(atoms))
    return rng.sample(atoms, size)


def zd_ball_size_oracle(d: int, radius: int) -> int:
    """Lattice points with l1 norm <= radius, by dynamic programming."""
    table = [[0] * (radius + 1) for _ in range(d + 1)]
    table[0] = [1] * (radius + 1)
    for dim in range(1, d + 1):
        for r in range(radius + 1):
            total = table[dim - 1][r]  # coordinate 0
            for step in range(1, r + 1):  # coordinate +/- step
                total += 2 * table[dim - 1][r - step]
            table[dim][r] = total
    return table[d][radius]


def ball_reference(model, radius: int) -> tuple:
    """Ball of one radius by its own BFS, every product through ``multiply``."""
    seen = {model.identity}
    frontier = [model.identity]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in model.generators():
                h = model.multiply(g, s)
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return model.canon_set(seen)


def associativity_reference(names, table) -> str | None:
    """The error for the first triple (a, b, c) in lexicographic order with
    (a*b)*c != a*(b*c), or None when the table is associative."""
    n = len(names)
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    return f"table is not associative at ({names[a]},{names[b]},{names[c]})"
    return None


def finmetric_error_reference(points, dist) -> str | None:
    """The error ``FinMetric`` raises for a square matrix of exact rationals,
    by the direct ``Fraction`` comparisons, or None for a metric; a failing
    triangle is the first (i, j, k) in lexicographic order."""
    n = len(points)
    dist = [[Fraction(x) for x in row] for row in dist]
    for i in range(n):
        if dist[i][i] != 0:
            return f"nonzero diagonal at {points[i]!r}"
        for j in range(n):
            if dist[i][j] != dist[j][i]:
                return "distance matrix is not symmetric"
            if i != j and dist[i][j] <= 0:
                return "distinct points at non-positive distance"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if dist[i][k] > dist[i][j] + dist[j][k]:
                    return (
                        "triangle inequality fails at "
                        f"({points[i]!r},{points[j]!r},{points[k]!r})"
                    )
    return None


def adversary_exhaustive_reference(
    model, f_set, e_set, k: int, mode: str, cap: int = 4096
) -> Fraction:
    """Least min matching ratio over every coloring of the window with colors
    0..k, each pair recounted per color on the validating group law.

    Refuses a window with more than ``cap`` colorings.
    """
    f_canon = model.canon_set(f_set)
    pairs = required_pairs(model, model.canon_set(e_set), mode)
    window = set(f_canon)
    for g, h in pairs:
        window.update(model.translate(g, f_canon))
        window.update(model.translate(h, f_canon))
    atoms = sorted(window, key=model.sort_key)
    if (k + 1) ** len(atoms) > cap:
        raise ValueError(f"{(k + 1) ** len(atoms)} colorings exceed the cap {cap}")
    pair_indices = [
        (
            [atoms.index(x) for x in model.translate(g, f_canon)],
            [atoms.index(x) for x in model.translate(h, f_canon)],
        )
        for g, h in pairs
    ]
    best = len(f_canon)
    for colors in itertools.product(range(k + 1), repeat=len(atoms)):
        for left_idx, right_idx in pair_indices:
            left = [colors[i] for i in left_idx]
            right = [colors[j] for j in right_idx]
            best = min(best, sum(min(left.count(c), right.count(c)) for c in range(k + 1)))
    return Fraction(best, len(f_canon))


def min_pair_mu_reference(model, f_canon: tuple, pairs, cover: Covering) -> int:
    """Smallest mu(gF, hF) over the pairs from every translate built anew:
    ``mu_partition`` on a partition, ``mu`` otherwise; |F| with no pairs.
    Escapes raise as ``folner._translates`` raises them."""
    translates = folner._translates(model, f_canon, pairs, cover.ground)
    evaluate = mu_partition if cover.is_partition() else mu
    return min((evaluate(gf, hf, cover) for gf, hf in translates), default=len(f_canon))


def sweep_reference(model, radius: int, pairs, cover: Covering) -> list:
    """(ball, min pair mu) for each radius 0..radius, each ball rebuilt by
    ``ball_reference`` and recounted."""
    balls = (ball_reference(model, r) for r in range(radius + 1))
    return [(ball, min_pair_mu_reference(model, ball, pairs, cover)) for ball in balls]


def folner_search_reference(
    model, e_set, cover, theta, mode: str, strategy, stats: dict | None = None
) -> SearchResult:
    """``folner_search`` on a Covering, recounting every candidate in full.

    Same candidates, order, ``seen`` set, tie-breaks, evaluation count and
    restarts as the library; the ratio of each candidate is a ``Fraction``
    from ``min_pair_mu_reference``.  A restart tries prefixes of the shuffled
    pool, then the identity, then each single pool element.  ``stats``, when
    given, counts the moves that left the window (``escapes``) and the random
    restarts after the start (``restarts``).
    """
    stats = stats if stats is not None else {}
    stats.setdefault("escapes", 0)
    stats.setdefault("restarts", 0)
    theta = Fraction(theta)
    e_canon = model.canon_set(e_set)
    pairs = required_pairs(model, e_canon, mode)
    evaluations = 0
    best_f: tuple = ()
    best_ratio = Fraction(-1)
    key = model.sort_key

    def consider(f_canon) -> Fraction:
        nonlocal evaluations, best_f, best_ratio
        ratio = Fraction(min_pair_mu_reference(model, f_canon, pairs, cover), len(f_canon))
        evaluations += 1
        if ratio > best_ratio or (
            ratio == best_ratio and tuple(map(key, f_canon)) < tuple(map(key, best_f))
        ):
            best_f, best_ratio = f_canon, ratio
        return ratio

    def passed(f_canon, ratio) -> bool:
        return ratio * len(f_canon) >= theta_threshold(theta, len(f_canon))

    def passing(f_canon, ratio) -> SearchResult:
        cert = build_certificate(model, f_canon, e_canon, cover, theta, mode)
        return SearchResult("PASS", cert, f_canon, ratio, evaluations)

    def exhausted() -> SearchResult:
        cert = build_certificate(model, best_f, e_canon, cover, theta, mode)
        return SearchResult("EXHAUSTED", cert, best_f, best_ratio, evaluations)

    if isinstance(strategy, BallsStrategy):
        for f_canon in (ball_reference(model, r) for r in range(strategy.max_radius + 1)):
            ratio = consider(f_canon)
            if passed(f_canon, ratio):
                return passing(f_canon, ratio)
        return exhausted()

    assert isinstance(strategy, LocalSetStrategy)
    rng = random.Random(strategy.seed)
    gens = model.generators()

    def attempt(f_canon) -> Fraction | None:
        try:
            return consider(f_canon)
        except WindowEscape:
            stats["escapes"] += 1
            return None

    def random_start() -> tuple:
        pool = [x for x in model.ball(2) if x in cover.ground]
        rng.shuffle(pool)
        tries = [pool[:size] for size in range(min(4, len(pool)), 0, -1)]
        tries += [[model.identity]] + [[x] for x in pool]
        for elems in tries:
            cand = model.canon_set(elems)
            ratio = attempt(cand)
            if ratio is not None:
                return cand, ratio
        raise WindowEscape("no valid starting candidate inside the window")

    current = model.canon_set([model.identity])
    current_ratio = attempt(current)
    if current_ratio is None:
        current, current_ratio = random_start()
    if passed(current, current_ratio):
        return passing(current, current_ratio)
    while evaluations < strategy.budget:
        moves = []
        for x in current:
            for s in gens:
                y = model.multiply(x, s)
                if y not in current and y in cover.ground:
                    at = bisect.bisect_left(current, key(y), key=key)
                    moves.append(current[:at] + (y,) + current[at:])
        if len(current) > 1:
            for at in range(len(current)):
                moves.append(current[:at] + current[at + 1 :])
        seen = set()
        scored = []
        for cand in moves:
            if cand in seen:
                continue
            ratio = attempt(cand)
            if ratio is None:
                continue
            seen.add(cand)
            if passed(cand, ratio):
                return passing(cand, ratio)
            scored.append((ratio, cand))
            if evaluations >= strategy.budget:
                break
        improving = [s for s in scored if s[0] > current_ratio]
        if improving:
            current_ratio, current = min(improving, key=lambda s: (-s[0], tuple(map(key, s[1]))))
        else:
            stats["restarts"] += 1
            current, current_ratio = random_start()
            if passed(current, current_ratio):
                return passing(current, current_ratio)
    return exhausted()


def check_pair_reference(model, f_set: tuple, cover: Covering, pair, need: int) -> list:
    """Findings for one stored certificate pair, recomputed on the general
    route: the pair's whole covering graph, ``validate_witness`` on its edge
    set, and ``max_matching`` for the value."""
    gf = model.translate(pair.g, f_set)
    hf = model.translate(pair.h, f_set)
    for g, translate in ((pair.g, gf), (pair.h, hf)):
        if any(x not in cover.ground for x in translate):
            raise WindowEscape(f"translate {model.elem_str(g)}F escapes the window")
    graph = covering_graph(gf, hf, cover)
    label = f"({model.elem_str(pair.g)},{model.elem_str(pair.h)})"
    try:
        validate_witness(graph, pair.witness)
    except WitnessError as exc:
        return [Finding("witness-invalid", f"pair {label}: {exc}")]
    findings = []
    if len(pair.witness) != pair.value:
        findings.append(
            Finding(
                "witness-size",
                f"pair {label}: witness has {len(pair.witness)} pairs, "
                f"claimed {pair.value}",
            )
        )
    value, _ = max_matching(graph)
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


def right_translate_covering(model, u_set) -> Covering:
    """The covering of a finite group by the n right translates W*x of
    W = U^-1 U, one block per x."""
    w_set = {model.multiply(model.inverse(x), y) for x in u_set for y in u_set}
    blocks = [sorted(model.multiply(w, x) for w in w_set) for x in range(model.order)]
    return Covering(GroundSet(range(model.order)), blocks)


def perfect_net_reference(model, u_set) -> folner.PerfectNet:
    """``perfect_net`` with each translate gF matched to F on the covering
    graph of ``right_translate_covering``.

    V is the intersection of the conjugates of U, through the validating
    law; F comes from the library's set-cover routines, on the same branch
    ``DEFAULT_NET_CAP`` selects at call time.
    """
    n = model.order
    v_set = set(range(n))
    for g in range(n):
        ginv = model.inverse(g)
        v_set &= {model.multiply(model.multiply(ginv, x), g) for x in u_set}
    v_canon = model.canon_set(v_set)
    masks = [sum({1 << model.multiply(v, f) for v in v_canon}) for f in range(n)]
    minimal = n <= folner.DEFAULT_NET_CAP
    cover_of = folner._exact_min_cover if minimal else folner._greedy_cover
    f_canon = model.canon_set(cover_of(n, masks))
    cover = right_translate_covering(model, u_set)
    matchings = tuple(
        (g, mu_with_witness(f_canon, model.translate(g, f_canon), cover)[1])
        for g in range(n)
    )
    return folner.PerfectNet(v_canon, f_canon, matchings, minimal)


def embeddings_reference(a, c) -> tuple:
    """Every isometric map from a into c: each image tuple in lexicographic
    order, kept when all its ``Fraction`` distances agree with a's."""
    n = len(a)
    return tuple(
        Embedding(a, c, images)
        for images in itertools.product(range(len(c)), repeat=n)
        if all(c.d(images[i], images[j]) == a.d(i, j) for i in range(n) for j in range(n))
    )


def compose(inner: Embedding, outer: Embedding) -> Embedding:
    """Composite embedding; isometry is closed under composition."""
    if inner.target != outer.source:
        raise ValueError("embeddings do not chain")
    return Embedding(
        inner.source, outer.target, tuple(outer.images[i] for i in inner.images)
    )


def rho(alpha: Embedding, beta: Embedding) -> Fraction:
    """Sup distance between two embeddings with common source and target."""
    if alpha.source != beta.source or alpha.target != beta.target:
        raise ValueError("embeddings must share source and target")
    return max(alpha.target.d(i, j) for i, j in zip(alpha.images, beta.images))


def _ramsey_mu_reference(psi, alpha, beta, phi, eps) -> int:
    classes: dict = {}
    for emb, color in phi.items():
        classes.setdefault(color, []).append(emb)

    def near(delta) -> frozenset:
        return frozenset(
            color
            for color, members in classes.items()
            if any(rho(delta, member) < eps for member in members)
        )

    left = [near(compose(alpha, p)) for p in psi]
    right = [near(compose(beta, p)) for p in psi]
    m = len(psi)
    edges = frozenset((i, j) for i in range(m) for j in range(m) if left[i] & right[j])
    return max_matching(BipartiteGraph(tuple(range(m)), tuple(range(m)), edges))[0]


def ramsey_check_reference(
    a, b, c, k: int, eps, max_family: int = 4, family_budget: int = 2000
):
    """The family search on embedding objects, with its own budget counter.

    Same coloring order, family order and budget accounting as
    ``ramsey_condition_check``; no cap, since the tests keep it small.
    """
    eps = Fraction(eps)
    emb_ab, emb_ac, emb_bc = (embeddings_reference(x, y) for x, y in ((a, b), (a, c), (b, c)))
    if not emb_ab:
        return RamseyOutcome(True, True, eps, k, 0, (), None)
    witnesses = []
    checked = 0
    for vector in itertools.product(range(k + 1), repeat=len(emb_ac)):
        checked += 1
        phi = dict(zip(emb_ac, vector))
        found = None
        spent = 0
        for size in range(1, max_family + 1):
            if found or not emb_bc:
                break
            for combo in itertools.combinations_with_replacement(range(len(emb_bc)), size):
                spent += 1
                if spent > family_budget:
                    break
                psi = [emb_bc[i] for i in combo]
                if all(
                    _ramsey_mu_reference(psi, alpha, beta, phi, eps) >= (1 - eps) * size
                    for alpha in emb_ab
                    for beta in emb_ab
                ):
                    found = combo
                    break
            if spent > family_budget:
                break
        if found is None:
            return RamseyOutcome(False, False, eps, k, checked, tuple(witnesses), vector)
        witnesses.append((vector, found))
    return RamseyOutcome(True, False, eps, k, checked, tuple(witnesses), None)
