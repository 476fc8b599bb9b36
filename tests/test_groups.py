import itertools
import operator
import random
import time

import pytest

from matchcover import groups
from matchcover.groups import (
    FiniteTableGroup,
    FreeGroup,
    GroupError,
    IntegerLattice,
    cyclic_group,
    group_from_json,
    symmetric_group,
)

from lemmas import FiniteAction, rotation_action
from oracles import associativity_reference, ball_reference, zd_ball_size_oracle


F2 = FreeGroup(2)
Z2 = IntegerLattice(2)


def random_word(rng, rank, max_len):
    model = FreeGroup(rank)
    w = model.identity
    for _ in range(rng.randint(0, max_len)):
        w = model.multiply(w, rng.choice(model.generators()))
    return w


class TestMultiply:
    def test_identity_law(self):
        assert Z2.multiply(Z2.identity, (3, -1)) == (3, -1)
        w = F2.parse_elem("abA")
        assert F2.multiply(F2.identity, w) == w

    def test_free_reduction(self):
        assert F2.multiply((1,), (-1,)) == ()
        assert F2.multiply(F2.parse_elem("ab"), F2.parse_elem("Ba")) == (1, 1)

    def test_lattice_addition(self):
        assert Z2.multiply((1, 0), (0, 1)) == (1, 1)

    def test_mixed_groups_rejected(self):
        with pytest.raises(GroupError):
            Z2.multiply((1, 0), (1,))
        with pytest.raises(GroupError):
            F2.multiply((1,), (1, 0))

    def test_public_api_rejects_mixed_groups(self):
        # the search loops run on the unchecked product; the public API
        # must keep checking every element it is given
        with pytest.raises(GroupError):
            Z2.translate((1, 0), [(0, 0), (1,)])
        with pytest.raises(GroupError):
            Z2.translate((1,), [(0, 0)])
        with pytest.raises(GroupError):
            F2.translate((1,), [(1, 0)])
        with pytest.raises(GroupError):
            Z2.canon_set([(0, 0), (1,)])
        with pytest.raises(GroupError):
            F2.canon_set([(1,), (0, 1)])
        with pytest.raises(GroupError):
            F2.canon_set([(1, -1)])
        with pytest.raises(GroupError):
            Z2.inverse((1,))
        with pytest.raises(GroupError):
            F2.inverse((1, 0))
        s3 = symmetric_group(3)
        with pytest.raises(GroupError):
            s3.translate(1, [0, 6])
        with pytest.raises(GroupError):
            s3.canon_set([0, (1,)])
        with pytest.raises(GroupError):
            s3.inverse(6)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_lattice_law_is_componentwise_addition(self, d):
        model = IntegerLattice(d)
        rng = random.Random(d)
        for _ in range(500):
            g = tuple(rng.randint(-10**6, 10**6) for _ in range(d))
            h = tuple(rng.randint(-50, 50) for _ in range(d))
            want = tuple(map(operator.add, g, h))
            assert model.unchecked_multiply(g, h) == want
            assert model.multiply(g, h) == want and type(model.multiply(g, h)) is tuple
        # large coordinates stay exact
        big = (10**30,) * d
        assert model.unchecked_multiply(big, big) == (2 * 10**30,) * d

    def test_unchecked_product_is_the_group_law(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_word(rng, 2, 8)
            h = random_word(rng, 2, 8)
            assert F2.unchecked_multiply(g, h) == F2.multiply(g, h)
        assert Z2.unchecked_multiply((1, -2), (3, 5)) == Z2.multiply((1, -2), (3, 5))
        s3 = symmetric_group(3)
        for g in range(s3.order):
            for h in range(s3.order):
                assert s3.unchecked_multiply(g, h) == s3.multiply(g, h)

    def test_associativity_on_random_words(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_word(rng, 2, 12)
            h = random_word(rng, 2, 12)
            k = random_word(rng, 2, 12)
            assert F2.multiply(F2.multiply(g, h), k) == F2.multiply(g, F2.multiply(h, k))

    def test_inverse_law(self):
        rng = random.Random(2)
        for _ in range(50):
            g = random_word(rng, 3, 10)
            model = FreeGroup(3)
            assert model.multiply(g, model.inverse(g)) == ()


class TestBall:
    def test_radius_zero(self):
        assert F2.ball(0) == ((),)
        assert Z2.ball(0) == ((0, 0),)

    def test_f2_radius_two(self):
        assert len(F2.ball(2)) == 17

    def test_z2_radius_two(self):
        assert len(Z2.ball(2)) == 13

    def test_free_closed_form(self):
        for rank in (1, 2, 3):
            model = FreeGroup(rank)
            for r in range(0, 4):
                if rank == 1:
                    expected = 2 * r + 1
                else:
                    k = 2 * rank
                    expected = 1 + k * ((k - 1) ** r - 1) // (k - 2)
                assert len(model.ball(r)) == expected

    def test_lattice_against_dp_oracle(self):
        for d in (1, 2, 3):
            model = IntegerLattice(d)
            for r in range(0, 5):
                assert len(model.ball(r)) == zd_ball_size_oracle(d, r)

    def test_single_bfs_matches_reference_at_every_radius(self):
        models = [
            (IntegerLattice(1), 10),
            (IntegerLattice(2), 7),
            (IntegerLattice(3), 5),
            (F2, 4),
            (symmetric_group(4), 3),
        ]
        for model, radius in models:
            spheres = [[g for _, g in layer] for layer in model.ball_layers(radius)]
            assert len(spheres) == radius + 1
            union: list = []
            for r, sphere in enumerate(spheres):
                union.extend(sphere)
                ball = tuple(sorted(union, key=model.sort_key))
                assert ball == ball_reference(model, r), (model.describe(), r)
                assert model.ball(r) == ball

    @pytest.mark.parametrize(
        "model, radius",
        [(IntegerLattice(2), 9), (IntegerLattice(3), 5), (F2, 5), (symmetric_group(4), 3)],
        ids=["zd2", "zd3", "free2", "s4"],
    )
    def test_layers_are_sorted_merges_keyed_once(self, model, radius, monkeypatch):
        """Each layer is the sorted sphere of the reference balls, the new
        elements of the ball of radius r, each with its sort key.  The walk
        keys each element once, and so does ``ball``, which sorts the
        spheres together."""
        keyed = []
        sort_key = type(model).sort_key
        monkeypatch.setattr(
            type(model), "sort_key", lambda self, g: keyed.append(g) or sort_key(self, g)
        )
        keyed_layers = list(model.ball_layers(radius))
        walk_keyed = keyed[:]
        keyed.clear()
        ball = model.ball(radius)
        monkeypatch.undo()
        previous: set = set()
        for r, layer in enumerate(keyed_layers):
            want = ball_reference(model, r)
            new = sorted((g for g in want if g not in previous), key=model.sort_key)
            assert layer == [(model.sort_key(g), g) for g in new], (model.describe(), r)
            previous = set(want)
        assert ball == want
        assert sorted(walk_keyed, key=model.sort_key) == list(want)
        assert sorted(keyed, key=model.sort_key) == list(want)

    def test_balls_cap_and_negative_radius(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_LIMIT", 100)
        with pytest.raises(GroupError, match="cap"):
            list(F2.ball_layers(8))
        with pytest.raises(ValueError):
            F2.ball(-1)

    def test_ball_cap(self, monkeypatch):
        monkeypatch.setattr(groups, "DEFAULT_BALL_LIMIT", 100)
        with pytest.raises(GroupError, match="cap"):
            F2.ball(8)

    def test_sorted_output(self):
        b = F2.ball(2)
        assert list(b) == sorted(b, key=F2.sort_key)

    @pytest.mark.parametrize(
        "model", [IntegerLattice(1), Z2, IntegerLattice(3), F2, symmetric_group(4)],
        ids=["zd1", "zd2", "zd3", "free2", "s4"],
    )
    def test_cap_and_negative_radius_on_every_route(self, model, monkeypatch):
        # the cap counts the ball, the identity included, on the walk and on ball()
        size = len(model.ball(3))
        monkeypatch.setattr(groups, "DEFAULT_BALL_LIMIT", size - 1)
        for run in (lambda r: list(model.ball_layers(r)), model.ball):
            with pytest.raises(GroupError) as caught:
                run(3)
            assert str(caught.value) == f"ball size exceeds cap {size - 1}"
            with pytest.raises(ValueError) as caught:
                run(-1)
            assert str(caught.value) == "radius must be non-negative"
        monkeypatch.setattr(groups, "DEFAULT_BALL_LIMIT", size)
        assert len(model.ball(3)) == size

    def test_z2_radius_300_is_fast(self):
        # one BFS and one sort, about 0.25 s on a 2-core host; re-sorting
        # the whole ball at every radius took about 4.9 s there
        start = time.perf_counter()
        ball = Z2.ball(300)
        elapsed = time.perf_counter() - start
        assert len(ball) == 2 * 300 * 300 + 2 * 300 + 1
        assert ball[0] == (-300, 0) and ball[-1] == (300, 0)
        assert elapsed < 2.0, f"Z^2 ball(300) took {elapsed:.2f} s"


class TestTranslate:
    def test_identity_translate(self):
        f = Z2.canon_set([(0, 0), (1, 1)])
        assert Z2.translate(Z2.identity, f) == f

    def test_interval_shift(self):
        z = IntegerLattice(1)
        f = [(i,) for i in range(10)]
        assert z.translate((1,), f) == tuple((i,) for i in range(1, 11))

    def test_free_translate_is_injective(self):
        b2 = F2.ball(2)
        image = F2.translate((1,), b2)
        assert len(image) == 17

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(40):
            f = F2.canon_set(random_word(rng, 2, 6) for _ in range(rng.randint(1, 6)))
            g = random_word(rng, 2, 5)
            assert F2.translate(F2.inverse(g), F2.translate(g, f)) == f


class TestFiniteTable:
    def test_cyclic_is_valid(self):
        g = cyclic_group(6)
        assert g.order == 6
        assert g.multiply(4, 5) == 3
        assert g.inverse(2) == 4

    def test_symmetric_group_order(self):
        s3 = symmetric_group(3)
        assert s3.order == 6
        e = s3.identity
        assert all(s3.multiply(x, s3.inverse(x)) == e for x in range(s3.order))

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, True], [1, 0]], "table entry must be an integer, not True"),
            ([[0, 1.0], [1, 0]], "table entry must be an integer, not 1.0"),
            # the type check covers the whole table before the range check
            ([[0, 5], [1, "0"]], "table entry must be an integer, not '0'"),
            ([[0, 1], "ab"], "table entry must be an integer, not 'a'"),
            ([[0, 1], [1, 2]], "table entry 2 out of range"),
            ([[0, 7], [-1, 0]], "table entry 7 out of range"),
            ([[0, 1], [-1, 0]], "table entry -1 out of range"),
        ],
        ids=["bool", "float", "str-after-range", "str-row", "high", "first-in-order", "negative"],
    )
    def test_malformed_entries_keep_their_messages(self, table, message):
        """The whole table is checked in one pass over its types and one over
        its range; a failing table names the same first entry as a check
        entry by entry."""
        with pytest.raises(GroupError) as got:
            FiniteTableGroup(["e", "a"], table)
        assert str(got.value) == message

    def test_non_associative_rejected(self):
        # 2-element table with a broken product
        with pytest.raises(GroupError):
            FiniteTableGroup(["e", "a"], [[0, 1], [1, 1]])

    def test_no_identity_rejected(self):
        with pytest.raises(GroupError, match="identity"):
            FiniteTableGroup(["a", "b"], [[0, 0], [0, 0]])

    def test_rotation_table_rejected_when_tampered(self):
        g = cyclic_group(4)
        rows = [list(r) for r in g.table]
        rows[1][2] = 0  # break 1+2=3
        with pytest.raises(GroupError):
            FiniteTableGroup(g.names, rows)

    def test_light_test_agrees_with_the_full_scan(self):
        rng = random.Random(23)
        bases = [cyclic_group(n) for n in range(3, 10)] + [symmetric_group(3), symmetric_group(4)]
        rejected = 0
        for trial in range(300):
            base = rng.choice(bases)
            rows = [list(r) for r in base.table]
            e = base.identity
            if trial % 10:  # one entry changed, identity and inverses kept
                a, b = rng.choice(
                    [(a, b) for a in range(base.order) for b in range(base.order)
                     if e not in (a, b, rows[a][b])]
                )
                rows[a][b] = rng.choice([x for x in range(base.order) if x not in (e, rows[a][b])])
            want = associativity_reference(base.names, rows)
            try:
                FiniteTableGroup(base.names, rows)
            except GroupError as exc:
                rejected += 1
                assert str(exc) == want
            else:
                assert want is None
        assert rejected == 270

    def test_light_test_checks_every_generator(self):
        # Z/2 x (a non-associative loop of order 5), element (g, l) at 2*l + g:
        # the first generator (1, e) passes Light's check, the second fails
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        names = [f"{g}{l}" for l in range(5) for g in range(2)]
        rows = [[2 * loop[l][m] + (g + h) % 2 for m in range(5) for h in range(2)]
                for l in range(5) for g in range(2)]
        want = associativity_reference(names, rows)
        assert want is not None
        with pytest.raises(GroupError) as exc:
            FiniteTableGroup(names, rows)
        assert str(exc.value) == want

    def test_s6_builds_from_its_table(self):
        perms = sorted(itertools.permutations(range(6)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
        start = time.perf_counter()
        s6 = FiniteTableGroup(["".join(map(str, p)) for p in perms], table)
        assert time.perf_counter() - start < 5
        assert s6.order == 720 and s6.identity == 0
        assert all(s6.multiply(x, s6.inverse(x)) == 0 for x in range(s6.order))

    def test_json_round_trip(self):
        g = symmetric_group(3)
        again = group_from_json(g.describe())
        assert again.describe() == g.describe()


class TestElementCodecs:
    def test_zd_round_trip(self):
        assert Z2.parse_elem(Z2.elem_str((4, -7))) == (4, -7)

    def test_free_round_trip(self):
        for s in ("1", "a", "aBa", "Abba"):
            assert F2.elem_str(F2.parse_elem(s)) == s

    def test_free_rejects_unknown_letter(self):
        with pytest.raises(GroupError):
            F2.parse_elem("xyz")

    def test_table_by_name(self):
        g = cyclic_group(3)
        assert g.parse_elem("2") == 2
        assert g.elem_str(1) == "1"

    @pytest.mark.parametrize("value", [0, None, [], {}, 1.5, True, ("a",)])
    def test_parse_rejects_non_strings(self, value):
        for model in (Z2, F2, cyclic_group(3)):
            with pytest.raises(GroupError, match="element must be a string"):
                model.parse_elem(value)

    @pytest.mark.parametrize(
        "value", ["+0", "0_0", " 0", "\u0660", "00", "-0", "1,-0", "1, 2", "", "1,", "0x1"]
    )
    def test_zd_accepts_only_canonical_spellings(self, value):
        # each coordinate is written as str(int) writes it, and nothing else
        model = Z2 if "," in value else IntegerLattice(1)
        with pytest.raises(GroupError, match="bad Z"):
            model.parse_elem(value)

    def test_free_rejects_empty_string(self):
        # the identity is written "1"; "" is no spelling of it
        with pytest.raises(GroupError):
            F2.parse_elem("")

    @pytest.mark.parametrize(
        "model, value, message",
        [
            (F2, "abx", "bad letter 'x' in word string 'abx'"),
            (F2, "a1", "bad letter '1' in word string 'a1'"),
            (F2, "a b", "bad letter ' ' in word string 'a b'"),
            (F2, "abc", "bad letter 'c' in word string 'abc'"),
            (F2, "aC", "bad letter 'C' in word string 'aC'"),
            (FreeGroup(1), "ab", "bad letter 'b' in word string 'ab'"),
            # the Kelvin sign lowers to "k" but is no spelling of K
            (FreeGroup(11), "\u212a", "bad letter '\u212a' in word string '\u212a'"),
            (F2, "abBa", "word not freely reduced: (1, 2, -2, 1)"),
            (F2, "Aa", "word not freely reduced: (-1, 1)"),
            (F2, "", "empty word string (the identity is written 1)"),
            (F2, ("a",), "element must be a string: ('a',)"),
            (Z2, "1,2,3", "not a Z^2 element: (1, 2, 3)"),
            (Z2, "5", "not a Z^2 element: (5,)"),
            (IntegerLattice(3), "1,-2", "not a Z^3 element: (1, -2)"),
            (Z2, "1,,2", "bad Z^2 element string: '1,,2'"),
            (Z2, "a", "bad Z^2 element string: 'a'"),
            (Z2, (1, 2), "element must be a string: (1, 2)"),
        ],
    )
    def test_rejected_spellings_keep_their_messages(self, model, value, message):
        with pytest.raises(GroupError) as caught:
            model.parse_elem(value)
        assert str(caught.value) == message

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bulk_parse_is_the_per_element_parse(self, d):
        model = IntegerLattice(d)
        rng = random.Random(100 + d)
        for size in (0, 1, 2, 50, 400):
            spread = rng.choice([1, 9, 10**12])
            elems = [tuple(rng.randint(-spread, spread) for _ in range(d)) for _ in range(size)]
            strings = [model.elem_str(g) for g in elems]
            parsed = model.parse_elems(strings)
            assert parsed == [model.parse_elem(s) for s in strings] == elems
            assert all(type(g) is tuple and len(g) == d for g in parsed)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize(
        "bad",
        [" 1", "+1", "01", "-0", "1_0", "1;2", "\u0661", "", "arity-", "arity+", 1, None, ["1"]],
    )
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_bulk_parse_names_the_first_bad_element(self, d, bad, at):
        # a bad coordinate, too few or too many commas, or a non-string, at
        # the start, inside or at the end of the list: parse_elem's error
        model = IntegerLattice(d)
        if bad == "arity-":
            bad = ",".join(["1"] * (d - 1)) if d > 1 else "1,1"
        elif bad == "arity+":
            bad = ",".join(["1"] * (d + 1))
        elif isinstance(bad, str):
            bad = ",".join(["0"] * (d - 1) + [bad])
        strings = [model.elem_str((i,) * d) for i in range(7)]
        strings.insert(at, bad)
        with pytest.raises(GroupError) as want:
            model.parse_elem(bad)
        with pytest.raises(GroupError) as got:
            model.parse_elems(strings)
        assert str(got.value) == str(want.value)

    def test_bulk_parse_counts_commas_per_element(self):
        # the joined text is the same as that of valid elements; only each
        # element's own arity shows the fault
        for strings, message in [
            (["1,2,3", "4"], "not a Z^2 element: (1, 2, 3)"),
            (["1", "2,3,4"], "not a Z^2 element: (1,)"),
        ]:
            with pytest.raises(GroupError) as caught:
                Z2.parse_elems(strings)
            assert str(caught.value) == message

    @pytest.mark.parametrize("model", [F2, cyclic_group(3)], ids=["free2", "c3"])
    def test_parse_elems_elsewhere_is_parse_elem_in_order(self, model):
        strings = [model.elem_str(g) for g in model.ball(2)][::-1]
        assert model.parse_elems(strings) == [model.parse_elem(s) for s in strings]
        with pytest.raises(GroupError, match="element must be a string"):
            model.parse_elems([*strings, 0])

    @pytest.mark.parametrize("rank", [1, 2, 5, 26])
    def test_free_parses_every_letter_of_its_rank(self, rank):
        model = FreeGroup(rank)
        letters = [x for i in range(1, rank + 1) for x in (i, -i)]
        for x, y in itertools.product(letters, repeat=2):
            spelling = model.elem_str((x,)) + model.elem_str((y,))
            if x == -y:
                with pytest.raises(GroupError, match="not freely reduced"):
                    model.parse_elem(spelling)
            else:
                assert model.parse_elem(spelling) == (x, y)

    @pytest.mark.parametrize("value", ["zd1", [1], None, 2])
    def test_group_from_json_rejects_non_objects(self, value):
        with pytest.raises(GroupError, match="group must be a JSON object"):
            group_from_json(value)


class TestFiniteAction:
    def test_rotation_basics(self):
        act = rotation_action(6)
        assert act.act(act.group.identity, ["0", "3"]) == ("0", "3")
        assert act.act(1, ["0", "1"]) == ("1", "2")

    def test_bijection_preserves_whole_set(self):
        act = rotation_action(5)
        pts = act.points
        for g in range(act.group.order):
            assert act.act(g, pts) == pts

    def test_cardinality_preserved(self):
        act = rotation_action(7)
        rng = random.Random(4)
        for _ in range(20):
            subset = rng.sample(act.points, rng.randint(1, 7))
            g = rng.randrange(7)
            assert len(act.act(g, subset)) == len(subset)

    def test_identity_row_validated(self):
        g = cyclic_group(2)
        with pytest.raises(GroupError, match="identity"):
            FiniteAction(g, ["p", "q"], [[1, 0], [0, 1]])

    def test_homomorphism_validated(self):
        g = cyclic_group(3)
        bad = [[0, 1, 2], [1, 2, 0], [1, 2, 0]]  # element 2 copies element 1
        with pytest.raises(GroupError, match="respect"):
            FiniteAction(g, ["p", "q", "r"], bad)

    def test_unknown_point(self):
        act = rotation_action(3)
        with pytest.raises(GroupError, match="point"):
            act.act(1, ["9"])
