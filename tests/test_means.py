import random
from fractions import Fraction

import pytest

from matchcover.cover import Covering, GroundSet
from matchcover.groups import FreeGroup, IntegerLattice, cyclic_group
from matchcover.means import (
    ConvexCombination,
    convolve,
    dirac,
    rationalize,
    uniform,
)

from lemmas import (
    DomainEscape,
    FiniteFunction,
    condition6_gap,
    function_modulus,
    modulus_check,
    push_function,
)

Z = IntegerLattice(1)
F2 = FreeGroup(2)


def rand_mean(rng, model, pool, max_support=4):
    support = rng.sample(pool, rng.randint(1, max_support))
    raw = [rng.randint(1, 9) for _ in support]
    total = sum(raw)
    return ConvexCombination(
        model, {g: Fraction(r, total) for g, r in zip(support, raw)}
    )


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            ConvexCombination(Z, {(0,): Fraction(1, 2)})

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ConvexCombination(Z, {(0,): Fraction(3, 2), (1,): Fraction(-1, 2)})

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            ConvexCombination(Z, {(0,): 0.5, (1,): 0.5})

    def test_bools_rejected(self):
        with pytest.raises(TypeError, match="bools are not accepted"):
            ConvexCombination(Z, {(0,): True})

    def test_dirac_equals_uniform_singleton(self):
        assert dirac(Z, (3,)) == uniform(Z, [(3,)])

    def test_uniform_weights(self):
        nu = uniform(Z, [(0,), (1,)])
        assert dict(nu.items()) == {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}

    def test_uniform_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform(Z, [])


class TestConvolve:
    def test_dirac_homomorphism(self):
        rng = random.Random(1)
        for _ in range(30):
            g = (rng.randint(-5, 5),)
            h = (rng.randint(-5, 5),)
            assert convolve(dirac(Z, g), dirac(Z, h)) == dirac(Z, Z.multiply(g, h))

    def test_identity_element(self):
        nu = uniform(Z, [(-1,), (2,)])
        assert convolve(dirac(Z, (0,)), nu) == nu
        assert convolve(nu, dirac(Z, (0,))) == nu

    def test_random_walk_square(self):
        step = uniform(Z, [(-1,), (1,)])
        out = convolve(step, step)
        assert out.items() == (
            ((-2,), Fraction(1, 4)),
            ((0,), Fraction(1, 2)),
            ((2,), Fraction(1, 4)),
        )

    def test_support_containment_on_free_group(self):
        rng = random.Random(2)
        pool = list(F2.ball(2))
        for _ in range(30):
            a = rand_mean(rng, F2, pool)
            b = rand_mean(rng, F2, pool)
            product_set = {
                F2.multiply(x, y) for x in a.support for y in b.support
            }
            assert set(convolve(a, b).support) <= product_set

    def test_mass_exactly_one(self):
        rng = random.Random(3)
        pool = [(i,) for i in range(-4, 5)]
        for _ in range(30):
            out = convolve(rand_mean(rng, Z, pool), rand_mean(rng, Z, pool))
            assert sum(w for _, w in out.items()) == 1

    def test_associativity(self):
        rng = random.Random(4)
        pool_z = [(i,) for i in range(-3, 4)]
        pool_f = list(F2.ball(1))
        for model, pool in ((Z, pool_z), (F2, pool_f)):
            for _ in range(40):
                a = rand_mean(rng, model, pool)
                b = rand_mean(rng, model, pool)
                c = rand_mean(rng, model, pool)
                assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValueError):
            convolve(dirac(Z, (0,)), dirac(F2, ()))


class TestPush:
    def window_fn(self):
        return FiniteFunction(
            Z, {(i,): Fraction(i % 2) for i in range(-2, 6)}
        )

    def test_dirac_push_is_evaluation(self):
        f = self.window_fn()
        assert push_function(f, dirac(Z, (2,)), (1,)) == f((3,))

    def test_uniform_push_is_average(self):
        f = self.window_fn()
        nu = uniform(Z, [(0,), (1,), (2,)])
        expected = (f((1,)) + f((2,)) + f((3,))) / 3
        assert push_function(f, nu, (1,)) == expected

    def test_push_under_convolution_is_iterated_push(self):
        f = FiniteFunction(Z, {(i,): Fraction(i * i, 3) for i in range(-6, 7)})
        rng = random.Random(5)
        pool = [(i,) for i in range(-2, 3)]
        for _ in range(20):
            a = rand_mean(rng, Z, pool, max_support=3)
            b = rand_mean(rng, Z, pool, max_support=3)
            g = (rng.randint(-2, 2),)
            lhs = push_function(f, convolve(a, b), g)
            rhs = sum(
                wa * push_function(f, b, Z.multiply(g, x)) for x, wa in a.items()
            )
            assert lhs == rhs

    def test_domain_escape_reports_product(self):
        f = FiniteFunction(Z, {(0,): Fraction(0)})
        with pytest.raises(DomainEscape, match="1"):
            push_function(f, dirac(Z, (1,)), (0,))


class TestModulus:
    def test_constant_function(self):
        f = FiniteFunction(Z, {(i,): Fraction(7) for i in range(4)})
        cover = Covering(GroundSet([(i,) for i in range(4)]), [[(0,), (1,)], [(2,), (3,)]])
        assert modulus_check(f, cover, 0)

    def test_singleton_covering(self):
        f = FiniteFunction(Z, {(i,): Fraction(i) for i in range(4)})
        cover = Covering(GroundSet([(i,) for i in range(4)]), [[(i,)] for i in range(4)])
        assert modulus_check(f, cover, 0)

    def test_block_crossing_indicator(self):
        atoms = [(i,) for i in range(4)]
        f = FiniteFunction(Z, {(0,): 1, (1,): 0, (2,): 0, (3,): 0})
        cover = Covering(GroundSet(atoms), [[(0,), (1,)], [(2,), (3,)]])
        assert not modulus_check(f, cover, Fraction(1, 2))
        assert modulus_check(f, cover, 1)

    def test_ground_must_match_domain(self):
        f = FiniteFunction(Z, {(0,): 1})
        cover = Covering(GroundSet([(0,), (1,)]), [[(0,), (1,)]])
        with pytest.raises(ValueError, match="domain"):
            modulus_check(f, cover, 1)

    def test_push_preserves_coset_modulus(self):
        # right-coset blocks: translation by the support never leaves a block pair
        g8 = cyclic_group(8)
        blocks = [[0, 2, 4, 6], [1, 3, 5, 7]]
        cover = Covering(GroundSet(range(8)), blocks)
        rng = random.Random(6)
        for _ in range(25):
            f = FiniteFunction(
                g8, {x: Fraction(rng.randint(0, 6), 3) for x in range(8)}
            )
            nu = rand_mean(rng, g8, list(range(8)))
            eps = function_modulus(f, cover)
            pushed = FiniteFunction(
                g8, {x: push_function(f, nu, x) for x in range(8)}
            )
            assert function_modulus(pushed, cover) <= eps


class TestConditionGap:
    def test_single_translate(self):
        f = FiniteFunction(Z, {(i,): Fraction(i) for i in range(-3, 4)})
        assert condition6_gap(f, dirac(Z, (0,)), [(1,)]) == 0

    def test_constant_function(self):
        f = FiniteFunction(Z, {(i,): Fraction(5) for i in range(-3, 4)})
        nu = uniform(Z, [(0,), (1,)])
        assert condition6_gap(f, nu, [(-1,), (0,), (1,)]) == 0

    def test_even_indicator_balanced_window(self):
        f = FiniteFunction(Z, {(i,): Fraction(1 - i % 2) for i in range(0, 4)})
        nu = uniform(Z, [(0,), (1,)])
        assert condition6_gap(f, nu, [(0,), (1,)]) == 0


class TestRationalize:
    def test_exact_form_is_fixed_point(self):
        # theta = 1/2 with two atoms forces n = 8; eighths reproduce exactly
        alpha = {"a": Fraction(3, 8), "b": Fraction(5, 8)}
        beta, n, gamma = rationalize(alpha, Fraction(1, 2))
        assert n == 8 and beta == alpha and gamma == {"a": 3, "b": 5}

    def test_third_split(self):
        alpha = {"a": Fraction(1, 3), "b": Fraction(2, 3)}
        beta, n, gamma = rationalize(alpha, Fraction(1, 100))
        assert sum(abs(alpha[k] - beta[k]) for k in alpha) <= Fraction(1, 100)
        assert sum(gamma.values()) == n
        assert all(isinstance(c, int) and c >= 1 for c in gamma.values())

    def test_loose_theta_always_admissible(self):
        alpha = {"a": Fraction(99, 100), "b": Fraction(1, 100)}
        beta, n, gamma = rationalize(alpha, 2)
        assert sum(abs(alpha[k] - beta[k]) for k in alpha) <= 2
        assert set(beta) == set(alpha)

    def test_random_contract(self):
        rng = random.Random(7)
        for _ in range(200):
            m = rng.randint(1, 8)
            raw = [rng.randint(1, 50) for _ in range(m)]
            total = sum(raw)
            alpha = {i: Fraction(r, total) for i, r in enumerate(raw)}
            theta = Fraction(rng.randint(1, 500), 1000)
            beta, n, gamma = rationalize(alpha, theta)
            assert set(beta) == set(alpha)
            assert sum(gamma.values()) == n
            assert all(c >= 1 for c in gamma.values())
            assert all(beta[k] == Fraction(gamma[k], n) for k in beta)
            assert sum(abs(alpha[k] - beta[k]) for k in alpha) <= theta

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            rationalize({"a": Fraction(1, 2)}, Fraction(1, 10))
        with pytest.raises(ValueError):
            rationalize({"a": Fraction(1)}, 0)
