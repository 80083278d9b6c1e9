"""Hodge-integral engine: Newton conversion and the boundary recursion."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from pshodge.hodge import (HodgeMonomial, _reduce, bell_polynomial, bernoulli,
                           ch_in_lambda, hodge_integral, lambda_to_ch)
from pshodge.multiset import accumulate, compositions, multiply
from pshodge.selfcheck import mumford_relation_terms
from pshodge.wk import is_stable, wk_integral


def bell_series_oracle(k, xs):
    """B_k(x_1, ..., x_k) read off the generating series
    exp(sum_j x_j t^j / j!), truncated after t^k, in Fractions.

    Independent of the recursion used in the package.
    """
    arg = [Fraction(0)] + [Fraction(xs[j - 1], factorial(j))
                           for j in range(1, k + 1)]
    series = [Fraction(1)] + [Fraction(0)] * k
    power = list(series)  # arg^m, coefficient of t^i at index i
    for m in range(1, k + 1):
        power = [sum((power[i] * arg[d - i] for i in range(d)), Fraction(0))
                 for d in range(k + 1)]
        series = [s + p / factorial(m) for s, p in zip(series, power)]
    return factorial(k) * series[k]


def random_rationals(rng, count):
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(count)]


def evaluate(poly, values):
    """Value of a dict polynomial with symbol i set to ``values[i]``."""
    total = Fraction(0)
    for key, c in poly.items():
        for i in key:
            c *= values[i]
        total += c
    return total


def elementary(roots, j):
    """e_j of the roots, read off prod (1 + r t)."""
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a + r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[j] if j < len(coeffs) else Fraction(0)


def chern_character(roots, l):
    """ch_l = p_l(roots) / l!."""
    return sum((r ** l for r in roots), Fraction(0)) / factorial(l)


class TestBell:
    def test_b0_and_b1(self):
        x = random_rationals(random.Random(1), 3)
        assert bell_polynomial(0, x) == 1
        assert bell_polynomial(1, x) == x[0]

    def test_b2_against_series_oracle(self):
        x = random_rationals(random.Random(2), 2)
        b2 = bell_polynomial(2, x)
        assert b2 == x[0] * x[0] + x[1]
        assert b2 == bell_series_oracle(2, x)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_recursion_matches_series(self, k):
        rng = random.Random(k)
        for _ in range(5):
            x = random_rationals(rng, k + 1)
            assert bell_polynomial(k, x) == bell_series_oracle(k, x)

    def test_scalar_ring(self):
        assert bell_polynomial(3, [1, 1, 1]) == 5  # Bell number B_3


class TestConversions:
    def test_lambda0_and_lambda1(self):
        assert lambda_to_ch(0, 3) == {(): 1}
        assert lambda_to_ch(1, 3) == {(1,): 1}

    def test_lambda2_newton(self):
        # e_2 = (p_1^2 - p_2)/2 with p_1 = ch_1, p_2 = 2 ch_2
        assert lambda_to_ch(2, 4) == {(1, 1): Fraction(1, 2), (2,): -1}

    def test_rank_bound(self):
        assert lambda_to_ch(3, 2) == {}

    @pytest.mark.parametrize("j", range(1, 7))
    def test_round_trip(self, j):
        """Substituting ch_l = ch_in_lambda(l) into lambda_to_ch(j, 6)
        gives back lambda_j."""
        back = {}
        for key, c in lambda_to_ch(j, 6).items():
            term = {(): c}
            for l in key:
                term = multiply(term, ch_in_lambda(l))
            accumulate(back, term.items())
        assert back == {(j,): 1}

    def test_ch_in_lambda_small(self):
        assert ch_in_lambda(1) == {(1,): 1}
        assert ch_in_lambda(2) == {(1, 1): Fraction(1, 2), (2,): -1}

    @pytest.mark.parametrize("seed", range(6))
    def test_lambda_to_ch_at_chern_roots(self, seed):
        """Differential oracle: at random rational Chern roots of a rank-g
        bundle, lambda_to_ch(j, g) evaluated at ch_l = p_l / l! is e_j."""
        rng = random.Random(seed)
        g = rng.randint(1, 8)
        roots = random_rationals(rng, g)
        ch = {l: chern_character(roots, l) for l in range(1, 9)}
        for j in range(0, 9):
            assert evaluate(lambda_to_ch(j, g), ch) == elementary(roots, j)

    @pytest.mark.parametrize("seed", range(6))
    def test_ch_in_lambda_at_chern_roots(self, seed):
        """Differential oracle: ch_in_lambda(l) evaluated at
        lambda_i = e_i(roots) is p_l(roots) / l!, for any rank."""
        rng = random.Random(seed)
        roots = random_rationals(rng, rng.randint(1, 8))
        lam = {i: elementary(roots, i) for i in range(1, 9)}
        for l in range(1, 9):
            assert evaluate(ch_in_lambda(l), lam) == chern_character(roots, l)

    def test_oracle_detects_one_sign_flip(self):
        roots = random_rationals(random.Random(0), 4)
        ch = {l: chern_character(roots, l) for l in range(1, 5)}
        poly = dict(lambda_to_ch(3, 4))
        poly[(1, 2)] = -poly[(1, 2)]
        assert evaluate(poly, ch) != elementary(roots, 3)


class TestBernoulli:
    def test_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)
        assert bernoulli(3) == 0


class TestHodgeIntegral:
    def test_lambda1_on_m11(self):
        assert hodge_integral(HodgeMonomial.of(1, 1, {1: 1})) == Fraction(1, 24)

    def test_degree_two_relation_on_m21(self):
        two_l2 = 2 * hodge_integral(HodgeMonomial.of(2, 1, {2: 1}, {1: 2}))
        l1sq = hodge_integral(HodgeMonomial.of(2, 1, {1: 2}, {1: 2}))
        assert two_l2 - l1sq == 0

    def test_pure_psi_delegates(self):
        assert hodge_integral(HodgeMonomial.of(2, 1, None, {1: 4})) == \
            wk_integral(2, [4])

    def test_linearity_example(self):
        two_psi = 2 * hodge_integral(HodgeMonomial.of(1, 1, None, {1: 1}))
        lam = hodge_integral(HodgeMonomial.of(1, 1, {1: 1}))
        assert two_psi - lam == Fraction(1, 24)

    def test_rank_bound_vanishing(self):
        assert hodge_integral(HodgeMonomial.of(1, 2, {2: 1})) == 0

    def test_degree_mismatch(self):
        assert hodge_integral(HodgeMonomial.of(2, 1, {1: 1})) == 0

    def test_unstable_ambient(self):
        assert hodge_integral(HodgeMonomial.of(1, 0, {1: 1})) == 0

    def test_ch_parity_vanishing(self):
        # even ch_l vanish through B_{l+1} = 0; this makes the odd-ch
        # filter in hodge_integral exact
        for g, psi, kappa, ch in [(2, (2,), (), (2,)), (3, (0,), (1,), (2, 4))]:
            assert _reduce(g, psi, kappa, ch) == 0

    def test_ch1_equals_lambda1(self):
        assert _reduce(1, (0,), (), (1,)) == Fraction(1, 24) == \
            hodge_integral(HodgeMonomial.of(1, 1, {1: 1}))

    def test_linearity_randomised(self):
        from pshodge.expr import parse_expression
        from pshodge.strata import expr_integral
        rng = random.Random(7)
        for _ in range(10):
            g = rng.randint(1, 3)
            n = 1
            dim = 3 * g - 3 + n
            j = rng.randint(1, g)
            a = rng.randint(-4, 4)
            b = rng.randint(-4, 4)
            text = f"{a}*lambda{j}*psi1^{dim - j} + {b}*psi1^{dim}"
            combined = expr_integral(g, n, parse_expression(text, g, n))
            parts = (a * hodge_integral(HodgeMonomial.of(g, n, {j: 1},
                                                         {1: dim - j}))
                     + b * hodge_integral(HodgeMonomial.of(g, n, None,
                                                           {1: dim})))
            assert combined == parts, (g, j, a, b)


class TestMumfordRelations:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_relations_vanish(self, g):
        for n in range(0, 2):
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            for deg in range(1, min(2 * g, dim) + 1):
                terms = mumford_relation_terms(g, deg)
                if not terms:
                    continue
                for exps in compositions(dim - deg, n):
                    total = sum(
                        (coeff * hodge_integral(
                            HodgeMonomial.of(g, n, dict(lam), exps))
                         for coeff, lam in terms), Fraction(0))
                    assert total == 0, (g, n, deg, exps)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_top_lambda_square_vanishing(self, g):
        """The degree-2g part of the relation is (-1)^g lambda_g^2, so the
        integral of lambda_g^2 against any psi complement vanishes."""
        n = 1
        dim = 3 * g - 3 + n
        deg = 2 * g
        if deg > dim:
            pytest.skip("degree exceeds dimension")
        terms = mumford_relation_terms(g, deg)
        assert terms == [((-1) ** g, ((g, 2),))]
        for exps in compositions(dim - deg, n):
            assert hodge_integral(HodgeMonomial.of(g, n, {g: 2}, exps)) == 0


def faber_pandharipande(g):
    """int_{Mbar_{g,1}} psi^{2g-2} lambda_g
    = (2^{2g-1} - 1) |B_{2g}| / (2^{2g-1} (2g)!)."""
    return (Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1))
            * abs(bernoulli(2 * g)) / factorial(2 * g))


class TestClosedForms:
    """Closed forms from the literature that pin the lambda -> ch path
    beyond the genera the Mumford relations reach."""

    @pytest.mark.parametrize("g", range(1, 7))
    def test_faber_pandharipande_lambda_g(self, g):
        mono = HodgeMonomial.of(g, 1, {g: 1}, [2 * g - 2])
        assert hodge_integral(mono) == faber_pandharipande(g)

    @pytest.mark.parametrize("g", range(1, 6))
    @pytest.mark.parametrize("n", (2, 3))
    def test_lambda_g_formula(self, g, n):
        """int psi_1^{d_1} ... psi_n^{d_n} lambda_g
        = binom(2g - 3 + n; d) * int psi^{2g-2} lambda_g."""
        total = 2 * g - 3 + n
        for d in compositions(total, n):
            multinomial, rest = 1, total
            for e in d:
                multinomial *= comb(rest, e)
                rest -= e
            mono = HodgeMonomial.of(g, n, {g: 1}, d)
            assert hodge_integral(mono) == \
                multinomial * faber_pandharipande(g), (g, d)
