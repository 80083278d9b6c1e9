"""Hodge-integral engine: Bell/Newton conversion and the boundary recursion."""

import random
from fractions import Fraction
from math import factorial

import pytest

from pshodge.hodge import (HodgeMonomial, SparsePoly, bell_polynomial,
                           bernoulli, ch_in_lambda, ch_monomial_integral,
                           ch_to_lambda, hodge_integral, lambda_to_ch)
from pshodge.multiset import compositions
from pshodge.selfcheck import mumford_relation_terms
from pshodge.wk import is_stable, wk_integral


def bell_series_oracle(k, num_symbols):
    """B_k from the generating series exp(sum_j x_j t^j / j!).

    Truncated series with SparsePoly coefficients, expanded with plain
    polynomial arithmetic; independent of the recursion used in the
    package.
    """
    # series[i] is the coefficient of t^i
    series = [SparsePoly.zero() for _ in range(k + 1)]
    series[0] = SparsePoly.one()
    arg = [SparsePoly.zero() for _ in range(k + 1)]
    for j in range(1, min(num_symbols, k) + 1):
        arg[j] = Fraction(1, factorial(j)) * SparsePoly.symbol(j)
    power = [SparsePoly.one()] + [SparsePoly.zero()] * k
    for m in range(1, k + 1):
        nxt = [SparsePoly.zero() for _ in range(k + 1)]
        for i in range(k + 1):
            for j in range(1, k + 1 - i):
                nxt[i + j] = nxt[i + j] + power[i] * arg[j]
        power = nxt
        for i in range(k + 1):
            series[i] = series[i] + Fraction(1, factorial(m)) * power[i]
    return factorial(k) * series[k]


class TestBell:
    def test_b0_and_b1(self):
        x = [SparsePoly.symbol(i) for i in range(1, 4)]
        assert bell_polynomial(0, x, one=SparsePoly.one()) == SparsePoly.one()
        assert bell_polynomial(1, x, one=SparsePoly.one()) == x[0]

    def test_b2_against_series_oracle(self):
        x = [SparsePoly.symbol(i) for i in range(1, 3)]
        b2 = bell_polynomial(2, x, one=SparsePoly.one())
        assert b2 == x[0] * x[0] + x[1]
        assert b2 == bell_series_oracle(2, 2)

    @pytest.mark.parametrize("k", range(0, 6))
    def test_recursion_matches_series(self, k):
        x = [SparsePoly.symbol(i) for i in range(1, k + 2)]
        assert bell_polynomial(k, x, one=SparsePoly.one()) == \
            bell_series_oracle(k, k + 1)

    def test_scalar_ring(self):
        assert bell_polynomial(3, [1, 1, 1]) == 5  # Bell number B_3


class TestConversions:
    def test_lambda0_and_lambda1(self):
        assert lambda_to_ch(0, 3) == SparsePoly.one()
        assert lambda_to_ch(1, 3) == SparsePoly.symbol(1)

    def test_lambda2_newton(self):
        # e_2 = (p_1^2 - p_2)/2 with p_1 = ch_1, p_2 = 2 ch_2
        want = Fraction(1, 2) * (SparsePoly.symbol(1) ** 2
                                 - 2 * SparsePoly.symbol(2))
        assert lambda_to_ch(2, 4) == want

    def test_rank_bound(self):
        assert lambda_to_ch(3, 2) == SparsePoly.zero()

    @pytest.mark.parametrize("j", range(1, 7))
    def test_round_trip(self, j):
        back = ch_to_lambda(lambda_to_ch(j, 6))
        assert back == SparsePoly.symbol(j)

    def test_ch_in_lambda_small(self):
        assert ch_in_lambda(1) == SparsePoly.symbol(1)
        assert ch_in_lambda(2) == Fraction(1, 2) * (
            SparsePoly.symbol(1) ** 2 - 2 * SparsePoly.symbol(2))


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
        for args in [(2, 1, (2,), (), (2,)), (3, 1, (0,), (1,), (2, 4))]:
            g, n, psi, kappa, ch = args
            assert ch_monomial_integral(g, psi, kappa, ch) == 0

    def test_ch1_equals_lambda1(self):
        assert ch_monomial_integral(1, (0,), (), (1,)) == Fraction(1, 24)

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
