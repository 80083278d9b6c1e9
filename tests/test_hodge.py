"""Hodge-integral engine: Newton conversion and the boundary recursion."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

import pshodge
from pshodge import hodge
from pshodge.hodge import (HodgeMonomial, _reduce, _square_free,
                           bell_polynomial, bernoulli,
                           ch_in_lambda, clear_caches, hodge_integral,
                           kappa_integral, lambda_to_ch)
from pshodge.multiset import (accumulate, compositions, counts, multiply,
                              partitions, replace_one, sub_multisets)
from pshodge.selfcheck import (_bernoulli_numbers, _ch_route_integral,
                               _lambda_g_one_point, mumford_relation_terms,
                               suite_hodge_closed_forms)
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

    def test_matches_akiyama_tanigawa(self):
        """Up to B_40, apart from the sign convention for B_1 (+1/2 in the
        Akiyama--Tanigawa route)."""
        for m, b in enumerate(_bernoulli_numbers(41)):
            assert bernoulli(m) == (-b if m == 1 else b), m


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

    def test_monomial_canonical_form(self):
        """``lambda_exp`` is the sorted multiset of lambda indices, however
        the exponents are given: a dict, ``(j, e)`` pairs, a repeated pair,
        a zero exponent or an unsorted order."""
        want = HodgeMonomial(3, 1, (1, 1, 2), (2,))
        for lambdas in ({1: 2, 2: 1}, {2: 1, 1: 2}, [(1, 2), (2, 1)],
                        [(2, 1), (1, 1), (1, 1)], ((1, 2), (3, 0), (2, 1)),
                        {3: 0, 2: 1, 1: 2}):
            mono = HodgeMonomial.of(3, 1, lambdas, [2])
            assert mono == want and mono.lambda_exp == (1, 1, 2), lambdas
        assert HodgeMonomial.of(3, 1, {2: 0}, [5]).lambda_exp == ()
        assert HodgeMonomial.of(3, 1, None, [5]) == \
            HodgeMonomial(3, 1, (), (5,))

    def test_clear_caches_empties_square_free_rewrites(self):
        """``pshodge.clear_caches`` empties the square-free rewrites, keyed
        by lambda multisets, and keeps the universal tables."""
        pshodge.clear_caches()
        assert hodge_integral(HodgeMonomial.of(4, 1, {2: 2}, [6])) == \
            Fraction(899, 99532800)
        assert _square_free.cache_info().currsize
        assert hodge._times_lambda.cache_info().currsize
        pshodge.clear_caches()
        assert not _square_free.cache_info().currsize
        assert not hodge._times_lambda.cache_info().currsize
        assert bernoulli.cache_info().currsize
        assert lambda_to_ch.cache_info().currsize

    # lambda_to_ch(j, g) is empty for j > g, so no term reaches _reduce
    @pytest.mark.parametrize("g, n, lambdas, psis", [
        pytest.param(1, 2, {2: 1}, None, id="lambda2-on-g1"),
        pytest.param(2, 1, {3: 1}, {1: 1}, id="lambda3-on-g2"),
        pytest.param(2, 2, {2: 1, 3: 1}, None, id="lambda_g-beside-lambda3"),
        pytest.param(3, 1, {1: 1, 4: 1}, {1: 2}, id="lambda4-on-g3"),
    ])
    def test_rank_bound_vanishing(self, g, n, lambdas, psis):
        m = HodgeMonomial.of(g, n, lambdas, psis)
        assert sum(m.lambda_exp) + sum(m.psi_exp) == \
            3 * g - 3 + n  # only the rank bound makes these vanish
        assert hodge_integral(m) == 0

    # a zero from the psi leaf, the lambda_g leaf, and _reduce with and
    # without lambda_g
    @pytest.mark.parametrize("g, n, lambdas, psis", [
        pytest.param(2, 1, {1: 1}, None, id="lambda1"),
        pytest.param(2, 1, None, {1: 3}, id="psi-leaf"),
        pytest.param(2, 1, {2: 1}, {1: 1}, id="lambda_g-leaf"),
        pytest.param(3, 1, {1: 1, 3: 1}, {1: 2}, id="lambda_g-with-ch"),
        pytest.param(3, 2, {1: 1, 2: 1}, {1: 1, 2: 3}, id="no-lambda_g"),
    ])
    def test_degree_mismatch(self, g, n, lambdas, psis):
        assert hodge_integral(HodgeMonomial.of(g, n, lambdas, psis)) == 0

    # a zero from each branch of the reduction; at genus 0 every lambda_j
    # has j > g, and on Mbar_{1,0} the integral of 1 has the right degree
    @pytest.mark.parametrize("g, n, lambdas, psis", [
        pytest.param(1, 0, {1: 1}, None, id="1,0-lambda_g-leaf"),
        pytest.param(1, 0, {1: 2}, None, id="1,0-lambda_g-with-ch"),
        pytest.param(1, 0, {2: 1}, None, id="1,0-lambda2"),
        pytest.param(1, 0, None, None, id="1,0-psi"),
        pytest.param(0, 0, None, None, id="0,0-psi"),
        pytest.param(0, 0, {1: 1}, None, id="0,0-lambda1"),
        pytest.param(0, 1, None, {1: 1}, id="0,1-psi"),
        pytest.param(0, 1, {1: 1}, None, id="0,1-lambda1"),
        pytest.param(0, 2, None, [0, 0], id="0,2-psi"),
        pytest.param(0, 2, {1: 1}, [1, 0], id="0,2-lambda1"),
    ])
    def test_unstable_ambient(self, g, n, lambdas, psis):
        assert not is_stable(g, n)
        assert hodge_integral(HodgeMonomial.of(g, n, lambdas, psis)) == 0

    def test_ch_parity_vanishing(self):
        # even ch_l vanish through B_{l+1} = 0; this makes the odd-ch
        # filter in hodge_integral exact
        for g, psi, ch in [(2, (2,), (2,)), (3, (0, 2), (2, 4))]:
            assert _reduce(g, psi, ch) == 0

    def test_ch1_equals_lambda1(self):
        assert _reduce(1, (0,), (1,)) == Fraction(1, 24) == \
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
        assert terms == [((-1) ** g, (g, g))]
        for exps in compositions(dim - deg, n):
            assert hodge_integral(HodgeMonomial.of(g, n, {g: 2}, exps)) == 0


class TestSquareFree:
    """The square-free normal form of a lambda monomial under Mumford's
    relation ``lambda_k^2 = 2 sum_{i>=1} (-1)^(i+1) lambda_{k-i}
    lambda_{k+i}``."""

    @pytest.mark.parametrize("g", range(2, 7))
    def test_lambda1_square(self, g):
        assert _square_free(g, (1, 1)) == {(2,): 2}

    @pytest.mark.parametrize("g", range(1, 7))
    def test_top_square_vanishes(self, g):
        assert _square_free(g, (g, g)) == {}

    @pytest.mark.parametrize("g", range(1, 6))
    def test_degree_above_bound_vanishes(self, g):
        """Every lambda monomial of degree g(g+1)/2 + 1, indices at most
        g; at degree g(g+1)/2 the product of all lambda_j survives."""
        bound = g * (g + 1) // 2
        top = tuple(range(1, g + 1))
        assert _square_free(g, top) == {top: 1}
        for lam in partitions(bound + 1):
            if max(lam) <= g:
                assert _square_free(g, tuple(sorted(lam))) == {}, lam

    @pytest.mark.parametrize("g", range(2, 8))
    def test_cube_below_top(self, g):
        """``lambda_{g-1}^3 = 2 lambda_g lambda_{g-1} lambda_{g-2}``, with
        ``lambda_0 = 1``."""
        want = tuple(j for j in (g - 2, g - 1, g) if j)
        assert _square_free(g, (g - 1,) * 3) == {want: 2}

    @pytest.mark.parametrize("g", range(1, 6))
    def test_square_free_is_fixed(self, g):
        for k in range(1, g * (g + 1) // 2 + 1):
            for lam in partitions(k):
                if max(lam) <= g and len(set(lam)) == len(lam):
                    key = tuple(sorted(lam))
                    assert _square_free(g, key) == {key: 1}

    def test_int_coefficients(self):
        for g in range(1, 6):
            for k in range(1, 3 * g - 2):
                for lam in partitions(k):
                    for c in _square_free(g, tuple(sorted(lam))).values():
                        assert type(c) is int and c, (g, lam)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_faber_cube(self, g):
        """``lambda_{g-1}^3`` on Mbar_g is twice Faber's
        ``lambda_g lambda_{g-1} lambda_{g-2}``, read on the lambda_g
        branch."""
        mono = HodgeMonomial.of(g, 0, {g - 1: 3})
        assert hodge_integral(mono) == 2 * (
            BERNOULLI[2 * g - 2] * BERNOULLI[2 * g]
            / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))


# |B_0| .. |B_14| by the Akiyama--Tanigawa algorithm, a route that shares
# no code with ``hodge.bernoulli`` and the GRR prefactors
BERNOULLI = [abs(b) for b in _bernoulli_numbers(15)]


def faber_pandharipande(g):
    """int_{Mbar_{g,1}} psi^{2g-2} lambda_g
    = (2^{2g-1} - 1) |B_{2g}| / (2^{2g-1} (2g)!)."""
    return _lambda_g_one_point(g, BERNOULLI)


class TestClosedForms:
    """Closed forms from the literature that pin the lambda_g branch beyond
    the genera the Mumford relations reach.  A lambda_g psi monomial is a
    lambda_g formula leaf of the branch, so the first two tests pin that
    leaf against Bernoulli numbers from another route; the
    ``hodge-closed-forms`` suite checks the same forms on the ch route."""

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

    def test_suite_takes_the_ch_route(self):
        """The ``hodge-closed-forms`` suite passes without a key of the
        lambda_g branch: it does not check the lambda_g formula against
        itself."""
        clear_caches()
        result = suite_hodge_closed_forms()
        assert (result.passed, result.failures) == (True, [])
        assert hodge._CH_MEMO
        assert not any(key[3] for key in hodge._CH_MEMO)

    @pytest.mark.parametrize("g", range(2, 8))
    def test_faber_top_lambdas(self, g):
        """int_{Mbar_g} lambda_g lambda_{g-1} lambda_{g-2}
        = |B_{2g-2}| |B_{2g}| / (2 (2g-2)! (2g-2) (2g)) (Faber)."""
        mono = HodgeMonomial.of(g, 0, {j: 1 for j in (g, g - 1, g - 2) if j})
        assert hodge_integral(mono) == (
            BERNOULLI[2 * g - 2] * BERNOULLI[2 * g]
            / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))


def reference_kappa(g, psi, kappa, memo):
    """A kappa/psi integral for sorted tuples by eliminating ``kappa[0]``
    against a fresh point, in plain ``Fraction`` arithmetic with its own
    memo, keyed like ``_CH_MEMO`` with an empty ch part: the recursion
    that folding kappa elimination into ``_reduce`` replaced, kept as a
    differential oracle."""
    if not kappa:
        return wk_integral(g, psi)
    n = len(psi)
    if not is_stable(g, n) or sum(psi) + sum(kappa) != 3 * g - 3 + n:
        return Fraction(0)
    key = (g, psi, kappa, ())
    if key not in memo:
        memo[key] = sum(
            ((-1) ** len(chosen) * mult * reference_kappa(
                g, tuple(sorted(psi + (kappa[0] + 1 + sum(chosen),))),
                remaining, memo)
             for chosen, remaining, mult in sub_multisets(kappa[1:])),
            Fraction(0))
    return memo[key]


def reference_reduce(g, psi, kappa, ch, memo):
    """The GRR reduction as a triple loop over every (psi, kappa, ch)
    sub-multiset split for each node branch ``a``, discarding the splits
    whose degree forces no genus; ``memo`` plays the role of ``_CH_MEMO``.

    Differential oracle for ``hodge._reduce``, which lets the degree of a
    split pick ``a`` instead, visits a term and its mirror image once and
    turns the kappa term of ``ch_l`` into a new marking carrying
    ``psi^{l+1}``; here kappa classes are carried in the key and the
    kappa/psi leaves are :func:`reference_kappa`.
    """
    n = len(psi)
    if not is_stable(g, n):
        return Fraction(0)
    if g == 0 and ch:
        return Fraction(0)
    if sum(psi) + sum(kappa) + sum(ch) != 3 * g - 3 + n:
        return Fraction(0)
    if not ch:
        return reference_kappa(g, psi, kappa, memo)
    key = (g, psi, kappa, ch)
    if key in memo:
        return memo[key]

    def rec(g, psi, kappa, ch):
        return reference_reduce(g, psi, kappa, ch, memo)

    l = ch[-1]
    rest = ch[:-1]
    acc = rec(g, psi, tuple(sorted(kappa + (l,))), rest)
    for v, c in counts(psi).items():
        acc -= c * rec(g, replace_one(psi, v, v + l), kappa, rest)
    boundary = Fraction(0)
    for a in range(l):
        b = l - 1 - a
        sign = -1 if a % 2 else 1
        if g >= 1:
            boundary += sign * rec(g - 1, tuple(sorted(psi + (a, b))),
                                   kappa, rest)
        for psi1, psi2, mpsi in sub_multisets(psi):
            n1 = len(psi1) + 1
            for kap1, kap2, mkap in sub_multisets(kappa):
                for ch1, ch2, mch in sub_multisets(rest):
                    s1 = sum(psi1) + a + sum(kap1) + sum(ch1) + 3 - n1
                    if s1 % 3 or not 0 <= s1 // 3 <= g:
                        continue
                    h = s1 // 3
                    if not (is_stable(h, n1)
                            and is_stable(g - h, len(psi2) + 1)):
                        continue
                    left = rec(h, tuple(sorted(psi1 + (a,))), kap1, ch1)
                    if not left:
                        continue
                    right = rec(g - h, tuple(sorted(psi2 + (b,))), kap2, ch2)
                    boundary += sign * mpsi * mkap * mch * left * right
    acc += boundary / 2
    value = bernoulli(l + 1) / factorial(l + 1) * acc
    memo[key] = value
    return value


def reference_hodge_integral(mono, memo):
    """``hodge_integral`` with :func:`reference_reduce` in place of
    ``_reduce`` (the same lambda -> ch expansion)."""
    poly = {(): Fraction(1)}
    for j in mono.lambda_exp:
        poly = multiply(poly, {key: c for key, c
                               in lambda_to_ch(j, mono.g).items()
                               if all(l % 2 for l in key)})
    psi = tuple(sorted(mono.psi_exp))
    return sum((c * reference_reduce(mono.g, psi, (), key, memo)
                for key, c in poly.items()), Fraction(0))


def reference_top(g, psi, ch, memo):
    """``lambda_g`` times a ch/psi integrand by the triple loop, with
    ``lambda_g`` expanded into its odd Chern characters: the value of the
    ``_CH_MEMO`` key ``(g, psi, ch, True)``."""
    return sum((c * reference_reduce(g, psi, (), tuple(sorted(ch + key)),
                                     memo)
                for key, c in lambda_to_ch(g, g).items()
                if all(l % 2 for l in key)), Fraction(0))


def lambda_g_formula(g, psi):
    """``int psi^d lambda_g = binom(2g-3+n; d) b_g`` over Mbar_{g,n}, with
    ``b_0 = 1``, and 0 off that degree."""
    total = 2 * g - 3 + len(psi)
    if sum(psi) != total:
        return Fraction(0)
    multinomial = factorial(total)
    for e in psi:
        multinomial //= factorial(e)
    return multinomial * (faber_pandharipande(g) if g else 1)


def grr_monomials(seed=8):
    """Monomials like the benchmark's GRR pool, at g <= 4 and n <= 3:
    lambda_g and lambda_g lambda_{g-1} against psi, Faber's top product,
    seeded random lambda triples against psi, and then seeded random
    square-free lambda triples against psi.  A square-free triple takes
    the general route: its factors are not rewritten by Mumford's
    relation, which sends ``lambda_g^2`` to 0 and ``lambda_1^2 lambda_2``
    at g = 2 to the lambda_g branch."""
    rng = random.Random(seed)

    def random_psi(total, n):
        exps = [0] * n
        for _ in range(total):
            exps[rng.randrange(n)] += 1
        return exps

    out = []
    for g in range(1, 5):
        if g >= 3:
            out.append(HodgeMonomial.of(g, 0, {g: 1, g - 1: 1, g - 2: 1}))
        for n in range(1, 4):
            dim = 3 * g - 3 + n
            out.append(HodgeMonomial.of(g, n, {g: 1}, random_psi(dim - g, n)))
            if g >= 2:
                out.append(HodgeMonomial.of(g, n, {g: 1, g - 1: 1},
                                            random_psi(dim - 2 * g + 1, n)))
            for _ in range(2):
                lam = [rng.randint(1, g) for _ in range(3)]
                if sum(lam) > dim:
                    continue
                out.append(HodgeMonomial(g, n, tuple(sorted(lam)), tuple(
                    random_psi(dim - sum(lam), n))))
    for g in range(3, 5):
        for n in range(1, 4):
            dim = 3 * g - 3 + n
            for _ in range(2):
                lam = rng.sample(range(1, g + 1), 3)
                out.append(HodgeMonomial(g, n, tuple(sorted(lam)), tuple(
                    random_psi(dim - sum(lam), n))))
    return out


def odd_ch_factors(k):
    """The sorted tuples of odd ch indices of total degree k."""
    return [tuple(sorted(p)) for p in partitions(k) if all(l % 2 for l in p)]


def psi_tuples(n, deg):
    """The sorted psi exponents on n points of total degree ``deg``."""
    return [tuple(sorted(p + (0,) * (n - len(p)))) for p in partitions(deg)
            if len(p) <= n]


class TestReductionOracle:
    def test_memo_matches_triple_loop(self):
        """After a cold run the integrals agree, and every ``_CH_MEMO``
        entry ``(g, psi, ch, top)`` equals the triple loop at its key, on
        the ch expansion of ``lambda_g`` where ``top`` is set.  It holds
        fewer keys than the triple loop's memo holds keys with a ch factor:
        a psi^0 or psi^1 marking is forgotten instead of expanding a Chern
        character, the kappa term is a new marking, not a kappa key, and
        a ``lambda_g`` is carried as a flag, not as Chern characters.  The
        ch-free keys are the leaves, each stored once as its value: the WK
        correlator, or with ``top`` the lambda_g formula."""
        monomials = grr_monomials()
        clear_caches()
        values = [hodge_integral(mono) for mono in monomials]
        memo = {}
        want = [reference_hodge_integral(mono, memo) for mono in monomials]
        assert values == want
        assert len(memo) > 100
        assert sum(1 for key in hodge._CH_MEMO if key[2]) < \
            sum(1 for key in memo if key[3])
        leaves, top_entries, top_leaves = 0, 0, 0
        for key, value in hodge._CH_MEMO.items():
            g, psi, ch, top = key
            assert type(value) is Fraction, key
            if top:
                assert reference_top(g, psi, ch, memo) == value, key
                top_entries += 1
            else:
                assert reference_reduce(g, psi, (), ch, memo) == value, key
            if not ch:
                assert value == (lambda_g_formula(g, psi) if top
                                 else wk_integral(g, psi)), key
                leaves += 1
                top_leaves += top
        assert leaves > 100
        assert top_entries > 50 and top_leaves > 20

    def test_lambda_g_branch_matches_ch_route(self):
        """Every monomial carrying ``lambda_g`` at g <= 6, n <= 3, with any
        lambda factors of index at most g and sorted psi exponents: the
        lambda_g branch (one ``lambda_g`` kept as a flag, lambda_g formula
        leaves) against the ch route, which expands every lambda factor
        into Chern characters and reduces with the flag off.  The two
        share no memo entry."""
        clear_caches()
        checked = nonzero = 0
        for g, n in product(range(1, 7), range(4)):
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            for k in range(g, dim + 1):
                for lam in partitions(k):
                    if max(lam) != g:
                        continue
                    for psi in psi_tuples(n, dim - k):
                        mono = HodgeMonomial(g, n, tuple(sorted(lam)), tuple(psi))
                        want = _ch_route_integral(mono)
                        assert hodge_integral(mono) == want, (g, lam, psi)
                        checked += 1
                        nonzero += bool(want)
        assert (checked, nonzero) == (2049, 1385)
        assert any(key[3] for key in hodge._CH_MEMO)

    def test_mumford_rewrite_matches_ch_route(self):
        """Every lambda monomial with a repeated index at g <= 6, n <= 2,
        with lambda indices at most g and sorted psi exponents: the
        engine, which rewrites it by Mumford's relation, against the ch
        route, which expands every lambda factor into Chern characters
        and does not use the relation."""
        clear_caches()
        checked = nonzero = 0
        for g, n in product(range(1, 7), range(3)):
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            for k in range(2, dim + 1):
                for lam in partitions(k):
                    if max(lam) > g or len(set(lam)) == len(lam):
                        continue
                    for psi in psi_tuples(n, dim - k):
                        mono = HodgeMonomial(g, n, tuple(sorted(lam)), tuple(psi))
                        want = _ch_route_integral(mono)
                        assert hodge_integral(mono) == want, (g, lam, psi)
                        checked += 1
                        nonzero += bool(want)
        assert (checked, nonzero) == (3622, 2855)

    @pytest.mark.parametrize("g, n, lambdas, psis", [
        (5, 0, {5: 1, 4: 1, 3: 1}, None),
        (5, 1, {5: 1, 4: 1}, [4]),
    ], ids=["faber", "lambda5-lambda4-psi1^4"])
    def test_genus_five_matches_triple_loop(self, g, n, lambdas, psis):
        """Faber's ``lambda_5 lambda_4 lambda_3`` and ``lambda_5 lambda_4
        psi_1^4``: at g=5 the genus of a split side ranges over 0..5, so
        the separating sum walks many ch buckets, each over several node
        branches ``a``."""
        clear_caches()
        mono = HodgeMonomial.of(g, n, lambdas, psis)
        value = hodge_integral(mono)
        assert value != 0
        assert value == reference_hodge_integral(mono, {})

    def test_kappa_matches_old_recursion(self):
        """Every sorted psi/kappa key at g <= 3 and dimension <= 8, with
        one to three kappa factors (kappa_0 among them), against the
        eliminating recursion the GRR memo absorbed."""
        clear_caches()
        memo = {}
        checked = 0
        for g in range(4):
            for n in range(12):
                dim = 3 * g - 3 + n
                if not is_stable(g, n) or dim > 8:
                    continue
                for k in range(dim + 1):
                    kappas = [kap + zero for kap in partitions(k)
                              for zero in ((), (0,))
                              if 1 <= len(kap + zero) <= 3]
                    for kap, part in product(kappas, partitions(dim - k)):
                        if len(part) > n:
                            continue
                        psi = tuple(sorted(part + (0,) * (n - len(part))))
                        kappa = tuple(sorted(kap))
                        want = reference_kappa(g, psi, kappa, memo)
                        assert kappa_integral(g, n, psi, kappa) == want, \
                            (g, psi, kappa)
                        checked += 1
        assert checked > 1000

    def test_many_kappa_factors_match_old_recursion(self):
        """``kappa_1^k`` on Mbar_{0,k+3} and Mbar_{1,k}, whose elimination
        takes ``2^(k-1)`` paths to its leaves."""
        memo = {}
        for g, k in ((0, 10), (0, 14), (1, 12)):
            n = k + 3 - 3 * g
            assert kappa_integral(g, n, None, [1] * k) == \
                reference_kappa(g, (0,) * n, (1,) * k, memo) != 0, (g, k)

    def test_forgotten_marking_matches_triple_loop(self):
        """Every key with a psi^0 or psi^1 marking at g <= 4, n <= 5 with one
        to three odd ch factors from a fixed list, against the triple
        loop."""
        clear_caches()
        memo = {}
        checked = set()
        for g, n, ch, first in product(
                range(1, 5), range(1, 6),
                ((1,), (3,), (5,), (1, 1), (1, 3), (3, 3), (1, 5), (3, 5),
                 (1, 1, 1), (1, 1, 3)), (0, 1)):
            deg = 3 * g - 3 + n - sum(ch) - first
            if deg < 0:
                continue
            for rest in compositions(deg, n - 1):
                key = (g, tuple(sorted((first,) + rest)), ch)
                if key not in checked:
                    assert _reduce(*key) == \
                        reference_reduce(key[0], key[1], (), key[2], memo), key
                    checked.add(key)
        assert len(checked) > 1000

    def test_every_small_key_matches_triple_loop(self):
        """Every sorted key with odd ch factors at g <= 3, n <= 3."""
        clear_caches()
        memo = {}
        keys = [(g, psi, ch) for g, n in product(range(4), range(4))
                if is_stable(g, n) for k in range(1, 3 * g - 2 + n)
                for ch in odd_ch_factors(k)
                for psi in psi_tuples(n, 3 * g - 3 + n - k)]
        assert len(keys) == 213
        for g, psi, ch in keys:
            assert _reduce(g, psi, ch) == \
                reference_reduce(g, psi, (), ch, memo), (g, psi, ch)

    def test_kappa_term_is_a_new_marking(self):
        """``kappa_l X = pi_*(psi_{n+1}^{l+1} pi^* X)``: the triple loop with
        ``kappa_l`` carried in its key equals ``_reduce`` with a new marking
        carrying ``psi^{l+1}``, for every odd-ch key at g <= 3,
        1 <= n <= 3 and l >= 1.  The two routes share only the WK
        leaves."""
        clear_caches()
        memo = {}
        checked = nonzero = 0
        for g, n in product(range(4), range(1, 4)):
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            for l, k in product(range(1, dim + 1), range(1, dim + 1)):
                for ch, psi in product(odd_ch_factors(k),
                                       psi_tuples(n, dim - l - k)):
                    want = reference_reduce(g, psi, (l,), ch, memo)
                    assert _reduce(g, tuple(sorted(psi + (l + 1,))), ch) \
                        == want, (g, psi, l, ch)
                    checked += 1
                    nonzero += bool(want)
        assert (checked, nonzero) == (339, 308)
