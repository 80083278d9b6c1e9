"""Hodge-integral engine: Newton conversion and the boundary recursion."""

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest

from pshodge import hodge
from pshodge.hodge import (HodgeMonomial, _reduce, bell_polynomial, bernoulli,
                           ch_in_lambda, clear_caches, hodge_integral,
                           kappa_integral, lambda_to_ch)
from pshodge.multiset import (accumulate, compositions, counts, multiply,
                              partitions, replace_one, sub_multisets)
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

    @pytest.mark.parametrize("g", range(2, 8))
    def test_faber_top_lambdas(self, g):
        """int_{Mbar_g} lambda_g lambda_{g-1} lambda_{g-2}
        = |B_{2g-2}| |B_{2g}| / (2 (2g-2)! (2g-2) (2g)) (Faber)."""
        mono = HodgeMonomial.of(g, 0, {j: 1 for j in (g, g - 1, g - 2) if j})
        assert hodge_integral(mono) == (
            abs(bernoulli(2 * g - 2)) * abs(bernoulli(2 * g))
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
    for j, e in mono.lambda_exp:
        odd = {key: c for key, c in lambda_to_ch(j, mono.g).items()
               if all(l % 2 for l in key)}
        for _ in range(e):
            poly = multiply(poly, odd)
    psi = tuple(sorted(mono.psi_exp))
    return sum((c * reference_reduce(mono.g, psi, (), key, memo)
                for key, c in poly.items()), Fraction(0))


def grr_monomials(seed=8):
    """Monomials like the benchmark's GRR pool, at g <= 4 and n <= 3:
    lambda_g and lambda_g lambda_{g-1} against psi, Faber's top product,
    and seeded random lambda triples against psi."""
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
                out.append(HodgeMonomial.of(g, n, counts(lam),
                                            random_psi(dim - sum(lam), n)))
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
        entry ``(g, psi, ch)`` equals the triple loop at its key.  It holds
        fewer keys than the triple loop's memo holds keys with a ch factor:
        a psi^0 or psi^1 marking is forgotten instead of expanding a Chern
        character, and the kappa term is a new marking, not a kappa key.
        The ch-free keys are the WK leaves, each stored once as the
        correlator itself."""
        monomials = grr_monomials()
        clear_caches()
        values = [hodge_integral(mono) for mono in monomials]
        memo = {}
        want = [reference_hodge_integral(mono, memo) for mono in monomials]
        assert values == want
        assert len(memo) > 100
        assert sum(1 for key in hodge._CH_MEMO if key[2]) < \
            sum(1 for key in memo if key[3])
        leaves = 0
        for key, value in hodge._CH_MEMO.items():
            g, psi, ch = key
            assert type(value) is Fraction, key
            assert reference_reduce(g, psi, (), ch, memo) == value, key
            if not ch:
                assert value == wk_integral(g, psi), key
                leaves += 1
        assert leaves > 100

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
