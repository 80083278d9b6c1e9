"""Correlator engine: pinned values, string/dilaton/symmetry, kappa reduction."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pshodge
from pshodge.hodge import HodgeMonomial, bernoulli, hodge_integral
from pshodge.multiset import compositions
from pshodge.wk import WKTable, default_table, is_stable, wk_integral


def genus0_string_oracle(d):
    """<tau_{d_1}...tau_{d_n}>_0 by nothing but the string equation.

    Every dimension-correct genus-zero key has an insertion with exponent
    zero, so repeated string reduction reaches <tau_0^3>_0 = 1.
    """
    d = tuple(sorted(d))
    n = len(d)
    if n < 3 or sum(d) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1)
    assert d[0] == 0
    rest = d[1:]
    return sum((genus0_string_oracle(rest[:k] + (rest[k] - 1,) + rest[k + 1:])
                for k in range(n - 1) if rest[k] >= 1), Fraction(0))


class TestPinnedValues:
    def test_base_normalisation(self):
        assert wk_integral(0, [0, 0, 0]) == 1

    def test_one_pointed_genus_one(self):
        assert wk_integral(1, [1]) == Fraction(1, 24)

    def test_one_pointed_genus_two(self):
        assert wk_integral(2, [4]) == Fraction(1, 1152)

    def test_dimension_mismatch_is_zero(self):
        assert wk_integral(1, [0, 0]) == 0

    def test_dilaton_derived_value(self):
        # one dilaton step from <tau_0^3>_0 = 1 with 2g - 2 + n = 1
        assert wk_integral(0, [1, 0, 0, 0]) == 1

    @pytest.mark.parametrize("g", range(1, 7))
    def test_one_pointed_family(self, g):
        assert wk_integral(g, [3 * g - 2]) == Fraction(1, 24 ** g * factorial(g))

    def test_unstable_is_zero(self):
        assert wk_integral(0, [0, 0]) == 0
        assert wk_integral(0, []) == 0
        assert wk_integral(1, []) == 0


class TestKeyCanonicalisation:
    def test_memo_key_is_sorted(self):
        table = WKTable()
        assert table.integral(1, (2, 0, 1)) == Fraction(1, 12)
        assert [key for key, _ in table.psi_items()
                if len(key[1]) == 3] == [(1, (0, 1, 2))]

    def test_kappa_integral_rejects_negative_psi(self):
        with pytest.raises(ValueError):
            default_table().kappa_integral(1, 1, [-1], [2])


def _dimension_keys(gmax=3, dim_bound=12):
    for g in range(gmax + 1):
        for n in range(1, 8):
            dim = 3 * g - 3 + n
            if dim < 0 or dim > dim_bound or not is_stable(g, n):
                continue
            yield g, n, dim


class TestEquations:
    def test_string_equation_exhaustive(self):
        for g, n, dim in _dimension_keys():
            for d in compositions(dim, n):
                for k in range(n):
                    bumped = d[:k] + (d[k] + 1,) + d[k + 1:]
                    lhs = wk_integral(g, bumped + (0,))
                    rhs = sum(
                        (wk_integral(g, bumped[:t] + (bumped[t] - 1,)
                                     + bumped[t + 1:])
                         for t in range(n) if bumped[t] >= 1), Fraction(0))
                    assert lhs == rhs, (g, bumped)

    def test_dilaton_equation_exhaustive(self):
        for g, n, dim in _dimension_keys():
            for d in compositions(dim, n):
                assert wk_integral(g, d + (1,)) == \
                    (2 * g - 2 + n) * wk_integral(g, d), (g, d)

    @given(st.permutations([0, 0, 1, 2, 4]))
    def test_symmetry_under_permutation(self, perm):
        assert wk_integral(1, perm) == wk_integral(1, [0, 0, 1, 2, 4])

    @settings(max_examples=40)
    @given(st.integers(0, 2), st.lists(st.integers(0, 5), min_size=1,
                                       max_size=6))
    def test_unsorted_entry_points_agree(self, g, d):
        assert wk_integral(g, d) == wk_integral(g, sorted(d))

    def test_genus0_closed_form_and_string_oracle(self):
        for n in range(3, 9):
            for d in compositions(n - 3, n):
                closed = Fraction(factorial(n - 3))
                for x in d:
                    closed /= factorial(x)
                value = wk_integral(0, d)
                assert value == closed, d
                assert value == genus0_string_oracle(d), d


class TestKappa:
    def test_kappa1_on_m11(self):
        # oracle: kappa_1 -> <tau_2 tau_0>_1, then string from <tau_1>_1
        assert default_table().kappa_integral(1, 1, [0], [1]) == Fraction(1, 24)

    def test_kappa1_on_m04(self):
        # oracle: <tau_2 tau_0^4>_0 = 1 by repeated string
        assert default_table().kappa_integral(0, 4, None, [1]) == 1
        assert genus0_string_oracle((2, 0, 0, 0, 0)) == 1

    def test_empty_kappa_delegates(self):
        assert default_table().kappa_integral(2, 1, [4], ()) == \
            wk_integral(2, [4]) == Fraction(1, 1152)

    def test_degree_mismatch_is_zero(self):
        assert default_table().kappa_integral(1, 1, None, [2]) == 0

    def test_of_accepts_marking_map(self):
        # kappa_1^2 -> two fresh points tau_2 tau_2, minus one tau_3
        table = default_table()
        want = wk_integral(1, [0, 0, 1, 2, 2]) - wk_integral(1, [0, 0, 1, 3])
        assert table.kappa_integral(1, 3, {2: 1}, [1, 1]) == \
            table.kappa_integral(1, 3, [0, 1, 0], [1, 1]) == want != 0

    def test_order_independence_randomised(self):
        table = WKTable()
        rng = random.Random(1234)
        done = 0
        while done < 50:
            g = rng.randint(0, 2)
            n = rng.randint(1, 3)
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            if not 1 <= dim <= 8:
                continue
            kap = []
            left = dim
            for _ in range(rng.randint(1, 3)):
                if left <= 0:
                    break
                a = rng.randint(1, left)
                kap.append(a)
                left -= a
            if not kap:
                continue
            psi = [0] * n
            for _ in range(left):
                psi[rng.randrange(n)] += 1
            want = table.kappa_integral(g, n, psi, kap)
            for _ in range(3):
                again = table._kappa_eval_random_order(
                    g, tuple(sorted(psi)), tuple(sorted(kap)), rng)
                assert want == again, (g, n, psi, kap)
            done += 1


def faber_top_lambdas(g):
    """Faber's closed form for the integral of lambda_g lambda_{g-1}
    lambda_{g-2} over Mbar_g."""
    return (abs(bernoulli(2 * g - 2)) * abs(bernoulli(2 * g))
            / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))


class TestConcurrency:
    def test_concurrent_readers_consistent(self):
        """Racing threads fill the WK table and the GRR memos, which take
        no lock, and every value still matches its closed form."""
        table = WKTable()
        pshodge.clear_caches()
        cases = [(table.integral, (g, (3 * g - 2,)),
                  Fraction(1, 24 ** g * factorial(g))) for g in range(1, 6)]
        cases += [(hodge_integral,
                   (HodgeMonomial.of(g, 0, {j: 1 for j in range(g - 2, g + 1)
                                            if j}),),
                   faber_top_lambdas(g)) for g in (2, 3, 4)]
        assert faber_top_lambdas(2) == Fraction(1, 5760)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                values = list(pool.map(lambda case: case[0](*case[1]),
                                       cases * 8))
        finally:
            sys.setswitchinterval(interval)
        for (_, args, want), value in zip(cases * 8, values):
            assert value == want, args
