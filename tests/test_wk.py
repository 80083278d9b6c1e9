"""Correlator engine: pinned values, string/dilaton/symmetry, kappa reduction."""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pshodge
from pshodge.hodge import HodgeMonomial, hodge_integral, kappa_integral
from pshodge.multiset import compositions, counts, replace_one, sub_multisets
from pshodge.selfcheck import _bernoulli_numbers
from pshodge.wk import WKTable, is_stable, odd_double_factorial, wk_integral


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


class FractionDVV:
    """The DVV recursion in plain ``Fraction`` arithmetic, with the split
    loop run once per ``a``: the evaluator that :class:`WKTable`'s
    scaled-integer memo replaced, kept as a differential oracle."""

    def __init__(self):
        self.memo = {}

    def value(self, g, d):
        d = tuple(sorted(d))
        n = len(d)
        if not is_stable(g, n) or sum(d) != 3 * g - 3 + n:
            return Fraction(0)
        key = (g, d)
        if key in self.memo:
            return self.memo[key]
        if g == 0 and n == 3:
            value = Fraction(1)
        elif g == 1 and n == 1:
            value = Fraction(1, 24)
        elif d[0] == 0:
            value = self._string(g, d)
        elif d[0] == 1 and is_stable(g, n - 1):
            value = (2 * g - 3 + n) * self.value(g, d[1:])
        else:
            value = self._dvv(g, d)
        self.memo[key] = value
        return value

    def _string(self, g, d):
        rest = d[1:]
        return sum((c * self.value(g, replace_one(rest, v, v - 1))
                    for v, c in counts(rest).items() if v), Fraction(0))

    def _dvv(self, g, d):
        p = d[-1]
        rest = d[:-1]
        total = Fraction(0)
        for v, c in counts(rest).items():
            w = Fraction(odd_double_factorial(2 * p + 2 * v - 1),
                         odd_double_factorial(2 * v - 1))
            total += c * w * self.value(g, replace_one(rest, v, p + v - 1))
        for a in range(p - 1):
            b = p - 2 - a
            w = odd_double_factorial(2 * a + 1) * odd_double_factorial(2 * b + 1)
            if g >= 1:
                total += Fraction(w, 2) * self.value(g - 1, rest + (a, b))
            for part1, part2, mult in sub_multisets(rest):
                s1 = sum(part1) + a + 2 - len(part1)
                if s1 % 3 or not 0 <= s1 // 3 <= g:
                    continue
                g1 = s1 // 3
                left = self.value(g1, part1 + (a,))
                if left:
                    total += (Fraction(w * mult, 2) * left
                              * self.value(g - g1, part2 + (b,)))
        return total / odd_double_factorial(2 * p + 1)


def psi_wk_style_keys(gmax, per_group=6, seed=7):
    """Seeded correlators shaped like the benchmark's: one-pointed ones,
    genus-zero ones with n = 5..8, and compositions at g = 8..gmax with
    n = 2..4."""
    rng = random.Random(seed)
    keys = [(g, (3 * g - 2,)) for g in range(1, gmax + 1)]
    keys += [(0, d) for n in range(5, 9)
             for d in list(compositions(n - 3, n))[::7]]
    for g in range(8, gmax + 1):
        for n in (2, 3, 4):
            for _ in range(per_group):
                cuts = sorted(rng.randint(0, 3 * g - 3 + n)
                              for _ in range(n - 1))
                bounds = [0] + cuts + [3 * g - 3 + n]
                keys.append((g, tuple(bounds[i + 1] - bounds[i]
                                      for i in range(n))))
    return keys


class TestScaledIntegers:
    def test_memo_matches_fraction_oracle_to_genus_9(self):
        table = WKTable()
        for g in range(1, 10):
            table.integral(g, (3 * g - 2,))
        keys = sorted(table._psi)
        assert len(keys) == 189
        oracle = FractionDVV()
        for g, d in keys:
            assert oracle.value(g, d) == table.integral(g, d), (g, d)

    def test_psi_wk_style_keys_match_fraction_oracle(self):
        table = WKTable()
        oracle = FractionDVV()
        for g, d in psi_wk_style_keys(10):
            assert table.integral(g, d) == oracle.value(g, d), (g, d)

    def test_memo_holds_integers_to_genus_10(self):
        table = WKTable()
        for g, d in psi_wk_style_keys(12):
            table.integral(g, d)
        for g in range(13, 26):
            table.integral(g, (3 * g - 2,))
        assert len(table) > 1000
        assert all(type(a) is int for a in table._psi.values())


def self_complementary_keys():
    """Keys whose ``rest`` (all but the smallest exponent ``p``) has only
    even multiplicities, so its sub-multisets have a self-complementary
    middle entry: ``(2, x, x)`` at even g = 2..8 and ``(3, x, x)`` at odd
    g = 3..9, with ``x`` set by the dimension, and ``(p, x, x, y, y)`` at
    g = 6..9."""
    keys = [(g, (p, (3 * g - p) // 2, (3 * g - p) // 2))
            for p in (2, 3) for g in range(p, 10, 2)]
    keys += [(6, (2, 4, 4, 5, 5)), (7, (3, 4, 4, 6, 6)),
             (8, (2, 5, 5, 7, 7)), (9, (3, 5, 5, 8, 8))]
    return keys


class TestMirrorWalk:
    def test_self_complementary_rest_matches_fraction_oracle(self):
        keys = self_complementary_keys()
        assert {d[0] % 2 for _, d in keys} == {0, 1}
        for g, d in keys:
            assert d == tuple(sorted(d)) and d[0] >= 2
            assert sum(d) == 3 * g - 3 + len(d), d
            assert len(sub_multisets(d[1:])) % 2 == 1, d
        table = WKTable()
        oracle = FractionDVV()
        for g, d in keys:
            assert table.integral(g, d) == oracle.value(g, d), (g, d)


def two_point_coefficients(g):
    """Coefficients of the degree-3g part of Dijkgraaf's two-point series
    ``exp((x^3 + y^3)/24) sum_n n!/(2n+1)! (xy(x+y)/2)^n``, as a map
    ``a -> coefficient of x^a y^(3g - a)``.  The k-th exponential term and
    the n-th sum term meet in degree 3g exactly when k + n = g."""
    out = {}
    for k in range(g + 1):
        n = g - k
        c = Fraction(factorial(n), 24 ** k * factorial(k)
                     * factorial(2 * n + 1) * 2 ** n)
        # (x^3 + y^3)^k (x^2 y + x y^2)^n expanded binomially
        for i in range(k + 1):
            for j in range(n + 1):
                a = 3 * i + 2 * j + (n - j)
                out[a] = out.get(a, 0) + c * comb(k, i) * comb(n, j)
    return out


class TestTwoPointOracle:
    def test_dijkgraaf_two_point_function_to_genus_16(self):
        """``(x + y) D(x, y)``, with ``D`` the generating function of
        ``<tau_i tau_j>_g``, has ``<tau_{a-1} tau_b>_g + <tau_a tau_{b-1}>_g``
        as its coefficient of ``x^a y^b`` for ``a + b = 3g``."""
        table = WKTable()
        checked = 0
        for g in range(1, 17):
            coeffs = two_point_coefficients(g)
            for a in range(3 * g + 1):
                b = 3 * g - a
                want = ((table.integral(g, (a - 1, b)) if a else 0)
                        + (table.integral(g, (a, b - 1)) if b else 0))
                assert coeffs.get(a, 0) == want, (g, a)
                checked += 1
        assert checked == sum(3 * g + 1 for g in range(1, 17))


class TestReach:
    """DVV runs on the smallest exponent, so a one-point correlator
    reaches few memo keys and its cost grows slowly with the genus."""

    @pytest.mark.parametrize("g", (20, 25, 30))
    def test_one_pointed_closed_form_at_high_genus(self, g):
        assert WKTable().integral(g, (3 * g - 2,)) == \
            Fraction(1, 24 ** g * factorial(g))

    def test_cold_genus_14_one_point_fills_few_entries(self):
        # the largest-exponent recursion filled 5784 entries here
        table = WKTable()
        assert table.integral(14, (40,)) == Fraction(1, 24 ** 14 * factorial(14))
        assert len(table) < 1000


class TestRefusals:
    def test_negative_exponent_refused(self):
        with pytest.raises(ValueError):
            wk_integral(1, (-1, 3))
        with pytest.raises(ValueError):
            WKTable().integral(0, [0, 0, -1, 2])

    def test_negative_genus_refused(self):
        with pytest.raises(ValueError):
            wk_integral(-1, (1,))
        with pytest.raises(ValueError):
            WKTable().integral(-2, ())


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
        # a zero from the stability or degree check is not stored
        table = WKTable()
        assert table.integral(0, [0, 0]) == table.integral(1, []) == 0
        assert table.integral(2, [3]) == table.integral(0, [1, 1, 1]) == 0
        assert len(table) == 0


class TestKeyCanonicalisation:
    def test_memo_key_is_sorted(self):
        table = WKTable()
        assert table.integral(1, (2, 0, 1)) == Fraction(1, 12)
        assert sorted(key for key in table._psi
                      if len(key[1]) == 3) == [(1, (0, 1, 2))]

    def test_kappa_integral_rejects_negative_psi(self):
        with pytest.raises(ValueError):
            kappa_integral(1, 1, [-1], [2])

    def test_kappa_integral_rejects_negative_genus(self):
        with pytest.raises(ValueError, match="genus"):
            kappa_integral(-1, 5, None, [1])

    def test_hodge_monomial_rejects_negative_genus(self):
        # hodge_integral once read g = -1 as an empty space and gave 0
        with pytest.raises(ValueError, match="genus"):
            HodgeMonomial.of(-1, 3, None, [0, 0, 0])

    def test_kappa_integral_rejects_negative_markings(self):
        # n = -1 once read as no markings and gave the Mbar_{2,0} value
        with pytest.raises(ValueError, match="markings"):
            kappa_integral(2, -1, None, [3])
        with pytest.raises(ValueError, match="markings"):
            HodgeMonomial.of(2, -1)

    def test_kappa_integral_rejects_negative_kappa_index(self):
        with pytest.raises(ValueError, match="kappa"):
            kappa_integral(1, 1, [0], [-1, 2])


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
        assert kappa_integral(1, 1, [0], [1]) == Fraction(1, 24)

    def test_kappa1_on_m04(self):
        # oracle: <tau_2 tau_0^4>_0 = 1 by repeated string
        assert kappa_integral(0, 4, None, [1]) == 1
        assert genus0_string_oracle((2, 0, 0, 0, 0)) == 1

    def test_empty_kappa_delegates(self):
        assert kappa_integral(2, 1, [4], ()) == \
            wk_integral(2, [4]) == Fraction(1, 1152)

    def test_degree_mismatch_is_zero(self):
        assert kappa_integral(1, 1, None, [2]) == 0

    def test_of_accepts_marking_map(self):
        # kappa_1^2 -> two fresh points tau_2 tau_2, minus one tau_3
        want = wk_integral(1, [0, 0, 1, 2, 2]) - wk_integral(1, [0, 0, 1, 3])
        assert kappa_integral(1, 3, {2: 1}, [1, 1]) == \
            kappa_integral(1, 3, [0, 1, 0], [1, 1]) == want != 0


def faber_top_lambdas(g):
    """Faber's closed form for the integral of lambda_g lambda_{g-1}
    lambda_{g-2} over Mbar_g."""
    bern = [abs(b) for b in _bernoulli_numbers(2 * g + 1)]
    return (bern[2 * g - 2] * bern[2 * g]
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
