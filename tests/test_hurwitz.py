"""Hurwitz enumeration against a naive oracle and the former pruned DFS,
and the ELSV evaluation."""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial

import pytest

from pshodge.expr import parse_expression
from pshodge.hurwitz import (ENUMERATION_D_MAX, ENUMERATION_M_MAX,
                             EnumerationBoundError, HurwitzInstance,
                             canonical_permutation, count_factorizations,
                             elsv_value, hurwitz_brute, riemann_hurwitz_m)
from pshodge.multiset import compositions, partitions
from pshodge.strata import expr_integral, is_pseudostable


def naive_count(target, m):
    """Plain itertools enumeration without any pruning (tiny cases only)."""
    d = len(target)
    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            perm = list(range(d))
            perm[i], perm[j] = j, i
            transpositions.append((tuple(perm), (i, j)))
    if d == 1:
        return 1 if m == 0 else 0
    count = 0
    for combo in iproduct(transpositions, repeat=m):
        prod = tuple(range(d))
        for perm, _ in combo:
            prod = tuple(perm[prod[x]] for x in range(d))
        if prod != target:
            continue
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for _, (i, j) in combo:
            parent[find(i)] = find(j)
        if len({find(x) for x in range(d)}) == 1:
            count += 1
    return count


def reference_count(target, m):
    """The former ``count_factorizations``: a depth-first search over every
    transposition tuple with the minimum-transposition and parity prunes,
    kept as a differential oracle for the state search."""
    d = len(target)
    if d == 1:
        return 1 if m == 0 and target == (0,) else 0

    def compose(p, q):
        return tuple(q[p[x]] for x in range(len(p)))

    def inverse(p):
        out = [0] * len(p)
        for x, y in enumerate(p):
            out[y] = x
        return tuple(out)

    def cycle_count(p):
        seen = [False] * len(p)
        c = 0
        for x in range(len(p)):
            if not seen[x]:
                c += 1
                while not seen[x]:
                    seen[x] = True
                    x = p[x]
        return c

    def transitive(pairs):
        parent = list(range(d))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in pairs:
            parent[find(i)] = find(j)
        return len({find(x) for x in range(d)}) == 1

    transpositions = []
    for i in range(d):
        for j in range(i + 1, d):
            perm = list(range(d))
            perm[i], perm[j] = j, i
            transpositions.append((tuple(perm), (i, j)))

    count = 0
    chosen = []

    def rec(partial, depth):
        nonlocal count
        remaining = m - depth
        need = d - cycle_count(compose(inverse(partial), target))
        if need > remaining or (remaining - need) % 2:
            return
        if depth == m:
            if transitive(chosen):
                count += 1
            return
        for perm, pair in transpositions:
            chosen.append(pair)
            rec(compose(partial, perm), depth + 1)
            chosen.pop()

    rec(tuple(range(d)), 0)
    return count


class TestBruteForce:
    def test_single_transposition(self):
        assert hurwitz_brute(HurwitzInstance.of((2,), 1)) == 1

    def test_three_factors_s2(self):
        assert hurwitz_brute(HurwitzInstance.of((2,), 3)) == 1

    def test_identity_s3(self):
        assert hurwitz_brute(HurwitzInstance.of((1, 1, 1), 4)) == 24

    @pytest.mark.parametrize("mu,m", [
        ((2,), 1), ((2,), 2), ((2,), 3),
        ((1, 1), 2), ((1, 1), 4),
        ((3,), 2), ((3,), 4),
        ((2, 1), 3), ((1, 1, 1), 4),
    ])
    def test_against_naive_enumeration(self, mu, m):
        target = canonical_permutation(mu)
        assert count_factorizations(target, m) == naive_count(target, m)

    def test_matches_reference_dfs(self):
        cases = [(mu, m) for d in range(1, 6) for mu in partitions(d)
                 for m in range(6)]
        cases += [(mu, m) for mu in partitions(6) for m in range(5)]
        for mu, m in cases:
            target = canonical_permutation(mu)
            assert count_factorizations(target, m) == \
                reference_count(target, m), (mu, m)

    def test_matches_reference_dfs_conjugated(self):
        rng = random.Random(5)
        for mu, m in [((2, 1), 5), ((3, 1), 4), ((2, 2), 4), ((3, 2), 5),
                      ((2, 1, 1), 5), ((4, 2), 4)]:
            target = canonical_permutation(mu)
            d = len(target)
            conj = target
            while conj == target:
                sigma = list(range(d))
                rng.shuffle(sigma)
                inv = [0] * d
                for x, y in enumerate(sigma):
                    inv[y] = x
                conj = tuple(sigma[target[inv[x]]] for x in range(d))
            assert count_factorizations(conj, m) == \
                reference_count(conj, m), (mu, m, conj)

    def test_genus_one_at_the_guard(self):
        # the largest genus-one inputs the guard admits
        assert hurwitz_brute(HurwitzInstance.of((3, 3), 8)) == 6429780
        assert elsv_value(1, (3, 3)) == 6429780
        assert hurwitz_brute(HurwitzInstance.of((4, 2), 8)) == 6307840
        assert elsv_value(1, (4, 2)) == 6307840

    def test_parity_vanishing(self):
        assert hurwitz_brute(HurwitzInstance.of((2,), 2)) == 0
        assert hurwitz_brute(HurwitzInstance.of((3,), 3)) == 0
        assert hurwitz_brute(HurwitzInstance.of((1, 1, 1), 3)) == 0

    def test_conjugation_invariance(self):
        rng = random.Random(11)
        for mu, m in [((2, 1), 3), ((3,), 4), ((2, 2), 4)]:
            target = canonical_permutation(mu)
            d = len(target)
            sigma = list(range(d))
            rng.shuffle(sigma)
            inv = [0] * d
            for x, y in enumerate(sigma):
                inv[y] = x
            conj = tuple(sigma[target[inv[x]]] for x in range(d))
            assert count_factorizations(conj, m) == \
                count_factorizations(target, m)

    def test_opposite_composition_convention(self):
        # reversing the tuple inverts the product; counting factorizations
        # of the inverse target under the same convention matches
        for mu, m in [((2, 1), 3), ((3,), 4)]:
            target = canonical_permutation(mu)
            d = len(target)
            inverse = [0] * d
            for x, y in enumerate(target):
                inverse[y] = x
            assert count_factorizations(target, m) == \
                count_factorizations(tuple(inverse), m)

    def test_resource_guard(self):
        with pytest.raises(EnumerationBoundError):
            hurwitz_brute(HurwitzInstance.of((7,), 1))
        with pytest.raises(EnumerationBoundError):
            hurwitz_brute(HurwitzInstance.of((2,), ENUMERATION_M_MAX + 1))
        # boundary values are accepted (parity prunes this one instantly)
        assert hurwitz_brute(HurwitzInstance.of((6,), 8)) == 0
        assert ENUMERATION_D_MAX == 6


class TestRiemannHurwitz:
    def test_values(self):
        assert riemann_hurwitz_m(0, (1, 1, 1)) == 4
        assert riemann_hurwitz_m(1, (2,)) == 3
        assert riemann_hurwitz_m(0, (2,)) == 1

    def test_genus_round_trip(self):
        inst = HurwitzInstance.of((2, 1), riemann_hurwitz_m(1, (2, 1)))
        assert inst.genus() == 1


class TestELSV:
    def test_torus_double_cover(self):
        assert elsv_value(1, (2,)) == 1

    def test_rational_identity_target(self):
        assert elsv_value(0, (1, 1, 1)) == 24

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            elsv_value(0, (2, 1))

    @pytest.mark.parametrize("g,mu", [
        (1, (1,)), (2, (1,)),       # no transpositions exist in S_1
        (1, (2,)), (1, (1, 1)),
        (1, (3,)), (0, (1, 1, 1)),
        (1, (2, 1)), (2, (2,)),
    ])
    def test_agreement_small(self, g, mu):
        m = riemann_hurwitz_m(g, mu)
        assert m <= 6
        assert elsv_value(g, mu) == hurwitz_brute(HurwitzInstance.of(mu, m))


def elsv_integrand(g, mu):
    """Top degree of ``(1 - lambda_1 + ...) / prod(1 - mu_i psi_i)`` on
    Mbar_{g,l}, as expression text."""
    dim = 3 * g - 3 + len(mu)
    terms = []
    for j in range(min(g, dim) + 1):
        for exps in compositions(dim - j, len(mu)):
            coeff = (-1) ** j
            factors = [f"lambda{j}"] if j else []
            for i, (mu_i, e_i) in enumerate(zip(mu, exps), start=1):
                coeff *= mu_i ** e_i
                if e_i:
                    factors.append(f"psi{i}^{e_i}")
            terms.append("*".join([str(coeff)] + factors))
    return " + ".join(terms)


class TestPseudostableTargetCurves:
    """The paper's statement for target curves: integrals linear in lambda
    agree on the pseudostable and stable spaces, so ELSV over the
    pseudostable space still gives Hurwitz numbers."""

    def test_pseudostable_elsv_equals_hurwitz(self):
        checked = 0
        for d in range(1, 6):
            for mu in partitions(d):
                for g in range(4):
                    m = riemann_hurwitz_m(g, mu)
                    if m > 8 or not is_pseudostable(g, len(mu)):
                        continue
                    expression = parse_expression(elsv_integrand(g, mu),
                                                  g, len(mu))
                    prefactor = Fraction(factorial(m))
                    for mu_i in mu:
                        prefactor *= Fraction(mu_i ** (mu_i + 1),
                                              factorial(mu_i))
                    ps = prefactor * expr_integral(g, len(mu), expression,
                                                   space="ps")
                    stable = prefactor * expr_integral(g, len(mu), expression,
                                                       space="stable")
                    brute = hurwitz_brute(HurwitzInstance.of(mu, m))
                    assert ps == stable == elsv_value(g, mu) == brute, \
                        (g, mu, ps, stable, brute)
                    checked += 1
        assert checked == 32
