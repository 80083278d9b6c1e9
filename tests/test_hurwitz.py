"""Hurwitz counts from the characters of S_d against a naive oracle, the
former pruned DFS and the former state search; sanity checks of the
characters that use no Hurwitz count; the ELSV evaluation; and one-point
linear Hodge integrals solved back from Hurwitz counts."""

import random
from fractions import Fraction
from itertools import product as iproduct
from math import factorial, prod

import pytest

from pshodge.expr import parse_expression
from pshodge.hodge import HodgeMonomial, hodge_integral
from pshodge.hurwitz import (ENUMERATION_D_MAX, ENUMERATION_M_MAX,
                             EnumerationBoundError, HurwitzInstance,
                             _character, _dimension, count_factorizations,
                             elsv_value, hurwitz_brute, riemann_hurwitz_m)
from pshodge.multiset import compositions, counts, partitions
from pshodge.strata import expr_integral, is_pseudostable


def canonical_permutation(mu):
    """The permutation of {0..d-1} with cycles ``(0..mu_1-1)(mu_1..)...``,
    for the permutation oracles below.

    >>> canonical_permutation((2, 1))
    (1, 0, 2)
    """
    perm, start = [], 0
    for part in mu:
        perm += [*range(start + 1, start + part), start]
        start += part
    return tuple(perm)


def cycle_type(perm):
    """The cycle lengths of ``perm``, ascending."""
    lengths, seen = [], set()
    for x in range(len(perm)):
        length = 0
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


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
    """An earlier ``count_factorizations``: a depth-first search over every
    transposition tuple with the minimum-transposition and parity prunes,
    kept as a differential oracle."""
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


def state_search_count(target, m):
    """The former ``count_factorizations``: a search over states
    ``(residual, blocks, remaining)`` (the permutation the factors still to
    be chosen must multiply to, the points joined into blocks so far, each
    mapped to the smallest point of its block, and the factors left), each
    counted once per call.  Kept as a differential oracle for the
    character count.

    Three prunes discard only states that cannot complete: the
    minimum-transposition count ``d - c`` for a residual with c cycles, its
    parity, and ``remaining >= c + 2b - d - 2`` for b blocks.  The last is
    Riemann--Hurwitz: if the remaining factors generate a group with k
    orbits, they need at least ``d + c - 2k`` factors, and the blocks and
    orbits link all d points only if ``d >= b + k - 1``."""
    d = len(target)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    connected = (0,) * d
    memo = {}

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

    def completions(residual, blocks, remaining):
        cycles = cycle_count(residual)
        need = d - cycles
        if need > remaining or (remaining - need) % 2:
            return 0
        if remaining < cycles + 2 * len(set(blocks)) - d - 2:
            return 0
        key = (residual, blocks, remaining)
        if key in memo:
            return memo[key]
        if remaining == 0:
            count = 1 if blocks == connected else 0
        else:
            count = 0
            for i, j in pairs:
                # choosing (i j) next leaves (i j) * residual to the rest
                rest = list(residual)
                rest[i], rest[j] = residual[j], residual[i]
                bi, bj = blocks[i], blocks[j]
                if bi == bj:
                    joined = blocks
                else:
                    low, high = min(bi, bj), max(bi, bj)
                    joined = tuple(low if b == high else b for b in blocks)
                count += completions(tuple(rest), joined, remaining - 1)
        memo[key] = count
        return count

    return completions(tuple(target), tuple(range(d)), m)


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
        assert count_factorizations(mu, m) == naive_count(target, m)

    def test_matches_reference_dfs(self):
        cases = [(mu, m) for d in range(1, 6) for mu in partitions(d)
                 for m in range(6)]
        cases += [(mu, m) for mu in partitions(6) for m in range(5)]
        for mu, m in cases:
            assert count_factorizations(mu, m) == \
                reference_count(canonical_permutation(mu), m), (mu, m)

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
            assert cycle_type(conj) == tuple(sorted(mu))
            assert count_factorizations(cycle_type(conj), m) == \
                reference_count(conj, m) == \
                state_search_count(conj, m), (mu, m, conj)

    def test_matches_state_search(self):
        # every (mu, m) the former guard d <= 6, m <= 8 admitted, zeros too
        cases = [(mu, m) for d in range(1, 7) for mu in partitions(d)
                 for m in range(9)]
        assert len(cases) == 261
        for mu, m in cases:
            assert count_factorizations(mu, m) == \
                state_search_count(canonical_permutation(mu), m), (mu, m)

    def test_genus_one_at_the_guard(self):
        # the largest genus-one inputs the former guard d <= 6, m <= 8 admitted
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
            assert state_search_count(conj, m) == \
                state_search_count(target, m) == \
                count_factorizations(cycle_type(conj), m)

    def test_opposite_composition_convention(self):
        # reversing the tuple inverts the product; counting factorizations
        # of the inverse target under the same convention matches
        for mu, m in [((2, 1), 3), ((3,), 4)]:
            target = canonical_permutation(mu)
            d = len(target)
            inverse = [0] * d
            for x, y in enumerate(target):
                inverse[y] = x
            assert state_search_count(tuple(inverse), m) == \
                state_search_count(target, m) == \
                count_factorizations(cycle_type(inverse), m)

    def test_resource_guard(self):
        bound = "bound is d <= 20, m <= 40"
        with pytest.raises(EnumerationBoundError, match=bound):
            hurwitz_brute(HurwitzInstance.of((21,), 1))
        with pytest.raises(EnumerationBoundError, match=bound):
            hurwitz_brute(HurwitzInstance.of((2,), ENUMERATION_M_MAX + 1))
        # boundary values are accepted; parity zeroes the first at once,
        # the d-cycle has d^(d-2) minimal factorizations (Denes), and an
        # odd number of (1 2) multiplies to (1 2)
        assert hurwitz_brute(HurwitzInstance.of((20,), 40)) == 0
        assert hurwitz_brute(HurwitzInstance.of((20,), 19)) == 20 ** 18
        assert hurwitz_brute(HurwitzInstance.of((2,), 39)) == 1
        assert (ENUMERATION_D_MAX, ENUMERATION_M_MAX) == (20, 40)


class TestCharacters:
    """Character identities of S_d, d <= 8, that use no Hurwitz count."""

    @pytest.mark.parametrize("d", range(1, 9))
    def test_orthogonality(self, d):
        memo = {}
        lams = list(partitions(d))
        dims = [_dimension(lam) for lam in lams]
        assert sum(x * x for x in dims) == factorial(d)
        # the hook-length formula agrees with chi at the identity
        assert [_character(lam, (1,) * d, memo) for lam in lams] == dims
        for mu in partitions(d):
            mu = mu[::-1]
            chi = [_character(lam, mu, memo) for lam in lams]
            z_mu = prod(p ** c * factorial(c) for p, c in counts(mu).items())
            assert sum(x * x for x in chi) == z_mu, mu
            regular = sum(x * y for x, y in zip(dims, chi))
            assert regular == (factorial(d) if mu == (1,) * d else 0), mu


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

    @pytest.mark.parametrize("g, mu", [
        (0, (0, 1, 2)), (2, ()), (0, (-1, 2, 3))])
    def test_non_partition_rejected_like_an_instance(self, g, mu):
        # ELSV and the brute count normalise mu through one helper
        message = "mu must be a partition with positive parts"
        with pytest.raises(ValueError, match=message):
            elsv_value(g, mu)
        with pytest.raises(ValueError, match=message):
            HurwitzInstance.of(mu, riemann_hurwitz_m(g, mu))

    def test_parts_in_any_order(self):
        assert elsv_value(1, [1, 2]) == elsv_value(1, (2, 1))
        assert HurwitzInstance.of([1, 3, 2], 4).mu == (3, 2, 1)

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

    @pytest.mark.parametrize("g,mu", [
        (1, (3, 2, 2, 1, 1, 1)), (1, (6, 5, 4, 1, 1, 1)),
        (2, (2, 2, 1, 1, 1, 1)), (2, (5, 3, 3, 2, 1)),
        (3, (1, 1, 1, 1, 1, 1)), (3, (7, 4, 2, 1, 1)), (3, (4, 2, 1, 1)),
        (4, (3, 3, 2, 1, 1)), (4, (5, 3, 2, 1)), (4, (9, 7)), (4, (3,)),
    ])
    def test_agreement_beyond_the_former_guard(self, g, mu):
        # linear Hodge integrals with up to 6 points and genus up to 4
        m = riemann_hurwitz_m(g, mu)
        assert m > 8
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


def solve_exactly(matrix, rhs):
    """The solution of a nonsingular square system, by Gauss--Jordan
    elimination over ``Fraction``s."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)]
            for row, b in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                factor = row[col]
                rows[r] = [x - factor * y for x, y in zip(row, rows[col])]
    return [row[-1] for row in rows]


class TestInverseELSV:
    """Linear Hodge integrals from Hurwitz counts alone.  By ELSV with
    mu = (d), the count ``h_{(d)}`` over ``m! d^{d+1}/d!`` is
    ``sum_j (-1)^j d^{3g-2-j} <lambda_j tau_{3g-2-j}>_g``; the g + 1
    counts at d = 1..g+1 fix the g + 1 unknowns.  No GRR, WK or strata
    code takes part in the solve."""

    @pytest.mark.parametrize("g", range(2, 7))
    def test_one_point_integrals_from_counts(self, g):
        top = 3 * g - 2
        matrix, rhs = [], []
        for d in range(1, g + 2):
            m = 2 * g - 1 + d
            count = hurwitz_brute(HurwitzInstance.of((d,), m))
            rhs.append(Fraction(count * factorial(d),
                                factorial(m) * d ** (d + 1)))
            matrix.append([(-1) ** j * d ** (top - j) for j in range(g + 1)])
        for j, value in enumerate(solve_exactly(matrix, rhs)):
            assert value, (g, j)
            assert value == hodge_integral(HodgeMonomial.of(
                g, 1, {j: 1} if j else None, [top - j])), (g, j)
            # the paper's linear theorem: the ps integral is the same
            text = f"lambda{j}*psi1^{top - j}" if j else f"psi1^{top}"
            assert expr_integral(g, 1, parse_expression(text, g, 1),
                                 "ps") == value, (g, j)
