"""Acceptance suite: the eight exit criteria, all exact, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines and timings.
"""

import random
import time
from fractions import Fraction
from math import factorial

from pshodge.hodge import (HodgeMonomial, bell_polynomial, hodge_integral,
                           kappa_integral)
from pshodge.hurwitz import (HurwitzInstance, elsv_value, hurwitz_brute,
                             riemann_hurwitz_m)
from pshodge.multiset import compositions, partitions
from pshodge.selfcheck import (kappa_random_order, mumford_relation_terms,
                               random_taut_class)
from pshodge.strata import (TautClass, class_integrate, class_multiply,
                            hat_lambda, is_pseudostable, t_pullback_ch,
                            _make_term)
from pshodge.wk import is_stable, wk_integral


def report(number, label, t0, extra=""):
    dt = time.time() - t0
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {number} ({label}): PASS in {dt:.2f}s{suffix}")


def test_criterion_1_one_pointed_psi():
    t0 = time.time()
    for g in range(1, 7):
        value = wk_integral(g, [3 * g - 2])
        assert value == Fraction(1, 24 ** g * factorial(g)), g
    report(1, "one-pointed psi values g=1..6", t0)


def test_criterion_2_mumford_relation_suite():
    t0 = time.time()
    checked = 0
    for g in range(1, 5):
        for n in range(0, 3):
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
                    checked += 1
    report(2, "Mumford relations g<=4 n<=2", t0, f"{checked} classes")


def test_criterion_3_linear_hodge_equality():
    t0 = time.time()
    checked = 0
    for g in range(1, 5):
        for n in range(1, 4):
            if not is_pseudostable(g, n):
                continue
            dim = 3 * g - 3 + n
            for j in range(1, g + 1):
                corrected = hat_lambda(g, n, j)
                for exps in compositions(dim - j, n):
                    ps = class_integrate(class_multiply(
                        corrected, TautClass.psi_monomial(g, n, exps)))
                    stable = hodge_integral(
                        HodgeMonomial.of(g, n, {j: 1}, exps))
                    assert ps == stable, (g, n, j, exps)
                    checked += 1
    report(3, "linear Hodge equality g<=4 n<=3", t0, f"{checked} monomials")


def test_criterion_4_mumford_failure_series():
    t0 = time.time()
    from pshodge.expr import parse_expression
    from pshodge.strata import expr_integral
    for g in range(2, 6):
        for n in range(1, 4):
            power = 3 * g - 5 + n
            e = parse_expression(f"(2*lambda2 - lambda1^2)*psi1^{power}", g, n)
            value = expr_integral(g, n, e, "ps")
            assert value == Fraction(-1, 24 ** g * factorial(g - 1)), (g, n)
    report(4, "Mumford-failure series g=2..5 n=1..3", t0)


def test_criterion_5_elsv_cross_check():
    t0 = time.time()
    # the region d <= 6, m <= 8 that the former enumeration guard admitted
    checked = 0
    for d in range(1, 7):
        for mu in partitions(d):
            for g in range(0, 4):
                if not is_stable(g, len(mu)):
                    continue
                m = riemann_hurwitz_m(g, mu)
                if m > 8:
                    continue
                brute = hurwitz_brute(HurwitzInstance.of(mu, m))
                formula = elsv_value(g, mu)
                assert formula == brute, (g, mu, m, brute, formula)
                checked += 1
    assert checked == 46
    report(5, "ELSV cross-check |mu|<=6 m<=8", t0, f"{checked} instances")


def test_criterion_6_strata_conformance():
    t0 = time.time()
    # (a) the pinned square expansion, as a normalised class
    for g, n in [(3, 1), (4, 2)]:
        square = class_multiply(hat_lambda(g, n, 1), hat_lambda(g, n, 1))
        expected = TautClass.from_terms(g, n, [
            _make_term(g, n, 1, (), (1, 1), (0,) * n),
            _make_term(g, n, 2, ((0, 0),), (1,), (0,) * n),
            _make_term(g, n, 1, ((0, 1),), (), (0,) * n),
            _make_term(g, n, -1, ((1, 0),), (), (0,) * n),
            _make_term(g, n, 1, ((0, 0), (0, 0)), (), (0,) * n),
        ])
        assert square == expected, (g, n)

    # (b) Bell consistency and the recursion identity for k <= 3,
    #     each integrated against >= 20 sampled psi monomials
    rng = random.Random(20240701)
    ambients = [(4, 2), (4, 3)]

    def z_class(g, n, l):
        return (Fraction((-1) ** (l - 1) * factorial(l - 1) * factorial(l))
                * t_pullback_ch(g, n, l))

    for k in range(0, 4):
        j = k + 1
        bell_checked = 0
        rec_checked = 0
        for g, n in ambients:
            dim = 3 * g - 3 + n
            zs = [z_class(g, n, l) for l in range(1, j + 1)]
            assembled = Fraction(1, factorial(j)) * bell_polynomial(
                j, zs, one=TautClass.one(g, n))
            direct = hat_lambda(g, n, j)
            lhs = (k + 1) * hat_lambda(g, n, k + 1)
            rhs = TautClass.zero(g, n)
            for jj in range(0, k + 1):
                rhs = rhs + Fraction(1, factorial(jj)) * class_multiply(
                    z_class(g, n, jj + 1), hat_lambda(g, n, k - jj))
            pool = list(compositions(dim - j, n))
            sample = rng.sample(pool, min(12, len(pool)))
            for exps in sample:
                mono = TautClass.psi_monomial(g, n, exps)
                assert class_integrate(class_multiply(assembled, mono)) == \
                    class_integrate(class_multiply(direct, mono)), (k, exps)
                assert class_integrate(class_multiply(lhs, mono)) == \
                    class_integrate(class_multiply(rhs, mono)), (k, exps)
                bell_checked += 1
                rec_checked += 1
        assert bell_checked >= 20 and rec_checked >= 20, k
    report(6, "strata conformance (square display, Bell, recursion k<=3)", t0)


def test_criterion_7_algebra_properties():
    t0 = time.time()
    rng = random.Random(424242)
    ambients = [(2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2)]
    for trial in range(100):
        g, n = rng.choice(ambients)
        a = random_taut_class(rng, g, n, max_tails=3)
        b = random_taut_class(rng, g, n, max_tails=3)
        c = random_taut_class(rng, g, n, max_tails=3)
        ab = class_multiply(a, b)
        assert ab == class_multiply(b, a), (trial, g, n)
        assert class_multiply(ab, c) == \
            class_multiply(a, class_multiply(b, c)), (trial, g, n)
    report(7, "algebra properties on 100 random triples", t0)


def test_criterion_8_kappa_reduction():
    t0 = time.time()
    assert kappa_integral(1, 1, (0,), (1,)) == Fraction(1, 24)
    rng = random.Random(314159)
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
        reference = kappa_integral(g, n, psi, kap)
        for _ in range(3):
            shuffled = kappa_random_order(
                g, tuple(sorted(psi)), tuple(sorted(kap)), rng)
            assert shuffled == reference, (g, n, psi, kap)
        done += 1
    report(8, "kappa order-independence (50 monomials) and kappa_1 value", t0)
