r"""Desk-scale consistency suites behind the ``selfcheck`` command.

Each suite re-derives a family of identities that pin the engine's
conventions: the string/dilaton structure of psi correlators, the
vanishing forced by the multiplicative inverse relation between the
Chern classes of the Hodge bundle and its dual, closed forms from the
literature for lambda_g, lambda_g lambda_{g-1} and lambda_g lambda_{g-1}
lambda_{g-2} integrals, equality of pseudostable and stable integrals in
the lambda-linear range, two observed nonlinear pseudostable identities,
agreement of the transposition-factorization counts with their
Hodge-integral evaluation, and the ring axioms of the strata algebra.
All checks are exact; the random instances are drawn from a fixed seed
so that reports are reproducible and independent of any warm cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from .expr import parse_expression
from .hodge import (HodgeMonomial, bell_polynomial, hodge_integral,
                    kappa_integral)
from .hurwitz import HurwitzInstance, elsv_value, hurwitz_brute, riemann_hurwitz_m
from .multiset import compositions, partitions, sub_multisets
from .strata import (TautClass, class_integrate, class_multiply,
                     expr_integral, hat_lambda, is_pseudostable,
                     t_pullback_ch, _make_term)
from .wk import default_table, is_stable, wk_integral

__all__ = ["SuiteResult", "run_all", "mumford_relation_terms",
           "random_taut_class", "kappa_random_order"]

DEFAULT_SEED = 20240701


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str = ""
    failures: list = field(default_factory=list)

    def record(self, condition, what):
        if not condition:
            self.passed = False
            self.failures.append(what)
            if not self.detail:
                self.detail = str(what)


def mumford_relation_terms(g, d):
    """Degree-d part of ``c(E) c(E^dual) - 1`` as ``(coeff, lambda_exp)`` pairs.

    The relation forces the integral of each part (times any complementary
    psi monomial) to vanish on Mbar_{g,n}.
    """
    out = []
    for i in range(0, d + 1):
        j = d - i
        if i > g or j > g:
            continue
        lam = {}
        for idx in (i, j):
            if idx:
                lam[idx] = lam.get(idx, 0) + 1
        out.append(((-1) ** j, tuple(sorted(lam.items()))))
    return out


def random_taut_class(rng, g, n, max_terms=3, max_tails=2):
    """A small random strata class on Mbar_{g,n} (for the algebra suites)."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        i = rng.randint(0, max_tails)
        tails = tuple(sorted((rng.randint(0, 2), rng.randint(0, 1))
                             for _ in range(i)))
        lam = [rng.randint(1, max(1, g - i))
               for _ in range(rng.randint(0, 2))]
        psi = tuple(rng.randint(0, 2) for _ in range(n))
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        terms.append(_make_term(g, n, coeff, tails, lam, psi))
    return TautClass.from_terms(g, n, terms)


def suite_wk_properties():
    """String/dilaton/symmetry, the genus-zero closed form and
    ``<tau_{3g-2}>_g = 1/(24^g g!)`` for g <= 10."""
    result = SuiteResult("wk-properties", True)
    table = default_table()
    # string and dilaton over a small exhaustive grid
    for g in range(0, 3):
        for n in range(1, 6):
            dim = 3 * g - 3 + n
            if dim < 0 or not is_stable(g, n):
                continue
            for d in compositions(dim, n):
                base = table.integral(g, d)
                # string: bump one exponent, append a tau_0 insertion
                for k in range(n):
                    bumped = d[:k] + (d[k] + 1,) + d[k + 1:]
                    lhs = table.integral(g, bumped + (0,))
                    rhs = sum((table.integral(
                        g, bumped[:t] + (bumped[t] - 1,) + bumped[t + 1:])
                        for t in range(n) if bumped[t] >= 1), Fraction(0))
                    result.record(lhs == rhs, ("string", g, bumped))
                # dilaton: append a tau_1 insertion
                dil = table.integral(g, tuple(d) + (1,))
                result.record(dil == (2 * g - 2 + n) * base, ("dilaton", g, d))
    # genus-zero closed form
    for n in range(3, 8):
        for d in compositions(n - 3, n):
            closed = Fraction(factorial(n - 3))
            for x in d:
                closed /= factorial(x)
            result.record(table.integral(0, d) == closed, ("genus0", d))
    for g in range(1, 11):
        result.record(table.integral(g, (3 * g - 2,))
                      == Fraction(1, 24 ** g * factorial(g)), ("one-point", g))
    return result


def kappa_random_order(g, psi, kappa, rng):
    """Un-memoised kappa/psi integral for sorted tuples, eliminating the
    kappa factors in random order.  Any sub-multiset of the other kappa
    factors is absorbed into the fresh point's psi exponent with an
    alternating sign."""
    if not kappa:
        return wk_integral(g, psi)
    n = len(psi)
    if not is_stable(g, n) or sum(psi) + sum(kappa) != 3 * g - 3 + n:
        return Fraction(0)
    pick = rng.randrange(len(kappa))
    value = Fraction(0)
    for chosen, remaining, mult in sub_multisets(kappa[:pick]
                                                 + kappa[pick + 1:]):
        sign = -1 if len(chosen) % 2 else 1
        e = kappa[pick] + 1 + sum(chosen)
        value += sign * mult * kappa_random_order(
            g, tuple(sorted(psi + (e,))), remaining, rng)
    return value


def suite_kappa_order(seed=DEFAULT_SEED, trials=25):
    """kappa elimination is independent of the elimination order."""
    result = SuiteResult("kappa-order-independence", True)
    rng = random.Random(seed)
    result.record(kappa_integral(1, 1, (0,), (1,)) == Fraction(1, 24),
                  "kappa_1 on Mbar_{1,1}")
    result.record(kappa_integral(0, 4, (0, 0, 0, 0), (1,)) == 1,
                  "kappa_1 on Mbar_{0,4}")
    done = 0
    while done < trials:
        g = rng.randint(0, 2)
        n = rng.randint(1, 3)
        if not is_stable(g, n):
            continue
        dim = 3 * g - 3 + n
        if not 0 <= dim <= 8:
            continue
        kap = []
        left = dim
        for _ in range(rng.randint(1, 3)):
            if left <= 0:
                break
            a = rng.randint(1, left)
            kap.append(a)
            left -= a
        psi = [0] * n
        for _ in range(left):
            psi[rng.randrange(n)] += 1
        want = kappa_integral(g, n, tuple(psi), tuple(kap))
        again = kappa_random_order(
            g, tuple(sorted(psi)), tuple(sorted(kap)), rng)
        result.record(want == again, ("order", g, n, tuple(psi), tuple(kap)))
        done += 1
    return result


def suite_mumford(gmax=3, nmax=1):
    """Every homogeneous part of c(E)c(E^dual) - 1 integrates to zero."""
    result = SuiteResult("mumford-relations", True)
    for g in range(1, gmax + 1):
        for n in range(0, nmax + 1):
            if not is_stable(g, n):
                continue
            dim = 3 * g - 3 + n
            for deg in range(1, min(2 * g, dim) + 1):
                terms = mumford_relation_terms(g, deg)
                if not terms:
                    continue
                for exps in compositions(dim - deg, n):
                    total = sum(
                        (coeff * hodge_integral(HodgeMonomial.of(g, n, lam, exps))
                         for coeff, lam in terms), Fraction(0))
                    result.record(total == 0, ("mumford", g, n, deg, exps))
    return result


def _bernoulli_numbers(count):
    """``B_0 .. B_{count-1}`` by the Akiyama--Tanigawa algorithm (so
    ``B_1 = +1/2``), a route that shares no code with
    :func:`pshodge.hodge.bernoulli`."""
    row, out = [], []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    return out


def _lambda_g_one_point(h, bern):
    """Faber--Pandharipande's ``b_h = int_{Mbar_{h,1}} psi^{2h-2} lambda_h
    = (2^{2h-1} - 1)/2^{2h-1} * |B_{2h}|/(2h)!``; ``bern[m]`` is ``|B_m|``."""
    return (Fraction(2 ** (2 * h - 1) - 1, 2 ** (2 * h - 1))
            * bern[2 * h] / factorial(2 * h))


def suite_hodge_closed_forms(gmax=5):
    """Closed forms for lambda_g psi (Faber--Pandharipande and the lambda_g
    formula, n <= 3), lambda_g lambda_{g-1} psi (n <= 2, g >= 2) and
    Faber's lambda_g lambda_{g-1} lambda_{g-2}, for g <= gmax."""
    result = SuiteResult("hodge-closed-forms", True)
    bern = [abs(b) for b in _bernoulli_numbers(2 * gmax + 1)]
    for g in range(1, gmax + 1):
        b_g = _lambda_g_one_point(g, bern)
        # lambda_g formula: int psi^d lambda_g = binom(2g-3+n; d) b_g; at
        # n = 1 it is b_g itself
        for n in range(1, 4):
            for d in compositions(2 * g - 3 + n, n):
                closed = (factorial(2 * g - 3 + n) * b_g
                          / prod(factorial(x) for x in d))
                result.record(hodge_integral(HodgeMonomial.of(g, n, {g: 1}, d))
                              == closed, ("lambda_g", g, d))
        if g < 2:
            continue
        # int psi^d lambda_g lambda_{g-1}
        #   = (2g-3+n)! |B_2g| / (2^{2g-1} (2g)! prod (2d_i - 1)!!)
        for n in range(1, 3):
            for d in compositions(g - 2 + n, n):
                closed = Fraction(factorial(2 * g - 3 + n)) * bern[2 * g] / (
                    2 ** (2 * g - 1) * factorial(2 * g)
                    * prod(prod(range(1, 2 * x, 2)) for x in d))
                mono = HodgeMonomial.of(g, n, {g: 1, g - 1: 1}, d)
                result.record(hodge_integral(mono) == closed,
                              ("lambda_g lambda_g-1", g, d))
        # Faber: int_{Mbar_g} lambda_g lambda_{g-1} lambda_{g-2}
        closed = (bern[2 * g - 2] * bern[2 * g]
                  / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))
        lam = {j: 1 for j in (g, g - 1, g - 2) if j}
        result.record(hodge_integral(HodgeMonomial.of(g, 0, lam)) == closed,
                      ("faber", g))
    return result


def suite_linear_hodge(gmax=3, nmax=2):
    """Pseudostable equals stable for lambda-linear integrands."""
    result = SuiteResult("linear-hodge-equality", True)
    for g in range(1, gmax + 1):
        for n in range(1, nmax + 1):
            if not is_pseudostable(g, n):
                continue
            dim = 3 * g - 3 + n
            for j in range(1, g + 1):
                corrected = hat_lambda(g, n, j)
                for exps in compositions(dim - j, n):
                    ps = class_integrate(class_multiply(
                        corrected, TautClass.psi_monomial(g, n, exps)))
                    stable = hodge_integral(HodgeMonomial.of(g, n, {j: 1}, exps))
                    result.record(ps == stable, ("linear", g, n, j, exps))
    return result


def suite_ps_nonlinear(gmax=5):
    """Two nonlinear pseudostable identities on Mbar^ps_{g,1}, g = 2..gmax.
    Both are observed in the engine's values, not derived:
    ``int_ps lambda_g^2 psi_1^{g-2} = 1/(24^g g!)``, while stably
    ``lambda_g^2 = 0`` (Mumford), and ``int_ps - int_stable`` of
    ``lambda_g lambda_1 psi_1^{2g-3}`` is ``b_{g-1}/24``."""
    result = SuiteResult("ps-nonlinear", True)
    bern = [abs(b) for b in _bernoulli_numbers(2 * gmax - 1)]
    for g in range(2, gmax + 1):
        square = parse_expression(f"lambda{g}^2*psi1^{g - 2}", g, 1)
        result.record(expr_integral(g, 1, square, "ps")
                      == Fraction(1, 24 ** g * factorial(g)),
                      ("lambda_g^2 ps", g))
        result.record(expr_integral(g, 1, square, "stable") == 0,
                      ("lambda_g^2 stable", g))
        mixed = parse_expression(f"lambda{g}*lambda1*psi1^{2 * g - 3}", g, 1)
        excess = (expr_integral(g, 1, mixed, "ps")
                  - expr_integral(g, 1, mixed, "stable"))
        result.record(excess == _lambda_g_one_point(g - 1, bern) / 24,
                      ("lambda_g lambda_1 excess", g))
    return result


def suite_elsv(dmax=7, mmax=13):
    """Transposition counts match their Hodge-integral evaluation, for
    genus up to 4 (149 instances by default)."""
    result = SuiteResult("elsv-agreement", True)
    for d in range(1, dmax + 1):
        for mu in partitions(d):
            for g in range(0, 5):
                if not is_stable(g, len(mu)):
                    continue
                m = riemann_hurwitz_m(g, mu)
                if m > mmax:
                    continue
                brute = hurwitz_brute(HurwitzInstance.of(mu, m))
                formula = elsv_value(g, mu)
                result.record(formula == brute, ("elsv", g, mu, m))
    return result


def suite_algebra(seed=DEFAULT_SEED, triples=25):
    """Commutativity and associativity of the strata product."""
    result = SuiteResult("algebra-properties", True)
    rng = random.Random(seed)
    ambients = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2)]
    for _ in range(triples):
        g, n = rng.choice(ambients)
        a = random_taut_class(rng, g, n)
        b = random_taut_class(rng, g, n)
        c = random_taut_class(rng, g, n)
        ab = class_multiply(a, b)
        result.record(ab == class_multiply(b, a), ("commutativity", g, n))
        result.record(class_multiply(ab, c) ==
                      class_multiply(a, class_multiply(b, c)),
                      ("associativity", g, n))
    return result


def suite_hat_lambda_square():
    """The product hat_lambda_1 * hat_lambda_1 has its pinned expansion."""
    result = SuiteResult("hat-lambda-square", True)
    for g, n in [(3, 1), (4, 2)]:
        square = class_multiply(hat_lambda(g, n, 1), hat_lambda(g, n, 1))
        expected = TautClass.from_terms(g, n, [
            _make_term(g, n, 1, (), (1, 1), (0,) * n),
            _make_term(g, n, 2, ((0, 0),), (1,), (0,) * n),
            _make_term(g, n, 1, ((0, 1),), (), (0,) * n),
            _make_term(g, n, -1, ((1, 0),), (), (0,) * n),
            _make_term(g, n, 1, ((0, 0), (0, 0)), (), (0,) * n),
        ])
        result.record(square == expected, ("hat-lambda-square", g, n))
    return result


def suite_bell_consistency(seed=DEFAULT_SEED, kmax=2, monomials=6):
    """hat_lambda_j agrees with the Bell assembly of the corrected Chern
    characters, and the degree-(k+1) recursion identity holds."""
    result = SuiteResult("bell-consistency", True)
    rng = random.Random(seed)
    g, n = 4, 2
    dim = 3 * g - 3 + n

    def z_class(l):
        return (Fraction((-1) ** (l - 1) * factorial(l - 1) * factorial(l))
                * t_pullback_ch(g, n, l))

    for j in range(1, kmax + 2):
        zs = [z_class(l) for l in range(1, j + 1)]
        assembled = Fraction(1, factorial(j)) * bell_polynomial(
            j, zs, one=TautClass.one(g, n))
        direct = hat_lambda(g, n, j)
        pool = list(compositions(dim - j, n))
        for exps in rng.sample(pool, min(monomials, len(pool))):
            mono = TautClass.psi_monomial(g, n, exps)
            result.record(
                class_integrate(class_multiply(assembled, mono)) ==
                class_integrate(class_multiply(direct, mono)),
                ("bell", j, exps))
    for k in range(0, kmax + 1):
        lhs = (k + 1) * hat_lambda(g, n, k + 1)
        rhs = TautClass.zero(g, n)
        for j in range(0, k + 1):
            rhs = rhs + Fraction(1, factorial(j)) * class_multiply(
                z_class(j + 1), hat_lambda(g, n, k - j))
        pool = list(compositions(dim - (k + 1), n))
        for exps in rng.sample(pool, min(monomials, len(pool))):
            mono = TautClass.psi_monomial(g, n, exps)
            result.record(
                class_integrate(class_multiply(lhs, mono)) ==
                class_integrate(class_multiply(rhs, mono)),
                ("recursion", k, exps))
    return result


def suite_psi_triviality(seed=DEFAULT_SEED, trials=12):
    """Lambda-free integrands give the same value on both moduli spaces."""
    result = SuiteResult("psi-pullback-triviality", True)
    rng = random.Random(seed)
    done = 0
    while done < trials:
        g = rng.randint(0, 3)
        n = rng.randint(1, 3)
        if not is_pseudostable(g, n):
            continue
        dim = 3 * g - 3 + n
        exps = [0] * n
        for _ in range(dim):
            exps[rng.randrange(n)] += 1
        ps = class_integrate(class_multiply(
            TautClass.one(g, n), TautClass.psi_monomial(g, n, exps)))
        result.record(ps == wk_integral(g, exps), ("psi-trivial", g, n, exps))
        done += 1
    return result


def run_all(seed=DEFAULT_SEED):
    """Run every suite; returns the list of :class:`SuiteResult`."""
    return [
        suite_wk_properties(),
        suite_kappa_order(seed),
        suite_mumford(),
        suite_hodge_closed_forms(),
        suite_linear_hodge(),
        suite_ps_nonlinear(),
        suite_elsv(),
        suite_algebra(seed),
        suite_hat_lambda_square(),
        suite_bell_consistency(seed),
        suite_psi_triviality(seed),
    ]
