r"""Desk-scale consistency suites behind the ``selfcheck`` command.

Each suite re-derives one family of identities that pins the engine's
conventions, and is the project's one check of that family: the tests
run the suites rather than re-code them.  All checks are exact; the
random instances are drawn from the fixed :data:`SEED`, so that reports
are reproducible and independent of any warm memo.  The suites, in
:func:`run_all` order, and their ranges:

``wk-properties``
    string and dilaton equations for every psi monomial with g <= 2,
    n <= 5; the genus-zero closed form ``(n-3)!/prod d_i!`` for
    n = 3..7; ``<tau_{3g-2}>_g = 1/(24^g g!)`` for g = 1..10.
``kappa-order-independence``
    kappa_1 on Mbar_{1,1} and on Mbar_{0,4}; 50 random kappa/psi
    monomials with g <= 2, n <= 3 and at least one kappa factor, each
    against three random elimination orders.
``mumford-relations``
    every homogeneous part of ``c(E) c(E^dual) - 1`` against every
    complementary psi monomial, g = 1..4, n = 0..2, on the ch route,
    which does not use the relation.
``hodge-closed-forms``
    ``lambda_g psi`` (Faber--Pandharipande and the lambda_g formula,
    n = 1..3) for g = 1..5; ``lambda_g lambda_{g-1} psi`` (n = 1, 2) and
    Faber's ``lambda_g lambda_{g-1} lambda_{g-2}`` for g = 2..5; each on
    the ch route, with ``lambda_g`` expanded like every other factor.
``linear-hodge-equality``
    pseudostable equals stable for every ``lambda_j psi`` monomial on
    the pseudostable ambients with g = 1..4, n = 1..3.
``ps-nonlinear``
    three nonlinear pseudostable identities on Mbar^ps_{g,1}, g = 2..5,
    each derived from the integrable terms of its product; the stable
    ``lambda_g^2 = 0`` and every pseudostable side on the ch route.
``elsv-agreement``
    transposition counts against ELSV for |mu| <= 7, g <= 4 and at most
    13 transpositions (149 instances).
``algebra-properties``
    commutativity and associativity of the strata product on 100 random
    triples over (2,1), (3,0), (3,1), (3,2), (4,1) and (4,2), each class
    of up to 3 terms with up to 3 tails each.
``hat-lambda-square``
    the pinned expansion of ``hat_lambda_1^2`` on (3,1) and (4,2).
``bell-consistency``
    ``hat_lambda_j`` against the Bell assembly of the corrected Chern
    characters for j = 1..4, and the degree-(k+1) recursion for
    k = 0..3, on (3,2), (4,2) and (4,3), each against 12 sampled psi
    monomials (all of them where there are fewer).
``psi-pullback-triviality``
    12 random lambda-free psi monomials with g <= 3, n <= 3 on
    pseudostable ambients, against their stable values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial, prod

from . import hodge
from .hodge import (HodgeMonomial, bell_polynomial, hodge_integral,
                    kappa_integral)
from .hurwitz import HurwitzInstance, elsv_value, hurwitz_brute, riemann_hurwitz_m
from .multiset import compositions, partitions, sub_multisets
from .strata import (TautClass, class_integrate, class_multiply,
                     hat_lambda, is_pseudostable, t_pullback_ch,
                     _lambda_product, _make_term)
from .wk import default_table, is_stable, wk_integral

__all__ = ["SuiteResult", "run_all", "mumford_relation_terms",
           "random_taut_class", "kappa_random_order"]

SEED = 20240701


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
    """Degree-d part of ``c(E) c(E^dual) - 1`` as ``(coeff, lams)`` pairs,
    the term ``(-1)^j lambda_i lambda_j`` with ``lambda_0 = 1`` and
    ``lams`` the sorted multiset of its nonzero indices.

    The relation forces the integral of each part (times any complementary
    psi monomial) to vanish on Mbar_{g,n}.
    """
    return [((-1) ** (d - i), tuple(sorted(k for k in (i, d - i) if k)))
            for i in range(d + 1) if i <= g and d - i <= g]


def random_taut_class(rng, g, n):
    """A small random strata class on Mbar_{g,n}: up to 3 terms, each with
    up to 3 tails (for the algebra suites)."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, 3)
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


def suite_kappa_order():
    """kappa elimination is independent of the elimination order."""
    result = SuiteResult("kappa-order-independence", True)
    rng = random.Random(SEED)
    result.record(kappa_integral(1, 1, (0,), (1,)) == Fraction(1, 24),
                  "kappa_1 on Mbar_{1,1}")
    result.record(kappa_integral(0, 4, (0, 0, 0, 0), (1,)) == 1,
                  "kappa_1 on Mbar_{0,4}")
    done = 0
    while done < 50:
        g = rng.randint(0, 2)
        n = rng.randint(1, 3)
        dim = 3 * g - 3 + n
        # dim >= 1 leaves room for a kappa factor
        if not is_stable(g, n) or dim < 1:
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
        for _ in range(3):
            again = kappa_random_order(
                g, tuple(sorted(psi)), tuple(sorted(kap)), rng)
            result.record(want == again,
                          ("order", g, n, tuple(psi), tuple(kap)))
        done += 1
    return result


def suite_mumford():
    """Every homogeneous part of c(E)c(E^dual) - 1 integrates to zero.
    Each integral is taken on the ch route (:func:`_ch_route_integral`):
    :func:`~pshodge.hodge.hodge_integral` rewrites lambda monomials by
    this very relation, and would check it against itself."""
    result = SuiteResult("mumford-relations", True)
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
                        (coeff * _ch_route_integral(
                            HodgeMonomial(g, n, lam, exps))
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


def _ch_route_integral(mono):
    """:func:`~pshodge.hodge.hodge_integral` on the general ch route: every
    lambda factor, a top ``lambda_g`` too, is expanded into odd Chern
    characters and summed over ``hodge._reduce`` with its ``top`` flag
    off, so no lambda_g formula leaf, no rewrite by Mumford's relation and
    no theorem about ``lambda_g`` is used."""
    psi = tuple(sorted(mono.psi_exp))
    return sum((c * hodge._reduce(mono.g, psi, key) for key, c
                in hodge._odd_ch_product(mono.g, mono.lambda_exp).items()),
               Fraction(0))


def _ps_ch_route_integral(g, lams, d):
    """``int_{Mbar^ps_{g,1}} prod_{j in lams} lambda_j psi_1^d`` for a
    sorted tuple ``lams``: the sum over the integrable terms of the
    ``hat_lambda`` product (:func:`pshodge.strata._lambda_product`), each
    core taken by :func:`_ch_route_integral` and each tail worth 1/24."""
    total = Fraction(0)
    for (tails, lam, _), c in _lambda_product(g, 1, lams,
                                              integrable=True).terms.items():
        i = len(tails)
        core = HodgeMonomial(g - i, 1 + i, lam,
                             (d,) + tuple(a for a, _ in tails))
        total += c * _ch_route_integral(core) / 24 ** i
    return total / prod(map(factorial, lams))


def suite_hodge_closed_forms():
    """Closed forms for lambda_g psi (Faber--Pandharipande and the lambda_g
    formula, n <= 3), lambda_g lambda_{g-1} psi (n <= 2, g >= 2) and
    Faber's lambda_g lambda_{g-1} lambda_{g-2}, for g <= 5.  Each integral
    is taken on the ch route (:func:`_ch_route_integral`): the engine's
    lambda_g branch reads the lambda_g formula at its leaves, and would
    check that formula against itself."""
    result = SuiteResult("hodge-closed-forms", True)
    bern = [abs(b) for b in _bernoulli_numbers(11)]
    for g in range(1, 6):
        b_g = _lambda_g_one_point(g, bern)
        # lambda_g formula: int psi^d lambda_g = binom(2g-3+n; d) b_g; at
        # n = 1 it is b_g itself
        for n in range(1, 4):
            for d in compositions(2 * g - 3 + n, n):
                closed = (factorial(2 * g - 3 + n) * b_g
                          / prod(factorial(x) for x in d))
                mono = HodgeMonomial.of(g, n, {g: 1}, d)
                result.record(_ch_route_integral(mono) == closed,
                              ("lambda_g", g, d))
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
                result.record(_ch_route_integral(mono) == closed,
                              ("lambda_g lambda_g-1", g, d))
        # Faber: int_{Mbar_g} lambda_g lambda_{g-1} lambda_{g-2}
        closed = (bern[2 * g - 2] * bern[2 * g]
                  / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))
        lam = {j: 1 for j in (g, g - 1, g - 2) if j}
        result.record(_ch_route_integral(HodgeMonomial.of(g, 0, lam))
                      == closed, ("faber", g))
    return result


def suite_linear_hodge():
    """Pseudostable equals stable for lambda-linear integrands."""
    result = SuiteResult("linear-hodge-equality", True)
    for g in range(1, 5):
        for n in range(1, 4):
            if not is_pseudostable(g, n):
                continue
            dim = 3 * g - 3 + n
            for j in range(1, g + 1):
                corrected = hat_lambda(g, n, j)
                for exps in compositions(dim - j, n):
                    ps = class_integrate(corrected, exps)
                    stable = hodge_integral(HodgeMonomial.of(g, n, {j: 1}, exps))
                    result.record(ps == stable, ("linear", g, n, j, exps))
    return result


def suite_ps_nonlinear():
    """Three nonlinear pseudostable identities on Mbar^ps_{g,1}, g = 2..5.

    Each follows from the integrable terms of the ``hat_lambda`` product,
    those with ``psi_bullet`` on every tail, by the two-factor lemma: for
    1 <= a <= b, the integrable terms of
    ``a! hat_lambda_a * b! hat_lambda_b`` on Mbar_{g,n} are, for
    i = 0..a, the term ``a! b!/i! G^i_*(lambda_{a-i} lambda_{b-i})`` with
    ``lambda_0 = 1``, every tail ``(0, 1)`` (``psi_bullet`` alone, a
    factor ``1/24`` each) and no core psi; a term is dropped when its
    core Mbar_{g-i,n+i} is unstable or ``b - i > g - i``
    (``tests/test_strata.py`` checks it against ``strata._lambda_product``
    for g = 2..7 and n = 1..3).  So the attaching markings carry no psi
    class, and the i = 0 term is the stable integral.

    * ``int_ps lambda_g^2 psi_1^{g-2} = 1/(24^g g!)``, while stably
      ``lambda_g^2 = 0``: the core of every term with i < g tails is
      ``lambda_{g-i}^2 = 0`` (Mumford), and the all-tail term is
      ``1/(g! 24^g)`` times ``int_{Mbar_{0,g+1}} psi_1^{g-2} = 1``.
    * ``int_ps - int_stable`` of ``lambda_g lambda_1 psi_1^{2g-3}`` is
      ``b_{g-1}/24``: the one correction term has one tail and core
      ``lambda_{g-1}`` on Mbar_{g-1,2}, and the lambda_g formula gives
      ``int lambda_{g-1} psi_1^{2g-3} = b_{g-1}``.
    * ``int_ps - int_stable`` of ``lambda_g lambda_{g-1} psi_1^{g-1}`` is
      ``sum_{i=1}^{g-1} c_{g-i} / (i! 24^i)``: the i-tail term has core
      ``lambda_h lambda_{h-1}`` with h = g - i, and the string equation
      takes its i bare attaching markings away, leaving the one-point
      value ``c_h = int_{Mbar_{h,1}} lambda_h lambda_{h-1} psi^{h-1}
      = (2h-2)! |B_{2h}| / (2^{2h-1} (2h)! (2h-3)!!)``
      (Getzler--Pandharipande, with ``(-1)!! = 1``).

    The closed forms take their Bernoulli numbers from
    :func:`_bernoulli_numbers`, not from the engine.  The pseudostable
    sides are summed over the integrable terms by
    :func:`_ps_ch_route_integral`, and the stable ``lambda_g^2`` is taken
    by :func:`_ch_route_integral`: both keep every core on the ch route,
    since :func:`~pshodge.hodge.hodge_integral` answers the ``lambda_h^2``
    cores by Mumford's relation, a step of the derivations above."""
    result = SuiteResult("ps-nonlinear", True)
    bern = [abs(b) for b in _bernoulli_numbers(9)]

    def top_two(h):  # c_h above
        return (factorial(2 * h - 2) * bern[2 * h]
                / (2 ** (2 * h - 1) * factorial(2 * h)
                   * prod(range(1, 2 * h - 2, 2))))

    def excess(g, lams, d):
        stable = hodge_integral(HodgeMonomial(g, 1, lams, (d,)))
        return _ps_ch_route_integral(g, lams, d) - stable

    for g in range(2, 6):
        result.record(_ps_ch_route_integral(g, (g, g), g - 2)
                      == Fraction(1, 24 ** g * factorial(g)),
                      ("lambda_g^2 ps", g))
        square = HodgeMonomial.of(g, 1, {g: 2}, (g - 2,))
        result.record(_ch_route_integral(square) == 0,
                      ("lambda_g^2 stable", g))
        result.record(excess(g, (1, g), 2 * g - 3)
                      == _lambda_g_one_point(g - 1, bern) / 24,
                      ("lambda_g lambda_1 excess", g))
        result.record(excess(g, (g - 1, g), g - 1)
                      == sum(top_two(g - i) / (factorial(i) * 24 ** i)
                             for i in range(1, g)),
                      ("lambda_g lambda_g-1 excess", g))
    return result


def suite_elsv():
    """Transposition counts match their Hodge-integral evaluation, for
    |mu| <= 7, genus up to 4 and at most 13 transpositions (149
    instances)."""
    result = SuiteResult("elsv-agreement", True)
    for d in range(1, 8):
        for mu in partitions(d):
            for g in range(0, 5):
                if not is_stable(g, len(mu)):
                    continue
                m = riemann_hurwitz_m(g, mu)
                if m > 13:
                    continue
                brute = hurwitz_brute(HurwitzInstance.of(mu, m))
                formula = elsv_value(g, mu)
                result.record(formula == brute, ("elsv", g, mu, m))
    return result


def suite_algebra():
    """Commutativity and associativity of the strata product."""
    result = SuiteResult("algebra-properties", True)
    rng = random.Random(SEED)
    ambients = [(2, 1), (3, 0), (3, 1), (3, 2), (4, 1), (4, 2)]
    for _ in range(100):
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


def suite_bell_consistency():
    """hat_lambda_j agrees with the Bell assembly ``B_j(z_1..z_j)/j!`` of
    the scaled corrected Chern characters
    ``z_l = (-1)^(l-1) (l-1)! l! t^* ch_l``, and the degree-(k+1)
    recursion ``j hat_lambda_j = sum_{i<j} z_{i+1}/i! hat_lambda_{j-1-i}``
    holds, for j = k + 1 = 1..4."""
    result = SuiteResult("bell-consistency", True)
    rng = random.Random(SEED)
    for g, n in [(3, 2), (4, 2), (4, 3)]:
        dim = 3 * g - 3 + n
        zs = [Fraction((-1) ** (l - 1) * factorial(l - 1) * factorial(l))
              * t_pullback_ch(g, n, l) for l in range(1, 5)]
        for j in range(1, 5):
            direct = hat_lambda(g, n, j)
            assembled = Fraction(1, factorial(j)) * bell_polynomial(
                j, zs[:j], one=TautClass.one(g, n))
            recursion = TautClass.zero(g, n)
            for i in range(j):
                recursion = recursion + Fraction(1, factorial(i)) * \
                    class_multiply(zs[i], hat_lambda(g, n, j - 1 - i))
            pool = list(compositions(dim - j, n))
            for exps in rng.sample(pool, min(12, len(pool))):
                value = class_integrate(direct, exps)
                result.record(class_integrate(assembled, exps) == value,
                              ("bell", g, n, j, exps))
                result.record(class_integrate(recursion, exps) == j * value,
                              ("recursion", g, n, j - 1, exps))
    return result


def suite_psi_triviality():
    """Lambda-free integrands give the same value on both moduli spaces."""
    result = SuiteResult("psi-pullback-triviality", True)
    rng = random.Random(SEED)
    done = 0
    while done < 12:
        g = rng.randint(0, 3)
        n = rng.randint(1, 3)
        if not is_pseudostable(g, n):
            continue
        dim = 3 * g - 3 + n
        exps = [0] * n
        for _ in range(dim):
            exps[rng.randrange(n)] += 1
        ps = class_integrate(TautClass.one(g, n), exps)
        result.record(ps == wk_integral(g, exps), ("psi-trivial", g, n, exps))
        done += 1
    return result


def run_all():
    """Run every suite; returns the list of :class:`SuiteResult`."""
    return [
        suite_wk_properties(),
        suite_kappa_order(),
        suite_mumford(),
        suite_hodge_closed_forms(),
        suite_linear_hodge(),
        suite_ps_nonlinear(),
        suite_elsv(),
        suite_algebra(),
        suite_hat_lambda_square(),
        suite_bell_consistency(),
        suite_psi_triviality(),
    ]
