"""Strata algebra: pinned expansions, excess products, pseudostable integrals."""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb, factorial, perm

import pytest

import expr_tree as E
import pshodge
from pshodge import hodge, selfcheck, strata
from pshodge.expr import parse_expression
from pshodge.hodge import kappa_integral
from pshodge.multiset import accumulate, compositions, multiply, partitions
from pshodge.selfcheck import suite_hat_lambda_square
from pshodge.strata import (EmptyModuliError, TautClass, class_integrate,
                            class_multiply, expr_integral, hat_lambda,
                            is_pseudostable,
                            restrict_lambda_to_tails, t_pullback_ch)
from pshodge.strata import _make_term
from pshodge.wk import is_stable, wk_integral


def reference_integral(g, n, node, space):
    """Reference evaluator over the expression tree, sharing no code with
    the normal form: every node becomes a strata class, every product is
    pruned to the dimension, and the result is integrated."""
    dim = 3 * g - 3 + n

    def lam(j):
        if space == "ps":
            return hat_lambda(g, n, j)
        return TautClass.lambda_class(g, n, j)

    def walk(node):
        if isinstance(node, E.Lit):
            return TautClass.scalar(g, n, node.value)
        if isinstance(node, E.Lam):
            return lam(node.index)
        if isinstance(node, E.Psi):
            exps = [0] * n
            exps[node.index - 1] = 1
            return TautClass.psi_monomial(g, n, exps)
        if isinstance(node, E.Sum):
            return walk(node.left) + walk(node.right)
        if isinstance(node, E.Diff):
            return walk(node.left) - walk(node.right)
        if isinstance(node, E.Prod):
            return class_multiply(walk(node.left),
                                  walk(node.right)).prune_above(dim)
        if isinstance(node, E.Pow):
            base = walk(node.base)
            out = TautClass.one(g, n)
            for _ in range(node.exponent):
                out = class_multiply(out, base).prune_above(dim)
            return out
        raise TypeError(node)

    return class_integrate(walk(node))


@functools.cache
def complete_product(g, n, lams):
    """``prod_{j in lams} hat_lambda_j`` for a sorted multiset, from the
    public ``hat_lambda`` and ``class_multiply`` with their ``Fraction``
    coefficients: every term, bare tails included, and no scale."""
    if not lams:
        return TautClass.one(g, n)
    return class_multiply(complete_product(g, n, lams[:-1]),
                          hat_lambda(g, n, lams[-1]))


def product_route_integral(g, n, poly):
    """The pseudostable integral of a parsed polynomial by the complete
    ``hat_lambda`` product of each lambda multiset, with the psi part
    attached, then integrated: the route that builds every term and
    shares no scale with ``expr_integral``."""
    terms = {}
    for key, coeff in poly.items():
        lams, psi = strata._split(key, g, n)
        accumulate(terms, (
            ((tails, lam, tuple(a + b for a, b in zip(core_psi, psi))), c)
            for (tails, lam, core_psi), c
            in complete_product(g, n, lams).terms.items()), coeff)
    return class_integrate(TautClass(g, n, terms))


def top_degree_monomials(g, n, max_lambdas):
    """Every top-degree lambda/psi monomial on (g, n) with at most
    ``max_lambdas`` lambda factors and non-increasing psi exponents (the
    integrals are symmetric in the markings), as text."""
    dim = 3 * g - 3 + n
    for w in range(dim + 1):
        for lams in partitions(w, g):
            if len(lams) > max_lambdas:
                continue
            for exps in partitions(dim - w):
                if len(exps) > n:
                    continue
                factors = [f"lambda{j}" for j in lams]
                factors += [f"psi{i}^{e}" for i, e in enumerate(exps, 1)]
                yield "*".join(factors) or "1"


def flipped_excess_branches(a, b, bullets):
    """The excess weight with the wrong sign, ``+psi_star + psi_bullet``."""
    out = []
    if b in bullets:
        out.append((1, (a + 1, b)))
    if b + 1 in bullets:
        out.append((1, (a, b + 1)))
    return out


def reference_excess_branches(a, b):
    """The excess weight ``-psi_star - psi_bullet`` against a matched tail
    carrying ``psi_star^a psi_bullet^b``, every branch kept."""
    out = [(-1, (a + 1, b))]
    if b + 1 <= 1:
        out.append((-1, (a, b + 1)))
    return out


def reference_bumped(rest, restrictions):
    """``(lams, tails)`` for every bump vector of ``restrictions`` that
    leaves each of the unmatched tails ``rest`` with at most one
    ``psi_bullet``, found by scanning the table."""
    out = []
    for bumps, lams in restrictions.items():
        tails = [(a, b + e) for (a, b), e in zip(rest, bumps)]
        if all(b <= 1 for _, b in tails):
            out.append((lams, tails))
    return out


def reference_term_product(g, n, t, u, base):
    """Every ``(key, coeff)`` strata term of ``base`` times the product of
    the decorations ``t`` and ``u``, by a complete kernel of its own that
    scans the restriction tables: the oracle for ``strata._term_product``
    with bullets ``(0, 1)``."""
    t_tails, t_lambda, t_psi = t
    u_tails, u_lambda, u_psi = u
    i, ip = len(t_tails), len(u_tails)
    core_psi = tuple(a + b for a, b in zip(t_psi, u_psi))
    for m in range(min(i, ip) + 1):
        t_restrictions = strata._restrictions_by_bumps(t_lambda, ip - m)
        u_restrictions = strata._restrictions_by_bumps(u_lambda, i - m)
        for tsel in combinations(range(i), m):
            new_ts = reference_bumped(
                [t_tails[x] for x in range(i) if x not in tsel],
                u_restrictions)
            if not new_ts:
                continue
            for usel in permutations(range(ip), m):
                merged = [(t_tails[x][0] + u_tails[y][0],
                           t_tails[x][1] + u_tails[y][1])
                          for x, y in zip(tsel, usel)]
                if any(b > 1 for _, b in merged):
                    continue
                new_us = reference_bumped(
                    [u_tails[y] for y in range(ip) if y not in usel],
                    t_restrictions)
                if not new_us:
                    continue
                for branches in product(*[reference_excess_branches(a, b)
                                          for a, b in merged]):
                    sign = 1
                    matched_tails = []
                    for s, ab in branches:
                        sign *= s
                        matched_tails.append(ab)
                    coeff = base * sign
                    for t_lams, new_u in new_us:
                        for u_lams, new_t in new_ts:
                            tails = matched_tails + new_t + new_u
                            for lam_t in t_lams:
                                for lam_u in u_lams:
                                    term = _make_term(g, n, coeff, tails,
                                                      lam_t + lam_u, core_psi)
                                    if term is not None:
                                        yield term


def reference_integrable_term_product(g, n, t, u, base):
    """The terms of ``reference_term_product`` in which every tail
    carries ``psi_bullet``, by an integrable kernel of its own: the
    oracle for ``strata._term_product`` with bullets ``(1,)``.  A
    matched pair takes only the ``psi_bullet`` branch of the excess
    weight, and each core's lambda restriction only the bump vector that
    gives every bare unmatched tail of the other factor its
    ``psi_bullet``."""
    t_tails, t_lambda, t_psi = t
    u_tails, u_lambda, u_psi = u
    i, ip = len(t_tails), len(u_tails)
    core_psi = tuple(a + b for a, b in zip(t_psi, u_psi))
    for m in range(min(i, ip) + 1):
        t_restrictions = strata._restrictions_by_bumps(t_lambda, ip - m)
        u_restrictions = strata._restrictions_by_bumps(u_lambda, i - m)
        for tsel in combinations(range(i), m):
            t_rest = [t_tails[x] for x in range(i) if x not in tsel]
            u_lams = u_restrictions.get(tuple(1 - b for _, b in t_rest))
            if u_lams is None:
                continue
            new_t = [(a, 1) for a, _ in t_rest]
            for usel in permutations(range(ip), m):
                u_rest = [u_tails[y] for y in range(ip) if y not in usel]
                t_lams = t_restrictions.get(tuple(1 - b for _, b in u_rest))
                if t_lams is None:
                    continue
                sign = 1
                tails = [(a, 1) for a, _ in u_rest] + new_t
                for x, y in zip(tsel, usel):
                    b = t_tails[x][1] + u_tails[y][1]
                    if b > 1:
                        break
                    s, ab = next(
                        branch for branch in reference_excess_branches(
                            t_tails[x][0] + u_tails[y][0], b)
                        if branch[1][1] == 1)
                    sign *= s
                    tails.append(ab)
                else:
                    coeff = base * sign
                    for lam_t in t_lams:
                        for lam_u in u_lams:
                            term = _make_term(g, n, coeff, tails,
                                              lam_t + lam_u, core_psi)
                            if term is not None:
                                yield term


def random_expression(rng, g, n, depth):
    """A random tree of sums, differences, products and powers of
    lambda_j, psi_i and rationals."""
    if depth == 0 or rng.random() < 0.2:
        kind = rng.choice(["lit", "lam", "lam", "lam", "psi"] if n
                          else ["lit", "lam", "lam"])
        if kind == "lit":
            return E.Lit(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if kind == "lam":
            return E.Lam(rng.randint(1, g))
        return E.Psi(rng.randint(1, n))
    op = rng.choice([E.Sum, E.Diff, E.Prod, E.Prod, E.Pow])
    if op is E.Pow:
        return E.Pow(random_expression(rng, g, n, depth - 1), rng.randint(0, 3))
    return op(random_expression(rng, g, n, depth - 1),
              random_expression(rng, g, n, depth - 1))


def reference_expand(node, g, n, dim):
    """The expander as it stood before integer coefficients: every
    coefficient a ``Fraction`` and every power by square-and-multiply.
    Kept as the oracle for :func:`pshodge.expr.parse_expression`."""
    one = Fraction(1)

    def degree(key):
        return sum(k if k <= g else 1 for k in key)

    def walk(node):
        if isinstance(node, E.Lit):
            return {(): Fraction(node.value)} if node.value else {}
        if isinstance(node, E.Lam):
            return {(node.index,): one}
        if isinstance(node, E.Psi):
            return {(g + node.index,): one}
        if isinstance(node, E.Sum):
            return accumulate(walk(node.left), walk(node.right).items())
        if isinstance(node, E.Diff):
            return accumulate(walk(node.left), walk(node.right).items(), -1)
        if isinstance(node, E.Prod):
            return multiply(walk(node.left), walk(node.right), degree, dim)
        if isinstance(node, E.Pow):
            base, e, out = walk(node.base), node.exponent, {(): one}
            while e:
                if e & 1:
                    out = multiply(out, base, degree, dim)
                e >>= 1
                if e:
                    base = multiply(base, base, degree, dim)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return {key: c for key, c in walk(node).items() if degree(key) == dim}


def random_expand_tree(rng, g, n, depth):
    """A random tree for the expander: literals zero, negative or
    rational, and powers 0..4 of leaves, sums and products."""
    leaves = ["lit"] + ["lam"] * (g > 0) + ["psi"] * (n > 0)
    if depth == 0 or rng.random() < 0.25:
        kind = rng.choice(leaves)
        if kind == "lit":
            return E.Lit(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))))
        if kind == "lam":
            return E.Lam(rng.randint(1, g))
        return E.Psi(rng.randint(1, n))
    op = rng.choice([E.Sum, E.Diff, E.Prod, E.Pow, E.Pow])
    if op is E.Pow:
        return E.Pow(random_expand_tree(rng, g, n, depth - 1), rng.randint(0, 4))
    return op(random_expand_tree(rng, g, n, depth - 1),
              random_expand_tree(rng, g, n, depth - 1))


def tree_nodes(node):
    yield node
    for child in (getattr(node, "left", None), getattr(node, "right", None),
                  getattr(node, "base", None)):
        if child is not None:
            yield from tree_nodes(child)


def term(g, n, coeff, tails=(), lam=(), psi=None):
    return _make_term(g, n, coeff, tails, lam, psi if psi is not None
                      else (0,) * n)


def cls(g, n, *terms):
    return TautClass.from_terms(g, n, terms)


class TestPseudostableIndices:
    def test_excluded(self):
        for g, n in [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]:
            assert not is_pseudostable(g, n)

    def test_included(self):
        for g, n in [(0, 3), (1, 2), (2, 1), (3, 0), (4, 2)]:
            assert is_pseudostable(g, n)


class TestHatLambda:
    def test_j0_is_one(self):
        assert hat_lambda(2, 1, 0) == TautClass.one(2, 1)

    def test_j1_display(self):
        assert hat_lambda(2, 1, 1) == cls(
            2, 1,
            term(2, 1, 1, lam=(1,)),
            term(2, 1, 1, tails=((0, 0),)))

    def test_j2_display(self):
        assert hat_lambda(3, 1, 2) == cls(
            3, 1,
            term(3, 1, 1, lam=(2,)),
            term(3, 1, 1, tails=((0, 0),), lam=(1,)),
            term(3, 1, Fraction(1, 2), tails=((0, 0), (0, 0))))

    def test_unstable_cores_dropped(self):
        # on (2, 1) the two-tail core would be (0, 3): still stable, kept;
        # on (1, 2) only one tail fits
        assert len(hat_lambda(2, 1, 2).terms) == 3
        assert len(hat_lambda(1, 2, 1).terms) == 2

    def test_empty_moduli_error(self):
        with pytest.raises(EmptyModuliError):
            hat_lambda(1, 1, 1)
        with pytest.raises(EmptyModuliError):
            hat_lambda(2, 0, 1)


class TestRestriction:
    def test_single_tail(self):
        assert restrict_lambda_to_tails(1, 1) == [(1, ()), (0, (0,))]

    def test_no_tails(self):
        assert restrict_lambda_to_tails(5, 0) == [(5, ())]

    def test_degree_two(self):
        assert restrict_lambda_to_tails(2, 1) == [(2, ()), (1, (0,))]

    def test_two_tails_elementary_symmetric(self):
        out = restrict_lambda_to_tails(2, 2)
        assert (2, ()) in out
        assert (1, (0,)) in out and (1, (1,)) in out
        assert (0, (0, 1)) in out
        assert len(out) == 4


class TestProducts:
    def test_identity(self):
        a = hat_lambda(3, 1, 2)
        assert class_multiply(TautClass.one(3, 1), a) == a

    def test_lambda_times_boundary(self):
        lam1 = TautClass.lambda_class(3, 1, 1)
        g1 = cls(3, 1, term(3, 1, 1, tails=((0, 0),)))
        assert class_multiply(lam1, g1) == cls(
            3, 1,
            term(3, 1, 1, tails=((0, 0),), lam=(1,)),
            term(3, 1, 1, tails=((0, 1),)))

    def test_boundary_self_intersection(self):
        g1 = cls(3, 1, term(3, 1, 1, tails=((0, 0),)))
        assert class_multiply(g1, g1) == cls(
            3, 1,
            term(3, 1, -1, tails=((1, 0),)),
            term(3, 1, -1, tails=((0, 1),)),
            term(3, 1, 1, tails=((0, 0), (0, 0))))

    def test_hat_lambda_square_display(self):
        result = suite_hat_lambda_square()
        assert result.passed, result.failures

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            class_multiply(TautClass.one(2, 1), TautClass.one(3, 1))

    def test_excess_sign_mutation_detected(self, monkeypatch):
        """Flipping the excess weight to +psi_star +psi_bullet must break
        the pinned square expansion."""
        monkeypatch.setattr(strata, "_excess_branches",
                            flipped_excess_branches)
        result = suite_hat_lambda_square()
        assert not result.passed

    def test_excess_sign_mutation_detected_in_integrable_product(
            self, monkeypatch):
        """The same flip must break the pseudostable Mumford value, whose
        last factor is multiplied in with ``integrable=True``."""
        e = parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
        monkeypatch.setattr(strata, "_excess_branches",
                            flipped_excess_branches)
        pshodge.clear_caches()
        try:
            value = expr_integral(2, 1, e, "ps")
        finally:
            pshodge.clear_caches()  # drop the products built while flipped
        assert value != Fraction(-1, 576)


class TestIntegration:
    def test_tail_psi_factor(self):
        # G^1(psi_bullet * psi_1^2 on the core) over Mbar_{2,1}
        c = cls(2, 1, term(2, 1, 1, tails=((0, 1),), psi=(2,)))
        assert class_integrate(c) == Fraction(1, 576)

    def test_bare_tail_vanishes(self):
        # matching total degree but no tail psi: the tail integral is 0
        c = cls(2, 1, term(2, 1, 1, tails=((0, 0),), psi=(3,)))
        assert class_integrate(c) == 0

    def test_pure_delegation(self):
        c = TautClass.psi_monomial(2, 1, (4,))
        assert class_integrate(c) == Fraction(1, 1152)

    def test_degree_mismatch_skipped(self):
        c = TautClass.psi_monomial(2, 1, (3,))
        assert class_integrate(c) == 0


class TestTPullbackCh:
    def test_l1(self):
        assert t_pullback_ch(3, 1, 1) == cls(
            3, 1,
            term(3, 1, 1, lam=(1,)),
            term(3, 1, 1, tails=((0, 0),)))

    def test_l2(self):
        assert t_pullback_ch(3, 1, 2) == cls(
            3, 1,
            term(3, 1, Fraction(1, 2), lam=(1, 1)),
            term(3, 1, -1, lam=(2,)),
            term(3, 1, Fraction(-1, 2), tails=((1, 0),)),
            term(3, 1, Fraction(1, 2), tails=((0, 1),)))

    def test_l1_has_no_bullet_term(self):
        # the negative-power convention removes the second correction
        assert all(tails in ((), ((0, 0),))
                   for tails, _, _ in t_pullback_ch(3, 1, 1).terms)


class TestPseudostableIntegrals:
    def test_mumford_failure_g2(self):
        e = parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
        assert expr_integral(2, 1, e, "ps") == Fraction(-1, 576)

    def test_mumford_failure_g3(self):
        e = parse_expression("(2*lambda2 - lambda1^2)*psi1^5", 3, 1)
        assert expr_integral(3, 1, e, "ps") == Fraction(-1, 27648)

    def test_mumford_failure_series(self):
        """The degree-two Mumford relation fails on the ps side by
        ``-1/(24^g (g-1)!)``, whatever n, for g = 2..5 and n = 1..3."""
        for g in range(2, 6):
            for n in range(1, 4):
                e = parse_expression(
                    f"(2*lambda2 - lambda1^2)*psi1^{3 * g - 5 + n}", g, n)
                assert expr_integral(g, n, e, "ps") == \
                    Fraction(-1, 24 ** g * factorial(g - 1)), (g, n)

    def test_pure_psi_equals_stable(self):
        e = parse_expression("psi1^4", 2, 1)
        assert expr_integral(2, 1, e, "ps") == Fraction(1, 1152)

    def test_linear_hodge_examples(self):
        e = parse_expression("lambda1*psi1^3", 2, 1)
        assert expr_integral(2, 1, e, "ps") == expr_integral(2, 1, e, "stable")

    def test_empty_moduli(self):
        e = parse_expression("psi1", 1, 1)
        with pytest.raises(EmptyModuliError):
            expr_integral(1, 1, e, "ps")

    def test_stable_empty_moduli(self):
        with pytest.raises(EmptyModuliError):
            expr_integral(0, 2, parse_expression("1", 0, 2), "stable")

    def test_correction_terms_vanish_against_psi(self):
        """Each individual correction term of hat_lambda integrates to zero
        against pure psi monomials (its tails carry no tail psi class)."""
        for g, n in [(2, 1), (3, 2), (4, 1)]:
            dim = 3 * g - 3 + n
            for j in range(1, g + 1):
                for key, coeff in hat_lambda(g, n, j).terms.items():
                    if not key[0]:
                        continue
                    single = TautClass(g, n, {key: coeff})
                    for exps in compositions(dim - j, n):
                        mono = TautClass.psi_monomial(g, n, exps)
                        assert class_integrate(
                            class_multiply(single, mono)) == 0

    def test_psi_triviality_randomised(self):
        rng = random.Random(5)
        for _ in range(10):
            g = rng.randint(0, 3)
            n = rng.randint(1, 3)
            if not is_pseudostable(g, n):
                continue
            dim = 3 * g - 3 + n
            exps = [0] * n
            for _ in range(dim):
                exps[rng.randrange(n)] += 1
            parts = [f"psi{i+1}^{e}" for i, e in enumerate(exps) if e]
            text = "*".join(parts) if parts else "1"
            e = parse_expression(text, g, n)
            assert expr_integral(g, n, e, "ps") == wk_integral(g, exps)


class TestPseudostableIdentities:
    """Two nonlinear pseudostable closed forms, checked through
    ``expr_integral`` for g = 2..7 and g = 2..10 (derived in the
    ``ps-nonlinear`` suite's docstring).  Each checks the whole ps
    pipeline, the strata products up to g=7 included, against values
    that share no code with it."""

    @pytest.mark.parametrize("g", range(2, 8))
    def test_lambda_g_squared(self, g):
        """``int_ps lambda_g^2 psi_1^{g-2} = 1/(24^g g!)``, while stably
        ``lambda_g^2 = 0`` (Mumford)."""
        e = parse_expression(f"lambda{g}^2*psi1^{g - 2}", g, 1)
        assert expr_integral(g, 1, e, "ps") == \
            Fraction(1, 24 ** g * factorial(g))
        assert expr_integral(g, 1, e, "stable") == 0

    @pytest.mark.parametrize("g", range(2, 11))
    def test_lambda_g_lambda_1_excess(self, g):
        """``int_ps - int_stable`` of ``lambda_g lambda_1 psi_1^{2g-3}``
        is ``b_{g-1}/24``, with ``b_h = int lambda_h psi^{2h-2}`` over
        Mbar_{h,1} in Faber--Pandharipande's closed form
        ``(2^{2h-1} - 1)/2^{2h-1} * |B_{2h}|/(2h)!``."""
        bern = [abs(b) for b in selfcheck._bernoulli_numbers(2 * g - 1)]
        b_h = selfcheck._lambda_g_one_point(g - 1, bern)
        e = parse_expression(f"lambda{g}*lambda1*psi1^{2 * g - 3}", g, 1)
        assert expr_integral(g, 1, e, "ps") - \
            expr_integral(g, 1, e, "stable") == b_h / 24

    def test_selfcheck_suite(self, monkeypatch):
        """The ``ps-nonlinear`` selfcheck suite passes, and once every ps
        value is off it reports the three checks that read one, per
        genus."""
        result = selfcheck.suite_ps_nonlinear()
        assert (result.name, result.passed, result.failures) == \
            ("ps-nonlinear", True, [])

        def off(g, n, e, space):
            return expr_integral(g, n, e, space) + (space == "ps")

        monkeypatch.setattr(selfcheck, "expr_integral", off)
        result = selfcheck.suite_ps_nonlinear()
        assert not result.passed
        assert result.failures == [
            (what, g) for g in range(2, 6)
            for what in ("lambda_g^2 ps", "lambda_g lambda_1 excess",
                         "lambda_g lambda_g-1 excess")]


class TestNormalFormEvaluation:
    def test_matches_tree_evaluator(self):
        """Differential oracle: the normal-form evaluator against the
        tree-over-TautClass evaluator, in both spaces.  A complement of
        every degree (psi powers, or lambda classes when n = 0) lifts each
        random tree's monomials to the top degree, so most values are
        nonzero and many differ between the two spaces."""
        rng = random.Random(2024)
        ambients = [(1, 2), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2),
                    (4, 0), (4, 1), (4, 2)]
        nonzero = differ = 0
        for _ in range(40):
            g, n = rng.choice(ambients)
            node = random_expression(rng, g, n, 3)
            complement = E.Lit(Fraction(1))
            for d in range(1, 3 * g - 3 + n + 1):
                lift = (E.Pow(E.Psi(rng.randint(1, n)), d) if n
                        else E.Lam(rng.randint(1, g)))
                complement = E.Sum(complement, lift)
            node = E.Prod(node, complement)
            poly = parse_expression(E.to_text(node), g, n)
            values = {}
            for space in ("stable", "ps"):
                value = expr_integral(g, n, poly, space)
                assert value == reference_integral(g, n, node, space), \
                    (g, n, E.to_text(node), space)
                values[space] = value
                nonzero += value != 0
            differ += values["stable"] != values["ps"]
        assert nonzero >= 50 and differ >= 10

    def test_expansion_matches_reference_expander(self):
        """Differential oracle: the one-pass parser, on the printed tree,
        against the Fraction expander of the tree that the integer
        expander replaced, at the top degree: equal dicts whose values
        are all ``Fraction``.  Products whose two sides expand to one
        monomial each, within the dimension and beyond it, are counted
        from the reference expansions of the sides."""
        rng = random.Random(1729)
        ambients = [(0, 3)] + [(g, n) for g in range(1, 5) for n in range(4)
                               if is_stable(g, n)]
        seen = Counter()
        for _ in range(4000):
            g, n = rng.choice(ambients)
            node = random_expand_tree(rng, g, n, rng.randint(0, 5))
            top = 3 * g - 3 + n
            got = parse_expression(E.to_text(node), g, n)
            assert got == reference_expand(node, g, n, top), \
                (g, n, E.to_text(node))
            assert all(type(c) is Fraction for c in got.values())
            seen["nonzero"] += bool(got)
            for sub in tree_nodes(node):
                if isinstance(sub, E.Prod):
                    # a side truncated at top keeps its degrees <= top
                    kept = [[len(reference_expand(side, g, n, d))
                             for d in range(top + 1)]
                            for side in (sub.left, sub.right)]
                    if all(sum(k) == 1 for k in kept):
                        seen["product of monomials"] += 1
                        seen["product of monomials above dim"] += sum(
                            k.index(1) for k in kept) > top
                if isinstance(sub, E.Lit):
                    seen["zero" if sub.value == 0 else
                         "negative" if sub.value < 0 else
                         "rational" if sub.value.denominator > 1 else
                         "positive"] += 1
                elif isinstance(sub, E.Pow):
                    seen[f"exponent {sub.exponent}"] += 1
                    seen["power of a sum"] += isinstance(sub.base,
                                                         (E.Sum, E.Diff))
        assert len(seen) == 13 and min(seen.values()) >= 50, seen

    @pytest.mark.parametrize("space, value", [
        # lambda2*lambda1*psi1 reads 1/2880 stably and 1/480 on the ps side
        ("stable", Fraction(1, 1152) - Fraction(1, 480) + Fraction(1, 5760)),
        ("ps", Fraction(1, 1152) - Fraction(1, 480) + Fraction(1, 960))])
    def test_polynomial_built_in_code(self, space, value):
        # psi1^4 - lambda1*psi1^3 + 1/2*lambda2*lambda1*psi1 on Mbar_{2,1}:
        # keys are sorted multisets, lambda_j as j and psi_1 as g + 1 = 3
        poly = {(3, 3, 3, 3): Fraction(1), (1, 3, 3, 3): Fraction(-1),
                (1, 2, 3): Fraction(1, 2)}
        text = "psi1^4 - lambda1*psi1^3 + 1/2*lambda2*lambda1*psi1"
        assert parse_expression(text, 2, 1) == poly
        assert expr_integral(2, 1, poly, space) == value

    @pytest.mark.parametrize("g, n, text", [
        (2, 1, "2*psi1^4"), (2, 2, "lambda1^2*lambda2*psi1")])
    def test_integer_input_gives_a_fraction(self, g, n, text):
        # integer coefficients must not reach the ps division by prod j!
        # as int / int, which gives a float
        node = parse_expression(text, g, n)
        for space in ("stable", "ps"):
            assert type(expr_integral(g, n, node, space)) is Fraction

    def test_nonlinear_differs_from_stable_g5(self):
        text = "(1-lambda1+lambda2-lambda3+lambda4-lambda5)^3*psi1^6"
        e = parse_expression(text, 5, 1)
        assert expr_integral(5, 1, e, "ps") == Fraction(619, 137625600)
        assert expr_integral(5, 1, e, "stable") == Fraction(-1829, 87091200)

    def test_clear_caches_empties_product_memo(self):
        e = parse_expression("lambda1^2*lambda2*psi1^3", 3, 1)
        first = expr_integral(3, 1, e, "ps")
        assert (3, 1, (1, 1, 2), True) in strata._PRODUCTS
        assert (3, 1, (1, 1), False) in strata._PRODUCTS  # its prefix
        assert (3, 1, (1, 1, 2), False) not in strata._PRODUCTS
        assert strata._RESTRICTIONS
        # the bare tails of the two lambda_1 corrections met in lambda_1^2
        assert (((0, 0),), ((0, 0),)) in strata._MATCHINGS
        assert hodge._HODGE_MEMO
        assert hodge._reduce(1, (0,), (1,)) == Fraction(1, 24)
        # (g, psi, ch, top) keys: the product's terms of genus 3 carry no
        # lambda_3, but a core of genus 2 carrying lambda_2 reduces on the
        # lambda_g branch down to a lambda_g formula leaf
        assert (1, (0,), (1,), False) in hodge._CH_MEMO
        assert (2, (0, 3), (), True) in hodge._CH_MEMO
        assert all(len(key) == 4 and type(key[3]) is bool
                   for key in hodge._CH_MEMO)
        stored = dict(hodge._CH_MEMO)
        assert kappa_integral(1, 1, None, [1]) == Fraction(1, 24)
        assert hodge._CH_MEMO == stored  # kappa elimination stores nothing
        strata.clear_caches()  # each module clears only its own memos
        assert not strata._PRODUCTS and not strata._RESTRICTIONS
        assert not strata._MATCHINGS
        assert hodge._HODGE_MEMO and hodge._CH_MEMO
        assert expr_integral(3, 1, e, "ps") == first
        assert strata._MATCHINGS
        pshodge.clear_caches()
        assert not strata._PRODUCTS
        assert not strata._RESTRICTIONS
        assert not strata._MATCHINGS
        assert not hodge._HODGE_MEMO and not hodge._CH_MEMO
        assert expr_integral(3, 1, e, "ps") == first


# every monomial up to genus 3; at genus 4 the complete products of three
# or more factors take seconds, so the cubes stand in
SWEEP = [(2, 1, 9), (2, 2, 9), (3, 1, 9), (3, 2, 9)]
CUBES = [(4, "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"),
         (5, "(1-lambda1+lambda2-lambda3+lambda4-lambda5)^3*psi1^6")]
# six identical bare tails on either side of the last product
REPEATED_TAILS = [(6, "lambda6^2*psi1^4")]


class TestIntegrableProducts:
    @pytest.mark.parametrize("g, n, max_lambdas", SWEEP + [(4, 1, 2)])
    def test_monomials_match_complete_products(self, g, n, max_lambdas):
        """Differential oracle: every top-degree monomial through the
        products that build only integrable terms, against the complete
        products."""
        for text in top_degree_monomials(g, n, max_lambdas):
            e = parse_expression(text, g, n)
            assert expr_integral(g, n, e, "ps") == \
                product_route_integral(g, n, e), text

    @pytest.mark.parametrize("g, text", CUBES)
    def test_cubes_match_complete_products(self, g, text):
        e = parse_expression(text, g, 1)
        assert expr_integral(g, 1, e, "ps") == product_route_integral(g, 1, e)

    def test_products_carry_no_core_psi(self):
        """Every term of every memoised product has no core psi after the
        monomial sweep to genus 3, so ``expr_integral`` takes the psi part
        of a core integral from the monomial alone."""
        pshodge.clear_caches()
        for g, n, max_lambdas in SWEEP:
            for text in top_degree_monomials(g, n, max_lambdas):
                expr_integral(g, n, parse_expression(text, g, n), "ps")
        assert {key[3] for key in strata._PRODUCTS} == {False, True}
        for (g, n, _, _), cls in strata._PRODUCTS.items():
            assert all(core_psi == (0,) * n for _, _, core_psi in cls.terms)

    @pytest.mark.parametrize("g, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_values_symmetric_in_the_markings(self, g, n):
        """A top-degree monomial with up to three lambda factors keeps its
        ps value under every permutation of its psi exponents."""
        dim = 3 * g - 3 + n
        permuted = nonzero = 0
        for w in range(dim + 1):
            for lams in partitions(w, g):
                if len(lams) > 3:
                    continue
                for exps in partitions(dim - w):
                    if len(exps) > n:
                        continue
                    orders = set(permutations(exps + (0,) * (n - len(exps))))
                    if len(orders) < 2:
                        continue
                    values = set()
                    for order in orders:
                        factors = [f"lambda{j}" for j in lams]
                        factors += [f"psi{i}^{e}"
                                    for i, e in enumerate(order, 1) if e]
                        values.add(expr_integral(g, n, parse_expression(
                            "*".join(factors), g, n), "ps"))
                    assert len(values) == 1, (lams, exps)
                    permuted += 1
                    nonzero += values != {0}
        assert permuted >= 10 and nonzero >= 10, (permuted, nonzero)

    def test_every_tail_carries_psi_bullet(self):
        full = complete_product(4, 1, (1, 1, 2))
        kept = strata._lambda_product(4, 1, (1, 1, 2), integrable=True)
        # the memo holds the product times 1! 1! 2!
        assert kept.terms == {
            key: 2 * c for key, c in full.terms.items()
            if all(b == 1 for _, b in key[0])}
        assert len(kept.terms) < len(full.terms)

    def test_kernel_matches_reference_kernels(self, monkeypatch):
        """Differential oracle: the one term-product kernel, under both
        bullet sets, against the complete and the integrable kernels it
        replaced, on every ordered term pair that ``class_multiply`` meets
        while the monomial sweep to genus 3, the g=4, 5 cubes and ps
        ``lambda_6^2`` run."""
        kernel = strata._term_product
        met = set()

        def recording(g, n, t, u, base, bullets):
            met.add((bullets, g, n, t, u))
            return kernel(g, n, t, u, base, bullets)

        monkeypatch.setattr(strata, "_term_product", recording)
        pshodge.clear_caches()
        try:
            for g, n, max_lambdas in SWEEP:
                for text in top_degree_monomials(g, n, max_lambdas):
                    expr_integral(g, n, parse_expression(text, g, n), "ps")
            for g, text in CUBES + REPEATED_TAILS:
                expr_integral(g, 1, parse_expression(text, g, 1), "ps")
        finally:
            monkeypatch.undo()
            pshodge.clear_caches()  # drop the products built while recording
        assert {key[0] for key in met} == {(0, 1), (1,)}
        pairs = {key[1:] for key in met}
        for g, n, t, u in pairs:
            for bullets, reference in (
                    ((0, 1), reference_term_product),
                    ((1,), reference_integrable_term_product)):
                assert accumulate({}, kernel(g, n, t, u, 1, bullets)) == \
                    accumulate({}, reference(g, n, t, u, 1)), \
                    (bullets, g, n, t, u)


class TestScaledProducts:
    QUERIES = [
        (2, 1, "(2*lambda2 - lambda1^2)*psi1^2"),
        (3, 2, "(1-lambda1)^3*lambda2*psi1^2*psi2^2"),
        (4, 1, "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"),
        (4, 1, "(lambda2 - lambda1^2)^2*lambda1*psi1^5"),
        (5, 1, "lambda1^3*lambda2^2*psi1^5"),
    ]

    def test_memoised_products_hold_ints(self):
        """The product memo holds ``prod j! * prod hat_lambda_j``, complete
        or with only its integrable terms, with plain ``int``
        coefficients, equal to the public ``Fraction`` product times the
        scale."""
        pshodge.clear_caches()
        for g, n, text in self.QUERIES:
            expr_integral(g, n, parse_expression(text, g, n), "ps")
        assert {key[3] for key in strata._PRODUCTS} == {False, True}
        for (g, n, lams, integrable), cls in strata._PRODUCTS.items():
            assert all(type(c) is int for c in cls.terms.values())
            if g > 4:
                continue  # the complete g=5 products take seconds
            scale = 1
            for j in lams:
                scale *= factorial(j)
            full = complete_product(g, n, lams).terms
            if integrable:
                full = {key: c for key, c in full.items()
                        if all(b == 1 for _, b in key[0])}
            assert cls.terms == {key: scale * c for key, c in full.items()}


def restrictions_from_scratch(core_lambda, new_tails):
    """The restrictions of a core lambda monomial over fresh tails, factor
    by factor from ``restrict_lambda_to_tails``: a dict from the bump
    vector to a Counter of the sorted kept lambda tuples."""
    states = {(0,) * new_tails: Counter({(): 1})}
    for j in core_lambda:
        step = {}
        for bumps, kept in states.items():
            for jc, slots in restrict_lambda_to_tails(j, new_tails):
                if any(bumps[s] for s in slots):
                    continue  # a tail psi square vanishes
                bumped = tuple(1 if s in slots else b
                               for s, b in enumerate(bumps))
                out = step.setdefault(bumped, Counter())
                for lams, mult in kept.items():
                    out[tuple(sorted(lams + ((jc,) if jc else ())))] += mult
        states = step
    return states


class TestRestrictionTables:
    @pytest.mark.parametrize("new_tails", range(5))
    @pytest.mark.parametrize("size", range(5))
    def test_tables_match_enumeration(self, size, new_tails):
        """Every sorted core lambda multiset of length <= 4 with entries
        <= 5."""
        for core in combinations_with_replacement(range(1, 6), size):
            table = strata._restrictions_by_bumps(core, new_tails)
            assert {bumps: Counter(tuple(sorted(k)) for k in lams)
                    for bumps, lams in table.items()} == \
                restrictions_from_scratch(core, new_tails), core
            assert strata._RESTRICTIONS[core, new_tails] is table
            assert strata._restrictions_by_bumps(core, new_tails) is table


def labelled_matchings(t_tails, u_tails, m):
    """Every labelled matching of m tails of ``t_tails`` with m tails of
    ``u_tails``, listed as ``combinations x permutations``: a Counter of
    the sorted matched type pairs and the unmatched tails of either side."""
    out = Counter()
    i, ip = len(t_tails), len(u_tails)
    for tsel in combinations(range(i), m):
        for usel in permutations(range(ip), m):
            pairs = tuple(sorted((t_tails[x], u_tails[y])
                                 for x, y in zip(tsel, usel)))
            t_rest = tuple(t_tails[x] for x in range(i) if x not in tsel)
            u_rest = tuple(u_tails[y] for y in range(ip) if y not in usel)
            out[pairs, t_rest, u_rest] += 1
    return out


def tail_multiset_pairs():
    """Equal runs of bare tails up to six a side, then random sorted
    multisets of up to five tails drawn from few types, so that most
    repeat a type."""
    for k in range(7):
        yield ((0, 0),) * k, ((0, 0),) * k
    types = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    rng = random.Random(2022)
    for _ in range(60):
        yield tuple(tuple(sorted(rng.choices(types, k=rng.randint(0, 5))))
                    for _ in range(2))


class TestMatchingTables:
    def test_weights_count_labelled_matchings(self):
        """For every m the weights sum to ``C(i, m) ip!/(ip - m)!``, each
        table uses up both multisets, and each weight is the number of
        labelled matchings with that table."""
        for t_tails, u_tails in tail_multiset_pairs():
            i, ip = len(t_tails), len(u_tails)
            tables = strata._matchings(t_tails, u_tails)
            assert len(tables) == min(i, ip) + 1
            for m, entries in enumerate(tables):
                assert sum(weight for weight, *_ in entries) == \
                    comb(i, m) * perm(ip, m), (t_tails, u_tails, m)
                found = Counter()
                for weight, pairs, t_rest, u_rest in entries:
                    assert len(pairs) == m
                    assert Counter(T for T, _ in pairs) + Counter(t_rest) \
                        == Counter(t_tails)
                    assert Counter(U for _, U in pairs) + Counter(u_rest) \
                        == Counter(u_tails)
                    found[tuple(sorted(pairs)), t_rest, u_rest] += weight
                assert found == labelled_matchings(t_tails, u_tails, m)
            assert strata._matchings(t_tails, u_tails) is tables
