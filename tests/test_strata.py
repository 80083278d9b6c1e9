"""Strata algebra: pinned expansions, excess products, pseudostable integrals."""

import functools
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

import pytest

import pshodge
from pshodge import expr as E
from pshodge import hodge, strata
from pshodge.expr import parse_expression
from pshodge.hodge import (HodgeMonomial, bell_polynomial, hodge_integral,
                           kappa_integral)
from pshodge.multiset import accumulate, compositions, partitions
from pshodge.selfcheck import (random_taut_class, suite_hat_lambda_square)
from pshodge.strata import (EmptyModuliError, TautClass, class_integrate,
                            class_multiply, expr_integral, hat_lambda,
                            is_pseudostable,
                            restrict_lambda_to_tails, t_pullback_ch)
from pshodge.strata import _make_term
from pshodge.wk import wk_integral


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


def product_route_integral(g, n, expression):
    """The pseudostable integral by the complete ``hat_lambda`` product of
    each lambda multiset, with the psi part attached, then integrated:
    the route that builds every term and shares no scale with
    ``expr_integral``."""
    terms = {}
    for key, coeff in strata._expand(expression, g, n,
                                     3 * g - 3 + n).items():
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


def flipped_excess_branches(a, b):
    """The excess weight with the wrong sign, ``+psi_star + psi_bullet``."""
    out = [(1, (a + 1, b))]
    if b + 1 <= 1:
        out.append((1, (a, b + 1)))
    return out


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

    def test_commutativity_and_associativity(self):
        rng = random.Random(99)
        for _ in range(30):
            g, n = rng.choice([(2, 1), (3, 0), (3, 1), (3, 2), (4, 2)])
            a = random_taut_class(rng, g, n, max_tails=3)
            b = random_taut_class(rng, g, n, max_tails=3)
            c = random_taut_class(rng, g, n, max_tails=3)
            ab = class_multiply(a, b)
            ba = class_multiply(b, a)
            left = class_multiply(ab, c)
            right = class_multiply(a, class_multiply(b, c))
            assert ab == ba
            assert left == right
            # and under integration against a random psi complement
            dim = 3 * g - 3 + n
            for cls_pair in ((ab, ba), (left, right)):
                deg = {strata._degree(key) for key in cls_pair[0].terms}
                for dd in deg:
                    if dd > dim or dim - dd > 6:
                        continue
                    exps = [0] * n
                    for _ in range(dim - dd):
                        if n:
                            exps[rng.randrange(n)] += 1
                    if sum(exps) != dim - dd:
                        continue
                    mono = TautClass.psi_monomial(g, n, exps)
                    assert class_integrate(class_multiply(cls_pair[0], mono)) \
                        == class_integrate(class_multiply(cls_pair[1], mono))

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


class TestBellAssembly:
    def z_class(self, g, n, l):
        return (Fraction((-1) ** (l - 1) * factorial(l - 1) * factorial(l))
                * t_pullback_ch(g, n, l))

    def test_bell_consistency_small(self):
        g, n = 3, 2
        dim = 3 * g - 3 + n
        for j in (1, 2):
            zs = [self.z_class(g, n, l) for l in range(1, j + 1)]
            assembled = Fraction(1, factorial(j)) * bell_polynomial(
                j, zs, one=TautClass.one(g, n))
            direct = hat_lambda(g, n, j)
            for exps in list(compositions(dim - j, n))[:5]:
                mono = TautClass.psi_monomial(g, n, exps)
                assert class_integrate(class_multiply(assembled, mono)) == \
                    class_integrate(class_multiply(direct, mono))

    def test_recursion_identity_small(self):
        g, n = 3, 2
        dim = 3 * g - 3 + n
        for k in (0, 1):
            lhs = (k + 1) * hat_lambda(g, n, k + 1)
            rhs = TautClass.zero(g, n)
            for j in range(0, k + 1):
                rhs = rhs + Fraction(1, factorial(j)) * class_multiply(
                    self.z_class(g, n, j + 1), hat_lambda(g, n, k - j))
            for exps in list(compositions(dim - (k + 1), n))[:4]:
                mono = TautClass.psi_monomial(g, n, exps)
                assert class_integrate(class_multiply(lhs, mono)) == \
                    class_integrate(class_multiply(rhs, mono))


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
            values = {}
            for space in ("stable", "ps"):
                value = expr_integral(g, n, node, space)
                assert value == reference_integral(g, n, node, space), \
                    (g, n, E.to_text(node), space)
                values[space] = value
                nonzero += value != 0
            differ += values["stable"] != values["ps"]
        assert nonzero >= 50 and differ >= 10

    def test_nonlinear_differs_from_stable_g5(self):
        text = "(1-lambda1+lambda2-lambda3+lambda4-lambda5)^3*psi1^6"
        e = parse_expression(text, 5, 1)
        assert expr_integral(5, 1, e, "ps") == Fraction(619, 137625600)
        assert expr_integral(5, 1, e, "stable") == Fraction(-1829, 87091200)

    def test_clear_caches_empties_product_memo(self):
        e = parse_expression("lambda1^2*lambda2*psi1^3", 3, 1)
        first = expr_integral(3, 1, e, "ps")
        assert strata._HAT_LAMBDA_PRODUCTS
        assert (3, 1, (1, 1, 2)) in strata._INTEGRABLE_PRODUCTS
        assert (3, 1, (1, 1, 2)) not in strata._HAT_LAMBDA_PRODUCTS
        assert strata._RESTRICTIONS
        assert hodge._HODGE_MEMO
        assert hodge._reduce(1, (0,), (1,)) == Fraction(1, 24)
        assert (1, (0,), (1,)) in hodge._CH_MEMO  # a (g, psi, ch) key
        assert all(len(key) == 3 for key in hodge._CH_MEMO)
        stored = dict(hodge._CH_MEMO)
        assert kappa_integral(1, 1, None, [1]) == Fraction(1, 24)
        assert hodge._CH_MEMO == stored  # kappa elimination stores nothing
        pshodge.clear_caches()
        assert not strata._HAT_LAMBDA_PRODUCTS
        assert not strata._INTEGRABLE_PRODUCTS
        assert not strata._RESTRICTIONS
        assert not hodge._HODGE_MEMO and not hodge._CH_MEMO
        assert expr_integral(3, 1, e, "ps") == first


class TestIntegrableProducts:
    # every monomial up to genus 3; at genus 4 the complete products of
    # three or more factors take seconds, so the cube below stands in
    @pytest.mark.parametrize("g, n, max_lambdas", [
        (2, 1, 9), (2, 2, 9), (3, 1, 9), (3, 2, 9), (4, 1, 2)])
    def test_monomials_match_complete_products(self, g, n, max_lambdas):
        """Differential oracle: every top-degree monomial through the
        products that build only integrable terms, against the complete
        products."""
        for text in top_degree_monomials(g, n, max_lambdas):
            e = parse_expression(text, g, n)
            assert expr_integral(g, n, e, "ps") == \
                product_route_integral(g, n, e), text

    @pytest.mark.parametrize("g, text", [
        (4, "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"),
        (5, "(1-lambda1+lambda2-lambda3+lambda4-lambda5)^3*psi1^6")])
    def test_cubes_match_complete_products(self, g, text):
        e = parse_expression(text, g, 1)
        assert expr_integral(g, 1, e, "ps") == product_route_integral(g, 1, e)

    def test_every_tail_carries_psi_bullet(self):
        full = complete_product(4, 1, (1, 1, 2))
        kept = strata._integrable_product(4, 1, (1, 1, 2))
        # the memo holds the product times 1! 1! 2!
        assert kept.terms == {
            key: 2 * c for key, c in full.terms.items()
            if all(b == 1 for _, b in key[0])}
        assert len(kept.terms) < len(full.terms)


class TestScaledProducts:
    QUERIES = [
        (2, 1, "(2*lambda2 - lambda1^2)*psi1^2"),
        (3, 2, "(1-lambda1)^3*lambda2*psi1^2*psi2^2"),
        (4, 1, "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"),
        (4, 1, "(lambda2 - lambda1^2)^2*lambda1*psi1^5"),
        (5, 1, "lambda1^3*lambda2^2*psi1^5"),
    ]

    def test_memoised_products_hold_ints(self):
        """Both product memos hold ``prod j! * prod hat_lambda_j`` with
        plain ``int`` coefficients, equal to the public ``Fraction``
        product times the scale."""
        pshodge.clear_caches()
        for g, n, text in self.QUERIES:
            expr_integral(g, n, parse_expression(text, g, n), "ps")
        for memo in (strata._HAT_LAMBDA_PRODUCTS,
                     strata._INTEGRABLE_PRODUCTS):
            assert memo
            for (g, n, lams), product in memo.items():
                assert all(type(c) is int for c in product.terms.values())
                if g > 4:
                    continue  # the complete g=5 products take seconds
                scale = 1
                for j in lams:
                    scale *= factorial(j)
                full = complete_product(g, n, lams).terms
                if memo is strata._INTEGRABLE_PRODUCTS:
                    full = {key: c for key, c in full.items()
                            if all(b == 1 for _, b in key[0])}
                assert product.terms == {
                    key: scale * c for key, c in full.items()}


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
