r"""The elliptic-tail strata algebra and pseudostable Hodge integrals.

Moduli of pseudostable curves (cusps allowed, unmarked genus-1 tails
contracted) carry their own psi and lambda classes.  Integrals of
polynomials in them are computed on the usual moduli of stable curves
after substituting corrected classes for the lambda classes: psi classes
pull back unchanged, while

    hat_lambda_j = lambda_j + sum_{i=1}^{j} (1/i!) G^i_* p_0^*(lambda_{j-i}),

where G^i glues i one-pointed genus-1 tails onto the core at i extra
markings and p_0 projects to the core factor.

This module implements the closed algebra spanned by such pushforwards.
A :class:`StratumTerm` is a rational multiple of

    G^i_*( lambda/psi monomial on the core
           x psi_star^{a_k} at the attaching markings
           x psi_bullet^{b_k} on the tails ),

with ``psi_bullet^2 = 0``, i.e. ``b_k <= 1``.  G^i is the map from the
product with *labelled* tails (so e.g. ``G^2_*(1)`` covers the two-tail
locus twice; the 1/i! above accounts for that), and a term stores the
tail decorations as a multiset, which is faithful because relabelling
tails is an automorphism over the gluing.

Products are excess intersections: two terms multiply by matching m
tails of one with m tails of the other (labelled matchings); every
matched pair contributes the excess weight ``-psi_star - psi_bullet``
and keeps its merged decorations; each factor's core lambda classes are
restricted to the deeper stratum carrying the other factor's unmatched
tails, where the Hodge bundle splits off one tail line bundle per new
tail.  Integration factorises: the core integral is a Hodge integral and
every tail contributes ``1/24`` per ``psi_bullet`` (and 0 without one).

:func:`expr_integral` evaluates a polynomial in four steps:

1. expand the expression once into a sparse polynomial in the lambda
   and psi classes, dropping monomials above the dimension as they
   arise and keeping only those of exactly top degree;
2. for each lambda multiset that occurs, form the product of the
   ``hat_lambda_j`` (memoised, built from its prefix); stably, each
   monomial is a Hodge integral and no strata class is formed;
3. attach the monomial's psi part to every term of that product by
   adding exponents to ``core_psi``, since psi classes pull back
   unchanged;
4. integrate the resulting class.

Each ``hat_lambda_j`` is homogeneous of degree j, so no product needs
truncating.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from math import factorial
from operator import add, mul

from . import expr as expr_mod
from .hodge import HodgeMonomial, ch_in_lambda, hodge_integral
from .wk import is_stable, psi_exponents

__all__ = [
    "EmptyModuliError",
    "StratumTerm",
    "TautClass",
    "is_pseudostable",
    "hat_lambda",
    "restrict_lambda_to_tails",
    "class_multiply",
    "class_integrate",
    "t_pullback_ch",
    "expr_integral",
    "ps_hodge_integral",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TAIL_PSI = Fraction(1, 24)  # integral of the psi class on the tail moduli

STABLE_EXCLUDED = ((0, 0), (0, 1), (0, 2), (1, 0))
PS_EXCLUDED = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0))


def is_pseudostable(g, n):
    """True when the moduli space of pseudostable (g, n)-curves is nonempty."""
    return is_stable(g, n) and (g, n) not in PS_EXCLUDED


class EmptyModuliError(ValueError):
    """Raised for ambient (g, n) whose moduli space is empty."""

    def __init__(self, g, n, space):
        excluded = PS_EXCLUDED if space == "ps" else STABLE_EXCLUDED
        names = ", ".join(str(p) for p in excluded)
        super().__init__(
            f"({g}, {n}) is not a {'pseudostable' if space == 'ps' else 'stable'}"
            f" index; the moduli space is empty (excluded: {names})")
        self.g = g
        self.n = n
        self.space = space


@dataclass(frozen=True)
class StratumTerm:
    """One decorated pushforward ``coeff * G^i_*(...)`` (see module docstring).

    ``tails`` is the sorted multiset of per-tail decorations ``(a, b)``:
    the attaching-marking psi exponent and the tail psi exponent.
    ``core_lambda`` is the sorted tuple of ``(index, exponent)`` pairs of
    the core lambda monomial, ``core_psi`` the exponents at the original
    markings.  ``i = len(tails) = 0`` is the pure (non-boundary) case.
    """

    coeff: Fraction
    tails: tuple
    core_lambda: tuple
    core_psi: tuple

    @property
    def num_tails(self):
        return len(self.tails)

    def degree(self):
        return (self.num_tails
                + sum(j * e for j, e in self.core_lambda)
                + sum(self.core_psi)
                + sum(a + b for a, b in self.tails))


def _make_term(g, n, coeff, tails, core_lambda, core_psi):
    """Validated term on ambient (g, n), or None when it is the zero class."""
    coeff = Fraction(coeff)
    if not coeff:
        return None
    tails = tuple(sorted(tails))
    if any(b > 1 for _, b in tails):
        return None  # psi_bullet^2 = 0
    i = len(tails)
    gc, nc = g - i, n + i
    if gc < 0 or not is_stable(gc, nc):
        return None  # the gluing map does not exist
    lam = {}
    for j, e in core_lambda:
        if e:
            lam[j] = lam.get(j, 0) + e
    if any(j > gc for j in lam):
        return None  # rank bound on the core Hodge bundle
    return StratumTerm(coeff, tails, tuple(sorted(lam.items())), tuple(core_psi))


@dataclass(frozen=True)
class TautClass:
    """A formal sum of strata terms on a fixed ambient Mbar_{g,n}."""

    g: int
    n: int
    terms: tuple

    @staticmethod
    def from_terms(g, n, terms):
        """Normalise: merge equal decorations, drop zeros, sort."""
        merged = {}
        for t in terms:
            if t is None:
                continue
            key = (t.tails, t.core_lambda, t.core_psi)
            merged[key] = merged.get(key, _ZERO) + t.coeff
        out = [StratumTerm(c, *key) for key, c in sorted(merged.items()) if c]
        return TautClass(g, n, tuple(out))

    @staticmethod
    def zero(g, n):
        return TautClass(g, n, ())

    @staticmethod
    def scalar(g, n, value):
        return TautClass.from_terms(
            g, n, [_make_term(g, n, value, (), (), (0,) * n)])

    @staticmethod
    def one(g, n):
        return TautClass.scalar(g, n, 1)

    @staticmethod
    def lambda_class(g, n, j):
        """The plain (uncorrected) class lambda_j as a one-term sum."""
        if j == 0:
            return TautClass.one(g, n)
        return TautClass.from_terms(
            g, n, [_make_term(g, n, 1, (), ((j, 1),), (0,) * n)])

    @staticmethod
    def psi_monomial(g, n, exps):
        return TautClass.from_terms(
            g, n, [_make_term(g, n, 1, (), (), psi_exponents(n, exps))])

    def _check_ambient(self, other):
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError(
                f"ambient mismatch: ({self.g}, {self.n}) vs ({other.g}, {other.n})")

    def __add__(self, other):
        self._check_ambient(other)
        return TautClass.from_terms(self.g, self.n, self.terms + other.terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, TautClass):
            return class_multiply(self, other)
        value = Fraction(other)
        return TautClass.from_terms(
            self.g, self.n,
            [StratumTerm(t.coeff * value, t.tails, t.core_lambda, t.core_psi)
             for t in self.terms])

    __rmul__ = __mul__

    def prune_above(self, max_degree):
        """Drop terms of degree beyond ``max_degree`` (they integrate to 0)."""
        return TautClass(self.g, self.n, tuple(
            t for t in self.terms if t.degree() <= max_degree))


def restrict_lambda_to_tails(j, new_tails):
    """Expansion of a core ``lambda_j`` over ``new_tails`` fresh genus-1 tails.

    On the deeper stratum the Hodge bundle splits off one line bundle per
    tail whose Chern class is the tail psi class, so lambda_j becomes
    ``sum_s e_s(tail psi classes) * lambda_{j-s}``.  Returns unit-coefficient
    pairs ``(j - s, slots)``: the core keeps ``lambda_{j-s}`` and each slot
    listed acquires one tail psi factor.

    >>> restrict_lambda_to_tails(1, 1)
    [(1, ()), (0, (0,))]
    >>> restrict_lambda_to_tails(2, 1)
    [(2, ()), (1, (0,))]
    """
    if j < 0:
        raise ValueError("negative lambda index")
    out = []
    for s in range(min(j, new_tails) + 1):
        for slots in combinations(range(new_tails), s):
            out.append((j - s, slots))
    return out


def _lambda_restrictions(core_lambda, new_tails):
    """All ways to restrict a core lambda monomial over fresh tails.

    Yields ``(lambda_pairs, bumps)``: the remaining core lambda exponent
    pairs and the per-slot count of acquired tail psi factors.  Slots
    collecting two factors are dropped on the spot (tail psi squares
    vanish).
    """
    factors = [j for j, e in core_lambda for _ in range(e)]
    results = []

    def rec(idx, lam_counts, bumps):
        if idx == len(factors):
            results.append((tuple(sorted(lam_counts.items())), tuple(bumps)))
            return
        for jc, slots in restrict_lambda_to_tails(factors[idx], new_tails):
            if any(bumps[s] for s in slots):
                continue
            for s in slots:
                bumps[s] += 1
            if jc:
                lam_counts[jc] = lam_counts.get(jc, 0) + 1
            rec(idx + 1, lam_counts, bumps)
            if jc:
                lam_counts[jc] -= 1
                if not lam_counts[jc]:
                    del lam_counts[jc]
            for s in slots:
                bumps[s] -= 1

    rec(0, {}, [0] * new_tails)
    return results


def _excess_branches(a, b):
    """Expansion of the excess weight ``-psi_star - psi_bullet`` against a
    matched tail carrying ``psi_star^a psi_bullet^b``."""
    out = [(-1, (a + 1, b))]
    if b + 1 <= 1:
        out.append((-1, (a, b + 1)))
    return out


def _term_product(g, n, t, u):
    """All strata terms of the product ``t * u`` on Mbar_{g,n}."""
    i, ip = len(t.tails), len(u.tails)
    core_psi = tuple(x + y for x, y in zip(t.core_psi, u.core_psi))
    base = t.coeff * u.coeff
    out = []
    for m in range(min(i, ip) + 1):
        for tsel in combinations(range(i), m):
            tsel_set = set(tsel)
            t_rest = [t.tails[x] for x in range(i) if x not in tsel_set]
            for usel in permutations(range(ip), m):
                usel_set = set(usel)
                u_rest = [u.tails[y] for y in range(ip) if y not in usel_set]
                merged = [(t.tails[x][0] + u.tails[y][0],
                           t.tails[x][1] + u.tails[y][1])
                          for x, y in zip(tsel, usel)]
                if any(b > 1 for _, b in merged):
                    continue
                for branches in iproduct(*[_excess_branches(a, b)
                                           for a, b in merged]):
                    sign = 1
                    matched_tails = []
                    for s, ab in branches:
                        sign *= s
                        matched_tails.append(ab)
                    for lam_t, bumps_t in _lambda_restrictions(
                            t.core_lambda, len(u_rest)):
                        new_u = [(a, bb + extra) for (a, bb), extra
                                 in zip(u_rest, bumps_t)]
                        if any(bb > 1 for _, bb in new_u):
                            continue
                        for lam_u, bumps_u in _lambda_restrictions(
                                u.core_lambda, len(t_rest)):
                            new_t = [(a, bb + extra) for (a, bb), extra
                                     in zip(t_rest, bumps_u)]
                            if any(bb > 1 for _, bb in new_t):
                                continue
                            term = _make_term(
                                g, n, base * sign,
                                matched_tails + new_t + new_u,
                                lam_t + lam_u, core_psi)
                            if term is not None:
                                out.append(term)
    return out


def class_multiply(first, second):
    """Product of two strata classes on the same ambient Mbar_{g,n}.

    Bilinear; on terms it sums over matchings of m tails of one factor
    with m tails of the other, weighting every matched pair by the excess
    class and treating unmatched tails as fresh degenerations of the
    other factor's core (see module docstring).
    """
    first._check_ambient(second)
    out = []
    for t in first.terms:
        for u in second.terms:
            out.extend(_term_product(first.g, first.n, t, u))
    return TautClass.from_terms(first.g, first.n, out)


def class_integrate(cls):
    """Integrate a strata class over its ambient Mbar_{g,n}.

    Per term: zero unless the total degree matches the dimension;
    otherwise the core Hodge integral times ``1/24`` per tail carrying a
    tail psi factor (a bare tail integrates to zero by dimension).
    """
    g, n = cls.g, cls.n
    if not is_stable(g, n):
        raise EmptyModuliError(g, n, "stable")
    dim = 3 * g - 3 + n
    total = _ZERO
    for t in cls.terms:
        if t.degree() != dim:
            continue
        if any(b == 0 for _, b in t.tails):
            continue
        i = t.num_tails
        mono = HodgeMonomial.of(
            g - i, n + i, t.core_lambda,
            t.core_psi + tuple(a for a, _ in t.tails))
        value = hodge_integral(mono)
        if value:
            total += t.coeff * value * _TAIL_PSI ** i
    return total


def hat_lambda(g, n, j):
    """The corrected class hat_lambda_j on Mbar_{g,n}.

    ``hat_lambda_j = lambda_j + sum_{i=1}^{j} (1/i!) G^i_*(p_0^* lambda_{j-i})``;
    correction terms whose core would be unstable are zero and dropped.

    >>> [len(hat_lambda(2, 1, j).terms) for j in (0, 1, 2)]
    [1, 2, 3]
    """
    if not is_pseudostable(g, n):
        raise EmptyModuliError(g, n, "ps")
    if j < 0:
        raise ValueError("negative lambda index")
    terms = [_make_term(g, n, 1, (), ((j, 1),) if j else (), (0,) * n)]
    for i in range(1, j + 1):
        jc = j - i
        terms.append(_make_term(
            g, n, Fraction(1, factorial(i)), ((0, 0),) * i,
            ((jc, 1),) if jc else (), (0,) * n))
    return TautClass.from_terms(g, n, terms)


def t_pullback_ch(g, n, l):
    """Pullback of the degree-l Chern character of the Hodge bundle along
    the contraction of elliptic tails, as a strata class.

    Equals ``ch_l - ((-1)^l / l!) G_*(psi_star^{l-1} - psi_bullet psi_star^{l-2})``
    with negative psi powers read as zero; the pure part ``ch_l`` is
    expanded as a lambda-class polynomial.
    """
    if l < 1:
        raise ValueError("ch index must be at least 1")
    terms = []
    for mono, coeff in ch_in_lambda(l).terms.items():
        lam = {}
        for j in mono:
            lam[j] = lam.get(j, 0) + 1
        terms.append(_make_term(g, n, coeff, (), tuple(sorted(lam.items())),
                                (0,) * n))
    c = Fraction((-1) ** l, factorial(l))
    terms.append(_make_term(g, n, -c, ((l - 1, 0),), (), (0,) * n))
    if l >= 2:
        terms.append(_make_term(g, n, c, ((l - 2, 1),), (), (0,) * n))
    return TautClass.from_terms(g, n, terms)


def _expand(node, g, n, dim):
    """Expand an expression tree into a sparse polynomial.

    Returns a dict from exponent vectors to nonzero Fractions; a vector
    lists the exponents of ``lambda_1 .. lambda_g`` and then of
    ``psi_1 .. psi_n``.  Monomials of degree above ``dim`` integrate to
    zero and are dropped as soon as they arise.
    """
    weights = tuple(range(1, g + 1)) + (1,) * n
    zero = (0,) * len(weights)

    def degree(exps):
        return sum(map(mul, weights, exps))

    def unit(slot):
        exps = list(zero)
        exps[slot] = 1
        return {tuple(exps): _ONE}

    def combine(p, q, sign):
        out = dict(p)
        for exps, c in q.items():
            out[exps] = out.get(exps, _ZERO) + sign * c
        return {exps: c for exps, c in out.items() if c}

    def times(p, q):
        out = {}
        q_deg = [(b, degree(b), d) for b, d in q.items()]
        for a, c in p.items():
            room = dim - degree(a)
            for b, db, d in q_deg:
                if db <= room:
                    exps = tuple(map(add, a, b))
                    out[exps] = out.get(exps, _ZERO) + c * d
        return {exps: c for exps, c in out.items() if c}

    def walk(node):
        if isinstance(node, expr_mod.Lit):
            return {zero: Fraction(node.value)} if node.value else {}
        if isinstance(node, expr_mod.Lam):
            return unit(node.index - 1)
        if isinstance(node, expr_mod.Psi):
            return unit(g + node.index - 1)
        if isinstance(node, expr_mod.Sum):
            return combine(walk(node.left), walk(node.right), 1)
        if isinstance(node, expr_mod.Diff):
            return combine(walk(node.left), walk(node.right), -1)
        if isinstance(node, expr_mod.Prod):
            return times(walk(node.left), walk(node.right))
        if isinstance(node, expr_mod.Pow):
            base = walk(node.base)
            out = {zero: _ONE}
            for _ in range(node.exponent):
                if not out:
                    break
                out = times(out, base)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return {exps: c for exps, c in walk(node).items() if degree(exps) == dim}


_HAT_LAMBDA_PRODUCTS = {}


def _hat_lambda_product(g, n, lams):
    """``prod_{j in lams} hat_lambda_j`` on Mbar_{g,n} for a sorted multiset.

    Memoised by ``(g, n, lams)``; each product is its prefix's product
    times one more factor, so products sharing a prefix share the work.
    Every ``hat_lambda_j`` is homogeneous of degree j, so no truncation
    is needed.
    """
    if not lams:
        return TautClass.one(g, n)
    key = (g, n, lams)
    cls = _HAT_LAMBDA_PRODUCTS.get(key)
    if cls is None:
        cls = hat_lambda(g, n, lams[-1])
        if len(lams) > 1:
            cls = class_multiply(_hat_lambda_product(g, n, lams[:-1]), cls)
        _HAT_LAMBDA_PRODUCTS[key] = cls
    return cls


def expr_integral(g, n, expression, space="stable"):
    """Integrate a lambda/psi polynomial over the chosen moduli space.

    ``space`` is ``"stable"`` or ``"ps"``; empty ambient moduli raise
    :class:`EmptyModuliError`.  Evaluation takes the four steps set out
    in the module docstring.
    """
    if space not in ("stable", "ps"):
        raise ValueError("space must be 'stable' or 'ps'")
    if space == "ps":
        if not is_pseudostable(g, n):
            raise EmptyModuliError(g, n, "ps")
    elif not is_stable(g, n):
        raise EmptyModuliError(g, n, "stable")
    expr_mod.validate(expression, g, n)
    poly = _expand(expression, g, n, 3 * g - 3 + n)
    if space == "stable":
        total = _ZERO
        for exps, coeff in poly.items():
            lam = tuple((j, e) for j, e in enumerate(exps[:g], 1) if e)
            total += coeff * hodge_integral(
                HodgeMonomial(g, n, lam, exps[g:]))
        return total
    terms = []
    for exps, coeff in poly.items():
        lams = tuple(j for j, e in enumerate(exps[:g], 1) for _ in range(e))
        psi = exps[g:]
        for t in _hat_lambda_product(g, n, lams).terms:
            terms.append(StratumTerm(coeff * t.coeff, t.tails, t.core_lambda,
                                     tuple(map(add, t.core_psi, psi))))
    return class_integrate(TautClass.from_terms(g, n, terms))


def ps_hodge_integral(g, n, expression):
    """Exact integral of ``F(lambda, psi)`` over the moduli space of
    pseudostable (g, n)-curves.

    >>> e = expr_mod.parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
    >>> ps_hodge_integral(2, 1, e)
    Fraction(-1, 576)
    """
    return expr_integral(g, n, expression, space="ps")
