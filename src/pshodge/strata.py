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
A :class:`TautClass` is a sparse polynomial in the sense of
:mod:`pshodge.multiset`: a dict from a decoration
``(tails, core_lambda, core_psi)`` to the nonzero rational coefficient
of

    G^i_*( lambda/psi monomial on the core
           x psi_star^{a_k} at the attaching markings
           x psi_bullet^{b_k} on the tails ).

``tails`` is the sorted multiset of per-tail pairs ``(a_k, b_k)``, with
``psi_bullet^2 = 0``, i.e. ``b_k <= 1``; ``core_lambda`` is the sorted
multiset of the core's lambda indices (``(1, 1, 2)`` for
``lambda_1^2 lambda_2``); ``core_psi`` lists the exponents at the
original markings; ``i = len(tails) = 0`` is the pure (non-boundary)
case.  G^i is the map from the product with *labelled* tails (so e.g.
``G^2_*(1)`` covers the two-tail locus twice; the 1/i! above accounts
for that), and a term stores the tail decorations as a multiset, which
is faithful because relabelling tails is an automorphism over the
gluing.

Products are excess intersections: two terms multiply by matching m
tails of one with m tails of the other (summed over labelled matchings);
every matched pair contributes the excess weight
``-psi_star - psi_bullet`` and keeps its merged decorations; each
factor's core lambda classes are restricted to the deeper stratum
carrying the other factor's unmatched tails, where the Hodge bundle
splits off one tail line bundle per new tail.  Labelled matchings that
pair the same tail types give the same terms, so they are counted, not
listed (compare Graber--Pandharipande, "Constructions of nontautological
classes on moduli spaces of curves", 2003, for products of boundary
strata).  Integration factorises: the core integral is a Hodge integral
and every tail contributes ``1/24`` per ``psi_bullet`` (and 0 without
one).

:func:`expr_integral` evaluates a polynomial in three steps:

1. expand the expression once into a sparse polynomial in the lambda
   and psi classes (key: the multiset of symbol indices, ``lambda_j``
   as j and ``psi_i`` as ``g + i``), dropping monomials above the
   dimension as they arise and keeping only those of exactly top degree.
   The same walk checks every symbol index and exponent of the tree.
   Coefficients stay plain ``int`` while they are integral and become
   ``Fraction`` only in that last filter; a power of a single monomial
   and a product of two single monomials are formed directly, and the
   general product and square-and-multiply are left to sums;
2. for each lambda multiset that occurs, form the product of the
   ``j! * hat_lambda_j``, whose coefficients ``j!/i!`` are integers, so
   the products keep plain ``int`` coefficients and the monomial's
   coefficient is divided by ``prod j!`` once.  The product of all
   factors but the last is complete, since a later factor can give a
   bare tail its ``psi_bullet``; the last factor is multiplied in
   keeping only the integrable terms, those whose tails all carry
   ``psi_bullet``.  One term-product kernel builds both, told which
   ``psi_bullet`` exponents a product tail may end with, and one memo
   (``_PRODUCTS``) holds both kinds of product, each built from its
   complete prefix.  The restrictions of a core lambda monomial over
   fresh tails, grouped by the tails they bump, depend only on the
   monomial and the tail count and are built once per pair
   (``_RESTRICTIONS``).  The kernel walks the matchings of two tail
   multisets by contingency table, how many tails of each type meet
   tails of each other type, and multiplies each table's terms by its
   number of labelled matchings; the tables of a pair of multisets are
   built once (``_MATCHINGS``).  The i tails of a ``hat_lambda_j``
   correction term are all bare, so two such terms meet in i + 1
   tables where they have ``sum_m C(i, m)^2 m!`` labelled matchings.
   Stably, each monomial is a Hodge integral and no strata class is
   formed;
3. integrate each integrable term of that product against the
   monomial's psi part at once.  Psi classes pull back unchanged and
   no product term carries core psi, so a term with i tails
   ``(a_k, 1)``, core lambda monomial ``lam`` and coefficient c gives
   ``c / 24^i`` times the stable Hodge integral over Mbar_{g-i,n+i} of
   ``lam`` with the monomial's psi exponents at the original markings
   and the ``a_k`` at the attaching ones.  Every term has the
   monomial's degree and a ``psi_bullet`` on every tail, so nothing is
   checked or skipped; the terms of one monomial are summed as an
   integer numerator over a running denominator, and no strata class
   is formed for the sum.

Each ``hat_lambda_j`` is homogeneous of degree j, so no product needs
truncating.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, factorial, log2, perm, prod
from operator import add

from . import expr as expr_mod
from .hodge import HodgeMonomial, ch_in_lambda, hodge_integral
from .multiset import accumulate, add_term, counts, multiply
from .wk import is_stable, psi_exponents

__all__ = [
    "EmptyModuliError",
    "check_ambient",
    "TautClass",
    "is_pseudostable",
    "hat_lambda",
    "restrict_lambda_to_tails",
    "class_multiply",
    "class_integrate",
    "t_pullback_ch",
    "expr_integral",
    "clear_caches",
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
        reason = (f"the moduli space is empty (excluded: {names})"
                  if g >= 0 and n >= 0 else
                  "the genus and the number of markings must be non-negative")
        super().__init__(
            f"({g}, {n}) is not a {'pseudostable' if space == 'ps' else 'stable'}"
            f" index; {reason}")
        self.g = g
        self.n = n
        self.space = space


def check_ambient(g, n, space):
    """Raise ``ValueError`` for an unknown ``space``, and
    :class:`EmptyModuliError` for an ambient (g, n) whose moduli space
    in ``space`` is empty."""
    if space not in ("stable", "ps"):
        raise ValueError("space must be 'stable' or 'ps'")
    nonempty = is_pseudostable if space == "ps" else is_stable
    if g < 0 or n < 0 or not nonempty(g, n):
        raise EmptyModuliError(g, n, space)


def _degree(key):
    """Degree of the strata term with decoration ``key``."""
    tails, core_lambda, core_psi = key
    return (len(tails) + sum(core_lambda) + sum(core_psi)
            + sum(a + b for a, b in tails))


def _make_term(g, n, coeff, tails, core_lambda, core_psi):
    """``(key, coeff)`` for a term on ambient (g, n), or None when it is
    the zero class.

    ``tails`` holds ``(a, b)`` pairs and ``core_lambda`` the core lambda
    indices with multiplicity, each in any order.  ``coeff`` is kept as
    given, so an ``int`` stays an ``int``.
    """
    if not coeff:
        return None
    tails = tuple(sorted(tails))
    if any(b > 1 for _, b in tails):
        return None  # psi_bullet^2 = 0
    i = len(tails)
    gc, nc = g - i, n + i
    if gc < 0 or not is_stable(gc, nc):
        return None  # the gluing map does not exist
    lam = tuple(sorted(core_lambda))
    if lam and lam[-1] > gc:
        return None  # rank bound on the core Hodge bundle
    return (tails, lam, tuple(core_psi)), coeff


@dataclass(frozen=True)
class TautClass:
    """A formal sum of strata terms on a fixed ambient Mbar_{g,n}.

    ``terms`` maps each decoration ``(tails, core_lambda, core_psi)`` to
    its nonzero coefficient (see module docstring).
    """

    g: int
    n: int
    terms: dict

    @staticmethod
    def from_terms(g, n, terms):
        """Sum ``(key, coeff)`` pairs; ``None`` entries are zero classes."""
        return TautClass(g, n, accumulate(
            {}, (t for t in terms if t is not None)))

    @staticmethod
    def zero(g, n):
        return TautClass(g, n, {})

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
            g, n, [_make_term(g, n, 1, (), (j,), (0,) * n)])

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
        return TautClass(self.g, self.n,
                         accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        self._check_ambient(other)
        return TautClass(self.g, self.n,
                         accumulate(dict(self.terms), other.terms.items(), -1))

    def __mul__(self, other):
        if isinstance(other, TautClass):
            return class_multiply(self, other)
        value = Fraction(other)
        return TautClass(self.g, self.n, {
            key: c * value for key, c in self.terms.items()} if value else {})

    __rmul__ = __mul__

    def prune_above(self, max_degree):
        """Drop terms of degree beyond ``max_degree`` (they integrate to 0)."""
        return TautClass(self.g, self.n, {
            key: c for key, c in self.terms.items()
            if _degree(key) <= max_degree})


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


_RESTRICTIONS = {}


def _restrictions_by_bumps(core_lambda, new_tails):
    """All ways to restrict a core lambda monomial over ``new_tails``
    fresh tails, grouped by bump vector.

    Returns a dict from the per-slot count of acquired tail psi factors
    to the list of lambda tuples the core keeps (each in no particular
    order).  Slots collecting two factors are dropped on the spot (tail
    psi squares vanish).  The table depends only on the two arguments
    and is memoised in ``_RESTRICTIONS``; callers must not mutate it.
    """
    key = (core_lambda, new_tails)
    table = _RESTRICTIONS.get(key)
    if table is not None:
        return table
    table = {}
    options = [restrict_lambda_to_tails(j, new_tails) for j in core_lambda]

    def rec(idx, kept, bumps):
        if idx == len(core_lambda):
            table.setdefault(tuple(bumps), []).append(kept)
            return
        for jc, slots in options[idx]:
            if any(bumps[s] for s in slots):
                continue
            for s in slots:
                bumps[s] += 1
            rec(idx + 1, kept + (jc,) if jc else kept, bumps)
            for s in slots:
                bumps[s] -= 1

    rec(0, (), [0] * new_tails)
    _RESTRICTIONS[key] = table
    return table


# _INCREMENTS[bullets][b]: the psi_bullet exponents a tail carrying
# psi_bullet^b may gain so that it ends with an exponent in ``bullets``.
_INCREMENTS = {(0, 1): ((0, 1), (0,)), (1,): ((1,), (0,))}


def _excess_branches(a, b, bullets):
    """Expansion of the excess weight ``-psi_star - psi_bullet`` against a
    matched tail carrying ``psi_star^a psi_bullet^b``, keeping the
    branches whose tail ends with a ``psi_bullet`` exponent in
    ``bullets``."""
    out = []
    if b in bullets:
        out.append((-1, (a + 1, b)))
    if b + 1 in bullets:
        out.append((-1, (a, b + 1)))
    return out


def _bumped(rest, restrictions, bullets):
    """``(lams, tails)`` for every bump vector of ``restrictions`` that
    leaves each of the unmatched tails ``rest`` with a ``psi_bullet``
    exponent in ``bullets``: the kept lambda tuples and the bumped
    tails."""
    if not rest:
        return [(restrictions[()], [])]  # the most frequent call
    increments = _INCREMENTS[bullets]
    out = []
    for bumps in iproduct(*[increments[b] for _, b in rest]):
        lams = restrictions.get(bumps)
        if lams is not None:
            out.append((lams, [(a, b + e) for (a, b), e in zip(rest, bumps)]))
    return out


_MATCHINGS = {}


def _matchings(t_tails, u_tails):
    """The matchings of tails of ``t_tails`` with tails of ``u_tails``
    (two sorted multisets), counted by tail type.

    A matching of m tails is determined, up to relabelling, by its
    contingency table ``k_TU``: how many tails of type T are matched with
    tails of type U.  With ``c_T`` and ``d_U`` the multiplicities of the
    types and ``r_T``, ``s_U`` the row and column sums, a table stands for

        prod_T C(c_T, r_T) r_T! / prod_U k_TU!  *  prod_U d_U! / (d_U - s_U)!

    labelled matchings, so the weights at m sum to
    ``C(i, m) * ip! / (ip - m)!``.  Returns a list indexed by m whose
    entries are ``(weight, pairs, t_rest, u_rest)``: the matched type
    pairs ``(T, U)``, each repeated ``k_TU`` times, and the sorted
    unmatched tails of either side.  Memoised in ``_MATCHINGS`` by the
    pair of multisets; callers must not mutate the lists.
    """
    key = (t_tails, u_tails)
    tables = _MATCHINGS.get(key)
    if tables is not None:
        return tables
    rows, cols = counts(t_tails), counts(u_tails)  # free tails per type
    cells = [(T, U) for T in rows for U in cols]
    tables = [[] for _ in range(min(len(t_tails), len(u_tails)) + 1)]

    def rec(idx, weight, pairs):
        if idx == len(cells):
            tables[len(pairs)].append((
                weight, pairs,
                tuple(T for T, c in rows.items() for _ in range(c)),
                tuple(U for U, d in cols.items() for _ in range(d))))
            return
        rec(idx + 1, weight, pairs)
        T, U = cells[idx]
        c, d = rows[T], cols[U]
        for k in range(1, min(c, d) + 1):
            # k of the c free T tails, each sent to its own free U tail
            rows[T], cols[U] = c - k, d - k
            rec(idx + 1, weight * comb(c, k) * perm(d, k),
                pairs + ((T, U),) * k)
        rows[T], cols[U] = c, d

    rec(0, 1, ())
    _MATCHINGS[key] = tables
    return tables


def _term_product(g, n, t, u, base, bullets):
    """The ``(key, coeff)`` strata terms of ``base`` times the product of
    the decorations ``t`` and ``u`` on Mbar_{g,n} whose tails all end
    with a ``psi_bullet`` exponent in ``bullets``: ``(0, 1)`` keeps every
    term, ``(1,)`` only the integrable ones.

    Matchings are walked by tail type (:func:`_matchings`), not one by
    one: every labelled matching with the same contingency table gives
    the same terms, so each table's terms are yielded once with its
    count of labelled matchings folded into the coefficient."""
    t_tails, t_lambda, t_psi = t
    u_tails, u_lambda, u_psi = u
    i, ip = len(t_tails), len(u_tails)
    core_psi = tuple(map(add, t_psi, u_psi))
    for m, tables in enumerate(_matchings(t_tails, u_tails)):
        t_restrictions = _restrictions_by_bumps(t_lambda, ip - m)
        u_restrictions = _restrictions_by_bumps(u_lambda, i - m)
        for weight, pairs, t_rest, u_rest in tables:
            # u's core restrictions bump t's unmatched tails
            new_ts = _bumped(t_rest, u_restrictions, bullets)
            if not new_ts:
                continue
            # t's core restrictions bump u's unmatched tails
            new_us = _bumped(u_rest, t_restrictions, bullets)
            if not new_us:
                continue
            scaled = base * weight
            # a merged psi_bullet^2 leaves no branch
            for branches in iproduct(*[
                    _excess_branches(ta + ua, tb + ub, bullets)
                    for (ta, tb), (ua, ub) in pairs]):
                sign = 1
                matched_tails = []
                for s, ab in branches:
                    sign *= s
                    matched_tails.append(ab)
                coeff = scaled * sign
                for t_lams, new_u in new_us:
                    for u_lams, new_t in new_ts:
                        tails = matched_tails + new_t + new_u
                        for lam_t in t_lams:
                            for lam_u in u_lams:
                                term = _make_term(g, n, coeff, tails,
                                                  lam_t + lam_u, core_psi)
                                if term is not None:
                                    yield term


def class_multiply(first, second, integrable=False):
    """Product of two strata classes on the same ambient Mbar_{g,n}.

    Bilinear; on terms it sums over matchings of m tails of one factor
    with m tails of the other, weighting every matched pair by the excess
    class and treating unmatched tails as fresh degenerations of the
    other factor's core (see module docstring).  With ``integrable``,
    the one term-product kernel keeps only the terms whose tails all
    carry ``psi_bullet``; the product then integrates against any psi
    monomial as the full one does, but cannot be multiplied further.
    """
    first._check_ambient(second)
    g, n = first.g, first.n
    bullets = (1,) if integrable else (0, 1)
    out = {}
    for t, tc in first.terms.items():
        for u, uc in second.terms.items():
            accumulate(out, _term_product(g, n, t, u, tc * uc, bullets))
    return TautClass(g, n, out)


def class_integrate(cls):
    """Integrate a strata class over its ambient Mbar_{g,n}.

    Per term: zero unless the total degree matches the dimension;
    otherwise the core Hodge integral times ``1/24`` per tail carrying a
    tail psi factor (a bare tail integrates to zero by dimension).

    :func:`expr_integral` no longer calls it: its integrable products
    pass both checks by construction, so it integrates their terms
    directly.
    """
    g, n = cls.g, cls.n
    if not is_stable(g, n):
        raise EmptyModuliError(g, n, "stable")
    dim = 3 * g - 3 + n
    total = _ZERO
    for key, coeff in cls.terms.items():
        if _degree(key) != dim:
            continue
        tails, core_lambda, core_psi = key
        if any(b == 0 for _, b in tails):
            continue
        i = len(tails)
        mono = HodgeMonomial.of(
            g - i, n + i, counts(core_lambda),
            core_psi + tuple(a for a, _ in tails))
        value = hodge_integral(mono)
        if value:
            total += coeff * value * _TAIL_PSI ** i
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
    terms = [_make_term(g, n, _ONE, (), (j,) if j else (), (0,) * n)]
    for i in range(1, j + 1):
        jc = j - i
        terms.append(_make_term(
            g, n, Fraction(1, factorial(i)), ((0, 0),) * i,
            (jc,) if jc else (), (0,) * n))
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
    terms = [_make_term(g, n, coeff, (), lams, (0,) * n)
             for lams, coeff in ch_in_lambda(l).items()]
    c = Fraction((-1) ** l, factorial(l))
    terms.append(_make_term(g, n, -c, ((l - 1, 0),), (), (0,) * n))
    if l >= 2:
        terms.append(_make_term(g, n, c, ((l - 2, 1),), (), (0,) * n))
    return TautClass.from_terms(g, n, terms)


def _check_power(c, e):
    """Refuse ``c ** e`` for a constant ``c`` when it would have more digits
    than Python converts to text (the limit that also governs printing).
    A numerator or denominator of bit length ``b`` is at least
    ``2^(b-1)``, so its power has more than ``(b-1) e log10(2)`` digits;
    the estimate is formed before the power, and ``c = +-1`` always
    passes."""
    # 0, or a Python with no such limit: refuse nothing
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
    # (b-1) e log10(2) >= limit; an int compares exactly with a float
    if limit and bits * e >= limit * log2(10):
        raise ValueError(f"a power of a constant in the expression would "
                         f"have more than {limit} digits")


def _expand(node, g, n, dim):
    """Expand an expression tree into a sparse polynomial of degree ``dim``.

    A key is the sorted multiset of symbol indices, ``lambda_j`` as j and
    ``psi_i`` as ``g + i``, so its lambda part comes first.  Monomials of
    degree above ``dim`` integrate to zero and are dropped as soon as
    they arise.  Coefficients stay plain ``int`` while they are integral
    and become :class:`~fractions.Fraction` once, in the final filter.
    A power of a single monomial, and a product of two single monomials,
    is formed in one step: one key, one coefficient and one degree check
    against ``dim``; :func:`~pshodge.multiset.multiply` is left to sums.

    The walk is the tree's only check: a bad symbol index, a negative
    exponent, a power of a constant too long to print
    (:func:`_check_power`) or a non-node raises, the first met left to
    right.
    """

    def degree(key):
        cut = bisect_right(key, g)  # the lambda part, as in _split
        return sum(key[:cut]) + len(key) - cut

    def walk(node):
        if isinstance(node, expr_mod.Lit):
            value = Fraction(node.value)
            if not value:
                return {}
            return {(): value.numerator if value.denominator == 1 else value}
        if isinstance(node, expr_mod.Lam):
            expr_mod._check_index("lambda", node.index, g, "g")
            return {(node.index,): 1}
        if isinstance(node, expr_mod.Psi):
            expr_mod._check_index("psi", node.index, n, "n")
            return {(g + node.index,): 1}
        if isinstance(node, expr_mod.Sum):
            return accumulate(walk(node.left), walk(node.right).items())
        if isinstance(node, expr_mod.Diff):
            return accumulate(walk(node.left), walk(node.right).items(), -1)
        if isinstance(node, expr_mod.Prod):
            left, right = walk(node.left), walk(node.right)
            if len(left) == len(right) == 1:
                (a, c), = left.items()
                (b, d), = right.items()
                if degree(a) + degree(b) > dim:
                    return {}
                return {tuple(sorted(a + b)): c * d}
            return multiply(left, right, degree, dim)
        if isinstance(node, expr_mod.Pow):
            # checked before the base: a negative exponent would give a
            # float, or never end the square-and-multiply loop
            if node.exponent < 0:
                raise ValueError("exponents must be non-negative")
            base, e = walk(node.base), node.exponent
            if () in base:  # the power's constant term is c ** e
                _check_power(base[()], e)
            if len(base) == 1:
                (key, c), = base.items()
                if degree(key) * e > dim:
                    return {}
                return {tuple(sorted(key * e)): c ** e}
            # square and multiply: truncation commutes with the product
            out = {(): 1}
            while e:
                if e & 1:
                    out = multiply(out, base, degree, dim)
                e >>= 1
                if e:
                    base = multiply(base, base, degree, dim)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return {key: Fraction(c) for key, c in walk(node).items()
            if degree(key) == dim}


def _split(key, g, n):
    """The lambda multiset and the psi exponent vector of a key of
    :func:`_expand`."""
    cut = bisect_right(key, g)
    psi = [0] * n
    for k in key[cut:]:
        psi[k - g - 1] += 1
    return key[:cut], tuple(psi)


_PRODUCTS = {}


def clear_caches():
    """Drop the memoised ``hat_lambda`` products, the table of lambda
    restrictions over fresh tails and the tail matchings by type."""
    _PRODUCTS.clear()
    _RESTRICTIONS.clear()
    _MATCHINGS.clear()


def _scaled_hat_lambda(g, n, j):
    """``j! * hat_lambda_j`` on Mbar_{g,n}: its coefficients ``j!/i!``
    are plain integers."""
    scale = factorial(j)
    return TautClass(g, n, {
        key: scale * c.numerator // c.denominator
        for key, c in hat_lambda(g, n, j).terms.items()})


def _lambda_product(g, n, lams, integrable=False):
    """``prod_{j in lams} j! * hat_lambda_j`` on Mbar_{g,n} for a sorted
    multiset, with ``int`` coefficients; with ``integrable``, only its
    terms whose tails all carry ``psi_bullet``.

    Memoised in ``_PRODUCTS`` by ``(g, n, lams, integrable)``.  Each
    product is its prefix's product times one more factor, so products
    sharing a prefix share the work.  The prefix is always complete,
    since a later factor can give its bare tails their ``psi_bullet``;
    only the last factor is multiplied in with ``integrable``.  Every
    ``hat_lambda_j`` is homogeneous of degree j, so no truncation is
    needed.
    """
    if not lams:
        return TautClass.one(g, n)
    key = (g, n, lams, integrable)
    cls = _PRODUCTS.get(key)
    if cls is None:
        cls = _scaled_hat_lambda(g, n, lams[-1])
        if len(lams) > 1 or integrable:
            cls = class_multiply(_lambda_product(g, n, lams[:-1]), cls,
                                 integrable)
        _PRODUCTS[key] = cls
    return cls


def expr_integral(g, n, expression, space="stable"):
    """Integrate a lambda/psi polynomial over the chosen moduli space.

    ``space`` is ``"stable"`` or ``"ps"``; empty ambient moduli raise
    :class:`EmptyModuliError`.  Evaluation takes the three steps set out
    in the module docstring: the expression is expanded into top-degree
    monomials, and for ps each monomial's value is summed straight from
    the terms of its integrable ``hat_lambda`` product, one stable Hodge
    integral per term, without forming a strata class or calling
    :func:`class_integrate`.  A tree built in code is checked
    while it is expanded, and raises the parser's
    :class:`~pshodge.expr.SymbolRangeError` on an out-of-range symbol.

    >>> e = expr_mod.parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
    >>> expr_integral(2, 1, e, space="ps")
    Fraction(-1, 576)
    """
    check_ambient(g, n, space)
    poly = _expand(expression, g, n, 3 * g - 3 + n)
    if space == "stable":
        total = _ZERO
        for key, coeff in poly.items():
            lams, psi = _split(key, g, n)
            total += coeff * hodge_integral(
                HodgeMonomial(g, n, tuple(counts(lams).items()), psi))
        return total
    total = _ZERO
    for key, coeff in poly.items():
        lams, psi = _split(key, g, n)
        num, den = 0, 1
        for (tails, lam, _), c in _lambda_product(
                g, n, lams, integrable=True).terms.items():
            i = len(tails)
            value = hodge_integral(HodgeMonomial(
                g - i, n + i, tuple(counts(lam).items()),
                tuple(sorted(psi + tuple(a for a, _ in tails)))))
            if value:
                num, den = add_term(num, den, c * value.numerator,
                                    value.denominator * 24 ** i)
        total += coeff * Fraction(num, den * prod(map(factorial, lams)))
    return total
