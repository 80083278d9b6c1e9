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

:func:`expr_integral` evaluates the top-degree polynomial that
:func:`pshodge.expr.parse_expression` reads from a text in two steps:

1. for each lambda multiset that occurs, form the product of the
   ``j! * hat_lambda_j``, whose coefficients ``j!/i!`` are integers, so
   the products keep plain ``int`` coefficients and the monomial's
   coefficient is divided by ``prod j!`` once.  Each product is its
   prefix's product times its last factor, both read from one memo
   (``_PRODUCTS``).  The prefix is complete, since a later factor can
   give a bare tail its ``psi_bullet``; the last factor is multiplied in
   keeping only the integrable terms, whose tails all carry
   ``psi_bullet``.  :func:`class_multiply` builds both kinds in one loop
   that writes each term straight into the product.  A bare tail gains
   ``psi_bullet`` only by meeting a tail of the other term or by one
   bump from its core lambda classes, so for the integrable kind the
   loop skips a pair of terms where one has more bare tails than the
   other's ``len(tails) + sum(core_lambda)``.  It walks the matchings
   of two tail multisets by contingency table, how many tails of each
   type meet tails of each other type (``_MATCHINGS``).  For each
   table it restricts either core lambda monomial over the other
   term's unmatched tails by one memoised step, :func:`_restrictions`
   (``_RESTRICTIONS``), which lists the kept lambda tuples with the
   tails they leave: only a bare tail is bumped, at most once, and for
   the integrable kind every bare tail is.  The i tails of a
   ``hat_lambda_j`` correction term are all bare, so two such terms meet
   in i + 1 tables where they have ``sum_m C(i, m)^2 m!`` labelled
   matchings.
   Stably, each monomial is a Hodge integral and no strata class is
   formed;
2. integrate that product against the monomial's psi part with
   :func:`class_integrate`, the one routine that integrates strata
   classes.  Psi classes pull back unchanged, so a term with i tails
   ``(a_k, 1)``, core lambda monomial ``lam`` and coefficient c gives
   ``c / 24^i`` times the stable Hodge integral over Mbar_{g-i,n+i} of
   ``lam`` with the monomial's psi exponents at the original markings
   (product terms carry no core psi) and the ``a_k`` at the attaching
   ones.  ``lam``, like the lambda part of a stable monomial, is already
   the sorted multiset a :class:`~pshodge.hodge.HodgeMonomial` holds, so
   neither is converted.  The terms of one monomial are summed as an
   integer numerator over a running denominator, and the psi part is
   never formed as a strata class.

Each ``hat_lambda_j`` is homogeneous of degree j, so no product needs
truncating.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, factorial, perm, prod
from operator import add

from .hodge import HodgeMonomial, ch_in_lambda, hodge_integral
from .multiset import accumulate, add_term, counts
from .wk import is_stable, psi_exponents

__all__ = [
    "EmptyModuliError",
    "check_ambient",
    "TautClass",
    "is_pseudostable",
    "hat_lambda",
    "class_multiply",
    "class_integrate",
    "t_pullback_ch",
    "expr_integral",
    "clear_caches",
]

_ONE = Fraction(1)

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
    """``(key, coeff)`` for a term that a class constructor names on
    ambient (g, n), or None when it is the zero class.

    ``tails`` holds ``(a, b)`` pairs and ``core_lambda`` the core lambda
    indices with multiplicity, each in any order.  ``coeff`` is kept as
    given, so an ``int`` stays an ``int``.  Products build their terms
    in :func:`class_multiply`.
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


_RESTRICTIONS = {}


def _restrictions(core_lambda, tails, bullets):
    """The restrictions of a core lambda monomial to the stratum that
    carries the other term's unmatched ``tails``, as ``(lams, bumped)``
    pairs.

    There the Hodge bundle splits off one line bundle per tail, whose
    Chern class is the tail psi class (Whitney), so ``lambda_j`` becomes
    ``sum_s e_s(tail psi classes) * lambda_{j-s}``.  Each tail psi factor
    bumps a tail's ``psi_bullet`` exponent, and ``psi_bullet^2 = 0``, so
    only a bare tail can be bumped, and at most once.  A pair is kept
    when every tail ends with a ``psi_bullet`` exponent in ``bullets``,
    ``(0, 1)`` or ``(1,)``; with ``(1,)`` every bare tail is bumped.
    ``lams`` lists the lambda tuples the core keeps (each in no
    particular order, with multiplicity) and ``bumped`` the tails after
    the bumps, in the order of ``tails``.  Memoised in ``_RESTRICTIONS``
    by the three arguments; callers must not mutate the lists.

    >>> _restrictions((1,), ((0, 0),), (0, 1))
    [([(1,)], [(0, 0)]), ([()], [(0, 1)])]
    >>> _restrictions((2,), ((0, 0), (0, 0)), (1,))
    [([()], [(0, 1), (0, 1)])]
    """
    key = (core_lambda, tails, bullets)
    table = _RESTRICTIONS.get(key)
    if table is not None:
        return table
    groups = {}  # the slots of the tails left bare -> the kept lambdas

    def rec(idx, kept, bare):
        if idx == len(core_lambda):
            groups.setdefault(bare, []).append(kept)
            return
        j = core_lambda[idx]
        for s in range(min(j, len(bare)) + 1):
            for slots in combinations(bare, s):
                rec(idx + 1, kept + (j - s,) if s < j else kept,
                    tuple(k for k in bare if k not in slots))

    rec(0, (), tuple(k for k, (_, b) in enumerate(tails) if not b))
    table = _RESTRICTIONS[key] = [
        (lams, [(a, 0 if k in bare else 1) for k, (a, _) in enumerate(tails)])
        for bare, lams in groups.items() if not bare or 0 in bullets]
    return table


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


def class_multiply(first, second, integrable=False):
    """Product of two strata classes on the same ambient Mbar_{g,n}.

    Bilinear; on terms it sums over matchings of m tails of one factor
    with m tails of the other, weighting every matched pair by the excess
    class and treating unmatched tails as fresh degenerations of the
    other factor's core (see module docstring).  One loop walks the
    matchings by contingency table (:func:`_matchings`), checks the core
    once per m, since ``i + i' - m`` tails fix it, restricts each core's
    lambda classes over the other term's unmatched tails once per table
    (:func:`_restrictions`), and adds each term straight into the
    product.  With ``integrable``, only the terms
    whose tails all carry ``psi_bullet`` are kept (such a product
    integrates as the full one does, but cannot be multiplied further),
    and a pair of terms is skipped when one has more bare tails than the
    other's ``len(tails) + sum(core_lambda)``: a bare tail gains
    ``psi_bullet`` only by meeting a tail of the other term or by one
    bump from its core lambda classes.
    """
    first._check_ambient(second)
    g, n = first.g, first.n
    bullets = (1,) if integrable else (0, 1)
    # each term with its reach and its number of bare tails (b <= 1)
    u_terms = [(u, uc, len(u[0]) + sum(u[1]),
                len(u[0]) - sum(b for _, b in u[0]))
               for u, uc in second.terms.items()]
    out = {}
    for t, tc in first.terms.items():
        t_tails, t_lambda, t_psi = t
        i = len(t_tails)
        t_reach, t_bare = i + sum(t_lambda), i - sum(b for _, b in t_tails)
        for u, uc, u_reach, u_bare in u_terms:
            if integrable and (t_bare > u_reach or u_bare > t_reach):
                continue  # some bare tail cannot gain its psi_bullet
            u_tails, u_lambda, u_psi = u
            ip = len(u_tails)
            core_psi = tuple(map(add, t_psi, u_psi))
            for m, tables in enumerate(_matchings(t_tails, u_tails)):
                gc = g - i - ip + m  # the core's genus
                if gc < 0 or not is_stable(gc, n + i + ip - m):
                    continue  # the gluing map does not exist
                for weight, pairs, t_rest, u_rest in tables:
                    # u's core restrictions bump t's unmatched tails
                    new_ts = _restrictions(u_lambda, t_rest, bullets)
                    if not new_ts:
                        continue
                    # t's core restrictions bump u's unmatched tails
                    new_us = _restrictions(t_lambda, u_rest, bullets)
                    if not new_us:
                        continue
                    scaled = tc * uc * weight
                    # a merged psi_bullet^2 leaves no branch
                    for branches in iproduct(*[
                            _excess_branches(ta + ua, tb + ub, bullets)
                            for (ta, tb), (ua, ub) in pairs]):
                        coeff = scaled
                        matched_tails = []
                        for s, ab in branches:
                            coeff *= s
                            matched_tails.append(ab)
                        for t_lams, new_u in new_us:
                            for u_lams, new_t in new_ts:
                                tails = tuple(sorted(
                                    matched_tails + new_t + new_u))
                                for lam_t in t_lams:
                                    for lam_u in u_lams:
                                        lam = tuple(sorted(lam_t + lam_u))
                                        if lam and lam[-1] > gc:
                                            continue  # rank bound
                                        key = (tails, lam, core_psi)
                                        out[key] = out.get(key, 0) + coeff
    return TautClass(g, n, {key: c for key, c in out.items() if c})


def class_integrate(cls, psi=None):
    """Integrate ``cls * psi^psi`` over the ambient Mbar_{g,n} of ``cls``.

    ``psi`` is read by :func:`pshodge.wk.psi_exponents`; psi classes pull
    back unchanged, so its exponents join each term's ``core_psi``.  A
    term with i tails ``(a_k, 1)`` and coefficient c gives ``c / 24^i``
    times the stable Hodge integral over Mbar_{g-i,n+i} of its core
    lambda monomial, with those psi exponents at the original markings
    and the ``a_k`` at the attaching ones; a term with a bare tail gives
    0.  The term's degree matches the dimension exactly when its core
    integrand's degree matches the core's, and
    :func:`~pshodge.hodge.hodge_integral` returns 0 otherwise.  The terms
    are summed as an integer numerator over a running denominator, the
    numerators and denominators of ``Fraction`` coefficients apart.

    >>> class_integrate(TautClass.one(2, 1), {1: 4})
    Fraction(1, 1152)
    """
    g, n = cls.g, cls.n
    if not is_stable(g, n):
        raise EmptyModuliError(g, n, "stable")
    psi = psi_exponents(n, psi)
    num, den = 0, 1
    for (tails, lam, core_psi), c in cls.terms.items():
        attached = tuple(a for a, b in tails if b)
        i = len(tails)
        if len(attached) < i:
            continue  # a bare tail integrates to zero
        value = hodge_integral(HodgeMonomial(
            g - i, n + i, lam, tuple(map(add, core_psi, psi)) + attached))
        if value:
            num, den = add_term(num, den, c.numerator * value.numerator,
                                c.denominator * value.denominator * 24 ** i)
    return Fraction(num, den)


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


def _split(key, g, n):
    """The lambda multiset and the psi exponent vector of a key of
    :func:`~pshodge.expr.parse_expression`."""
    cut = bisect_right(key, g)
    psi = [0] * n
    for k in key[cut:]:
        psi[k - g - 1] += 1
    return key[:cut], tuple(psi)


_PRODUCTS = {}


def clear_caches():
    """Drop the memoised ``hat_lambda`` products, the table of lambda
    restrictions over unmatched tails and the tail matchings by type."""
    _PRODUCTS.clear()
    _RESTRICTIONS.clear()
    _MATCHINGS.clear()


def _lambda_product(g, n, lams, integrable=False):
    """``prod_{j in lams} j! * hat_lambda_j`` on Mbar_{g,n} for a sorted
    multiset, with ``int`` coefficients (``j!/i!`` for one factor); with
    ``integrable``, only its terms whose tails all carry ``psi_bullet``.

    Memoised in ``_PRODUCTS`` by ``(g, n, lams, integrable)``.  Each
    product is its complete prefix's product times its last factor, both
    read from the memo, so products sharing a prefix or a factor share
    the work; only the last factor is multiplied in with ``integrable``.
    Every ``hat_lambda_j`` is homogeneous of degree j, so no truncation
    is needed.
    """
    if not lams:
        return TautClass.one(g, n)
    key = (g, n, lams, integrable)
    cls = _PRODUCTS.get(key)
    if cls is None:
        if len(lams) > 1 or integrable:
            cls = class_multiply(_lambda_product(g, n, lams[:-1]),
                                 _lambda_product(g, n, lams[-1:]), integrable)
        else:
            scale = factorial(lams[0])
            cls = TautClass(g, n, {
                term: scale * c.numerator // c.denominator
                for term, c in hat_lambda(g, n, lams[0]).terms.items()})
        _PRODUCTS[key] = cls
    return cls


def expr_integral(g, n, poly, space="stable"):
    """Integrate a lambda/psi polynomial over the chosen moduli space.

    ``poly`` is the top-degree polynomial that
    :func:`~pshodge.expr.parse_expression` returns for ``(g, n)``.
    ``space`` is ``"stable"`` or ``"ps"``; empty ambient moduli raise
    :class:`EmptyModuliError`.  Evaluation takes the two steps set out
    in the module docstring: for ps each monomial's value is
    :func:`class_integrate` of its integrable ``hat_lambda`` product
    against its psi part, divided by ``prod j!``.  The monomials are
    summed as an integer numerator over a running denominator.

    >>> from pshodge.expr import parse_expression
    >>> poly = parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
    >>> expr_integral(2, 1, poly, space="ps")
    Fraction(-1, 576)
    """
    check_ambient(g, n, space)
    num, den = 0, 1
    for key, coeff in poly.items():
        lams, psi = _split(key, g, n)
        if space == "stable":
            value, scale = hodge_integral(HodgeMonomial(g, n, lams, psi)), 1
        else:
            value = class_integrate(
                _lambda_product(g, n, lams, integrable=True), psi)
            scale = prod(map(factorial, lams))
        num, den = add_term(num, den, coeff.numerator * value.numerator,
                            coeff.denominator * value.denominator * scale)
    return Fraction(num, den)
