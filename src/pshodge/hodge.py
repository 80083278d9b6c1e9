r"""Exact Hodge integrals: monomials in lambda and psi classes on Mbar_{g,n}.

``lambda_j`` is the j-th Chern class of the rank-g Hodge bundle E.
Integrals of monomials in lambda and psi classes are evaluated in three
steps:

1. every lambda factor is rewritten as a universal polynomial in the
   Chern characters ``ch_1, ch_2, ...`` of E.  Chern classes are
   elementary symmetric functions of the Chern roots and Chern
   characters are rescaled power sums, so Newton's identities convert
   one into the other.  Polynomials are plain dicts keyed by the sorted
   tuple of symbol indices (see :mod:`pshodge.multiset`).  Even Chern
   characters of the Hodge bundle vanish, so only the odd-ch part of
   each lambda factor is multiplied out;
2. a marking with ``psi^0`` or ``psi^1`` is forgotten first, by the
   string and dilaton equations: ch(E) is pulled back under the map that
   forgets a point, so they hold with no correction term (no
   Arbarello--Cornalba kappa correction).  Then one Chern character
   factor at a time is eliminated with Mumford's
   Grothendieck--Riemann--Roch evaluation of ch(E): the replacement is a
   kappa term, psi corrections at the markings, and pushforwards from the
   one-edge boundary gluings, which lower the genus or split the surface
   (with a Bernoulli-number prefactor).  The kappa term ``kappa_l`` is the
   same integrand with a new marking carrying ``psi^{l+1}``
   (Faber--Pandharipande), so the recursion holds only psi and ch
   factors.  A split surface puts each psi and ch factor on one side and
   ``psi^a``, ``psi^b`` at the two branches of the node; the degree of
   one side forces its genus, so the ch splits are bucketed by the degree
   they add to a side, and each psi split and bucket visits only the
   ``a`` that give both sides a stable genus; sides known to vanish
   (unstable, or genus 0 with a ch factor) are skipped without recursing,
   and a term and its mirror image (sides swapped, ``a`` and ``b``
   exchanged) are visited once.  Each memo entry is summed as an integer
   numerator over the running common denominator of its terms and stored
   as one ``Fraction``;
3. what remains are pure psi correlators, read from :mod:`pshodge.wk`
   once each and kept in the GRR memo as ``Fraction``s.
   Integrals with kappa classes enter through :func:`kappa_integral`,
   which eliminates them at entry: with the pointed convention
   ``kappa_a = pi_*(psi^{a+1})`` each kappa factor becomes a fresh point,
   absorbing any sub-multiset of the other kappa factors with
   alternating signs, down to WK correlators, with a memo local to the
   call.

Every operation is pure, exact, and memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .multiset import (accumulate, add_term, counts, multiply, replace_one,
                       sub_multisets)
from .wk import default_table, is_stable, psi_exponents

__all__ = [
    "HodgeMonomial",
    "bell_polynomial",
    "bernoulli",
    "lambda_to_ch",
    "ch_in_lambda",
    "hodge_integral",
    "kappa_integral",
    "clear_caches",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def bell_polynomial(k, xs, one=1):
    """Complete Bell polynomial ``B_k(x_1, ..., x_k)``.

    Defined by ``B_0 = 1`` and the recursion
    ``B_{k+1} = sum_{j=0}^{k} C(k, j) x_{j+1} B_{k-j}``, equivalently by
    ``sum_k B_k t^k / k! = exp(sum_j x_j t^j / j!)``.  ``xs`` lists
    ``x_1, x_2, ...`` and needs at least ``k`` entries; the entries may
    live in any commutative ring whose identity is passed as ``one``.

    >>> bell_polynomial(2, [Fraction(1, 2), 3])  # x_1^2 + x_2
    Fraction(13, 4)
    """
    if k < 0:
        raise ValueError("Bell polynomial index must be non-negative")
    table = [one]
    for m in range(k):
        acc = None
        for j in range(m + 1):
            term = comb(m, j) * xs[j] * table[m - j]
            acc = term if acc is None else acc + term
        table.append(acc)
    return table[k]


@lru_cache(maxsize=None)
def bernoulli(m):
    """Bernoulli number ``B_m`` (convention ``B_1 = -1/2``).

    >>> [bernoulli(m) for m in (0, 2, 4)]
    [Fraction(1, 1), Fraction(1, 6), Fraction(-1, 30)]
    """
    if m == 0:
        return Fraction(1)
    acc = sum(comb(m + 1, j) * bernoulli(j) for j in range(m))
    return Fraction(-acc, m + 1)


@lru_cache(maxsize=None)
def lambda_to_ch(j, g):
    """``lambda_j`` as a universal polynomial in ``ch_1 .. ch_j`` (rank g).

    Newton's identity ``j e_j = sum_{i=1}^{j} (-1)^(i-1) p_i e_{j-i}`` for
    elementary symmetric functions ``e`` and power sums ``p_i = i! ch_i``
    of the Chern roots.  Keys are sorted tuples of ch indices.  The
    identity holds for any rank-g bundle; ``j > g`` gives the zero
    polynomial (rank bound) and no parity substitution is applied here.
    The memoised dict is shared: do not mutate it.

    >>> lambda_to_ch(2, 3)
    {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 1)}
    """
    if j < 0 or j > g:
        return {}
    if j == 0:
        return {(): _ONE}
    out = {}
    for i in range(1, j + 1):
        p_i = {(i,): Fraction((-1) ** (i - 1) * factorial(i), j)}
        accumulate(out, multiply(lambda_to_ch(j - i, g), p_i).items())
    return out


@lru_cache(maxsize=None)
def ch_in_lambda(l):
    """``ch_l`` as a universal polynomial in lambda classes (any rank).

    Newton's identity ``p_l = (-1)^(l-1) l e_l
    + sum_{i=1}^{l-1} (-1)^(i-1) e_i p_{l-i}`` with ``p_l = l! ch_l``.
    Keys are sorted tuples of lambda indices.  The memoised dict is
    shared: do not mutate it.

    >>> ch_in_lambda(2)
    {(2,): Fraction(-1, 1), (1, 1): Fraction(1, 2)}
    """
    if l < 1:
        raise ValueError("ch_0 is the rank, not a polynomial in lambda classes")
    out = {(l,): Fraction((-1) ** (l - 1), factorial(l - 1))}
    for i in range(1, l):
        e_i = {(i,): Fraction((-1) ** (i - 1) * factorial(l - i), factorial(l))}
        accumulate(out, multiply(ch_in_lambda(l - i), e_i).items())
    return out


@dataclass(frozen=True)
class HodgeMonomial:
    """A monomial in lambda and psi classes on Mbar_{g,n}, in canonical form."""

    g: int
    n: int
    lambda_exp: tuple
    psi_exp: tuple

    @staticmethod
    def of(g, n, lambdas=None, psis=None):
        """Build a monomial; ``lambdas`` maps index j to its exponent and
        ``psis`` is read by :func:`pshodge.wk.psi_exponents`.  A negative
        genus raises ``ValueError``."""
        if int(g) < 0:
            raise ValueError("genus must be non-negative")
        lam = {}
        if lambdas:
            items = lambdas.items() if isinstance(lambdas, dict) else lambdas
            for j, e in items:
                j, e = int(j), int(e)
                if j < 1:
                    raise ValueError("lambda indices start at 1")
                if e < 0:
                    raise ValueError("exponents must be non-negative")
                if e:
                    lam[j] = lam.get(j, 0) + e
        return HodgeMonomial(int(g), int(n), tuple(sorted(lam.items())),
                             psi_exponents(n, psis))

    def degree(self):
        return sum(j * e for j, e in self.lambda_exp) + sum(self.psi_exp)


_CH_MEMO = {}
_HODGE_MEMO = {}


def clear_caches():
    """Drop the Hodge-integral and GRR reduction memos.  The GRR memo also
    holds the psi correlators it has read, as ``Fraction``s; the WK table
    they come from is managed separately."""
    _CH_MEMO.clear()
    _HODGE_MEMO.clear()


def _reduce(g, psi, ch):
    """Integral over Mbar_{g,n} of ``prod ch_l prod psi_i^{e_i}`` for sorted
    tuples.  Factors are eliminated from the largest ``ch_l`` down; an
    even l gives 0 at once, since its prefactor ``B_{l+1}`` vanishes, and a
    ch-free integral (a leaf) is read from the WK table once and memoised
    as a ``Fraction`` under ``(g, psi, ())``.  The memo is read before
    any stability or degree check.  A ``psi^0`` or ``psi^1`` marking whose
    removal leaves a stable space is forgotten (:func:`_forget_marking`)
    instead of expanding ``ch_l``.

    Mumford's kappa term of ``ch_l`` becomes a new marking: for the rest
    X of the integrand, ``kappa_l X = pi_*(psi_{n+1}^{l+1} pi^* X)``, where
    pi forgets the new point, ch(E) pulls back under pi and
    ``psi_{n+1} D_{i,n+1} = 0`` (Faber--Pandharipande).  So the term is the
    same integral on Mbar_{g,n+1} with the new marking carrying
    ``psi^{l+1}``, and no key holds a kappa class.

    The separating terms of ``ch_l`` run over splits ``(psi1, ch1)`` of the
    factors and node branches ``a + b = l - 1``.  The side holding
    ``psi1`` and ``psi^a`` has ``n1 = len(psi1) + 1`` points and degree
    ``w_psi + sum(ch1) + a`` with ``w_psi = sum(psi1) + 3 - n1``, which
    forces its genus to ``h = (t + a) / 3`` with ``t = w_psi + sum(ch1)``.
    The ch splits are bucketed once per call by ``sum(ch1)``; each psi
    split walks the buckets, and in each it steps ``a`` by 3 from the least
    ``a = -t (mod 3)`` whose side is stable, so ``h`` grows by one per step,
    until the other side, of genus ``g - h``, would be unstable.  A side of
    genus 0 with a ch factor (the Hodge bundle has rank 0 there) is
    skipped.  Swapping the two sides maps the split at ``a`` to a split at
    ``b`` with the same term, so only ``a <= b`` is visited, counted twice.

    The sum is kept as an integer numerator over the running least common
    multiple of the terms' denominators (:func:`~pshodge.multiset.add_term`),
    and one ``Fraction`` is built for the memo entry."""
    key = (g, psi, ch)
    hit = _CH_MEMO.get(key)
    if hit is not None:
        return hit
    if not ch:
        value = _CH_MEMO[key] = default_table()._psi_eval(g, psi)
        return value
    n = len(psi)
    if not is_stable(g, n):
        return _ZERO
    if sum(psi) + sum(ch) != 3 * g - 3 + n:
        return _ZERO
    if g == 0:  # rank-zero Hodge bundle
        return _ZERO
    l = ch[-1]
    if not l % 2:
        return _ZERO
    if psi and psi[0] <= 1 and is_stable(g, n - 1):
        value = _forget_marking(g, psi, ch)
        _CH_MEMO[key] = value
        return value
    rest = ch[:-1]

    # num / den is twice the bracket that multiplies the prefactor
    # Bern_{l+1} / (l+1)!: the separating terms enter at weight 1 instead
    # of 1/2, every other term at weight 2
    x = _reduce(g, tuple(sorted(psi + (l + 1,))), rest)
    num, den = 2 * x.numerator, x.denominator
    for v, c in counts(psi).items():
        x = _reduce(g, replace_one(psi, v, v + l), rest)
        num, den = add_term(num, den, -2 * c * x.numerator, x.denominator)

    # the terms with node branches (a, b) and (b, a) are equal, the sides
    # of a separating term swapped: a + b = l - 1 is even, so their signs
    # agree.  Each pair is visited once, at a <= b, and counted twice; at
    # a = b the lesser of two mirror splits stands for both.
    half = (l - 1) // 2
    for a in range(half + 1):
        twice = 1 if a == half else 2
        x = _reduce(g - 1, tuple(sorted(psi + (a, l - 1 - a))), rest)
        num, den = add_term(num, den, (-twice if a % 2 else twice)
                            * x.numerator, x.denominator)
    buckets = {}
    for ch1, ch2, mch in sub_multisets(rest):
        buckets.setdefault(sum(ch1), []).append((ch1, ch2, mch))
    for psi1, psi2, mpsi in sub_multisets(psi):
        n1 = len(psi1) + 1
        n2 = len(psi2) + 1
        w_psi = sum(psi1) + 3 - n1
        # at a = half the mirror split puts psi2 beside psi^a: skip the
        # greater psi side, and compare the ch factors only on a tie
        tie = psi1 == psi2
        last = half if psi1 <= psi2 else half - 1
        # both sides stable: 2h - 2 + n1 > 0 and 2(g - h) - 2 + n2 > 0
        h_min = 0 if n1 > 2 else 1
        h_max = g if n2 > 2 else g - 1
        for s, pairs in buckets.items():
            # 3h = t + a: start at the least a = -t (mod 3) with h >= h_min;
            # h grows by one per step
            t = w_psi + s
            for a in range(max(-t % 3, 3 * h_min - t), last + 1, 3):
                h = (t + a) // 3
                if h > h_max:
                    break
                side1 = tuple(sorted(psi1 + (a,)))
                side2 = tuple(sorted(psi2 + (l - 1 - a,)))
                m_a = -2 * mpsi if a % 2 else 2 * mpsi
                for ch1, ch2, m in pairs:
                    if (h == 0 and ch1) or (h == g and ch2):
                        continue  # a genus-0 side with ch: rank-zero bundle
                    m *= m_a
                    if tie and a == half:
                        if ch1 > ch2:
                            continue
                        if ch1 == ch2:
                            m //= 2
                    left = _reduce(h, side1, ch1)
                    right = _reduce(g - h, side2, ch2)
                    if left and right:
                        num, den = add_term(
                            num, den, m * left.numerator * right.numerator,
                            left.denominator * right.denominator)

    pref = bernoulli(l + 1) / factorial(l + 1)
    value = Fraction(pref.numerator * num, 2 * pref.denominator * den)
    _CH_MEMO[key] = value
    return value


def _forget_marking(g, psi, ch):
    """:func:`_reduce` with ``psi[0] <= 1`` by forgetting that marking.

    ch(E) is pulled back under the map that forgets a point, so with
    ``d = psi[1:]`` on ``m = len(d)`` points the string (``psi^0``) and
    dilaton (``psi^1``) equations hold as for pure psi integrals, with no
    correction term: ``psi^0`` lowers one positive exponent of ``d``, and
    ``psi^1`` multiplies the integral over ``d`` by ``2g - 2 + m``."""
    e, d = psi[0], psi[1:]
    if e:
        return (2 * g - 2 + len(d)) * _reduce(g, d, ch)
    num, den = 0, 1
    for v, c in counts(d).items():
        if v:
            x = _reduce(g, replace_one(d, v, v - 1), ch)
            num, den = add_term(num, den, c * x.numerator, x.denominator)
    return Fraction(num, den)


def _eliminate_kappa(g, psi, kappa, memo):
    """A kappa/psi integral for sorted tuples.  With the pointed convention
    ``kappa_a = pi_*(psi^{a+1})`` the first kappa factor is eliminated
    against a fresh point: a sub-multiset S of the other kappa factors
    merges into the fresh point's exponent, with sign ``(-1)^|S|``.  The
    pure psi correlators left are read from the WK table.  ``memo`` is
    local to one :func:`kappa_integral` call and keyed by
    ``(psi, kappa)``: without it, ``kappa_1^k`` would take ``2^(k-1)``
    paths to its leaves."""
    if not kappa:
        return default_table()._psi_eval(g, psi)
    hit = memo.get((psi, kappa))
    if hit is not None:
        return hit
    n = len(psi)
    if not is_stable(g, n) or sum(psi) + sum(kappa) != 3 * g - 3 + n:
        return _ZERO
    e = kappa[0] + 1
    num, den = 0, 1
    for chosen, remaining, mult in sub_multisets(kappa[1:]):
        x = _eliminate_kappa(g, tuple(sorted(psi + (e + sum(chosen),))),
                             remaining, memo)
        if x:
            sign = -1 if len(chosen) % 2 else 1
            num, den = add_term(num, den, sign * mult * x.numerator,
                                x.denominator)
    value = memo[psi, kappa] = Fraction(num, den)
    return value


def kappa_integral(g, n, psi, kappa):
    """Integral of ``prod kappa_a prod psi_i^{e_i}`` over Mbar_{g,n};
    ``psi`` is read by :func:`pshodge.wk.psi_exponents`.  The kappa
    factors are eliminated at entry (:func:`_eliminate_kappa`), with a
    memo local to the call, outside the GRR memo.  A negative genus or
    kappa index raises ``ValueError``.

    >>> kappa_integral(1, 1, None, [1])
    Fraction(1, 24)
    """
    g = int(g)
    if g < 0:
        raise ValueError("genus must be non-negative")
    kappa = tuple(sorted(int(a) for a in kappa))
    if kappa and kappa[0] < 0:
        raise ValueError("kappa indices must be non-negative")
    return _eliminate_kappa(g, tuple(sorted(psi_exponents(n, psi))), kappa,
                            {})


def hodge_integral(monomial):
    """Exact integral of a :class:`HodgeMonomial` over Mbar_{g,n}.

    Returns 0 on unstable ``(g, n)``, on a total-degree mismatch, and for
    any ``lambda_j`` with ``j > g``.  Pure psi monomials delegate to the
    Witten--Kontsevich evaluator directly.

    >>> hodge_integral(HodgeMonomial.of(1, 1, lambdas={1: 1}))
    Fraction(1, 24)
    """
    g, n = monomial.g, monomial.n
    if not is_stable(g, n):
        return _ZERO
    if monomial.degree() != 3 * g - 3 + n:
        return _ZERO
    if any(j > g for j, _ in monomial.lambda_exp):
        return _ZERO
    psi = tuple(sorted(monomial.psi_exp))
    if not monomial.lambda_exp:
        return default_table().integral(g, psi)
    key = (g, psi, monomial.lambda_exp)
    hit = _HODGE_MEMO.get(key)
    if hit is not None:
        return hit
    poly = {(): _ONE}
    for j, e in monomial.lambda_exp:
        odd = {mono: c for mono, c in lambda_to_ch(j, g).items()
               if all(l % 2 for l in mono)}
        for _ in range(e):
            poly = multiply(poly, odd)
    value = _ZERO
    for mono, coeff in poly.items():
        value += coeff * _reduce(g, psi, mono)
    _HODGE_MEMO[key] = value
    return value
