r"""Exact intersection numbers of psi classes on Mbar_{g,n}.

The correlator ``<tau_{d_1} ... tau_{d_n}>_g`` is the integral of
``psi_1^{d_1} ... psi_n^{d_n}`` over the moduli space of stable n-pointed
genus-g curves.  It vanishes unless ``d_1 + ... + d_n = 3g - 3 + n``, and
the whole collection of values is pinned down by Witten's conjecture
(Kontsevich's theorem).  Unstable ``(g, n)`` (see :func:`is_stable`) and
dimension mismatches give 0 rather than an error, so the recursions need
no case analysis.

Correlators are computed and memoised as the integers

    A(g, d) = 24^g g! prod_i (2 d_i + 1)!! <tau_d>_g,

and divided back only when a value leaves the table.  In these variables
the string and dilaton equations and the Dijkgraaf--Verlinde--Verlinde
form of the Virasoro constraints have integer coefficients.  With ``d``
sorted, ``p`` its smallest exponent and ``rest`` the others:

* string:  ``A(g, 0 X) = sum_v c_v (2v + 1) A(g, X with one v lowered)``;
* dilaton: ``A(g, 1 X) = 3 (2g - 2 + n) A(g, X)`` for X with n insertions;
* DVV:     ``A(g, d)`` is the sum of the merge terms
  ``c_v (2v + 1) A(g, rest with v raised to p + v - 1)``, the genus
  reduction ``12 g sum_{a+b=p-2} A(g-1, rest a b)``, and half of the
  separating terms ``C(g, g1) mult A(g1, S a) A(g - g1, S^c b)`` over
  ``a + b = p - 2`` and sub-multisets S of ``rest`` with multiplicity
  ``mult``.  The genus reduction visits ``a < b`` twice and ``a = b``
  once; the separating sum visits one of each pair ``S, S^c`` of
  distinct sub-multisets, whose terms ``(a, S)`` and ``(b, S^c)`` agree.

Base values: ``A(0, (0, 0, 0)) = 1`` and ``A(1, (1,)) = 3``, that is
``<tau_0^3>_0 = 1`` and ``<tau_1>_1 = 1/24``.

DVV holds for whichever marking carries ``tau_p``.  A key reaches DVV
only when string and dilaton do not apply, so ``p >= 2``.  The smallest
exponent is taken because the genus-reduction and separating terms
split ``p - 2`` between two new insertions: a small ``p`` gives few
splits, and the merge terms move the weight onto one exponent of
``rest`` instead.  Taking the largest exponent reaches many more keys:
a cold ``<tau_40>_14`` fills 905 memo entries instead of 5784, and
``<tau_{3g-2}>_g`` grows about 1.2x per genus instead of 2x (g = 40 in
well under a second).

Only a self-complementary sub-multiset ``S = S^c`` is left to halve.
There is one exactly when every multiplicity in ``rest`` is even (the
empty ``rest`` included), and its halving is exact, so every A is an
integer by induction.  Count its terms over the labelled subsets of the
positions of ``rest`` that realise S.  If ``rest`` is nonempty,
``(a, S) <-> (p - 2 - a, S^c)`` pairs them with equal values
(``C(g, g1) = C(g, g - g1)``) and has no fixed point, so their sum is
even.  If ``rest`` is empty, the only unpaired term has ``a = b`` and
``g1 = g/2``; it carries ``C(g, g/2)``, which is even.

All values are memoised in one plain dict, and every value is a pure
function of its key.  The table can be persisted in a plain text format
(see :mod:`pshodge.cache`), and :func:`pshodge.clear_caches` leaves it
as it is.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

from .multiset import counts, replace_one, sub_multisets

__all__ = [
    "is_stable",
    "psi_exponents",
    "WKTable",
    "default_table",
    "wk_integral",
]

_ZERO = Fraction(0)


def is_stable(g, n):
    """True when the moduli space of stable (g, n)-curves is nonempty:
    ``2g - 2 + n > 0``.

    >>> [is_stable(0, 3), is_stable(1, 0), is_stable(1, 1), is_stable(2, 0)]
    [True, False, True, True]
    """
    return 2 * g - 2 + n > 0


def psi_exponents(n, psi=None):
    """One psi exponent per marking, as a tuple of length n.

    ``psi`` is ``None`` (all zero), a marking->exponent map with markings
    ``1..n``, or a list of n exponents.  A negative n is refused.

    >>> psi_exponents(3, {2: 4})
    (0, 4, 0)
    """
    if n < 0:
        raise ValueError("the number of markings must be non-negative")
    if psi is None:
        return (0,) * n
    if isinstance(psi, dict):
        exps = [0] * n
        for i, e in psi.items():
            if not 1 <= i <= n:
                raise ValueError(f"psi marking {i} out of range 1..{n}")
            exps[i - 1] = int(e)
    else:
        exps = list(map(int, psi))
        if len(exps) != n:
            raise ValueError("psi exponent list must have length n")
    if exps and min(exps) < 0:
        raise ValueError("psi exponents must be non-negative")
    return tuple(exps)


@cache
def odd_double_factorial(m):
    """``m!!`` for odd ``m >= -1``, with the convention ``(-1)!! = 1``.

    >>> [odd_double_factorial(m) for m in (-1, 1, 3, 5, 7)]
    [1, 1, 3, 15, 105]
    """
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _scale(g, d):
    """``24^g g! prod (2 d_i + 1)!!``, the factor from a correlator to A.

    >>> _scale(1, (1,)), _scale(0, (0, 2, 3))
    (72, 1575)
    """
    out = 24 ** g * factorial(g)
    for x in d:
        out *= odd_double_factorial(2 * x + 1)
    return out


class WKTable:
    """Memo table of correlators.

    The psi memo maps a sorted key ``(g, d)`` to the integer ``A(g, d)``
    (see the module docstring); every public method converts it back to
    the rational correlator.  Every stored value is a pure function of its
    key; :mod:`pshodge.cache` saves and loads the memo, and
    :func:`pshodge.clear_caches` does not empty it.
    """

    def __init__(self):
        self._psi = {}

    def __len__(self):
        return len(self._psi)

    def psi_items(self):
        """Stored pure-psi values as ``((g, d), value)`` pairs, sorted."""
        return sorted((key, Fraction(a, _scale(*key)))
                      for key, a in self._psi.items())

    def lookup(self, g, d):
        key = (g, tuple(sorted(d)))
        a = self._psi.get(key)
        return None if a is None else Fraction(a, _scale(*key))

    def preload(self, entries):
        """Bulk-insert ``((g, d), value)`` pairs (used by the cache loader).

        A value whose scaled form is not an integer cannot be a correlator;
        it is kept as a ``Fraction`` so that :func:`~pshodge.cache.cache_verify`
        still reports it.
        """
        for (g, d), value in entries:
            key = (int(g), tuple(sorted(d)))
            a = Fraction(value) * _scale(*key)
            self._psi[key] = a.numerator if a.denominator == 1 else a

    # -- pure psi correlators -------------------------------------------

    def integral(self, g, d=()):
        """``<tau_{d_1} ... tau_{d_n}>_g`` for any iterable of exponents.

        A negative genus or exponent raises ``ValueError``.

        >>> WKTable().integral(0, [0, 0, 0])
        Fraction(1, 1)
        >>> WKTable().integral(1, [1])
        Fraction(1, 24)
        """
        g = int(g)
        if g < 0:
            raise ValueError("genus must be non-negative")
        d = sorted(map(int, d))
        return self._psi_eval(g, psi_exponents(len(d), d))

    def _psi_eval(self, g, d):
        a = self._scaled(g, d)
        return Fraction(a, _scale(g, d)) if a else _ZERO

    def _scaled(self, g, d):
        """``A(g, d)`` for a sorted tuple ``d``; 0 off the stable range."""
        n = len(d)
        if not is_stable(g, n):
            return 0
        if sum(d) != 3 * g - 3 + n:
            return 0
        key = (g, d)
        hit = self._psi.get(key)
        if hit is not None:
            return hit
        if g == 0 and n == 3:
            value = 1
        elif g == 1 and n == 1:
            value = 3
        elif d[0] == 0:
            value = self._string(g, d)
        elif d[0] == 1 and is_stable(g, n - 1):
            value = 3 * (2 * g - 3 + n) * self._scaled(g, d[1:])
        else:
            value = self._dvv(g, d)
        self._psi[key] = value
        return value

    def _string(self, g, d):
        psi = self._psi
        rest = d[1:]
        total = 0
        for v, c in counts(rest).items():
            if v:
                key = (g, replace_one(rest, v, v - 1))
                x = psi.get(key)
                total += c * (2 * v + 1) * (
                    self._scaled(*key) if x is None else x)
        return total

    def _dvv(self, g, d):
        # tau_p is the smallest exponent, so the genus and separating sums
        # split only p - 2 (see the module docstring); each pair of equal
        # terms is visited once; every key has the right dimension, so the
        # memo is read before calling _scaled
        psi = self._psi
        scaled = self._scaled
        p = d[0]
        rest = d[1:]
        total = 0
        for v, c in counts(rest).items():
            key = (g, replace_one(rest, v, p + v - 1))
            x = psi.get(key)
            total += c * (2 * v + 1) * (scaled(*key) if x is None else x)
        if g >= 1:
            genus = 0
            for a in range((p - 1) // 2):
                key = (g - 1, tuple(sorted(rest + (a, p - 2 - a))))
                x = psi.get(key)
                genus += 2 * (scaled(*key) if x is None else x)
            if p % 2 == 0:
                genus += scaled(g - 1, tuple(sorted(rest + (p // 2 - 1,) * 2)))
            total += 12 * g * genus
        # splits[-1 - i] is the complement of splits[i]; a middle entry, if
        # any, is its own complement and its sum is halved
        splits = sub_multisets(rest)
        half, odd = divmod(len(splits), 2)
        for i in range(half + odd):
            part1, part2, mult = splits[i]
            split = 0
            # the side holding tau_a has genus g1 with 3 g1 = w + a: start at
            # the least a = -w (mod 3) with g1 >= 0; g1 grows by one per step
            w = sum(part1) - len(part1) + 2
            for a in range(max(-w % 3, -w), p - 1, 3):
                g1 = (w + a) // 3
                if g1 > g:
                    break
                key = (g1, tuple(sorted(part1 + (a,))))
                x = psi.get(key)
                left = scaled(*key) if x is None else x
                if left:
                    key = (g - g1, tuple(sorted(part2 + (p - 2 - a,))))
                    x = psi.get(key)
                    right = scaled(*key) if x is None else x
                    split += comb(g, g1) * left * right
            total += mult * split if i < half else mult * split // 2
        return total


_DEFAULT = WKTable()


def default_table():
    """The process-wide memo table used by the convenience functions."""
    return _DEFAULT


def wk_integral(g, d=()):
    """``<tau_{d_1} ... tau_{d_n}>_g`` in the default table; the exponent
    order is immaterial.

    >>> wk_integral(2, [4])
    Fraction(1, 1152)
    >>> wk_integral(1, (0, 0))
    Fraction(0, 1)
    """
    return _DEFAULT.integral(g, d)
