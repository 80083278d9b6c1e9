r"""Exact intersection numbers of psi and kappa classes on Mbar_{g,n}.

The correlator ``<tau_{d_1} ... tau_{d_n}>_g`` is the integral of
``psi_1^{d_1} ... psi_n^{d_n}`` over the moduli space of stable n-pointed
genus-g curves.  It vanishes unless ``d_1 + ... + d_n = 3g - 3 + n``, and
the whole collection of values is pinned down by Witten's conjecture
(Kontsevich's theorem).  This module evaluates correlators in exact
rational arithmetic with the Dijkgraaf--Verlinde--Verlinde form of the
Virasoro constraints, using the string and dilaton equations as fast
paths:

* string:  ``<tau_0 X>_g`` is the sum over ways to lower one exponent of X;
* dilaton: ``<tau_1 X>_g = (2g - 2 + n) <X>_g`` for X with n insertions;
* DVV:     the largest exponent is reduced against each other insertion,
  plus boundary terms that lower the genus or split the surface.

Base normalisations: ``<tau_0^3>_0 = 1`` and ``<tau_1>_1 = 1/24``.
Unstable ``(g, n)`` (see :func:`is_stable`) and dimension mismatches give
0 rather than an error, so the recursions need no case analysis.

kappa classes use the pointed convention ``kappa_a = pi_*(psi^{a+1})``
for one extra marked point.  A kappa factor is eliminated against such an
extra point, absorbing any subset of the remaining kappa factors with
alternating signs; iterating reduces every mixed kappa/psi integral to
pure psi correlators.

All values are memoised in plain dicts.  Every evaluation is a pure
function of its key, so threads that race on a key store equal values and
no lock is needed.  The psi memo table can be persisted in a plain text
format, see :mod:`pshodge.cache`.
"""

from __future__ import annotations

from fractions import Fraction

from .multiset import counts, replace_one, sub_multisets

__all__ = [
    "is_stable",
    "psi_exponents",
    "WKTable",
    "default_table",
    "wk_integral",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_TAU1_GENUS1 = Fraction(1, 24)


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
    ``1..n``, or a list of n exponents.

    >>> psi_exponents(3, {2: 4})
    (0, 4, 0)
    """
    if psi is None:
        return (0,) * n
    if isinstance(psi, dict):
        exps = [0] * n
        for i, e in psi.items():
            if not 1 <= i <= n:
                raise ValueError(f"psi marking {i} out of range 1..{n}")
            exps[i - 1] = int(e)
    else:
        exps = [int(e) for e in psi]
        if len(exps) != n:
            raise ValueError("psi exponent list must have length n")
    if any(e < 0 for e in exps):
        raise ValueError("psi exponents must be non-negative")
    return tuple(exps)


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


class WKTable:
    """Memo table of correlators.

    All evaluation entry points are pure, so concurrent queries for equal
    keys store and return equal values; each store is one dict assignment.
    """

    def __init__(self):
        self._psi = {}
        self._kappa = {}

    def __len__(self):
        return len(self._psi)

    def psi_items(self):
        """Stored pure-psi values as ``((g, d), value)`` pairs, sorted."""
        return sorted(self._psi.items())

    def lookup(self, g, d):
        return self._psi.get((g, tuple(sorted(d))))

    def preload(self, entries):
        """Bulk-insert ``((g, d), value)`` pairs (used by the cache loader)."""
        for (g, d), value in entries:
            self._psi[(int(g), tuple(sorted(d)))] = Fraction(value)

    # -- pure psi correlators -------------------------------------------

    def integral(self, g, d=()):
        """``<tau_{d_1} ... tau_{d_n}>_g`` for any iterable of exponents.

        >>> WKTable().integral(0, [0, 0, 0])
        Fraction(1, 1)
        >>> WKTable().integral(1, [1])
        Fraction(1, 24)
        """
        return self._psi_eval(int(g), tuple(sorted(int(x) for x in d)))

    def _psi_eval(self, g, d):
        n = len(d)
        if not is_stable(g, n):
            return _ZERO
        if sum(d) != 3 * g - 3 + n:
            return _ZERO
        key = (g, d)
        hit = self._psi.get(key)
        if hit is not None:
            return hit
        if g == 0 and n == 3:
            value = _ONE
        elif g == 1 and n == 1:
            value = _TAU1_GENUS1
        elif d[0] == 0:
            value = self._string(g, d)
        elif d[0] == 1 and is_stable(g, n - 1):
            value = (2 * g - 3 + n) * self._psi_eval(g, d[1:])
        else:
            value = self._dvv(g, d)
        self._psi[key] = value
        return value

    def _string(self, g, d):
        rest = d[1:]
        total = _ZERO
        for v, c in counts(rest).items():
            if v == 0:
                continue
            total += c * self._psi_eval(g, replace_one(rest, v, v - 1))
        return total

    def _dvv(self, g, d):
        p = d[-1]
        rest = d[:-1]
        total = _ZERO
        for v, c in counts(rest).items():
            w = Fraction(odd_double_factorial(2 * p + 2 * v - 1),
                         odd_double_factorial(2 * v - 1))
            total += c * w * self._psi_eval(g, replace_one(rest, v, p + v - 1))
        for a in range(p - 1):
            b = p - 2 - a
            w = odd_double_factorial(2 * a + 1) * odd_double_factorial(2 * b + 1)
            if g >= 1:
                total += Fraction(w, 2) * self._psi_eval(
                    g - 1, tuple(sorted(rest + (a, b))))
            for part1, part2, mult in sub_multisets(rest):
                # the genus of the side containing tau_a is forced by dimension
                s1 = sum(part1) + a + 2 - len(part1)
                if s1 % 3 or not 0 <= s1 // 3 <= g:
                    continue
                g1 = s1 // 3
                left = self._psi_eval(g1, tuple(sorted(part1 + (a,))))
                if not left:
                    continue
                right = self._psi_eval(g - g1, tuple(sorted(part2 + (b,))))
                total += Fraction(w * mult, 2) * left * right
        return total / odd_double_factorial(2 * p + 1)

    # -- kappa/psi integrals --------------------------------------------

    def kappa_integral(self, g, n, psi, kappa):
        """Integral of ``prod kappa_a prod psi_i^{e_i}`` over Mbar_{g,n};
        ``psi`` is read by :func:`psi_exponents`.

        >>> WKTable().kappa_integral(1, 1, None, [1])
        Fraction(1, 24)
        """
        exps = tuple(sorted(psi_exponents(n, psi)))
        return self._kappa_eval(g, exps, tuple(sorted(int(a) for a in kappa)))

    def _kappa_eval(self, g, psi, kappa):
        if not kappa:
            return self._psi_eval(g, psi)
        n = len(psi)
        if not is_stable(g, n):
            return _ZERO
        if sum(psi) + sum(kappa) != 3 * g - 3 + n:
            return _ZERO
        key = (g, psi, kappa)
        hit = self._kappa.get(key)
        if hit is not None:
            return hit
        value = _ZERO
        for coeff, new_psi, new_kappa in self._kappa_step(g, psi, kappa, 0):
            value += coeff * self._kappa_eval(g, new_psi, new_kappa)
        self._kappa[key] = value
        return value

    @staticmethod
    def _kappa_step(g, psi, kappa, pick):
        """One elimination of ``kappa[pick]`` against a fresh marked point.

        Returns ``(coeff, psi', kappa')`` triples: any sub-multiset of the
        other kappa factors is absorbed into the new point's psi exponent
        with an alternating sign.
        """
        b1 = kappa[pick]
        rest = kappa[:pick] + kappa[pick + 1:]
        out = []
        for chosen, remaining, mult in sub_multisets(rest):
            sign = -1 if len(chosen) % 2 else 1
            e = b1 + 1 + sum(chosen)
            out.append((sign * mult, tuple(sorted(psi + (e,))), remaining))
        return out

    def _kappa_eval_random_order(self, g, psi, kappa, rng):
        """Un-memoised evaluation eliminating kappa factors in random order.

        Testing hook for the order-independence property.
        """
        if not kappa:
            return self._psi_eval(g, psi)
        n = len(psi)
        if not is_stable(g, n):
            return _ZERO
        if sum(psi) + sum(kappa) != 3 * g - 3 + n:
            return _ZERO
        pick = rng.randrange(len(kappa))
        value = _ZERO
        for coeff, new_psi, new_kappa in self._kappa_step(g, psi, kappa, pick):
            value += coeff * self._kappa_eval_random_order(g, new_psi, new_kappa, rng)
        return value


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
