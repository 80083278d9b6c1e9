"""Small multiset and sparse-polynomial helpers shared by the engines.

Multisets are represented as sorted tuples of integers.  The engines
repeatedly need to split a multiset between the two sides of a
degeneration; grouping those splits by value (instead of walking all
2^n labelled subsets) is what keeps the recursions at desk scale.

Exact sums whose terms are products of rationals are kept as an integer
numerator over a running common denominator (:func:`add_term`) and
turned into one :class:`fractions.Fraction` at the end.

A sparse polynomial is a plain dict from a monomial key to a nonzero
:class:`fractions.Fraction`, or a plain ``int`` where a caller keeps
its coefficients integral by a known scale.  For polynomials in commuting symbols
``s_1, s_2, ...`` the key is the multiset of symbol indices, e.g.
``(1, 1, 3)`` for ``s_1^2 s_3``, and ``()`` is the constant monomial.
"""

from __future__ import annotations

from math import comb, gcd, inf


def counts(values):
    """Multiplicity map of an iterable of hashable values."""
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def replace_one(values, old, new):
    """Sorted tuple with one occurrence of ``old`` replaced by ``new``.

    >>> replace_one((0, 1, 1, 4), 1, 7)
    (0, 1, 4, 7)
    """
    out = list(values)
    out.remove(old)
    out.append(new)
    return tuple(sorted(out))


def sub_multisets(values):
    """List ``(chosen, rest, multiplicity)`` over sub-multisets of a tuple.

    ``multiplicity`` is the number of subsets of labelled positions that
    realise the chosen multiset, i.e. the product of binomials over the
    distinct values.  ``chosen`` and ``rest`` are sorted tuples.  The
    list is built one distinct value at a time, smallest first, so the
    number of copies of the smallest value taken varies slowest.  Hence
    ``out[i]`` and ``out[-1 - i]`` are complements of each other, with
    equal multiplicity, and the list has odd length exactly when every
    multiplicity in ``values`` is even; its middle entry is then its own
    complement.

    >>> sub_multisets((1, 1, 2))
    [((), (1, 1, 2), 1), ((2,), (1, 1), 1), ((1,), (1, 2), 2), ((1, 2), (1,), 2), ((1, 1), (2,), 1), ((1, 1, 2), (), 1)]
    """
    out = [((), (), 1)]
    for v, c in sorted(counts(values).items()):
        options = [((v,) * k, (v,) * (c - k), comb(c, k)) for k in range(c + 1)]
        out = [(chosen + take, rest + leave, mult * m)
               for chosen, rest, mult in out for take, leave, m in options]
    return out


def add_term(num, den, t_num, t_den):
    """``num/den + t_num/t_den`` as ``(numerator, denominator)`` over the
    least common multiple of the two (positive) denominators; nothing is
    reduced.

    >>> add_term(1, 6, 1, 4)
    (5, 12)
    >>> add_term(5, 12, -1, 3)
    (1, 12)
    """
    if den % t_den:
        scale = t_den // gcd(den, t_den)
        num *= scale
        den *= scale
    return num + t_num * (den // t_den), den


def compositions(total, parts):
    """Yield every tuple of ``parts`` non-negative integers with the given sum.

    >>> list(compositions(2, 2))
    [(0, 2), (1, 1), (2, 0)]
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def partitions(total, max_part=None):
    """Yield the partitions of ``total`` as non-increasing tuples of
    positive parts, each at most ``max_part`` (by default ``total``).

    >>> list(partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    >>> list(partitions(4, max_part=2))
    [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if max_part is None:
        max_part = total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def accumulate(poly, items, scale=1):
    """Add ``scale * c`` to ``poly[key]`` for every ``(key, c)`` in ``items``.

    Keys whose coefficient becomes zero are removed, so ``poly`` stays a
    sparse polynomial.  Returns ``poly``.

    >>> accumulate({(1,): 2}, [((1,), -1), ((), 3)], scale=2)
    {(): 6}
    """
    if scale != 1:
        items = ((key, scale * c) for key, c in items)
    for key, c in items:
        c = poly.get(key, 0) + c
        if c:
            poly[key] = c
        else:
            poly.pop(key, None)
    return poly


def multiply(p, q, degree=sum, max_degree=None):
    """Product of two sparse polynomials keyed by multisets.

    With ``max_degree`` set, monomials whose ``degree(key)`` exceeds it
    are dropped as they arise; ``degree`` must be additive over the
    union of multisets, so the truncation commutes with the product.

    >>> multiply({(1,): 1, (2,): 2}, {(1,): 1, (2,): 2})
    {(1, 1): 1, (1, 2): 4, (2, 2): 4}
    >>> multiply({(): 1, (1,): 1}, {(): 1, (1,): 1}, max_degree=1)
    {(): 1, (1,): 2}
    """
    q_items = [(b, degree(b), d) for b, d in q.items()]
    out = {}
    for a, c in p.items():
        room = inf if max_degree is None else max_degree - degree(a)
        for b, db, d in q_items:
            if db <= room:
                key = tuple(sorted(a + b))
                out[key] = out.get(key, 0) + c * d
    return {key: c for key, c in out.items() if c}
