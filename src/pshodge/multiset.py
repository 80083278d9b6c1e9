"""Small multiset helpers shared by the integral engines.

Multisets are represented as sorted tuples of integers.  The engines
repeatedly need to split a multiset between the two sides of a
degeneration; grouping those splits by value (instead of walking all
2^n labelled subsets) is what keeps the recursions at desk scale.
"""

from __future__ import annotations

from math import comb


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
    """Yield ``(chosen, rest, multiplicity)`` over sub-multisets of a tuple.

    ``multiplicity`` is the number of subsets of labelled positions that
    realise the chosen multiset, i.e. the product of binomials over the
    distinct values.

    >>> sorted(sub_multisets((1, 1)))
    [((), (1, 1), 1), ((1,), (1,), 2), ((1, 1), (), 1)]
    """
    items = sorted(counts(values).items())

    def rec(idx, chosen, rest, mult):
        if idx == len(items):
            yield tuple(chosen), tuple(rest), mult
            return
        v, c = items[idx]
        for k in range(c + 1):
            yield from rec(idx + 1, chosen + [v] * k, rest + [v] * (c - k),
                           mult * comb(c, k))

    yield from rec(0, [], [], 1)


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
