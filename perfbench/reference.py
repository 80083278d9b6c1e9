"""A fixed pure-Python reference loop that measures the host's current speed.

The benchmark's host is shared: its speed drifts by 20-30 % over minutes,
and the drift moves CPU time as much as wall time.  The driver times a short
probe of this loop on the same CPU every few tenths of a second during each
pass, between queries, and reports the pass's wall time as a multiple of the
mean probe, which cancels most of the drift.

The loop never imports pshodge, so a change to the program leaves it alone.
It mixes the kinds of work the engine does: exact ``Fraction`` arithmetic
in tuple-keyed tables (``wk``, ``hodge``, ``strata``) and a depth-first
search composing small permutation tuples (``hurwitz``), about half the
time each.  One probe takes about 25 ms.
"""

from __future__ import annotations

import time
from fractions import Fraction

ROUNDS = 3
SIZE = 30
DEGREE = 4
DEPTH = 4


def _fraction_table():
    table = {}
    for i in range(SIZE):
        for j in range(i + 1):
            if (i + j) % 7:
                a = table.get((i - 1, j - 1), Fraction(1))
                b = table.get((i - 1, j), Fraction(0))
                table[(i, j)] = (a * (j + 1) + b) / (i + 2)
            else:
                table[(i, j)] = Fraction(j, i + 1)
    sorted(table, key=lambda k: (k[1], k[0]))
    return table[(SIZE - 1, SIZE - 1)]


def _cycles(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            count += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return count


def _permutation_search():
    swaps = []
    for i in range(DEGREE):
        for j in range(i + 1, DEGREE):
            perm = list(range(DEGREE))
            perm[i], perm[j] = j, i
            swaps.append(tuple(perm))
    tally = [0] * (DEGREE + 1)

    def rec(partial, depth):
        tally[_cycles(partial)] += 1
        if depth < DEPTH:
            for swap in swaps:
                rec(tuple(partial[k] for k in swap), depth + 1)

    rec(tuple(range(DEGREE)), 0)
    return tally


def probe_seconds():
    """Wall time of one probe of the reference loop."""
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _fraction_table()
        _permutation_search()
    return time.perf_counter() - start
