"""Multiset helpers: the list-built sub-multisets against the recursive
generator they replaced, and the integer-numerator sum."""

import random
from fractions import Fraction
from math import comb

from pshodge.multiset import add_term, counts, sub_multisets


def reference_sub_multisets(values):
    """The former ``sub_multisets``: a recursive generator over the
    distinct values, kept as a differential oracle for the list."""
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


def random_multisets(seed=9, count=300):
    """Seeded sorted tuples with repeated values, the empty one first."""
    rng = random.Random(seed)
    out = [(), (0,), (3, 3, 3, 3)]
    for _ in range(count):
        size = rng.randint(0, 8)
        top = rng.choice((1, 2, 4, 12))
        out.append(tuple(sorted(rng.randint(0, top) for _ in range(size))))
    return out


class TestSubMultisets:
    def test_matches_recursive_generator_in_order(self):
        for values in random_multisets():
            assert sub_multisets(values) == \
                list(reference_sub_multisets(values)), values

    def test_empty_multiset(self):
        assert sub_multisets(()) == [((), (), 1)]

    def test_multiplicities_count_labelled_subsets(self):
        for values in random_multisets(seed=10, count=50):
            splits = sub_multisets(values)
            assert sum(m for _, _, m in splits) == 2 ** len(values)
            for chosen, rest, _ in splits:
                assert tuple(sorted(chosen + rest)) == values


    def test_mirrored_entries_are_complements(self):
        for values in random_multisets():
            splits = sub_multisets(values)
            for (chosen, rest, mult), mirror in zip(splits, splits[::-1]):
                assert mirror == (rest, chosen, mult), values

    def test_odd_length_iff_every_multiplicity_even(self):
        for values in random_multisets():
            all_even = all(c % 2 == 0 for c in counts(values).values())
            assert (len(sub_multisets(values)) % 2 == 1) == all_even, values


class TestAddTerm:
    def test_matches_fraction_sum(self):
        rng = random.Random(11)
        for _ in range(200):
            num, den, want = 0, 1, Fraction(0)
            for _ in range(rng.randint(1, 8)):
                t_num = rng.randint(-50, 50)
                t_den = rng.randint(1, 60)
                num, den = add_term(num, den, t_num, t_den)
                want += Fraction(t_num, t_den)
                assert Fraction(num, den) == want
