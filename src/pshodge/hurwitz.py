r"""Hurwitz numbers by exhaustive transposition counting, and their
evaluation through linear Hodge integrals (the ELSV formula).

The single Hurwitz number ``h^m_mu`` counts tuples of m transpositions
in the symmetric group S_d (d = |mu|) whose ordered product is a fixed
permutation of cycle type mu and whose generated subgroup acts
transitively on the d points.  The count is invariant under conjugation
of the target and under reversing the composition convention, so the
canonical target with cycles ``(1..mu_1)(mu_1+1..mu_1+mu_2)...`` is used.

Enumeration is exhaustive but merges identical states.  After k factors
the count of completions depends only on the permutation the remaining
factors must multiply to, the partition of the d points into blocks
joined by the factors chosen so far, and m - k; each such state is
counted once per call, in a memo local to that call.  Three safe prunes
discard states that cannot complete: a permutation with c cycles needs
at least d - c transpositions, the leftover parity must be even, and
joining b blocks into one orbit needs at least c + 2b - d - 2 factors
(a Riemann--Hurwitz count, see :func:`count_factorizations`).  There are
at most ``d! * Bell(d)`` states per remaining count, and far fewer
survive the prunes: 495 for mu=(3,3), m=6 against ``15^6`` leaf tuples.
Every sign-consistent instance the guard ``d <= 6, m <= 8`` admits
finishes within a second; inputs beyond it are refused outright.

For stable ``(g, len(mu))`` and ``m = 2g - 2 + len(mu) + |mu|`` the same
number is computed by the ELSV formula

    h^m_mu = m! prod_i (mu_i^{mu_i + 1} / mu_i!)
             int_{Mbar_{g,l}} (1 - lambda_1 + lambda_2 - ...)
                              / prod_i (1 - mu_i psi_i),

which makes the transposition count an end-to-end independent check of
linear Hodge integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .hodge import HodgeMonomial, hodge_integral
from .multiset import compositions
from .wk import is_stable

__all__ = [
    "ENUMERATION_D_MAX",
    "ENUMERATION_M_MAX",
    "EnumerationBoundError",
    "HurwitzInstance",
    "canonical_permutation",
    "count_factorizations",
    "hurwitz_brute",
    "riemann_hurwitz_m",
    "elsv_value",
]

ENUMERATION_D_MAX = 6
ENUMERATION_M_MAX = 8


class EnumerationBoundError(ValueError):
    """Refusal to enumerate beyond the desk-scale resource guard."""


@dataclass(frozen=True)
class HurwitzInstance:
    """A factorization-counting instance: partition ``mu`` and length ``m``."""

    mu: tuple
    m: int

    @staticmethod
    def of(mu, m):
        mu = tuple(sorted((int(x) for x in mu), reverse=True))
        if not mu or mu[-1] < 1:
            raise ValueError("mu must be a partition with positive parts")
        if m < 0:
            raise ValueError("m must be non-negative")
        return HurwitzInstance(mu, int(m))

    @property
    def d(self):
        return sum(self.mu)

    def genus(self):
        """The genus for which m matches Riemann--Hurwitz, if integral."""
        num = self.m - len(self.mu) - self.d + 2
        return num // 2 if num % 2 == 0 and num >= 0 else None


def canonical_permutation(mu):
    """The permutation of {0..d-1} with cycles ``(0..mu_1-1)(mu_1..)...``.

    >>> canonical_permutation((2, 1))
    (1, 0, 2)
    """
    d = sum(mu)
    perm = list(range(d))
    start = 0
    for part in mu:
        for k in range(part):
            perm[start + k] = start + (k + 1) % part
        start += part
    return tuple(perm)


def _cycle_count(p):
    seen = [False] * len(p)
    c = 0
    for x in range(len(p)):
        if not seen[x]:
            c += 1
            while not seen[x]:
                seen[x] = True
                x = p[x]
    return c


def count_factorizations(target, m):
    """Number of m-tuples of transpositions of {0..d-1} whose left-to-right
    product equals ``target`` and which generate a transitive subgroup.

    Exhaustive search over states ``(residual, blocks, remaining)``: the
    permutation the factors still to be chosen must multiply to, the
    partition of the points into blocks joined by the factors chosen so far
    (each point mapped to the smallest point of its block), and the number
    of factors left.  The number of completions depends only on the state,
    so each state is counted once per call.  Three prunes discard only
    states that cannot complete, before they reach the memo: the
    minimum-transposition count ``d - c`` for a residual with c cycles,
    its parity, and a connectivity bound.

    The connectivity bound: let the remaining r factors generate a group
    with k orbits, the j-th of size ``d_j`` holding ``c_j`` cycles of the
    residual and ``r_j`` of the factors.  On each orbit they form a
    transitive factorization, so Riemann--Hurwitz gives
    ``r_j = d_j + c_j - 2 + 2 g_j >= d_j + c_j - 2`` and ``r >= d + c - 2k``.
    The whole tuple is transitive only if the b blocks and the k orbits
    link all d points, which needs ``d >= b + k - 1``.  Hence
    ``r >= c + 2b - d - 2``.  For the identity on 3 points (c = b = 3)
    that is 4 factors; 2 factors pass the first two prunes but not this:

    >>> count_factorizations((0, 1, 2), 2), count_factorizations((0, 1, 2), 4)
    (0, 24)
    """
    d = len(target)
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    connected = (0,) * d
    memo = {}

    def completions(residual, blocks, remaining):
        cycles = _cycle_count(residual)
        need = d - cycles
        if need > remaining or (remaining - need) % 2:
            return 0
        if remaining < cycles + 2 * len(set(blocks)) - d - 2:
            return 0  # the connectivity bound, see the docstring
        key = (residual, blocks, remaining)
        if key in memo:
            return memo[key]
        if remaining == 0:
            # need == 0: the residual is the identity
            count = 1 if blocks == connected else 0
        else:
            count = 0
            for i, j in pairs:
                # choosing (i j) next leaves (i j) * residual to the rest
                rest = list(residual)
                rest[i], rest[j] = residual[j], residual[i]
                bi, bj = blocks[i], blocks[j]
                if bi == bj:
                    joined = blocks
                else:
                    low, high = min(bi, bj), max(bi, bj)
                    joined = tuple(low if b == high else b for b in blocks)
                count += completions(tuple(rest), joined, remaining - 1)
        memo[key] = count
        return count

    return completions(tuple(target), tuple(range(d)), m)


def hurwitz_brute(instance):
    """Exact single Hurwitz number ``h^m_mu`` by exhaustive enumeration.

    >>> hurwitz_brute(HurwitzInstance.of((2,), 1))
    1
    >>> hurwitz_brute(HurwitzInstance.of((1, 1, 1), 4))
    24
    """
    if instance.d > ENUMERATION_D_MAX or instance.m > ENUMERATION_M_MAX:
        raise EnumerationBoundError(
            f"refusing d={instance.d}, m={instance.m}: enumeration bound is "
            f"d <= {ENUMERATION_D_MAX}, m <= {ENUMERATION_M_MAX}")
    return count_factorizations(canonical_permutation(instance.mu), instance.m)


def riemann_hurwitz_m(g, mu):
    """The number of transposition factors for genus g: ``2g - 2 + l + |mu|``.

    >>> riemann_hurwitz_m(0, (1, 1, 1))
    4
    >>> riemann_hurwitz_m(1, (2,))
    3
    """
    if g < 0:
        raise ValueError("genus must be non-negative")
    return 2 * g - 2 + len(mu) + sum(mu)


def elsv_value(g, mu):
    """The ELSV evaluation of ``h^m_mu`` through linear Hodge integrals.

    Expands ``(1 - lambda_1 + lambda_2 - ...) / prod(1 - mu_i psi_i)`` to
    top degree on Mbar_{g,l} and sums the Hodge integrals with the
    combinatorial prefactor.  Requires ``(g, l)`` stable.

    >>> elsv_value(1, (2,))
    Fraction(1, 1)
    """
    mu = tuple(sorted((int(x) for x in mu), reverse=True))
    ell = len(mu)
    if not is_stable(g, ell):
        raise ValueError(f"({g}, {ell}) is unstable: the formula is out of range")
    dim = 3 * g - 3 + ell
    total = Fraction(0)
    for j in range(0, g + 1):
        if j > dim:
            break
        sign = -1 if j % 2 else 1
        for exps in compositions(dim - j, ell):
            weight = 1
            for mu_i, e_i in zip(mu, exps):
                weight *= mu_i ** e_i
            value = hodge_integral(
                HodgeMonomial.of(g, ell, {j: 1} if j else None, exps))
            if value:
                total += sign * weight * value
    pref = Fraction(factorial(riemann_hurwitz_m(g, mu)))
    for mu_i in mu:
        pref *= Fraction(mu_i ** (mu_i + 1), factorial(mu_i))
    return pref * total
