r"""Hurwitz numbers from the characters of S_d, and their evaluation
through linear Hodge integrals (the ELSV formula).

The single Hurwitz number ``h^m_mu`` counts tuples of m transpositions
in S_d (d = |mu|) whose ordered product is a fixed permutation of cycle
type mu and which generate a transitive subgroup.  Without
transitivity, Frobenius's formula gives the count exactly:

    N(mu, m) = (1/d!) sum_{lambda |- d} dim(lambda) chi_lambda(mu) cont(lambda)^m,

with ``dim`` from the hook-length formula, ``chi`` from the
Murnaghan--Nakayama rule on beta-sets and ``cont`` the content sum of
lambda.  The factors act on the orbits of the group they generate.  If
S is the set of cycles in the orbit that holds cycle 0 and k factors act
on it, those k form a transitive factorization and the rest any one:

    N(mu, m) = sum_{S holding 0} sum_k C(m, k) N*(mu_S, k) N(mu_{S^c}, m - k),

whose term ``S = all, k = m`` is the transitive count ``N*(mu, m)``.
The guard ``d <= 20, m <= 40`` refuses larger inputs up front; the
slowest instance it admits takes well under a second.

For stable ``(g, len(mu))`` and ``m = 2g - 2 + len(mu) + |mu|`` the same
number is given by the ELSV formula

    h^m_mu = m! prod_i (mu_i^{mu_i + 1} / mu_i!)
             int_{Mbar_{g,l}} (1 - lambda_1 + lambda_2 - ...)
                              / prod_i (1 - mu_i psi_i),

which makes the count an end-to-end independent check of linear Hodge
integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .hodge import HodgeMonomial, hodge_integral
from .multiset import compositions, partitions, sub_multisets
from .wk import is_stable

__all__ = ["ENUMERATION_D_MAX", "ENUMERATION_M_MAX", "EnumerationBoundError",
           "HurwitzInstance", "count_factorizations", "hurwitz_brute",
           "riemann_hurwitz_m", "elsv_value"]

ENUMERATION_D_MAX = 20
ENUMERATION_M_MAX = 40


class EnumerationBoundError(ValueError):
    """Refusal to enumerate beyond the desk-scale resource guard."""


def _partition(mu):
    """``mu`` as a partition: int parts, largest first, all positive."""
    mu = tuple(sorted((int(x) for x in mu), reverse=True))
    if not mu or mu[-1] < 1:
        raise ValueError("mu must be a partition with positive parts")
    return mu


@dataclass(frozen=True)
class HurwitzInstance:
    """A factorization-counting instance: partition ``mu`` and length ``m``."""

    mu: tuple
    m: int

    @staticmethod
    def of(mu, m):
        mu = _partition(mu)
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


def _dimension(lam):
    """Dimension of the irreducible representation ``lam`` of S_d, by the
    hook-length formula.

    >>> _dimension((2, 1, 1))
    3
    """
    cols = [sum(p > j for p in lam) for j in range(lam[0] if lam else 0)]
    return factorial(sum(lam)) // prod(
        p - j + cols[j] - i - 1 for i, p in enumerate(lam) for j in range(p))


def _character(lam, mu, memo):
    """``chi_lam(mu)`` in S_d by the Murnaghan--Nakayama rule, memoised in
    the dict ``memo``.  The last part r of ``mu`` is removed as a rim hook:
    a bead of the beta-set ``{lam_i + n - i}`` (n parts) moves down r
    places to a free one, with sign ``(-1)^(beads jumped)``.  In S_4:

    >>> _character((3, 1), (4,), {})
    -1
    """
    if not mu:
        return 1
    if (lam, mu) not in memo:
        r, n = mu[-1], len(lam)
        beta = [p + n - 1 - i for i, p in enumerate(lam)]
        total = 0
        for i, b in enumerate(beta):
            if b >= r and b - r not in beta:
                moved = sorted(beta[:i] + beta[i + 1:] + [b - r], reverse=True)
                rest = tuple(c - n + 1 + j for j, c in enumerate(moved))
                sign = -1 if sum(b - r < c < b for c in beta) % 2 else 1
                total += sign * _character(tuple(p for p in rest if p),
                                           mu[:-1], memo)
        memo[lam, mu] = total
    return memo[lam, mu]


def count_factorizations(cycle_type, m):
    """Number of m-tuples of transpositions of {0..d-1} whose left-to-right
    product equals a fixed permutation with cycle lengths ``cycle_type``
    and which generate a transitive subgroup.

    The parts may come in any order; sorted ascending, the last part is
    cycle 0.  The count comes from the characters of S_d (module
    docstring), with every memo local to the call.

    >>> count_factorizations((1, 1, 1), 2), count_factorizations((1, 1, 1), 4)
    (0, 24)
    """
    chars, terms, counts, connected = {}, {}, {}, {}

    def free(nu, k):  # N(nu, k)
        if nu not in terms:  # (dim * chi, content sum) per lambda |- |nu|
            terms[nu] = [(_dimension(lam) * _character(lam, nu, chars),
                          sum(p * (p - 1) // 2 - i * p
                              for i, p in enumerate(lam)))
                         for lam in partitions(sum(nu))]
        if (nu, k) not in counts:
            counts[nu, k] = sum(w * c ** k for w, c in terms[nu]) \
                // factorial(sum(nu))
        return counts[nu, k]

    def transitive(nu, k):  # N*(nu, k)
        d, ell = sum(nu), len(nu)
        if k < d + ell - 2 or (k - d - ell) % 2:
            return 0  # Riemann--Hurwitz: the genus would be negative or half
        if (nu, k) not in connected:
            total = free(nu, k)
            # the last split takes every cycle: that term is N*(nu, k)
            for chosen, rest, mult in sub_multisets(nu[:-1])[:-1]:
                orbit = chosen + nu[-1:]
                for j in range(sum(orbit) + len(orbit) - 2,
                               k - sum(rest) + len(rest) + 1, 2):
                    total -= (mult * comb(k, j) * transitive(orbit, j)
                              * free(rest, k - j))
            connected[nu, k] = total
        return connected[nu, k]

    return transitive(tuple(sorted(cycle_type)), m)


def hurwitz_brute(instance):
    """Exact single Hurwitz number ``h^m_mu``, counted from the characters
    of S_d by :func:`count_factorizations` within the resource guard.

    >>> hurwitz_brute(HurwitzInstance.of((2,), 1))
    1
    >>> hurwitz_brute(HurwitzInstance.of((1, 1, 1), 4))
    24
    """
    if instance.d > ENUMERATION_D_MAX or instance.m > ENUMERATION_M_MAX:
        raise EnumerationBoundError(
            f"refusing d={instance.d}, m={instance.m}: the Hurwitz count "
            f"bound is d <= {ENUMERATION_D_MAX}, m <= {ENUMERATION_M_MAX}")
    return count_factorizations(instance.mu, instance.m)


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
    combinatorial prefactor.  Requires a partition ``mu`` with positive
    parts and ``(g, l)`` stable.

    >>> elsv_value(1, (2,))
    Fraction(1, 1)
    """
    mu = _partition(mu)
    ell = len(mu)
    if not is_stable(g, ell):
        raise ValueError(f"({g}, {ell}) is unstable: the formula is out of range")
    dim = 3 * g - 3 + ell
    total = Fraction(0)
    for j in range(min(g, dim) + 1):
        for exps in compositions(dim - j, ell):
            value = hodge_integral(
                HodgeMonomial.of(g, ell, {j: 1} if j else None, exps))
            if value:
                total += (-1) ** j * prod(map(pow, mu, exps)) * value
    pref = Fraction(factorial(riemann_hurwitz_m(g, mu)))
    for mu_i in mu:
        pref *= Fraction(mu_i ** (mu_i + 1), factorial(mu_i))
    return pref * total
