"""Exact expected values for the benchmark's queries.

The driver never imports pshodge: every expected value comes either from a
closed form in the literature, computed here with plain integer and
``Fraction`` arithmetic, or from ``expected.json``, which holds exact values
recorded from the engine (see ``record.py``) for pool entries that have no
closed form.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


@lru_cache(maxsize=None)
def bernoulli(m):
    """``B_m`` with ``B_1 = -1/2``, by the standard recurrence."""
    if m == 0:
        return Fraction(1)
    return Fraction(-sum(comb(m + 1, j) * bernoulli(j) for j in range(m)),
                    m + 1)


def odd_double_factorial(k):
    """``(2k - 1)!!`` for ``k >= 0``, with ``(-1)!! = 1``."""
    return prod(range(1, 2 * k, 2))


def multinomial(parts):
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def tau_one_point(g):
    """``<tau_{3g-2}>_g = 1 / (24^g g!)``."""
    return Fraction(1, 24 ** g * factorial(g))


def tau_genus0(d):
    """``<prod tau_{d_i}>_0 = (n-3)! / prod d_i!`` when ``sum d = n - 3``."""
    n = len(d)
    if sum(d) != n - 3:
        return Fraction(0)
    return Fraction(factorial(n - 3), prod(factorial(x) for x in d))


def faber_top(g):
    """``int_{Mbar_g} lambda_g lambda_{g-1} lambda_{g-2}`` (Faber)."""
    return (abs(bernoulli(2 * g - 2)) * abs(bernoulli(2 * g))
            / (2 * factorial(2 * g - 2) * (2 * g - 2) * (2 * g)))


def lambda_g_b(g):
    """``b_g = int_{Mbar_{g,1}} psi_1^{2g-2} lambda_g``
    (Faber--Pandharipande)."""
    return (Fraction(2 ** (2 * g - 1) - 1, 2 ** (2 * g - 1))
            * abs(bernoulli(2 * g)) / factorial(2 * g))


def lambda_g_psi(g, d):
    """``int psi^d lambda_g = binom(2g-3+n; d) b_g`` (the lambda_g formula)."""
    if sum(d) != 2 * g - 3 + len(d):
        return Fraction(0)
    return multinomial(d) * lambda_g_b(g)


def lambda_g_lambda_g1_psi(g, d):
    """``int psi^d lambda_g lambda_{g-1}``
    ``= (2g-3+n)! |B_2g| / (2^{2g-1} (2g)! prod (2d_i - 1)!!)``."""
    n = len(d)
    if sum(d) != g - 2 + n:
        return Fraction(0)
    return (factorial(2 * g - 3 + n) * abs(bernoulli(2 * g))
            / (2 ** (2 * g - 1) * factorial(2 * g)
               * prod(odd_double_factorial(x) for x in d)))


def ps_mumford_series(g):
    """``int_{Mbar^ps_{g,n}} (2 lambda_2 - lambda_1^2) psi_1^{3g-5+n}``
    ``= -1 / (24^g (g-1)!)`` for ``g >= 2, n >= 1``."""
    return Fraction(-1, 24 ** g * factorial(g - 1))


def hurwitz_genus0(mu):
    """``h_{0,mu} = m! prod (mu_i^{mu_i+1} / mu_i!) d^{l-3}``
    with ``m = d + l - 2``."""
    d, ell = sum(mu), len(mu)
    value = Fraction(factorial(d + ell - 2))
    for x in mu:
        value *= Fraction(x ** (x + 1), factorial(x))
    return value * Fraction(d) ** (ell - 3)


@lru_cache(maxsize=1)
def recorded():
    """The recorded exact values, keyed by query key."""
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return {k: Fraction(v) for k, v in json.load(fh).items()}
