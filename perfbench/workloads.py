"""Query pools and seeded query streams, one per workload.

A query is a JSON list the worker dispatches on its first element:

* ``["wk", g, d]``: ``pshodge.wk.wk_integral(g, d)``;
* ``["hodge", [[c, g, n, lam, psi], ...]]``: the sum of
  ``c * hodge_integral(HodgeMonomial.of(g, n, lam, psi))``;
* ``["expr", g, n, space, text]``:
  ``expr_integral(g, n, parse_expression(text, g, n), space)``;
* ``["hurwitz", mu, m]``: ``hurwitz_brute`` and, where ``(g, l)`` is stable,
  ``elsv_value`` of the same instance;
* ``["cli", g, n, space, line]``:
  ``pshodge.cli.main(["eval", ..., "--json", "--", line])``.

Each workload has a fixed pool.  The seed relabels marked points, which
leaves every value unchanged (the integrals are symmetric in the markings),
and with the pass number orders the pool (``pass_order``), so every seed
stays checkable and the cold work a pass does is the same for every seed.  ``batch-warm`` draws its lines from a
fixed multiset of monomials with seeded grouping and seeded coefficients; its
expected values follow by linearity from the recorded monomial values.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracles

WORKLOADS = ("psi-wk", "stable-grr", "ps-strata", "hurwitz-elsv", "batch-warm")

# Fixed seed for the pseudo-random part of the pools; the workload seed
# never changes which entries a pool holds.
POOL_SEED = 2201_04585


@dataclass(frozen=True)
class Entry:
    """A pool entry: a canonical call and its closed-form value, if any."""

    call: tuple
    closed: Fraction | None = None

    @property
    def key(self):
        return json.dumps(self.call, separators=(",", ":"))


@dataclass(frozen=True)
class Query:
    call: list
    expected: Fraction


def _partitions(total, parts, largest):
    """Non-increasing ``parts``-tuples of non-negative ints summing to
    ``total``, each at most ``largest``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for k in range(min(total, largest), -1, -1):
        for rest in _partitions(total - k, parts - 1, k):
            yield (k,) + rest


def _lambda_parts(weight, g):
    """Multisets of lambda indices in ``1..g`` of total ``weight``."""
    return [tuple(p for p in part if p)
            for part in _partitions(weight, weight, g)]


def _random_composition(rng, total, parts):
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return tuple(sorted((bounds[i + 1] - bounds[i] for i in range(parts)),
                        reverse=True))


def _lam_pairs(lam):
    return [[j, lam.count(j)] for j in sorted(set(lam))]


def _monomial_text(lam, psi):
    factors = []
    for j, e in _lam_pairs(lam):
        factors.append(f"lambda{j}" + (f"^{e}" if e > 1 else ""))
    for i, e in enumerate(psi, start=1):
        if e:
            factors.append(f"psi{i}" + (f"^{e}" if e > 1 else ""))
    return "*".join(factors) or "1"


# -- pools ---------------------------------------------------------------

def _psi_wk_pool():
    rng = random.Random(POOL_SEED)
    out = [Entry(("wk", g, (3 * g - 2,)), oracles.tau_one_point(g))
           for g in range(8, 15)]
    for d in [(0, 0, 0, 0, 1), (0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 0, 2, 1),
              (0, 0, 0, 0, 0, 0, 5), (1, 1, 1, 1, 1, 0, 0, 0),
              (0, 0, 0, 0, 0, 3, 2, 0), (0, 0, 0, 0, 0, 0, 0, 4)]:
        out.append(Entry(("wk", 0, tuple(sorted(d, reverse=True))),
                         oracles.tau_genus0(d)))
    seen = set()
    for g in range(8, 13):
        for n in (2, 3, 4):
            picked = 0
            while picked < 6:
                d = _random_composition(rng, 3 * g - 3 + n, n)
                if (g, d) in seen:
                    continue
                seen.add((g, d))
                out.append(Entry(("wk", g, d)))
                picked += 1
    return out


def _hodge(g, n, lam, psi, coeff=1):
    return [str(coeff), g, n, _lam_pairs(lam), list(psi)]


def _stable_grr_pool():
    out = []
    for g in (4, 5):
        out.append(Entry(("hodge", (_hodge(g, 0, (g, g - 1, g - 2), ()),)),
                         oracles.faber_top(g)))
    for g in (4, 5, 6):
        out.append(Entry(("hodge", (_hodge(g, 1, (g,), (2 * g - 2,)),)),
                         oracles.lambda_g_psi(g, (2 * g - 2,))))
    rng = random.Random(POOL_SEED)
    for g, n, count in ((4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2), (6, 2, 2)):
        for _ in range(count):
            d = _random_composition(rng, 2 * g - 3 + n, n)
            out.append(Entry(("hodge", (_hodge(g, n, (g,), d),)),
                             oracles.lambda_g_psi(g, d)))
    for g, n, count in ((4, 2, 2), (4, 3, 2), (5, 2, 1)):
        for _ in range(count):
            d = _random_composition(rng, g - 2 + n, n)
            out.append(Entry(("hodge", (_hodge(g, n, (g, g - 1), d),)),
                             oracles.lambda_g_lambda_g1_psi(g, d)))
    # Mumford zeros: lambda_g^2 = 0, and 2 lambda_2 = lambda_1^2 times
    # any class.
    for g, n in ((4, 1), (4, 2), (5, 1)):
        d = _random_composition(rng, g - 3 + n, n)
        out.append(Entry(("hodge", (_hodge(g, n, (g, g), d),)), Fraction(0)))
    for g, n, lam in ((4, 1, (3, 3)), (4, 2, (4, 1)), (4, 1, (4, 2))):
        rest = 3 * g - 3 + n - 2 - sum(lam)
        d = _random_composition(rng, rest, n)
        out.append(Entry(("hodge", (_hodge(g, n, (2,) + lam, d, 2),
                                    _hodge(g, n, (1, 1) + lam, d, -1))),
                         Fraction(0)))
    # Seeded random monomials, values recorded from the engine.
    for g, n, count in ((4, 1, 4), (4, 2, 4), (5, 1, 2)):
        dim = 3 * g - 3 + n
        for _ in range(count):
            lam = tuple(sorted((rng.randint(1, g) for _ in range(3)),
                               reverse=True))
            d = _random_composition(rng, dim - sum(lam), n)
            out.append(Entry(("hodge", (_hodge(g, n, lam, d),))))
    return out


def _ps_strata_pool():
    out = [Entry(("expr", 4, 1, "ps",
                  "(1-lambda1+lambda2-lambda3+lambda4)^3*psi1^4"))]
    for g in range(2, 7):
        out.append(Entry(("expr", g, 1, "ps",
                          f"(2*lambda2 - lambda1^2)*psi1^{3 * g - 4}"),
                         oracles.ps_mumford_series(g)))
    for g in range(2, 5):
        out.append(Entry(("expr", g, 2, "ps",
                          f"(2*lambda2 - lambda1^2)*psi1^{3 * g - 3}"),
                         oracles.ps_mumford_series(g)))
    texts = {
        (3, 1): ["(1-lambda1+lambda2-lambda3)^3*psi1^4",
                 "(lambda1+lambda2)^2*psi1^3", "lambda1^3*lambda2*psi1^2",
                 "(lambda1-2*lambda2+lambda3)^2*lambda1*psi1^2",
                 "(1+lambda1)^4*lambda2*psi1^3", "(lambda1^2-lambda2)^3*psi1"],
        (3, 2): ["(1+lambda1+lambda2+lambda3)^2*psi1^3*psi2^2",
                 "(lambda1+lambda3)^2*psi1^2*psi2^2",
                 "(1-lambda1)^3*lambda2*psi1^2*psi2^2",
                 "(lambda1+lambda2)^3*psi2^3"],
        (4, 1): ["(lambda2 - lambda1^2)^2*lambda1*psi1^5",
                 "(lambda1+lambda2)^3*psi1^4", "(1+lambda1+lambda2)^3*psi1^6",
                 "(lambda1-lambda3)^2*lambda2*psi1^4"],
    }
    for (g, n), items in texts.items():
        for text in items:
            out.append(Entry(("expr", g, n, "ps", text)))
    return out


# Guard-admitted instances (d <= 6, m <= 8) whose enumeration takes at most a
# few seconds; mu=(3,3) at m=8 passes the guard but runs for minutes.
_HURWITZ_INSTANCES = (
    [((1,), m) for m in (0, 2, 4, 6, 8)]
    + [((2,), m) for m in (1, 3, 5, 7)]
    + [((1, 1), m) for m in (2, 4, 6, 8)]
    + [((3,), m) for m in (2, 4, 6, 8)]
    + [((2, 1), m) for m in (3, 5, 7)]
    + [((1, 1, 1), m) for m in (4, 6, 8)]
    + [((4,), m) for m in (3, 5)]
    + [((3, 1), m) for m in (4, 6)]
    + [((2, 2), m) for m in (4, 6)]
    + [((2, 1, 1), 5), ((1, 1, 1, 1), 6), ((5,), 4), ((4, 1), 5),
       ((3, 2), 5), ((6,), 5), ((3, 3), 6)]
)


def _hurwitz_pool():
    """Genus-0 counts have a closed form; the others are recorded and, where
    (g, l) is stable, also checked against ELSV by the worker's answer."""
    return [Entry(("hurwitz", mu, m),
                  oracles.hurwitz_genus0(mu) if m == sum(mu) + len(mu) - 2
                  else None)
            for mu, m in _HURWITZ_INSTANCES]


# (g, n, space) groups of batch-warm: stable at g <= 4, ps at g <= 3.
BATCH_GROUPS = ((2, 1, "stable"), (2, 2, "stable"), (3, 1, "stable"),
                (3, 2, "stable"), (4, 1, "stable"),
                (2, 1, "ps"), (2, 2, "ps"), (3, 1, "ps"))
BATCH_REPEATS = 2


def batch_monomials(g, n):
    """Every top-degree lambda/psi monomial on (g, n), psi exponents sorted."""
    dim = 3 * g - 3 + n
    return [(lam, psi)
            for w in range(dim + 1) for lam in _lambda_parts(w, g)
            for psi in _partitions(dim - w, n, dim - w)]


def _batch_pool():
    return [Entry(("expr", g, n, space, _monomial_text(lam, psi)))
            for g, n, space in BATCH_GROUPS
            for lam, psi in batch_monomials(g, n)]


POOLS = {
    "psi-wk": _psi_wk_pool,
    "stable-grr": _stable_grr_pool,
    "ps-strata": _ps_strata_pool,
    "hurwitz-elsv": _hurwitz_pool,
    "batch-warm": _batch_pool,
}


def pool(workload):
    return POOLS[workload]()


# -- seeded streams ------------------------------------------------------

def _expected(entry, table):
    return entry.closed if entry.closed is not None else table[entry.key]


def _relabel(call, rng):
    """Permute marking labels of a ``wk`` or ``hodge`` call."""
    if call[0] == "wk":
        d = list(call[2])
        rng.shuffle(d)
        return ["wk", call[1], d]
    if call[0] == "hodge":
        perm = list(range(call[1][0][2]))  # all terms share (g, n)
        rng.shuffle(perm)
        return ["hodge", [[c, g, n, lam, [psi[i] for i in perm]]
                          for c, g, n, lam, psi in call[1]]]
    return json.loads(json.dumps(call))


def _batch_stream(rng, table):
    queries = []
    for g, n, space in BATCH_GROUPS:
        slots = batch_monomials(g, n) * BATCH_REPEATS
        rng.shuffle(slots)
        while slots:
            size = min(rng.randint(1, 5), len(slots))
            line, slots = slots[:size], slots[size:]
            parts, expected = [], Fraction(0)
            for lam, psi in line:
                coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.choice((1, 1, 1, 2, 3)))
                psi_l = list(psi)
                rng.shuffle(psi_l)
                key = Entry(("expr", g, n, space,
                             _monomial_text(lam, psi))).key
                expected += coeff * table[key]
                sign = "-" if coeff < 0 else "+"
                parts.append(f"{sign} {abs(coeff)}*"
                             f"{_monomial_text(lam, psi_l)}")
            text = " ".join(parts)
            text = text[2:] if text.startswith("+ ") else "-" + text[2:]
            queries.append((("cli", g, n, space, text), expected))
    return [Query(list(call), value) for call, value in queries]


def stream(workload, seed):
    """The seeded queries of one run, with expected values."""
    rng = random.Random(f"{workload}/{seed}")
    table = oracles.recorded()
    if workload == "batch-warm":
        return _batch_stream(rng, table)
    return [Query(_relabel(e.call, rng), _expected(e, table))
            for e in pool(workload)]


def pass_order(count, seed, index):
    """The order in which pass ``index`` of a run sends its queries.

    With cold memo tables the order decides which query pays for a shared
    sub-result; each pass of a run takes a fresh seeded order, so a run
    averages over orders.  Total work and every per-layer count are the same
    for every order.
    """
    order = list(range(count))
    random.Random(f"order/{seed}/{index}").shuffle(order)
    return order
