"""The expression tree that once stood between the parser and the
evaluator, kept as the differential oracle for
:func:`pshodge.expr.parse_expression`.

:func:`parse_tree` reads a text into a tree of the seven node classes
below, :func:`expand` walks the tree once into the truncated sparse
polynomial, and :func:`to_text` prints a tree back as text.  Only the
tokenizer, the error classes and the index check are shared with the
package.
"""

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import log2

from pshodge.expr import ParseError, _check_index, _tokenize
from pshodge.multiset import accumulate, multiply


@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Lam:
    index: int


@dataclass(frozen=True)
class Psi:
    index: int


@dataclass(frozen=True)
class Sum:
    left: object
    right: object


@dataclass(frozen=True)
class Diff:
    left: object
    right: object


@dataclass(frozen=True)
class Prod:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


class _Parser:
    def __init__(self, text, g, n):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.g = g
        self.n = n

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_int(self, what):
        kind, value, at = self.next()
        if kind != "num":
            raise ParseError(f"expected {what}", at)
        return value, at

    def parse(self):
        node = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", at)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                rhs = self.term()
                node = Sum(node, rhs) if value == "+" else Diff(node, rhs)
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                node = Prod(node, self.factor())
            else:
                return node

    def factor(self):
        node = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent, _ = self.expect_int("a non-negative integer exponent")
            node = Pow(node, exponent)
        return node

    def rational(self, sign, at):
        kind, value, _ = self.next()
        assert kind == "num"
        num = sign * value
        kind, slash, _ = self.peek()
        if kind == "op" and slash == "/":
            self.next()
            den, dat = self.expect_int("a positive denominator")
            if den == 0:
                raise ParseError("zero denominator", dat)
            return Lit(Fraction(num, den))
        return Lit(Fraction(num))

    def base(self):
        kind, value, at = self.peek()
        if kind == "num":
            return self.rational(1, at)
        if kind == "op" and value == "-" and self.tokens[self.pos + 1][0] == "num":
            self.next()
            return self.rational(-1, at)
        if kind == "name":
            self.next()
            index, iat = self.expect_int(f"an index after '{value}'")
            if value == "lambda":
                _check_index("lambda", index, self.g, "g")
                return Lam(index)
            _check_index("psi", index, self.n, "n")
            return Psi(index)
        if kind == "op" and value == "(":
            self.next()
            node = self.expr()
            kind, value, at = self.next()
            if kind != "op" or value != ")":
                raise ParseError("expected ')'", at)
            return node
        got = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected a value, got {got}", at)


def parse_tree(text, g, n):
    """Parse ``text`` into an expression tree for the ambient ``(g, n)``.

    Raises :class:`~pshodge.expr.ParseError` with a position on bad
    syntax and :class:`~pshodge.expr.SymbolRangeError` on out-of-range
    symbol indices.
    """
    return _Parser(text, g, n).parse()


def to_text(node):
    """Canonical text form; ``parse_tree`` recovers an equal tree.

    >>> e = parse_tree("2*lambda2 - lambda1^2", 2, 1)
    >>> parse_tree(to_text(e), 2, 1) == e
    True
    """
    if isinstance(node, Lit):
        return str(node.value)
    if isinstance(node, Lam):
        return f"lambda{node.index}"
    if isinstance(node, Psi):
        return f"psi{node.index}"
    if isinstance(node, Sum):
        return f"({to_text(node.left)} + {to_text(node.right)})"
    if isinstance(node, Diff):
        return f"({to_text(node.left)} - {to_text(node.right)})"
    if isinstance(node, Prod):
        return f"({to_text(node.left)} * {to_text(node.right)})"
    if isinstance(node, Pow):
        return f"({to_text(node.base)}^{node.exponent})"
    raise TypeError(f"not an expression node: {node!r}")


def _check_power(c, e):
    """Refuse ``c ** e`` for a constant ``c`` when it would have more digits
    than Python converts to text (the limit that also governs printing).
    A numerator or denominator of bit length ``b`` is at least
    ``2^(b-1)``, so its power has more than ``(b-1) e log10(2)`` digits;
    the estimate is formed before the power, and ``c = +-1`` always
    passes."""
    # 0, or a Python with no such limit: refuse nothing
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
    # (b-1) e log10(2) >= limit; an int compares exactly with a float
    if limit and bits * e >= limit * log2(10):
        raise ValueError(f"a power of a constant in the expression would "
                         f"have more than {limit} digits")


def expand(node, g, n, dim):
    """Expand an expression tree into a sparse polynomial of degree ``dim``.

    A key is the sorted multiset of symbol indices, ``lambda_j`` as j and
    ``psi_i`` as ``g + i``, so its lambda part comes first.  Monomials of
    degree above ``dim`` integrate to zero and are dropped as soon as
    they arise.  Coefficients stay plain ``int`` while they are integral
    and become :class:`~fractions.Fraction` once, in the final filter.
    A power of a single monomial, and a product of two single monomials,
    is formed in one step: one key, one coefficient and one degree check
    against ``dim``; :func:`~pshodge.multiset.multiply` is left to sums.

    The walk is the tree's only check: a bad symbol index, a negative
    exponent, a power of a constant too long to print
    (:func:`_check_power`) or a non-node raises, the first met left to
    right.
    """

    def degree(key):
        cut = bisect_right(key, g)  # the lambda part comes first
        return sum(key[:cut]) + len(key) - cut

    def walk(node):
        if isinstance(node, Lit):
            value = Fraction(node.value)
            if not value:
                return {}
            return {(): value.numerator if value.denominator == 1 else value}
        if isinstance(node, Lam):
            _check_index("lambda", node.index, g, "g")
            return {(node.index,): 1}
        if isinstance(node, Psi):
            _check_index("psi", node.index, n, "n")
            return {(g + node.index,): 1}
        if isinstance(node, Sum):
            return accumulate(walk(node.left), walk(node.right).items())
        if isinstance(node, Diff):
            return accumulate(walk(node.left), walk(node.right).items(), -1)
        if isinstance(node, Prod):
            left, right = walk(node.left), walk(node.right)
            if len(left) == len(right) == 1:
                (a, c), = left.items()
                (b, d), = right.items()
                if degree(a) + degree(b) > dim:
                    return {}
                return {tuple(sorted(a + b)): c * d}
            return multiply(left, right, degree, dim)
        if isinstance(node, Pow):
            # checked before the base: a negative exponent would give a
            # float, or never end the square-and-multiply loop
            if node.exponent < 0:
                raise ValueError("exponents must be non-negative")
            base, e = walk(node.base), node.exponent
            if () in base:  # the power's constant term is c ** e
                _check_power(base[()], e)
            if len(base) == 1:
                (key, c), = base.items()
                if degree(key) * e > dim:
                    return {}
                return {tuple(sorted(key * e)): c ** e}
            # square and multiply: truncation commutes with the product
            out = {(): 1}
            while e:
                if e & 1:
                    out = multiply(out, base, degree, dim)
                e >>= 1
                if e:
                    base = multiply(base, base, degree, dim)
            return out
        raise TypeError(f"not an expression node: {node!r}")

    return {key: Fraction(c) for key, c in walk(node).items()
            if degree(key) == dim}
