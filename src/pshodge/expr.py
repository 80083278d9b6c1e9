r"""Parse polynomials in lambda and psi classes straight into their
top-degree monomials.

Grammar (whitespace insignificant)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | 'lambda' int | 'psi' int | '(' expr ')'
    rational := ['-'] int ('/' posint)?

Symbols are spelled ``lambda3``, ``psi1``.  Symbol indices are validated
against the ambient ``(g, n)`` as they are read: ``1 <= j <= g`` for
lambda, ``1 <= i <= n`` for psi.

One recursive-descent pass turns the text into a sparse polynomial in
the lambda and psi classes (key: the sorted multiset of symbol indices,
``lambda_j`` as j and ``psi_i`` as ``g + i``), dropping monomials above
the dimension ``3g - 3 + n`` as they arise and keeping only those of
exactly top degree.  Coefficients stay plain ``int`` while they are
integral and become ``Fraction`` only in that last filter; a power of a
single monomial and a product of two single monomials are formed
directly, and the general product and square-and-multiply are left to
:func:`~pshodge.multiset.multiply`.  No tree is built.

>>> parse_expression("lambda1*psi1^3 - 1/2*psi1^4 + lambda1", 2, 1)
{(1, 3, 3, 3): Fraction(1, 1), (3, 3, 3, 3): Fraction(-1, 2)}
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from fractions import Fraction
from math import log2

from .multiset import accumulate, multiply

__all__ = ["ParseError", "SymbolRangeError", "parse_expression"]


class ParseError(ValueError):
    """Syntax error, carrying the 0-based offset of the offending token."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SymbolRangeError(ValueError):
    """A lambda/psi index outside ``1..bound``, the range the ambient
    (g, n) allows; ``label`` names the bound (``"g"`` or ``"n"``)."""

    def __init__(self, name, index, bound, label):
        self.symbol = f"{name}{index}"
        if bound < 1:
            why = f"is out of range: {label}={bound} allows no {name} symbol"
        else:
            allowed = f"{name}1" + (f"..{name}{bound}" if bound > 1 else "")
            why = f"is out of range: {label}={bound} allows {allowed}"
        super().__init__(f"symbol {self.symbol} {why}")


def _check_index(name, index, bound, label):
    if not 1 <= index <= bound:
        raise SymbolRangeError(name, index, bound, label)


def _power_refusal(c, e):
    """The error refusing ``c ** e`` for a constant ``c`` when it would have
    more digits than Python converts to text (the limit that also governs
    printing), or None.  A numerator or denominator of bit length ``b`` is
    at least ``2^(b-1)``, so its power has more than ``(b-1) e log10(2)``
    digits; the estimate is formed before the power, and ``c = +-1``
    always passes."""
    # 0, or a Python with no such limit: refuse nothing
    limit = getattr(sys, "get_int_max_str_digits", int)()
    bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length()) - 1
    # (b-1) e log10(2) >= limit; an int compares exactly with a float
    if limit and bits * e >= limit * log2(10):
        return ValueError(f"a power of a constant in the expression would "
                          f"have more than {limit} digits")
    return None


# whitespace between tokens is skipped by the search; any other character
# that starts no token lands in the last group
_TOKEN = re.compile(r"(\d+)|(lambda|psi)|([-+*/^()])|(\S)")


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, other = m.groups()
        at = m.start()
        if num:
            try:
                value = int(num)
            except ValueError:  # longer than Python converts from text
                raise ParseError("integer literal has more than "
                                 f"{sys.get_int_max_str_digits()} digits",
                                 at) from None
            tokens.append(("num", value, at))
        elif name:
            tokens.append(("name", name, at))
        elif op:
            tokens.append(("op", op, at))
        else:
            raise ParseError(f"unexpected character {other!r}", at)
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    """Each grammar rule returns the sparse polynomial of the text it read,
    truncated at ``dim``.

    Syntax and symbol-range errors raise where they are met.  The first
    power of a constant that :func:`_power_refusal` refuses is only kept,
    and raised once the whole text has parsed, so that a syntax or
    symbol-range error anywhere in the text is reported first; every
    later power then reads as 0, since its value is never used."""

    def __init__(self, text, g, n):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.g = g
        self.n = n
        self.dim = 3 * g - 3 + n
        self.refused = None

    def degree(self, key):
        cut = bisect_right(key, self.g)  # the lambda part comes first
        return sum(key[:cut]) + len(key) - cut

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
        poly = self.expr()
        kind, value, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {value!r}", at)
        if self.refused is not None:
            raise self.refused
        return {key: Fraction(c) for key, c in poly.items()
                if self.degree(key) == self.dim}

    def expr(self):
        poly = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                accumulate(poly, self.term().items(),
                           1 if value == "+" else -1)
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == "*":
                self.next()
                poly = self.product(poly, self.factor())
            else:
                return poly

    def product(self, left, right):
        if len(left) == len(right) == 1:
            (a, c), = left.items()
            (b, d), = right.items()
            if self.degree(a) + self.degree(b) > self.dim:
                return {}
            return {tuple(sorted(a + b)): c * d}
        return multiply(left, right, self.degree, self.dim)

    def factor(self):
        poly = self.base()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.next()
            exponent, _ = self.expect_int("a non-negative integer exponent")
            poly = self.power(poly, exponent)
        return poly

    def power(self, base, e):
        if () in base and self.refused is None:  # its constant term is c ** e
            self.refused = _power_refusal(base[()], e)
        if self.refused is not None:
            return {}
        if len(base) == 1:
            (key, c), = base.items()
            if self.degree(key) * e > self.dim:
                return {}
            # a constant's key is (), and () * e overflows past sys.maxsize
            return {tuple(sorted(key * e)) if key else (): c ** e}
        # square and multiply: truncation commutes with the product
        out = {(): 1}
        while e:
            if e & 1:
                out = multiply(out, base, self.degree, self.dim)
            e >>= 1
            if e:
                base = multiply(base, base, self.degree, self.dim)
        return out

    def rational(self, sign):
        _, value, _ = self.next()
        num = sign * value
        kind, slash, _ = self.peek()
        if kind == "op" and slash == "/":
            self.next()
            den, dat = self.expect_int("a positive denominator")
            if den == 0:
                raise ParseError("zero denominator", dat)
            value = Fraction(num, den)
            num = value.numerator if value.denominator == 1 else value
        return {(): num} if num else {}

    def base(self):
        kind, value, at = self.peek()
        if kind == "num":
            return self.rational(1)
        if kind == "op" and value == "-" and self.tokens[self.pos + 1][0] == "num":
            self.next()
            return self.rational(-1)
        if kind == "name":
            self.next()
            index, _ = self.expect_int(f"an index after '{value}'")
            if value == "lambda":
                _check_index("lambda", index, self.g, "g")
                return {(index,): 1}
            _check_index("psi", index, self.n, "n")
            return {(self.g + index,): 1}
        if kind == "op" and value == "(":
            self.next()
            poly = self.expr()
            kind, value, at = self.next()
            if kind != "op" or value != ")":
                raise ParseError("expected ')'", at)
            return poly
        got = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected a value, got {got}", at)


def parse_expression(text, g, n):
    """The top-degree part of ``text`` on Mbar_{g,n}, as a dict from a
    sorted multiset of symbol indices (``lambda_j`` as j, ``psi_i`` as
    ``g + i``) to its nonzero ``Fraction`` coefficient.

    The whole text is tokenized first, so a bad character or an over-long
    integer literal is reported before anything else.  Then
    :class:`ParseError` (with a position, on bad syntax) and
    :class:`SymbolRangeError` (on an out-of-range symbol index) raise
    left to right.  Last comes the ``ValueError`` for the first power of
    a constant too long to print.

    >>> parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
    {(2, 3, 3): Fraction(2, 1), (1, 1, 3, 3): Fraction(-1, 1)}
    >>> parse_expression("psi3", 2, 2)
    Traceback (most recent call last):
        ...
    pshodge.expr.SymbolRangeError: symbol psi3 is out of range: n=2 allows psi1..psi2
    >>> parse_expression("lambda0*psi1^4", 2, 1)
    Traceback (most recent call last):
        ...
    pshodge.expr.SymbolRangeError: symbol lambda0 is out of range: g=2 allows lambda1..lambda2
    """
    return _Parser(text, g, n).parse()
