r"""Expression trees for polynomials in lambda and psi classes.

Grammar (whitespace insignificant)::

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' nonneg-int)?
    base     := rational | 'lambda' int | 'psi' int | '(' expr ')'
    rational := ['-'] int ('/' posint)?

Symbols are spelled ``lambda3``, ``psi1``.  Symbol indices are validated
against the ambient ``(g, n)`` at parse time: ``1 <= j <= g`` for lambda,
``1 <= i <= n`` for psi.  A tree built in code is checked against the
same ranges by :func:`pshodge.strata.expr_integral` as it is expanded.

>>> parse_expression("lambda1*psi1^3", 2, 1)
Prod(left=Lam(index=1), right=Pow(base=Psi(index=1), exponent=3))
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Lit", "Lam", "Psi", "Sum", "Diff", "Prod", "Pow",
    "ParseError", "SymbolRangeError",
    "parse_expression", "to_text",
]


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


def parse_expression(text, g, n):
    """Parse ``text`` into an expression tree for the ambient ``(g, n)``.

    Raises :class:`ParseError` with a position on bad syntax and
    :class:`SymbolRangeError` on out-of-range symbol indices.

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


def to_text(node):
    """Canonical text form; ``parse_expression`` recovers an equal tree.

    >>> e = parse_expression("2*lambda2 - lambda1^2", 2, 1)
    >>> parse_expression(to_text(e), 2, 1) == e
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
