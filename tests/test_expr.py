"""Expression parser: grammar, validation, error order, and parity with
the expression-tree oracle."""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expr_tree as E
from pshodge.expr import (ParseError, SymbolRangeError, _tokenize,
                          parse_expression)


def F(*args):
    return Fraction(*args)


class TestGrammar:
    """Keys are sorted multisets of symbol indices, ``lambda_j`` as j and
    ``psi_i`` as ``g + i``; only monomials of degree ``3g - 3 + n`` are
    kept, each with a ``Fraction`` coefficient."""

    def test_product_node(self):
        poly = parse_expression("lambda1*psi1^3", 2, 1)
        assert poly == {(1, 3, 3, 3): F(1)}
        assert all(type(c) is Fraction for c in poly.values())

    def test_difference_of_product_and_power(self):
        poly = parse_expression("(2*lambda2 - lambda1^2)*psi1^2", 2, 1)
        assert poly == {(2, 3, 3): F(2), (1, 1, 3, 3): F(-1)}

    def test_rational_literal(self):
        assert parse_expression("3/4", 0, 3) == {(): F(3, 4)}
        assert parse_expression("-5/10", 0, 3) == {(): F(-1, 2)}
        assert parse_expression("0/7", 0, 3) == {}

    def test_whitespace_insignificant(self):
        a = parse_expression("lambda1 * psi1 ^ 3", 2, 1)
        b = parse_expression("lambda1*psi1^3", 2, 1)
        assert a == b

    def test_parentheses(self):
        poly = parse_expression("(lambda1 + psi1)^2", 1, 2)
        assert poly == {(1, 1): F(1), (1, 2): F(2), (2, 2): F(1)}

    def test_precedence(self):
        assert parse_expression("1 + 2*psi1", 1, 1) == {(2,): F(2)}

    def test_only_the_top_degree_is_kept(self):
        # lambda1 and 1 lie below the dimension, lambda2*psi1^3 above it
        poly = parse_expression("1 + lambda1 + psi1^4 - lambda2*psi1^3", 2, 1)
        assert poly == {(3, 3, 3, 3): F(1)}
        assert parse_expression("psi1^4 - psi1^4", 2, 1) == {}


class TestErrors:
    def test_psi_out_of_range(self):
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("psi3", 2, 2)
        assert "psi3" in str(err.value)

    def test_lambda_out_of_range(self):
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("lambda3", 2, 1)
        assert str(err.value) == ("symbol lambda3 is out of range: "
                                  "g=2 allows lambda1..lambda2")
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("psi2", 2, 1)
        assert str(err.value) == "symbol psi2 is out of range: n=1 allows psi1"

    def test_index_zero_is_below_the_range(self):
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("lambda0*psi1^4", 2, 1)
        assert str(err.value) == ("symbol lambda0 is out of range: "
                                  "g=2 allows lambda1..lambda2")
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("psi0", 1, 3)
        assert str(err.value) == ("symbol psi0 is out of range: "
                                  "n=3 allows psi1..psi3")
        with pytest.raises(SymbolRangeError) as err:
            parse_expression("lambda0", 0, 3)
        assert str(err.value) == ("symbol lambda0 is out of range: "
                                  "g=0 allows no lambda symbol")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression("lambda1 + + psi1", 2, 1)
        assert err.value.position == 10

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_expression("(psi1", 1, 1)

    def test_bad_character(self):
        with pytest.raises(ParseError):
            parse_expression("psi1 & psi1", 1, 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("psi1 psi1", 1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("1/0", 1, 1)

    @pytest.mark.parametrize("text, got, position", [
        ("psi1^4 +", "end of input", 8), ("", "end of input", 0),
        ("(", "end of input", 1), ("lambda1 * ", "end of input", 10),
        ("(psi1 - )", "')'", 8)])
    def test_value_missing(self, text, got, position):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 2, 1)
        assert str(err.value) == (f"expected a value, got {got} "
                                  f"(at position {position})")
        assert err.value.position == position


class TestTokenizer:
    """Tokens carry the 0-based offset of their first character, and the
    end token the length of the text, whatever whitespace surrounds them."""

    @pytest.mark.parametrize("text, tokens", [
        ("\tlambda1 *\n psi1^2 \n",
         [("name", "lambda", 1), ("num", 1, 7), ("op", "*", 9),
          ("name", "psi", 12), ("num", 1, 15), ("op", "^", 16),
          ("num", 2, 17), ("end", None, 20)]),
        ("  psi1  ", [("name", "psi", 2), ("num", 1, 5), ("end", None, 8)]),
        (" 3/4 - (lambda2)\t",
         [("num", 3, 1), ("op", "/", 2), ("num", 4, 3), ("op", "-", 5),
          ("op", "(", 7), ("name", "lambda", 8), ("num", 2, 14),
          ("op", ")", 15), ("end", None, 17)]),
        ("", [("end", None, 0)]),
        (" \t\n", [("end", None, 3)]),
    ])
    def test_tokens_and_positions(self, text, tokens):
        assert _tokenize(text) == tokens

    @pytest.mark.parametrize("text, message, position", [
        ("lambd1", "unexpected character 'l'", 0),
        ("psi1 $", "unexpected character '$'", 5),
        (" \t\n\u00a3 psi1", "unexpected character '\u00a3'", 3),
    ])
    def test_unexpected_character(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse_expression(text, 1, 1)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_integer_literal_over_the_conversion_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this Python converts integers of any length")
        # the long literal is reported before the bad character after it
        text = " 2*" + "9" * (limit + 1) + " $"
        with pytest.raises(ParseError) as err:
            parse_expression(text, 1, 1)
        assert str(err.value) == (f"integer literal has more than {limit} "
                                  "digits (at position 3)")
        assert err.value.position == 3


class TestErrorOrder:
    """The whole text is tokenized first; then syntax and symbol-range
    errors raise left to right; a power of a constant too long to print
    is refused last, even where it comes first in the text."""

    REFUSED = ("a power of a constant in the expression would have more "
               "than 4300 digits")

    @pytest.mark.parametrize("text, error, message", [
        ("2^99999999*psi1^4 + )", ParseError,
         "expected a value, got ')' (at position 20)"),
        ("psi1^4 + 2^99999999 * lambda3", SymbolRangeError,
         "symbol lambda3 is out of range: g=2 allows lambda1..lambda2"),
        ("2^99999999*psi1^4 $", ParseError,
         "unexpected character '$' (at position 18)"),
    ])
    def test_later_error_beats_a_refused_power(self, text, error, message):
        with pytest.raises(ValueError) as err:
            parse_expression(text, 2, 1)
        assert type(err.value) is error
        assert str(err.value) == message

    def test_refused_power_is_raised_at_the_end(self):
        if getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300:
            pytest.skip("needs Python's default digit limit")
        for text in ("2^99999999*psi1^4", "psi1^4 + 3^99999999*psi1^4",
                     "(2^99999999)^99999999 + 5^99999999*lambda1*psi1^3"):
            with pytest.raises(ValueError) as err:
                parse_expression(text, 2, 1)
            assert type(err.value) is ValueError
            assert str(err.value) == self.REFUSED


def random_atom(rng, g, n):
    """A symbol, now and then out of range, or a literal, now and then
    with a zero denominator."""
    r = rng.random()
    if r < 0.3 and g:
        wide = rng.random() < 0.05
        return f"lambda{rng.randint(0, g + 1) if wide else rng.randint(1, g)}"
    if r < 0.7:
        wide = rng.random() < 0.05
        return f"psi{rng.randint(0, n + 1) if wide else rng.randint(1, n)}"
    text = str(rng.randint(-3, 4))
    return text + (f"/{rng.randint(0, 3)}" if rng.random() < 0.3 else "")


def random_text(rng, g, n, depth):
    """A random expression text: sums, differences, products and powers,
    some of them powers of constants too long to print."""
    if depth == 0 or rng.random() < 0.3:
        return random_atom(rng, g, n)
    if rng.random() < 0.25:
        e = rng.choice((0, 1, 2, 3, 4, 99999999))
        return f"({random_text(rng, g, n, depth - 1)})^{e}"
    op = rng.choice((" + ", " - ", "*", "*"))
    return (random_text(rng, g, n, depth - 1) + op
            + random_text(rng, g, n, depth - 1))


NOISE = ["lambda", "psi", "1", "2", "+", "-", "*", "/", "^", "(", ")", "$",
         " "]


def mutate(rng, text):
    """Delete, replace or insert up to two tokens of ``text``."""
    parts = re.findall(r"\d+|lambda|psi|.", text, re.S)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        i = rng.randint(0, len(parts))
        r = rng.random()
        if r < 0.4 and i < len(parts):
            del parts[i]
        elif r < 0.7 and i < len(parts):
            parts[i] = rng.choice(NOISE)
        else:
            parts.insert(i, rng.choice(NOISE))
    return "".join(parts)


def outcome(read, text, g, n):
    """The polynomial ``read`` gives for ``text``, or the type and
    message of what it raises."""
    try:
        return read(text, g, n)
    except ValueError as exc:
        return type(exc), str(exc)


def oracle(text, g, n):
    return E.expand(E.parse_tree(text, g, n), g, n, 3 * g - 3 + n)


class TestOracleParity:
    def test_random_texts_match_the_tree_oracle(self):
        """Differential oracle: on random texts, the one-pass parser and
        the tree parser followed by the tree expansion give the same
        polynomial, or the same error type and message."""
        rng = random.Random(27)
        ambients = [(0, 3), (1, 1), (1, 2), (2, 1), (3, 2), (4, 1)]
        seen = {}
        for _ in range(4000):
            g, n = rng.choice(ambients)
            text = mutate(rng, random_text(rng, g, n, rng.randint(0, 4)))
            got = outcome(parse_expression, text, g, n)
            assert got == outcome(oracle, text, g, n), (g, n, text)
            kind = (got[0].__name__ if isinstance(got, tuple)
                    else "value" if got else "zero")
            seen[kind] = seen.get(kind, 0) + 1
        # "ValueError" is the refusal of a power of a constant
        assert set(seen) == {"value", "zero", "ParseError",
                             "SymbolRangeError", "ValueError"}
        assert min(seen.values()) >= 20, seen


def expr_trees(g, n, depth=3):
    leaves = st.one_of(
        st.integers(-9, 9).map(lambda v: E.Lit(Fraction(v))),
        st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
            lambda t: E.Lit(Fraction(t[0], t[1]))),
        st.integers(1, g).map(E.Lam),
        st.integers(1, n).map(E.Psi),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: E.Sum(*t)),
            st.tuples(children, children).map(lambda t: E.Diff(*t)),
            st.tuples(children, children).map(lambda t: E.Prod(*t)),
            st.tuples(children, st.integers(0, 4)).map(lambda t: E.Pow(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestRoundTrip:
    """An oracle tree, printed, parses to the oracle's expansion of it."""

    @settings(max_examples=120)
    @given(expr_trees(3, 2))
    def test_print_parse_round_trip(self, tree):
        # times 1 + psi1 + ... + psi1^8, which lifts every monomial of the
        # tree to the top degree 8 of Mbar_{3,2}
        lift = E.Lit(Fraction(1))
        for d in range(1, 9):
            lift = E.Sum(lift, E.Pow(E.Psi(1), d))
        tree = E.Prod(tree, lift)
        assert (parse_expression(E.to_text(tree), 3, 2)
                == E.expand(tree, 3, 2, 8))

    def test_negative_literal_round_trip(self):
        tree = E.Prod(E.Lit(Fraction(-3, 7)), E.Psi(1))
        assert parse_expression(E.to_text(tree), 1, 1) == {(2,): F(-3, 7)}
        assert E.expand(tree, 1, 1, 1) == {(2,): F(-3, 7)}
