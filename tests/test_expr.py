"""Expression parser: grammar, validation, round trips."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pshodge.expr import (Diff, Lam, Lit, ParseError, Pow, Prod, Psi, Sum,
                          SymbolRangeError, _tokenize, parse_expression,
                          to_text)
from pshodge.strata import expr_integral


class TestGrammar:
    def test_product_node(self):
        e = parse_expression("lambda1*psi1^3", 2, 1)
        assert e == Prod(Lam(1), Pow(Psi(1), 3))

    def test_difference_of_product_and_power(self):
        e = parse_expression("2*lambda2 - lambda1^2", 2, 1)
        assert e == Diff(Prod(Lit(Fraction(2)), Lam(2)), Pow(Lam(1), 2))

    def test_rational_literal(self):
        assert parse_expression("3/4", 1, 1) == Lit(Fraction(3, 4))
        assert parse_expression("-5/10", 1, 1) == Lit(Fraction(-1, 2))

    def test_whitespace_insignificant(self):
        a = parse_expression("lambda1 * psi1 ^ 3", 2, 1)
        b = parse_expression("lambda1*psi1^3", 2, 1)
        assert a == b

    def test_parentheses(self):
        e = parse_expression("(lambda1 + psi1)^2", 2, 1)
        assert e == Pow(Sum(Lam(1), Psi(1)), 2)

    def test_precedence(self):
        e = parse_expression("1 + 2*psi1", 1, 1)
        assert e == Sum(Lit(Fraction(1)), Prod(Lit(Fraction(2)), Psi(1)))


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
            expr_integral(0, 3, Lam(0))
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


def expr_trees(g, n, depth=3):
    leaves = st.one_of(
        st.integers(-9, 9).map(lambda v: Lit(Fraction(v))),
        st.tuples(st.integers(1, 9), st.integers(1, 9)).map(
            lambda t: Lit(Fraction(t[0], t[1]))),
        st.integers(1, g).map(Lam),
        st.integers(1, n).map(Psi),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: Sum(*t)),
            st.tuples(children, children).map(lambda t: Diff(*t)),
            st.tuples(children, children).map(lambda t: Prod(*t)),
            st.tuples(children, st.integers(0, 4)).map(lambda t: Pow(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


class TestRoundTrip:
    @settings(max_examples=120)
    @given(expr_trees(3, 2))
    def test_print_parse_round_trip(self, tree):
        assert parse_expression(to_text(tree), 3, 2) == tree

    def test_negative_literal_round_trip(self):
        tree = Prod(Lit(Fraction(-3, 7)), Psi(1))
        assert parse_expression(to_text(tree), 1, 1) == tree
