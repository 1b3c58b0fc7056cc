"""Surface syntax: parsing, errors with positions, and round-trips."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from rspin import errors
from rspin.classes import FormalClass, Kappa1, Lambda, MU, render_class
from rspin.expr import _tokenize, parse_class


class TestParse:
    def test_bare_names(self):
        assert parse_class("lambda", 4) == FormalClass.single(Lambda(4))
        assert parse_class("kappa1", 4) == FormalClass.single(Kappa1(4))
        assert parse_class("mu", 4) == FormalClass.single(MU)

    def test_fractions(self):
        assert parse_class("lambda(1/4)", 4) == FormalClass.single(Lambda(1))
        assert parse_class("kappa1(-3/4)", 4) == FormalClass.single(Kappa1(-3))

    def test_coefficients(self):
        x = parse_class("3*lambda(1/3) + lambda", 3)
        assert x == FormalClass.of([(Lambda(1), 3), (Lambda(3), 1)])
        assert parse_class("2 lambda(1/2)", 2) == FormalClass.single(Lambda(1), 2)

    def test_signs(self):
        x = parse_class("-mu + 2*lambda(1/4) - kappa1", 4)
        assert x == FormalClass.of([(MU, -1), (Lambda(1), 2), (Kappa1(4), -1)])

    def test_zero(self):
        assert parse_class("0", 2) == FormalClass()
        assert parse_class("lambda - lambda", 7) == FormalClass()

    def test_whitespace_insensitive(self):
        assert parse_class("  2 *  mu+lambda ", 2) == parse_class("2*mu + lambda", 2)


class TestParseErrors:
    def test_wrong_denominator(self):
        with pytest.raises(errors.ParseError):
            parse_class("lambda(1/3)", 4)

    def test_bare_integer(self):
        with pytest.raises(errors.ParseError):
            parse_class("5", 4)

    def test_mu_odd(self):
        with pytest.raises(errors.ParseError):
            parse_class("mu", 3)

    def test_trailing_garbage(self):
        with pytest.raises(errors.ParseError):
            parse_class("lambda lambda", 2)

    def test_unknown_character(self):
        with pytest.raises(errors.ParseError):
            parse_class("lambda ^ 2", 2)

    def test_position_reported(self):
        with pytest.raises(errors.ParseError) as exc:
            parse_class("lambda + ", 2)
        assert exc.value.position == 9
        assert "position 9" in str(exc.value)

    def test_literal_over_the_digit_limit(self):
        # a library call is held to the interpreter's int/str digit limit,
        # with a ParseError at the literal, not int()'s own ValueError
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        assert parse_class("1" * limit + "*lambda", 3) == FormalClass.single(Lambda(3), int("1" * limit))
        with pytest.raises(errors.ParseError) as exc:
            parse_class("lambda - " + "1" * (limit + 1) + "*lambda", 3)
        assert exc.value.position == 9
        assert str(exc.value) == f"integer literal has {limit + 1} digits, over the limit of {limit} (at position 9)"


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except errors.ParseError as e:
        return ("error", str(e), e.position)


# Pieces of expressions, whitespace of several kinds (Unicode spaces
# among them), non-ASCII digits and characters no token starts with.
_PIECES = ["lambda", "kappa1", "mu", "lamb", "kappa", "m", "(", ")", "+", "-", "*", "/", "0", "12",
           " ", "\t", "\n", "\u00a0", "\u2003", "\u3000", "\u0663", "\uff17", "^", "x", "é", ".", "_"]


class TestTokenizer:
    @given(st.lists(st.sampled_from(_PIECES) | st.text(max_size=2), max_size=12).map("".join))
    @settings(max_examples=500)
    def test_matches_whitespace_loop(self, text):
        assert _tokens_or_error(_tokenize, text) == _tokens_or_error(oracles.tokenize, text)


def formal_classes(r):
    symbols = [Lambda(a) for a in range(-r, r + 1)] + [Kappa1(a) for a in range(-r, r + 1)]
    if r % 2 == 0:
        symbols.append(MU)
    return st.lists(
        st.tuples(st.sampled_from(symbols), st.integers(min_value=-9, max_value=9)),
        max_size=5,
    ).map(FormalClass.of)


class TestRoundTrip:
    @given(st.integers(min_value=2, max_value=12).flatmap(lambda r: st.tuples(st.just(r), formal_classes(r))))
    @settings(max_examples=300)
    def test_render_parse(self, rx):
        r, x = rx
        assert parse_class(render_class(x, r), r) == x
