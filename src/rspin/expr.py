"""Surface syntax for class expressions.

Grammar:
    expr := term { ("+" | "-") term }
    term := [ integer [ "*" ] ] atom | integer
    atom := "lambda" [ "(" frac ")" ] | "kappa1" [ "(" frac ")" ] | "mu"
    frac := integer "/" integer

A bare name means tensor power r/r. The denominator of every fraction
must equal the context's r. The only bare integer term allowed is 0.
"""

from __future__ import annotations

import re

from . import errors
from .classes import FormalClass, Kappa1, Lambda, MU

_TOKEN = re.compile(r"(\d+)|(lambda|kappa1|mu)|([()+\-*/])|(\S)")


def _tokenize(text: str, max_digits=None):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, name, op, bad = m.groups()
        if bad:
            raise errors.ParseError(f"unexpected character {bad!r}", m.start())
        if num:
            if max_digits and len(num) > max_digits:
                message = f"integer literal has {len(num)} digits, over the limit of {max_digits}"
                raise errors.ParseError(message, m.start())
            tokens.append(("int", int(num), m.start()))
        elif name:
            tokens.append(("name", name, m.start()))
        else:
            tokens.append(("op", op, m.start()))
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, r: int, max_digits=None):
        self.tokens = _tokenize(text, max_digits)
        self.i = 0
        self.r = r

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        tag, val, pos = self.take()
        if tag != "op" or val != op:
            raise errors.ParseError(f"expected {op!r}", pos)

    def parse(self) -> FormalClass:
        pairs = []
        sign = 1
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = -1
        pairs.append(self.term(sign))
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, _ = self.take()
            pairs.append(self.term(1 if op == "+" else -1))
        tag, _, pos = self.peek()
        if tag != "end":
            raise errors.ParseError("trailing input", pos)
        return FormalClass.of(p for p in pairs if p)

    def term(self, sign: int):
        """The term's (symbol, coefficient) pair, or None for the bare 0."""
        tag, val, pos = self.peek()
        coeff = 1
        if tag == "int":
            self.take()
            coeff = val
            nxt = self.peek()
            if nxt[:2] == ("op", "*"):
                self.take()
            elif nxt[0] != "name":
                if coeff != 0:
                    raise errors.ParseError("a bare integer term must be 0", pos)
                return None
        elif tag != "name":
            raise errors.ParseError("expected a class name or integer", pos)
        return self.atom(), sign * coeff

    def atom(self):
        tag, name, pos = self.take()
        if tag != "name":
            raise errors.ParseError("expected lambda, kappa1 or mu", pos)
        if name == "mu":
            if self.r % 2:
                raise errors.ParseError(f"mu is not defined for odd r = {self.r}", pos)
            return MU
        power = self.r
        if self.peek()[:2] == ("op", "("):
            self.take()
            power = self.frac()
            self.expect_op(")")
        return Lambda(power) if name == "lambda" else Kappa1(power)

    def frac(self) -> int:
        neg = False
        if self.peek()[:2] == ("op", "-"):
            self.take()
            neg = True
        tag, num, pos = self.take()
        if tag != "int":
            raise errors.ParseError("expected an integer numerator", pos)
        self.expect_op("/")
        tag, den, pos = self.take()
        if tag != "int":
            raise errors.ParseError("expected an integer denominator", pos)
        if den != self.r:
            raise errors.ParseError(f"denominator must equal r = {self.r}, got {den}", pos)
        return -num if neg else num


def parse_class(text: str, r: int, max_digits=None) -> FormalClass:
    """Parse an expression like "3*lambda(1/4) - mu" in a given r. With
    max_digits (an int/str digit limit; 0 or None is none), an integer
    literal of more digits is a ParseError, as int() would refuse it."""
    return _Parser(text, r, max_digits).parse()
