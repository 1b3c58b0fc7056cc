"""Reference computations the tests check rspin against, kept out of
the library because no query needs them."""

import re
from fractions import Fraction

from rspin import errors
from rspin.abelian import IntMatrix


def det(a: IntMatrix) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def rank(a: IntMatrix) -> int:
    """Rank over Q, by Gaussian elimination on Fractions."""
    m = [[Fraction(x) for x in row] for row in a.to_rows()]
    r = 0
    for c in range(a.cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c] / m[r][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


# The rules of the named classes written out one kind at a time, as the
# reference rspin.classes.symbol_record is compared with.


def _quad(r: int, a: int) -> int:
    return r * r - 6 * a * r + 6 * a * a


def symbol_free(ctx, sym) -> int:
    """Free coordinate of one named class."""
    u = ctx.u
    if sym.kind == "lambda":
        assert u * _quad(ctx.r, sym.power) % 12 == 0
        return u * _quad(ctx.r, sym.power) // 12
    if sym.kind == "kappa1":
        return sym.power * sym.power * u
    ctx.require_mu()
    assert u * ctx.r * ctx.r % 48 == 0
    return -(u * ctx.r * ctx.r // 48)


def symbol_phi(ctx, sym) -> int:
    """Mod-24 detection value of one named class."""
    if sym.kind == "lambda":
        return 2
    if sym.kind == "kappa1":
        return 0
    ctx.require_mu()
    return 1


def fiber_value(ctx, sym, arf) -> int:
    """Fiber weight of one named class at Arf invariant arf."""
    if sym.kind == "lambda":
        return 0
    if sym.kind == "kappa1":
        return 2 * sym.power * sym.power * (ctx.chi // ctx.r)
    ctx.require_mu()
    return arf * (ctx.r // 2)


def rational_multiple_of_lambda(ctx, x) -> Fraction:
    """q with x = q * lambda rationally, term by term; mu by its
    half-integral identity 2 mu = lambda(-r/2 / r) + 12 lambda(r/2 / r)."""
    total = Fraction(0)
    rr = ctx.r * ctx.r
    for sym, c in x.terms:
        if sym.kind == "lambda":
            total += c * Fraction(_quad(ctx.r, sym.power), rr)
        elif sym.kind == "kappa1":
            total += c * Fraction(12 * sym.power * sym.power, rr)
        else:
            ctx.require_mu()
            half = ctx.r // 2
            total += c * (Fraction(_quad(ctx.r, -half), rr) + 12 * Fraction(_quad(ctx.r, half), rr)) / 2
    return total


# The expression tokenizer as it was before it became one finditer pass,
# which rspin.expr._tokenize is compared with.

_TOKEN = re.compile(r"\s*(?:(\d+)|(lambda|kappa1|mu)|([()+\-*/]))")


def tokenize(text: str):
    """Token list of text, skipping whitespace one character at a time."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise errors.ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.group(1):
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens
