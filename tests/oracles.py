"""Reference computations the tests check rspin against, kept out of
the library because no query needs them."""

import importlib.util
import re
from fractions import Fraction
from pathlib import Path

from rspin import errors
from rspin.abelian import HomZN, IntMatrix, _hermite2, _order_mod

BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """bench/<name>.py, loaded by path: bench/ is not a package."""
    spec = importlib.util.spec_from_file_location(f"rspin_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The closed forms of the named classes, computed without rspin.
bench_oracle = bench_module("oracle")


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


# kernel_lattice as it was before it built the rows of each run of member
# columns together, which rspin.abelian.kernel_lattice is compared with.


def kernel_lattice_by_rows(hom: HomZN) -> IntMatrix:
    """The kernel's Hermite basis by the same sweep as kernel_lattice,
    each row built alone as a sparse dict: d_j e_j minus the basis
    coefficients of combo, reduced by the rows with pivots above 1."""
    images = hom.generator_images
    k = len(images)
    basis = [(0, hom.ambient_torsion, {})]  # (free, torsion, coefficients)
    rows = {}  # pivot column -> sparse row
    reducers = []  # special pivot columns with d_j > 1, descending
    for j in range(k - 1, -1, -1):
        f, t = images[j]
        d, combo = _order_mod(f, t, basis)
        if d:
            row = {j: d}
            for x, (_, _, coeffs) in zip(combo, basis):
                if x:
                    _axpy(row, -x, coeffs)
            for c in reversed(reducers):
                q = row.get(c, 0) // rows[c][c]
                if q:
                    _axpy(row, -q, rows[c])
            rows[j] = row
        if d != 1 and j:  # no column reads L_0
            basis = _hermite2(basis + [(f, t, {j: 1})])
            if d:
                reducers.append(j)
    return IntMatrix(len(rows), k, tuple(tuple(sorted(rows[j].items())) for j in sorted(rows)))


def _axpy(acc: dict, a: int, x: dict) -> None:
    """acc += a * x for sparse vectors, dropping zero entries."""
    for c, v in x.items():
        s = acc.get(c, 0) + a * v
        if s:
            acc[c] = s
        else:
            acc.pop(c, None)


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
