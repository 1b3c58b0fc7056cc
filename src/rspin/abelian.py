"""Exact linear algebra over the integers.

Normal forms (Smith, Hermite), integer kernels, and the canonical
structure of finitely generated abelian groups.  Everything here uses
Python's arbitrary-precision integers; there is no floating point and
no overflow.  All values are immutable and all functions are pure.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import chain, compress, islice, repeat
from math import gcd, lcm, prod


# ---------------------------------------------------------------------------
# immutable values


class Value:
    """Base of rspin's immutable value classes.

    The fields are the class's __slots__, in order, each set once by
    __init__ through object.__setattr__. The default __init__ takes one
    argument per field, in that order. A class that checks or derives its
    fields does that and then calls Value.__init__; only a class built
    several times per query stores its own fields. Two values are equal when
    they are of the same class and their _key() tuples (by default every
    field) are equal, and the hash is that of _key(). Assigning or deleting
    a field raises AttributeError. repr is Name(field=value, ...) over every
    field, unless the class writes its own, as ModuliContext does. A class
    on a hot path writes __eq__ and __hash__ by hand.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


# ---------------------------------------------------------------------------
# integer matrices


class IntMatrix(Value):
    """Integer matrix stored by rows: nonzero[i] holds the (column, entry)
    pairs of row i in increasing column order, with no zero entry, so
    two matrices are equal exactly when their dense forms are."""

    __slots__ = ("rows", "cols", "nonzero")

    def __init__(self, rows: int, cols: int, nonzero: tuple):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(nonzero) != rows:
            raise ValueError("row count does not match dimensions")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nonzero", nonzero)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if cols is None:
            cols = len(rows[0]) if rows else 0
        if any(len(r) != cols for r in rows):
            raise ValueError(f"rows must all have {cols} entries")
        return cls(len(rows), cols, tuple(tuple(zip(compress(range(cols), r), compress(r, r))) for r in rows))

    @property
    def entries(self) -> tuple:
        """The dense entries, row-major."""
        return tuple(x for i in range(self.rows) for x in self.row(i))

    def at(self, i: int, j: int) -> int:
        return next((x for c, x in self.nonzero[i] if c == j), 0)

    def row(self, i: int) -> tuple:
        dense = [0] * self.cols
        for j, x in self.nonzero[i]:
            dense[j] = x
        return tuple(dense)

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        dense = other.to_rows()
        product = [[sum(x * dense[k][j] for k, x in pairs) for j in range(other.cols)] for pairs in self.nonzero]
        return IntMatrix.from_rows(product, cols=other.cols)

    def diagonal(self) -> tuple:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))

    def __repr__(self):
        return f"IntMatrix(rows={self.rows}, cols={self.cols}, entries={self.entries!r})"


# ---------------------------------------------------------------------------
# Smith normal form


class SmithForm(Value):
    """U @ A @ V == S with U, V unimodular and S diagonal, d_i | d_{i+1}."""

    __slots__ = ("s", "u", "v")


def _find_pivot(s, t, m, n):
    """Nonzero entry of minimal |value| in s[t:, t:], earliest wins ties.

    The first entry equal to +-1 is returned at once: no entry is smaller
    and none before it ties, so the full scan would pick the same one.
    """
    best, best_abs = None, 0
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            x = row[j]
            if x:
                a = abs(x)
                if a == 1:
                    return (i, j)
                if best is None or a < best_abs:
                    best, best_abs = (i, j), a
    return best


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over Z, tracking the unimodular transformations.

    The witnesses ride along as passengers of one elimination
    (_diagonalize): each row of A carries its row of I_m on the right,
    which ends as U, and I_n below A ends as V. That is [[A, I_m],
    [I_n, 0]] without its zero corner, which no operation reads.
    Pivoting always selects the nonzero entry of minimal absolute value,
    earliest position on ties, so U and V are deterministic.
    """
    m, n = a.rows, a.cols
    s = [list(a.row(i)) + [int(i == j) for j in range(m)] for i in range(m)]
    s += [[int(i == j) for j in range(n)] for i in range(n)]
    _diagonalize(s, m, n)
    return SmithForm(
        IntMatrix.from_rows([row[:n] for row in s[:m]], cols=n),
        IntMatrix.from_rows([row[n:] for row in s[:m]], cols=m),
        IntMatrix.from_rows(s[m:], cols=n),
    )


def _diagonalize(s: list, m: int, n: int) -> None:
    """Bring the leading m x n block of the rows s to Smith form in place.

    Only that block is searched and cleared. Rows past m and columns
    past n are passengers: every row operation (on rows < m) carries the
    row's columns past n along, and every column operation (on columns
    < n) carries the column's entries in rows past m along.
    """

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(s, t, m, n)
        if piv is None:
            break
        s[t], s[piv[0]] = s[piv[0]], s[t]
        swap_cols(t, piv[1])
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
            p = s[t][t]
            dirty = False
            for i in range(m):
                if i != t and s[i][t]:
                    row_op(i, t, s[i][t] // p)
                    dirty = dirty or bool(s[i][t])
            for j in range(n):
                if j != t and s[t][j]:
                    col_op(j, t, s[t][j] // p)
                    dirty = dirty or bool(s[t][j])
            if dirty:
                i, j = _find_pivot(s, t, m, n)
                s[t], s[i] = s[i], s[t]
                swap_cols(t, j)
                continue
            # every entry is divisible by a unit pivot
            bad = None if p == 1 else next(
                ((i, j) for i in range(t + 1, m) for j in range(t + 1, n) if s[i][j] % p),
                None,
            )
            if bad is None:
                break
            # pull the offending row up so the pivot can shrink to the gcd
            s[t] = [x + y for x, y in zip(s[t], s[bad[0]])]
        t += 1


# ---------------------------------------------------------------------------
# Hermite normal form and lattice utilities


def hermite_normal_form(rows: Iterable[Sequence[int]], cols: int) -> IntMatrix:
    """Row-style Hermite form: echelon basis, positive pivots, entries
    above each pivot reduced into [0, pivot). The general reference that
    the tests and bench/tracer.py use."""
    work = [list(map(int, r)) for r in rows if any(r)]
    basis = []
    for c in range(cols):
        live = [r for r in work if r[c]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[c]))
            pivot = live[0]
            for r in live[1:]:
                q = r[c] // pivot[c]
                for j in range(cols):
                    r[j] -= q * pivot[j]
            live = [r for r in live if r[c]]
        pivot = live[0]
        work = [r for r in work if any(r) and r is not pivot]
        if pivot[c] < 0:
            pivot = [-x for x in pivot]
        for b in basis:
            if b[c]:
                q = b[c] // pivot[c]
                for j in range(cols):
                    b[j] -= q * pivot[j]
        basis.append(pivot)
    return IntMatrix.from_rows(basis, cols=cols)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


class FgAbGroup(Value):
    """Canonical form: two values are equal iff the groups are isomorphic."""

    __slots__ = ("free_rank", "invariant_factors")

    def __init__(self, free_rank: int, invariant_factors: tuple = ()):
        if free_rank < 0:
            raise ValueError("negative free rank")
        fs = invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "invariant_factors", invariant_factors)

    @classmethod
    def cyclic(cls, n: int) -> "FgAbGroup":
        if n < 1:
            raise ValueError("cyclic order must be >= 1")
        return cls(0, ()) if n == 1 else cls(0, (n,))

    @classmethod
    def from_orders(cls, orders: Iterable[int], free_rank: int = 0) -> "FgAbGroup":
        """Canonicalize an arbitrary direct sum of finite cyclic groups.

        Each order is merged into the divisibility chain by
        Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), which keeps the chain sorted
        prime by prime.
        """
        chain = []
        for n in orders:
            if n < 1:
                raise ValueError("orders must be >= 1")
            for i, f in enumerate(chain):
                chain[i], n = gcd(f, n), lcm(f, n)
            chain.append(n)
        return cls(free_rank, tuple(f for f in chain if f > 1))

    def order(self) -> int | None:
        return None if self.free_rank else prod(self.invariant_factors, start=1)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{f}" for f in self.invariant_factors)
        return " ⊕ ".join(parts) if parts else "0"


def group_from_presentation(n_generators: int, relations: IntMatrix) -> FgAbGroup:
    """Cokernel of the relation matrix (rows are relations) in canonical form.

    Computed with no unimodular witnesses, in these steps.

    * Unit pivots (_unit_pivot_residual). A relation with coefficient
      +-1 on a generator x that no other relation involves expresses x
      in terms of the others, so x and that relation can both be
      dropped: the cokernel does not change. This is the sparse
      elimination step of Dumas, Saunders and Villard, "On efficient
      sparse integer matrix Smith normal form computations", J. Symbolic
      Comput. 32 (2001), kept to the pivots that need no fill-in. On
      kernel_lattice's Hermite bases every unit-pivot column is already
      zero in the other rows, so the step reads the stored rows once,
      in O(nnz), and leaves only the few rows with non-unit pivots. A
      dense matrix seldom has such a column and goes on whole: clearing
      a shared +-1 column there removes a few rows but leaves larger
      entries, and fraction-free elimination on the rest costs about as
      much as on the whole.
    * At most one relation. A residual R of at most one row, on the k
      generators it still involves, has cokernel Z^(k-1) + Z/gcd(row),
      or Z^k. A relation matrix of one row, every CLI query's, is read
      this way at once, with no unit-pivot step before it.
    * Rank and modulus (_rank_and_minor). Any other residual takes the
      modular route, this step and the two below it. Fraction-free
      elimination gives the rank rho of R and d = |a nonzero rho x rho
      minor|. The cokernel is Z^(k-rho) + T, and the product
      d_1 ... d_rho of the invariant factors of T is the gcd of all
      rho x rho minors, so it divides d, and d kills T. Hence
      coker(R) (x) Z/d = (Z/d)^(k-rho) + T: T is the cokernel taken
      modulo d with its top k - rho invariant factors, each exactly d,
      dropped. When d = 1 the cokernel is free.
    * Cyclic part of a square residual. When R is k x k of rank k,
      T = coker(R) has invariant factors s_1 | ... | s_k with product d,
      and _rank_and_minor also returns the gcd h of four (k-1) x (k-1)
      minors. The gcd of all of them is s_1 ... s_(k-1), which therefore
      divides h. So for a prime p of d with p prime to h, every s_i
      with i < k is prime to p, and the p-part of T is cyclic of order
      p^v_p(d). Let m = gcd(d, h^e) with 2^e > d, the part of d on the
      primes of h, so that d/m is prime to m. The part of T on the
      primes of d/m is then Z/(d/m). The part on the primes of m has
      order m, so m kills it, and m is a unit on the rest: that part is
      T (x) Z/m, the cokernel taken modulo m. Hence
      T = Z/(d/m) + (T (x) Z/m), and only T (x) Z/m takes the modular
      step; for m = 1 there is none. Any other residual takes it with
      m = d. On random dense squares h is 1 about half the time and m
      otherwise has a few bits, where d has about 130 at k = 30 (the
      Smith form of a random integer matrix is almost always 1, ..., 1,
      d: Eberly, Giesbrecht and Villard, "On computing the determinant
      and Smith form of an integer matrix", FOCS 2000; Pernet and Stein,
      "Fast computation of HNF of random integer matrices", J. Number
      Theory 130 (2010), certify it with a gcd of (k-1)-minors).
    * Modulo m (_cokernel_mod). Reduced mod m, R is brought to echelon
      form by unimodular row steps, every entry kept in [0, m), so no
      entry ever exceeds m (Domich, Kannan and Trotter, "Hermite normal
      form computation using modulo determinant arithmetic", Math. Oper.
      Res. 12 (1987); Cohen, A Course in Computational Algebraic Number
      Theory, 2.4). A pivot prime to m is a unit of Z/m: it clears its
      column from the other rows and is dropped with its row. The few
      rows and columns left are diagonalized over Z by _diagonalize,
      and each diagonal entry s gives Z/gcd(s, m), each column with no
      diagonal entry Z/m.
    """
    if relations.cols != n_generators:
        raise ValueError("relation matrix must have one column per generator")
    if relations.rows == 1:
        rows, eliminated = [pairs for pairs in relations.nonzero if pairs], 0
    else:
        rows, eliminated = _unit_pivot_residual(relations)
    free = n_generators - eliminated
    if len(rows) <= 1:
        orders = [gcd(*(x for _, x in pairs)) for pairs in rows]
        return FgAbGroup(free - len(rows), tuple(g for g in orders if g > 1))
    cols = sorted({c for pairs in rows for c, _ in pairs})
    dense = [[row.get(c, 0) for c in cols] for row in map(dict, rows)]
    rank, d, h = _rank_and_minor(dense)
    m = gcd(d, pow(h, d.bit_length(), d)) if len(rows) == len(cols) == rank else d
    orders = (_cokernel_mod(dense, m) if m > 1 else []) + [d // m]
    chain = FgAbGroup.from_orders(orders).invariant_factors
    return FgAbGroup(free - rank, chain[: len(chain) - (len(cols) - rank)])


def _rank_and_minor(rows: list) -> tuple:
    """(rank, d, h) of the integer matrix with these rows, all of one
    length: d = |det| of a nonzero rank x rank minor, 1 at rank 0, and h
    the gcd of the entries of the last two live rows, 0 if there never
    are exactly two.

    Fraction-free (Bareiss) elimination with the first nonzero entry of
    each column as pivot: after a pivot step every entry below it is a
    minor of one order more (a quotient by the previous pivot that is
    exact), so entries stay as small as the minors of the matrix. The
    last pivot is the minor on the pivot rows and columns. On a k x k
    matrix of rank k no column lacks a pivot, so two rows of two entries
    are left after k - 2 steps, and each is +-a (k-1) x (k-1) minor.
    """
    live = [row for row in rows if any(row)]  # aligned at the current column
    rank, prev, h = 0, 1, 0
    while live:
        if len(live) == 2:
            h = gcd(*live[0], *live[1])
        piv = next((row for row in live if row[0]), None)
        if piv is None:
            live = [row[1:] for row in live]
            continue
        a, tail = piv[0], piv[1:]
        live = [
            nxt
            for row in live
            if row is not piv
            for nxt in ([(x * a - row[0] * y) // prev for x, y in zip(row[1:], tail)],)
            if any(nxt)
        ]
        rank, prev = rank + 1, a
    return rank, abs(prev), h


def _cokernel_mod(rows: list, d: int) -> list:
    """Orders of cyclic groups whose sum is Z^k / (row span + d Z^k), for
    integer rows of one length k (see group_from_presentation).

    Columns are taken in order; the active rows are those with no pivot
    yet, aligned at the current column. Among them, one pivot row takes
    the column's gcd by 2x2 unimodular steps (ext_gcd), or by one
    quotient step per row when the pivot divides the entry or is a unit
    mod d. A pivot prime to d then clears its column from the kept rows,
    and it and its column are dropped; any other pivot row is kept, and
    so is a column with no pivot. All arithmetic is mod d.
    """
    active = [row for row in ([x % d for x in row] for row in rows) if any(row)]
    kept = []  # (pivot column, row aligned at it)
    kept_cols = []
    for c in range(len(rows[0])):
        unit = next((row for row in active if row[0] and gcd(row[0], d) == 1), None)
        piv = unit or next((row for row in active if row[0]), None)
        inv = None if unit is None else pow(unit[0], -1, d)
        if piv is None:
            kept_cols.append(c)
            active = [row[1:] for row in active]
            continue
        rest, tail = [], piv[1:]
        for row in active:
            if row is piv:
                continue
            a, b = piv[0], row[0]
            if not b:
                nxt = row[1:]
            elif inv is not None or b % a == 0:
                q = b * inv % d if inv is not None else b // a
                nxt = [(x - q * y) % d for x, y in zip(row[1:], tail)]
            else:
                g, x, y = ext_gcd(a, b)
                a, b = a // g, b // g
                nxt = [(a * v - b * u) % d for u, v in zip(tail, row[1:])]
                piv = [(x * u + y * v) % d for u, v in zip(piv, row)]
                tail = piv[1:]
                if gcd(g, d) == 1:
                    inv = pow(g, -1, d)
            if any(nxt):
                rest.append(nxt)
        active = rest
        if inv is None:
            kept.append((c, piv))
            kept_cols.append(c)
            continue
        for start, row in kept:
            q = row[c - start] * inv % d
            if q:
                row[c - start :] = [(x - q * y) % d for x, y in zip(row[c - start :], piv)]
    s = [[row[c - start] if c >= start else 0 for c in kept_cols] for start, row in kept]
    _diagonalize(s, len(s), len(kept_cols))
    diagonal = [s[i][i] for i in range(len(s))]
    return [gcd(x, d) for x in diagonal] + [d] * (len(kept_cols) - len(diagonal))


def _unit_pivot_residual(a: IntMatrix) -> tuple:
    """(rows, eliminated): drop the unit pivots of a that need no fill-in.

    A column whose one nonzero entry is +-1 is dropped with its row: that
    row expresses the column's generator in the others, and no other row
    involves it, so the cokernel of the rows left, on the columns left,
    is that of a. A row with several such columns is dropped once, and
    its other such columns stay as generators in no relation. Returns
    the nonzero rows left, as (column, entry) pairs, and the number of
    rows dropped.
    """
    count = Counter(c for pairs in a.nonzero for c, _ in pairs)
    units = {(c, s) for c, n in count.items() if n == 1 for s in (1, -1)}
    rows = [pairs for pairs in a.nonzero if pairs and units.isdisjoint(pairs)]
    return rows, sum(map(bool, a.nonzero)) - len(rows)


# ---------------------------------------------------------------------------
# maps into Z + Z/N and subgroups thereof


class HomZN(Value):
    """A homomorphism Z^k -> Z + Z/N given by generator images: pairs
    (free part, torsion part), the torsion parts reduced mod N."""

    __slots__ = ("ambient_torsion", "generator_images")

    def __init__(self, ambient_torsion: int, generator_images: tuple):
        if ambient_torsion < 1:
            raise ValueError("modulus must be >= 1")
        reduced = tuple((int(f), int(t) % ambient_torsion) for f, t in generator_images)
        object.__setattr__(self, "ambient_torsion", ambient_torsion)
        object.__setattr__(self, "generator_images", reduced)


def kernel_lattice(hom: HomZN) -> IntMatrix:
    """Hermite basis of the kernel K of a map phi: Z^k -> Z + Z/N.

    Written down column by column, with no general Hermite reduction.
    Lift phi(e_j) to (f_j, t_j) in Z^2; then c is in K exactly when
    sum c_i (f_i, t_i) lies in Z(0, N). Sweep j = k-1 .. 0 and keep the
    lattice L_{j+1} = <(f_i, t_i) for i > j, (0, N)> in Z^2 as a 2x2
    Hermite basis, each basis vector paired with the coefficients over
    the e_i (i > j) that give it modulo (0, N).

    * Pivots. K has a row with leading column j exactly when some
      c_j e_j + (terms beyond j) is in K, that is, when c_j (f_j, t_j) is
      in L_{j+1}. So the pivot d_j is the order of (f_j, t_j) modulo
      L_{j+1}, and column j has no pivot when that order is infinite.
      The row is d_j e_j minus the coefficients of the basis combination
      equal to d_j (f_j, t_j).
    * Special columns. L_j differs from L_{j+1} only when d_j != 1, so
      only at those columns does the basis change and gain a coefficient.
      Every coefficient, and hence every row entry off its own pivot,
      lies in a special column. L grows in rank at most once. Every
      other change divides an index by d_j >= 2: that of L in 0 + Z
      (a divisor of N) while L has rank one, then that of L in Z^2,
      at most N |f| for the free part f that raised the rank. So there
      are O(log N + log |f|) special columns.
    * Runs. Between special columns the basis is fixed, so each column
      there has pivot 1 and the row e_j minus the basis coefficients
      combined as (f_j, t_j) reads off the basis. A run of them (when L
      is Z^2, all the columns left) is built a column at a time over
      the whole run. A special column is a run of one, with pivot d_j.
    * Reduction. Each new row's entries at the later pivots d_i > 1 are
      reduced into [0, d_i) by those rows, in ascending column order;
      at a later pivot d_i = 1 its entry is already 0, as [0, 1) asks.

    A lattice has one Hermite basis (echelon, positive pivots, entries
    above each pivot in [0, pivot)), so the result is the kernel-by-HNF
    basis (Cohen, A Course in Computational Algebraic Number Theory,
    2.4) for every input. The cost is O(k) steps in Z^2 plus the few
    nonzero entries per row, not the cubic cost of reducing k + 1 rows.
    At most two columns, every query's, take _small_kernel's closed form.
    """
    images = hom.generator_images
    if len(images) <= 2:
        return _small_kernel(images, hom.ambient_torsion)
    basis = [(0, hom.ambient_torsion, {})]  # (free, torsion, coefficients)
    special = []  # the special columns beyond the current one, ascending
    reducers = []  # (column, pivot, rest of row) of those with d_j > 1, ascending
    runs = []  # lists of rows, by descending column
    j = len(images) - 1
    while j >= 0:
        f, t = images[j]
        d, combo = _order_mod(f, t, basis)
        lo, xs = _member_run(images, j, basis) if d == 1 else (j, list(zip(combo)))
        if d:
            runs.append(_run_rows(range(lo, j + 1), d, xs, basis, special, reducers))
        if d > 1:
            reducers.insert(0, (j, d, runs[-1][0][1:]))
        if d != 1 and j:  # no column reads L_0
            basis = _hermite2(basis + [(f, t, {j: 1})])
            special.insert(0, j)
        j = lo - 1
    rows = tuple(chain.from_iterable(reversed(runs)))
    return IntMatrix(len(rows), len(images), rows)


def _small_kernel(images, n: int) -> IntMatrix:
    """kernel_lattice of k <= 2 images (f_i, t_i) mod n in closed form. If
    some f_i != 0, K = Z m v (0 at k = 1) for v = (f_2, -f_1)/gcd(f_1, f_2),
    first nonzero entry positive, and m the order of v_1 t_1 + v_2 t_2. Else
    its rows are (a, b), (0, c): c = n/h is the order of t_2, h = gcd(t_2, n),
    a = h/gcd(t_1, h) is the least a > 0 with a t_1 in <t_2>, and
    b = -(a t_1/h)(t_2/h)^-1 mod c in [0, c), so 0 and no entry at c = 1."""
    if not images:
        return IntMatrix(0, 0, ())
    f1, t1 = images[0]
    if len(images) == 1:
        return IntMatrix(0, 1, ()) if f1 else IntMatrix(1, 1, (((0, n // gcd(t1, n)),),))
    f2, t2 = images[1]
    if f1 or f2:
        g = gcd(f1, f2) if f2 > 0 or not f2 and f1 < 0 else -gcd(f1, f2)
        v1, v2 = f2 // g, -f1 // g
        m = n // gcd(n, v1 * t1 + v2 * t2)
        return IntMatrix(1, 2, (tuple(compress(((0, m * v1), (1, m * v2)), (v1, v2))),))
    h = gcd(t2, n)
    c, a = n // h, h // gcd(t1, h)
    b = -(a * t1 // h) * pow(t2 // h, -1, c) % c
    return IntMatrix(2, 2, (((0, a), (1, b)) if b else ((0, a),), ((1, c),)))


def _member_run(images, j: int, basis: list) -> tuple:
    """(lo, xs) for an image j in the lattice of the Hermite basis: the
    least lo with images lo .. j all in it, and xs[i][n] the coefficient
    of basis[i] in image lo + n."""
    back = zip(range(j - 1, -1, -1), islice(reversed(images), len(images) - j, None))
    if len(basis) == 1:
        h = basis[0][1]
        lo = 1 + next((i for i, (f, t) in back if f or t % h), -1)
        return lo, [[t // h for _, t in images[lo : j + 1]]]
    (a, b, _), (_, h, _) = basis
    lo = 0 if a == h == 1 else 1 + next((i for i, (f, t) in back if f % a or (t - f // a * b) % h), -1)
    x0 = [f // a for f, _ in images[lo : j + 1]]
    return lo, [x0, [(t - x * b) // h for x, (_, t) in zip(x0, images[lo : j + 1])]]


def _run_rows(columns, d: int, xs: list, basis: list, special: list, reducers: list) -> list:
    """The rows d e_j - sum_i xs[i][n] (coefficients of basis[i]) for the
    n-th of the columns j, reduced by the reducers, as (column, entry)
    pairs: one list per special column, one quotient pass per reducer."""
    if len(basis) == 1:  # pad it with a zero vector with no coefficients
        xs, basis = xs * 2, [(0, 0, {})] + basis
    (x0, x1), ((_, _, c0), (_, _, c1)) = xs, basis
    cols = {}
    for s in special:
        m0, m1 = c0.get(s, 0), c1.get(s, 0)
        cols[s] = [-m0 * x - m1 * y for x, y in zip(x0, x1)]
    for c, p, rest in reducers:
        q = [v // p for v in cols[c]]
        if any(q):
            cols[c] = [v % p for v in cols[c]]
            for s, e in rest:
                cols[s] = [v - e * y for v, y in zip(cols[s], q)]
    values = zip(*cols.values()) if cols else repeat(())
    return [((j, d), *compress(zip(special, v), v)) for j, v in zip(columns, values)]


def _order_mod(f: int, t: int, basis: list):
    """(d, combo): the least d > 0 with d (f, t) in the lattice of the
    Hermite basis, and combo with d (f, t) = sum combo_i basis_i;
    (0, ()) when (f, t) has infinite order modulo it. Only b[0] and b[1]
    are read. d == 1 is membership, as SubgroupInfo.contains uses it."""
    if f and not basis[0][0]:
        return 0, ()
    d, w, combo = 1, (f, t), []
    for b in basis:
        col = 0 if b[0] else 1
        m = b[col] // gcd(w[col], b[col])
        q = m * w[col] // b[col]
        d *= m
        w = (m * w[0] - q * b[0], m * w[1] - q * b[1])
        combo = [m * x for x in combo] + [q]
    return d, combo


def _hermite2(vectors: list) -> list:
    """Hermite basis of the lattice in Z^2 spanned by (free, torsion,
    coefficients) vectors, by unimodular 2x2 steps, so each basis vector
    keeps the coefficients that give it."""
    basis = []
    for col in (0, 1):
        live = [v for v in vectors if v[col]]
        vectors = [v for v in vectors if not v[col]]
        if not live:
            continue
        piv = live[0]
        for v in live[1:]:
            g, x, y = ext_gcd(piv[col], v[col])
            a, b = piv[col] // g, v[col] // g
            piv, zero = _combine(x, piv, y, v), _combine(b, piv, -a, v)
            vectors.append(zero)
        basis.append(_combine(-1, piv, 0, piv) if piv[col] < 0 else piv)
    if len(basis) == 2:
        basis[0] = _combine(1, basis[0], -(basis[0][1] // basis[1][1]), basis[1])
    return basis


def _combine(p: int, v: tuple, q: int, w: tuple) -> tuple:
    """p v + q w for (free, torsion, coefficients) vectors."""
    coeffs = {c: p * x for c, x in v[2].items()}
    for c, x in w[2].items():
        coeffs[c] = coeffs.get(c, 0) + q * x
    return (p * v[0] + q * w[0], p * v[1] + q * w[1], coeffs)


def ext_gcd(a: int, b: int):
    """(g, x, y) with g = a*x + b*y, g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class SubgroupInfo(Value):
    """A subgroup of Z + Z/N: structure, index (None when infinite), and
    a membership basis.

    The basis is the Hermite form of the lift of the subgroup to Z^2
    (it always contains (0, N)), so an element is a member exactly when
    its order modulo that 2x2 basis is 1 (_order_mod).
    """

    __slots__ = ("ambient_torsion", "group", "index", "basis")

    def contains(self, element) -> bool:
        free, tors = element
        return _order_mod(free, tors % self.ambient_torsion, self.basis.to_rows())[0] == 1


def subgroup_info(ambient_torsion: int, generators: Iterable) -> SubgroupInfo:
    """Structure of the subgroup of Z + Z/N generated by the given elements.

    The Hermite basis of its lift L = <generators, (0, N)> to Z^2 comes
    from one gcd chain over the free parts. Each step replaces the pivot
    (f0, t0) and a generator (f, t) by the unimodular pair
    (x, y; f/g, -f0/g) of ext_gcd(f0, f) = (g, x, y): a new pivot with
    free part g and an eliminated vector (0, t'). When f0 divides f the
    step is one quotient, (f, t) - (f/f0)(f0, t0), and keeps the pivot.
    So L is spanned by the pivot and by vectors (0, t): the eliminated
    ones, the generators with free part 0, and (0, N). Their gcd h gives
    L meet (0 + Z) = Z(0, h), and the basis is (f0, t0 mod h), (0, h),
    or (0, h) alone when every free part is 0 (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4).
    """
    if ambient_torsion < 1:
        raise ValueError("modulus must be >= 1")
    n = h = ambient_torsion
    f0 = t0 = 0
    for f, t in generators:
        if not f:
            h = gcd(h, t)
        elif not f0:
            f0, t0 = f, t % n
        elif not f % f0:
            h = gcd(h, t - f // f0 * t0)
        else:
            g, x, y = ext_gcd(f0, f)
            h = gcd(h, f // g * t0 - f0 // g * t)
            f0, t0 = g, (x * t0 + y * t) % n
    # (0, N) is N/h times the last basis row (0, h), a basis vector
    g = n // h
    group = FgAbGroup(1 if f0 else 0, (g,) if g > 1 else ())
    if not f0:
        return SubgroupInfo(n, group, None, IntMatrix(1, 2, (((1, h),),)))
    if f0 < 0:
        f0, t0 = -f0, -t0
    t0 %= h
    top = ((0, f0), (1, t0)) if t0 else ((0, f0),)
    return SubgroupInfo(n, group, f0 * h, IntMatrix(2, 2, (top, ((1, h),))))


def element_order(modulus: int, t: int) -> int:
    """Order of t in Z/modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return modulus // gcd(modulus, t % modulus)
