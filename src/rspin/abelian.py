"""Exact linear algebra over the integers.

Normal forms (Smith, Hermite), integer kernels, and the canonical
structure of finitely generated abelian groups.  Everything here uses
Python's arbitrary-precision integers; there is no floating point and
no overflow.  All values are immutable and all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), cols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        flat = []
        for i in range(self.rows):
            r = self.row(i)
            for j in range(other.cols):
                flat.append(sum(r[k] * other.at(k, j) for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(flat))

    def det(self) -> int:
        """Exact determinant via fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
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

    def diagonal(self) -> tuple:
        return tuple(self.at(i, i) for i in range(min(self.rows, self.cols)))


# ---------------------------------------------------------------------------
# Smith normal form


@dataclass(frozen=True)
class SmithForm:
    """U @ A @ V == S with U, V unimodular and S diagonal, d_i | d_{i+1}."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix


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

    Pivoting always selects the nonzero entry of minimal absolute value,
    earliest position on ties, so the witnesses U and V are deterministic.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def row_op(i, j, q):  # row_i -= q * row_j
        s[i] = [x - q * y for x, y in zip(s[i], s[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    t = 0
    while t < min(m, n):
        piv = _find_pivot(s, t, m, n)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
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
                swap_rows(t, i)
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
            u[t] = [x + y for x, y in zip(u[t], u[bad[0]])]
        t += 1

    return SmithForm(
        IntMatrix.from_rows(s, cols=n),
        IntMatrix.from_rows(u, cols=m),
        IntMatrix.from_rows(v, cols=n),
    )


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


@dataclass(frozen=True)
class FgAbGroup:
    """Canonical form: two values are equal iff the groups are isomorphic."""

    free_rank: int
    invariant_factors: tuple = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def trivial(cls) -> "FgAbGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgAbGroup":
        return cls(rank, ())

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

    def direct_sum(self, other: "FgAbGroup") -> "FgAbGroup":
        return FgAbGroup.from_orders(
            list(self.invariant_factors) + list(other.invariant_factors),
            self.free_rank + other.free_rank,
        )

    def order(self) -> Optional[int]:
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
    """Cokernel of the relation matrix (rows are relations) in canonical form."""
    if relations.cols != n_generators:
        raise ValueError("relation matrix must have one column per generator")
    diag = smith_normal_form(relations).s.diagonal()
    nonzero = [d for d in diag if d]
    return FgAbGroup(n_generators - len(nonzero), tuple(d for d in nonzero if d > 1))


# ---------------------------------------------------------------------------
# maps into Z + Z/N and subgroups thereof


@dataclass(frozen=True)
class HomZN:
    """A homomorphism Z^k -> Z + Z/N given by generator images."""

    ambient_torsion: int
    generator_images: tuple  # pairs (free part, torsion part mod N)

    def __post_init__(self):
        if self.ambient_torsion < 1:
            raise ValueError("modulus must be >= 1")
        n = self.ambient_torsion
        reduced = tuple((int(f), int(t) % n) for f, t in self.generator_images)
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
    * Reduction. Each new row's entries at the later pivots d_i > 1 are
      reduced into [0, d_i) by those rows, in ascending column order;
      at a later pivot d_i = 1 its entry is already 0, as [0, 1) asks.

    A lattice has one Hermite basis (echelon, positive pivots, entries
    above each pivot in [0, pivot)), so the result is the kernel-by-HNF
    basis (Cohen, A Course in Computational Algebraic Number Theory,
    2.4) for every input. The cost is O(k) steps in Z^2 plus the few
    nonzero entries per row, not the cubic cost of reducing k + 1 rows.
    """
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
        if d != 1:
            basis = _hermite2(basis + [(f, t, {j: 1})])
            if d:
                reducers.append(j)
    flat = []
    for j in sorted(rows):
        dense = [0] * k
        for c, x in rows[j].items():
            dense[c] = x
        flat.extend(dense)
    return IntMatrix(len(rows), k, tuple(flat))


def _axpy(acc: dict, a: int, x: dict) -> None:
    """acc += a * x for sparse vectors, dropping zero entries."""
    for c, v in x.items():
        s = acc.get(c, 0) + a * v
        if s:
            acc[c] = s
        else:
            acc.pop(c, None)


def _order_mod(f: int, t: int, basis: list):
    """(d, combo): the least d > 0 with d (f, t) in the lattice of the
    Hermite basis, and combo with d (f, t) = sum combo_i basis_i;
    (0, None) when (f, t) has infinite order modulo it. Only b[0] and b[1]
    are read. d == 1 is membership, as SubgroupInfo.contains uses it."""
    if f and not basis[0][0]:
        return 0, None
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
    coeffs = {}
    _axpy(coeffs, p, v[2])
    _axpy(coeffs, q, w[2])
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


@dataclass(frozen=True)
class SubgroupInfo:
    """A subgroup of Z + Z/N: structure, index, and a membership basis.

    The basis is the Hermite form of the lift of the subgroup to Z^2
    (it always contains (0, N)), so an element is a member exactly when
    its order modulo that 2x2 basis is 1 (_order_mod).
    """

    ambient_torsion: int
    group: FgAbGroup
    index: Optional[int]  # None means infinite index
    basis: IntMatrix

    def contains(self, element) -> bool:
        free, tors = element
        return _order_mod(free, tors % self.ambient_torsion, self.basis.to_rows())[0] == 1


def subgroup_info(ambient_torsion: int, generators: Iterable) -> SubgroupInfo:
    """Structure of the subgroup of Z + Z/N generated by the given elements."""
    if ambient_torsion < 1:
        raise ValueError("modulus must be >= 1")
    n = ambient_torsion
    rows = [(int(f), int(t) % n) for f, t in generators]
    rows.append((0, n))
    basis = hermite_normal_form(rows, 2)
    # (0, N) is N/h times the last basis row (0, h), a basis vector
    g = n // basis.at(basis.rows - 1, 1)
    group = FgAbGroup(basis.rows - 1, (g,) if g > 1 else ())
    if basis.rows == 2:
        index = basis.at(0, 0) * basis.at(1, 1)
    else:
        index = None
    return SubgroupInfo(n, group, index, basis)


def element_order(modulus: int, t: int) -> int:
    """Order of t in Z/modulus."""
    if modulus < 1:
        raise ValueError("modulus must be >= 1")
    return modulus // gcd(modulus, t % modulus)
