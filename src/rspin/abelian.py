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
    """Nonzero entry of minimal |value| in s[t:, t:], earliest wins ties."""
    best = None
    for i in range(t, m):
        for j in range(t, n):
            x = s[i][j]
            if x and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                best = (i, j)
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
            bad = next(
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
    above each pivot reduced into [0, pivot)."""
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


def solve_in_lattice(basis: IntMatrix, target: Sequence[int]) -> Optional[list]:
    """Coefficients c with c @ basis == target, or None if target is not
    in the row lattice.  basis must be in Hermite form."""
    v = list(map(int, target))
    if len(v) != basis.cols:
        raise ValueError("dimension mismatch")
    coeffs = []
    for i in range(basis.rows):
        row = basis.row(i)
        pc = next(j for j, x in enumerate(row) if x)
        if v[pc] % row[pc]:
            return None
        q = v[pc] // row[pc]
        v = [x - q * y for x, y in zip(v, row)]
        coeffs.append(q)
    if any(v):
        return None
    return coeffs


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
    """Hermite basis of the kernel of a map Z^k -> Z + Z/N.

    One Hermite reduction of the rows [f_i, t_i | e_i] and [0, N | 0]
    (the kernel-by-HNF construction, Cohen, A Course in Computational
    Algebraic Number Theory, 2.4): the rows that vanish on the first two
    columns, with those columns dropped, are a basis of the kernel and
    are already in Hermite form.
    """
    k = len(hom.generator_images)
    rows = [[f, t] + [int(i == j) for j in range(k)] for i, (f, t) in enumerate(hom.generator_images)]
    rows.append([0, hom.ambient_torsion] + [0] * k)
    h = hermite_normal_form(rows, k + 2)
    return IntMatrix.from_rows([h.row(i)[2:] for i in range(h.rows) if not any(h.row(i)[:2])], cols=k)


@dataclass(frozen=True)
class SubgroupInfo:
    """A subgroup of Z + Z/N: structure, index, and a membership basis.

    The basis is the Hermite form of the lift of the subgroup to Z^2
    (it always contains (0, N)), so membership is a triangular solve.
    """

    ambient_torsion: int
    group: FgAbGroup
    index: Optional[int]  # None means infinite index
    basis: IntMatrix

    def contains(self, element) -> bool:
        free, tors = element
        return solve_in_lattice(self.basis, (free, tors % self.ambient_torsion)) is not None


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
