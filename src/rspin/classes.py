"""The class lattice of the second integral cohomology of r-Spin moduli.

Named characteristic classes (fractional Hodge classes, fractional
kappa-one classes, and mu in the even case), their coordinates in the
canonical splitting Z + Z/N, the mod-24 detection homomorphism, torsion
generators, and generator/relation presentations.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from . import errors
from .abelian import (
    FgAbGroup,
    HomZN,
    SubgroupInfo,
    Value,
    element_order,
    group_from_presentation,
    kernel_lattice,
    subgroup_info,
)

# symbol kinds, in deterministic print/sort order
LAMBDA = "lambda"
KAPPA1 = "kappa1"
MU_KIND = "mu"
_KIND_RANK = {LAMBDA: 0, KAPPA1: 1, MU_KIND: 2}


class ClassSymbol(Value):
    """One named class: lambda(a/r), kappa1(a/r), or mu. power is the
    tensor-power numerator a, unused (0) for mu."""

    __slots__ = ("kind", "power")

    def __init__(self, kind: str, power: int = 0):
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "power", power)

    # by hand: every FormalClass sum hashes its symbols
    def __eq__(self, other):
        if other.__class__ is ClassSymbol:
            return self.kind == other.kind and self.power == other.power
        return NotImplemented

    def __hash__(self):
        return hash((self.kind, self.power))

    def sort_key(self):
        return (_KIND_RANK[self.kind], self.power)


def Lambda(a: int) -> ClassSymbol:
    return ClassSymbol(LAMBDA, a)


def Kappa1(a: int) -> ClassSymbol:
    return ClassSymbol(KAPPA1, a)


MU = ClassSymbol(MU_KIND, 0)


class FormalClass(Value):
    """Integer linear combination of class symbols, normalized support:
    terms are pairs (ClassSymbol, nonzero coefficient) in sort_key order."""

    __slots__ = ("terms",)

    def __init__(self, terms: tuple = ()):
        object.__setattr__(self, "terms", terms)

    def __eq__(self, other):
        if other.__class__ is FormalClass:
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(self.terms)

    @classmethod
    def of(cls, pairs) -> "FormalClass":
        acc = {}
        for sym, c in pairs:
            acc[sym] = acc.get(sym, 0) + int(c)
        return cls(tuple(sorted(((s, c) for s, c in acc.items() if c), key=lambda p: p[0].sort_key())))

    @classmethod
    def single(cls, sym: ClassSymbol, coeff: int = 1) -> "FormalClass":
        return cls(((sym, coeff),) if coeff else ())

    def __add__(self, other: "FormalClass") -> "FormalClass":
        return FormalClass.of(list(self.terms) + list(other.terms))

    def __neg__(self) -> "FormalClass":
        return FormalClass(tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: "FormalClass") -> "FormalClass":
        return self + (-other)

    def __rmul__(self, k: int) -> "FormalClass":
        if k == 0:
            return FormalClass()
        return FormalClass(tuple((s, k * c) for s, c in self.terms))


# ---------------------------------------------------------------------------
# rendering (inverse of the expression parser in rspin.expr)


def decimal_str(n: int) -> str:
    """str(n), also when n has more digits than the interpreter's int/str
    limit allows: Decimal converts an int exactly and is not held to it."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # only a number past the limit needs it

        return str(Decimal(n))


def render_symbol(sym: ClassSymbol, r: int) -> str:
    if sym.kind == MU_KIND:
        return "mu"
    if sym.power == r:
        return sym.kind
    return f"{sym.kind}({sym.power}/{r})"


def render_class(x: FormalClass, r: int) -> str:
    return _signed_sum((c, render_symbol(sym, r)) for sym, c in x.terms)


def _signed_sum(pairs) -> str:
    """'c1*n1 + c2*n2 - ...' over the (coefficient, name) pairs with a
    nonzero coefficient, unit coefficients dropped; '0' when there is none."""
    parts = []
    for c, name in pairs:
        if not c:
            continue
        body = name if abs(c) == 1 else f"{decimal_str(abs(c))}*{name}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# context


def torsion_order_of(r: int) -> int:
    """Order N of the (cyclic) torsion of the stable H^2: 4, 8 or 1 by
    r mod 4 (r = 2, 0, odd), times 3 when 3 divides r."""
    t2 = 4 if r % 4 == 2 else 8 if r % 4 == 0 else 1
    t3 = 3 if r % 3 == 0 else 1
    return t2 * t3


def u_r(r: int) -> int:
    """The divisibility constant 2, 4, 6 or 12, read off N = torsion_order_of(r):
    at every residue of r mod 12, u * N is 12 for odd r and 48 for even r."""
    if r < 2:
        raise ValueError("r must be >= 2")
    return (12 if r % 2 else 48) // torsion_order_of(r)


class ModuliContext(Value):
    """The parameters (r, g, eps) of one moduli space.

    eps is the Arf invariant and must be supplied exactly when r is even.
    allow_unstable disables the genus guards; results below the stable
    range are unverified. It takes no part in equality or hashing.
    chi = 2 - 2g, u = u_r(r) and the torsion order N of the stable H^2
    are stored once here, and left out of equality, hashing and repr.
    """

    __slots__ = ("r", "g", "eps", "allow_unstable", "chi", "u", "torsion_order")

    H1_STABLE_GENUS = 6
    H2_STABLE_GENUS = 9

    def __init__(self, r: int, g: int, eps: int | None = None, allow_unstable: bool = False):
        if r < 2:
            raise ValueError("r must be >= 2")
        if g < 2:
            raise ValueError("g must be >= 2")
        if r % 2 == 0:
            if eps not in (0, 1):
                raise errors.EpsParityError(f"r = {r} is even: eps must be 0 or 1")
        elif eps is not None:
            raise errors.EpsParityError(f"r = {r} is odd: eps must be omitted")
        Value.__init__(self, r, g, eps, allow_unstable, 2 - 2 * g, u_r(r), torsion_order_of(r))

    def _key(self) -> tuple:
        return (self.r, self.g, self.eps)

    def __repr__(self):
        return f"ModuliContext(r={self.r!r}, g={self.g!r}, eps={self.eps!r}, allow_unstable={self.allow_unstable!r})"

    @property
    def nonempty(self) -> bool:
        return self.chi % self.r == 0

    @property
    def in_h2_range(self) -> bool:
        return self.g >= self.H2_STABLE_GENUS

    def require_nonempty(self):
        if not self.nonempty:
            raise errors.EmptyModuliError(
                f"no {self.r}-Spin structures in genus {self.g}: {self.r} does not divide {decimal_str(self.chi)}"
            )

    def require_mu(self):
        if self.r % 2:
            raise errors.MuUndefinedError(f"mu is not defined for odd r = {self.r}")

    def require_h2_range(self):
        if not (self.in_h2_range or self.allow_unstable):
            raise errors.StableRangeError(
                f"g = {self.g} is below the stable range g >= {self.H2_STABLE_GENUS} for H^2"
            )

    def require_h1_range(self):
        if not (self.g >= self.H1_STABLE_GENUS or self.allow_unstable):
            raise errors.StableRangeError(
                f"g = {self.g} is below the stable range g >= {self.H1_STABLE_GENUS} for H_1"
            )


def stable_genus(r: int) -> int:
    """Smallest g >= ModuliContext.H2_STABLE_GENUS with nonempty moduli."""
    if r < 2:
        raise ValueError("r must be >= 2")
    # r divides 2 - 2g exactly when step divides g - 1
    step = r if r % 2 else r // 2
    g0 = ModuliContext.H2_STABLE_GENUS
    return g0 + (1 - g0) % step


# ---------------------------------------------------------------------------
# coordinates


def symbol_record(ctx: ModuliContext, sym: ClassSymbol, arf: int | None = None) -> tuple:
    """(free coordinate, phi, fiber weight) of one named class: the rules
    that give each generator its numbers, side by side.

        class         free coordinate          degree   phi in Z/24   fiber weight
        lambda(a/r)   u(r^2 - 6ar + 6a^2)/12   (2, 2)   2             0
        kappa1(a/r)   u a^2                    (0, 2)   0             2a^2 chi/r
        mu            -u r^2/48                (2, 0)   1             arf r/2

    u = u_r(r) and chi = 2 - 2g are read from the context, which computes
    them once; arf defaults to eps, and mu needs even r.
    u depends only on r mod 12, so on each class r = 12k + c the free
    coordinate has the stated degree in (k, a); tests/test_closed_form_proofs.py
    proves it an integer for every r and a, so the divisions are exact.
    The fiber weight is the beta-multiple a class restricts to on the
    gerbe's fiber (rspin.twists). That column does not vanish on the
    relations between the named classes; ROADMAP item 0 replaces it.
    """
    u, r, a = ctx.u, ctx.r, sym.power
    if sym.kind == LAMBDA:
        return u * (r * r - 6 * a * r + 6 * a * a) // 12, 2, 0
    if sym.kind == KAPPA1:
        return u * a * a, 0, 2 * a * a * (ctx.chi // r)
    ctx.require_mu()
    return -(u * r * r // 48), 1, (ctx.eps if arf is None else arf) * (r // 2)


def _free_and_phi(ctx: ModuliContext, x: FormalClass) -> tuple:
    """The free and phi columns of the records of x's terms, summed with
    x's coefficients (phi not yet reduced mod 24), range unchecked."""
    d = phi = 0
    for s, c in x.terms:
        v, p, _ = symbol_record(ctx, s)
        d, phi = d + c * v, phi + c * p
    return d, phi


def free_coordinate(ctx: ModuliContext, x: FormalClass) -> int:
    """Image of x in the rank-one torsion-free quotient, as a multiple of
    the fixed positive generator."""
    ctx.require_h2_range()
    return _free_and_phi(ctx, x)[0]


def phi_value(ctx: ModuliContext, x: FormalClass) -> int:
    """The detection homomorphism into Z/24 (injective on torsion)."""
    ctx.require_h2_range()
    return _free_and_phi(ctx, x)[1] % 24


def rational_multiple_of_lambda(ctx: ModuliContext, x: FormalClass) -> Fraction:
    """The rational q with x = q * lambda in rational cohomology: the
    ratio d(x)/d(lambda) of free coordinates, as torsion is rationally 0.
    fractions is imported here, as only eval asks for q."""
    from fractions import Fraction

    return Fraction(free_coordinate(ctx, x), free_coordinate(ctx, FormalClass.single(Lambda(ctx.r))))


def default_symbols(r: int) -> list:
    """The deterministic generator list lambda(0/r)..lambda(r/r),
    kappa1(1/r), and mu when defined."""
    syms = [Lambda(a) for a in range(r + 1)]
    syms.append(Kappa1(1))
    if r % 2 == 0:
        syms.append(MU)
    return syms


# (x, y, delta) of generator_lift at r mod 12 = 0, 1, ..., 11
_LIFT_ROWS = ((3, 3, 0), (1, 0, 0), (0, 0, -1), (0, 3, 0), (0, -1, 0), (1, 0, 0),
              (3, 2, 1), (1, 0, 0), (1, 1, 0), (0, 3, 0), (0, 0, -1), (1, 0, 0))


def generator_lift(ctx: ModuliContext) -> FormalClass:
    """The fixed integral class L with free coordinate +1 that splits H^2
    as Z + Z/N: one row (x, y, delta) per residue c = r mod 12 gives

        L = x lambda + y lambda(1/r) + delta mu + gamma kappa1(1/r),
        gamma = (1 - x d(lambda) - y d(lambda(1/r)) - delta d(mu)) / u,

    where d is the free coordinate, and phi(L) = 2x + 2y + delta = P[c]:

        c             (x, y, delta)   P[c]
        1, 5, 7, 11   (1, 0, 0)       2
        2, 10         (0, 0, -1)      23
        4             (0, -1, 0)      22
        3, 9          (0, 3, 0)       6
        8             (1, 1, 0)       4
        0             (3, 3, 0)       12
        6             (3, 2, 1)       11

    So eval's tau of a class x is (phi(x) - d(x) P[r mod 12]) mod 24.
    tests/test_closed_form_proofs.py proves gamma an integer for every r;
    a remainder is an internal error.
    """
    ctx.require_h2_range()
    x, y, delta = _LIFT_ROWS[ctx.r % 12]
    # in sort_key order, kappa1(1/r) to go before mu; mu only at even r
    terms = [(s, c) for s, c in ((Lambda(1), y), (Lambda(ctx.r), x), (MU, delta)) if c]
    gamma, rem = divmod(1 - sum(c * symbol_record(ctx, s)[0] for s, c in terms), ctx.u)
    if rem:
        raise errors.InternalConsistencyError(f"the generator lift at r = {ctx.r} is not integral")
    if gamma:
        terms.insert(len(terms) - bool(delta), (Kappa1(1), gamma))
    return FormalClass(tuple(terms))


class CanonicalCoords(Value):
    """The pair deciding equality in H^2: free coordinate d and the
    phi-value tau in Z/24 of the torsion part (a multiple of 24/N)."""

    __slots__ = ("d", "tau", "torsion_order")


def canonical_coords(ctx: ModuliContext, x: FormalClass) -> CanonicalCoords:
    ctx.require_nonempty()
    ctx.require_h2_range()
    return CanonicalCoords(*_coords(ctx, x, phi_value(ctx, generator_lift(ctx))), ctx.torsion_order)


def _coords(ctx: ModuliContext, x: FormalClass, lift_phi: int) -> tuple:
    """(d, tau) of canonical_coords as ints, given phi of the generator
    lift, which callers mapping many classes compute once. Callers check
    the context."""
    d, phi = _free_and_phi(ctx, x)
    tau = (phi - d * lift_phi) % 24
    if tau % (24 // ctx.torsion_order):
        raise errors.InternalConsistencyError(
            f"torsion part of a class maps to {tau} in Z/24, outside the order-{ctx.torsion_order} subgroup"
        )
    return d, tau


def equals(ctx: ModuliContext, x: FormalClass, y: FormalClass) -> bool:
    """Equality in H^2 (valid because the named classes generate and the
    detection map is injective on torsion), both mapped by one lift."""
    cx, cy = coords_hom(ctx, (x, y)).generator_images
    return cx == cy


# ---------------------------------------------------------------------------
# torsion classes


def _lam(r: int, a: int) -> ClassSymbol:
    # lambda(0/r) equals lambda in H^2; normalize to the bare symbol
    return Lambda(r if a == 0 else a)


def _torsion_pair(ctx: ModuliContext, s: ClassSymbol, t: ClassSymbol) -> FormalClass:
    """The primitive combination (w/g) s - (v/g) t, where v and w are the
    free coordinates of s and t and g = gcd(v, w); its free coordinate is
    (w/g) v - (v/g) w = 0.

    g > 0 for every pair of named classes: kappa1(1/r) and mu have free
    coordinates u and -ur^2/48, and lambda(a/r) has u(r^2 - 6ar + 6a^2)/12,
    whose roots a = r(3 +- sqrt 3)/6 are irrational for r >= 2.
    """
    v, w = symbol_record(ctx, s)[0], symbol_record(ctx, t)[0]
    # after the records, so mu at odd r still raises MuUndefinedError first
    ctx.require_h2_range()
    g = gcd(v, w)
    pair = ((s, w // g), (t, -(v // g)))
    if s == t:  # the terms cancel, and FormalClass.of gives the zero class
        return FormalClass.of(pair)
    return FormalClass(pair if s.sort_key() < t.sort_key() else pair[::-1])


def lambda_difference_torsion(ctx: ModuliContext, a: int, b: int) -> FormalClass:
    """Torsion class built from two fractional Hodge classes."""
    return _torsion_pair(ctx, _lam(ctx.r, a), _lam(ctx.r, b))


def lambda_kappa_torsion(ctx: ModuliContext, a: int) -> FormalClass:
    """Torsion class built from a fractional Hodge class and kappa1(1/r)."""
    return _torsion_pair(ctx, _lam(ctx.r, a), Kappa1(1))


def mu_kappa_torsion(ctx: ModuliContext) -> FormalClass:
    """Torsion class built from mu and kappa1(1/r); r even only."""
    return _torsion_pair(ctx, MU, Kappa1(1))


def torsion_generator(ctx: ModuliContext) -> FormalClass:
    """A generator of the torsion subgroup (cyclic of order N)."""
    ctx.require_h2_range()
    n = ctx.torsion_order
    if n == 1:
        raise errors.TrivialTorsionError(f"the torsion subgroup is trivial for r = {ctx.r}")
    if ctx.r % 2:
        gen = lambda_kappa_torsion(ctx, 1)
    elif ctx.r % 4 == 2:
        gen = lambda_kappa_torsion(ctx, 0)
    else:
        gen = mu_kappa_torsion(ctx)
    order = element_order(24, phi_value(ctx, gen))
    if order != n:
        raise errors.InternalConsistencyError(
            f"torsion generator for r = {ctx.r} has phi-order {order}, expected {n}"
        )
    return gen


# ---------------------------------------------------------------------------
# presentations


class Presentation(Value):
    """Ordered generators (FormalClass values) plus an integer relation
    matrix (one relation per row), relations in Hermite normal form."""

    __slots__ = ("generators", "relations")

    def group(self) -> FgAbGroup:
        return group_from_presentation(len(self.generators), self.relations)

    def render(self, r: int) -> str:
        return render_presentation([render_class(g, r) for g in self.generators], self.relations.to_rows())


def render_presentation(names: Sequence[str], rows: Sequence[Sequence[int]]) -> str:
    """'<generators | relations>' from rendered generator names and relation rows."""
    return f"<{', '.join(names)} | {'; '.join(render_relation(row, names) for row in rows)}>"


def render_relation(row: Sequence[int], names: Sequence[str]) -> str:
    """Render a relation row, factoring out the content as the papers do."""
    content = gcd(*row)
    inner = [c // content for c in row] if content > 1 else list(row)
    wrapped = [f"({name})" if ("*" in name or " " in name) else name for name in names]
    combo = _signed_sum(zip(inner, wrapped))
    return f"{content}({combo})" if content > 1 else combo


def coords_hom(ctx: ModuliContext, gens: Sequence[FormalClass]) -> HomZN:
    """The map Z^k -> Z + Z/N taking each class to (d, tau / (24/N))."""
    ctx.require_nonempty()
    ctx.require_h2_range()
    lift_phi = phi_value(ctx, generator_lift(ctx))
    unit = 24 // ctx.torsion_order
    coords = [_coords(ctx, x, lift_phi) for x in gens]
    return HomZN(ctx.torsion_order, tuple((d, tau // unit) for d, tau in coords))


def presentation(ctx: ModuliContext, generators: Sequence[FormalClass]) -> Presentation:
    """Relations between classes that generate all of H^2."""
    gens = tuple(generators)
    hom = coords_hom(ctx, gens)
    # index 1: the group is all of H^2, Z + Z/N
    return kernel_presentation(gens, hom, require_generating(ctx, hom).group)


def require_generating(ctx: ModuliContext, hom: HomZN) -> SubgroupInfo:
    """The subgroup of H^2 that the classes with coordinate map hom
    generate; NonGeneratingError unless it is all of H^2."""
    info = subgroup_info(ctx.torsion_order, hom.generator_images)
    if info.index != 1:
        idx = "infinite" if info.index is None else info.index
        raise errors.NonGeneratingError(
            f"classes only generate a subgroup of index {idx} in H^2", index=info.index
        )
    return info


def kernel_presentation(gens: tuple, hom: HomZN, group: FgAbGroup) -> Presentation:
    """The classes gens, related by the kernel of their coordinate map
    hom. The Smith cokernel of the relations must be group, the subgroup
    gens generate as subgroup_info computes it from hom."""
    pres = Presentation(gens, kernel_lattice(hom))
    if (got := pres.group()) != group:
        raise errors.InternalConsistencyError(f"presentation cokernel {got} does not match {group}")
    return pres


def default_presentation(ctx: ModuliContext) -> Presentation:
    """The presentation of H^2 on the fixed generating pair (see
    default_generators)."""
    gens, hom, info = _fixed_pair(ctx)
    return kernel_presentation(gens, hom, info.group)


def default_generators(ctx: ModuliContext) -> tuple:
    """The fixed generating pair of H^2 for the residue of r:
    (lambda, lambda(1/r)) for r odd, (lambda(2/r), mu) for r = 2 mod 4,
    and (mu, lambda(1/r)) for r = 0 mod 4, checked by _fixed_pair.
    """
    return _fixed_pair(ctx)[0]


def _fixed_pair(ctx: ModuliContext) -> tuple:
    """(gens, hom, info) for the fixed pair, its coordinate map and the
    subgroup it generates, checked to be all of H^2. default_generators,
    default_presentation and twists.h2_theta_subgroup share it.

    Each pair has coprime free coordinates, and its phi-determinant
    d1*phi2 - d2*phi1 is 24/N times a unit mod N, so it generates. One
    index test checks this; a pair that fails is an internal error.
    """
    r = ctx.r
    if r % 2:
        syms = (Lambda(r), Lambda(1))
    elif r % 4 == 2:
        syms = (Lambda(2), MU)
    else:
        syms = (MU, Lambda(1))
    gens = tuple(FormalClass.single(s) for s in syms)
    hom = coords_hom(ctx, gens)
    try:
        info = require_generating(ctx, hom)
    except errors.NonGeneratingError as e:
        raise errors.InternalConsistencyError(
            f"the fixed generators at r = {r} do not generate H^2: {e}"
        ) from e
    return gens, hom, info
