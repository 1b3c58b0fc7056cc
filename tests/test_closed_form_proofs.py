"""The closed forms of rspin, proved integral for every r by a finite check.

u_r(r) and the torsion order depend only on r mod 12, so on each residue
class r = 12k + c (c = 0..11) every closed form below is a polynomial with
rational coefficients, of a stated degree d in each of its variables. In the
basis C(k - k0, i) C(a - a0, l), 0 <= i, l <= d, the coefficients of such a
polynomial are its finite differences at (k0, a0): integer combinations of
its values on the grid of d + 1 consecutive values of each variable. So it
is an integer at every integer point exactly when it is one on that grid
(Polya, 1915), and two such polynomials that agree on the grid agree
everywhere.

Each test takes the exact rational value of one form, from bench/oracle.py
(loaded by tests/oracles.py) or from Fraction arithmetic, and checks:

* the value is an integer on the grid, and so at every integer point;
* on a far shifted grid, one value wider in each variable, its (d + 1)-th
  finite difference in each variable vanishes: a check on the stated d;
* the library's result equals the value on both grids.

The forms, and their degrees in each variable:

* the free coordinates of lambda(a/r), kappa1(a/r) and mu in
  classes.symbol_record: u(r^2 - 6ar + 6a^2)/12, u a^2 and -u r^2/48, of
  degree (2, 2), (0, 2) and (2, 0) in (k, a);
* topology.pi2_multiplier's r^2 u/12, of degree 2 in k;
* the generator r(12 eps + chi)/(8 gcd(r, 3)) of twists.tors_map_image at
  r = 0 mod 4. A nonempty space has chi = r j, so it is of degree 2 in k
  and 1 in j;
* the free coordinate of the difference of the two sides of the named-class
  identities (second differences of lambda(a/r), kappa1 powers), of degree
  (2, 2) and (0, 2); it must be 0;
* the kappa1(1/r) coefficient gamma of classes.generator_lift, of degree 2
  in k.

One statement is checked over a period instead: every named class x has
phi(x) = d(x) P[c] mod 24/N, so eval's tau = (phi - d P[c]) mod 24 lies in
the order-N subgroup. The free coordinate d is integer-valued of degree at
most 2 in each variable, so it is an integer combination of C(k, i) C(a, l),
i, l <= 2, and C(n + 2m, 2) - C(n, 2) = m(2n + 2m - 1): mod m it repeats
with period 2m in k and in a.

These proofs are why the library divides with // and checks no remainder.
"""

from fractions import Fraction
from itertools import product
from math import comb, gcd

import pytest

import rspin.classes as cl
from rspin import topology, twists
from oracles import bench_oracle

K0 = 1  # the grid starts at r = 12 + c, where every form is defined
SHIFT = 10**9  # the shifted grid starts at k = K0 + SHIFT (and a, j - SHIFT)

RESIDUES = [(c, eps) for c in range(12) for eps in ((None,) if c % 2 else (0, 1))]


def _difference(values: list) -> int:
    """The (len(values) - 1)-th forward difference of consecutive values."""
    n = len(values) - 1
    return sum((-1) ** (n - i) * comb(n, i) * v for i, v in enumerate(values))


def _prove(form, degrees: tuple, origin: tuple, check) -> None:
    """form is integral on the grid of degrees[i] + 1 values of variable i
    from origin; its (degrees[i] + 1)-th difference in each variable
    vanishes on a grid one wider, shifted by SHIFT (up in k, down in the
    second variable); check(point, value) holds on both grids."""
    for p in product(*(range(o, o + d + 1) for o, d in zip(origin, degrees))):
        value = form(*p)
        assert value.denominator == 1, p
        check(p, value)
    far = (origin[0] + SHIFT,) + tuple(o - SHIFT for o in origin[1:])
    values = {p: form(*p) for p in product(*(range(o, o + d + 2) for o, d in zip(far, degrees)))}
    for p, value in values.items():
        check(p, value)
    for axis, d in enumerate(degrees):
        for p in values:
            if p[axis] == far[axis]:
                line = [values[p[:axis] + (p[axis] + i,) + p[axis + 1 :]] for i in range(d + 2)]
                assert _difference(line) == 0, (axis, p)


def _oracle_free(r: int, terms) -> Fraction:
    """The free coordinate of sum c * kind(a/r) over terms (kind, a, c)."""
    return sum(c * bench_oracle.q_value(r, kind, a) for kind, a, c in terms) * r * r * bench_oracle.u_r(r) / 12


FREE_CASES = [
    (c, eps, kind, degrees)
    for c, eps in RESIDUES
    for kind, degrees in ((cl.LAMBDA, (2, 2)), (cl.KAPPA1, (0, 2)), (cl.MU_KIND, (2, 0)))
    if kind != cl.MU_KIND or eps is not None
]


@pytest.mark.parametrize(
    "c,eps,kind,degrees", FREE_CASES, ids=[f"{kind}-c={c}-eps={eps}" for c, eps, kind, _ in FREE_CASES]
)
def test_free_coordinates(c, eps, kind, degrees):
    """The free coordinate of lambda(a/r), kappa1(a/r) or mu (even r) at
    r = 12k + c."""

    def form(k, a):
        return _oracle_free(12 * k + c, [(kind, a, 1)])

    def check(p, value):
        k, a = p
        r = 12 * k + c
        ctx = cl.ModuliContext(r, cl.stable_genus(r), eps)
        sym = cl.MU if kind == cl.MU_KIND else cl.ClassSymbol(kind, a)
        assert cl.symbol_record(ctx, sym)[0] == value, (r, a)

    _prove(form, degrees, (K0, 0), check)


@pytest.mark.parametrize("c", range(12))
def test_pi2_multiplier(c):
    """r^2 u/12 at r = 12k + c."""

    def form(k):
        r = 12 * k + c
        return Fraction(r * r * bench_oracle.u_r(r), 12)

    def check(p, value):
        assert topology.pi2_multiplier(12 * p[0] + c) == value

    _prove(form, (2,), (K0,), check)


@pytest.mark.parametrize("c,eps", [(c, eps) for c in (0, 4, 8) for eps in (0, 1)])
def test_torsion_image_generator(c, eps):
    """r(12 eps + chi)/(8 gcd(r, 3)) at r = 12k + c and chi = r j. The grid
    j = -3, -2 puts g = 1 - rj/2 in the stable range."""

    def form(k, j):
        r = 12 * k + c
        return Fraction(r * (12 * eps + r * j), 8 * gcd(r, 3))

    def check(p, value):
        k, j = p
        r = 12 * k + c
        g = 1 - r * j // 2
        image = twists.tors_map_image(cl.ModuliContext(r, g, eps))
        assert image.generator == gcd(int(value) % r, r) == bench_oracle.fiber_image_generator(r, g, eps), (r, g)

    _prove(form, (2, 1), (K0, -3), check)


# (terms of x - y as (kind, a, coefficient), degrees in (k, a)) for an
# identity x = y; phi vanishes on x - y: 2 - 4 + 2 - 0, and 0 - 0
IDENTITIES = {
    "second-difference": (
        lambda a: [(cl.LAMBDA, a + 2, 1), (cl.LAMBDA, a + 1, -2), (cl.LAMBDA, a, 1), (cl.KAPPA1, 1, -1)],
        (2, 2),
    ),
    "kappa1-power": (lambda a: [(cl.KAPPA1, a, 1), (cl.KAPPA1, 1, -a * a)], (0, 2)),
}


@pytest.mark.parametrize("name", IDENTITIES)
@pytest.mark.parametrize("c,eps", RESIDUES)
def test_named_class_identities(c, eps, name):
    """lambda((a+2)/r) - 2 lambda((a+1)/r) + lambda(a/r) = kappa1(1/r) and
    kappa1(a/r) = a^2 kappa1(1/r) in H^2, for every r and a. phi vanishes
    on the difference of the two sides, and its free coordinate is a
    polynomial of the stated degree in (k, a) that is 0 on the grid, so 0
    everywhere; classes.equals agrees on both grids."""
    terms, degrees = IDENTITIES[name]

    def form(k, a):
        return _oracle_free(12 * k + c, terms(a))

    def check(p, value):
        k, a = p
        r = 12 * k + c
        ctx = cl.ModuliContext(r, cl.stable_genus(r), eps)
        lhs = cl.FormalClass.of((cl.ClassSymbol(kind, b), n) for kind, b, n in terms(a) if n > 0)
        rhs = cl.FormalClass.of((cl.ClassSymbol(kind, b), -n) for kind, b, n in terms(a) if n < 0)
        assert value == 0 and cl.equals(ctx, lhs, rhs), (r, a)

    _prove(form, degrees, (K0, 0), check)


def test_difference_sees_the_degree():
    """A cubic has a nonzero third difference, so _prove would reject it
    under a stated degree of 2."""
    assert _difference([k**3 for k in range(4)]) == 6
    assert _difference([k**2 for k in range(4)]) == 0


# (x, y, delta) of classes.generator_lift and P[c] = phi of the lift, by c = r mod 12
LIFT_ROWS = {1: (1, 0, 0), 5: (1, 0, 0), 7: (1, 0, 0), 11: (1, 0, 0), 2: (0, 0, -1), 10: (0, 0, -1),
             4: (0, -1, 0), 3: (0, 3, 0), 9: (0, 3, 0), 8: (1, 1, 0), 0: (3, 3, 0), 6: (3, 2, 1)}
P = {0: 12, 1: 2, 2: 23, 3: 6, 4: 22, 5: 2, 6: 11, 7: 2, 8: 4, 9: 6, 10: 23, 11: 2}


def _lift_terms(r: int, c: int, gamma) -> list:
    """The terms (kind, a, coefficient) of x lambda + y lambda(1/r) +
    delta mu + gamma kappa1(1/r), zero coefficients dropped."""
    x, y, delta = LIFT_ROWS[c]
    terms = [(cl.LAMBDA, r, x), (cl.LAMBDA, 1, y), (cl.MU_KIND, 0, delta), (cl.KAPPA1, 1, gamma)]
    return [t for t in terms if t[2]]


@pytest.mark.parametrize("c,eps", RESIDUES)
def test_generator_lift(c, eps):
    """gamma = (1 - x d(lambda) - y d(lambda(1/r)) - delta d(mu)) / u at
    r = 12k + c is an integer; the lift with that gamma has d = 1 and
    phi = P[c], and it is classes.generator_lift."""

    def form(k):
        r = 12 * k + c
        return (1 - _oracle_free(r, _lift_terms(r, c, 0))) / bench_oracle.u_r(r)

    def check(p, value):
        r = 12 * p[0] + c
        terms = _lift_terms(r, c, int(value))
        assert bench_oracle.class_coords(r, terms) == (1, P[c]), r
        lift = cl.generator_lift(cl.ModuliContext(r, cl.stable_genus(r), eps))
        assert lift == cl.FormalClass.of((cl.ClassSymbol(kind, a), n) for kind, a, n in terms), r

    _prove(form, (2,), (K0,), check)


@pytest.mark.parametrize("c,eps", RESIDUES)
def test_named_classes_split_by_the_lift(c, eps):
    """phi = d P[c] mod 24/N for lambda(a/r), kappa1(a/r) and mu over a
    full period of (k, a), so at every r = 12k + c and a. On the period,
    canonical_coords gives tau = (phi - d P[c]) mod 24."""
    m = 24 // bench_oracle.torsion_order(c + 12)
    kinds = [cl.LAMBDA, cl.KAPPA1] + ([cl.MU_KIND] if eps is not None else [])
    for k in range(K0, K0 + 2 * m):
        r = 12 * k + c
        ctx = cl.ModuliContext(r, cl.stable_genus(r), eps)
        for kind in kinds:
            for a in range(2 * m) if kind != cl.MU_KIND else (0,):
                d, phi = bench_oracle.class_coords(r, [(kind, a, 1)])
                assert (phi - d * P[c]) % m == 0, (r, kind, a)
                x = cl.FormalClass.single(cl.MU if kind == cl.MU_KIND else cl.ClassSymbol(kind, a))
                assert cl.canonical_coords(ctx, x).tau == (phi - d * P[c]) % 24, (r, kind, a)
