"""Independent checks of rspin outputs from the paper's closed forms.

Nothing here imports rspin.  Every check takes plain Python data (the
parsed ``--json`` report of a CLI call, or integers read off a library
result) and returns ``None`` when the output is right, or a one-line
description of the first mismatch.

Closed forms used (r >= 2, U_r the divisibility constant, N the torsion
order, chi = 2 - 2g):

* U_r is 2, 4, 6 or 12 as 12 | r, 3 | r only, 4 | r only, or neither;
  N = (4 if r = 2 mod 4, 8 if 4 | r, else 1) * (3 if 3 | r, else 1).
* Each named class x is a rational multiple q * lambda, and its free
  coordinate is d = q * r^2 * U_r / 12: lambda(a/r) has
  q = (r^2 - 6ar + 6a^2) / r^2, kappa1(a/r) has q = 12 a^2 / r^2 and mu
  has q = -1/4.  The detection values in Z/24 are phi = 2, 0 and 1.
* The fiber restriction (and, times the twist coefficient beta, the twist
  shift) in Z/r is 0 on lambda(a/r), 2 a^2 chi / r on kappa1(a/r), and
  eps * r / 2 on mu (arf * r / 2 for twists).
* The torsion subgroup maps onto 0 in Z/r unless 4 | r, where its image is
  generated by r (12 eps + chi) / (8 gcd(r, 3)).

A presentation is checked without any normal-form routine of rspin: its
relations must map to zero under (d, phi), its generators must reach all
of Z + Z/N, and the relations must span the whole kernel, which holds
exactly when the gcd of their maximal minors equals the torsion order of
the image (see ``kernel_error``).  Together these say the cokernel is
Z + Z/N.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

LAMBDA, KAPPA1, MU = "lambda", "kappa1", "mu"
_RANK = {LAMBDA: 0, KAPPA1: 1, MU: 2}
PICARD = "Pic_alg = NS = Pic_top = H^2"


# ---------------------------------------------------------------------------
# closed forms


def u_r(r: int) -> int:
    if r % 12 == 0:
        return 2
    if r % 3 == 0:
        return 4
    if r % 4 == 0:
        return 6
    return 12


def torsion_order(r: int) -> int:
    t2 = 4 if r % 4 == 2 else 8 if r % 4 == 0 else 1
    return t2 * (3 if r % 3 == 0 else 1)


def q_value(r: int, kind: str, a: int) -> Fraction:
    if kind == LAMBDA:
        return Fraction(r * r - 6 * a * r + 6 * a * a, r * r)
    if kind == KAPPA1:
        return Fraction(12 * a * a, r * r)
    return Fraction(-1, 4)


def free_value(r: int, kind: str, a: int) -> int:
    d = q_value(r, kind, a) * r * r * u_r(r) / 12
    if d.denominator != 1:
        raise ArithmeticError(f"free coordinate of {kind}({a}/{r}) is not an integer")
    return d.numerator


def phi_symbol(kind: str) -> int:
    return {LAMBDA: 2, KAPPA1: 0, MU: 1}[kind]


def fiber_symbol(r: int, g: int, eps, kind: str, a: int) -> int:
    if kind == LAMBDA:
        return 0
    if kind == KAPPA1:
        return 2 * a * a * (2 - 2 * g) // r % r
    return eps * (r // 2) % r


def fiber_image_generator(r: int, g: int, eps) -> int:
    """Generator (a divisor of r) of the torsion subgroup's image in Z/r."""
    if r % 4:
        return r
    num, den = r * (12 * eps + 2 - 2 * g), 8 * gcd(r, 3)
    if num % den:
        raise ArithmeticError("fiber image generator is not an integer")
    return gcd(num // den % r, r) or r


def cyclic_str(n: int, free: bool = False) -> str:
    """How rspin prints Z/n, or Z + Z/n when free."""
    parts = (["Z"] if free else []) + ([f"Z/{n}"] if n > 1 else [])
    return " ⊕ ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# class expressions as sorted term lists [(kind, power, coefficient)]


def normalize(terms):
    acc = {}
    for kind, a, c in terms:
        key = (kind, 0 if kind == MU else a)
        acc[key] = acc.get(key, 0) + c
    return [(k, a, c) for (k, a), c in sorted(acc.items(), key=lambda p: (_RANK[p[0][0]], p[0][1])) if c]


def render_symbol(r: int, kind: str, a: int) -> str:
    if kind == MU:
        return "mu"
    return kind if a == r else f"{kind}({a}/{r})"


def render_class(r: int, terms) -> str:
    if not terms:
        return "0"
    out = []
    for i, (kind, a, c) in enumerate(terms):
        name = render_symbol(r, kind, a)
        body = name if abs(c) == 1 else f"{abs(c)}*{name}"
        out.append((body if c > 0 else f"-{body}") if i == 0 else f"{'+' if c > 0 else '-'} {body}")
    return " ".join(out)


_TERM = re.compile(r"(\d+\*)?(lambda|kappa1|mu)(?:\((\d+)/(\d+)\))?$")


def parse_rendered(text: str, r: int):
    """Inverse of ``render_class`` for the rendered form only."""
    if text == "0":
        return []
    tokens = text.split(" ")
    terms, sign = [], 1
    for i, tok in enumerate(tokens):
        if i % 2:
            if tok not in "+-":
                raise ValueError(f"bad operator {tok!r} in {text!r}")
            sign = 1 if tok == "+" else -1
            continue
        if i == 0 and tok.startswith("-"):
            sign, tok = -1, tok[1:]
        m = _TERM.match(tok)
        if not m:
            raise ValueError(f"bad term {tok!r} in {text!r}")
        coeff = int(m.group(1)[:-1]) if m.group(1) else 1
        kind = m.group(2)
        if m.group(3) is not None and int(m.group(4)) != r:
            raise ValueError(f"denominator {m.group(4)} is not r = {r} in {text!r}")
        a = 0 if kind == MU else int(m.group(3)) if m.group(3) is not None else r
        terms.append((kind, a, sign * coeff))
    return terms


def class_coords(r: int, terms):
    """(d, phi mod 24) of an integer combination of named classes."""
    d = sum(c * free_value(r, k, a) for k, a, c in terms)
    phi = sum(c * phi_symbol(k) for k, a, c in terms) % 24
    return d, phi


def render_relation(row, names) -> str:
    content = 0
    for c in row:
        content = gcd(content, c)
    inner = [c // content for c in row] if content > 1 else list(row)
    parts = []
    for c, name in zip(inner, names):
        if not c:
            continue
        wrapped = f"({name})" if ("*" in name or " " in name) else name
        body = wrapped if abs(c) == 1 else f"{abs(c)}*{wrapped}"
        parts.append((body if c > 0 else f"-{body}") if not parts else f"{'+' if c > 0 else '-'} {body}")
    combo = " ".join(parts) if parts else "0"
    return f"{content}({combo})" if content > 1 else combo


# ---------------------------------------------------------------------------
# lattices


def _ext_gcd(a: int, b: int):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return (a, x0, y0) if a >= 0 else (-a, -x0, -y0)


def plane_hnf(vectors, modulus: int):
    """(a, c) of the Hermite basis [[a, b], [0, c]] of the lattice in Z^2
    spanned by the vectors and (0, modulus); a = 0 if no vector has a
    nonzero first entry."""
    a, b, c = 0, 0, modulus
    for x, y in vectors:
        if x == 0:
            c = gcd(c, y)
            continue
        g, s, t = _ext_gcd(a, x)
        c = gcd(c, (x // g) * b - (a // g) * y)
        a, b = g, s * b + t * y
    return a, c


def kernel_error(images, modulus: int, rows):
    """Check that ``rows`` is the Hermite basis of the kernel of
    Z^k -> Z + Z/modulus, e_i -> images[i].

    Rows in the kernel, in reduced echelon form and k - 1 of them span a
    sublattice L of the kernel K of the same rank.  For v with <v, n> = 1,
    n the primitive normal of K, |det [rows; v]| is the gcd of the maximal
    minors, which equals [K_sat : L]; and [K_sat : K] is the order of the
    image's torsion.  So L = K exactly when the two agree.
    """
    k = len(images)
    frees = [f for f, _ in images]
    if any(len(row) != k for row in rows):
        return "relation row length differs from the generator count"
    for row in rows:
        if sum(c * f for c, f in zip(row, frees)) or sum(c * t for c, (_, t) in zip(row, images)) % modulus:
            return f"relation {list(row)} is not in the kernel"
    content = 0
    for f in frees:
        content = gcd(content, f)
    if content == 0:
        return "no generator has a free part"
    if len(rows) != k - 1:
        return f"{len(rows)} relations for a kernel of rank {k - 1}"
    last = -1
    pivots = []
    for i, row in enumerate(rows):
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None or p <= last or row[p] < 0:
            return "relations are not in echelon form with positive pivots"
        for above in rows[:i]:
            if not 0 <= above[p] < row[p]:
                return "relations are not reduced above their pivots"
        pivots.append(p)
        last = p
    n = [f // content for f in frees]
    v, g = [0] * k, 0
    for j, x in enumerate(n):
        if x:
            g, s, t = _ext_gcd(g, x)
            v = [s * y for y in v]
            v[j] = t
    # Clear v at each pivot column, scaling v by the pivot so it stays
    # integral: det [rows; v] then equals +-v at the one free column.
    for row, p in zip(rows, pivots):
        m = v[p]
        v = [row[p] * y - m * x for x, y in zip(row, v)]
    free_col = next(j for j in range(k) if j not in set(pivots))
    minors = abs(v[free_col])
    _, c = plane_hnf(images, modulus)
    torsion = modulus // c
    if minors != torsion:
        return f"relations span a sublattice of index {Fraction(minors, torsion)} in the kernel"
    return None


def invariant_factors(rows, ncols: int):
    """(free rank, invariant factors) of Z^ncols / rowspace, by plain
    elimination without transformation matrices."""
    a = [list(r) for r in rows if any(r)]
    diag = []
    while a:
        cols = len(a[0])
        while True:
            i, j = min(
                ((i, j) for i, r in enumerate(a) for j, x in enumerate(r) if x),
                key=lambda ij: abs(a[ij[0]][ij[1]]),
            )
            a[0], a[i] = a[i], a[0]
            for r in a:
                r[0], r[j] = r[j], r[0]
            p = a[0][0]
            for r in a[1:]:
                if r[0]:
                    q = r[0] // p
                    for jj in range(cols):
                        r[jj] -= q * a[0][jj]
            for jj in range(1, cols):
                if a[0][jj]:
                    q = a[0][jj] // p
                    for r in a:
                        r[jj] -= q * r[0]
            if any(r[0] for r in a[1:]) or any(a[0][1:]):
                continue
            bad = next((r for r in a[1:] if any(x % p for x in r[1:])), None)
            if bad is None:
                break
            a[0] = [x + y for x, y in zip(a[0], bad)]
        diag.append(abs(p))
        a = [r[1:] for r in a[1:]]
        a = [r for r in a if any(r)]
    return ncols - len(diag), tuple(d for d in diag if d > 1)


# ---------------------------------------------------------------------------
# checks of the CLI reports


def _context(r, g, eps) -> dict:
    ctx = {"r": str(r), "g": str(g), "chi": str(2 - 2 * g),
           "nonempty": (2 - 2 * g) % r == 0, "stable_h2_range": g >= 9}
    if eps is not None:
        ctx["eps"] = str(eps)
    return ctx


def _diff(got: dict, want: dict):
    for key in want:
        if got.get(key) != want[key]:
            return f"{key}: got {got.get(key)!r}, want {want[key]!r}"
    return None


def generates_error(r: int, coords):
    """Classes with these (d, phi) generate all of H^2 = Z + Z/N exactly
    when they reach free coordinate 1 and all N torsion values."""
    n = torsion_order(r)
    if plane_hnf(coords, 24) != (1, 24 // n):
        return f"generators do not generate Z + Z/{n}"
    return None


def presentation_error(r: int, pres: dict, generators):
    """The relations of a rendered presentation on ``generators`` are the
    complete kernel of the map to H^2, and the rendering matches them."""
    if pres["generators"] != generators:
        return "presentation generators differ from the listed generators"
    rows = [[int(c) for c in row] for row in pres["relations"]]
    body = ", ".join(generators)
    rendered = f"<{body} | {'; '.join(render_relation(row, generators) for row in rows)}>"
    if pres["rendered"] != (rendered if rows else f"<{body} | >"):
        return f"rendered presentation {pres['rendered']!r}, want {rendered!r}"
    return kernel_error([class_coords(r, parse_rendered(x, r)) for x in generators], 24, rows)


class Oracle:
    """Checks reports; keeps, per r, the lifts consistent with every eval
    seen so far (tau depends on the chosen lift of the free generator)."""

    def __init__(self):
        self._lift_phi: dict = {}

    def _lift_candidates(self, r: int) -> set:
        if r not in self._lift_phi:
            g, phi = 0, 0
            syms = [(LAMBDA, a) for a in range(r + 1)] + [(KAPPA1, 1)] + ([(MU, 0)] if r % 2 == 0 else [])
            for kind, a in syms:
                g, x, y = _ext_gcd(g, free_value(r, kind, a))
                phi = x * phi + y * phi_symbol(kind)
            if g != 1:
                raise ArithmeticError(f"named classes do not reach free coordinate 1 at r = {r}")
            step = 24 // torsion_order(r)
            self._lift_phi[r] = {c for c in range(24) if (c - phi) % step == 0}
        return self._lift_phi[r]

    def check_report(self, r, g, eps, out: dict):
        n, u = torsion_order(r), u_r(r)
        syms = [(LAMBDA, r), (LAMBDA, 1), (KAPPA1, r), (KAPPA1, 1)] + ([(MU, 0)] if r % 2 == 0 else [])
        want = {
            "command": "report",
            "context": _context(r, g, eps),
            "u_r": str(u),
            "divisibility": {render_symbol(r, k, a): str(free_value(r, k, a)) for k, a in syms},
            "groups": {"h1": cyclic_str(n), "h2": cyclic_str(n, free=True)},
            "picard": PICARD,
        }
        err = _diff(out, want)
        if err:
            return err
        if n == 1:
            if out.get("torsion") != "trivial":
                return "torsion should be trivial"
        else:
            tors = out["torsion"]
            d, phi = class_coords(r, parse_rendered(tors["generator"], r))
            order = 24 // gcd(24, phi)
            if d or tors["phi"] != str(phi) or tors["order"] != str(n) or order != n:
                return f"torsion generator {tors['generator']!r} (d={d}, phi={phi}) does not have order {n}"
        gens = out["presentation"]["generators"]
        return generates_error(r, [class_coords(r, parse_rendered(x, r)) for x in gens]) or presentation_error(
            r, out["presentation"], gens
        )

    def check_eval(self, r, g, eps, terms, out: dict):
        terms = normalize(terms)
        d, phi = class_coords(r, terms)
        want = {
            "command": "eval",
            "context": _context(r, g, eps),
            "expression": render_class(r, terms),
            "d": str(d),
            "phi": str(phi),
            "rational_multiple_of_lambda": str(sum((c * q_value(r, k, a) for k, a, c in terms), Fraction(0))),
        }
        err = _diff(out, want)
        if err:
            return err
        tau = int(out["tau"])
        if not 0 <= tau < 24 or tau % (24 // torsion_order(r)):
            return f"tau = {tau} is not in the order-{torsion_order(r)} subgroup of Z/24"
        if d == 0:
            if tau != phi:
                return f"torsion class with phi {phi} has tau {tau}"
            order = 24 // gcd(24, tau)
            diagnosis = "zero class" if order == 1 else f"torsion of order {order}"
        else:
            lifts = self._lift_candidates(r)
            lifts &= {c for c in lifts if (phi - d * c - tau) % 24 == 0}
            if not lifts:
                return f"tau = {tau} is inconsistent with every lift of the free generator at r = {r}"
            diagnosis = "infinite order"
        if out.get("diagnosis") != diagnosis:
            return f"diagnosis {out.get('diagnosis')!r}, want {diagnosis!r}"
        return None

    def check_theta(self, r, g, eps, out: dict):
        n = torsion_order(r)
        gen = fiber_image_generator(r, g, eps)
        order = r // gen
        want = {
            "command": "theta",
            "context": _context(r, g, eps),
            "h1": cyclic_str(n // order),
            "fiber_image": {"modulus": str(r), "generator": str(gen), "order": str(order)},
        }
        err = _diff(out, want)
        if err:
            return err
        if ("warning" in out) != (r == 4 and order != (1 if eps == 0 else 2)):
            return "the r = 4 g-dependence warning is wrong"
        sub = out["h2_subgroup"]
        terms = [parse_rendered(x, r) for x in sub["generators"]]
        return theta_subgroup_error(r, g, eps, terms, sub["group"], int(sub["index"])) or presentation_error(
            r, sub["presentation"], sub["generators"]
        )

    def check_twist(self, r, g, eps, arf, beta, terms, out: dict):
        terms = normalize(terms)
        rows, total = [], 0
        for kind, a, c in terms:
            s = c * fiber_symbol(r, g, arf, kind, a) * beta % r
            total += s
            rows.append({"symbol": render_symbol(r, kind, a), "coefficient": str(c), "shift": str(s)})
        want = {
            "command": "twist",
            "context": _context(r, g, eps),
            "expression": render_class(r, terms),
            "beta_coefficient": str(beta),
            "terms": rows,
            "total_shift": f"{total % r} mod {r}",
        }
        return _diff(out, want)

    def check_table(self, r_min, r_max, out: dict):
        rows = []
        for r in range(r_min, r_max + 1):
            rows.append({
                "r": str(r),
                "u_r": str(u_r(r)),
                "torsion": cyclic_str(torsion_order(r)),
                "pi2_multiplier": str(r * r * u_r(r) // 12),
                "pi0": "Z" if r % 2 else "Z ⊕ Z/2",
                "euler_image_index": str(2 * r if r % 2 else r),
            })
        return _diff(out, {"command": "table", "rows": rows})


def theta_subgroup_error(r, g, eps, terms, group: str, index: int):
    """Generators of the theta subgroup lie in the kernel of the fiber
    restriction, and its reported structure and index in H^2 match the
    lattice they span."""
    for t in terms:
        if sum(c * fiber_symbol(r, g, eps, k, a) for k, a, c in t) % r:
            return f"generator {render_class(r, t)!r} does not restrict to zero on the fiber"
    a, c = plane_hnf([class_coords(r, t) for t in terms], 24)
    if a == 0:
        return "theta subgroup has no free part"
    if group != cyclic_str(24 // c, free=True):
        return f"theta subgroup {group!r}, want {cyclic_str(24 // c, free=True)!r}"
    want = Fraction(a * c * torsion_order(r), 24)
    if index != want:
        return f"theta subgroup index {index}, want {want}"
    return None
