"""Closed-form structure counts, homotopy group tables, and stable
homology of the r-Spin moduli spaces."""

from __future__ import annotations

from . import errors
from .abelian import FgAbGroup
from .classes import ModuliContext, default_presentation, torsion_order_of, u_r


def spin_structure_count(r: int, g: int) -> int:
    """Number of r-th roots of the tangent bundle on a genus-g surface."""
    if g < 2:
        raise ValueError("g must be >= 2")
    if r < 1:
        raise ValueError("r must be >= 1")
    return r ** (2 * g) if (2 - 2 * g) % r == 0 else 0


def orbit_count(r: int) -> int:
    """Deformation classes of r-Spin structures: 1 (r odd) or 2 (r even)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return 2 if r % 2 == 0 else 1


def pi0_mtspin(r: int):
    """pi_0 of the stable r-Spin Thom spectrum and the index of the image
    of the Euler characteristic inside its free part."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if r % 2:
        return FgAbGroup(1), 2 * r
    return FgAbGroup(1, (2,)), r


def pi1_mtspin(r: int) -> FgAbGroup:
    """pi_1 of the stable r-Spin Thom spectrum (all torsion)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return FgAbGroup.cyclic(torsion_order_of(r))


def xr_cohomology(r: int, degree: int) -> FgAbGroup:
    """Integral cohomology of the cofibre space used to compare the
    r-Spin spectrum with the plain Spin spectrum: Z/r^{i+1} in degree
    2i+1, trivial otherwise."""
    if r < 2:
        raise ValueError("r must be >= 2")
    if degree < 1 or degree % 2 == 0:
        return FgAbGroup(0)
    i = (degree - 1) // 2
    return FgAbGroup.cyclic(r ** (i + 1))


def pi2_multiplier(r: int) -> int:
    """The integer by which the rank-one free quotient of pi_2 maps to Z;
    equals the divisibility of the Hodge class."""
    m, rem = divmod(r * r * u_r(r), 12)
    if rem:
        raise errors.InternalConsistencyError(f"r^2 U_r not divisible by 12 at r = {r}")
    return m


def h1_moduli(ctx: ModuliContext) -> FgAbGroup:
    """Stable first integral homology of the genus-g r-Spin moduli space."""
    ctx.require_nonempty()
    ctx.require_h1_range()
    return FgAbGroup.cyclic(ctx.torsion_order)


def h2_moduli(ctx: ModuliContext) -> FgAbGroup:
    """Stable second integral cohomology: Z plus the H_1 torsion."""
    ctx.require_nonempty()
    ctx.require_h2_range()
    n = ctx.torsion_order
    return FgAbGroup(1, (n,) if n > 1 else ())


def picard_report(ctx: ModuliContext) -> dict:
    """Structured summary: the Picard group of the moduli space in all of
    its guises (algebraic, topological, Neron-Severi) equals H^2."""
    return {
        "group": h2_moduli(ctx),
        "presentation": default_presentation(ctx),
        "isomorphisms": "Pic_alg = NS = Pic_top = H^2",
    }
