"""Twisting r-Spin structures by a Z/r cohomology class, restriction of
classes to the classifying-space fiber, and the homology and Picard data
of the r-theta-characteristic moduli spaces."""

from __future__ import annotations

from collections.abc import Sequence
from math import gcd

from . import classes as cl
from . import errors
from .abelian import FgAbGroup, HomZN, Value, element_order, kernel_lattice, subgroup_info
from .classes import ClassSymbol, FormalClass, ModuliContext


class TwistInput(Value):
    """Parameters of a twist: the base context, the Arf invariant of the
    starting structure (even r only), and the coefficient of the
    Bockstein class beta(D)."""

    __slots__ = ("ctx", "arf", "beta_coefficient")

    def __init__(self, ctx: ModuliContext, arf: int | None = None, beta_coefficient: int = 0):
        if ctx.r % 2 == 0:
            if arf not in (0, 1):
                raise errors.EpsParityError("arf must be 0 or 1 when r is even")
        elif arf is not None:
            raise errors.EpsParityError("arf must be omitted when r is odd")
        Value.__init__(self, ctx, arf, beta_coefficient)


def _fiber_terms(ctx: ModuliContext, x: FormalClass, arf: int | None) -> list:
    """(symbol, coefficient, fiber weight) per term of x, the weight read
    from cl.symbol_record at Arf invariant arf. An empty moduli space has
    no fiber, so every class, 0 included, is rejected here."""
    ctx.require_nonempty()
    return [(sym, c, cl.symbol_record(ctx, sym, arf)[2]) for sym, c in x.terms]


def twist_shift(tw: TwistInput, symbol: ClassSymbol) -> int:
    """The beta(D)-multiple added to one named class under twisting, as
    an element of Z/r. The fractional Hodge classes are twist-invariant."""
    return twist_class(tw, FormalClass.single(symbol))[1]


def twist_class(tw: TwistInput, x: FormalClass):
    """Per-term shifts and their total for an integer combination."""
    r, beta = tw.ctx.r, tw.beta_coefficient
    per_term = [(sym, c, c * v * beta % r) for sym, c, v in _fiber_terms(tw.ctx, x, tw.arf)]
    total = sum(s for _, _, s in per_term) % r
    return per_term, total


def eval_on_fiber(ctx: ModuliContext, x: FormalClass) -> int:
    """Restriction of a degree-two class to the fiber of the gerbe
    relating the two moduli spaces, as a multiple of beta(x): a residue
    in [0, r). The map is onto a subgroup of Z/r."""
    return sum(c * v for _, c, v in _fiber_terms(ctx, x, ctx.eps)) % ctx.r


class ZrSubgroup(Value):
    """A subgroup of Z/r in canonical form: generated by a divisor of r,
    which is r itself for the zero subgroup."""

    __slots__ = ("modulus", "generator")

    @classmethod
    def generated_by(cls, modulus: int, element: int) -> "ZrSubgroup":
        return cls(modulus, gcd(element % modulus, modulus))

    @property
    def order(self) -> int:
        return self.modulus // self.generator


def tors_map_image(ctx: ModuliContext) -> ZrSubgroup:
    """Image in Z/r of the torsion subgroup under the fiber restriction.

    Computed twice: from the closed form (zero for r odd or r = 2 mod 4,
    generated by r(12 eps + chi) / (8 gcd(r,3)) for r = 0 mod 4) and by
    evaluating the torsion generator directly. Disagreement is an error.
    With r = 12k + c and chi = rj (the space is nonempty), the closed form
    is a polynomial of degree 2 in k and 1 in j on each residue class, an
    integer at every (k, j) (tests/test_closed_form_proofs.py).
    """
    ctx.require_nonempty()
    ctx.require_h2_range()
    r, g, eps, chi = ctx.r, ctx.g, ctx.eps, ctx.chi
    if r % 4 == 0:
        closed = ZrSubgroup.generated_by(r, r * (12 * eps + chi) // (8 * gcd(r, 3)))
    else:
        closed = ZrSubgroup(r, r)
    if ctx.torsion_order == 1:
        direct = ZrSubgroup(r, r)
    else:
        t = cl.torsion_generator(ctx)
        direct = ZrSubgroup.generated_by(r, eval_on_fiber(ctx, t))
    if closed != direct:
        raise errors.InternalConsistencyError(
            f"fiber image of the torsion subgroup at (r={r}, g={g}, eps={eps}): "
            f"closed form gives {closed.generator}Z/{r}, "
            f"evaluating the torsion generator gives {direct.generator}Z/{r}"
        )
    return closed


def h1_theta(ctx: ModuliContext, image: ZrSubgroup) -> FgAbGroup:
    """Stable first integral homology of the r-theta-characteristic moduli
    space: dual of the kernel of the torsion fiber map, whose image is given."""
    n = ctx.torsion_order
    if n % image.order:
        raise errors.InternalConsistencyError(
            f"fiber image order {image.order} does not divide the torsion order {n}"
        )
    # the kernel is finite, and a finite abelian group is its own dual
    return FgAbGroup.cyclic(n // image.order)


def theta_g_dependence_note(ctx: ModuliContext, image: ZrSubgroup) -> str | None:
    """Warn when the r = 4 image, as computed by tors_map_image, deviates
    from its advertised g-independent value (it agrees at g = 9)."""
    if ctx.r != 4:
        return None
    expected_order = 1 if ctx.eps == 0 else 2
    if image.order == expected_order:
        return None
    return (
        f"fiber image at (r=4, g={ctx.g}, eps={ctx.eps}) has order {image.order}, "
        f"not the order {expected_order} seen at g=9; the image formula is g-dependent"
    )


class ThetaSubgroup(Value):
    """H^2 of the theta-characteristic space as a subgroup of H^2 of the
    r-Spin space, on generators that are FormalClass values."""

    __slots__ = ("generators", "presentation", "group", "index")


def h2_theta_subgroup(ctx: ModuliContext, generators: Sequence[FormalClass] | None = None) -> ThetaSubgroup:
    """The kernel of the fiber restriction, expressed in the supplied
    generating classes of the ambient H^2. The generators are mapped to
    coordinates once: a subgroup generator is a kernel row's combination
    sum c_j x_j, so it maps to sum c_j hom(x_j), over the nonzero c_j."""
    ctx.require_nonempty()
    ctx.require_h2_range()
    if generators is None:
        gens, hom, _ = cl._fixed_pair(ctx)
    else:
        gens = tuple(generators)
        hom = cl.coords_hom(ctx, gens)
        cl.require_generating(ctx, hom)
    evals = [eval_on_fiber(ctx, x) for x in gens]
    rows = kernel_lattice(HomZN(ctx.r, tuple((0, e) for e in evals))).nonzero
    images = hom.generator_images
    sub_gens = tuple(FormalClass.of((s, c * k) for j, c in row for s, k in gens[j].terms) for row in rows)
    sub_hom = HomZN(
        ctx.torsion_order,
        tuple((sum(c * images[j][0] for j, c in row), sum(c * images[j][1] for j, c in row)) for row in rows),
    )
    info = subgroup_info(ctx.torsion_order, sub_hom.generator_images)
    image_order = element_order(ctx.r, gcd(*evals))
    if info.index != image_order:
        raise errors.InternalConsistencyError(
            f"subgroup index {info.index} does not match the fiber image order {image_order}"
        )
    pres = cl.kernel_presentation(sub_gens, sub_hom, info.group)
    return ThetaSubgroup(sub_gens, pres, info.group, info.index)
