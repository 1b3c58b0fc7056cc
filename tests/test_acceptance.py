"""Acceptance suite.

Every check is integer-exact with zero tolerance. Each criterion prints
one PASS or FAIL line.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from rspin import cli, errors
import rspin.classes as cl
from rspin.abelian import FgAbGroup, IntMatrix, smith_normal_form, subgroup_info
from rspin.classes import (
    FormalClass,
    Kappa1,
    Lambda,
    MU,
    ModuliContext,
    free_coordinate,
    phi_value,
    render_class,
    stable_genus,
)
from rspin.topology import h1_moduli, h2_moduli, pi2_multiplier
from rspin.twists import ZrSubgroup, eval_on_fiber, h1_theta, h2_theta_subgroup, tors_map_image


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({title}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({title}): PASS")


def phi_order(ctx, x):
    return 24 // gcd(24, phi_value(ctx, x))


def single(sym):
    return FormalClass.single(sym)


def test_criterion_1_two_spin_example():
    with criterion(1, "2-Spin divisibilities, detection, presentation"):
        ctx = ModuliContext(2, 9, 0)
        table = {
            Lambda(2): 4,
            Lambda(1): -2,
            MU: -1,
            Kappa1(2): 48,
            Kappa1(1): 12,
        }
        for sym, expected in table.items():
            assert free_coordinate(ctx, single(sym)) == expected
        t = FormalClass.of([(Lambda(1), 2), (Lambda(2), 1)])
        assert phi_value(ctx, t) == 6
        assert phi_order(ctx, t) == 4
        p = cl.presentation(ctx, [single(Lambda(2)), single(MU)])
        assert [render_class(x, 2) for x in p.generators] == ["lambda", "mu"]
        rows = p.relations.to_rows()
        assert rows == [[4, 16]] or rows == [[-4, -16]]


def test_criterion_2_three_spin_example():
    with criterion(2, "3-Spin divisibilities, detection, presentation"):
        ctx = ModuliContext(3, 10)
        table = {Lambda(3): 3, Lambda(1): -1, Lambda(2): -1, Kappa1(3): 36, Kappa1(1): 4}
        for sym, expected in table.items():
            assert free_coordinate(ctx, single(sym)) == expected
        t = FormalClass.of([(Lambda(1), 3), (Lambda(3), 1)])
        assert phi_value(ctx, t) == 8
        assert phi_order(ctx, t) == 3
        p = cl.presentation(ctx, [single(Lambda(3)), single(Lambda(1))])
        assert [render_class(x, 3) for x in p.generators] == ["lambda", "lambda(1/3)"]
        rows = p.relations.to_rows()
        assert rows == [[3, 9]] or rows == [[-3, -9]]


def test_criterion_3_four_spin_example():
    with criterion(3, "4-Spin torsion classes and presentation"):
        ctx = ModuliContext(4, 9, 0)
        assert free_coordinate(ctx, single(Lambda(4))) == 8
        assert free_coordinate(ctx, single(Lambda(1))) == -1
        assert free_coordinate(ctx, single(Lambda(2))) == -4
        assert free_coordinate(ctx, single(Lambda(3))) == -1
        assert free_coordinate(ctx, single(MU)) == -2
        cases = [
            (cl.lambda_difference_torsion(ctx, 1, 0),
             FormalClass.of([(Lambda(1), 8), (Lambda(4), 1)]), 18, 4),
            (cl.lambda_difference_torsion(ctx, 2, 0),
             FormalClass.of([(Lambda(2), 2), (Lambda(4), 1)]), 6, 4),
            (cl.lambda_difference_torsion(ctx, 1, 2),
             FormalClass.of([(Lambda(2), 1), (Lambda(1), -4)]), 18, 4),
            (cl.lambda_kappa_torsion(ctx, 1),
             FormalClass.of([(Lambda(1), 6), (Kappa1(1), 1)]), 12, 2),
            (cl.lambda_kappa_torsion(ctx, 2),
             FormalClass.of([(Lambda(2), 3), (Kappa1(1), 2)]), 6, 4),
            (cl.mu_kappa_torsion(ctx),
             FormalClass.of([(MU, 3), (Kappa1(1), 1)]), 3, 8),
            (FormalClass.of([(MU, 1), (Lambda(1), -2)]), None, 21, 8),
        ]
        for built, expected_class, phi, order in cases:
            if expected_class is not None:
                assert built == expected_class
            assert phi_value(ctx, built) == phi
            assert phi_order(ctx, built) == order
        p = cl.presentation(ctx, [single(MU), single(Lambda(1))])
        assert [render_class(x, 4) for x in p.generators] == ["mu", "lambda(1/4)"]
        rows = p.relations.to_rows()
        assert rows == [[8, -16]] or rows == [[-8, 16]]


def test_criterion_4_homology_tables():
    with criterion(4, "stable homology tables over a 20-point grid"):
        grid = [
            (2, 9), (3, 10), (4, 9), (5, 11), (6, 10), (7, 15), (8, 9), (9, 10),
            (10, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 16), (16, 9),
            (18, 10), (20, 11), (24, 13), (36, 19), (48, 25),
        ]
        assert len(grid) == 20
        # all four residue classes of r mod 12 are represented
        assert {min(gcd(r, 12), 12) for r, _ in grid} >= {12, 1}
        residues = {(r % 4 == 0, r % 3 == 0) for r, _ in grid}
        assert residues == {(True, True), (True, False), (False, True), (False, False)}
        for r, g in grid:
            assert (2 - 2 * g) % r == 0 and g >= 9
            eps = 0 if r % 2 == 0 else None
            # expected torsion restated from the published table
            orders = []
            if r % 4 == 2:
                orders.append(4)
            if r % 4 == 0:
                orders.append(8)
            if r % 3 == 0:
                orders.append(3)
            expected_t = FgAbGroup.from_orders(orders)
            assert h1_moduli(ModuliContext(r, g, eps)) == expected_t
            assert h2_moduli(ModuliContext(r, g, eps)) == FgAbGroup.free(1).direct_sum(expected_t)


def test_criterion_5_theta_examples():
    def h1(*params):
        ctx = ModuliContext(*params)
        return h1_theta(ctx, tors_map_image(ctx))

    with criterion(5, "theta-characteristic homology and subgroups"):
        assert h1(2, 9, 0) == FgAbGroup.cyclic(4)
        assert h1(2, 9, 1) == FgAbGroup.cyclic(4)
        assert h1(3, 10) == FgAbGroup.cyclic(3)
        assert h1(4, 9, 0) == FgAbGroup.cyclic(8)
        assert h1(4, 9, 1) == FgAbGroup.cyclic(4)
        sub = h2_theta_subgroup(ModuliContext(2, 9, 1))
        assert sub.index == 2
        assert [render_class(x, 2) for x in sub.generators] == ["lambda", "2*mu"]
        assert h2_theta_subgroup(ModuliContext(2, 9, 0)).index == 1
        sub4 = h2_theta_subgroup(ModuliContext(4, 9, 1))
        assert sub4.index == 2
        assert [render_class(x, 4) for x in sub4.generators] == ["2*mu", "lambda(1/4)"]
        rows = sub4.presentation.relations.to_rows()
        assert rows == [[4, -16]] or rows == [[-4, 16]]


def test_criterion_6_cross_model_consistency():
    with criterion(6, "cross-model consistency suite"):
        # rational multiple of lambda vs ratio of free coordinates
        for r in range(2, 61):
            ctx = ModuliContext(r, stable_genus(r), 0 if r % 2 == 0 else None)
            lam = free_coordinate(ctx, single(Lambda(r)))
            syms = [Lambda(a) for a in range(-60, 61)] + [Kappa1(a) for a in range(-60, 61)]
            if r % 2 == 0:
                syms.append(MU)
            for sym in syms:
                x = single(sym)
                assert cl.rational_multiple_of_lambda(ctx, x) == Fraction(
                    free_coordinate(ctx, x), lam
                )
            # the half-integral identity for mu
            if r % 2 == 0:
                lhs = FormalClass.single(MU, 2)
                rhs = FormalClass.of([(Lambda(-r // 2), 1), (Lambda(r // 2), 12)])
                assert cl.equals(ctx, lhs, rhs)
        # no common factor among the divisibilities
        for r in range(2, 201):
            ctx = ModuliContext(r, stable_genus(r), 0 if r % 2 == 0 else None)
            g = 0
            for sym in cl.default_symbols(r):
                g = gcd(g, free_coordinate(ctx, single(sym)))
            assert g == 1
            assert pi2_multiplier(r) == free_coordinate(ctx, single(Lambda(r)))
        # closed-form image vs direct evaluation of the torsion generator
        for r in range(4, 49, 4):
            for g in range(9, 41):
                if (2 - 2 * g) % r:
                    continue
                for eps in (0, 1):
                    ctx = ModuliContext(r, g, eps)
                    img = tors_map_image(ctx)
                    direct = eval_on_fiber(ctx, cl.torsion_generator(ctx))
                    assert img == ZrSubgroup.generated_by(r, direct)


def test_criterion_7_abelian_oracles():
    with criterion(7, "integer linear algebra oracle suite"):
        rng = random.Random(20260823)
        for _ in range(500):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            a = IntMatrix.from_rows(
                [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)], cols=cols
            )
            s = smith_normal_form(a)
            assert (s.u @ a @ s.v).to_rows() == s.s.to_rows()
            assert s.u.det() in (1, -1) and s.v.det() in (1, -1)
            d = list(s.s.diagonal())
            assert all(x >= 0 for x in d)
            for x, y in zip(d, d[1:]):
                assert y == 0 or (x != 0 and y % x == 0)
            entries_gcd = 0
            for e in a.entries:
                entries_gcd = gcd(entries_gcd, e)
            assert (d[0] if d else 0) == entries_gcd

        def enumerate_subgroup(n, gens, f_bound, coeff_bound):
            found = set()
            for coeffs in itertools.product(
                *[range(-coeff_bound, coeff_bound + 1)] * len(gens)
            ):
                f = sum(c * g[0] for c, g in zip(coeffs, gens))
                if abs(f) <= f_bound:
                    found.add((f, sum(c * g[1] for c, g in zip(coeffs, gens)) % n))
            return found

        cases = [
            (24, [(4, 6), (0, 9)]),
            (24, [(3, 1)]),
            (12, [(2, 5), (-2, 3)]),
            (8, [(0, 2), (1, 1)]),
            (6, [(2, 1), (3, 3), (0, 2)]),
            (5, [(4, 2), (-3, 1), (2, 4)]),
        ]
        for n, gens in cases:
            info = subgroup_info(n, gens)
            bound = 6
            oracle = enumerate_subgroup(n, gens, bound, coeff_bound=2 * n * bound // max(1, len(gens) - 1))
            for f in range(-bound, bound + 1):
                for t in range(n):
                    assert info.contains((f, t)) == ((f, t) in oracle)


def test_criterion_8_guards(capsys):
    with criterion(8, "range guards and parity errors"):
        assert cli.main(["report", "--r", "3", "--g", "2"]) == 3
        assert cli.main(["report", "--r", "2", "--g", "8", "--eps", "0"]) == 3
        assert cli.main(["report", "--r", "3", "--g", "2", "--force"]) == 0
        assert cli.main(["report", "--r", "2", "--g", "9"]) == 2
        assert cli.main(["report", "--r", "3", "--g", "10", "--eps", "1"]) == 2
        assert cli.main(["eval", "--r", "3", "--g", "10", "mu"]) == 2
        capsys.readouterr()
        try:
            ModuliContext(2, 9)
            raise AssertionError("missing eps accepted")
        except errors.EpsParityError:
            pass
        try:
            free_coordinate(ModuliContext(3, 10), single(MU))
            raise AssertionError("mu accepted for odd r")
        except errors.MuUndefinedError:
            pass
        try:
            free_coordinate(ModuliContext(2, 8, 0), single(Lambda(2)))
            raise AssertionError("below-range call accepted")
        except errors.StableRangeError:
            pass
