"""Structure counts, homotopy tables, and stable homology groups."""

import pytest
from hypothesis import given, settings, strategies as st

from rspin import errors
from rspin.abelian import FgAbGroup
from rspin.classes import FormalClass, Lambda, ModuliContext, free_coordinate, stable_genus, u_r
from rspin.topology import (
    h1_moduli,
    h2_moduli,
    orbit_count,
    pi0_mtspin,
    pi1_mtspin,
    pi2_multiplier,
    picard_report,
    spin_structure_count,
    xr_cohomology,
)


class TestCounts:
    def test_count_examples(self):
        assert spin_structure_count(2, 2) == 2 ** 4
        assert spin_structure_count(3, 2) == 0
        assert spin_structure_count(1, 5) == 1

    def test_orbits(self):
        assert orbit_count(3) == 1
        assert orbit_count(2) == 2
        assert orbit_count(1) == 1

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=2, max_value=50))
    @settings(max_examples=200)
    def test_positive_iff_divides(self, r, g):
        assert (spin_structure_count(r, g) > 0) == ((2 - 2 * g) % r == 0)


class TestPi0:
    def test_odd(self):
        assert pi0_mtspin(3) == (FgAbGroup(1), 6)

    def test_even(self):
        assert pi0_mtspin(2) == (FgAbGroup(1, (2,)), 2)

    def test_one(self):
        assert pi0_mtspin(1) == (FgAbGroup(1), 2)


class TestPi1:
    def test_table(self):
        assert pi1_mtspin(2) == FgAbGroup.cyclic(4)
        assert pi1_mtspin(12) == FgAbGroup.cyclic(24)
        assert pi1_mtspin(5) == FgAbGroup(0)

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=60)
    def test_matches_h2_torsion(self, r):
        g = stable_genus(r)
        eps = 0 if r % 2 == 0 else None
        h2 = h2_moduli(ModuliContext(r, g, eps))
        assert h2.free_rank == 1
        assert FgAbGroup(0, h2.invariant_factors) == pi1_mtspin(r)


class TestXrCohomology:
    def test_examples(self):
        assert xr_cohomology(2, 3) == FgAbGroup.cyclic(4)
        assert xr_cohomology(5, 4) == FgAbGroup(0)
        assert xr_cohomology(3, 1) == FgAbGroup.cyclic(3)

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=9))
    def test_r_power_torsion(self, r, degree):
        g = xr_cohomology(r, degree)
        assert g.free_rank == 0
        assert (r ** degree) % g.order() == 0


class TestPi2Multiplier:
    def test_examples(self):
        assert pi2_multiplier(2) == 4
        assert pi2_multiplier(4) == 8
        assert pi2_multiplier(12) == 24

    @pytest.mark.parametrize("r", list(range(2, 201)))
    def test_equals_hodge_divisibility(self, r):
        eps = 0 if r % 2 == 0 else None
        ctx = ModuliContext(r, stable_genus(r), eps)
        assert pi2_multiplier(r) == free_coordinate(ctx, FormalClass.single(Lambda(r)))

    def test_integrality(self):
        # the floor division is exact: r^2 u_r is a multiple of 12
        for r in range(2, 1001):
            assert 12 * pi2_multiplier(r) == r * r * u_r(r)


class TestModuliHomology:
    def test_h1_examples(self):
        assert h1_moduli(ModuliContext(2, 9, 0)) == FgAbGroup.cyclic(4)
        assert h1_moduli(ModuliContext(6, 7, 1)) == FgAbGroup.cyclic(12)
        assert h1_moduli(ModuliContext(5, 16)) == FgAbGroup(0)

    def test_h2_examples(self):
        assert h2_moduli(ModuliContext(2, 9, 0)) == FgAbGroup(1, (4,))
        assert h2_moduli(ModuliContext(3, 10)) == FgAbGroup(1, (3,))
        assert h2_moduli(ModuliContext(4, 9, 1)) == FgAbGroup(1, (8,))

    def test_guards(self):
        with pytest.raises(errors.StableRangeError):
            h1_moduli(ModuliContext(2, 5, 0))
        with pytest.raises(errors.StableRangeError):
            h2_moduli(ModuliContext(2, 7, 0))
        with pytest.raises(errors.EmptyModuliError):
            h2_moduli(ModuliContext(3, 9))
        with pytest.raises(errors.EpsParityError):
            h1_moduli(ModuliContext(3, 10, 0))

    def test_override(self):
        assert h2_moduli(ModuliContext(2, 7, 0, allow_unstable=True)) == FgAbGroup(1, (4,))


class TestPicardReport:
    def test_r2(self):
        rep = picard_report(ModuliContext(2, 9, 0))
        assert rep["group"] == FgAbGroup(1, (4,))
        assert rep["presentation"].render(2) == "<lambda, mu | 4(lambda + 4*mu)>"

    def test_r3(self):
        assert picard_report(ModuliContext(3, 10))["group"] == FgAbGroup(1, (3,))

    def test_r5(self):
        rep = picard_report(ModuliContext(5, 16))
        assert rep["group"] == FgAbGroup(1)
        assert rep["presentation"].group() == FgAbGroup(1)
