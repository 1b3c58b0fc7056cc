"""Exact linear algebra: normal form laws, presentation invariance,
kernels and subgroups checked against brute-force oracles."""

import itertools
import random
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import det, kernel_lattice_by_rows, rank
from rspin import abelian
from rspin.abelian import (
    FgAbGroup,
    HomZN,
    IntMatrix,
    element_order,
    group_from_presentation,
    hermite_normal_form,
    kernel_lattice,
    smith_normal_form,
    subgroup_info,
)

small_entries = st.integers(min_value=-50, max_value=50)
divisors_of_24 = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 24])


def matrices(max_dim=6, entries=small_entries):
    return st.integers(min_value=0, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=0, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
        )
    )


def minors_gcd(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors, computed straight from the definition."""
    g = 0
    for rs in itertools.combinations(range(a.rows), k):
        for cs in itertools.combinations(range(a.cols), k):
            sub = IntMatrix.from_rows([[a.at(i, j) for j in cs] for i in rs], cols=k)
            g = gcd(g, det(sub))
    return g


# U, S and V from the implementation that kept U and V in matrices of
# their own; the elimination that carries them as passengers must give
# the same
PINNED = [
    (
        [[2, 4], [6, 8], [3, -5], [0, 7]],
        [[-1, 0, 1, 0], [9, -4, 2, 1], [27, -11, 4, 0], [-30, 13, -6, -2]],
        [[1, 0], [0, 1], [0, 0], [0, 0]],
        [[1, 9], [0, 1]],
    ),
    (
        [[4, 6, 10, 0, 14], [6, 9, 15, 3, 21]],
        [[1, 1], [-9, -10]],
        [[1, 0, 0, 0, 0], [0, 6, 0, 0, 0]],
        [[0, 0, 0, 1, 0], [0, 1, 5, 1, 1], [1, 0, -3, -1, -2], [-8, -5, 0, 0, 0], [0, 0, 0, 0, 1]],
    ),
    (
        [[3, 1, 4], [0, 0, 0], [6, 2, 8]],
        [[1, 0, 0], [0, 1, 0], [-2, 0, 1]],
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 1, 0], [1, -3, -4], [0, 0, 1]],
    ),
    (
        [[2, 0], [0, 3]],
        [[1, 1], [3, 2]],
        [[1, 0], [0, 6]],
        [[-1, 3], [1, -2]],
    ),
    (
        [[-7, 5, 3], [4, -9, 6], [2, 8, -10]],
        [[1, 0, 4], [-2, -3, -1], [-46, -70, -21]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 116]],
        [[1, 37, -185], [0, -3, 14], [0, -2, 9]],
    ),
]


class TestSmithNormalForm:
    def test_empty(self):
        s = smith_normal_form(IntMatrix.from_rows([], cols=0))
        assert s.s.rows == 0 and s.s.cols == 0

    def test_identity(self):
        s = smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert s.s.to_rows() == [[1, 0], [0, 1]]

    def test_2x2(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        s = smith_normal_form(a)
        assert list(s.s.diagonal()) == [2, 4]
        # oracle: d1 = gcd of entries, d1*d2 = |det|
        assert minors_gcd(a, 1) == 2
        assert abs(det(a)) == 8

    @given(matrices())
    def test_laws(self, a):
        s = smith_normal_form(a)
        assert (s.u @ a @ s.v).to_rows() == s.s.to_rows()
        assert det(s.u) in (1, -1)
        assert det(s.v) in (1, -1)
        d = list(s.s.diagonal())
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert y == 0 or (x != 0 and y % x == 0)

    @given(matrices(max_dim=4, entries=st.integers(min_value=-9, max_value=9)))
    @settings(max_examples=60)
    def test_minor_gcd_oracle(self, a):
        s = smith_normal_form(a)
        d = list(s.s.diagonal())
        for k in range(1, min(4, a.rows, a.cols) + 1):
            prod = 1
            for x in d[:k]:
                prod *= x
            assert prod == minors_gcd(a, k)

    def test_deterministic(self):
        a = IntMatrix.from_rows([[3, 1, 4], [1, 5, 9], [2, 6, 5]])
        s1, s2 = smith_normal_form(a), smith_normal_form(a)
        assert s1.u.to_rows() == s2.u.to_rows()
        assert s1.v.to_rows() == s2.v.to_rows()

    def test_pinned_witnesses(self):
        # +-1 entries behind a larger one in the first row, and the
        # non-unit pivot chain 1 | 2 | 6 | 12; U, S and V as computed by
        # the full minimal-|value| scan with a divisibility check at
        # every pivot, before either exit for unit pivots
        a = IntMatrix.from_rows(
            [
                [-6, 1, 1, 3, 2, 0],
                [12, -2, -2, -6, 8, 0],
                [-2, 1, 1, 1, -12, 0],
                [-6, 6, -6, 0, 0, -6],
                [-2, 6, -6, -2, -2, -6],
            ]
        )
        s = smith_normal_form(a)
        assert s.s.to_rows() == [
            [1, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0],
            [0, 0, 6, 0, 0, 0],
            [0, 0, 0, 12, 0, 0],
            [0, 0, 0, 0, 0, 0],
        ]
        assert s.u.to_rows() == [
            [1, 0, 0, 0, 0],
            [1, 0, -1, 0, 0],
            [-3, 0, 9, -1, 0],
            [2, 1, 0, 0, 0],
            [-1, -1, -1, -1, 1],
        ]
        assert s.v.to_rows() == [
            [0, 0, 1, 19, -2, -1],
            [1, -3, 0, 19, -1, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 1, 2, 31, -4, -2],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 1],
        ]

    @pytest.mark.parametrize("rows,u,s,v", PINNED)
    def test_pinned_shapes(self, rows, u, s, v):
        a = IntMatrix.from_rows(rows)
        sf = smith_normal_form(a)
        assert (sf.u.to_rows(), sf.s.to_rows(), sf.v.to_rows()) == (u, s, v)
        assert (sf.u @ a @ sf.v).to_rows() == s
        assert det(sf.u) in (1, -1) and det(sf.v) in (1, -1)

    @pytest.mark.parametrize("m,n", [(0, 3), (3, 0)])
    def test_empty_shapes(self, m, n):
        sf = smith_normal_form(IntMatrix.from_rows([[0] * n] * m, cols=n))
        assert (sf.s.rows, sf.s.cols) == (m, n)
        eye_m = IntMatrix.from_rows([[int(i == j) for j in range(m)] for i in range(m)], cols=m)
        eye_n = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)], cols=n)
        assert sf.u == eye_m and sf.v == eye_n

    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.sampled_from([1, 1, 1, 2, 3, 4, 6, 12]), min_size=n, max_size=n),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=n - 1),
                        st.integers(min_value=0, max_value=n),
                        st.integers(min_value=-30, max_value=30),
                    ),
                    max_size=2 * n,
                ),
            )
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_laws_sparse_near_identity(self, case):
        # the shape of kernel relations: mostly unit pivots on an n x (n+1)
        # diagonal, a few larger ones, and a few scattered entries
        n, diag, extra = case
        rows = [[diag[i] if i == j else 0 for j in range(n + 1)] for i in range(n)]
        for i, j, x in extra:
            rows[i][j] += x
        a = IntMatrix.from_rows(rows, cols=n + 1)
        s = smith_normal_form(a)
        assert (s.u @ a @ s.v).to_rows() == s.s.to_rows()
        assert det(s.u) in (1, -1)
        assert det(s.v) in (1, -1)
        d = list(s.s.diagonal())
        assert all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            assert y == 0 or (x != 0 and y % x == 0)


def smith_group(a: IntMatrix) -> FgAbGroup:
    """The cokernel read off the diagonal of the witnessed Smith form."""
    nonzero = [d for d in smith_normal_form(a).s.diagonal() if d]
    return FgAbGroup(a.cols - len(nonzero), tuple(d for d in nonzero if d > 1))


@st.composite
def relation_matrices(draw, max_dim=12):
    """Dense m x n matrices, entries -9..9, m and n from 0 to max_dim;
    some with zero rows, some with a row that combines two others."""
    m = draw(st.integers(min_value=0, max_value=max_dim))
    n = draw(st.integers(min_value=0, max_value=max_dim))
    entries = st.integers(min_value=-9, max_value=9)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    shape = draw(st.sampled_from(["dense", "zero rows", "dependent row"]))
    if shape == "zero rows":
        for i in draw(st.lists(st.integers(min_value=0, max_value=max(m - 1, 0)), max_size=m)):
            rows[i] = [0] * n
    elif shape == "dependent row" and m >= 3:
        a, b = draw(entries), draw(entries)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
    return IntMatrix.from_rows(rows, cols=n)


class TestGroupFromPresentation:
    @given(relation_matrices())
    @example(IntMatrix.from_rows([], cols=5))
    @example(IntMatrix.from_rows([[]] * 4, cols=0))
    @example(IntMatrix.from_rows([[0, 0, 0], [0, 0, 0]]))
    @settings(max_examples=200, deadline=None)
    def test_vs_smith_diagonal(self, a):
        assert group_from_presentation(a.cols, a) == smith_group(a)

    def test_relation_4_16(self):
        g = group_from_presentation(2, IntMatrix.from_rows([[4, 16]]))
        assert g == FgAbGroup(1, (4,))

    def test_free(self):
        assert group_from_presentation(1, IntMatrix.from_rows([], cols=1)) == FgAbGroup(1)

    def test_z6(self):
        g = group_from_presentation(2, IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert g == FgAbGroup(0, (6,))
        # oracle: the quotient has 6 elements
        elems = {(a % 2, b % 3) for a in range(2) for b in range(3)}
        assert len(elems) == 6

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_row_op_invariance(self, rows, rng):
        base = group_from_presentation(3, IntMatrix.from_rows(rows, cols=3))
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert group_from_presentation(3, IntMatrix.from_rows(shuffled, cols=3)) == base
        negated = [[-x for x in r] for r in rows]
        assert group_from_presentation(3, IntMatrix.from_rows(negated, cols=3)) == base
        if len(rows) >= 2:
            added = [r[:] for r in rows]
            added[0] = [x + y for x, y in zip(added[0], added[1])]
            assert group_from_presentation(3, IntMatrix.from_rows(added, cols=3)) == base

    @given(st.lists(st.integers(min_value=-10**6, max_value=10**6), max_size=8))
    def test_one_row_is_the_gcd(self, row):
        n = len(row)
        g = gcd(*row)
        want = FgAbGroup(n) if g == 0 else FgAbGroup(n - 1, (g,) if g > 1 else ())
        assert group_from_presentation(n, IntMatrix.from_rows([row], cols=n)) == want

    @pytest.mark.parametrize("n", [16, 20, 26, 30, 40])
    def test_dense_squares(self, n):
        rng = random.Random(n)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert modular_residual(a)
        g = group_from_presentation(n, a)
        assert g == smith_group(a)
        d = abs(det(a))
        if d:
            assert g.order() == d

    @pytest.mark.parametrize(
        "m, n, rank_bound", [(30, 20, 14), (20, 30, 20), (12, 30, 12), (30, 12, 9)]
    )
    def test_rank_deficient(self, m, n, rank_bound):
        # every row a combination of rank_bound random rows
        rng = random.Random(m * n)
        basis = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(rank_bound)]
        rows = [
            [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
            for coeffs in ([rng.randint(-2, 2) for _ in basis] for _ in range(m))
        ]
        a = IntMatrix.from_rows(rows, cols=n)
        assert modular_residual(a)
        g = group_from_presentation(n, a)
        assert g == smith_group(a)
        assert g.free_rank >= 2 and g.free_rank == n - rank(a)

    @pytest.mark.parametrize("seed", range(4))
    def test_unimodular_conjugates_of_a_diagonal(self, seed):
        # squared primes in d and a torsion part that is not cyclic
        orders = [2, 4, 8, 16, 9, 27, 3, 5, 25, 2, 4, 1, 1, 1]
        n = len(orders) + 2  # two free generators
        rng = random.Random(seed)
        a = unimodular(rng, len(orders)) @ IntMatrix.from_rows(
            [[x if i == j else 0 for j in range(n)] for i, x in enumerate(orders)], cols=n
        ) @ unimodular(rng, n)
        assert modular_residual(a)
        g = group_from_presentation(n, a)
        assert g == FgAbGroup.from_orders(orders, free_rank=2) == smith_group(a)
        assert g.invariant_factors == (2, 2, 4, 12, 360, 10800)

    @pytest.mark.parametrize("seed", range(4))
    def test_square_conjugates_of_a_diagonal(self, seed):
        # a square residual whose torsion is not cyclic on 2 and 3 (so m > 1)
        # and has a large prime that only the cyclic part carries (d/m > 1)
        p = 10**20 + 39
        orders = [1] * 6 + [2, 2, 4, 8, 3, 9, 27, p]
        n = len(orders)
        rng = random.Random(seed)
        a = unimodular(rng, n) @ IntMatrix.from_rows(
            [[x if i == j else 0 for j in range(n)] for i, x in enumerate(orders)], cols=n
        ) @ unimodular(rng, n)
        assert modular_residual(a)
        with mock.patch.object(abelian, "_cokernel_mod", wraps=abelian._cokernel_mod) as modular:
            g = group_from_presentation(n, a)
        assert g == FgAbGroup.from_orders(orders) == smith_group(a)
        assert g.invariant_factors == (2, 6, 36, 216 * p)
        assert modular.call_count == 1
        (_, m), _ = modular.call_args
        assert m == 2**7 * 3**6

    @pytest.mark.parametrize(
        "n, seed, cyclic", [(20, 2, True), (26, 0, True), (20, 4, False), (26, 1, False)]
    )
    def test_modular_step_only_off_the_cyclic_part(self, n, seed, cyclic):
        # h, the gcd of the last four Bareiss entries, is 1 on the cyclic
        # cases: no modular step. Otherwise one step, modulo a proper divisor
        # m of d = |det|
        rng = random.Random(seed)
        a = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert modular_residual(a)
        with mock.patch.object(abelian, "_cokernel_mod", wraps=abelian._cokernel_mod) as modular:
            g = group_from_presentation(n, a)
        assert g == smith_group(a)
        d = abs(det(a))
        if cyclic:
            assert g == FgAbGroup.cyclic(d)
            assert modular.call_count == 0
        else:
            assert modular.call_count == 1
            (_, m), _ = modular.call_args
            assert 1 < m < d and d % m == 0

    @pytest.mark.parametrize("t", range(24))
    def test_adversarial_kernel(self, t):
        # rspin.abelian is general-purpose (README): the kernel of the map
        # with free parts 5*6^i (k = 10) and torsion part t into Z + Z/24
        # leaves, at t = 1, a 9-row residual after its unit pivots, which
        # takes the rank, minor and modular steps
        hom = HomZN(24, tuple((5 * 6**i, t) for i in range(10)))
        kernel = kernel_lattice(hom)
        with (
            mock.patch.object(abelian, "_rank_and_minor", wraps=abelian._rank_and_minor) as minor,
            mock.patch.object(abelian, "_cokernel_mod", wraps=abelian._cokernel_mod) as modular,
        ):
            got = group_from_presentation(10, kernel)
        assert got == subgroup_info(24, hom.generator_images).group
        if t == 1:
            assert len(abelian._unit_pivot_residual(kernel)[0]) == 9
            assert minor.call_count == modular.call_count == 1


def modular_residual(a: IntMatrix) -> bool:
    """Whether a's residual after unit pivots takes the rank and minor
    step, which sends all but its cyclic part to the steps modulo m."""
    return len(abelian._unit_pivot_residual(a)[0]) >= 2


def unimodular(rng, n: int) -> IntMatrix:
    """A product of elementary row operations on I_n, with a dense result."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice([-2, -1, 1, 2])
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows, cols=n)


class TestRankAndMinor:
    @given(relation_matrices(max_dim=7))
    @example(IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 12]]))
    @settings(max_examples=150, deadline=None)
    def test_rank_and_a_maximal_minor(self, a):
        rho, d, h = abelian._rank_and_minor(a.to_rows())
        assert rho == rank(a)
        # d_1 ... d_rho, the gcd of the rho x rho minors, divides d
        factors = smith_group(a).invariant_factors
        assert d % prod(factors, start=1) == 0
        if a.rows == a.cols == rho:
            # d_1 ... d_(rho-1), the gcd of the (rho-1) x (rho-1) minors,
            # divides h
            assert h % prod(factors[:-1], start=1) == 0
        if rho == 0:
            assert d == 1
        elif max(a.rows, a.cols) <= 5:
            minors = {
                abs(det(IntMatrix.from_rows([[a.at(i, j) for j in cs] for i in rs], cols=rho)))
                for rs in itertools.combinations(range(a.rows), rho)
                for cs in itertools.combinations(range(a.cols), rho)
            }
            assert d in minors - {0}


def brute_force_subgroup(n, gens, f_bound, coeff_bound):
    """All subgroup elements with free part in [-f_bound, f_bound],
    found by enumerating bounded coefficient vectors."""
    found = set()
    ranges = [range(-coeff_bound, coeff_bound + 1)] * len(gens)
    for coeffs in itertools.product(*ranges):
        f = sum(c * g[0] for c, g in zip(coeffs, gens))
        if abs(f) <= f_bound:
            t = sum(c * g[1] for c, g in zip(coeffs, gens)) % n
            found.add((f, t))
    return found


class TestSubgroupInfo:
    def test_full_ambient(self):
        info = subgroup_info(4, [(1, 0), (0, 1)])
        assert info.index == 1
        assert info.group == FgAbGroup(1, (4,))

    def test_index_two_in_z(self):
        info = subgroup_info(1, [(2, 0)])
        assert info.index == 2
        assert info.group == FgAbGroup(1)

    def test_index_two_with_torsion(self):
        # generators with the coordinates of the Hodge class and twice
        # the mu class at r = 2
        from rspin.classes import FormalClass, Lambda, MU, ModuliContext, coords_hom

        ctx = ModuliContext(2, 9, 1)
        hom = coords_hom(ctx, [FormalClass.single(Lambda(2)), FormalClass.single(MU, 2)])
        info = subgroup_info(4, hom.generator_images)
        assert info.index == 2

    def test_infinite_index(self):
        info = subgroup_info(4, [(0, 2)])
        assert info.index is None
        assert info.group == FgAbGroup(0, (2,))

    @given(divisors_of_24, st.lists(st.tuples(small_entries, st.integers(min_value=0, max_value=23)), max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_group_vs_smith_of_relation(self, n, gens):
        # the subgroup is the cokernel of the one relation expressing (0, N)
        info = subgroup_info(n, gens)
        # (0, N) is N/h times the last basis row (0, h)
        coeffs = [0] * (info.basis.rows - 1) + [n // info.basis.at(info.basis.rows - 1, 1)]
        relation = IntMatrix.from_rows([coeffs], cols=info.basis.rows)
        assert info.group == group_from_presentation(info.basis.rows, relation)

    @given(
        st.integers(min_value=1, max_value=24),
        st.lists(
            st.tuples(st.integers(min_value=-8, max_value=8), st.integers(min_value=0, max_value=23)),
            min_size=1,
            max_size=2,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_membership_vs_enumeration_two_gens(self, n, gens):
        gens = [(f, t % n) for f, t in gens]
        info = subgroup_info(n, gens)
        f_bound = 8
        oracle = brute_force_subgroup(n, gens, f_bound, coeff_bound=n * 8)
        for f in range(-f_bound, f_bound + 1):
            for t in range(n):
                assert info.contains((f, t)) == ((f, t) in oracle)

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.tuples(st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=7)),
            min_size=3,
            max_size=3,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_membership_vs_enumeration_three_gens(self, n, gens):
        gens = [(f, t % n) for f, t in gens]
        info = subgroup_info(n, gens)
        f_bound = 4
        oracle = brute_force_subgroup(n, gens, f_bound, coeff_bound=4 * n)
        for f in range(-f_bound, f_bound + 1):
            for t in range(n):
                assert info.contains((f, t)) == ((f, t) in oracle)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_membership_vs_hermite_reference(self, data):
        # far outside the boxes above: x is a combination of the generators
        # with coefficients up to 10^6, shifted by a small step or not
        n = data.draw(st.one_of(divisors_of_24, st.integers(min_value=1, max_value=10**12)))
        gens = data.draw(
            st.lists(st.tuples(st.integers(min_value=-(10**9), max_value=10**9), st.integers(0, n - 1)), max_size=4)
        )
        info = subgroup_info(n, gens)
        coeffs = data.draw(st.lists(st.integers(-(10**6), 10**6), min_size=len(gens), max_size=len(gens)))
        step = data.draw(st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (-1, 3)]))
        wrap = data.draw(st.integers(-(10**6), 10**6)) * n
        x = (
            sum(c * f for c, (f, _) in zip(coeffs, gens)) + step[0],
            sum(c * t for c, (_, t) in zip(coeffs, gens)) + step[1] + wrap,
        )
        reference = hermite_normal_form(info.basis.to_rows() + [list(x)], 2) == info.basis
        assert info.contains(x) == reference
        if step == (0, 0):
            assert reference


    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_basis_vs_general_hermite(self, data):
        # the gcd chain in Z^2 against one general Hermite reduction of
        # the same rows, torsion parts unreduced or negative
        n = data.draw(st.one_of(divisors_of_24, st.integers(min_value=1, max_value=10**12)))
        free = data.draw(
            st.sampled_from(
                [
                    st.just(0),
                    st.sampled_from([-1, 0, 1]),
                    st.integers(min_value=-(10**9), max_value=10**9),
                    st.one_of(st.just(0), st.integers(min_value=-(10**9), max_value=10**9)),
                ]
            )
        )
        torsion = st.integers(min_value=-3 * n, max_value=3 * n)
        k = data.draw(st.integers(min_value=0, max_value=200))
        rows = data.draw(st.lists(st.tuples(free, torsion), min_size=k, max_size=k))
        info = subgroup_info(n, rows)
        basis = hermite_normal_form([list(row) for row in rows] + [(0, n)], 2)
        assert info.basis == basis
        h = basis.at(basis.rows - 1, 1)
        assert info.group == FgAbGroup(basis.rows - 1, (n // h,) if n // h > 1 else ())
        assert info.index == (basis.at(0, 0) * h if basis.rows == 2 else None)

    def test_no_general_hermite(self, monkeypatch):
        def refuse(rows, cols):
            raise AssertionError("subgroup_info ran a general Hermite reduction")

        monkeypatch.setattr(abelian, "hermite_normal_form", refuse)
        rng = random.Random(2000)
        k, n = 2000, 24
        gens = [(rng.randint(-(10**6), 10**6), rng.randint(-100, 100)) for _ in range(k)]
        info = subgroup_info(n, gens)
        # each generator is a member, and the basis is in Hermite shape
        assert all(info.contains(x) for x in gens)
        (f0, t0), (z, h) = info.basis.to_rows()
        assert f0 > 0 and z == 0 and n % h == 0 and 0 <= t0 < h
        assert info.index == f0 * h
        assert f0 == gcd(*(f for f, _ in gens))


def _hermite_kernel(hom: HomZN) -> IntMatrix:
    """The kernel by one general Hermite reduction (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4): reduce the rows
    [f_i, t_i | e_i] and [0, N | 0]; the rows that vanish on the first
    two columns, with those columns dropped, are the kernel's Hermite
    basis. Cubic in k."""
    k = len(hom.generator_images)
    rows = [[f, t] + [int(i == j) for j in range(k)] for i, (f, t) in enumerate(hom.generator_images)]
    rows.append([0, hom.ambient_torsion] + [0] * k)
    h = hermite_normal_form(rows, k + 2)
    return IntMatrix.from_rows([h.row(i)[2:] for i in range(h.rows) if not any(h.row(i)[:2])], cols=k)


@st.composite
def kernel_maps(draw, max_k=60, huge_moduli=True):
    """Maps Z^k -> Z + Z/N: N | 24 with free parts all zero, in {-1, 0, 1},
    small, or near 10^6; or, when huge_moduli, a modulus up to 10^12 with
    zero free parts (the shape of the theta subgroup's evaluation map)."""
    k = draw(st.integers(min_value=0, max_value=max_k))
    if huge_moduli and draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=10**12))
        free = st.just(0)
    else:
        n = draw(divisors_of_24)
        near_million = st.integers(min_value=10**6 - 3, max_value=10**6 + 3)
        free = draw(
            st.sampled_from(
                [
                    st.just(0),
                    st.sampled_from([-1, 0, 1]),
                    st.integers(min_value=-6, max_value=6),
                    st.one_of(near_million, near_million.map(lambda x: -x), st.just(0)),
                ]
            )
        )
    images = draw(st.lists(st.tuples(free, st.integers(min_value=0, max_value=n - 1)), min_size=k, max_size=k))
    return HomZN(n, tuple(images))


@st.composite
def kernel_runs(draw, max_k=400):
    """Maps Z^k -> Z + Z/N, N | 24 or up to 10^12, made of runs, so that
    kernel_lattice's sweep meets long runs of member columns with special
    columns inside them: (0, t) columns with t a multiple of m, which
    keep the lattice at rank one while they are all the sweep has seen;
    free parts that are multiples of a; and the lattice workload's
    shape, f in [-50, 50] and t in [0, N). About one column in 24 of a
    run is (f, t) with f in {0, +-1, 7} and any t instead, which the
    lattice of the run need not contain. The entries come from a drawn
    seed."""
    n = draw(st.one_of(divisors_of_24, st.integers(min_value=1, max_value=10**12)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    kinds = st.sampled_from(["torsion", "multiples", "workload"])
    images = []
    for kind, length in draw(st.lists(st.tuples(kinds, st.integers(min_value=1, max_value=150)), max_size=6)):
        m = gcd(n, draw(st.sampled_from([1, 2, 3, 4, 6, 12, 24, n])))
        a = draw(st.sampled_from([1, 2, 6, 50]))
        for _ in range(length):
            if rng.randrange(24) == 0:
                images.append((rng.choice([0, 1, -1, 7]), rng.randrange(n)))
            elif kind == "torsion":
                images.append((0, m * rng.randrange(n // m)))
            elif kind == "multiples":
                images.append((a * rng.randint(-3, 3), rng.randrange(n)))
            else:
                images.append((rng.randint(-50, 50), rng.randrange(n)))
    return HomZN(n, tuple(images[:max_k]))


class TestUnitPivotResidual:
    @given(kernel_maps())
    @example(HomZN(2, ((1, 1), (2, 0))))  # kernel row (2, -1): no pivot in column 1
    @settings(max_examples=150, deadline=None)
    def test_kernel_keeps_its_pivots_above_one(self, hom):
        # every unit pivot of a Hermite basis is alone in its column; a
        # row with a pivot above 1 goes only for a +-1 in the one column
        # with no pivot, which no other row has, and a map with zero free
        # parts leaves no column without a pivot
        ker = kernel_lattice(hom)
        rows, eliminated = abelian._unit_pivot_residual(ker)
        above_one = [pairs for pairs in ker.nonzero if pairs[0][1] > 1]
        no_pivot = set(range(ker.cols)) - {pairs[0][0] for pairs in ker.nonzero}
        assert rows == [pairs for pairs in above_one if pairs in rows]
        assert eliminated == ker.rows - len(rows)
        for pairs in above_one:
            assert pairs in rows or any(c in no_pivot and x in (1, -1) for c, x in pairs)
        if not any(f for f, _ in hom.generator_images):
            assert rows == above_one

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_square_keeps_every_row(self, seed):
        # no fill-in: a +-1 in a column that other rows share is left
        # to the steps after
        rng = random.Random(seed)
        n = 12
        a = IntMatrix.from_rows([[rng.choice([-9, -1, 1, 2, 5]) for _ in range(n)] for _ in range(n)])
        assert abelian._unit_pivot_residual(a) == (list(a.nonzero), 0)
        assert group_from_presentation(n, a) == smith_group(a)


class TestKernelLattice:
    def test_injective(self):
        k = kernel_lattice(HomZN(1, ((1, 0),)))
        assert k.rows == 0

    def test_projection_to_z2(self):
        k = kernel_lattice(HomZN(2, ((0, 1), (0, 0))))
        assert k.to_rows() == [[2, 0], [0, 1]]

    def test_rank_one_relation(self):
        # free/torsion coordinates of the r = 2 generating pair
        k = kernel_lattice(HomZN(4, ((4, 1), (-1, 0))))
        assert k.rows == 1
        row = list(k.row(0))
        assert row in ([4, 16], [-4, -16])
        # brute-force oracle over a coefficient box
        sols = [
            (a, b)
            for a in range(-64, 65)
            for b in range(-64, 65)
            if 4 * a - b == 0 and a % 4 == 0
        ]
        nonzero = [s for s in sols if s != (0, 0)]
        assert min(abs(a) for a, b in nonzero) == 4
        for s in sols:
            assert hermite_normal_form(k.to_rows() + [list(s)], k.cols) == k

    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(st.integers(min_value=-6, max_value=6), st.integers(min_value=0, max_value=11)),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_kernel_box_oracle(self, n, images):
        images = tuple((f, t % n) for f, t in images)
        k = kernel_lattice(HomZN(n, images))

        def maps_to_zero(coeffs):
            f = sum(c * im[0] for c, im in zip(coeffs, images))
            t = sum(c * im[1] for c, im in zip(coeffs, images)) % n
            return f == 0 and t == 0

        for i in range(k.rows):
            assert maps_to_zero(k.row(i))
        for coeffs in itertools.product(*[range(-5, 6)] * len(images)):
            if maps_to_zero(coeffs):
                assert hermite_normal_form(k.to_rows() + [list(coeffs)], k.cols) == k

    @given(divisors_of_24, st.lists(st.tuples(small_entries, st.integers(min_value=0, max_value=23)), max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_vs_smith_witness(self, n, images):
        # reference: the integer left kernel of [images; (0, N)] read off
        # the Smith witness U, projected to the first k coordinates
        hom = HomZN(n, tuple(images))
        k = len(images)
        a = IntMatrix.from_rows([list(img) for img in hom.generator_images] + [[0, n]], cols=2)
        sf = smith_normal_form(a)
        ker = [sf.u.row(i)[:k] for i in range(a.rows) if not any(sf.s.row(i))]
        assert kernel_lattice(hom).to_rows() == hermite_normal_form(ker, k).to_rows()

    @given(kernel_maps())
    @settings(max_examples=150, deadline=None)
    def test_vs_hermite_oracle(self, hom):
        assert kernel_lattice(hom) == _hermite_kernel(hom) == kernel_lattice_by_rows(hom)

    @given(kernel_runs())
    @settings(max_examples=100, deadline=None)
    def test_runs_vs_references(self, hom):
        # the general Hermite reduction is cubic in k: past k = 160 an
        # example would take seconds, so there only the row-at-a-time
        # sweep, itself checked against it above, is the reference
        ker = kernel_lattice(hom)
        assert ker == kernel_lattice_by_rows(hom)
        if len(hom.generator_images) <= 160:
            assert ker == _hermite_kernel(hom)

    @pytest.mark.parametrize("k", [20, 40, 80, 150, 200])
    @pytest.mark.parametrize("n", [4, 8, 12, 24])
    def test_lattice_workload_shapes(self, k, n):
        # the benchmark's kernel ops: f in [-50, 50], t in [0, N)
        rng = random.Random(f"{k}:{n}")
        for _ in range(3):
            hom = HomZN(n, tuple((rng.randint(-50, 50), rng.randrange(n)) for _ in range(k)))
            assert kernel_lattice(hom) == _hermite_kernel(hom) == kernel_lattice_by_rows(hom)

    @given(kernel_maps(huge_moduli=False))
    @settings(max_examples=60, deadline=None)
    def test_cokernel_vs_smith_diagonal(self, hom):
        # the shape group_from_presentation meets in every presentation:
        # unit pivots whose columns are zero in every other row
        ker = kernel_lattice(hom)
        assert group_from_presentation(ker.cols, ker) == smith_group(ker)

    def test_no_general_hermite(self, monkeypatch):
        def refuse(rows, cols):
            raise AssertionError("kernel_lattice ran a general Hermite reduction")

        monkeypatch.setattr(abelian, "hermite_normal_form", refuse)
        rng = random.Random(2000)
        k, n = 2000, 24
        images = tuple((rng.randint(-3, 3), rng.randrange(n)) for _ in range(k))
        ker = kernel_lattice(HomZN(n, images))
        # rank k - 1 (the free parts are not all zero), every row in the
        # kernel, and Hermite shape: increasing pivots, each positive with
        # the entries above it in [0, pivot)
        assert (ker.rows, ker.cols) == (k - 1, k)
        pivots, entries = [], ker.entries
        for i in range(ker.rows):
            row = ker.row(i)
            assert sum(c * f for c, (f, _) in zip(row, images)) == 0
            assert sum(c * t for c, (_, t) in zip(row, images)) % n == 0
            p = next(j for j, x in enumerate(row) if x)
            assert row[p] > 0 and (not pivots or p > pivots[-1])
            pivots.append(p)
        for i, p in enumerate(pivots):
            column = entries[p :: ker.cols]
            assert all(0 <= x < column[i] for x in column[:i])


class TestHermite:
    def test_canonical(self):
        h = hermite_normal_form([[2, 4], [0, 0], [6, 8]], 2)
        assert h.to_rows() == [[2, 0], [0, 4]]

    def test_lattice_equality(self):
        a = hermite_normal_form([[1, 2], [3, 4]], 2)
        b = hermite_normal_form([[3, 4], [4, 6]], 2)
        assert a.to_rows() == b.to_rows()


class TestElementOrder:
    @pytest.mark.parametrize("n,t,expected", [(24, 6, 4), (24, 0, 1), (24, 3, 8)])
    def test_examples(self, n, t, expected):
        assert element_order(n, t) == expected


def well_formed(a: IntMatrix) -> bool:
    """Whether a stores one tuple per row, each of (column, entry) pairs
    in increasing column order inside range(cols), with no zero entry."""

    def row_ok(pairs):
        cols = [c for c, _ in pairs]
        return all(x for _, x in pairs) and cols == sorted(set(cols)) and all(0 <= c < a.cols for c in cols)

    return len(a.nonzero) == a.rows and all(map(row_ok, a.nonzero))


class TestIntMatrix:
    @given(matrices(entries=st.integers(min_value=-2, max_value=2)))
    @settings(max_examples=150, deadline=None)
    def test_dense_round_trip(self, a):
        rows = a.to_rows()
        assert IntMatrix.from_rows(rows, cols=a.cols) == a and well_formed(a)
        assert a.entries == tuple(x for row in rows for x in row)
        for i, row in enumerate(rows):
            assert a.row(i) == tuple(row)
            assert [a.at(i, j) for j in range(a.cols)] == row

    @given(*[matrices(max_dim=2, entries=st.integers(min_value=0, max_value=1))] * 2)
    @settings(max_examples=150, deadline=None)
    def test_equal_exactly_when_dense_forms_are(self, a, b):
        dense_equal = (a.rows, a.cols, a.to_rows()) == (b.rows, b.cols, b.to_rows())
        assert (a == b) == dense_equal and (a != b) != dense_equal
        if dense_equal:
            assert hash(a) == hash(b)

    @given(kernel_maps(), matrices(max_dim=4))
    @settings(max_examples=60, deadline=None)
    def test_builders_store_well_formed_rows(self, hom, a):
        sf = smith_normal_form(a)
        info = subgroup_info(hom.ambient_torsion, hom.generator_images)
        built = [kernel_lattice(hom), sf.s, sf.u, sf.v, sf.u @ a, info.basis, hermite_normal_form(a.to_rows(), a.cols)]
        assert all(well_formed(m) for m in built)

    def test_from_rows_cols(self):
        assert IntMatrix.from_rows([[1, 2]], cols=2) == IntMatrix(1, 2, (((0, 1), (1, 2)),))
        assert IntMatrix.from_rows([[0, 2], [0, 0]], cols=2) == IntMatrix(2, 2, (((1, 2),), ()))
        assert IntMatrix.from_rows([], cols=3) == IntMatrix(0, 3, ())
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2]], cols=3)
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])


class TestFgAbGroup:
    def test_canonical_from_orders(self):
        assert FgAbGroup.from_orders([2, 3]) == FgAbGroup.cyclic(6)
        assert FgAbGroup.from_orders([4, 6]) == FgAbGroup(0, (2, 12))
        with pytest.raises(ValueError):
            FgAbGroup.from_orders([4, 0])

    @given(st.lists(st.integers(min_value=1, max_value=60), max_size=6), st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_from_orders_vs_smith(self, orders, free_rank):
        # Z^free_rank + sum Z/n_i is the cokernel of a diagonal relation
        # matrix with free_rank zero columns
        m = len(orders) + free_rank
        diag = IntMatrix.from_rows([[n if i == j else 0 for j in range(m)] for i, n in enumerate(orders)], cols=m)
        assert FgAbGroup.from_orders(orders, free_rank) == group_from_presentation(m, diag)

    def test_str(self):
        assert str(FgAbGroup(0)) == "0"
        assert str(FgAbGroup(1, (4,))) == "Z ⊕ Z/4"
