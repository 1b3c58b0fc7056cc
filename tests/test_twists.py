"""Twist shifts, fiber evaluation, and theta-characteristic data."""

import pytest
from hypothesis import given, settings, strategies as st

from rspin import errors
from rspin.abelian import FgAbGroup
from rspin.classes import (
    FormalClass,
    Kappa1,
    Lambda,
    MU,
    ModuliContext,
    render_class,
    stable_genus,
    torsion_generator,
)
from rspin.twists import (
    TwistInput,
    ZrSubgroup,
    eval_on_fiber,
    h1_theta,
    h2_theta_subgroup,
    theta_g_dependence_note,
    tors_map_image,
    twist_class,
    twist_shift,
)


def ctx_for(r, eps=None, g=None):
    if eps is None and r % 2 == 0:
        eps = 0
    return ModuliContext(r, g if g is not None else stable_genus(r), eps)


class TestTwistShift:
    def test_lambda_invariant(self):
        tw = TwistInput(ctx_for(6, eps=1), arf=1, beta_coefficient=5)
        for a in range(-6, 7):
            assert twist_shift(tw, Lambda(a)) == 0

    def test_kappa_r2(self):
        tw = TwistInput(ModuliContext(2, 9, 0), arf=0, beta_coefficient=1)
        assert twist_shift(tw, Kappa1(1)) == 0  # 2*(chi/r) = -16 = 0 mod 2

    def test_mu_r4(self):
        tw = TwistInput(ModuliContext(4, 9, 1), arf=1, beta_coefficient=1)
        assert twist_shift(tw, MU) == 2

    def test_mu_odd_rejected(self):
        tw = TwistInput(ctx_for(3), beta_coefficient=1)
        with pytest.raises(errors.MuUndefinedError):
            twist_shift(tw, MU)

    @pytest.mark.parametrize(
        "ctx,arf,sym",
        [
            (ModuliContext(3, 9), None, Lambda(1)),
            (ModuliContext(3, 9), None, Kappa1(1)),
            (ModuliContext(4, 10, 0), 0, MU),
        ],
    )
    def test_empty_space_rejected(self, ctx, arf, sym):
        tw = TwistInput(ctx, arf, beta_coefficient=1)
        with pytest.raises(errors.EmptyModuliError):
            twist_shift(tw, sym)
        with pytest.raises(errors.EmptyModuliError):
            eval_on_fiber(ctx, FormalClass.single(sym))
        with pytest.raises(errors.EmptyModuliError):
            eval_on_fiber(ctx, FormalClass())
        with pytest.raises(errors.EmptyModuliError):
            twist_class(tw, FormalClass())

    def test_arf_parity_validation(self):
        with pytest.raises(errors.EpsParityError):
            TwistInput(ctx_for(4, eps=0), arf=None, beta_coefficient=1)
        with pytest.raises(errors.EpsParityError):
            TwistInput(ctx_for(3), arf=0, beta_coefficient=1)

    @given(
        st.integers(min_value=2, max_value=20),
        st.integers(min_value=-8, max_value=8),
        st.integers(min_value=0, max_value=19),
        st.integers(min_value=0, max_value=19),
    )
    @settings(max_examples=100)
    def test_additive_in_beta(self, r, a, b1, b2):
        ctx = ctx_for(r)
        arf = 1 if r % 2 == 0 else None
        s1 = twist_shift(TwistInput(ctx, arf, b1), Kappa1(a))
        s2 = twist_shift(TwistInput(ctx, arf, b2), Kappa1(a))
        s12 = twist_shift(TwistInput(ctx, arf, b1 + b2), Kappa1(a))
        assert s12 == (s1 + s2) % r

    def test_class_totals(self):
        tw = TwistInput(ModuliContext(4, 9, 1), arf=1, beta_coefficient=1)
        x = FormalClass.of([(MU, 1), (Lambda(1), 7)])
        per_term, total = twist_class(tw, x)
        assert total == 2
        assert {s for _, _, s in per_term} == {0, 2}


class TestEvalOnFiber:
    def test_lambda_only_zero(self):
        ctx = ctx_for(6, eps=1)
        x = FormalClass.of([(Lambda(2), 5), (Lambda(-3), 7)])
        assert eval_on_fiber(ctx, x) == 0

    def test_mu_r2(self):
        assert eval_on_fiber(ModuliContext(2, 9, 1), FormalClass.single(MU)) == 1

    def test_zero_class(self):
        assert eval_on_fiber(ctx_for(5), FormalClass()) == 0

    def test_kappa(self):
        ctx = ModuliContext(4, 9, 0)  # chi/r = -4
        assert eval_on_fiber(ctx, FormalClass.single(Kappa1(1))) == (2 * -4) % 4

    def test_residue_for_every_named_class(self):
        for r in range(2, 61):
            syms = [Lambda(a) for a in range(r + 1)] + [Kappa1(a) for a in range(r + 1)]
            for eps in (None,) if r % 2 else (0, 1):
                ctx = ctx_for(r, eps=eps)
                for sym in syms + ([MU] if r % 2 == 0 else []):
                    for c in (1, -1):
                        v = eval_on_fiber(ctx, FormalClass.single(sym, c))
                        assert type(v) is int and 0 <= v < r, (r, eps, sym, c, v)


class TestTorsMapImage:
    def test_r2_zero(self):
        assert tors_map_image(ModuliContext(2, 9, 0)).order == 1

    def test_r3_zero(self):
        assert tors_map_image(ModuliContext(3, 10)).order == 1

    def test_r4_g9(self):
        assert tors_map_image(ModuliContext(4, 9, 0)).order == 1
        img = tors_map_image(ModuliContext(4, 9, 1))
        assert (img.generator, img.order) == (2, 2)

    @pytest.mark.parametrize("r", [4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48])
    def test_closed_form_matches_eval(self, r):
        # tors_map_image raises if its two computations disagree; also
        # compare against an inline evaluation of the torsion generator
        for g in range(9, 41):
            if (2 - 2 * g) % r:
                continue
            for eps in (0, 1):
                ctx = ModuliContext(r, g, eps)
                img = tors_map_image(ctx)
                direct = eval_on_fiber(ctx, torsion_generator(ctx))
                assert img == ZrSubgroup.generated_by(r, direct)

    def test_image_times_kernel_is_n(self):
        for r in range(2, 30):
            eps_vals = (0, 1) if r % 2 == 0 else (None,)
            g = stable_genus(r)
            for eps in eps_vals:
                ctx = ModuliContext(r, g, eps)
                try:
                    img = tors_map_image(ctx)
                except errors.InternalConsistencyError:
                    # the closed form and the direct evaluation can
                    # disagree for odd r divisible by 3; that mismatch
                    # is surfaced, never silently resolved
                    assert r % 2 == 1 and r % 3 == 0
                    continue
                h1 = h1_theta(ctx, img)
                assert h1.order() * img.order == ctx.torsion_order

    def test_known_mismatch_is_surfaced(self):
        # r = 9, g = 10: the closed form gives the zero subgroup, the
        # torsion generator evaluates to a nonzero element of Z/9
        with pytest.raises(errors.InternalConsistencyError):
            tors_map_image(ModuliContext(9, 10))


class TestH1Theta:
    @pytest.mark.parametrize(
        "r,g,eps,expected",
        [
            (2, 9, 0, 4),
            (2, 9, 1, 4),
            (3, 10, None, 3),
            (4, 9, 0, 8),
            (4, 9, 1, 4),
        ],
    )
    def test_examples(self, r, g, eps, expected):
        ctx = ModuliContext(r, g, eps)
        assert h1_theta(ctx, tors_map_image(ctx)) == FgAbGroup.cyclic(expected)

    def test_g_dependence_note(self):
        def note(r, g, eps):
            ctx = ModuliContext(r, g, eps)
            return theta_g_dependence_note(ctx, tors_map_image(ctx))

        assert note(4, 9, 0) is None
        assert note(4, 9, 1) is None
        assert note(2, 9, 0) is None
        # at g = 11 the even-eps image is no longer trivial
        warning = note(4, 11, 0)
        assert warning is not None and "g-dependent" in warning


class TestH2ThetaSubgroup:
    def test_r2_eps0_whole(self):
        sub = h2_theta_subgroup(ModuliContext(2, 9, 0))
        assert sub.index == 1
        assert sub.group == FgAbGroup(1, (4,))

    def test_r2_eps1_index2(self):
        sub = h2_theta_subgroup(ModuliContext(2, 9, 1))
        assert sub.index == 2
        assert [render_class(x, 2) for x in sub.generators] == ["lambda", "2*mu"]

    def test_r4_eps1(self):
        sub = h2_theta_subgroup(ModuliContext(4, 9, 1))
        assert sub.index == 2
        assert [render_class(x, 4) for x in sub.generators] == ["2*mu", "lambda(1/4)"]
        assert sub.presentation.relations.to_rows() == [[4, -16]]

    def test_contains_all_lambdas(self):
        for r, eps in [(2, 1), (4, 1), (6, 1), (3, None)]:
            ctx = ctx_for(r, eps=eps)
            sub = h2_theta_subgroup(ctx)
            from rspin.classes import canonical_coords
            from rspin.abelian import subgroup_info
            from rspin.classes import coords_hom

            info = subgroup_info(ctx.torsion_order, coords_hom(ctx, sub.generators).generator_images)
            for a in range(-r, r + 1):
                c = canonical_coords(ctx, FormalClass.single(Lambda(a)))
                assert info.contains((c.d, c.tau // (24 // ctx.torsion_order)))

    def test_index_equals_image_order(self):
        from math import gcd

        from rspin.classes import default_generators

        for r, eps in [(2, 0), (2, 1), (4, 0), (4, 1), (6, 0), (6, 1), (8, 0), (8, 1)]:
            ctx = ctx_for(r, eps=eps)
            sub = h2_theta_subgroup(ctx)
            # the image of the full group is generated by the
            # evaluations of any generating set
            d = r
            for x in default_generators(ctx):
                d = gcd(d, eval_on_fiber(ctx, x))
            assert sub.index == r // d

    def test_supplied_generators_must_generate(self):
        ctx = ModuliContext(2, 9, 1)
        with pytest.raises(errors.NonGeneratingError) as exc:
            h2_theta_subgroup(ctx, [FormalClass.single(Lambda(2)), FormalClass.single(MU, 2)])
        assert exc.value.index == 2
        whole = [FormalClass.single(Lambda(2)), FormalClass.single(MU)]
        assert h2_theta_subgroup(ctx, whole) == h2_theta_subgroup(ctx)

    @pytest.mark.parametrize("r,eps", [(r, eps) for r in range(2, 49) for eps in ((0, 1) if r % 2 == 0 else (None,))])
    def test_generators_are_the_dense_sums(self, monkeypatch, r, eps):
        # on all named classes: each generator is sum c_i x_i over a kernel
        # row c, zero coefficients included. The index check fails at many
        # r (ROADMAP item 0); there the subgroup is read from what
        # subgroup_info receives, which must be the coordinates of the sums.
        from rspin import abelian, classes, twists

        ctx = ModuliContext(r, stable_genus(r), eps)
        gens = tuple(FormalClass.single(s) for s in classes.default_symbols(r))
        seen = []
        real = twists.subgroup_info

        def recording(n, images):
            seen.append(images)
            return real(n, images)

        monkeypatch.setattr(twists, "subgroup_info", recording)
        try:
            got = h2_theta_subgroup(ctx, gens).generators
        except errors.InternalConsistencyError:
            got = None
        evals = tuple((0, eval_on_fiber(ctx, x)) for x in gens)
        rows = abelian.kernel_lattice(abelian.HomZN(r, evals)).to_rows()
        dense = tuple(sum((c * x for c, x in zip(row, gens)), FormalClass()) for row in rows)
        assert seen == [classes.coords_hom(ctx, dense).generator_images]
        assert got in (None, dense)

    @pytest.mark.parametrize("r", range(2, 81))
    def test_coordinates_are_linear(self, monkeypatch, r):
        # the subgroup's coordinate map is built from the ambient one, row
        # by row; mapping its generators afresh must give the same images
        from rspin import classes, twists

        real, returned = twists.subgroup_info, 0
        for eps in (None,) if r % 2 else (0, 1):
            ctx = ModuliContext(r, stable_genus(r), eps)
            for gens in (None, tuple(FormalClass.single(s) for s in classes.default_symbols(r))):
                seen = []
                monkeypatch.setattr(twists, "subgroup_info", lambda n, images: seen.append(images) or real(n, images))
                try:
                    sub = h2_theta_subgroup(ctx, gens)
                except errors.InternalConsistencyError:
                    continue
                assert sub.presentation.generators == sub.generators
                assert [classes.coords_hom(ctx, sub.generators).generator_images] == seen
                returned += 1
        assert returned


class TestThetaWork:
    """Calls into the abelian and classes layers per query, counted by
    wrapping each function at every module that binds it."""

    @staticmethod
    def _count(monkeypatch, query, names=("kernel_lattice", "group_from_presentation", "subgroup_info"), home="abelian"):
        from rspin import abelian, classes, topology, twists

        calls = {}
        for name in names:
            real = getattr({"abelian": abelian, "classes": classes}[home], name)

            def counting(*args, _name=name, _real=real):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args)

            for mod in (abelian, classes, topology, twists):
                if getattr(mod, name, None) is real:
                    monkeypatch.setattr(mod, name, counting)
        query()
        return calls

    def test_theta_subgroup(self, monkeypatch):
        # the fixed pair is checked by one index test, not presented
        ctx = ModuliContext(12, 13, 0)
        calls = self._count(monkeypatch, lambda: h2_theta_subgroup(ctx))
        assert calls == {"kernel_lattice": 2, "group_from_presentation": 1, "subgroup_info": 2}

    def test_report_presentation(self, monkeypatch):
        from rspin.topology import picard_report

        ctx = ModuliContext(12, 13, 0)
        calls = self._count(monkeypatch, lambda: picard_report(ctx))
        assert calls == {"kernel_lattice": 1, "group_from_presentation": 1, "subgroup_info": 1}

    @pytest.mark.parametrize("r", [12, 10**12 + 1])
    @pytest.mark.parametrize("command", ["report", "theta", "eval"])
    def test_no_general_hermite(self, monkeypatch, capsys, command, r):
        # the fixed pair's queries take kernels and subgroups by steps in
        # Z^2; general Hermite form is a reference for the tests only
        from rspin import cli

        argv = [command, "--r", str(r), "--g", str(stable_genus(r))]
        if r % 2 == 0:
            argv += ["--eps", "0"]
        if command == "eval":
            argv.append(f"3*lambda(1/{r}) + kappa1")
        codes = []
        calls = self._count(
            monkeypatch, lambda: codes.append(cli.main(argv)), names=("hermite_normal_form", "subgroup_info")
        )
        assert codes == [0], capsys.readouterr().err
        assert "hermite_normal_form" not in calls
        # the counter is live: report and theta check the pair's index
        assert calls.get("subgroup_info", 0) == (0 if command == "eval" else 1 if command == "report" else 2)

    @pytest.mark.parametrize("r", [12, 10**12 + 1])
    def test_theta_maps_its_classes_once(self, monkeypatch, capsys, r):
        # the subgroup's coordinates come from the pair's, so one query
        # lifts the free generator once and maps classes once
        from rspin import cli

        argv = ["theta", "--r", str(r), "--g", str(stable_genus(r))] + (["--eps", "0"] if r % 2 == 0 else [])
        codes = []
        calls = self._count(
            monkeypatch, lambda: codes.append(cli.main(argv)), names=("generator_lift", "coords_hom"), home="classes"
        )
        assert codes == [0], capsys.readouterr().err
        assert calls == {"generator_lift": 1, "coords_hom": 1}

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "12", "--eps", "0"],
            ["report", "--r", str(10**12), "--eps", "0"],
            ["theta", "--r", "12", "--eps", "0"],
            ["theta", "--r", str(10**12 + 1)],
            ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
        ],
        ids=["report-12", "report-1e12", "theta-12", "theta-1e12+1", "eval-3"],
    )
    def test_context_computed_once(self, monkeypatch, capsys, argv):
        # the query's one ModuliContext stores u and N: u_r runs once, and
        # torsion_order_of once there and once inside u_r
        from rspin import cli

        if "--g" not in argv:
            argv = argv + ["--g", str(stable_genus(int(argv[2])))]
        codes = []
        calls = self._count(
            monkeypatch, lambda: codes.append(cli.main(argv)), names=("torsion_order_of", "u_r"), home="classes"
        )
        assert codes == [0], capsys.readouterr().err
        assert calls == {"torsion_order_of": 2, "u_r": 1}
