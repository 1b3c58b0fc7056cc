"""The immutable value classes (subclasses of rspin.abelian.Value): value
equality within a class, hashing, immutability, the Name(field=value, ...)
repr, and the checks their constructors make."""

import pytest

from rspin import errors
from rspin.abelian import FgAbGroup, HomZN, IntMatrix, smith_normal_form, subgroup_info
from rspin.classes import (
    CanonicalCoords,
    ClassSymbol,
    FormalClass,
    Kappa1,
    Lambda,
    MU,
    ModuliContext,
    canonical_coords,
    default_presentation,
)
from rspin.twists import TwistInput, ZrSubgroup, h2_theta_subgroup

# name: (fields, a builder called twice for equal values, a value of the
# same class that differs in a field, repr of the builder's value)
VALUES = {
    "IntMatrix": (
        ("rows", "cols", "nonzero"),
        lambda: IntMatrix.from_rows([[1, 2], [3, 4]]),
        lambda: IntMatrix.from_rows([[1, 2], [3, 5]]),
        "IntMatrix(rows=2, cols=2, entries=(1, 2, 3, 4))",
    ),
    "SmithForm": (
        ("s", "u", "v"),
        lambda: smith_normal_form(IntMatrix.from_rows([[2, 4]])),
        lambda: smith_normal_form(IntMatrix.from_rows([[2, 6]])),
        "SmithForm(s=IntMatrix(rows=1, cols=2, entries=(2, 0)), u=IntMatrix(rows=1, cols=1, entries=(1,)), "
        "v=IntMatrix(rows=2, cols=2, entries=(1, -2, 0, 1)))",
    ),
    "FgAbGroup": (
        ("free_rank", "invariant_factors"),
        lambda: FgAbGroup(1, (2, 4)),
        lambda: FgAbGroup(1, (2, 8)),
        "FgAbGroup(free_rank=1, invariant_factors=(2, 4))",
    ),
    "HomZN": (
        ("ambient_torsion", "generator_images"),
        lambda: HomZN(4, ((1, 5), (0, -1))),
        lambda: HomZN(4, ((1, 5), (0, -2))),
        "HomZN(ambient_torsion=4, generator_images=((1, 1), (0, 3)))",
    ),
    "SubgroupInfo": (
        ("ambient_torsion", "group", "index", "basis"),
        lambda: subgroup_info(4, [(1, 0), (0, 2)]),
        lambda: subgroup_info(4, [(1, 0), (0, 1)]),
        "SubgroupInfo(ambient_torsion=4, group=FgAbGroup(free_rank=1, invariant_factors=(2,)), index=2, "
        "basis=IntMatrix(rows=2, cols=2, entries=(1, 0, 0, 2)))",
    ),
    "ClassSymbol": (
        ("kind", "power"),
        lambda: Lambda(1),
        lambda: Kappa1(1),
        "ClassSymbol(kind='lambda', power=1)",
    ),
    "FormalClass": (
        ("terms",),
        lambda: FormalClass.of([(Lambda(1), 2), (MU, -1)]),
        lambda: FormalClass.of([(Lambda(1), 2), (MU, 1)]),
        "FormalClass(terms=((ClassSymbol(kind='lambda', power=1), 2), (ClassSymbol(kind='mu', power=0), -1)))",
    ),
    "ModuliContext": (
        ("r", "g", "eps", "allow_unstable", "chi", "u", "torsion_order"),
        lambda: ModuliContext(4, 9, 1),
        lambda: ModuliContext(4, 9, 0),
        "ModuliContext(r=4, g=9, eps=1, allow_unstable=False)",
    ),
    "CanonicalCoords": (
        ("d", "tau", "torsion_order"),
        lambda: canonical_coords(ModuliContext(3, 10), FormalClass.single(Lambda(1))),
        lambda: CanonicalCoords(-1, 16, 3),
        "CanonicalCoords(d=-1, tau=8, torsion_order=3)",
    ),
    "Presentation": (
        ("generators", "relations"),
        lambda: default_presentation(ModuliContext(3, 10)),
        lambda: default_presentation(ModuliContext(5, 11)),
        "Presentation(generators=(FormalClass(terms=((ClassSymbol(kind='lambda', power=3), 1),)), "
        "FormalClass(terms=((ClassSymbol(kind='lambda', power=1), 1),))), "
        "relations=IntMatrix(rows=1, cols=2, entries=(3, 9)))",
    ),
    "TwistInput": (
        ("ctx", "arf", "beta_coefficient"),
        lambda: TwistInput(ModuliContext(4, 9, 1), 1, 3),
        lambda: TwistInput(ModuliContext(4, 9, 1), 1, 2),
        "TwistInput(ctx=ModuliContext(r=4, g=9, eps=1, allow_unstable=False), arf=1, beta_coefficient=3)",
    ),
    "ZrSubgroup": (
        ("modulus", "generator"),
        lambda: ZrSubgroup(12, 4),
        lambda: ZrSubgroup(12, 6),
        "ZrSubgroup(modulus=12, generator=4)",
    ),
    "ThetaSubgroup": (
        ("generators", "presentation", "group", "index"),
        lambda: h2_theta_subgroup(ModuliContext(4, 9, 1)),
        lambda: h2_theta_subgroup(ModuliContext(4, 9, 0)),
        "ThetaSubgroup(generators=(FormalClass(terms=((ClassSymbol(kind='mu', power=0), 2),)), "
        "FormalClass(terms=((ClassSymbol(kind='lambda', power=1), 1),))), "
        "presentation=Presentation(generators=(FormalClass(terms=((ClassSymbol(kind='mu', power=0), 2),)), "
        "FormalClass(terms=((ClassSymbol(kind='lambda', power=1), 1),))), "
        "relations=IntMatrix(rows=1, cols=2, entries=(4, -16))), "
        "group=FgAbGroup(free_rank=1, invariant_factors=(4,)), index=2)",
    ),
}


@pytest.mark.parametrize("name", VALUES)
class TestValueClass:
    def test_equal_fields_equal_values(self, name):
        _, build, _, _ = VALUES[name]
        a, b = build(), build()
        assert type(a).__name__ == name
        assert a is not b
        assert a == b and not (a != b)
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_a_different_field_is_unequal(self, name):
        _, build, other, _ = VALUES[name]
        assert build() != other() and not (build() == other())

    def test_unequal_to_other_classes(self, name):
        fields, build, _, _ = VALUES[name]
        a = build()
        for other_name, (_, other_build, _, _) in VALUES.items():
            if other_name != name:
                assert a != other_build() and other_build() != a
        assert a != tuple(getattr(a, f) for f in fields)

    def test_fields_cannot_be_set_or_deleted(self, name):
        fields, build, _, _ = VALUES[name]
        a = build()
        before = [getattr(a, f) for f in fields]
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(a, f, None)
            with pytest.raises(AttributeError):
                delattr(a, f)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert [getattr(a, f) for f in fields] == before
        assert a == build()

    def test_repr(self, name):
        _, build, _, text = VALUES[name]
        assert repr(build()) == text


def test_allow_unstable_takes_no_part_in_equality():
    forced, plain = ModuliContext(3, 7, allow_unstable=True), ModuliContext(3, 7)
    assert forced == plain and hash(forced) == hash(plain)
    assert forced.allow_unstable and not plain.allow_unstable
    assert repr(forced) == "ModuliContext(r=3, g=7, eps=None, allow_unstable=True)"


def test_hom_reduces_torsion_mod_n():
    hom = HomZN(6, [(2, 13), (-1, -1), (0, 6)])
    assert hom.generator_images == ((2, 1), (-1, 5), (0, 0))
    assert hom == HomZN(6, ((2, 1), (-1, 5), (0, 0)))


@pytest.mark.parametrize(
    "name", ["SmithForm", "SubgroupInfo", "CanonicalCoords", "Presentation", "ZrSubgroup", "ThetaSubgroup"]
)
def test_storage_only_classes_take_one_argument_per_field(name):
    # these classes use Value's initializer: fields in __slots__ order
    fields, build, _, _ = VALUES[name]
    a = build()
    cls = type(a)
    values = [getattr(a, f) for f in fields]
    assert "__init__" not in vars(cls)
    assert cls(*values) == a
    for wrong in (values[:-1], values + [None], []):
        with pytest.raises(TypeError) as exc:
            cls(*wrong)
        assert str(exc.value) == f"{name} takes {len(fields)} fields, got {len(wrong)}"


def test_keyword_arguments_and_defaults():
    assert FgAbGroup(free_rank=2) == FgAbGroup(2, ())
    assert ClassSymbol("mu") == MU
    assert TwistInput(ModuliContext(3, 10)) == TwistInput(ModuliContext(3, 10), None, 0)
    assert ModuliContext(r=3, g=10, allow_unstable=True).eps is None


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: IntMatrix(-1, 0, ()), ValueError, "negative dimensions"),
        (lambda: IntMatrix(2, 2, (((0, 1),),)), ValueError, "row count does not match dimensions"),
        (lambda: FgAbGroup(-1), ValueError, "negative free rank"),
        (lambda: FgAbGroup(0, (1, 2)), ValueError, "invariant factors must be >= 2"),
        (lambda: FgAbGroup(0, (4, 2)), ValueError, "invariant factors must form a divisibility chain"),
        (lambda: HomZN(0, ()), ValueError, "modulus must be >= 1"),
        (lambda: ClassSymbol("nu", 1), ValueError, "unknown symbol kind 'nu'"),
        (lambda: ModuliContext(1, 1), ValueError, "r must be >= 2"),
        (lambda: ModuliContext(3, 1), ValueError, "g must be >= 2"),
        (lambda: ModuliContext(4, 9), errors.EpsParityError, "r = 4 is even: eps must be 0 or 1"),
        (lambda: ModuliContext(3, 10, 0), errors.EpsParityError, "r = 3 is odd: eps must be omitted"),
        (lambda: TwistInput(ModuliContext(4, 9, 1)), errors.EpsParityError, "arf must be 0 or 1 when r is even"),
        (lambda: TwistInput(ModuliContext(3, 10), 0), errors.EpsParityError, "arf must be omitted when r is odd"),
    ],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error and str(exc.value) == message
