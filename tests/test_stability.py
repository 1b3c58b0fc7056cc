"""Homological stability along the genus axis: in the stable range H^2
does not depend on g, and neither do the named classes' coordinates.

r is drawn log-uniform up to 10^12, moved to each residue mod 12 in
turn. For each r the genera are the stable genus g0 = stable_genus(r)
and g0 + k * step, where step (r for odd r, r/2 for even r) keeps the
moduli nonempty, k is drawn up to 10^6, and one genus lies near 10^100.

* report and eval through cli.main --json must print, apart from
  context, what they print at g0.
* canonical_coords, torsion_generator, default_presentation and
  _fixed_pair must return at g what they return at g0.

theta and twist see g through chi = 2 - 2g in their fiber column
(ROADMAP item 0), but only through chi/r mod r: their --json without
context, the r = 4 warning read as present or not, must be the same at
g0 and at g0 + k * r * step, with r drawn as above plus r = 2..13 and k
up to 10^6. One step alone is not a period.
"""

import contextlib
import io
import json
import math
import random

import pytest

import rspin.classes as cl
from rspin import cli, errors
from rspin.expr import parse_class

_DRAWS = random.Random("homological-stability")


def _rs():
    """Three log-uniform r per residue mod 12, each at least 2."""
    rs = []
    for residue in range(12):
        for _ in range(3):
            r = round(math.exp(_DRAWS.uniform(math.log(12), math.log(10**12))))
            rs.append(max(r - r % 12 + residue, 2))
    return rs


RS = _rs()


def _genera(r: int, near_googol: bool) -> list:
    g0 = cl.stable_genus(r)
    step = r if r % 2 else r // 2
    ks = [_DRAWS.randint(1, 10**6), _DRAWS.randint(1, 10**6)]
    if near_googol:
        ks.append(10**100 // step + _DRAWS.randint(0, 10**6))
    return [g0] + [g0 + k * step for k in ks]


def _expression(rng, r: int) -> str:
    """A seeded combination of three named classes, first coefficient
    positive so argparse does not read it as an option."""
    names = ["lambda", "kappa1"] + (["mu"] if r % 2 == 0 else [])
    parts = []
    for i in range(3):
        kind = rng.choice(names)
        name = "mu" if kind == "mu" else f"{kind}({rng.randint(-r, 2 * r)}/{r})"
        c = rng.randint(1, 9)
        parts.append(f"{c}*{name}" if i == 0 else f"{rng.choice('+-')} {c}*{name}")
    return " ".join(parts)


def _json(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    assert code == 0, argv
    report = json.loads(out.getvalue())
    del report["context"]
    return report


def _outcome(f, *args):
    """f's value, or the type and text of the error it raises."""
    try:
        return f(*args)
    except errors.RSpinError as e:
        return type(e), str(e)


def _library(ctx, x) -> tuple:
    return (
        _outcome(cl.canonical_coords, ctx, x),
        _outcome(cl.torsion_generator, ctx),
        _outcome(cl.default_presentation, ctx),
        _outcome(cl._fixed_pair, ctx),
    )


def _cases():
    rng = random.Random("homological-stability-expr")
    for i, r in enumerate(RS):
        for eps in (None,) if r % 2 else (rng.randrange(2),):
            yield r, eps, _genera(r, near_googol=i == 0), _expression(rng, r)


CASES = list(_cases())


@pytest.mark.parametrize("r,eps,genera,text", CASES, ids=[f"r={r}" for r, *_ in CASES])
def test_stable_outputs_do_not_depend_on_g(r, eps, genera, text):
    def space(g):
        return ["--r", str(r), "--g", str(g)] + ([] if eps is None else ["--eps", str(eps)])

    x = parse_class(text, r)
    g0 = genera[0]
    want = [_json(["report"] + space(g0)), _json(["eval"] + space(g0) + [text]), _library(cl.ModuliContext(r, g0, eps), x)]
    for g in genera[1:]:
        got = [_json(["report"] + space(g)), _json(["eval"] + space(g) + [text]), _library(cl.ModuliContext(r, g, eps), x)]
        assert got == want, (r, g)


def test_draws_cover_every_residue_and_a_googol():
    assert {r % 12 for r in RS} == set(range(12))
    assert max(RS) > 10**10
    assert any(g > 10**100 for _, _, genera, _ in CASES for g in genera)


# theta and twist see g through the fiber weights 0, 2a^2 chi/r and
# arf r/2, that is through chi/r mod r, and through the torsion image
# r(12 eps + chi)/(8 gcd(r, 3)), which moves by a multiple of r when
# chi/r moves by one of r. g -> g + k r step moves chi/r by -2k step,
# a multiple of r for odd r (step = r) and for even r (step = r/2).
# Small r are added for theta's r = 4 warning.
FIBER_RS = list(range(2, 14)) + RS


def _fiber_cases():
    rng = random.Random("fiber-period")
    for r in FIBER_RS:
        step = r if r % 2 else r // 2
        for eps in (None,) if r % 2 else (0, 1):
            g0 = cl.stable_genus(r)
            yield r, eps, g0, g0 + rng.randint(1, 10**6) * r * step, rng.randint(1, 9), _expression(rng, r)


FIBER_CASES = list(_fiber_cases())


def _fiber_outcome(argv, g):
    """Exit code and --json report without context, the r = 4 warning
    as its presence (its text prints g); or the exit code and stderr
    with g masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--json"])
    if code:
        return code, err.getvalue().replace(f"g={g},", "g=*,")
    report = json.loads(out.getvalue())
    del report["context"]
    if "warning" in report:
        report["warning"] = True
    return code, report


def _theta_twist(r, eps, g, beta, text):
    space = ["--r", str(r), "--g", str(g)] + ([] if eps is None else ["--eps", str(eps)])
    arf = [] if eps is None else ["--arf", str(1 - eps)]
    return (
        _fiber_outcome(["theta"] + space, g),
        _fiber_outcome(["twist"] + space + arf + ["--beta", str(beta), text], g),
    )


@pytest.mark.parametrize("r,eps,g0,g,beta,text", FIBER_CASES, ids=[f"r={r}-eps={e}" for r, e, *_ in FIBER_CASES])
def test_theta_and_twist_have_period_r_step_in_g(r, eps, g0, g, beta, text):
    assert _theta_twist(r, eps, g, beta, text) == _theta_twist(r, eps, g0, beta, text)


def test_one_step_is_not_a_period():
    """g -> g + step moves chi/r by -2, and kappa1(1/5)'s shift 2 chi/r
    by -4 mod 5."""
    g0 = cl.stable_genus(5)
    shifts = [
        _fiber_outcome(["twist", "--r", "5", "--g", str(g), "--beta", "1", "kappa1(1/5)"], g)[1]["total_shift"]
        for g in (g0, g0 + 5)
    ]
    assert shifts == ["2 mod 5", "3 mod 5"]
