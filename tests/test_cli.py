"""Command line behavior: golden output fragments, JSON round-trips,
and exit codes."""

import argparse
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
import threading
from json.encoder import encode_basestring
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import bench_oracle
from rspin import classes as cl
from rspin import abelian, cli, errors, expr, topology, twists
from test_golden_digest import _argvs as golden_argvs, argvs_at


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("RSPIN_NO_COLOR", "1")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_or_exit(capsys, *argv):
    """As `run`, but an argparse exit gives its code as the exit code."""
    try:
        code = cli.main(list(argv))
    except SystemExit as e:
        code = e.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _src_env():
    src = Path(__file__).resolve().parents[1] / "src"
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}


class TestReport:
    def test_r2(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "2", "--g", "9", "--eps", "0")
        assert code == 0
        assert "Z ⊕ Z/4" in out
        assert "4(lambda + 4*mu)" in out

    def test_r5_trivial_torsion(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "5", "--g", "16")
        assert code == 0
        assert "torsion: trivial" in out
        assert "h2: Z" in out

    def test_force_banner(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "3", "--g", "2", "--force")
        assert code == 0
        assert "UNVERIFIED (below stable range)" in out

    def test_below_range_exit_3(self, capsys):
        code, _, err = run(capsys, "report", "--r", "3", "--g", "2")
        assert code == 3
        assert "stable range" in err

    def test_missing_eps_exit_2(self, capsys):
        code, _, err = run(capsys, "report", "--r", "2", "--g", "9")
        assert code == 2

    def test_eps_for_odd_r_exit_2(self, capsys):
        code, _, err = run(capsys, "report", "--r", "3", "--g", "10", "--eps", "0")
        assert code == 2

    @pytest.mark.parametrize(
        "r,g,rendered",
        [
            (6, 10, "<lambda(2/6), mu | 12(3*lambda(2/6) - 4*mu)>"),
            (10, 11, "<lambda(2/10), mu | 4(25*lambda(2/10) + 4*mu)>"),
            (1002, 502, "<lambda(2/1002), mu | 12(83667*lambda(2/1002) + 330668*mu)>"),
        ],
    )
    def test_r_2_mod_4_pair(self, capsys, r, g, rendered):
        code, out, _ = run(capsys, "report", "--r", str(r), "--g", str(g), "--eps", "0", "--json")
        assert code == 0
        pres = json.loads(out)["presentation"]
        assert pres["generators"] == [f"lambda(2/{r})", "mu"]
        assert pres["rendered"] == rendered

    def test_r12002_runs(self, capsys):
        code, out, err = run(capsys, "report", "--r", "12002", "--g", "6002", "--eps", "0")
        assert code == 0, err
        assert "<lambda(2/12002), mu |" in out

    def test_empty_moduli_reported(self, capsys):
        code, out, _ = run(capsys, "report", "--r", "3", "--g", "9")
        assert code == 0
        assert "nonempty: false" in out
        assert "groups omitted" in out
        assert "h2:" not in out


class TestEval:
    def test_r3_example(self, capsys):
        code, out, _ = run(capsys, "eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda")
        assert code == 0
        assert "d: 0" in out
        assert "phi: 8" in out
        assert "torsion of order 3" in out

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "--r", "2", "--g", "9", "--eps", "1", "0")
        assert code == 0
        assert "d: 0" in out and "phi: 0" in out

    def test_r4_torsion(self, capsys):
        code, out, _ = run(capsys, "eval", "--r", "4", "--g", "9", "--eps", "0", "mu - 2*lambda(1/4)")
        assert code == 0
        assert "phi: 21" in out
        assert "torsion of order 8" in out

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--r", "4", "--g", "9", "--eps", "0", "lambda(1/3)")
        assert code == 2
        assert "position" in err

    def test_mu_odd_exit_2(self, capsys):
        code, _, err = run(capsys, "eval", "--r", "3", "--g", "10", "mu")
        assert code == 2
        assert "mu" in err

    def test_leading_minus_after_double_dash(self, capsys):
        # argparse reads an argument that starts with "-" and has no
        # space as a flag
        argv = ["eval", "--r", "3", "--g", "10"]
        assert run_or_exit(capsys, *argv, "-lambda(1/3)")[0] == 2
        code, out, err = run(capsys, *argv, "--", "-lambda(1/3)")
        assert code == 0, err
        assert "expression: -lambda(1/3)" in out

    @given(
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=1, max_value=10**298) | st.integers(min_value=1, max_value=50),
        st.sampled_from([0, 1]),
        st.lists(
            st.tuples(st.sampled_from(["lambda", "kappa1", "mu"]), st.integers(-60, 60), st.integers(-9, 9)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_tau_rule(self, c, k, eps, terms):
        """eval's tau is (phi - d P[r mod 12]) mod 24 at every r, where P[c]
        is phi of the generator lift; d and phi are checked against the
        closed forms of bench/oracle.py."""
        P = (12, 2, 23, 6, 22, 2, 11, 2, 4, 6, 23, 2)
        r = 12 * k + c
        odd = r % 2
        terms = bench_oracle.normalize([t for t in terms if not (odd and t[0] == "mu")])
        g = 9 + (1 - 9) % (r if odd else r // 2)
        argv = ["eval", "--r", str(r), "--g", str(g)] + ([] if odd else ["--eps", str(eps)])
        code, out, err = _main_result(argv + ["--json", "--", bench_oracle.render_class(r, terms)])
        assert code == 0, err
        report = json.loads(out)
        d, phi = bench_oracle.class_coords(r, terms)
        assert (int(report["d"]), int(report["phi"])) == (d, phi)
        assert int(report["tau"]) == (phi - d * P[c]) % 24


class TestTheta:
    def test_r2_eps1(self, capsys):
        code, out, _ = run(capsys, "theta", "--r", "2", "--g", "9", "--eps", "1")
        assert code == 0
        assert "index: 2" in out
        assert "- lambda" in out and "- 2*mu" in out

    def test_r3(self, capsys):
        code, out, _ = run(capsys, "theta", "--r", "3", "--g", "10")
        assert code == 0
        assert "h1: Z/3" in out
        assert "index: 1" in out

    def test_r4_eps0(self, capsys):
        code, out, _ = run(capsys, "theta", "--r", "4", "--g", "9", "--eps", "0")
        assert code == 0
        assert "h1: Z/8" in out
        assert "warning" not in out
        code, out, _ = run(capsys, "theta", "--r", "4", "--g", "9", "--eps", "0", "--json")
        assert code == 0
        assert "warning" not in json.loads(out)

    def test_force_below_range(self, capsys):
        code, out, err = run(capsys, "theta", "--r", "4", "--g", "5", "--eps", "1", "--force")
        assert code == 0, err
        assert "UNVERIFIED (below stable range)" in out
        assert "order: 2" in out

    def test_internal_mismatch_exit_4(self, capsys):
        code, _, err = run(capsys, "theta", "--r", "9", "--g", "10")
        assert code == 4
        assert "consistency" in err

    # pins the current r = 4 g-dependence note (ROADMAP item 0 decides
    # whether it stays)
    _R4_NOTE = (
        "fiber image at (r=4, g=11, eps=0) has order 2, not the order 1 seen at g=9; "
        "the image formula is g-dependent"
    )

    def test_r4_g11_warning(self, capsys):
        code, out, err = run(capsys, "theta", "--r", "4", "--g", "11", "--eps", "0")
        assert (code, err) == (0, "")
        assert out.endswith(f"warning: {self._R4_NOTE}\n")
        code, out, err = run(capsys, "theta", "--r", "4", "--g", "11", "--eps", "0", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["warning"] == self._R4_NOTE

    @pytest.mark.parametrize("r,g,eps", [("4", "11", "0"), ("10", "11", "1"), ("3", "10", None)])
    def test_fiber_image_computed_once(self, capsys, monkeypatch, r, g, eps):
        calls = []
        real = twists.tors_map_image

        def counting(ctx):
            calls.append(ctx.r)
            return real(ctx)

        monkeypatch.setattr(twists, "tors_map_image", counting)
        code, _, err = run(capsys, "theta", "--r", r, "--g", g, *(["--eps", eps] if eps else []))
        assert code == 0, err
        assert len(calls) == 1


class TestTwist:
    def test_lambda_invariant(self, capsys):
        code, out, _ = run(
            capsys, "twist", "--r", "6", "--g", "10", "--eps", "0", "--arf", "1", "--beta", "3",
            "5*lambda(2/6) - lambda",
        )
        assert code == 0
        assert "total shift: 0 mod 6" in out

    def test_mu_r4(self, capsys):
        code, out, _ = run(
            capsys, "twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"
        )
        assert code == 0
        assert "total shift: 2 mod 4" in out

    def test_kappa_r2(self, capsys):
        code, out, _ = run(
            capsys, "twist", "--r", "2", "--g", "9", "--eps", "0", "--arf", "0", "--beta", "1",
            "kappa1(1/2)",
        )
        assert code == 0
        assert "total shift: 0 mod 2" in out

    def test_leading_minus_after_double_dash(self, capsys):
        argv = ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1"]
        assert run_or_exit(capsys, *argv, "-mu")[0] == 2
        code, out, err = run(capsys, *argv, "--", "-mu")
        assert code == 0, err
        assert "expression: -mu" in out
        assert "total shift: 2 mod 4" in out

    def test_below_range_exit_3(self, capsys):
        code, out, err = run(capsys, "twist", "--r", "4", "--g", "5", "--eps", "1", "--arf", "1", "--beta", "1", "mu")
        assert code == 3
        assert out == "" and err == "error: g = 5 is below the stable range g >= 9 for H^2\n"

    def test_force_below_range(self, capsys):
        code, out, err = run(
            capsys, "twist", "--r", "4", "--g", "5", "--eps", "1", "--arf", "1", "--beta", "1", "--force", "mu"
        )
        assert code == 0, err
        assert "UNVERIFIED (below stable range)" in out
        assert "total shift: 2 mod 4" in out


    @pytest.mark.parametrize(
        "argv",
        [
            ["--r", "3", "--g", "9", "--beta", "1", "lambda"],
            ["--r", "4", "--g", "10", "--eps", "0", "--arf", "0", "--beta", "1", "mu"],
            ["--r", "3", "--g", "9", "--beta", "1", "kappa1"],
            ["--r", "3", "--g", "9", "--beta", "1", "0"],
        ],
    )
    def test_empty_space_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "twist", *argv)
        assert code == 2
        assert out == "" and err.startswith("error: no ") and err.count("\n") == 1


class TestTable:
    def test_rows_2_to_4(self, capsys):
        code, out, _ = run(capsys, "table", "--r-min", "2", "--r-max", "4")
        assert code == 0
        assert "u r: 12" in out and "u r: 4" in out and "u r: 6" in out
        for mult in ("4", "3", "8"):
            assert f"pi2 multiplier: {mult}" in out

    def test_r5(self, capsys):
        code, out, _ = run(capsys, "table", "--r-min", "5", "--r-max", "5")
        assert code == 0
        assert "pi2 multiplier: 25" in out
        assert "torsion: 0" in out

    def test_empty_range(self, capsys):
        code, out, err = run(capsys, "table", "--r-min", "5", "--r-max", "4")
        assert code == 2
        assert out == "" and err == "error: empty range: --r-min 5 is greater than --r-max 4\n"

    @pytest.mark.parametrize("lo,hi", [(1, 1), (1, 5), (0, 0), (0, 3), (-1, 2), (-7, 40)])
    def test_r_min_below_2(self, capsys, lo, hi):
        # the same one line for every --r-min below 2, as report --r 1 gives
        code, out, err = run(capsys, "table", "--r-min", str(lo), "--r-max", str(hi))
        assert (code, out, err) == (2, "", "error: r must be >= 2\n")
        assert run(capsys, "report", "--r", "1", "--g", "9")[1:] == ("", err)

    def test_empty_range_first(self, capsys):
        code, out, err = run(capsys, "table", "--r-min", "1", "--r-max", "0")
        assert (code, out, err) == (2, "", "error: empty range: --r-min 1 is greater than --r-max 0\n")


class TestOnePresentationPerQuery:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "3", "--g", "10"],
            ["report", "--r", "6", "--g", "10", "--eps", "1"],
            ["report", "--r", "8", "--g", "13", "--eps", "0"],
            ["theta", "--r", "10", "--g", "11", "--eps", "1"],
        ],
    )
    def test_presentation_runs_once(self, capsys, monkeypatch, argv):
        # every Presentation is built by kernel_presentation: report's by
        # presentation on the fixed pair, theta's for the subgroup only
        calls = []
        real = cl.kernel_presentation

        def counting(gens, hom, group):
            calls.append(len(gens))
            return real(gens, hom, group)

        monkeypatch.setattr(cl, "kernel_presentation", counting)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(calls) == 1


class TestNoKernelSweepPerQuery:
    def test_golden_argvs_take_the_closed_form(self, monkeypatch):
        # every query's kernels have at most two columns: none reaches
        # kernel_lattice's sweep, whose steps are counted here, and
        # kernel_lattice's closed form runs instead
        calls = {}

        def counting(name):
            real = getattr(abelian, name)

            def wrapper(*args):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            return wrapper

        for name in ("_member_run", "_run_rows", "_hermite2", "_small_kernel"):
            monkeypatch.setattr(abelian, name, counting(name))
        for argv in golden_argvs():
            _main_result(argv)
        assert calls.keys() == {"_small_kernel"}


class TestOneContextPerQuery:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "3", "--g", "10"],
            ["report", "--r", "6", "--g", "10", "--eps", "1"],
            ["theta", "--r", "4", "--g", "9", "--eps", "1"],
            ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
            ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
        ],
    )
    def test_context_built_once(self, capsys, monkeypatch, argv):
        built = []
        real = cl.ModuliContext.__init__

        def counting(ctx, *args, **kwargs):
            real(ctx, *args, **kwargs)
            built.append((ctx.r, ctx.g, ctx.eps))

        monkeypatch.setattr(cl.ModuliContext, "__init__", counting)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert len(built) == 1


# Exit codes per (r, g, --force) for report, eval, theta and twist. Every
# subcommand with --g checks its context parameters (exit 2), then the
# genus range (exit 3), then emptiness or its other input (exit 2). theta
# exits 4 at (3, 7) with --force because its two fiber-image computations
# disagree at odd r divisible by 3 (ROADMAP item 0).
_GUARD_CODES = {
    (3, 5, False): (3, 3, 3, 3),  # empty, below the range
    (3, 5, True): (0, 2, 2, 2),
    (3, 9, False): (0, 2, 2, 2),  # empty, in the range: report notes it
    (3, 9, True): (0, 2, 2, 2),
    (3, 7, False): (3, 3, 3, 3),  # nonempty, below the range
    (3, 7, True): (0, 0, 4, 0),
}
_GUARD_ARGS = {"report": [], "eval": ["lambda"], "theta": [], "twist": ["--beta", "1", "lambda"]}


class TestGuardOrder:
    @pytest.mark.parametrize(
        "cmd,r,g,force,expected",
        [
            (cmd, r, g, force, codes[i])
            for (r, g, force), codes in _GUARD_CODES.items()
            for i, cmd in enumerate(_GUARD_ARGS)
        ],
    )
    def test_exit_code_and_one_line(self, capsys, cmd, r, g, force, expected):
        argv = [cmd, "--r", str(r), "--g", str(g)] + (["--force"] if force else []) + _GUARD_ARGS[cmd]
        code, out, err = run(capsys, *argv)
        assert code == expected, err
        if code == 0:
            assert out and err == ""
            return
        assert out == "" and err.count("\n") == 1
        if code == 3:
            assert err == f"error: g = {g} is below the stable range g >= 9 for H^2\n"
        elif code == 2:
            assert err.startswith(f"error: no 3-Spin structures in genus {g}:")


class TestEvalForce:
    def test_force_below_range(self, capsys):
        code, out, err = run(capsys, "eval", "--r", "3", "--g", "4", "--force", "lambda")
        assert code == 0 and err == ""
        assert "banner: UNVERIFIED (below stable range)" in out

    def test_below_range_exit_3(self, capsys):
        code, out, err = run(capsys, "eval", "--r", "3", "--g", "4", "lambda")
        assert code == 3
        assert out == "" and err == "error: g = 4 is below the stable range g >= 9 for H^2\n"


class TestCostIndependentOfR:
    """No query path walks the r + 3 default symbols: with default_symbols
    refusing, report, theta and eval still answer at r near 10^12."""

    @pytest.mark.parametrize("r", [10**12, 10**12 + 1, 10**12 + 2, 10**12 + 4])
    def test_no_scan_over_r(self, capsys, monkeypatch, r):
        def refuse(n):
            raise AssertionError(f"default_symbols({n}) called on a query path")

        monkeypatch.setattr(cl, "default_symbols", refuse)
        base = ["--r", str(r), "--g", str(cl.stable_genus(r))] + (["--eps", "1"] if r % 2 == 0 else [])
        for argv in (["report"] + base, ["theta"] + base, ["eval"] + base + [f"lambda(1/{r}) + kappa1(1/{r})"]):
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            assert out and err == ""


class TestResourceFailure:
    def test_memory_error_exit_2(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(topology, "picard_report", exhausted)
        code, out, err = run(capsys, "report", "--r", "3", "--g", "10")
        assert code == 2
        assert out == "" and err == "error: out of memory\n"

    def test_memory_error_while_parsing(self, capsys, monkeypatch):
        def exhausted():
            raise MemoryError

        monkeypatch.setattr(cli, "build_parser", exhausted)
        code, out, err = run(capsys, "report", "--r", "3", "--g", "10")
        assert code == 2
        assert out == "" and err == "error: out of memory\n"


class TestTorsionSubgroupCheck:
    """classes._coords, the one home of the rule that a class's torsion
    part lies in the order-N subgroup of Z/24, is the exit-4 route for a
    wrong phi column: with mu's phi moved from 1 to 5, this golden argv
    would otherwise print a wrong tau. coords_hom, which maps every class
    of a presentation, meets the same check."""

    @pytest.fixture
    def shifted_mu_phi(self, monkeypatch):
        record = cl.symbol_record

        def shifted(ctx, sym, arf=None):
            v, phi, w = record(ctx, sym, arf)
            return v, phi + 4 if sym == cl.MU else phi, w

        monkeypatch.setattr(cl, "symbol_record", shifted)

    def test_wrong_mu_phi_exits_4(self, capsys, shifted_mu_phi):
        code, out, err = run(capsys, "eval", "--r", "2", "--g", "9", "--eps", "0", "lambda(1/2) - 2*kappa1(1/2) + mu")
        assert code == 4 and out == ""
        assert err == (
            "internal consistency error: torsion part of a class maps to 16 in Z/24,"
            " outside the order-4 subgroup\n"
        )

    def test_wrong_mu_phi_in_coords_hom(self, shifted_mu_phi):
        ctx = cl.ModuliContext(2, 9, 0)
        gens = [cl.FormalClass.single(s) for s in cl.default_symbols(2)]
        pattern = r"torsion part of a class maps to \d+ in Z/24, outside the order-4 subgroup"
        with pytest.raises(errors.InternalConsistencyError, match=pattern):
            cl.coords_hom(ctx, gens)


class TestLongIntegers:
    """Inputs are parsed under the interpreter's int/str digit limit
    (4300 by default on CPython 3.11), but chi = 2 - 2g and r^2 may have
    more digits: the query prints them in full and leaves the limit as
    it was."""

    def _limit(self):
        return getattr(sys, "get_int_max_str_digits", lambda: None)()

    def test_genus_at_the_limit(self, capsys):
        before = self._limit()
        g = "9" + "0" * 4299  # 4300 digits, so chi has 4301
        code, out, err = run(capsys, "report", "--r", "2", "--g", g, "--eps", "0")
        assert (code, err) == (0, "")
        assert f"  g: {g}\n" in out
        assert f"  chi: -17{'9' * 4298}8\n" in out
        assert self._limit() == before

    def test_r_whose_square_passes_the_limit(self, capsys):
        before = self._limit()
        r = "1" + "0" * 2200  # r = 4 mod 12: u = 6
        code, out, err = run(capsys, "report", "--r", r, "--g", "9", "--eps", "0", "--json")
        assert (code, err) == (0, "")
        table = json.loads(out)["divisibility"]
        assert table["lambda"] == "5" + "0" * 4399  # u r^2/12
        assert table["kappa1"] == "6" + "0" * 4400  # u r^2
        assert table["mu"] == "-125" + "0" * 4397  # -u r^2/48
        assert self._limit() == before

    def test_longer_input_is_still_rejected(self, capsys):
        limit = self._limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        code, out, err = run_or_exit(capsys, "report", "--r", "2", "--g", "9" * (limit + 1), "--eps", "0")
        assert code == 2 and out == ""
        assert "invalid int value" in err
        assert self._limit() == limit

    @pytest.mark.parametrize("cmd", [["eval"], ["twist", "--beta", "1"]])
    def test_expression_literal_at_the_limit(self, capsys, cmd):
        # an expression is input: its literals are held to the limit, as
        # the numbers in argv are
        limit = self._limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        base = cmd[:1] + ["--r", "3", "--g", "10"] + cmd[1:]
        code, out, err = run(capsys, *base, f"lambda({'1' * limit}/3)")
        assert (code, err) == (0, "")
        assert f"expression: lambda({'1' * limit}/3)\n" in out
        code, out, err = run(capsys, *base, f"lambda({'1' * (limit + 1)}/3)")
        assert (code, out) == (2, "")
        assert err == f"error: integer literal has {limit + 1} digits, over the limit of {limit} (at position 7)\n"
        assert self._limit() == limit

    def test_concurrent_call_parses_under_the_limit(self, capsys, monkeypatch):
        # while one main call is inside its query, another call runs to
        # its end, and parses its argv under the limit
        limit = self._limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        entered, release = threading.Event(), threading.Event()
        parse_class = expr.parse_class

        def waiting(*args):
            entered.set()
            release.wait()
            return parse_class(*args)

        monkeypatch.setattr(expr, "parse_class", waiting)
        codes = {}

        def call(name, *argv):
            try:
                codes[name] = cli.main(list(argv))
            except SystemExit as e:
                codes[name] = e.code

        a = threading.Thread(
            target=call,
            args=("a", "eval", "--r", "9" * (limit - 1), "--g", "1" + "0" * (limit - 1), "--json", "lambda"),
            daemon=True,
        )
        b = threading.Thread(target=call, args=("b", "report", "--r", "3", "--g", "9" * (limit + 1)), daemon=True)
        a.start()
        try:
            assert entered.wait(timeout=60)
            b.start()
            b.join(timeout=60)
            assert not b.is_alive()  # main takes no lock: b does not wait for a
        finally:
            release.set()
        a.join(timeout=60)
        b.join(timeout=60)
        assert codes == {"a": 0, "b": 2}
        out, err = capsys.readouterr()
        assert json.loads(out)["diagnosis"] == "infinite order"
        assert "invalid int value" in err
        assert self._limit() == limit

    def test_main_leaves_the_limit_alone(self, capsys, monkeypatch):
        # the limit is process-wide; inside a query it stays as it was, and
        # another thread's conversions stay bounded
        limit = self._limit()
        if not limit:
            pytest.skip("this interpreter has no int/str digit limit")
        seen = []
        canonical_coords = cl.canonical_coords

        def convert_long():
            try:
                int("9" * (limit + 1))
                seen.append("converted")
            except ValueError:
                seen.append("refused")

        def watching(*args):
            seen.append(self._limit())
            other = threading.Thread(target=convert_long)
            other.start()
            other.join(timeout=60)
            return canonical_coords(*args)

        monkeypatch.setattr(cl, "canonical_coords", watching)
        code, out, err = run(capsys, "eval", "--r", "3", "--g", "10", "lambda")
        assert (code, err) == (0, "")
        assert seen == [limit, "refused"]

    def test_long_answers_as_with_the_limit_lifted(self):
        # under the limit, str() or an f-string of a longer answer raises
        # ValueError, which main would report as an input error (exit 2).
        # The battery runs under the smallest limit the interpreter takes,
        # so that its numbers are short and it runs in under a second.
        if self._limit() is None:
            pytest.skip("this interpreter has no int/str digit limit")
        before, limit = self._limit(), sys.int_info.str_digits_check_threshold
        longer = re.compile(rf"\d{{{limit + 1}}}")
        try:
            for variant, argvs in _long_answer_argvs(limit).items():
                printed_long = False
                for argv in argvs:
                    sys.set_int_max_str_digits(limit)
                    under = _main_result(argv)
                    sys.set_int_max_str_digits(0)
                    lifted = _main_result(argv)
                    assert under == lifted, (variant, argv)
                    printed_long = printed_long or (under[0] == 0 and bool(longer.search(under[1])))
                assert printed_long, variant
        finally:
            sys.set_int_max_str_digits(before)


_TERM = re.compile(r"(?:\d+\*)?\b(lambda|kappa1|mu)\b")


def _long_coefficients(word, limit):
    """An expression with every coefficient made limit digits long and
    the whole written twice, so that each sum of coefficients passes the
    limit; any other argv word as it is."""
    if not _TERM.search(word):
        return word
    once = _TERM.sub(lambda m: f"{'9' * limit}*{m[1]}", word)
    return f"{once} + {once}"


def _long_answer_argvs(limit):
    """Every argv shape of the golden list (test_golden_digest.argvs_at)
    in three variants, each with its input within the limit and answers
    past it, by variant name:
    - r: at each residue mod 12, an r of the limit's length over half of
      10^limit (so 2r is one digit longer) and below 10^limit - 11 (so
      its stable genus, at most r + 1, fits the limit), at that genus;
    - g: at r = 2..13, the largest nonempty g of the limit's length (so
      2 - 2g is one digit longer) and the empty g just below it (none
      at r = 2);
    - coefficients: at r = 2..13, eval and twist with the expressions of
      _long_coefficients;
    plus a 2-row table at the largest r of the limit's length."""
    top = 10**limit - 1
    out = {"r": [], "g": [], "coefficients": []}
    for c in range(12):
        r = top - 11 - (top - 11 - c) % 12
        out["r"] += argvs_at(r, [cl.stable_genus(r)])
    for r in range(2, 14):
        # g is nonempty exactly when g = 1 mod step
        step = r if r % 2 else r // 2
        g = top - (top - 1) % step
        out["g"] += argvs_at(r, [g] + ([g - 1] if step > 1 else []))
        out["coefficients"] += [
            [_long_coefficients(word, limit) for word in argv]
            for argv in argvs_at(r, [cl.stable_genus(r)])
            if argv[0] in ("eval", "twist")
        ]
    table = ["table", "--r-min", str(top - 1), "--r-max", str(top)]
    out["table"] = [table, table + ["--json"]]
    return out


class TestJson:
    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "2", "--g", "9", "--eps", "0"],
            ["report", "--r", "5", "--g", "16"],
            ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
            ["theta", "--r", "4", "--g", "9", "--eps", "1"],
            ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
            ["table", "--r-min", "2", "--r-max", "6"],
        ],
    )
    def test_round_trip(self, capsys, argv):
        code, text_out, _ = run(capsys, *argv)
        assert code == 0
        code, json_out, _ = run(capsys, *argv, "--json")
        assert code == 0
        parsed = json.loads(json_out)
        # re-rendering the parsed JSON reproduces the text output
        assert cli._render_text(parsed, color=False) + "\n" == text_out

    def test_numerics_are_strings(self, capsys):
        _, json_out, _ = run(capsys, "report", "--r", "2", "--g", "9", "--eps", "0", "--json")
        parsed = json.loads(json_out)

        def walk(node):
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)
            else:
                assert isinstance(node, (str, bool))

        walk(parsed)


class TestUsage:
    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--bogus"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_no_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2
        capsys.readouterr()


class _Terminal(io.StringIO):
    def isatty(self):
        return True


class TestColor:
    def test_bold_block_headings_on_a_terminal(self, monkeypatch):
        argv = ["report", "--r", "2", "--g", "9", "--eps", "0"]
        monkeypatch.setattr(sys, "stdout", _Terminal())
        assert cli.main(argv) == 0
        plain = sys.stdout.getvalue()
        monkeypatch.delenv("RSPIN_NO_COLOR")
        monkeypatch.setattr(sys, "stdout", _Terminal())
        assert cli.main(argv) == 0
        colored = sys.stdout.getvalue()
        bold = re.findall(r"\x1b\[1m([^\x1b]*)\x1b\[0m", colored)
        assert bold == ["context:", "divisibility:", "groups:", "torsion:", "presentation:"]
        assert colored.replace("\x1b[1m", "").replace("\x1b[0m", "") == plain
        assert "\x1b" not in plain


class TestClosedPipe:
    def test_reader_closing_early_exits_0(self):
        # as in `rspin table ... | head -2`: the 340 kB table outgrows the
        # pipe buffer, so the CLI is still writing when the reader leaves
        argv = [sys.executable, "-m", "rspin.cli", "table", "--r-min", "2", "--r-max", "3000"]
        proc = subprocess.Popen(argv, env=_src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.read(100)
        proc.stdout.close()
        try:
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        with proc.stderr:
            err = proc.stderr.read()
        assert (code, err) == (0, b"")


class TestSharedParser:
    """One parser per process: built by the first `main`, only read after."""

    # every subcommand, with and without --force, --eps, --arf and --json,
    # plus argvs that end in each exit code and two that argparse rejects
    ARGVS = [
        ["report", "--r", "4", "--g", "7", "--eps", "1", "--force"],
        ["report", "--r", "4", "--g", "7", "--eps", "1"],
        ["report", "--r", "4", "--g", "9", "--eps", "0", "--json"],
        ["report", "--r", "3", "--g", "10"],
        ["report", "--r", "3", "--g", "10", "--eps", "0"],
        ["report", "--r", "2", "--g", "9"],
        ["theta", "--r", "4", "--g", "9", "--eps", "1", "--json"],
        ["theta", "--r", "4", "--g", "9", "--eps", "1"],
        ["theta", "--r", "3", "--g", "2", "--force"],
        ["theta", "--r", "3", "--g", "2"],
        ["eval", "--r", "3", "--g", "10", "--json", "3*lambda(1/3) + lambda"],
        ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
        ["eval", "--r", "4", "--g", "9", "--eps", "1", "mu"],
        ["eval", "--r", "3", "--g", "2", "--force", "lambda"],
        ["eval", "--r", "3", "--g", "10", "lambda(1/"],
        ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "--json", "mu"],
        ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
        ["twist", "--r", "4", "--g", "9", "--eps", "1", "--beta", "1", "mu"],
        ["twist", "--r", "4", "--g", "5", "--eps", "1", "--arf", "1", "--beta", "1", "--force", "mu"],
        ["twist", "--r", "4", "--g", "5", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
        ["table", "--r-min", "2", "--r-max", "6", "--json"],
        ["table", "--r-min", "2", "--r-max", "6"],
        ["table", "--r-min", "6", "--r-max", "2"],
        ["report", "--bogus"],
        ["report", "--r", "4", "--g", "9", "--eps", "2"],
    ]

    def test_no_parser_rebuilds(self, capsys, monkeypatch):
        cli.build_parser()
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        codes = {run_or_exit(capsys, *argv)[0] for argv in self.ARGVS}
        assert codes == {0, 2, 3}
        assert built == []

    def test_state_independent_of_call_order(self, capsys):
        forward = {tuple(argv): run_or_exit(capsys, *argv) for argv in self.ARGVS}
        backward = {tuple(argv): run_or_exit(capsys, *argv) for argv in reversed(self.ARGVS)}
        assert backward == forward
        assert forward[tuple(self.ARGVS[0])][0] == 0
        assert forward[tuple(self.ARGVS[1])][0] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "3", "--g", "10"],
            ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
            ["eval", "--r", "3", "--g", "10", "lambda(1/"],
            ["report", "--r", "3", "--g", "10", "--json"],
            ["eval", "--r", "3", "--g", "10", "--json", "3*lambda(1/3) + lambda"],
            ["eval", "--r", "3", "--g", "10", "--json", "lambda(1/"],
        ],
    )
    def test_no_cyclic_garbage(self, capsys, argv):
        run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()

    # standard modules that no query needs at import: dataclasses (which
    # loads inspect), typing, fractions (eval loads it), json (--json),
    # threading and decimal (only an answer past the digit limit)
    UNNEEDED = ("dataclasses", "inspect", "typing", "fractions", "json", "threading", "decimal")

    def test_import_builds_no_parser(self):
        child = (
            "import argparse, sys\n"
            "built = []\n"
            "real_init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(kwargs.get('prog'))\n"
            "    real_init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import rspin.cli\n"
            "at_import = len(built)\n"
            f"loaded = [m for m in {self.UNNEEDED!r} if m in sys.modules]\n"
            "rspin.cli.build_parser()\n"
            "print(at_import, len(built) > 0, loaded)\n"
        )
        # -S: no site module, whose .pth files may load typing on their own
        argv = [sys.executable, "-S", "-c", child]
        proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "0 True []\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_cold_eval_loads_what_it_needs(self, as_json):
        argv = [sys.executable, "-m", "rspin.cli", "eval", "--r", "4", "--g", "9", "--eps", "1"]
        argv += ["--json"] * as_json + ["kappa1(1/4) - lambda"]
        proc = subprocess.run(argv, env=_src_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        if as_json:
            assert json.loads(proc.stdout)["rational_multiple_of_lambda"] == "-1/4"
        else:
            assert "\nrational multiple of lambda: -1/4\n" in proc.stdout

    @pytest.mark.parametrize("argv", [["--help"], ["report", "--help"]])
    def test_help_matches_fresh_parser(self, capsys, argv):
        outs = []
        for parse in (cli.main, cli.main, cli.build_parser.__wrapped__().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            assert exc.value.code == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] and outs[0] == outs[1] == outs[2]


def _main_result(argv):
    """(exit code, stdout, stderr) of one cli.main call; an argparse exit
    gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


# Argv pieces for TestPlainReader: option strings, their prefixes,
# --opt=value, help, the separator, unknown words, and values that are
# plain, negative, padded, underscored, Unicode-digit, 4300 and 4301
# digits long, empty or words
_OPTIONS = ["--r", "--g", "--eps", "--arf", "--beta", "--r-min", "--r-max"]
_FLAGS = ["--force", "--json"]
_ODD = ["--fo", "--js", "--e", "--r-", "--be", "--r=4", "--eps=1", "--json=", "-h", "--help", "--", "-r", "--bogus"]
_VALUES = ["0", "1", "2", "3", "4", "9", "10", "12", "-1", "-4", " 4", "4 ", "+4", "1_2", "1__2", "٤", "９", "١٠",
           "", "x", "1e3", "9" * 4300, "9" * 4301]
_EXPRESSIONS = ["3*lambda(1/3) + lambda", "mu", "lambda(1/", "kappa1(1/4) - lambda", "-lambda(1/3)", "-mu"]
# per first word, option-value pairs of which a draw keeps some
_CORES = {
    "report": [("--r", "4"), ("--g", "9"), ("--eps", "1")],
    "theta": [("--r", "3"), ("--g", "10")],
    "eval": [("--r", "3"), ("--g", "10"), ("3*lambda(1/3) + lambda",)],
    "twist": [("--r", "4"), ("--g", "9"), ("--eps", "1"), ("--arf", "1"), ("--beta", "1"), ("mu",)],
    "table": [("--r-min", "2"), ("--r-max", "6")],
    "bogus": [("--r", "4")],
    "repor": [("--r", "4")],
    "-h": [("--r", "4")],
    "--json": [("--r", "4")],
}


@st.composite
def _argvs(draw):
    head = draw(st.sampled_from(sorted(_CORES)))
    group = st.one_of(
        st.tuples(st.sampled_from(_OPTIONS), st.sampled_from(_VALUES)),
        st.tuples(st.sampled_from(_FLAGS)),
        st.tuples(st.sampled_from(_EXPRESSIONS)),
        st.tuples(st.sampled_from(_ODD)),
        st.tuples(st.sampled_from(_OPTIONS + _VALUES)),
    )
    core = draw(st.just(_CORES[head]) | st.lists(st.sampled_from(_CORES[head]), unique=True))
    groups = draw(st.permutations(core + draw(st.just([]) | st.lists(group, max_size=4))))
    return [head] + [token for g in groups for token in g]


class TestPlainReader:
    """Plain argvs are read straight from the subcommand's actions; every
    other argv goes to argparse. Either way main's output is the same."""

    @given(_argvs())
    @settings(max_examples=400, deadline=None)
    def test_same_as_argparse(self, argv):
        # a table up to a 4300-digit r would not end
        assume(not (argv[0] == "table" and "9" * 4300 in argv))
        ns = cli._read_plain(argv)
        if ns is not None:
            assert vars(ns) == vars(cli.build_parser().parse_args(argv))
        plain = _main_result(argv)
        with mock.patch.object(cli, "_read_plain", lambda argv: None):
            assert _main_result(argv) == plain

    def test_reads_every_golden_argv(self):
        from test_golden_digest import _argvs as golden_argvs

        for argv in golden_argvs():
            ns = cli._read_plain(argv)
            assert ns is not None, argv
            assert vars(ns) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--r", "6", "--eps", "0"],
            ["report", "--r", "6", "--g", "10", "--eps", "0", "--bogus"],
            ["theta", "--r", "6", "--g", "10", "--eps", "2"],
        ],
    )
    def test_declines_usage_errors(self, argv):
        assert cli._read_plain(argv) is None
        code, out, err = _main_result(argv)
        assert (code, out) == (2, "") and err.startswith("usage: rspin ")


# report-like trees: string keys and values with quotes, backslashes,
# control characters and non-BMP text, booleans, nested and empty
# dicts and lists
_TEXT = st.text(max_size=8) | st.text(st.sampled_from('"\\\x00\x1f\x7f\n\t \U0001f600a'), max_size=8)
_TREES = st.recursive(
    st.one_of(_TEXT, st.booleans()),
    lambda children: st.one_of(st.lists(children, max_size=4), st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=20,
)


class TestJsonWriter:
    @given(_TREES)
    @settings(max_examples=150)
    def test_matches_dumps(self, tree):
        assert cli._json(tree, encode_basestring) == json.dumps(tree, ensure_ascii=False, indent=2)

    @pytest.mark.parametrize("leaf", [0, 1.5, None])
    def test_other_leaves_raise(self, leaf):
        for tree in (leaf, [leaf], {"a": [True, {"b": leaf}]}):
            with pytest.raises(TypeError):
                cli._json(tree, encode_basestring)
