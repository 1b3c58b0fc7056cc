"""The exit-code contract of the command line, fuzzed over argv in
process: every run ends in 0, 2, 3 or 4 without a traceback, and a
subcommand that fails prints nothing on stdout and one line on stderr.
Integer literals are short, or of exactly the int/str digit limit's
length, or of one digit more. About two in three eval and twist draws
are valid queries, limit-length literals included, so that the
contract is fuzzed on the success path too; a replay checks that at
least half of them exit 0."""

import contextlib
import io
import sys

from hypothesis import given, settings, strategies as st

from rspin import cli
from rspin.classes import stable_genus

integers = st.integers(min_value=0, max_value=40).map(str)

# (text, value) of numbers with exactly the digit limit's digits (4300
# where the interpreter has none), which parse, and with one digit more,
# which exit 2; the text is written digit by digit, since str() of the
# longer one is over the limit
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
def long_numbers(lengths=(LIMIT, LIMIT + 1)):
    return st.tuples(
        st.sampled_from(lengths), st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=99)
    ).map(lambda p: (f"{p[1]}{'0' * (p[0] - 3)}{p[2]:02d}", p[1] * 10 ** (p[0] - 1) + p[2]))


long_literals = long_numbers().map(lambda p: p[0])
literals = st.one_of(integers, integers, integers, long_literals)
# literals that parse: short, or of exactly the limit's length
fitting_literals = st.one_of(integers, integers, integers, long_numbers([LIMIT]).map(lambda p: p[0]))


def fractions(r):
    den = st.one_of(st.just(r), st.just(r), st.integers(min_value=0, max_value=50)).map(str)
    return st.tuples(st.sampled_from(["", "-"]), literals, den).map(lambda p: f"{p[0]}{p[1]}/{p[2]}")


def atoms(r):
    fraction = st.one_of(st.just(""), fractions(r).map(lambda f: f"({f})"))
    named = st.tuples(st.sampled_from(["lambda", "kappa1"]), fraction).map("".join)
    return st.one_of(named, st.just("mu"))


def terms(r):
    coeff = st.one_of(st.just(""), literals, literals.map(lambda c: c + "*"))
    scaled = st.tuples(coeff, atoms(r)).map("".join)
    return st.one_of(scaled, scaled, st.just("0"), integers)


def expressions(r):
    """Strings from the grammar in rspin.expr, plus a little noise."""
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", "-"]), terms(r)).map("".join), max_size=3)
    grammatical = st.tuples(st.sampled_from(["", "", "-"]), terms(r), rest).map(
        lambda p: p[0] + p[1] + "".join(p[2])
    )
    noise = st.text(alphabet="lambdkpu1()+-*/0 x", max_size=16)
    return st.one_of(grammatical, grammatical, grammatical, noise)


def genera(r):
    """As text: any g in -2..30, one with a nonempty moduli space, or a
    long literal."""
    nonempty = [g for g in range(2, 31) if r >= 2 and (2 - 2 * g) % r == 0]
    if 2 <= r < 10**LIMIT:
        nonempty.append(stable_genus(r))
    anything = st.integers(min_value=-2, max_value=30)
    short = (st.one_of(anything, st.sampled_from(nonempty)) if nonempty else anything).map(str)
    return st.one_of(short, short, long_literals)


def valid_expressions(r_text, r):
    """Expressions in the grammar of rspin.expr that parse at r: every
    denominator r, mu only at even r, and no bare integer but 0."""
    fraction = st.tuples(st.sampled_from(["", "-"]), fitting_literals).map(lambda p: f"({p[0]}{p[1]}/{r_text})")
    named = st.tuples(st.sampled_from(["lambda", "kappa1"]), st.one_of(st.just(""), fraction)).map("".join)
    atom = st.one_of(named, st.just("mu")) if r % 2 == 0 else named
    coeff = st.one_of(st.just(""), fitting_literals.map(lambda c: c + "*"))
    term = st.one_of(st.tuples(coeff, atom).map("".join), st.just("0"))
    rest = st.lists(st.tuples(st.sampled_from([" + ", " - "]), term).map("".join), max_size=3)
    return st.tuples(st.sampled_from(["", "-"]), term, rest).map(lambda p: p[0] + p[1] + "".join(p[2]))


@st.composite
def valid_queries(draw, sub):
    """An eval or twist argv that exits 0: r in 2..400 or of the limit's
    length, a nonempty genus at or above the stable one, --eps and
    --arf exactly at even r, and literals of at most the limit's length."""
    short = st.integers(min_value=2, max_value=400).map(lambda r: (str(r), r))
    r_text, r = draw(st.one_of(short, long_numbers([LIMIT])))
    step = r if r % 2 else r // 2
    g = stable_genus(r) + (draw(st.integers(min_value=0, max_value=3)) * step if r <= 400 else 0)
    argv = [sub, "--r", r_text, "--g", str(g)]
    for flag in ("--eps",) + (("--arf",) if sub == "twist" else ()):
        if r % 2 == 0:
            argv += [flag, str(draw(st.sampled_from([0, 1])))]
    if draw(st.booleans()):
        argv.append("--force")
    if sub == "twist":
        argv += ["--beta", draw(st.one_of(st.integers(min_value=-5, max_value=5).map(str), fitting_literals))]
    return argv + [draw(valid_expressions(r_text, r))]


@st.composite
def argvs(draw):
    sub = draw(st.sampled_from(["report", "eval", "theta", "twist", "table"]))
    if sub == "table":
        lo = draw(st.integers(min_value=-2, max_value=400))
        hi = draw(st.integers(min_value=lo - 2, max_value=min(lo + 40, 400)))
        argv = ["table", "--r-min", str(lo), "--r-max", str(hi)]
    elif sub in ("eval", "twist") and draw(st.sampled_from([True, True, False])):
        argv = draw(valid_queries(sub))
    else:
        # small r often, so that many draws reach a nonempty stable space
        short = st.one_of(st.integers(min_value=-2, max_value=400), st.integers(min_value=2, max_value=30))
        r_text, r = draw(st.one_of(short.map(lambda r: (str(r), r)), long_numbers()))
        argv = [sub, "--r", r_text, "--g", draw(genera(r))]
        for flag in ("--eps",) + (("--arf",) if sub == "twist" else ()):
            fitting = st.sampled_from([0, 1] if r % 2 == 0 else [None])
            value = draw(st.one_of(fitting, st.sampled_from([None, 0, 1])))
            if value is not None:
                argv += [flag, str(value)]
        if draw(st.booleans()):
            argv.append("--force")
        if sub == "twist":
            beta = st.integers(min_value=-5, max_value=5).map(str)
            argv += ["--beta", draw(st.one_of(beta, beta, long_literals))]
        if sub in ("eval", "twist"):
            argv.append(draw(expressions(r_text)))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def run(argv):
    """(exit code, whether argparse exited, stdout, stderr) of one
    in-process run."""
    out, err = io.StringIO(), io.StringIO()
    from_argparse = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code, from_argparse = e.code, True
    return code, from_argparse, out.getvalue(), err.getvalue()


@given(argvs())
@settings(max_examples=300, deadline=None)
def test_exit_contract(argv):
    code, from_argparse, out, err = run(argv)
    assert code in (0, 2, 3, 4), (argv, code)
    assert "Traceback" not in err
    if code and not from_argparse:
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n"), err


def test_half_of_eval_and_twist_succeed():
    # a fixed replay of the strategy: at least half of its eval and twist
    # draws exit 0, some with a literal of the limit's length
    codes = []

    @given(argvs())
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def replay(argv):
        if argv[0] in ("eval", "twist"):
            codes.append((run(argv)[0], any(len(a) >= LIMIT for a in argv)))

    replay()
    successes = [long for code, long in codes if code == 0]
    assert len(codes) >= 40 and 2 * len(successes) >= len(codes), codes
    assert any(successes)
