"""Per-query cost does not grow with r or g, counted in bytecode
instructions.

Wall time on a shared machine does not resolve small changes, but the
number of bytecode instructions a warm `cli.main` call executes repeats
exactly. For report, eval, theta and twist with --json, at every residue
of r mod 12 and both eps, the count is the same at r = 12*10^6 + c,
12*10^12 + c and 12*10^300 + c: no query path loops over anything that
grows with r. At r = 12*10^6 + c it is also the same at the nonempty
genera g0 + k*step for k = 0, 1, 10^6 and 10^300, where g0 is the
stable genus and step is r for odd r and r/2 for even r, so no query
path loops over anything that grows with g either. Only equality is
pinned; the counts themselves differ between CPython versions.
Big-integer arithmetic inside one instruction is not counted.

Running this file as a script prints the warm counts of the README's
example commands with --json.
"""

import contextlib
import gc
import io
import sys

import pytest

from rspin import cli
from rspin.classes import stable_genus

README_EXAMPLES = [
    ["report", "--r", "2", "--g", "9", "--eps", "0"],
    ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
    ["theta", "--r", "4", "--g", "9", "--eps", "1"],
    ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
    ["table", "--r-min", "2", "--r-max", "12"],
]


def count_instructions(argv):
    """(exit code, bytecode instructions executed) of one cli.main call."""
    executed = 0

    def on_opcode(frame, event, arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return on_opcode

    # no collection inside the call: it could run other objects' finalizers
    gc.disable()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(on_call)
        try:
            code = cli.main(list(argv))
        finally:
            sys.settrace(None)
            gc.enable()
    return code, executed


def _argv(kind, r, g, eps):
    base = ["--r", str(r), "--g", str(g)] + ([] if eps is None else ["--eps", str(eps)])
    if kind in ("report", "theta"):
        return [kind] + base + ["--json"]
    expression = f"3*lambda(1/{r}) - kappa1(1/{r}) + lambda" + ("" if eps is None else " - mu")
    if kind == "eval":
        return [kind] + base + ["--json", expression]
    return [kind] + base + ([] if eps is None else ["--arf", str(eps)]) + ["--beta", "1", "--json", expression]


# every residue of r mod 12, with both eps at even r
RESIDUES = [(c, eps) for c in range(12) for eps in ((None,) if c % 2 else (0, 1))]


def assert_same_count(kind, c, argvs):
    """Every argv exits as it should and executes as many instructions."""
    # theta at r = 3 mod 6 exits 4 (ROADMAP item 0), at the same cost
    codes = (0, 4) if kind == "theta" and c % 6 == 3 else (0,)
    counts = {}
    for key, argv in argvs.items():
        code, executed = count_instructions(argv)
        assert code in codes, (kind, c, key)
        counts[key] = code, executed
    assert len(set(counts.values())) == 1, (kind, c, counts)


@pytest.fixture(scope="module")
def warm():
    # the first calls build the parser and import json and fractions
    for argv in README_EXAMPLES:
        count_instructions(argv + ["--json"])


@pytest.mark.parametrize("kind", ["report", "eval", "theta", "twist"])
def test_count_independent_of_r(warm, kind):
    for c, eps in RESIDUES:
        rs = {scale: 12 * scale + c for scale in (10**6, 10**12, 10**300)}
        assert_same_count(kind, c, {scale: _argv(kind, r, stable_genus(r), eps) for scale, r in rs.items()})


@pytest.mark.parametrize("kind", ["report", "eval", "theta", "twist"])
def test_count_independent_of_g(warm, kind):
    # the nonempty genera g0 + k * step, step = r for odd r and r/2 for even r
    for c, eps in RESIDUES:
        r = 12 * 10**6 + c
        step = r if r % 2 else r // 2
        g0 = stable_genus(r)
        assert_same_count(kind, c, {k: _argv(kind, r, g0 + k * step, eps) for k in (0, 1, 10**6, 10**300)})


if __name__ == "__main__":
    for argv in README_EXAMPLES:
        count_instructions(argv + ["--json"])
    for argv in README_EXAMPLES:
        print(argv[0], count_instructions(argv + ["--json"])[1])
