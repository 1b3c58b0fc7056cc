"""Per-query cost does not grow with r or g, counted in bytecode
instructions.

Wall time on a shared machine does not resolve small changes, but the
number of bytecode instructions a warm `cli.main` call executes repeats
exactly. For report, eval, theta and twist with --json, at every residue
of r mod 12 and both eps, the count is the same at r = 12*10^3 + c,
12*10^6 + c, 12*10^12 + c and 12*10^300 + c, and for eval and twist also
at r = 12 + c: no query path loops over anything that grows with r, and a
loop capped below 12*10^6 fails the test. report and theta are not
compared at r = 12 + c. Their subgroup_info runs abelian.ext_gcd on the
free coordinates of the fixed pair, and at even c other than 4 its Euclid
loop takes a number of steps that depends on k mod 4, for r = 12k + c,
and at k <= 4 on k itself. Every k compared here is 0 mod 8.
At r = 12*10^6 + c the count is also the same at the nonempty
genera g0 + k*step for k = 0, 1, 10^6 and 10^300, where g0 is the
stable genus and step is r for odd r and r/2 for even r, so no query
path loops over anything that grows with g either. Only equality is
pinned; the counts themselves differ between CPython versions.
Big-integer arithmetic inside one instruction is not counted.

kernel_lattice builds the rows of each run of member columns together;
at k = 1000 and 2000 columns it executes at most half the instructions
of the row-at-a-time reference in tests/oracles.py on the same input.

Running this file as a script prints the warm counts of the README's
example commands with --json, the instructions per column of
kernel_lattice (k = 1000 -> 2000) and per named class of presentation
(r = 1000 -> 2000).
"""

import contextlib
import gc
import io
import random
import sys

import pytest

from oracles import kernel_lattice_by_rows
from rspin import classes as cl, cli
from rspin.abelian import HomZN, kernel_lattice
from rspin.classes import stable_genus

README_EXAMPLES = [
    ["report", "--r", "2", "--g", "9", "--eps", "0"],
    ["eval", "--r", "3", "--g", "10", "3*lambda(1/3) + lambda"],
    ["theta", "--r", "4", "--g", "9", "--eps", "1"],
    ["twist", "--r", "4", "--g", "9", "--eps", "1", "--arf", "1", "--beta", "1", "mu"],
    ["table", "--r-min", "2", "--r-max", "12"],
]


def instructions(fn, *args):
    """(result, bytecode instructions executed) of one call fn(*args)."""
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
    sys.settrace(on_call)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
        gc.enable()
    return result, executed


def count_instructions(argv):
    """(exit code, bytecode instructions executed) of one cli.main call."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return instructions(cli.main, list(argv))


def kernel_map(k, modulus=24, free=50):
    """The lattice workload's kernel shape: the last k of 2000 images
    (f, t), f in [-free, free] and t in [0, N); free = 0 gives the theta
    subgroup's. The sweep meets the same last columns at every k."""
    rng = random.Random(f"{modulus}:{free}")
    images = [(rng.randint(-free, free), rng.randrange(modulus)) for _ in range(2000)]
    return HomZN(modulus, tuple(images[-k:]))


def named_classes(r):
    """The context at the stable genus of r and every named class."""
    ctx = cl.ModuliContext(r, stable_genus(r), None if r % 2 else 0)
    return ctx, [cl.FormalClass.single(s) for s in cl.default_symbols(r)]


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
    scales = ((1,) if kind in ("eval", "twist") else ()) + (10**3, 10**6, 10**12, 10**300)
    for c, eps in RESIDUES:
        rs = {scale: 12 * scale + c for scale in scales}
        assert_same_count(kind, c, {scale: _argv(kind, r, stable_genus(r), eps) for scale, r in rs.items()})


@pytest.mark.parametrize("kind", ["report", "eval", "theta", "twist"])
def test_count_independent_of_g(warm, kind):
    # the nonempty genera g0 + k * step, step = r for odd r and r/2 for even r
    for c, eps in RESIDUES:
        r = 12 * 10**6 + c
        step = r if r % 2 else r // 2
        g0 = stable_genus(r)
        assert_same_count(kind, c, {k: _argv(kind, r, g0 + k * step, eps) for k in (0, 1, 10**6, 10**300)})


@pytest.fixture(scope="module")
def warm_kernels():
    # CPython 3.13 counts fewer instructions in the first traced calls
    for fn in (kernel_lattice, kernel_lattice_by_rows):
        instructions(fn, kernel_map(30))


@pytest.mark.parametrize("k", [1000, 2000])
@pytest.mark.parametrize("modulus, free", [(24, 50), (10**12, 0)])
def test_kernel_at_most_half_the_row_reference(warm_kernels, k, modulus, free):
    hom = kernel_map(k, modulus=modulus, free=free)
    ker, executed = instructions(kernel_lattice, hom)
    reference, by_rows = instructions(kernel_lattice_by_rows, hom)
    assert ker == reference
    assert 2 * executed <= by_rows, (executed / k, by_rows / k)


def per_unit(fn, small, large):
    """Warm instructions per unit of size of fn between two argument
    tuples, each with its size first."""
    (n0, *args0), (n1, *args1) = small, large
    instructions(fn, *args0)
    return (instructions(fn, *args1)[1] - instructions(fn, *args0)[1]) / (n1 - n0)


if __name__ == "__main__":
    for argv in README_EXAMPLES:
        count_instructions(argv + ["--json"])
    for argv in README_EXAMPLES:
        print(argv[0], count_instructions(argv + ["--json"])[1])
    sizes = (1000, kernel_map(1000)), (2000, kernel_map(2000))
    print("kernel_lattice per column", per_unit(kernel_lattice, *sizes))
    print("row reference per column", per_unit(kernel_lattice_by_rows, *sizes))
    (c0, g0), (c1, g1) = named_classes(1000), named_classes(2000)
    print("presentation per class", per_unit(cl.presentation, (len(g0), c0, g0), (len(g1), c1, g1)))
