"""Seeded op lists for the three workloads.

Each workload has a fixed schedule of the sizes that drive cost (r, k, n,
and the op kinds); it depends only on the number of passes.  The seed
picks only genus, eps, arf, coefficients and the order of ops within a
pass, so every seed does the same work.

No record of real use exists, so every weight below has a stated source:
the README's command-line examples, ROADMAP item 1's list of what to
measure, or the size ranges the workload is defined by.  Two weights are
set by the known defects instead (a failed op counts as +inf latency, so
failures must stay well under 5% of ops for p95 to stay finite); they are
marked where they are defined.

* ``cli-mix`` (one-shot CLI callers): in-process ``cli.main([...,
  "--json"])``.  Each pass runs every one of the README's five example
  commands once at every r in [2, 60], shaped like the README's examples,
  plus each documented error case once (13 of 308 ops, a share not taken
  from use).  r repeats, so the generator-lift cache is hot, and the
  presentations are 2-generator ones: argparse, rendering, the parser and
  the closed forms dominate.
* ``large-r`` (sweep scripts over r): ``report`` and ``theta`` at
  distinct r, log-spaced from 64 to 1024 with no residue left out, so
  each residue mod 12 (r = 2 mod 4, which adds the generator search,
  included) gets its natural share.  No r repeats within a run, so the
  lift cache is always cold; the O(r^2) generator search dominates.
* ``lattice``: direct library calls with no argparse and no generator
  search, one op per size step of each kind ROADMAP item 1 names:
  presentations on all named classes, kernels of maps Z^k -> Z + Z/N,
  cokernels of dense square matrices, and the theta subgroup on all named
  classes.  Integer Smith/Hermite reduction dominates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-mix", "large-r", "lattice")


@dataclass(frozen=True)
class Op:
    kind: str
    size: tuple  # the cost-driving part, identical for every seed
    params: dict = field(default_factory=dict, compare=False, hash=False)


def stable_genus(r: int) -> int:
    """Smallest g >= 9 with r | 2 - 2g."""
    g = 9
    while (2 - 2 * g) % r:
        g += 1
    return g


def _genus(rng, r: int) -> int:
    return stable_genus(r) + rng.randrange(4) * (r if r % 2 else r // 2)


def _eps(rng, r: int):
    return rng.randrange(2) if r % 2 == 0 else None


def _space(r, g, eps) -> list:
    return ["--r", str(r), "--g", str(g)] + ([] if eps is None else ["--eps", str(eps)])


def _expression(rng, r: int, n_terms: int):
    """(terms, text): the first coefficient is positive so argparse does
    not read the expression as an option."""
    kinds = ["lambda", "kappa1"] + (["mu"] if r % 2 == 0 else [])
    terms, text = [], ""
    for i in range(n_terms):
        kind = rng.choice(kinds)
        a = 0 if kind == "mu" else rng.randint(1, r)
        c = rng.randint(1, 9) * (1 if i == 0 or rng.randrange(2) else -1)
        name = "mu" if kind == "mu" else f"{kind}({a}/{r})"
        text += f"{c}*{name}" if i == 0 else f" {'+' if c > 0 else '-'} {abs(c)}*{name}"
        terms.append((kind, a, c))
    return terms, text


def log_spaced(lo: int, hi: int, n: int) -> list:
    """n distinct integers x >= lo, as close to log-spaced between lo and
    hi as distinctness allows."""
    out = []
    for i in range(n):
        x = max(round(lo * (hi / lo) ** (i / (n - 1))) if n > 1 else lo, out[-1] + 1 if out else lo)
        out.append(x)
    return out


# ---------------------------------------------------------------------------
# cli-mix

CLI_R = range(2, 61)
# Shapes of the README's examples: `eval` with a two-term expression,
# `twist` with a one-term one, `table` over eleven rows (2..12).
EVAL_TERMS, TWIST_TERMS, TABLE_ROWS = 2, 1, 11


def _cli(kind, size, argv, **params) -> Op:
    return Op(kind, size, dict(params, argv=argv + ["--json"]))


def _invalid(rng) -> list:
    """(argv, exit code), one per error case the README documents: 2
    (usage or input error) or 3 (genus below the stable range)."""
    g_low = rng.randint(2, 8)
    return [
        (["report", "--r", "12", "--g", "13"], 2),  # even r needs --eps
        (["report", "--r", "9", "--g", "10", "--eps", "0"], 2),  # odd r takes no --eps
        (["eval", "--r", "7", "--g", "15", "lambda(1/"], 2),
        (["eval", "--r", "7", "--g", "15", "mu"], 2),
        (["eval", "--r", "7", "--g", "15", "lambda(1/5)"], 2),
        (["eval", "--r", "5", "--g", "10", "lambda"], 2),  # 5 does not divide 2 - 2g
        (["report", "--r", "2", "--g", str(g_low), "--eps", str(rng.randrange(2))], 3),
        (["theta", "--r", "4", "--g", str(rng.choice((3, 5, 7))), "--eps", str(rng.randrange(2))], 3),
        (["report", "--r", "6", "--g", "10", "--eps", "0", "--bogus"], 2),
        (["report", "--r", "6", "--eps", "0"], 2),
        (["report", "--r", "1", "--g", "10"], 2),
        (["theta", "--r", "6", "--g", "10", "--eps", "2"], 2),
        (["twist", "--r", "5", "--g", "11", "--arf", "1", "--beta", "1", "kappa1"], 2),
    ]


def cli_mix_pass(rng) -> list:
    ops = []
    for r in CLI_R:
        for kind in ("report", "theta"):
            g, eps = _genus(rng, r), _eps(rng, r)
            ops.append(_cli(kind, (kind, r), [kind] + _space(r, g, eps), r=r, g=g, eps=eps))
        g, eps = _genus(rng, r), _eps(rng, r)
        terms, text = _expression(rng, r, EVAL_TERMS)
        ops.append(_cli("eval", ("eval", r), ["eval"] + _space(r, g, eps) + [text], r=r, g=g, eps=eps, terms=terms))
        g, eps = _genus(rng, r), _eps(rng, r)
        arf, beta = _eps(rng, r), rng.randint(0, 2 * r)
        terms, text = _expression(rng, r, TWIST_TERMS)
        argv = ["twist"] + _space(r, g, eps) + ([] if arf is None else ["--arf", str(arf)])
        argv += ["--beta", str(beta), text]
        ops.append(_cli("twist", ("twist", r), argv, r=r, g=g, eps=eps, arf=arf, beta=beta, terms=terms))
        lo = max(2, r - TABLE_ROWS + 1)
        ops.append(_cli("table", ("table", lo, r), ["table", "--r-min", str(lo), "--r-max", str(r)], r_min=lo, r_max=r))
    for i, (argv, code) in enumerate(_invalid(rng)):
        ops.append(_cli("invalid", ("invalid", i), argv, expect=code))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# large-r

LARGE_R_LO, LARGE_R_HI = 64, 1024
LARGE_R_PER_PASS = 24
# theta on every eleventh r, report on the rest.  Set by the known defect,
# not by use: theta fails at odd r divisible by 3, so about a sixth of
# theta ops fail, and an eleventh keeps failures near 1.2% of ops.  11 is
# prime to 6, so theta meets every residue mod 6 where the r are
# consecutive.
THETA_EVERY = 11


def large_r_schedule(passes: int) -> list:
    """(kind, r) per op, dealt round-robin into passes so that each pass
    spans the whole range and no r repeats within a run."""
    rs = log_spaced(LARGE_R_LO, LARGE_R_HI, passes * LARGE_R_PER_PASS)
    sched = [("theta" if i % THETA_EVERY == 3 else "report", r) for i, r in enumerate(rs)]
    return [sched[p::passes] for p in range(passes)]


def large_r_pass(rng, schedule) -> list:
    ops = []
    for kind, r in schedule:
        g, eps = _genus(rng, r), _eps(rng, r)
        ops.append(_cli(kind, (kind, r), [kind] + _space(r, g, eps), r=r, g=g, eps=eps))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# lattice

# One op per size step of each kind, log-spaced over its range: r from
# ROADMAP item 1's small r up to 80, k over ROADMAP item 1's 2..200 (from
# 20, below which a kernel takes microseconds), n up to the 30x30
# matrices of ROADMAP item 3.
LATTICE_STEPS = 16
PRESENTATION_R = log_spaced(10, 80, LATTICE_STEPS)
KERNEL_K = log_spaced(20, 200, LATTICE_STEPS)
KERNEL_N = (24, 8, 12, 4)
DENSE_N = log_spaced(4, 30, LATTICE_STEPS)
# One theta subgroup per pass.  Set by the known defect, not by use: on
# all named classes it fails at every r here, so more would push failures
# past 5% of ops.
THETA_ALL_R = (12, 20, 30, 16, 40, 24, 10, 36, 28, 18, 44, 14)


def lattice_pass(rng, index: int) -> list:
    ops = []
    for r in PRESENTATION_R:
        ops.append(Op("presentation", ("presentation", r), dict(r=r, g=_genus(rng, r), eps=_eps(rng, r))))
    for i, k in enumerate(KERNEL_K):
        n = KERNEL_N[i % len(KERNEL_N)]
        images = [(rng.randint(-50, 50), rng.randrange(n)) for _ in range(k)]
        if not any(f for f, _ in images):
            images[0] = (1, images[0][1])
        ops.append(Op("kernel_lattice", ("kernel_lattice", k, n), dict(modulus=n, images=images)))
    for n in DENSE_N:
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        ops.append(Op("group_from_presentation", ("group_from_presentation", n), dict(rows=rows)))
    r = THETA_ALL_R[index % len(THETA_ALL_R)]
    ops.append(Op("h2_theta_all", ("h2_theta_all", r), dict(r=r, g=_genus(rng, r), eps=_eps(rng, r))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def generate(workload: str, seed: int, passes: int, take: int | None = None) -> list:
    """The op list of one run of ``passes`` whole passes, or of its first
    ``take`` passes."""
    rng = random.Random(f"{workload}:{seed}")
    take = passes if take is None else take
    if workload == "cli-mix":
        return [op for _ in range(take) for op in cli_mix_pass(rng)]
    if workload == "large-r":
        return [op for sched in large_r_schedule(passes)[:take] for op in large_r_pass(rng, sched)]
    if workload == "lattice":
        return [op for i in range(take) for op in lattice_pass(rng, i)]
    raise ValueError(f"unknown workload {workload!r}")
