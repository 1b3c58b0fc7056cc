"""The CLI's --json reports against bench/oracle.py, at r far past the
golden digest's r <= 40.

The oracle computes every closed form itself and imports nothing from
rspin, so a wrong closed form in the library cannot also be read into
the reference. Each argv runs through cli.main in process and must exit
0 with a report that every oracle check accepts:

* table over r = 2..1000;
* report and twist at every r in 41..199 and at 300 seeded log-uniform r
  up to 10^12, at the stable genus, with both eps for even r;
* eval at those r up to 5000 only, because the oracle's lift check loops
  over every lambda(a/r).

theta is left out: it exits 4 at odd r divisible by 3, a known defect of
the fiber weights (ROADMAP item 0).
"""

import contextlib
import io
import json
import math
import random

from oracles import bench_oracle
from rspin import cli
from rspin.classes import stable_genus

_DRAWS = random.Random("oracle-differential-r")
RS = list(range(41, 200)) + sorted(round(math.exp(_DRAWS.uniform(math.log(2), math.log(10**12)))) for _ in range(300))
EVAL_MAX_R = 5000


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--json"])
    assert code == 0, argv
    return json.loads(out.getvalue())


def _expression(rng, r: int, n_terms: int):
    """(oracle terms, text) of a seeded combination of named classes,
    with powers in -r..2r; the first coefficient is positive so argparse
    does not read the expression as an option."""
    kinds = ["lambda", "kappa1"] + (["mu"] if r % 2 == 0 else [])
    terms, parts = [], []
    for i in range(n_terms):
        kind = rng.choice(kinds)
        a = 0 if kind == "mu" else rng.randint(-r, 2 * r)
        c = rng.randint(1, 9) * (1 if i == 0 or rng.randrange(2) else -1)
        name = "mu" if kind == "mu" else f"{kind}({a}/{r})"
        parts.append(f"{c}*{name}" if i == 0 else f"{'+' if c > 0 else '-'} {abs(c)}*{name}")
        terms.append((kind, a, c))
    return terms, " ".join(parts)


def _mismatches():
    rng, oracle = random.Random("oracle-differential"), bench_oracle.Oracle()
    table = ["table", "--r-min", "2", "--r-max", "1000"]
    found = [(table, oracle.check_table(2, 1000, _report(table)))]
    for r in RS:
        g = stable_genus(r)
        for eps in (None,) if r % 2 else (0, 1):
            space = ["--r", str(r), "--g", str(g)] + ([] if eps is None else ["--eps", str(eps)])
            argv = ["report"] + space
            found.append((argv, oracle.check_report(r, g, eps, _report(argv))))
            arf, beta = (None if eps is None else rng.randrange(2)), rng.randint(0, 2 * r)
            terms, text = _expression(rng, r, 2)
            argv = ["twist"] + space + ([] if arf is None else ["--arf", str(arf)]) + ["--beta", str(beta), text]
            found.append((argv, oracle.check_twist(r, g, eps, arf, beta, terms, _report(argv))))
            if r <= EVAL_MAX_R:
                terms, text = _expression(rng, r, 3)
                argv = ["eval"] + space + [text]
                found.append((argv, oracle.check_eval(r, g, eps, terms, _report(argv))))
    return [(" ".join(argv), msg) for argv, msg in found if msg is not None]


def test_reports_match_oracle():
    assert _mismatches() == []
