"""Byte-identity of the CLI over a fixed argv list, pinned as one digest.

Each argv runs through cli.main in process; the SHA-256 covers the argv,
stdout, stderr and exit code of every run, in order. A change that means
to alter some output updates DIGEST and lists the argvs whose digest
moved: running this file as a script prints one digest per argv, so two
checkouts can be compared with diff, and exits 1 when the combined
digest differs from DIGEST.

The list: report, theta, eval and twist, text and --json, at r = 2..40,
at the stable genus and at g = 7, with both eps for even r; eval and
twist (beta = 1 and 3) of one class per r that uses every power kind,
text and --json, at the stable genus with both eps; plus table 2..40 as
text and as JSON. Argvs that argparse rejects are left out,
because its messages depend on the Python version.
"""

import contextlib
import hashlib
import io
import json
import sys

from rspin import cli
from rspin.classes import stable_genus

DIGEST = "9164facf6a317e2536791e9d465168a09e6d144ec6292fac6253666d1b2913be"


def _argvs():
    out = []
    for r in range(2, 41):
        odd = r % 2
        expression = f"3*lambda(1/{r}) - kappa1(1/{r}) + lambda" if odd else f"lambda(1/{r}) - 2*kappa1(1/{r}) + mu"
        # powers -3, -1, 0, 2 and r + 1 of lambda and kappa1, plus mu for even r
        every_power = (
            f"lambda(-3/{r}) - 2*kappa1(-3/{r}) + 3*lambda(-1/{r}) + kappa1(-1/{r}) - 2*lambda(0/{r})"
            f" + kappa1(0/{r}) - 4*lambda(2/{r}) + kappa1(2/{r}) + lambda({r + 1}/{r}) - 5*kappa1({r + 1}/{r})"
        ) + ("" if odd else " - mu")
        for g in (stable_genus(r), 7):
            for eps in (None,) if odd else (0, 1):
                base = ["--r", str(r), "--g", str(g)] + ([] if odd else ["--eps", str(eps)])
                arf = [] if odd else ["--arf", str(eps)]
                cmds = [
                    ["report"] + base,
                    ["theta"] + base,
                    ["eval"] + base + [expression],
                    ["twist"] + base + arf + ["--beta", "1", expression],
                ]
                if g != 7:
                    cmds.append(["eval"] + base + [every_power])
                    cmds += [["twist"] + base + arf + ["--beta", beta, every_power] for beta in ("1", "3")]
                for cmd in cmds:
                    out.append(cmd)
                    out.append(cmd + ["--json"])
    table = ["table", "--r-min", "2", "--r-max", "40"]
    out.append(table)
    out.append(table + ["--json"])
    return out


def _record(argv) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return (json.dumps([argv, out.getvalue(), err.getvalue(), code], ensure_ascii=False) + "\n").encode()


def test_golden_digest():
    h = hashlib.sha256()
    for argv in _argvs():
        h.update(_record(argv))
    assert h.hexdigest() == DIGEST


if __name__ == "__main__":
    total = hashlib.sha256()
    for argv in _argvs():
        record = _record(argv)
        total.update(record)
        sys.stdout.write(f"{hashlib.sha256(record).hexdigest()}  {' '.join(argv)}\n")
    if total.hexdigest() != DIGEST:
        sys.stderr.write(f"combined digest {total.hexdigest()} differs from DIGEST {DIGEST}\n")
        sys.exit(1)
