"""Byte-identity of the CLI over a fixed argv list, pinned as one digest.

Each argv runs through cli.main in process; the SHA-256 covers the argv,
stdout, stderr and exit code of every run, in order. A change that means
to alter some output updates DIGEST and lists the argvs whose digest
moved: running this file as a script prints one digest per argv, so two
checkouts can be compared with diff.

The list: report, theta, eval and twist, text and --json, at r = 2..40,
at the stable genus and at g = 7, with both eps for even r; plus table
2..40 as text and as JSON. Argvs that argparse rejects are left out,
because its messages depend on the Python version.
"""

import contextlib
import hashlib
import io
import json
import sys

from rspin import cli
from rspin.classes import stable_genus

DIGEST = "03c09d3b4e42075bdeeb128694ad06b8bfe92be209ff20271f7f65906844f62e"


def _argvs():
    out = []
    for r in range(2, 41):
        odd = r % 2
        expression = f"3*lambda(1/{r}) - kappa1(1/{r}) + lambda" if odd else f"lambda(1/{r}) - 2*kappa1(1/{r}) + mu"
        for g in (stable_genus(r), 7):
            for eps in (None,) if odd else (0, 1):
                base = ["--r", str(r), "--g", str(g)] + ([] if odd else ["--eps", str(eps)])
                arf = [] if odd else ["--arf", str(eps)]
                for cmd in (
                    ["report"] + base,
                    ["theta"] + base,
                    ["eval"] + base + [expression],
                    ["twist"] + base + arf + ["--beta", "1", expression],
                ):
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
    for argv in _argvs():
        sys.stdout.write(f"{hashlib.sha256(_record(argv)).hexdigest()}  {' '.join(argv)}\n")
