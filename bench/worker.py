"""Run one workload's ops in this process and print the result as JSON.

One client, one thread, closed loop: each op starts when the previous one
has returned and its output has been checked.  Only the call into rspin
is timed; building its inputs and checking its output are not.  Started
by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``:

    python3 bench/worker.py --workload lattice --seed 1 --passes 2 [--take 1] [--trace-out F]

``--take`` runs only the first passes of the ``--passes``-pass op list.

A failed op (an error where the oracle expects an answer) enters the
latency percentiles as +infinity, so it misses any latency limit and a
later fix can only lower every percentile.  With the known defects in the
op list, the reported p95 therefore lies above the 95th percentile of the
successful ops alone; only successful ops count as samples beyond it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import sys
import time

from rspin import abelian, classes, cli, errors, twists
from rspin.classes import FormalClass, ModuliContext

import oracle
import workloads
from tracer import Tracer

# Known defects at the time the benchmark was written: an op that fails
# this way counts as failed but not as a wrong answer.
DEFECTS = {
    "theta-exit-4-at-odd-r-divisible-by-3":
        lambda op, out: op.kind == "theta" and op.params["r"] % 6 == 3 and out == ("exit", 4),
    "h2-theta-all-named-internal-error":
        lambda op, out: op.kind == "h2_theta_all" and out[0] == "raised"
        and isinstance(out[1], errors.InternalConsistencyError),
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    values at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def successes_beyond(values, p95: float) -> int:
    """Successful samples (finite ones) above p95."""
    return sum(math.isfinite(x) and x > p95 for x in values)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the command line
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _named(r: int) -> list:
    return [FormalClass.single(s) for s in classes.default_symbols(r)]


def prepare(op):
    """A zero-argument call that performs the op (inputs built here, untimed)."""
    p = op.params
    if "argv" in p:
        return lambda: _run_cli(p["argv"])
    if op.kind == "kernel_lattice":
        hom = abelian.HomZN(p["modulus"], tuple(p["images"]))
        return lambda: abelian.kernel_lattice(hom)
    if op.kind == "group_from_presentation":
        m = abelian.IntMatrix.from_rows(p["rows"])
        return lambda: abelian.group_from_presentation(m.cols, m)
    ctx, gens = ModuliContext(p["r"], p["g"], p["eps"]), _named(p["r"])
    if op.kind == "presentation":
        return lambda: classes.presentation(ctx, gens)
    return lambda: twists.h2_theta_subgroup(ctx, gens)


def _terms(x) -> list:
    return [(s.kind, s.power, c) for s, c in x.terms]


def check(op, value):
    """None if the library result is right, else the mismatch."""
    p = op.params
    if op.kind == "kernel_lattice":
        return oracle.kernel_error(p["images"], p["modulus"], value.to_rows())
    if op.kind == "group_from_presentation":
        want = oracle.invariant_factors(p["rows"], len(p["rows"]))
        got = (value.free_rank, tuple(value.invariant_factors))
        return None if got == want else f"cokernel {got}, want {want}"
    r = p["r"]
    gens = [_terms(x) for x in value.generators]
    coords = [oracle.class_coords(r, t) for t in gens]
    if op.kind == "presentation":
        err = oracle.generates_error(r, coords)
        rows = value.relations.to_rows()
    else:  # h2_theta_all
        err = oracle.theta_subgroup_error(r, p["g"], p["eps"], gens, str(value.group), value.index)
        if [_terms(x) for x in value.presentation.generators] != gens:
            err = err or "presentation generators differ from the subgroup generators"
        rows = value.presentation.relations.to_rows()
    return err or oracle.kernel_error(coords, 24, rows)


def check_cli(op, code, out: str, err: str, orc: oracle.Oracle):
    p = op.params
    if op.kind == "invalid":
        if code == p["expect"] and not out and err:
            return None
        return f"exit {code} with stdout {out[:60]!r}, want exit {p['expect']} and a message on stderr"
    report = json.loads(out)
    args = (p["r"], p["g"], p["eps"]) if "r" in p else ()
    if op.kind == "report":
        return orc.check_report(*args, report)
    if op.kind == "theta":
        return orc.check_theta(*args, report)
    if op.kind == "eval":
        return orc.check_eval(*args, p["terms"], report)
    if op.kind == "twist":
        return orc.check_twist(*args, p["arf"], p["beta"], p["terms"], report)
    return orc.check_table(p["r_min"], p["r_max"], report)


def judge(op, outcome, orc: oracle.Oracle):
    """(status, detail): status is ok, wrong, unexpected or a defect name."""
    if outcome[0] == "raised":
        failure = outcome
    elif "argv" in op.params:
        code, out, err = outcome[1]
        if code == 0 or op.kind == "invalid":
            msg = check_cli(op, code, out, err, orc)
            return ("ok", None) if msg is None else ("wrong", msg)
        failure = ("exit", code)
    else:
        msg = check(op, outcome[1])
        return ("ok", None) if msg is None else ("wrong", msg)
    for name, matches in DEFECTS.items():
        if matches(op, failure):
            return name, None
    return "unexpected", f"{failure[0]} {failure[1]!r}"


def run(ops, tracer=None) -> dict:
    orc = oracle.Oracle()
    lat, op_ns, statuses, problems = [], 0, {}, []
    for i, op in enumerate(ops):
        call = prepare(op)
        if tracer:
            tracer.op_id = i
        t0 = time.perf_counter_ns()
        try:
            outcome = ("returned", call())
        except Exception as e:  # the op failed; judged below
            outcome = ("raised", e)
        dt = time.perf_counter_ns() - t0
        op_ns += dt
        try:
            status, detail = judge(op, outcome, orc)
        except (ValueError, KeyError, TypeError, ArithmeticError) as e:  # unparseable output
            status, detail = "wrong", f"{type(e).__name__}: {e}"
        statuses[status] = statuses.get(status, 0) + 1
        lat.append(dt / 1e6 if status == "ok" else math.inf)
        if detail and len(problems) < 5:
            problems.append(f"{op.kind} {op.size}: {detail}")
    p50, p95 = percentile(lat, 50), percentile(lat, 95)
    ok = statuses.get("ok", 0)
    kinds = {}
    for op in ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {
        "attempted": len(ops),
        "ok": ok,
        "statuses": statuses,
        "problems": problems,
        "kinds": kinds,
        "op_time_s": op_ns / 1e9,
        "throughput_qps": ok / (op_ns / 1e9),
        # None: so many ops failed that the percentile is unbounded
        "latency_p50_ms": p50 if math.isfinite(p50) else None,
        "latency_p95_ms": p95 if math.isfinite(p95) else None,
        "beyond_p95": successes_beyond(lat, p95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--take", type=int, help="run only the first TAKE passes")
    ap.add_argument("--trace-out", help="trace the run and write its spans here")
    args = ap.parse_args(argv)
    ops = workloads.generate(args.workload, args.seed, args.passes, args.take)
    # A full collection scans every tracked object; without this the
    # harness's own op list would make rspin's collections slower, and by
    # an amount that depends on where they fall.
    gc.collect()
    gc.freeze()
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install()
    result = run(ops, tracer)
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(len(ops))
        tracer.write(args.trace_out)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
