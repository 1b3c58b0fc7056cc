"""Layered benchmark of rspin, standard library only.

Run from the root of a checkout:

    python3 bench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics: throughput, p50/p95 latency,
success rate and peak RSS of a fresh child process that runs the
workload's ops, and ``setup_s``, the median time from spawning a fresh
interpreter until ``import rspin.cli`` has finished.  ``--trace 1``
instead runs a third of the passes three times, each in a fresh child:
untraced, traced, untraced.  It prints the per-layer metrics of the traced
run (per op), the tracing overhead (traced op time over the mean of the
untraced ones), and the start-up split of a cold interpreter.

``--seconds`` fixes the number of whole passes over the workload's op
list (sized so that a pass of each workload takes about the stated time
on a 2-vCPU x86-64 VM with CPython 3.11); the work therefore never
depends on machine speed, and never on the seed.  Every output is checked
by ``oracle.py``.  The last line of stdout is the result object; the
line before it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Op-time seconds per pass on the reference VM, and the fewest passes that
# leave at least 10 successful samples beyond p95 (failed ops, at +inf,
# take up some of the top 5%).
SECONDS_PER_PASS = {"cli-mix": 1.4, "large-r": 2.5, "lattice": 1.2}
MIN_PASSES = {"cli-mix": 2, "large-r": 14, "lattice": 7}
SETUP_SPAWNS = 16
IMPORTTIME_SPAWNS = 7
DEADLINE_S = 170
PROBE = "import time; t = time.perf_counter_ns(); import rspin.cli; print(t, time.perf_counter_ns())"

END_TO_END = {"throughput_qps": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms",
              "success_rate": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES[workload], round(seconds / SECONDS_PER_PASS[workload]))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn_probe(env, flags=()):
    """(interpreter ns, import ns, total ns, stderr) of one cold start.

    perf_counter_ns is CLOCK_MONOTONIC, shared by parent and child."""
    t0 = time.perf_counter_ns()
    p = subprocess.run([sys.executable, *flags, "-c", PROBE], env=env, capture_output=True, text=True,
                       timeout=60, check=True)
    t_start, t_end = map(int, p.stdout.split())
    return t_start - t0, t_end - t_start, t_end - t0, p.stderr


def _rspin_import_self_us(stderr: str) -> int:
    """Sum of ``-X importtime`` self times of rspin's own modules."""
    total = 0
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = (x.strip() for x in line[len("import time:"):].split("|"))
            if name == "rspin" or name.startswith("rspin."):
                total += int(self_us)
    return total


def _run_worker(env, workload, seed, passes, deadline, take=None, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
           "--passes", str(passes)]
    if take:
        cmd += ["--take", str(take)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    p = subprocess.run(cmd, env=env, capture_output=True, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    if p.returncode != 0:
        raise RuntimeError(f"worker exited {p.returncode}: {p.stderr.strip()[-2000:]}")
    return json.loads(p.stdout.splitlines()[-1])


def _commit() -> str:
    try:
        with open(".git/HEAD") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "rspin", "cli.py")):
        print("bench/run.py: run from the root of an rspin checkout (src/rspin not found)", file=sys.stderr)
        return 2
    load_avg = os.getloadavg()
    env = _env()
    passes = passes_for(args.workload, args.seconds)

    _spawn_probe(env)  # compiles bytecode on a fresh checkout; not measured
    # Half the cold starts before the ops and half after, so that their
    # median spans two stretches of the machine's drifting speed.
    probes = [_spawn_probe(env) for _ in range(SETUP_SPAWNS // 2)]
    try:
        if args.trace:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            # untraced, traced, untraced: the mean of the outer two cancels a
            # steady drift in machine speed out of the overhead ratio.  Each
            # runs the first third of the timed run's passes, so the traced
            # ops are a subset of the timed ones.
            take = max(1, passes // 3)
            before = _run_worker(env, args.workload, args.seed, passes, deadline, take)
            res = _run_worker(env, args.workload, args.seed, passes, deadline, take,
                              trace_out=os.path.join(HERE, "out", f"spans-{args.workload}.bin"))
            after = _run_worker(env, args.workload, args.seed, passes, deadline, take)
            runs = [before, res, after]
        else:
            res = _run_worker(env, args.workload, args.seed, passes, deadline)
            runs = [res]
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench/run.py: {e}", file=sys.stderr)
        return 1
    probes += [_spawn_probe(env) for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2)]

    if args.trace:
        metrics = {name: tuple(value_unit) for name, value_unit in res["layers"].items()}
        imports = [_rspin_import_self_us(_spawn_probe(env, ("-X", "importtime"))[3]) for _ in range(IMPORTTIME_SPAWNS)]
        metrics["process.interpreter_ms"] = (statistics.median(p[0] for p in probes) / 1e6, "ms")
        metrics["process.import_ms"] = (statistics.median(p[1] for p in probes) / 1e6, "ms")
        metrics["process.import.rspin_self_ms"] = (statistics.median(imports) / 1e3, "ms")
        metrics["trace.overhead_ratio"] = (2 * res["op_time_s"] / (before["op_time_s"] + after["op_time_s"]), "ratio")
    else:
        values = dict(res, success_rate=res["ok"] / res["attempted"],
                      setup_s=statistics.median(p[2] for p in probes) / 1e9)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    wrong = sum(r["statuses"].get(s, 0) for r in runs for s in ("wrong", "unexpected"))
    meta = {
        "workload": args.workload, "seed": args.seed, "passes": passes, "passes_run": take if args.trace else passes,
        "trace": args.trace, "commit": _commit(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "load_avg_at_start": load_avg, "ops_per_kind": res["kinds"], "outcomes": res["statuses"],
        "samples_beyond_p95": res["beyond_p95"], "op_time_s": res["op_time_s"], "problems": res["problems"],
        "setup_spawns": SETUP_SPAWNS,
    }
    print(json.dumps({"meta": meta}))
    if any(value is None for value, _ in metrics.values()):
        print(f"bench/run.py: {res['attempted'] - res['ok']} of {res['attempted']} ops failed, "
              "so a latency percentile is unbounded; see problems above", file=sys.stderr)
        return 1
    if not args.trace and res["beyond_p95"] < 10:
        print(f"bench/run.py: only {res['beyond_p95']} samples beyond p95", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": res["attempted"],
        "failed": res["attempted"] - res["ok"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
