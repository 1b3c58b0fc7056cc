"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m unittest discover -s bench -t bench
"""

from __future__ import annotations

import json
import math
import os
import sys
import unittest
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import Op  # noqa: E402


def _cli_op(kind, argv, **params):
    return Op(kind, (kind,), dict(params, argv=argv + ["--json"]))


def _outcome(op):
    return ("returned", worker.prepare(op)())


def _planted(op, mutate):
    """Run op, check it passes, then mutate its JSON output and judge it
    again with the same oracle (which then knows the true output)."""
    orc = oracle.Oracle()
    outcome = _outcome(op)
    assert worker.judge(op, outcome, orc) == ("ok", None), worker.judge(op, outcome, orc)
    code, out, err = outcome[1]
    report = json.loads(out)
    mutate(report)
    return worker.judge(op, ("returned", (code, json.dumps(report), err)), orc)[0]


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_on_small_lists(self):
        xs = list(range(20, 0, -1))
        self.assertEqual(worker.percentile(xs, 50), 10)
        self.assertEqual(worker.percentile(xs, 95), 19)
        self.assertEqual(worker.percentile(xs, 100), 20)
        self.assertEqual(worker.percentile(xs, 5), 1)
        self.assertEqual(worker.percentile([7], 95), 7)
        self.assertEqual(worker.percentile([3, 1, 2], 50), 2)

    def test_failures_rank_last(self):
        self.assertEqual(worker.percentile([1.0, math.inf, 2.0], 50), 2.0)
        self.assertEqual(worker.percentile([1.0, math.inf, 2.0], 95), math.inf)

    def test_only_successes_count_beyond_p95(self):
        lat = list(range(1, 38)) + [math.inf] * 3  # p95 is the 38th of 40
        p95 = worker.percentile(lat, 95)
        self.assertEqual(p95, math.inf)
        lat = list(range(1, 39)) + [math.inf]  # p95 is 38, the last success
        self.assertEqual(worker.successes_beyond(lat, worker.percentile(lat, 95)), 0)
        lat = list(range(1, 80)) + [math.inf]  # p95 is the 76th of 80
        self.assertEqual(worker.successes_beyond(lat, worker.percentile(lat, 95)), 3)


class PlantedWrongOutputTest(unittest.TestCase):
    REPORT = _cli_op("report", ["report", "--r", "12", "--g", "13", "--eps", "1"], r=12, g=13, eps=1)
    THETA = _cli_op("theta", ["theta", "--r", "8", "--g", "13", "--eps", "0"], r=8, g=13, eps=0)

    def test_report(self):
        def bump_divisibility(rep):
            rep["divisibility"]["mu"] = str(int(rep["divisibility"]["mu"]) + 1)

        def double_relation(rep):
            rep["presentation"]["relations"][0] = [str(2 * int(c)) for c in rep["presentation"]["relations"][0]]

        def wrong_torsion_phi(rep):
            rep["torsion"]["phi"] = str((int(rep["torsion"]["phi"]) + 2) % 24)

        for mutate in (bump_divisibility, double_relation, wrong_torsion_phi):
            self.assertEqual(_planted(self.REPORT, mutate), "wrong", mutate.__name__)

    def test_theta(self):
        def wrong_image(rep):
            rep["fiber_image"]["generator"] = "4"

        def wrong_index(rep):
            rep["h2_subgroup"]["index"] = str(int(rep["h2_subgroup"]["index"]) * 2)

        for mutate in (wrong_image, wrong_index):
            self.assertEqual(_planted(self.THETA, mutate), "wrong", mutate.__name__)

    def test_eval_twist_table(self):
        terms = [("lambda", 1, 3), ("kappa1", 2, -1), ("mu", 0, 2)]
        ev = _cli_op("eval", ["eval", "--r", "4", "--g", "11", "--eps", "0", "3*lambda(1/4) - kappa1(2/4) + 2*mu"],
                     r=4, g=11, eps=0, terms=terms)
        self.assertEqual(_planted(ev, lambda rep: rep.update(d=str(int(rep["d"]) + 1))), "wrong")
        self.assertEqual(_planted(ev, lambda rep: rep.update(tau=str((int(rep["tau"]) + 3) % 24))), "wrong")
        self.assertEqual(_planted(ev, lambda rep: rep.update(tau=str((int(rep["tau"]) + 1) % 24))), "wrong")
        tw = _cli_op("twist", ["twist", "--r", "4", "--g", "11", "--eps", "0", "--arf", "1", "--beta", "3",
                               "3*lambda(1/4) - kappa1(2/4) + 2*mu"], r=4, g=11, eps=0, arf=1, beta=3, terms=terms)
        self.assertEqual(_planted(tw, lambda rep: rep.update(total_shift="1 mod 4")), "wrong")
        tb = _cli_op("table", ["table", "--r-min", "2", "--r-max", "7"], r_min=2, r_max=7)
        self.assertEqual(_planted(tb, lambda rep: rep["rows"][3].update(pi2_multiplier="7")), "wrong")

    def test_invalid_input_exit_codes(self):
        op = _cli_op("invalid", ["report", "--r", "12", "--g", "13"], expect=2)
        self.assertEqual(worker.judge(op, _outcome(op), oracle.Oracle())[0], "ok")
        self.assertEqual(worker.judge(op, ("returned", (0, "{}", "")), oracle.Oracle())[0], "wrong")

    def test_library_results(self):
        images = [(3, 1), (-6, 5), (9, 0), (2, 7)]
        op = Op("kernel_lattice", (), dict(modulus=8, images=images))
        rows = _outcome(op)[1].to_rows()
        self.assertIsNone(oracle.kernel_error(images, 8, rows))
        self.assertIsNotNone(oracle.kernel_error(images, 8, rows[:-1]))
        self.assertIsNotNone(oracle.kernel_error(images, 8, [[2 * x for x in rows[0]]] + rows[1:]))
        m = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        self.assertEqual(oracle.invariant_factors(m, 3), (0, (2, 6, 12)))
        self.assertEqual(oracle.invariant_factors([[2, 0], [0, 0]], 2), (1, (2,)))

    def test_known_defects_are_failures_not_wrong_answers(self):
        theta = _cli_op("theta", ["theta", "--r", "9", "--g", "19"], r=9, g=19, eps=None)
        self.assertEqual(worker.judge(theta, _outcome(theta), oracle.Oracle())[0],
                         "theta-exit-4-at-odd-r-divisible-by-3")
        h2 = Op("h2_theta_all", (), dict(r=20, g=11, eps=0))
        try:
            outcome = _outcome(h2)
        except Exception as e:  # the recorded defect
            outcome = ("raised", e)
        self.assertEqual(worker.judge(h2, outcome, oracle.Oracle())[0], "h2-theta-all-named-internal-error")


class GenerationTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for wl in workloads.WORKLOADS:
            a, b = workloads.generate(wl, 7, 2), workloads.generate(wl, 7, 2)
            self.assertEqual([(op.kind, op.size, op.params) for op in a], [(op.kind, op.size, op.params) for op in b])

    def test_size_schedule_identical_across_seeds(self):
        for wl, passes in (("cli-mix", 2), ("large-r", 10), ("lattice", 3)):
            per_pass = len(workloads.generate(wl, 1, 1)) if wl != "large-r" else workloads.LARGE_R_PER_PASS
            runs = [workloads.generate(wl, seed, passes) for seed in (1, 2, 3)]
            for ops in runs:
                self.assertEqual(len(ops), passes * per_pass)
            sizes = [[Counter(op.size for op in ops[i:i + per_pass]) for i in range(0, len(ops), per_pass)]
                     for ops in runs]
            self.assertEqual(sizes[0], sizes[1])
            self.assertEqual(sizes[0], sizes[2])
            self.assertNotEqual([op.params for op in runs[0]], [op.params for op in runs[1]])

    def test_traced_passes_are_a_prefix_of_the_timed_run(self):
        for wl in workloads.WORKLOADS:
            full, part = workloads.generate(wl, 5, 6), workloads.generate(wl, 5, 6, take=2)
            self.assertEqual([(op.size, op.params) for op in part], [(op.size, op.params) for op in full[:len(part)]])
            self.assertEqual(len(part) * 3, len(full))

    def test_large_r_keys_are_distinct_and_cover_residues(self):
        ops = workloads.generate("large-r", 1, 10)
        rs = [op.params["r"] for op in ops]
        self.assertEqual(len(rs), len(set(rs)))
        self.assertEqual({r % 12 for op, r in zip(ops, rs) if op.kind == "report"}, set(range(12)))
        self.assertTrue(any(op.kind == "theta" and op.params["r"] % 6 == 3 for op in ops))
        self.assertEqual((min(rs), max(rs)), (workloads.LARGE_R_LO, workloads.LARGE_R_HI))


class TracingTest(unittest.TestCase):
    def test_every_binding_site_is_traced(self):
        import rspin.cli  # noqa: F401  (loads every rspin module)

        originals = {id(getattr(sys.modules[m], f)) for m, fs in TARGETS.items() for f in fs}
        rspin_modules = [m for n, m in sys.modules.items() if n == "rspin" or n.startswith("rspin.")]
        sites = [(m, a) for m in rspin_modules for a, v in vars(m).items() if id(v) in originals]
        self.assertIn((sys.modules["rspin.twists"], "kernel_lattice"),
                      [(m, a) for m, a in sites])
        tracer = Tracer()
        tracer.install()
        try:
            for mod, attr in sites:
                self.assertTrue(hasattr(getattr(mod, attr), "__wrapped__"), f"{mod.__name__}.{attr}")
            tracer.op_id = 0
            worker.prepare(self._theta())()
        finally:
            tracer.uninstall()
        for mod, attr in sites:
            self.assertFalse(hasattr(getattr(mod, attr), "__wrapped__"))
        names = {tracer.names[i] for i in tracer.name}
        self.assertTrue({"cli.main", "twists.h2_theta_subgroup", "abelian.kernel_lattice",
                         "classes.default_generators"} <= names)
        # self times partition the root spans' durations
        roots = sum(tracer.end[i] - tracer.start[i] for i in range(len(tracer.start)) if tracer.parent[i] < 0)
        self.assertEqual(sum(tracer.self_times()), roots)
        metrics = tracer.layer_metrics(1)
        self.assertEqual(metrics["classes.default_generators.calls"], (1, "1/op"))
        self.assertGreater(metrics["classes.generator_search.attempts"][0], 1)

    @staticmethod
    def _theta():
        return _cli_op("theta", ["theta", "--r", "10", "--g", "11", "--eps", "1"], r=10, g=11, eps=1)


if __name__ == "__main__":
    unittest.main()
