"""Spans around rspin's layer functions, installed from outside ``src/``.

Each traced function is wrapped once and the wrapper is put at every
binding site: every rspin module attribute that refers to the function,
so ``classes.kernel_lattice`` and ``twists.kernel_lattice`` (bound by
``from .abelian import kernel_lattice``) are wrapped beside
``abelian.kernel_lattice``.  A span records its name, start, end, parent
span, the op it belongs to and whether it raised.  Spans stay in memory
in flat arrays and are written out once, at the end of the run.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

TARGETS = {
    "rspin.abelian": ("smith_normal_form", "hermite_normal_form", "kernel_lattice", "subgroup_info",
                      "group_from_presentation"),
    "rspin.classes": ("default_generators", "generator_lift", "presentation", "canonical_coords",
                      "torsion_generator"),
    "rspin.topology": ("spin_structure_count", "orbit_count", "pi0_mtspin", "pi1_mtspin", "xr_cohomology",
                       "pi2_multiplier", "h1_moduli", "h2_moduli", "picard_report"),
    "rspin.twists": ("tors_map_image", "h2_theta_subgroup", "twist_class"),
    "rspin.expr": ("parse_class",),
    "rspin.cli": ("build_parser", "_emit", "main"),
}

RAISED, LIFT_CACHE_HIT = 1, 2


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name = array("H")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("q")
        self.end = array("q")
        self.flag = array("B")
        self.op_id = -1
        self.snf_max_bits = 0
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, fn, label: str):
        nid = len(self.names)
        self.names.append(label)
        name, parent, op, start, end, flag, stack = (
            self.name, self.parent, self.op, self.start, self.end, self.flag, self._stack)
        lift_cache = sys.modules["rspin.classes"].__dict__.get("_LIFT_CACHE") if label.endswith(
            "generator_lift") else None
        is_snf = label.endswith("smith_normal_form")
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            end.append(0)
            flag.append(0)
            stack.append(idx)
            cached = len(lift_cache) if lift_cache is not None else None
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end[idx] = perf_counter_ns()
                flag[idx] = RAISED
                raise
            else:
                end[idx] = perf_counter_ns()
                if cached is not None and len(lift_cache) == cached:
                    flag[idx] = LIFT_CACHE_HIT
                if is_snf:
                    tracer.snf_max_bits = max(tracer.snf_max_bits, _max_bits(result))
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every binding site in the loaded rspin modules."""
        modules = [m for n, m in list(sys.modules.items()) if n == "rspin" or n.startswith("rspin.")]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[mod_name]
            for fname in funcs:
                fn = getattr(home, fname)
                wrapper = self._wrap(fn, f"{mod_name[len('rspin.'):]}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def self_times(self) -> list:
        """Self time of every span in ns."""
        n = len(self.start)
        child = [0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def layer_metrics(self, n_ops: int) -> dict:
        """The per-layer metrics as name -> (value, unit); counts and times
        are per op of the traced run."""
        selfs = self.self_times()
        ids = {name: i for i, name in enumerate(self.names)}
        lift, search, dg = ids["classes.generator_lift"], ids["classes.presentation"], ids["classes.default_generators"]
        calls, self_ns, raised = [0] * len(ids), [0] * len(ids), [0] * len(ids)
        first_lift = {}  # later lifts within an op always hit, so judge each op by its first
        attempts = found = 0  # presentation attempts made by the generator search
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += selfs[i]
            failed = self.flag[i] == RAISED
            raised[nid] += failed
            if nid == lift and self.op[i] not in first_lift:
                first_lift[self.op[i]] = self.flag[i] == LIFT_CACHE_HIT
            elif nid == search and self.parent[i] >= 0 and self.name[self.parent[i]] == dg:
                attempts += 1
                found += not failed

        def count(x):
            return x / n_ops, "1/op"

        def ms(*labels):
            return sum(self_ns[ids[lb]] for lb in labels) / 1e6 / n_ops, "ms/op"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        out = {}
        for label in ("abelian.smith_normal_form", "abelian.hermite_normal_form", "abelian.kernel_lattice",
                      "classes.default_generators", "classes.generator_lift", "classes.presentation"):
            out[f"{label}.calls"] = count(calls[ids[label]])
            out[f"{label}.self_ms"] = ms(label)
        out["abelian.smith_normal_form.max_entry_bits"] = (self.snf_max_bits, "bits")
        for label in ("abelian.subgroup_info", "abelian.group_from_presentation", "classes.canonical_coords",
                      "classes.torsion_generator", "twists.tors_map_image", "twists.h2_theta_subgroup",
                      "twists.twist_class", "expr.parse_class", "cli.build_parser", "cli.main"):
            out[f"{label}.self_ms"] = ms(label)
        out["classes.generator_search.attempts"] = count(attempts)
        out["classes.generator_search.hit_ratio"] = ratio(found, attempts)
        out["classes.lift_cache.hit_ratio"] = ratio(sum(first_lift.values()), len(first_lift))
        for label in ("twists.tors_map_image", "twists.h2_theta_subgroup"):
            out[f"{label}.errors"] = count(raised[ids[label]])
        out["topology.self_ms"] = ms(*(lb for lb in self.names if lb.startswith("topology.")))
        out["cli.render.self_ms"] = ms("cli._emit")
        return out

    def write(self, path: str) -> None:
        """Spans as raw arrays in ``path`` plus a JSON header beside it."""
        fields = ("name", "parent", "op", "start", "end", "flag")
        with open(path, "wb") as f:
            for fld in fields:
                getattr(self, fld).tofile(f)
        header = {"count": len(self.start), "names": self.names,
                  "fields": [[fld, getattr(self, fld).typecode] for fld in fields]}
        with open(path + ".json", "w") as f:
            json.dump(header, f)


def _max_bits(sf) -> int:
    """Largest bit length among the entries of a Smith form and its witnesses."""
    best = 0
    for m in (sf.s, sf.u, sf.v):
        if m.entries:
            best = max(best, max(m.entries).bit_length(), min(m.entries).bit_length())
    return best
