"""Benchmark-side tracing of secache's layers.

Wraps public functions of each secache module from outside the package:
every module (and module-level dict, such as ``schemes.BUILDERS``) that
holds the original function object gets the wrapper, and ``restore()``
puts every original back.  Two kinds of wrapper:

* spans, at layer boundaries: name, start, end, parent span and op id,
  kept in memory and written out by :meth:`Tracer.write` when the run ends;
* counters, for hot calls inside a layer (``bounds.ub_split``,
  ``model.validate_scenario``): a call count only, whose time stays in the
  calling span.

A span's self time is its duration minus the time its direct child spans
cover; a layer's self time is the sum over its spans.  There is one thread
and no queue, so no span ever waits.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict


def _count_plan(tr, args, res):
    tr.counts["schemes.plans"] += 1
    tr.counts["schemes.units"] += sum(len(seg.units) for seg in res.schedule)
    tr.counts["schemes.atoms"] += sum(len(atoms) for atoms in res.placement.values())


def _count_verify(tr, args, res):
    tr.counts["schemes.verify_failed"] += not res.passed


def _count_sim(tr, args, res):
    tr.counts["simulate.trials"] += sum(pd["trials"] for pd in res.per_demand)
    tr.counts["simulate.error_trials"] += sum(pd["errors"] for pd in res.per_demand)


def _count_points(tr, args, res):
    tr.counts["corners.points"] += len(res)


def _count_2d_points(tr, args, res):
    tr.counts["hull.eval2d_points"] += len(args[0])


# (module, function, hook on (tracer, args, result)) -- spanned calls.
SPANNED = (
    ("cli", "main", None),
    ("bounds", "ub_best", None),
    ("bounds", "ub_global", None),
    ("corners", "points_weak_only", _count_points),
    ("corners", "points_separate", _count_points),
    ("corners", "points_all_cached", _count_points),
    ("corners", "points_symmetric", _count_points),
    ("corners", "weak_only_max_slope", None),
    ("hull", "upper_hull_1d", None),
    ("hull", "eval_hull_1d", None),
    ("hull", "eval_hull_2d", _count_2d_points),
    ("tradeoff", "weak_only_curve", None),
    ("tradeoff", "separate_curve", None),
    ("tradeoff", "global_curve", None),
    ("tradeoff", "uniform_curve", None),
    ("tradeoff", "lower_curve_weak_only", None),
    ("tradeoff", "lower_surface_all", None),
    ("tradeoff", "lower_global", None),
    ("tradeoff", "lower_uniform", None),
    ("tradeoff", "exact_regimes", None),
    ("schemes", "build_wiretap_cached_keys", _count_plan),
    ("schemes", "build_superposition_jamming", _count_plan),
    ("schemes", "build_piggyback_one", _count_plan),
    ("schemes", "build_piggyback_two", _count_plan),
    ("schemes", "build_cached_keys_all", _count_plan),
    ("schemes", "build_piggyback_allkeys", _count_plan),
    ("schemes", "build_symmetric_piggyback", _count_plan),
    ("schemes", "verify_plan", _count_verify),
    ("simulate", "run_monte_carlo", _count_sim),
)

# (module, function, counter) -- counted calls.
COUNTED = (
    ("bounds", "ub_split", "bounds.subpop_evals"),
    ("bounds", "ub_cache_sharing", "bounds.subpop_evals"),
    ("model", "validate_scenario", "model.validate_calls"),
)

CURVE_BUILDS = {"tradeoff." + f for f in ("weak_only_curve", "separate_curve", "global_curve", "uniform_curve")}
QUERIES = {"tradeoff." + f for f in ("lower_curve_weak_only", "lower_surface_all", "lower_global", "lower_uniform")}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent, op]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(sid)
            span[1] = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, res)
            return res

        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / restore ------------------------------------------------

    def _replace(self, orig, wrapper) -> None:
        """Point every secache module attribute and module-level dict entry
        that holds ``orig`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "secache" or modname.startswith("secache.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            self._patched.append((val, key, orig))
                            val[key] = wrapper

    def install(self) -> None:
        import importlib

        for mod, fn, hook in SPANNED:
            m = importlib.import_module(f"secache.{mod}")
            orig = getattr(m, fn)
            self._replace(orig, self._spanned(f"{mod}.{fn}", orig, hook))
        for mod, fn, counter in COUNTED:
            m = importlib.import_module(f"secache.{mod}")
            orig = getattr(m, fn)
            self._replace(orig, self._counted(counter, orig))

    def restore(self) -> None:
        for target, key, orig in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._patched.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self) -> dict:
        own = self.self_times()
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for s, t in zip(self.spans, own):
            name = s[0]
            layer = name.split(".")[0]
            if name.startswith("schemes.build_"):
                layer = "schemes.build"
            elif name == "schemes.verify_plan":
                layer = "schemes.verify"
            self_s[layer] += t
            calls[name] += 1
            if name in ("bounds.ub_best", "hull.eval_hull_2d"):
                durations.setdefault(name, []).append(s[2] - s[1])

        def p50_ms(name):
            d = durations.get(name)
            return statistics.median(d) * 1000 if d else 0.0

        c = self.counts
        builds = sum(calls[n] for n in CURVE_BUILDS)
        queries = sum(calls[n] for n in QUERIES)
        trials = c["simulate.trials"]
        return {
            "bounds.self_s": self_s["bounds"],
            "bounds.ub_best_calls": calls["bounds.ub_best"],
            "bounds.subpop_evals": c["bounds.subpop_evals"],
            "bounds.ub_best_ms_p50": p50_ms("bounds.ub_best"),
            "corners.self_s": self_s["corners"],
            "corners.calls": sum(n for k, n in calls.items() if k.startswith("corners.")),
            "corners.points": c["corners.points"],
            "tradeoff.self_s": self_s["tradeoff"],
            "tradeoff.curve_builds": builds,
            "tradeoff.queries": queries,
            "tradeoff.builds_per_query": builds / queries if queries else 0.0,
            "hull.self_s": self_s["hull"],
            "hull.hull1d_builds": calls["hull.upper_hull_1d"],
            "hull.eval1d_calls": calls["hull.eval_hull_1d"],
            "hull.eval2d_calls": calls["hull.eval_hull_2d"],
            "hull.eval2d_points": c["hull.eval2d_points"],
            "hull.eval2d_ms_p50": p50_ms("hull.eval_hull_2d"),
            "model.validate_calls": c["model.validate_calls"],
            "cli.self_s": self_s["cli"],
            "schemes.build_s": self_s["schemes.build"],
            "schemes.verify_s": self_s["schemes.verify"],
            "schemes.plans": c["schemes.plans"],
            "schemes.units": c["schemes.units"],
            "schemes.atoms": c["schemes.atoms"],
            "schemes.verify_failed": c["schemes.verify_failed"],
            "simulate.self_s": self_s["simulate"],
            "simulate.calls": calls["simulate.run_monte_carlo"],
            "simulate.trials": trials,
            "simulate.trial_ms": self_s["simulate"] * 1000 / trials if trials else 0.0,
            "simulate.error_trials": c["simulate.error_trials"],
        }

    def write(self, path: str) -> None:
        """Write spans as JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "op": op}) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ms", "_ms_p50")):
        return "ms"
    if metric.endswith(("_ratio", "_per_query")):
        return "ratio"
    return "count"


# Output-derived counts: computed from returned objects, so they must match
# the reference exactly.  The other counts measure implementation work
# (calls, builds) that optimisations are expected to change.
SEMANTIC_COUNTS = (
    "schemes.plans",
    "schemes.units",
    "schemes.atoms",
    "schemes.verify_failed",
    "simulate.trials",
    "simulate.error_trials",
)
