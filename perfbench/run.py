"""secache benchmark: three seeded workloads of ``secache`` CLI calls.

    python3 perfbench/run.py --workload {curves,plan-verify,monte-carlo}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seconds S
    python3 perfbench/run.py --capture-reference

Run from the root of a source checkout (it imports ``src/secache``).

``--trace 0`` measures set-up time in fresh interpreters, then runs the
workload untraced in a fresh worker process and reports the end-to-end
metrics.  The work is fixed by S: round(S / PERIOD_S) whole periods, which
take about S seconds of op time on the seed code (2-vCPU machine), so that
two commits are always measured on identical work.  Times are normalised
to a nominal machine speed by probes taken around each op and each set-up
(``speed.py``); wall times are printed beside them.  ``--trace 1``
runs a fixed prefix of the workload twice, plain and traced, in separate
worker processes, checks that every op's output is byte-identical between
the two, and reports per-layer metrics and the tracing overhead; spans go
to ``perfbench/out/``.

Every op is classified (ok / documented / failed, see ``checks.py``) and
checked; human-readable lines and a provenance record come first, and the
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  ``--workload all`` runs every workload, untraced
and traced, and prints every metric.  ``--capture-reference`` stores the
outputs of the default seed's whole run at ``run_seconds`` of
``BENCHMARK.json``, and the per-layer counts of its traced prefix, under
``perfbench/reference/``; it is meant to be run once, on the commit that
the reference describes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 21
WORKER_TIMEOUT_S = 150
# Periods in the traced prefix (and in the reference's per-layer counts);
# each takes a few seconds untraced on a 2-vCPU machine.
TRACE_PERIODS = {"curves": 1, "plan-verify": 3, "monte-carlo": 4}
# Nominal op seconds per period on the seed code (2-vCPU machine).
PERIOD_S = {"curves": 11.3, "plan-verify": 7.5, "monte-carlo": 1.55}
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ops_not_failed_ratio": "ratio",
}
ITEMS = {
    "curves": "one output row: a CSV data row, or one bounds/regimes report",
    "plan-verify": "one plan built and verified",
    "monte-carlo": "one simulated (demand, trial) pair",
}
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from secache import cli; cli.make_parser(); t = time.time(); "
    "sys.path.insert(0, sys.argv[2]); import speed; print(repr(t), repr(speed.probe()))"
)


class BenchError(Exception):
    pass


def measure_setup() -> tuple[float, float]:
    """Time from spawn until secache is imported and the CLI parser is
    built, over fresh interpreters: the lower quartile of the times
    normalised by a speed probe run in each interpreter right after, and
    the median wall time."""
    norm, wall = [], []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE], capture_output=True,
                              text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        t1, after = map(float, proc.stdout.split())
        wall.append(t1 - t0)
        norm.append(speed.normalise(t1 - t0, before, after))
    return statistics.quantiles(norm, n=4)[0], statistics.median(wall)


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    report = json.loads(out.strip().splitlines()[-1])
    if os.path.dirname(report["secache_file"]) != os.path.join(SRC, "secache"):
        raise BenchError(f"imported {report['secache_file']}, not this checkout's src/")
    return report


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with at least 10 ops beyond it.
    Returns (value, percentile, ops beyond)."""
    xs = sorted(latencies)
    rank = max(1, len(xs) - 10)
    return xs[rank - 1], 100 * rank / len(xs), len(xs) - rank


def outcome_lines(ops: list[dict]) -> list[str]:
    by = Counter((o["outcome"], o["fail"]) for o in ops)
    lines = [f"outcomes: {sum(n for (oc, _), n in by.items() if oc == name)} {name}"
             for name in ("ok", "documented", "failed")]
    for (oc, kind), n in sorted(by.items()):
        if oc == "failed":
            kinds = Counter(o["kind"] for o in ops if o["fail"] == kind)
            lines.append(f"  failed {kind}: {n}  ({', '.join(f'{k} {c}' for k, c in sorted(kinds.items()))})")
    return lines


def check_problems(ops: list[dict]) -> list[str]:
    """Messages of failed checks, which make the run incorrect.  Invariant
    violations are defects of the program: counted as failed ops and
    listed here, but not a reason to call the run incorrect."""
    bad = [o["message"] for o in ops if o["fail"].startswith("invariant:")]
    for msg in bad[:10]:
        print(f"INVARIANT VIOLATED: {msg}")
    if len(bad) > 10:
        print(f"... and {len(bad) - 10} more invariant violations")
    return [o["message"] for o in ops if o["fail"].startswith("check:")]


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "secache")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(args, ops: list[dict], extra: dict) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "source_sha256_16": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ops": len(ops),
        "items": sum(o["items"] for o in ops),
        "item": ITEMS[args.workload],
        **extra,
    }


def periods_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PERIOD_S[workload]))


def bench_plain(args) -> dict:
    setup, setup_wall = measure_setup()
    rep = run_worker(args.workload, args.seed, "--periods", str(periods_for(args.workload, args.seconds)))
    ops = rep["ops"]
    lat = [o["s"] for o in ops]
    items = sum(o["items"] for o in ops)
    failed = sum(o["outcome"] == "failed" for o in ops)
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": setup,
        "items_per_s": items / rep["op_time_s"],
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": tail_s * 1000,
        "peak_rss_mb": rep["peak_rss_mb"],
        "ops_not_failed_ratio": 1 - failed / len(ops),
    }
    for name, value in metrics.items():
        note = f"  (p{pct:.4g} of {len(ops)} ops, {beyond} beyond)" if name == "op_tail_ms" else ""
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}{note}")
    print(f"ops_failed_ratio = {failed / len(ops):.6g} ratio  ({failed} of {len(ops)} ops)")
    print(f"wall: set-up median {setup_wall:.4g} s, op time {rep['op_wall_s']:.4g} s "
          f"(normalised {rep['op_time_s']:.4g} s)")
    print("\n".join(outcome_lines(ops)))
    problems = check_problems(ops)
    prov = provenance(args, ops, {"periods": rep["periods"], "op_time_s": rep["op_time_s"],
                                  "op_wall_s": rep["op_wall_s"], "setup_wall_s": setup_wall,
                                  "op_tail_percentile": pct, "ops_beyond_tail": beyond})
    return {"ops": ops, "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            "problems": problems, "provenance": prov}


def bench_traced(args) -> dict:
    periods = str(TRACE_PERIODS[args.workload])
    plain = run_worker(args.workload, args.seed, "--periods", periods)
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
    traced = run_worker(args.workload, args.seed, "--periods", periods, "--traced", "--spans", spans_path)
    ops = plain["ops"]
    problems = check_problems(ops)
    diff = [i for i, (a, b) in enumerate(zip(ops, traced["ops"])) if a["digest"] != b["digest"]]
    if diff or len(ops) != len(traced["ops"]):
        problems.append(f"traced outputs differ from plain at ops {diff[:10]}")
    ref = worker.load_reference(args.workload, args.seed)
    drift = {}
    if ref is not None:
        ref_counts = ref["counts"]
        for name in sorted(set(ref_counts) | set(traced["counts"])):
            a, b = ref_counts.get(name, 0), traced["counts"].get(name, 0)
            if a != b:
                if name in tracing.SEMANTIC_COUNTS:
                    problems.append(f"count {name} = {b}, reference {a}")
                drift[name] = [a, b]
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["op_time_s"] / plain["op_time_s"] - 1
    for name, value in layers.items():
        print(f"{name} = {value:.6g}")
    print(f"spans = {traced['spans']} written to {os.path.relpath(spans_path, ROOT)}")
    if drift:
        print(f"implementation counts that differ from the reference: {drift}")
    print("\n".join(outcome_lines(ops)))
    prov = provenance(args, ops, {"periods": plain["periods"], "plain_op_time_s": plain["op_time_s"],
                                  "traced_op_time_s": traced["op_time_s"],
                                  "plain_op_wall_s": plain["op_wall_s"], "traced_op_wall_s": traced["op_wall_s"]})
    return {"ops": ops, "metrics": {k: (v, tracing.unit(k)) for k, v in layers.items()},
            "problems": problems, "provenance": prov}


def capture_reference() -> None:
    """Store the outputs of the default seed's whole run at the benchmark's
    ``run_seconds``, and the per-layer counts of its traced prefix."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    os.makedirs(worker.REFERENCE_DIR, exist_ok=True)
    for workload in workloads.WORKLOADS:
        periods = periods_for(workload, seconds)
        rec = run_worker(workload, DEFAULT_SEED, "--periods", str(periods), "--record")
        if workload == "monte-carlo":
            bad = [r["argv"] for r in rec["records"].values() if r["outcome"] != "ok"]
            if bad:
                raise BenchError(f"monte-carlo ops not ok on this code: {bad[:5]}")
        traced = run_worker(workload, DEFAULT_SEED, "--periods", str(TRACE_PERIODS[workload]), "--traced")
        ref = {"seed": DEFAULT_SEED, "periods": periods, "trace_periods": TRACE_PERIODS[workload],
               "source_sha256_16": source_digest(), "counts": traced["counts"], "ops": rec["records"]}
        path = os.path.join(worker.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"{workload}: {len(rec['records'])} ops -> {os.path.relpath(path, ROOT)}")


def result(res: dict) -> dict:
    """Print the failed checks and the provenance; return the result line."""
    for msg in res["problems"][:20]:
        print(f"CHECK FAILED: {msg}")
    print("provenance: " + json.dumps(res["provenance"], sort_keys=True))
    ops = res["ops"]
    return {
        "correct": not res["problems"],
        "attempted": len(ops),
        "failed": sum(o["outcome"] == "failed" for o in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="secache benchmark")
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture-reference", action="store_true")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "secache", "cli.py")):
        print(f"error: no secache source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.capture_reference:
            capture_reference()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        if args.workload != "all":
            print(json.dumps(result(bench_traced(args) if args.trace else bench_plain(args))))
            return 0
        summary = {}
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                print(f"== {name}, trace {trace}")
                sub = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
                summary[f"{name}/trace{trace}"] = result(bench_traced(sub) if trace else bench_plain(sub))
        print(json.dumps(summary))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
