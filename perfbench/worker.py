"""Run one workload's ops in this (fresh) interpreter and report on stdout.

    python3 perfbench/worker.py --root ROOT --workload W --seed N --periods P
        [--traced] [--record] [--spans FILE]

Runs the first P periods of the workload's op stream.  Ops are
``secache.cli.main(argv)`` calls with stdout and stderr captured; the timed
region is the call alone.  A machine-speed probe (``speed.py``) runs
before and after each op, and each op's time is reported both as wall time
and normalised to the nominal machine speed.  Each op is classified and
checked (``checks.py``) outside the timed region, against the stored
reference when one exists for this seed and op.  The last stdout line is
one JSON object with per-op results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

REFERENCE_DIR = os.path.join(HERE, "reference")


def load_reference(workload: str, seed: int) -> dict | None:
    """The stored reference of the workload, if it was taken on this seed."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        ref = json.load(fh)
    return ref if ref["seed"] == seed else None


def run(args) -> dict:
    from secache import cli

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
    ref = None if args.record else load_reference(args.workload, args.seed)
    reference = {} if ref is None else {int(k): v for k, v in ref["ops"].items()}
    workdir = os.path.join(HERE, "_work")
    os.makedirs(workdir, exist_ok=True)
    scenario_path = os.path.join(workdir, f"scenario-{os.getpid()}.json")

    results, records = [], {}
    op_time = op_wall = 0.0
    index = 0
    probe = speed.probe()
    if tracer is not None:
        tracer.install()
    try:
        for period in range(args.periods):
            for op in workloads.period_ops(args.workload, args.seed, period):
                argv = op["argv"]
                if op["scenario"] is not None:
                    with open(scenario_path, "w", encoding="utf-8") as fh:
                        json.dump(op["scenario"], fh)
                    argv = [scenario_path if a == workloads.SCENARIO else a for a in argv]
                out, err = io.StringIO(), io.StringIO()
                rc, exc = None, None
                if tracer is not None:
                    tracer.op = index
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = cli.main(argv)
                except Exception as e:  # an uncaught error is a counted outcome
                    exc = e
                wall = time.perf_counter() - t0
                after = speed.probe()
                dt = speed.normalise(wall, probe, after)
                probe = after
                op_time += dt
                op_wall += wall
                text = out.getvalue()
                outcome, kind, items, record, message = checks.classify(
                    op, rc, exc, text, reference.get(index))
                results.append({
                    "period": period, "kind": op["kind"], "s": dt, "wall_s": wall, "items": items,
                    "outcome": outcome, "fail": kind,
                    "digest": hashlib.sha256(f"{rc}|{kind}|{text}".encode()).hexdigest()[:16],
                })
                if message is not None:
                    where = op["scenario"] if op["scenario"] is not None else ""
                    results[-1]["message"] = f"{' '.join(op['argv'])} {where}: {message}"
                if args.record:
                    entry = {"argv": op["argv"], "scenario": op["scenario"], "outcome": outcome, "kind": kind}
                    if record is not None:
                        entry["record"] = record
                    records[str(index)] = entry
                index += 1
    finally:
        if tracer is not None:
            tracer.restore()
        with contextlib.suppress(FileNotFoundError):
            os.remove(scenario_path)

    import secache

    report = {
        "secache_file": os.path.abspath(secache.__file__),
        "periods": args.periods,
        "op_time_s": op_time,
        "op_wall_s": op_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["counts"] = dict(tracer.counts)
        report["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    if args.record:
        report["records"] = records
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout root holding src/secache")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--record", action="store_true", help="include reference records")
    p.add_argument("--spans", help="write trace spans (JSON lines) here")
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    report = run(args)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
