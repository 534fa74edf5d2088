"""Outcome classification, invariants and reference comparison for ops.

Every op ends in exactly one outcome:

* ``ok``         exit 0 and every check passed;
* ``documented`` exit 2 or 3 through the CLI's documented error handlers
                 (bad input / not applicable), nothing on stdout;
* ``failed``     anything else, with a kind that names why:
                 ``exception:<Type>`` (uncaught), ``nonstrict-json``
                 (``Infinity``/``NaN`` in JSON output),
                 ``verify-failed:<CHECKS>`` (a builder's plan fails
                 ``verify_plan``), ``invariant:<name>`` (an invariant that
                 must hold on every input is violated), ``exit:<code>``, or
                 ``check:<name>`` (output malformed, different from the
                 reference output recorded for this seed and op, or an
                 outcome worse than the reference's: ok < documented <
                 failed).

Only ``check:*`` failures make a run incorrect: they mean the program's
answer changed, or cannot be read.  The other kinds are defects of the
program that the benchmark counts; the seed code already shows several of
them (``ZeroDivisionError``, ``Infinity`` in ``regimes``, a fig4 plan failing
SECRECY, and ``bounds`` reporting lower > upper on some scenarios).
"""

from __future__ import annotations

import hashlib
import json
import math

TOL = 1e-9
# Free-text fields: compared neither against the reference nor for format.
_TEXT_KEYS = frozenset({"detail", "note", "description"})


class CheckFailure(Exception):
    """``kind`` is ``invariant:<name>`` or ``check:<name>``."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _reject_constant(token: str):
    raise ValueError(token)


def _loads(text: str):
    """Parse JSON output; returns (value, strict)."""
    try:
        return json.loads(text, parse_constant=_reject_constant), True
    except ValueError:
        return json.loads(text), False


def _num(cell: str):
    return None if cell == "" else float(cell)


def parse_csv(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    return {"header": lines[0], "rows": [[_num(c) for c in ln.split(",")] for ln in lines[1:]]}


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# invariants (hold on every seed)
# ---------------------------------------------------------------------------

def _curve_invariants(op: dict, csv: dict) -> None:
    cols = csv["header"].split(",")
    rows = csv["rows"]
    upper = cols.index("R_upper") if "R_upper" in cols else None
    for r in rows:
        if upper is not None and r[upper] is not None:
            for c, name in enumerate(cols):
                if name.startswith("R_lower") and r[c] is not None and r[c] > r[upper] + TOL:
                    raise CheckFailure("invariant:lower<=upper", f"{name}={r[c]!r} > R_upper={r[upper]!r} at M={r[0]!r}")
    for prev, cur in zip(rows, rows[1:]):
        if not cur[0] > prev[0]:
            raise CheckFailure("invariant:grid", f"memory not increasing: {prev[0]!r} -> {cur[0]!r}")
        for c in range(1, len(cols)):
            if prev[c] is not None and cur[c] is not None and cur[c] < prev[c] - TOL:
                raise CheckFailure("invariant:monotone", f"{cols[c]} decreases {prev[c]!r} -> {cur[c]!r} at M={cur[0]!r}")


def _bounds_invariants(rep: dict) -> None:
    lo, up = rep["lower"], rep["upper"]["value"]
    if lo is not None and up is not None and lo > up + TOL:
        raise CheckFailure("invariant:lower<=upper", f"lower {lo!r} > upper {up!r}")


def _simulate_invariants(op: dict, rep: dict) -> None:
    argv = op["argv"]
    trials = int(argv[argv.index("--trials") + 1])
    policy = argv[argv.index("--demands") + 1]
    demands = 1 if policy == "all-distinct" else 1 + int(policy.split(":")[1])
    if rep["trials"] != trials or len(rep["per_demand"]) != demands:
        raise CheckFailure("invariant:sim-shape", f"{len(rep['per_demand'])} demands x {rep['trials']} trials, "
                                        f"asked {demands} x {trials}")
    for pd in rep["per_demand"]:
        if not 0 <= pd["errors"] <= pd["trials"]:
            raise CheckFailure("invariant:errors<=trials", f"{pd['errors']} errors in {pd['trials']} trials")
    worst = max(pd["errors"] / pd["trials"] for pd in rep["per_demand"])
    if rep["worst_case_error_rate"] != worst:
        raise CheckFailure("invariant:sim-worst", f"worst {rep['worst_case_error_rate']!r} != {worst!r}")


def _verify_invariants(rep: dict) -> None:
    if rep["passed"] != all(c["passed"] for c in rep["checks"]):
        raise CheckFailure("invariant:verify-passed", "passed flag disagrees with its checks")


# ---------------------------------------------------------------------------
# reference comparison (default seed)
# ---------------------------------------------------------------------------

def _same(ref, cur, path: str) -> None:
    """Numbers within TOL; a reference infinity may become null (strict
    JSON); keys the reference lacks are allowed (added output)."""
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if ref != cur:
            raise CheckFailure("check:reference", f"{path}: {cur!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if cur is None and math.isinf(ref):
            return
        if isinstance(cur, bool) or not isinstance(cur, (int, float)):
            raise CheckFailure("check:reference", f"{path}: {cur!r} != reference {ref!r}")
        if math.isinf(ref) or math.isinf(cur):
            if ref != cur:
                raise CheckFailure("check:reference", f"{path}: {cur!r} != reference {ref!r}")
        elif abs(ref - cur) > TOL:
            raise CheckFailure("check:reference", f"{path}: {cur!r} differs from reference {ref!r}")
    elif isinstance(ref, list):
        if not isinstance(cur, list) or len(cur) != len(ref):
            raise CheckFailure("check:reference", f"{path}: length/type differs from reference")
        for i, (a, b) in enumerate(zip(ref, cur)):
            _same(a, b, f"{path}[{i}]")
    elif isinstance(ref, dict):
        if not isinstance(cur, dict):
            raise CheckFailure("check:reference", f"{path}: not an object")
        for k, v in ref.items():
            if k in _TEXT_KEYS:
                continue
            if k not in cur:
                raise CheckFailure("check:reference", f"{path}.{k}: missing")
            _same(v, cur[k], f"{path}.{k}")


def _sim_reference_form(rep: dict) -> dict:
    """SimReport as stored in the reference: every field verbatim except
    the bulky ``segment_stats``, kept as a digest (compared exactly)."""
    out = {k: v for k, v in rep.items() if k != "segment_stats"}
    out["segment_stats_sha256"] = digest(rep["segment_stats"])
    return out


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

RANK = {"ok": 0, "documented": 1, "failed": 2}


def classify(op: dict, rc, exc: BaseException | None, out: str, ref: dict | None):
    """Classify one op.  Returns ``(outcome, kind, items, record, message)``:
    ``record`` is the op's output in reference form, kept when the output
    passed its invariants (``None`` otherwise); ``message`` explains a
    ``check:*`` or ``invariant:*`` failure.  Against a reference, the op
    must be the reference's op and must not end worse than it did."""
    if ref is not None and (ref["argv"], ref["scenario"]) != (op["argv"], op["scenario"]):
        return "failed", "check:reference-stale", 0, None, f"reference op was {' '.join(ref['argv'])} {ref['scenario'] or ''}"
    res = _classify(op, rc, exc, out, ref)
    if ref is not None and not res[1].startswith("check:") and RANK[res[0]] > RANK[ref["outcome"]]:
        return "failed", "check:reference", 0, None, f"{res[1]}; reference was {ref['kind']}"
    return res


def _classify(op: dict, rc, exc: BaseException | None, out: str, ref: dict | None):
    cmd = op["argv"][0]
    if exc is not None:
        return "failed", f"exception:{type(exc).__name__}", 0, None, None
    if rc in (2, 3) and not (cmd == "verify" and out):
        return "documented", f"exit:{rc}", 0, None, None
    if rc not in (0, 2):
        return "failed", f"exit:{rc}", 0, None, None
    try:
        if cmd == "curve":
            record = parse_csv(out)
            _curve_invariants(op, record)
            items = len(record["rows"])
            strict = True
        else:
            record, strict = _loads(out)
            items = 1
            if cmd == "bounds":
                _bounds_invariants(record)
            elif cmd == "verify":
                _verify_invariants(record)
            elif cmd == "simulate":
                _simulate_invariants(op, record)
                items = sum(pd["trials"] for pd in record["per_demand"])
                record = _sim_reference_form(record)
        if ref is not None and "record" in ref:
            if cmd == "simulate":
                if ref["record"] != record:
                    raise CheckFailure("check:reference", "SimReport differs from reference")
            else:
                _same(ref["record"], record, cmd)
    except (ValueError, KeyError, TypeError, IndexError) as exc:  # output not in the documented format
        return "failed", "check:malformed", 0, None, f"{type(exc).__name__}: {exc}"
    except CheckFailure as cf:
        return "failed", cf.kind, 0, None, str(cf)
    if not strict:
        return "failed", "nonstrict-json", 0, record, None
    if cmd == "verify" and not record["passed"]:
        bad = "+".join(c["name"] for c in record["checks"] if not c["passed"])
        return "failed", f"verify-failed:{bad}", 0, record, None
    return "ok", "ok", items, record, None

