"""Golden parity for the plan builders and ``verify_plan``.

``golden/plans.tsv`` holds one line per case, ``<case id>\\t<sha256>``,
where the digest covers the plan's ``to_json()``, its ``verify_plan``
report JSON, ``message_parts``, ``virtual_cached``, every unit's
``context``, the per-receiver ``cache_usage`` and the insertion order of
``key_rates``; or ``<case id>\\tERROR:
<exception class>:<message>`` when building or verifying raises.  Cases
cover every builder on fig3 and fig4, on fig5 at small subset families,
and on seeded small random scenarios whose erasures include 0 and 1, with
out-of-range ``t``, ``t_w`` and ``t_s`` and two rate backoffs.

The file was captured before ``ChannelScenario`` validated itself and
before the subset builders shared one piggyback split and one coded-XOR
unit.  Its ``ZeroDivisionError`` lines (a closed form whose denominator
vanishes at a boundary erasure) are known defects, listed by builder in
``ZERO_DENOMINATOR_DEFECTS``: those cases must now raise
``NotApplicable``.  Do not regenerate the file to fit new output.

The file was also captured before the verifier's sums were exact: its
report and cache usage add their terms one at a time.  So each line is
the digest of the plan with the report of ``verify_plan_explicit`` and
the cache usage under ``legacy`` sums (``tests/oracles.py``), and
``verify_plan`` must equal that full scan under ``exact`` sums, byte for
byte, with every pass/fail flag of the legacy report.  Exact sums move
``MOVED_REPORTS`` reports and ``MOVED_DIGESTS`` digests, all in the last
bits of a margin or a usage; no digest may change under the compensated
builtin ``sum`` of Python 3.12 (``compensated_sum``).

Capture (only against the code the goldens are meant to pin):

    PYTHONPATH=src python3 tests/test_plan_golden.py > tests/golden/plans.tsv
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from oracles import cache_usage_with, compensated_sum, exact, legacy, verify_plan_explicit
from secache import BUILDERS, ChannelScenario, schemes, verify_plan
from secache.cli import PRESETS
from secache.schemes import cache_usage

GOLDEN = Path(__file__).parent / "golden" / "plans.tsv"

EPS = (0.002, 0.05)

#: Known defects in the golden: every ``ZeroDivisionError`` line, by
#: builder, and the outcome now required instead.  The symmetric split
#: vanishes at delta_w = 1 with t_w = K_w or delta_s = 1; the all-keys
#: piggyback split at delta_w = delta_s = 1.
ZERO_DENOMINATOR_DEFECTS = {
    "piggyback-allkeys":
        "ERROR:NotApplicable:phase split degenerates at delta_w = delta_s = 1",
    "symmetric-piggyback":
        "ERROR:NotApplicable:phase split degenerates at delta_w = 1 with "
        "t_w = K_w or delta_s = 1",
}
#: How many golden lines hold such a defect.
ZERO_DENOMINATOR_LINES = 130
#: How many reports, and how many digests (report or cache usage), exact
#: sums move on the golden cases.
MOVED_REPORTS = 141
MOVED_DIGESTS = 159


def _random_scenarios(count: int, seed: int = 6006) -> list[ChannelScenario]:
    """Small valid scenarios whose erasures are drawn from {0, 1, uniform}."""
    rng = random.Random(seed)

    def erasure():
        return rng.choice((0.0, 1.0, round(rng.random(), 6)))

    out = []
    for _ in range(count):
        K_w = rng.randint(0, 4)
        K_s = rng.randint(0 if K_w else 1, 4)
        delta_s, delta_w = sorted((erasure(), erasure()))
        D = K_w + K_s + rng.randint(1, 5)
        out.append(ChannelScenario(K_w, K_s, delta_w, delta_s, erasure(), D))
    return out


def _scenarios():
    for name in ("fig3", "fig4"):
        s = ChannelScenario(**PRESETS[name])
        yield name, s, range(0, s.K_w + 1), (0, 1, 2, 5, 6), (0, 1, 2, 14, 15, 16)
    # fig5's middle t and t_w give plans of tens of thousands of units.
    yield ("fig5", ChannelScenario(**PRESETS["fig5"]),
           (0, 1, 2, 19, 20), (0, 1, 19, 20, 21), (0, 1, 9, 10, 11))
    zero_den = dict(K_w=3, K_s=2, delta_w=1.0, delta_s=1.0, delta_z=0.5, D=8)
    for name, s in (
        ("zero-den-a", ChannelScenario(**zero_den)),
        ("zero-den-b", ChannelScenario(**(zero_den | {"delta_s": 0.3}))),
    ):
        yield name, s, range(0, s.K_w + 1), range(0, s.K_w + 2), range(0, s.K_s + 2)
    for i, s in enumerate(_random_scenarios(40)):
        yield (f"random{i}", s, range(0, s.K_w + 1),
               range(0, s.K_w + 2), range(0, s.K_s + 2))


def _cases():
    for s_name, s, ts, tws, tss in _scenarios():
        for eps in EPS:
            for name, build in BUILDERS.items():
                if name in ("piggyback-one", "piggyback-allkeys"):
                    for t in ts:
                        yield (f"{s_name}|{name}(t={t})|eps={eps}", s,
                               lambda b=build, t=t, e=eps: b(s, t, e))
                elif name == "symmetric-piggyback":
                    for t_w in tws:
                        for t_s in tss:
                            yield (f"{s_name}|{name}(t_w={t_w},t_s={t_s})|eps={eps}", s,
                                   lambda b=build, tw=t_w, ts=t_s, e=eps: b(s, tw, ts, e))
                else:
                    yield (f"{s_name}|{name}|eps={eps}", s,
                           lambda b=build, e=eps: b(s, e))


def _digest_with(plan_hash, plan, report, usage: dict[int, float]) -> str:
    """The digest of ``plan`` with ``report`` and ``usage``, continuing
    ``plan_hash`` (:func:`_plan_hash`)."""
    extra = {
        "message_parts": {str(r): [list(p) for p in parts]
                          for r, parts in sorted(plan.message_parts.items())},
        "virtual_cached": {str(r): sorted(labels)
                           for r, labels in sorted(plan.virtual_cached.items())},
        "contexts": [[{str(r): list(c) for r, c in unit.context.items()}
                      for unit in seg.units] for seg in plan.schedule],
        "cache_usage": {str(r): u for r, u in sorted(usage.items())},
        "key_order": list(plan.key_rates),
    }
    h = plan_hash.copy()
    for text in (report.to_json(), json.dumps(extra)):
        h.update(text.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _plan_hash(plan):
    """A SHA-256 fed the plan's ``to_json()``: the start of its digest."""
    return hashlib.sha256(plan.to_json().encode("utf-8") + b"\n")


def _built():
    """Per case: its id, its scenario, and its plan with :func:`_plan_hash`
    or, when the build raises, the golden outcome
    ``ERROR:<exception class>:<message>`` with None."""
    for case_id, s, build in _cases():
        try:
            plan = build()
        except Exception as exc:  # noqa: BLE001 -- the class is the outcome
            yield case_id, s, f"ERROR:{type(exc).__name__}:{exc}", None
        else:
            yield case_id, s, plan, _plan_hash(plan)


def _digest(plan, s: ChannelScenario, plan_hash) -> str:
    """The digest of ``plan`` with its ``verify_plan`` report and usage."""
    return _digest_with(plan_hash, plan, verify_plan(plan, s), cache_usage(plan, s.D))


def _lines() -> list[str]:
    """The golden file: the digest of each plan under legacy sums."""
    return [f"{case_id}\t{plan}" if h is None else f"{case_id}\t" + _digest_with(
                h, plan, verify_plan_explicit(plan, s, total=legacy),
                cache_usage_with(plan, s.D, legacy))
            for case_id, s, plan, h in _built()]


def test_plans_match_golden(monkeypatch):
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert [case_id for case_id, _, _ in _cases()] == [
        ln.split("\t", 1)[0] for ln in golden
    ]
    # From Python 3.12 the builtin sum of floats is compensated.  Under it
    # the one-at-a-time cache usage moved 155 of these digests; exact sums
    # must move none.
    assert compensated_sum([0.1] * 10) == 1.0 != legacy([0.1] * 10)
    defects = moved_reports = moved_digests = 0
    for (case_id, s, plan, h), line in zip(_built(), golden):
        want = line.split("\t", 1)[1]
        if want.startswith("ERROR:ZeroDivisionError:"):
            defects += 1
            want = ZERO_DENOMINATOR_DEFECTS[case_id.split("|")[1].split("(")[0]]
        if h is None:
            assert plan == want, case_id
            continue
        old = verify_plan_explicit(plan, s, total=legacy)
        assert _digest_with(h, plan, old, cache_usage_with(plan, s.D, legacy)) == want, case_id
        report = verify_plan(plan, s)
        assert report.to_json() == verify_plan_explicit(plan, s, total=exact).to_json(), case_id
        assert [c.passed for c in report.checks] == [c.passed for c in old.checks], case_id
        moved_reports += report.to_json() != old.to_json()
        digest = _digest(plan, s, h)
        moved_digests += digest != want
        with monkeypatch.context() as m:
            m.setattr(schemes, "sum", compensated_sum, raising=False)
            assert _digest(plan, s, h) == digest, case_id
    assert defects == ZERO_DENOMINATOR_LINES
    assert (moved_reports, moved_digests) == (MOVED_REPORTS, MOVED_DIGESTS)


if __name__ == "__main__":
    sys.stdout.write("\n".join(_lines()) + "\n")
