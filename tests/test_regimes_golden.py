"""Golden parity for the ``regimes`` command and the curves that share its
corner families.

``golden/regimes.tsv`` holds one line per case, ``<case id>\\t<sha256>``,
where the digest covers the exit code and the stdout of one CLI call.
Commands: ``regimes``, ``curve --mode weak-only --grid 0:1:0.25`` and
``curve --mode global --grid 0:3:0.5``.  Scenarios: the presets fig3,
fig4 and fig5; the 200 boundary-erasure scenarios of
``test_cli.test_boundary_erasures_give_documented_outcomes``; and 100
seeded random scenarios with ``K_w`` and ``K_s`` in 0..6, zeros included.

The file was captured while ``tradeoff`` and ``cli`` still restated the
corner families' gates and ``exact_regimes`` evaluated each family several
times.  Do not regenerate the file to fit new output.

Capture (only against the code the golden is meant to pin):

    PYTHONPATH=src python3 tests/test_regimes_golden.py > tests/golden/regimes.tsv
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

from secache.cli import PRESETS, main
from test_cli import boundary_scenarios

GOLDEN = Path(__file__).parent / "golden" / "regimes.tsv"

COMMANDS = {
    "regimes": ["regimes"],
    "weak-only": ["curve", "--mode", "weak-only", "--grid", "0:1:0.25"],
    "global": ["curve", "--mode", "global", "--grid", "0:3:0.5"],
}


def _random_scenarios(count: int = 100, seed: int = 1010) -> list[dict]:
    """Valid scenarios whose erasures are drawn from {0, 1, uniform}."""
    rng = random.Random(seed)

    def erasure():
        return rng.choice((0.0, 1.0, round(rng.random(), 6)))

    out = []
    for _ in range(count):
        K_w = rng.randint(0, 6)
        K_s = rng.randint(0 if K_w else 1, 6)
        delta_s, delta_w = sorted((erasure(), erasure()))
        out.append(dict(K_w=K_w, K_s=K_s, delta_w=delta_w, delta_s=delta_s,
                        delta_z=erasure(), D=K_w + K_s + rng.randint(1, 5)))
    return out


def _scenarios():
    """(scenario id, scenario dict)."""
    for name in ("fig3", "fig4", "fig5"):
        yield name, PRESETS[name]
    for i, sc in enumerate(boundary_scenarios()):
        yield f"boundary{i}", sc
    for i, sc in enumerate(_random_scenarios()):
        yield f"random{i}", sc


def _lines() -> list[str]:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "scenario.json")
        for sid, sc in _scenarios():
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sc, fh)
            for name, cmd in COMMANDS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = main([cmd[0], "--scenario", path, *cmd[1:]])
                digest = hashlib.sha256(f"{rc}\n{out.getvalue()}".encode("utf-8"))
                lines.append(f"{sid}|{json.dumps(sc)}|{name}\t{digest.hexdigest()}")
    return lines


def test_regimes_and_curves_match_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = _lines()
    assert [ln.split("\t")[0] for ln in lines] == [g.split("\t")[0] for g in golden]
    for got, want in zip(lines, golden):
        assert got == want


if __name__ == "__main__":
    sys.stdout.write("\n".join(_lines()) + "\n")
