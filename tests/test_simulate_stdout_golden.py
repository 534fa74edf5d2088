"""Golden parity for ``secache simulate`` stdout: the indented report the
CLI prints, byte for byte.

``golden/simulate_stdout.tsv`` holds one line per case, ``<argv>\\t<exit
code>\\t<sha256 of stdout>\\t<sha256 of stderr>``.  It covers every builder
on fig3, fig4 and fig5 at the benchmark's blocklengths and (demand, trial)
pair counts (``perfbench/workloads.py``'s ``MC_PLANS``), under
``all-distinct`` and ``random:3``.  It was captured before
``SimReport.to_json`` stopped calling ``json.dumps``.  Do not regenerate
it to fit new output: a mismatch means the printed report changed.

Capture (only against the code the goldens are meant to pin):

    PYTHONPATH=src python3 tests/test_simulate_stdout_golden.py > tests/golden/simulate_stdout.tsv
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from secache import cli
from secache.schemes import BUILDERS

GOLDEN = Path(__file__).parent / "golden" / "simulate_stdout.tsv"

#: Builder parameters and (demand, trial) pairs per run, as the benchmark
#: draws them; plans it does not run take 40 pairs (12 for a symmetric one).
PARAMS = {
    "piggyback-one": {"fig3": ("--t", "2"), "fig4": ("--t", "2"), "fig5": ("--t", "1")},
    "piggyback-allkeys": {"fig3": ("--t", "2"), "fig4": ("--t", "2"), "fig5": ("--t", "1")},
    "symmetric-piggyback": {p: ("--tw", "2", "--ts", "2") for p in ("fig3", "fig4", "fig5")},
}
PAIRS = {
    ("fig3", "wiretap-cached-keys"): 160,
    ("fig3", "superposition-jamming"): 80,
    ("fig3", "cached-keys-all"): 160,
    ("fig3", "piggyback-one"): 40,
    ("fig3", "piggyback-allkeys"): 40,
    ("fig3", "symmetric-piggyback"): 12,
    ("fig5", "piggyback-one"): 10,
}


def _cases():
    for preset in ("fig3", "fig4", "fig5"):
        for scheme in BUILDERS:
            params = PARAMS.get(scheme, {}).get(preset, ())
            pairs = PAIRS.get((preset, scheme), 12 if scheme == "symmetric-piggyback" else 40)
            for n in (500, 5000, 50000):
                for i, policy in enumerate(("all-distinct", "random:3")):
                    demands = 1 if policy == "all-distinct" else 4
                    yield [
                        "simulate", "--preset", preset, "--scheme", scheme, *params,
                        "--n", str(n), "--trials", str(max(1, pairs // demands)),
                        "--seed", str(1 + i), "--demands", policy,
                    ]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _lines() -> list[str]:
    lines = []
    for argv in _cases():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        lines.append(f"{' '.join(argv)}\t{rc}\t{_digest(out.getvalue())}\t"
                     f"{_digest(err.getvalue())}")
    return lines


def test_simulate_stdout_matches_golden():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = _lines()
    assert [ln.split("\t", 1)[0] for ln in lines] == [
        ln.split("\t", 1)[0] for ln in golden
    ]
    for got, want in zip(lines, golden):
        assert got == want


if __name__ == "__main__":
    sys.stdout.write("\n".join(_lines()) + "\n")
