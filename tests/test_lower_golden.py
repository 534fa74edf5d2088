"""Golden parity for the lower bounds and the baseline ``curve`` CSVs.

``golden/lower.tsv`` holds one line per case, ``<case id>\\t<value>`` with
the value written with ``repr``, or ``<case id>\\tERROR:<exception class>``.
It pins ``lower_surface_all`` on preset grids (``M_s = 0`` and budgets
beyond the last corner included), ``lower_global``, ``lower_uniform`` and
``lower_curve_weak_only`` on nine budgets per preset, and all four on 200
seeded random scenarios.  ``golden/curve_*.csv`` are the outputs of the
baseline ``curve`` commands below, compared byte for byte, also with the
compensated builtin ``sum`` of Python 3.12 in place of the running one
(``tests/oracles.py::compensated_sum``): the CSVs must not depend on the
Python version.

Both were captured while ``eval_hull_2d`` still enumerated every support
of size <= 3 per query and the lower bounds rebuilt their hulls at every
call.  Values must agree within 1e-12 and error classes exactly, with one
exception: a ``ZeroDivisionError`` line (a corner point whose closed form
divides by zero at a boundary erasure) must now give a finite value, since
such points are skipped.  Two golden values are wrong (see
``ENUMERATION_DEFECTS``) and are checked against the right value instead.
Do not regenerate the files to fit new output.

Capture (only against the code the goldens are meant to pin):

    PYTHONPATH=src python3 tests/test_lower_golden.py
"""

from __future__ import annotations

import builtins
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from secache import (
    ChannelScenario,
    lower_curve_weak_only,
    lower_global,
    lower_surface_all,
    lower_uniform,
    points_all_cached,
)
from oracles import compensated_sum, legacy
from secache.cli import PRESETS, main
from test_ub_golden import M_TOT_GRID, _random_scenarios

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = GOLDEN_DIR / "lower.tsv"

# the last corner of fig5 sits below M_w = 30 and M_s = 10
M_W_GRID = (0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 40.0)
M_S_GRID = (0.0, 0.01, 0.05, 0.3, 1.0, 40.0)

# The enumeration accepted three points on the diagonal M_w = M_s (memories
# up to 285) whose determinant, -3.6e-12, is pure rounding but passed its
# absolute 1e-12 cutoff, and put all weight on a point far outside the zero
# budget.  At M = (0, 0) only the points at the origin fit.
ENUMERATION_DEFECTS = (
    'rand105|{"K_w": 4, "K_s": 12, "delta_w": 0.0, "delta_s": 0.0, "delta_z": 1.0, '
    '"D": 19}|surface|0.0|0.0',
    'rand180|{"K_w": 12, "K_s": 9, "delta_w": 0.0, "delta_s": 0.0, "delta_z": 1.0, '
    '"D": 22}|surface|0.0|0.0',
)

CURVES = {
    "curve_fig3_surface-slice.csv": ["--preset", "fig3", "--mode", "surface-slice",
                                     "--ms", "0.05", "--grid", "0:1:0.01"],
    "curve_fig5_global.csv": ["--preset", "fig5", "--mode", "global", "--grid", "0:25:0.01"],
    "curve_fig3_weak-only.csv": ["--preset", "fig3", "--mode", "weak-only", "--grid", "0:1:0.01"],
}


def _cases():
    """(case id, function, positional arguments)."""
    for name in ("fig3", "fig4", "fig5"):
        s = ChannelScenario(**PRESETS[name])
        for m_w in M_W_GRID:
            for m_s in M_S_GRID:
                yield f"{name}|surface|mw={m_w}|ms={m_s}", lower_surface_all, (s, m_w, m_s)
        for m in M_TOT_GRID:
            yield f"{name}|global|m={m}", lower_global, (s, m)
            yield f"{name}|uniform|m={m}", lower_uniform, (s, m)
            yield f"{name}|weak-only|mw={m}", lower_curve_weak_only, (s, m)
    for case_id, s, cache, m in _random_scenarios(seed=20260404):
        sid = f"{case_id}|{s.to_json()}"
        yield f"{sid}|surface|{cache.M_w}|{cache.M_s}", lower_surface_all, (s, cache.M_w, cache.M_s)
        yield f"{sid}|global|{m}", lower_global, (s, m)
        yield f"{sid}|uniform|{m}", lower_uniform, (s, m)
        yield f"{sid}|weak-only|{cache.M_w}", lower_curve_weak_only, (s, cache.M_w)


def _rows() -> list[list[str]]:
    rows = []
    for case_id, fn, args in _cases():
        try:
            rows.append([case_id, repr(fn(*args))])
        except Exception as exc:  # the error class is part of the golden
            rows.append([case_id, f"ERROR:{type(exc).__name__}"])
    return rows


def _curve_csv(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["curve", *argv]) == 0
    return out.getvalue()


def test_lower_bounds_match_golden():
    golden = [ln.split("\t") for ln in GOLDEN.read_text(encoding="utf-8").splitlines()]
    rows = _rows()
    assert [r[0] for r in rows] == [g[0] for g in golden]
    for (case_id, got), (_, want) in zip(rows, golden):
        if case_id in ENUMERATION_DEFECTS:
            s = ChannelScenario.from_dict(json.loads(case_id.split("|")[1]))
            at_origin = [p.R for p in points_all_cached(s) if p.M_w == p.M_s == 0.0]
            assert float(got) == max(at_origin) != float(want), case_id
        elif want == "ERROR:ZeroDivisionError":
            assert not got.startswith("ERROR:") and math.isfinite(float(got)), case_id
        elif want.startswith("ERROR:") or got.startswith("ERROR:"):
            assert got == want, case_id
        else:
            assert abs(float(got) - float(want)) <= 1e-12, (case_id, got, want)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_baseline_curve_csv_is_byte_identical(name, monkeypatch):
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert _curve_csv(CURVES[name]) == want
    # From Python 3.12 the builtin sum of floats is compensated; a corner
    # sum that took it moved a row of the fig5 global CSV in its last
    # printed digit.
    assert compensated_sum([0.1] * 10) == 1.0 != legacy([0.1] * 10)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert _curve_csv(CURVES[name]) == want


if __name__ == "__main__":
    GOLDEN.write_text("\n".join("\t".join(r) for r in _rows()) + "\n", encoding="utf-8")
    for name, argv in CURVES.items():
        (GOLDEN_DIR / name).write_text(_curve_csv(argv), encoding="utf-8", newline="\n")
