"""Start-up: what each entry point loads, checked in fresh interpreters.

Building the CLI parser and ``verify`` load only the pure-Python modules
(``errors``, ``model``, ``schemes``) and no numpy; each computing command
loads its numpy-backed modules itself.  The package namespace resolves
its public names lazily and never copies them into its globals.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import secache
from secache.cli import main
from test_tracing_names import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

PURE = {"secache", "secache.cli", "secache.errors", "secache.model", "secache.schemes"}
NUMPY_BACKED = {"secache.bounds", "secache.corners", "secache.hull", "secache.tradeoff"}

# The public names and their modules, as the package imported them eagerly.
PUBLIC = {
    "bounds": ["BoundFamily", "UpperBoundReport", "alpha_sequence", "ub_best", "ub_best_grid",
               "ub_cache_sharing", "ub_global", "ub_split"],
    "corners": ["points_all_cached", "points_separate", "points_symmetric", "points_weak_only",
                "weak_only_max_slope"],
    "errors": ["BelowDomain", "ConfigError", "EmptyInput", "IndexOutOfRange", "Infeasible",
               "InvalidParameter", "InvalidScenario", "NotApplicable", "RangeError",
               "SecacheError"],
    "hull": ["Curve1D", "Surface", "eval_hull_1d", "eval_hull_2d", "upper_hull_1d"],
    "model": ["CacheSizes", "ChannelScenario", "RateMemoryPoint", "validate_scenario",
              "zero_cache_capacity"],
    "schemes": ["Atom", "BUILDERS", "DeliverySegment", "DeliveryUnit", "SchemePlan",
                "VerificationReport", "build_cached_keys_all", "build_piggyback_allkeys",
                "build_piggyback_one", "build_piggyback_two", "build_superposition_jamming",
                "build_symmetric_piggyback", "build_wiretap_cached_keys", "cache_usage",
                "cache_usage_by_class", "verify_plan"],
    "simulate": ["SimConfig", "SimReport", "run_monte_carlo"],
    "tradeoff": ["Tradeoff", "exact_regimes", "global_curve", "lower_curve_weak_only",
                 "lower_global", "lower_surface_all", "lower_uniform", "separate_curve",
                 "uniform_curve", "weak_only_curve"],
}

# Runs main(argv) and reports its exit code, its stdout and what it loaded.
RUN_MAIN = """
import contextlib, io, json, sys
from secache.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(sys.argv[1:])
print(json.dumps({"rc": rc, "out": out.getvalue(), "numpy": "numpy" in sys.modules,
                  "secache": sorted(m for m in sys.modules if m.split(".")[0] == "secache")}))
"""


def _fresh(code: str, *argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_parser_loads_no_numpy():
    got = _fresh("import json, sys\n"
                 "from secache import cli\n"
                 "cli.make_parser()\n"
                 "print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in got
    assert {m for m in got if m.startswith("secache")} == PURE


def test_verify_runs_without_numpy(capsys):
    argv = ["verify", "--preset", "fig3", "--scheme", "wiretap-cached-keys"]
    got = _fresh(RUN_MAIN, *argv)
    assert got["rc"] == main(argv) == 0
    assert got["out"] == capsys.readouterr().out
    assert not got["numpy"]
    assert set(got["secache"]) == PURE


@pytest.mark.parametrize("argv,loaded", [
    (["bounds", "--preset", "fig3", "--mw", "0.1"], NUMPY_BACKED),
    (["curve", "--preset", "fig3", "--mode", "weak-only", "--grid", "0:0.2:0.1"], NUMPY_BACKED),
    (["curve", "--preset", "fig5", "--mode", "global", "--grid", "0:1:0.5"], NUMPY_BACKED),
    (["regimes", "--preset", "fig4"], NUMPY_BACKED),
    (["simulate", "--preset", "fig3", "--scheme", "wiretap-cached-keys", "--n", "500",
      "--trials", "2"], {"secache.simulate"}),
])
def test_each_command_loads_only_its_modules(argv, loaded, capsys):
    got = _fresh(RUN_MAIN, *argv)
    assert got["rc"] == main(argv) == 0
    assert got["out"] == capsys.readouterr().out
    assert got["numpy"]
    assert set(got["secache"]) == PURE | loaded


def test_public_names_are_their_modules_attributes():
    assert set(secache.__all__) == {name for names in PUBLIC.values() for name in names}
    assert len(secache.__all__) == len(set(secache.__all__))
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"secache.{module}")
        for name in names:
            assert getattr(secache, name) is getattr(mod, name), name
    # resolved on every access, never copied into the package
    assert not set(secache.__all__) & set(vars(secache))


def test_namespace_lists_and_refuses_names():
    assert set(secache.__all__) <= set(dir(secache))
    with pytest.raises(AttributeError, match="no_such_name"):
        secache.no_such_name  # noqa: B018
    ns: dict = {}
    exec("from secache import *", ns)
    assert set(secache.__all__) <= set(ns)


def test_tracer_restore_leaves_no_wrapper_in_the_namespace():
    from secache import bounds

    tracer = tracing.Tracer()
    original = bounds.ub_best
    tracer.install()
    try:
        # the module attribute is the one binding: the package reads it
        assert secache.ub_best is bounds.ub_best is not original
        assert all(getattr(v, "__wrapped__", None) is None for v in vars(secache).values())
        assert all(target is not secache for target, _, _ in tracer._patched)
    finally:
        tracer.restore()
    assert secache.ub_best is bounds.ub_best is original
    assert all(getattr(v, "__wrapped__", None) is None for v in vars(secache).values())
    for name in secache.__all__:
        assert getattr(getattr(secache, name), "__wrapped__", None) is None, name
