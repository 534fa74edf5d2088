"""The benchmark tracer's wrapped names must exist in secache.

``perfbench/tracing.py`` looks up every ``(module, function)`` of its
``SPANNED`` and ``COUNTED`` tables with ``getattr`` on ``secache.<module>``
when ``Tracer.install`` runs, so a removed or renamed function crashes it,
and with it every traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

from secache import CacheSizes, ChannelScenario, bounds, schemes
from secache.cli import PRESETS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module,function", [(m, f) for m, f, _ in tracing.SPANNED + tracing.COUNTED]
)
def test_traced_name_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"secache.{module}"), function))


@pytest.mark.parametrize("name", sorted(schemes.BUILDERS))
def test_builder_is_a_spanned_module_attribute(name):
    # The tracer wraps a builder by its module attribute and patches every
    # dict holding the same object, so BUILDERS must hold that very object.
    builder = schemes.BUILDERS[name]
    assert getattr(schemes, builder.__name__) is builder
    assert ("schemes", builder.__name__) in {(m, f) for m, f, _ in tracing.SPANNED}


def test_scenario_validates_once_under_the_tracer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        s = ChannelScenario(**PRESETS["fig3"])
        bounds.ub_best(s, CacheSizes(0.1, 0.0))
    finally:
        tracer.restore()
    assert tracer.counts["model.validate_calls"] == 1
    assert tracer.counts["bounds.subpop_evals"] > 0


def test_grid_rebuilds_one_witness_per_point_under_the_tracer():
    # The batch computes every pair's values itself and calls the scalar
    # bound functions (module attributes, so the tracer counts them) only
    # to rebuild each point's winning report.
    s = ChannelScenario(**PRESETS["fig3"])
    caches = [CacheSizes(0.1 * i, 0.0) for i in range(11)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        before = tracer.counts["bounds.subpop_evals"]
        reports = bounds.ub_best_grid(s, caches)
        added = tracer.counts["bounds.subpop_evals"] - before
    finally:
        tracer.restore()
    assert added == 11
    assert reports == bounds.ub_best_grid(s, caches)
