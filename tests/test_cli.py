import json
import math
import time
from collections import Counter

import pytest

from secache import InvalidParameter, corners
from secache.cli import main
from secache.schemes import BUILDERS
from test_corners import OVERFLOWING

FIG3 = {"K_w": 5, "K_s": 15, "delta_w": 0.7, "delta_s": 0.3, "delta_z": 0.8, "D": 30}


@pytest.fixture
def fig3_file(tmp_path):
    path = tmp_path / "fig3.json"
    path.write_text(json.dumps(FIG3))
    return str(path)


def test_bounds_exact_regime(fig3_file, capsys):
    rc = main(["bounds", "--scenario", fig3_file, "--mw", "0.01", "--ms", "0"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["upper"]["value"] == pytest.approx(0.01875, abs=1e-9)
    assert obj["lower"] == pytest.approx(0.01875, abs=1e-9)


def test_bounds_origin_preset(capsys):
    rc = main(["bounds", "--preset", "fig3", "--mw", "0", "--ms", "0"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["upper"]["value"] == pytest.approx(0.0125, abs=1e-9)
    assert obj["lower"] == pytest.approx(0.0125, abs=1e-9)


def test_bounds_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"K_w": 5')
    rc = main(["bounds", "--scenario", str(bad), "--mw", "0"])
    assert rc == 2
    assert "JSON" in capsys.readouterr().err


def test_bounds_invalid_field_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**FIG3, "delta_s": 0.9}))
    rc = main(["bounds", "--scenario", str(bad), "--mw", "0"])
    assert rc == 2
    assert "delta_s" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("K_w", 2.7), ("D", 30.5), ("K_w", True), ("D", float("inf"))])
def test_bounds_non_integral_count_exits_2(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**FIG3, field: value}))
    rc = main(["bounds", "--scenario", str(bad), "--mw", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


def test_curve_weak_only_flat_regime(tmp_path, fig3_file):
    out = tmp_path / "c.csv"
    rc = main(
        [
            "curve",
            "--scenario",
            fig3_file,
            "--mode",
            "weak-only",
            "--grid",
            "0:1:0.001",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "M,R_lower_joint,R_lower_separate,R_upper"
    assert len(lines) == 1002
    assert not any(line != line.rstrip() for line in lines)
    # first grid point past the saturation memory 0.47272..
    row = dict(zip(lines[0].split(","), lines[474].split(",")))
    assert abs(float(row["M"]) - 0.473) < 1e-12
    assert float(row["R_lower_joint"]) == pytest.approx(1 / 30, abs=1e-6)
    assert float(row["R_upper"]) == pytest.approx(1 / 30, abs=1e-6)


def test_curve_fig4_slope_one(tmp_path):
    out = tmp_path / "c4.csv"
    rc = main(
        [
            "curve",
            "--preset",
            "fig4",
            "--mode",
            "weak-only",
            "--grid",
            "0:0.013:0.001",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for line in out.read_text().splitlines()[1:]:
        m, lo = line.split(",")[:2]
        assert float(lo) == pytest.approx(float(m), abs=1e-9)


def test_curve_deterministic(tmp_path, fig3_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["curve", "--scenario", fig3_file, "--mode", "global", "--grid", "0:1:0.05"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "M_tot,R_glob,R_weak_only,R_uniform,R_nonsecure_note"


def test_curve_bad_grid(fig3_file, capsys):
    rc = main(
        ["curve", "--scenario", fig3_file, "--mode", "weak-only", "--grid", "nope"]
    )
    assert rc == 2


def test_verify_pass(fig3_file, capsys):
    rc = main(
        [
            "verify",
            "--scenario",
            fig3_file,
            "--scheme",
            "piggyback-one",
            "--t",
            "2",
            "--eps",
            "1e-4",
        ]
    )
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True


def test_verify_t_out_of_range(fig3_file, capsys):
    rc = main(
        [
            "verify",
            "--scenario",
            fig3_file,
            "--scheme",
            "piggyback-one",
            "--t",
            "9",
        ]
    )
    assert rc == 2


def test_verify_not_applicable(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({**FIG3, "delta_z": 0.2}))
    rc = main(
        ["verify", "--scenario", str(path), "--scheme", "wiretap-cached-keys"]
    )
    assert rc == 3
    assert "not applicable" in capsys.readouterr().err


ZERO_DENOMINATOR = {"K_w": 3, "K_s": 2, "delta_w": 1.0, "delta_s": 1.0, "delta_z": 0.5, "D": 8}


@pytest.mark.parametrize(
    "scenario,scheme",
    [
        (ZERO_DENOMINATOR, ["piggyback-allkeys", "--t", "1"]),
        ({**ZERO_DENOMINATOR, "delta_s": 0.3},
         ["symmetric-piggyback", "--tw", "3", "--ts", "1"]),
    ],
)
def test_verify_vanishing_split_is_not_applicable(tmp_path, scenario, scheme, capsys):
    # Both phase splits divide by zero here: delta_w = 1 with delta_s = 1,
    # or with t_w = K_w.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    rc = main(["verify", "--scenario", str(path), "--scheme", *scheme])
    assert rc == 3
    assert "not applicable: phase split degenerates" in capsys.readouterr().err


def test_verify_fig4_wiretap_passes(capsys):
    rc = main(["verify", "--preset", "fig4", "--scheme", "wiretap-cached-keys"])
    assert rc == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect (ROADMAP item 1): SECRECY fails "
                   "with margin -0.0667 in segment (1, 'pg')")
def test_verify_fig4_piggyback_two_passes(capsys):
    rc = main(["verify", "--preset", "fig4", "--scheme", "piggyback-two"])
    assert rc == 0


def test_simulate_deterministic(fig3_file, capsys):
    args = [
        "simulate",
        "--scenario",
        fig3_file,
        "--scheme",
        "wiretap-cached-keys",
        "--eps",
        "0.002",
        "--n",
        "2000",
        "--trials",
        "20",
        "--seed",
        "11",
    ]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert json.loads(out1)["generator"] == "philox4x64"


def test_simulate_bad_eps(fig3_file, capsys):
    rc = main(
        [
            "simulate",
            "--scenario",
            fig3_file,
            "--scheme",
            "wiretap-cached-keys",
            "--eps",
            "-0.01",
            "--n",
            "1000",
        ]
    )
    assert rc == 2


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_regimes_fig3(capsys):
    rc = main(["regimes", "--preset", "fig3"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    claims = {c["name"]: c for c in obj["claims"]}
    assert "weak-only-small-memory" in claims
    assert claims["weak-only-large-memory"]["interval"][1] is None  # unbounded


def test_curve_surface_slice(tmp_path, fig3_file):
    out = tmp_path / "slice.csv"
    rc = main(
        [
            "curve",
            "--scenario",
            fig3_file,
            "--mode",
            "surface-slice",
            "--grid",
            "0:0.02:0.01",
            "--ms",
            "0.0075",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "M,R_lower,R_upper"
    for line in lines[1:]:
        m, lo, up = (float(x) for x in line.split(","))
        assert lo <= up + 1e-9


BOUNDARY_ERASURES = (0.0, 0.3, 0.7, 1.0)
BOUNDARY_COMMANDS = (
    ["bounds", "--mw", "0.3", "--ms", "0.2"],
    ["regimes"],
    ["curve", "--mode", "global", "--grid", "0:3:0.5"],
    ["curve", "--mode", "weak-only", "--grid", "0:1:0.25"],
    ["curve", "--mode", "surface-slice", "--ms", "0.1", "--grid", "0:1:0.25"],
    ["curve", "--mode", "uniform", "--grid", "0:3:0.5"],
)


def boundary_scenarios():
    """The 200 valid scenarios with erasures in {0, .3, .7, 1}, as dicts."""
    for k_w, k_s in ((0, 2), (2, 0), (1, 1), (2, 3), (3, 1)):
        for d_s in BOUNDARY_ERASURES:
            for d_w in (d for d in BOUNDARY_ERASURES if d >= d_s):
                for d_z in BOUNDARY_ERASURES:
                    yield dict(K_w=k_w, K_s=k_s, delta_w=d_w, delta_s=d_s,
                               delta_z=d_z, D=k_w + k_s + 3)


def test_boundary_erasures_give_documented_outcomes(tmp_path, capsys):
    """Every valid scenario with erasures in {0, .3, .7, 1} ends with exit
    0, 2 or 3 (never a traceback), and JSON output is strict."""
    path = tmp_path / "s.json"
    runs = 0
    for sc in boundary_scenarios():
        path.write_text(json.dumps(sc))
        for cmd in BOUNDARY_COMMANDS:
            rc = main([cmd[0], "--scenario", str(path), *cmd[1:]])
            out = capsys.readouterr().out
            assert rc in (0, 2, 3), (sc, cmd)
            if rc == 0 and cmd[0] != "curve":
                json.loads(out, parse_constant=_reject_constant)
            runs += 1
    assert runs == 5 * 10 * 4 * len(BOUNDARY_COMMANDS)


@pytest.mark.parametrize("preset", ["fig3", "fig4", "fig5"])
@pytest.mark.parametrize("mw,ms", [(0.0, 0.0), (0.05, 0.02), (0.3, 0.0), (0.7, 0.4), (40.0, 40.0)])
def test_bounds_lower_mixture_certifies_lower(preset, mw, ms, capsys):
    from secache import ChannelScenario, points_all_cached, points_weak_only
    from secache.cli import PRESETS

    rc = main(["bounds", "--preset", preset, "--mw", str(mw), "--ms", str(ms)])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    s = ChannelScenario(**PRESETS[preset])
    by_label = {p.label: p for p in points_all_cached(s) + points_weak_only(s)}
    mix = obj["lower_mixture"]
    weights = [m["weight"] for m in mix]
    points = [by_label[m["label"]] for m in mix]
    assert all(w >= 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    assert sum(w * p.M_w for w, p in zip(weights, points)) <= mw + 1e-12
    assert sum(w * p.M_s for w, p in zip(weights, points)) <= ms + 1e-12
    assert sum(w * p.R for w, p in zip(weights, points)) == pytest.approx(obj["lower"], abs=1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="known defect (ROADMAP item 1): the lower "
                   "mixture's all:generalized[t=1,lower-limit] point lies above the converse")
@pytest.mark.parametrize("scenario,mw,ms", [
    # lower 0.033633 against upper 0.0318
    ({"K_w": 3, "K_s": 5, "delta_w": 0.915673, "delta_s": 0.343631, "delta_z": 0.182713,
      "D": 13}, "0.9375", "0.0318"),
    # lower 0.0067434 against upper 0.002
    ({"K_w": 3, "K_s": 2, "delta_w": 0.9355, "delta_s": 0.153545, "delta_z": 0.0,
      "D": 7}, "1.677", "0.002"),
])
def test_bounds_lower_stays_below_upper(tmp_path, scenario, mw, ms, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    assert main(["bounds", "--scenario", str(path), "--mw", mw, "--ms", ms]) == 0
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert obj["lower"] <= obj["upper"]["value"] + 1e-9


@pytest.mark.parametrize("extra", [
    ["--grid=-0.5:1:0.5"],
    ["--grid", "0:1:0.5", "--ms=-0.1"],
    ["--grid", "0:1:0.5", "--ms", "nan"],
    # grids that never end or hold 10^9 points, refused before any is built
    ["--grid", "0:nan:1"],
    ["--grid", "0:inf:1"],
    ["--grid", "0:1:inf"],
    ["--grid", "0:1:1e-9"],
    # a step lost to rounding would repeat points
    ["--grid", "0:1e-11:1e-13"],
    ["--grid", "1e17:1e17:1"],
])
def test_curve_negative_memory_is_bad_input(fig3_file, extra, capsys):
    rc = main(["curve", "--scenario", fig3_file, "--mode", "surface-slice", *extra])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("memory", [["--mw", "nan"], ["--mw", "inf"], ["--mw", "0.1", "--ms", "nan"]])
def test_bounds_non_finite_memory_is_bad_input(memory, capsys):
    assert main(["bounds", "--preset", "fig3", *memory]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("ms", ["-0.5", "nan", "inf"])
def test_surface_slice_names_a_bad_strong_cache_as_bounds_does(ms, capsys):
    # the grid's cache sizes are checked before the surface is queried
    assert main(["bounds", "--preset", "fig3", "--mw", "0", "--ms", ms]) == 2
    expected = capsys.readouterr().err
    assert "cache sizes must be finite and nonnegative" in expected
    rc = main(["curve", "--preset", "fig3", "--mode", "surface-slice",
               "--ms", ms, "--grid", "0:0.1:0.05"])
    assert rc == 2
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize("mode", ["weak-only", "global", "uniform"])
@pytest.mark.parametrize("ms", ["-0.5", "nan", "inf"])
def test_curve_modes_without_a_strong_cache_still_refuse_a_bad_one(mode, ms, capsys):
    # these modes do not read --ms, yet a bad value exits 2 as in bounds
    assert main(["bounds", "--preset", "fig3", "--mw", "0", "--ms", ms]) == 2
    expected = capsys.readouterr().err
    rc = main(["curve", "--preset", "fig3", "--mode", mode,
               "--ms", ms, "--grid", "0:0.1:0.05"])
    assert rc == 2
    assert capsys.readouterr() == ("", expected)


def test_grid_step_below_float_resolution_terminates():
    from secache.cli import _parse_grid

    # 1e300 + k * 1 == 1e300 for every k: the points come from the count,
    # and the repeated point is refused
    with pytest.raises(InvalidParameter, match="1e300:1e300:1"):
        _parse_grid("1e300:1e300:1")
    assert _parse_grid("0.5:0.5:1") == [0.5]


@pytest.mark.parametrize("params", [
    ["--scheme", "piggyback-one", "--t", "10"],  # 2.2M units
    ["--scheme", "symmetric-piggyback", "--tw", "10", "--ts", "5"],  # 3.7M atom references
])
def test_plan_size_cap_is_bad_input(params, capsys):
    # verify reads the plan by its orbits and accepts it; simulate would
    # expand it, and refuses it from the orbits' count before compiling
    assert main(["verify", "--preset", "fig5", *params]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in report["checks"] if c["passed"]] == [
        "RATE", "DECODE", "SECRECY", "CACHE"]
    start = time.perf_counter()
    rc = main(["simulate", "--preset", "fig5", "--n", "2000", *params])
    elapsed = time.perf_counter() - start
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err
    assert elapsed < 1.0


HUGE = {"K_w": 2000, "K_s": 3, "delta_w": 0.7, "delta_s": 0.2, "delta_z": 0.8, "D": 2010}


@pytest.mark.parametrize("command", [["verify"], ["simulate", "--n", "2000"]])
@pytest.mark.parametrize("scenario,params", [
    (HUGE, ["--scheme", "piggyback-one", "--t", "1000"]),
    (HUGE, ["--scheme", "piggyback-allkeys", "--t", "1000"]),
    (HUGE, ["--scheme", "symmetric-piggyback", "--tw", "1000", "--ts", "2"]),
    # C(70, 35) > 2^63: no such family's len() would fit an index
    ({**HUGE, "K_w": 70, "D": 80}, ["--scheme", "piggyback-one", "--t", "35"]),
    ({**HUGE, "K_w": 70, "D": 80}, ["--scheme", "symmetric-piggyback", "--tw", "35", "--ts", "2"]),
    # C(20000, 9999) has over 4,300 digits, more than str() converts
    ({**HUGE, "K_w": 20000, "D": 20010}, ["--scheme", "piggyback-one", "--t", "10000"]),
], ids=["piggyback-one", "piggyback-allkeys", "symmetric-piggyback",
        "piggyback-one-Kw70", "symmetric-piggyback-Kw70", "piggyback-one-Kw20000"])
def test_huge_subset_plans_are_refused(tmp_path, capsys, command, scenario, params):
    # Label families of C(2000, 1000) or C(70, 35) labels are refused at
    # build, before any rate is divided by their size: exit 2, no traceback.
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    rc = main([*command, "--scenario", str(path), *params])
    elapsed = time.perf_counter() - start
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("trials,demands", [
    ("1000001", "all-distinct"),
    ("1000", "exhaustive-if-small"),  # D^K > 10^6: 1001 sampled demands
    ("1", "random:2000000"),
])
def test_simulate_size_cap_is_bad_input(tmp_path, trials, demands, capsys):
    # Refused before any demand vector or segment length is computed: at
    # n=5 every segment would round to zero channel uses.
    rc = main(["simulate", "--preset", "fig3", "--scheme", "symmetric-piggyback",
               "--n", "5", "--trials", trials, "--demands", demands])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds the cap" in captured.err


def test_simulate_size_cap_boundary(monkeypatch, capsys):
    from secache import simulate

    monkeypatch.setattr(simulate, "MAX_SIM_PAIRS", 12)
    args = ["simulate", "--preset", "fig3", "--scheme", "wiretap-cached-keys",
            "--n", "2000", "--demands", "random:3", "--trials"]
    assert main(args + ["3"]) == 0
    assert main(args + ["4"]) == 2


@pytest.mark.parametrize("n,rc", [
    (10**24, 2),  # overflowed int64 in the segment lengths
    (2**53 + 1, 2),
    (2**53, 0),  # the largest n at which every integer is an exact float
])
def test_simulate_blocklength_cap(n, rc, capsys):
    code = main(["simulate", "--preset", "fig3", "--scheme", "cached-keys-all",
                 "--n", str(n), "--trials", "1"])
    assert code == rc
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.out == ""
        assert "blocklength must be <= 2**53" in captured.err
    else:
        assert json.loads(captured.out)["n"] == n


@pytest.mark.parametrize("seed,rc", [
    (2**53 + 1, 2),  # would share its float64 Philox key with 2**53
    (2**60 + 1, 2),
    (2**64 - 1, 2),
    (-1, 2),
    (2**53, 0),  # the largest seed at which every integer is an exact float
])
def test_simulate_seed_cap(seed, rc, capsys):
    code = main(["simulate", "--preset", "fig3", "--scheme", "cached-keys-all",
                 "--n", "5000", "--trials", "3", "--seed", str(seed)])
    assert code == rc
    captured = capsys.readouterr()
    if rc == 2:
        assert captured.out == ""
        assert "seed must be in 0..2**53" in captured.err
    else:
        assert json.loads(captured.out)["seed"] == seed


def test_simulate_non_integer_demand_count_is_bad_input(capsys):
    rc = main(["simulate", "--preset", "fig3", "--scheme", "wiretap-cached-keys",
               "--n", "2000", "--demands", "random:three"])
    assert rc == 2
    assert "not an integer" in capsys.readouterr().err


def test_simulate_negative_demand_count_is_bad_input(capsys):
    rc = main(["simulate", "--preset", "fig3", "--scheme", "wiretap-cached-keys",
               "--n", "2000", "--demands", "random:-5"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "negative" in err


@pytest.mark.parametrize("scheme", sorted(BUILDERS))
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--n", "2000"]])
def test_backoff_below_rate_tolerance_is_bad_input(scheme, command, capsys):
    # a backoff under RATE_TOL rounds away, so the plan would fail RATE
    rc = main([*command, "--preset", "fig3", "--scheme", scheme, "--eps", "1e-20"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eps must be >=" in captured.err


def test_repeated_main_calls_share_one_parser(capsys):
    # one process, one parser: errors in between leave later calls unchanged
    from secache.cli import make_parser

    curve = ["curve", "--preset", "fig3", "--mode", "surface-slice",
             "--ms", "0.05", "--grid", "0:0.4:0.1"]
    assert main(curve) == 0
    first = capsys.readouterr().out
    assert first.count("\n") == 6
    with pytest.raises(SystemExit) as exc:
        main(curve[:-2])  # argparse: --grid is required
    assert exc.value.code == 2
    assert "--grid" in capsys.readouterr().err
    assert main(curve[:-1] + ["nope"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "grid must be" in captured.err
    assert main(["bounds", "--preset", "fig4", "--mw", "0.1"]) == 0
    assert json.loads(capsys.readouterr().out)["upper"]["value"] > 0
    assert main(curve) == 0
    assert capsys.readouterr().out == first
    assert make_parser() is make_parser()


@pytest.mark.parametrize("mode", ["weak-only", "surface-slice", "global", "uniform", "bounds"])
@pytest.mark.parametrize("scenario", [
    FIG3,
    {"K_w": 20, "K_s": 10, "delta_w": 0.7, "delta_s": 0.2, "delta_z": 0.8, "D": 50},
    {**FIG3, "delta_z": 0.2},  # weak-only family gated off
])
def test_curve_evaluates_each_family_once(tmp_path, capsys, monkeypatch, scenario, mode):
    """Every curve mode, and ``bounds`` (``mode`` "bounds"), evaluates each
    corner family at most once."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    calls = Counter()
    for name in ("weak_only_corners", "separate_from_weak_only", "all_cached_corners",
                 "symmetric_corners"):
        def counted(*args, family=getattr(corners, name), **kwargs):
            calls[family.__name__] += 1
            return family(*args, **kwargs)
        monkeypatch.setattr(corners, name, counted)
    if mode == "bounds":
        argv = ["bounds", "--scenario", str(path), "--mw", "0.5", "--ms", "0.1"]
    else:
        argv = ["curve", "--scenario", str(path), "--mode", mode, "--grid", "0:1:0.5"]
    assert main(argv) == 0 and capsys.readouterr().out
    assert calls and max(calls.values()) == 1, calls


@pytest.mark.parametrize("scenario", OVERFLOWING)
@pytest.mark.parametrize("mode", ["global", "uniform"])
def test_curve_skips_overflowing_corners(tmp_path, capsys, scenario, mode):
    """Large-K corners whose closed forms overflow are left out; the
    curve is still built from the rest (no traceback, no refusal)."""
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario))
    rc = main(["curve", "--scenario", str(path), "--mode", mode, "--grid", "0:20:5"])
    rows = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert len(rows) == 6
    for row in rows[1:]:
        values = [float(v) for v in row.split(",") if v]
        assert len(values) >= 2 and all(math.isfinite(v) for v in values), row
