"""Command-line interface: bounds, curves, scheme verification, simulation.

Exit codes: 0 success, 2 input/parameter error, 3 domain-not-applicable.
All output is deterministic (CSV uses '.' decimals, LF line ends, no
trailing whitespace).

Only the pure-Python modules (``errors``, ``model``, ``schemes``) load
with this one, so building the parser and ``verify`` never import numpy.
Each computing command imports its numpy-backed modules itself:
``bounds``, ``hull`` and ``tradeoff`` in ``bounds``, ``curve`` and
``regimes``, and ``simulate`` in ``simulate``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import schemes
from .errors import Infeasible, InvalidParameter, InvalidScenario, NotApplicable
from .model import CacheSizes, ChannelScenario

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3

PRESETS = {
    "fig3": dict(K_w=5, K_s=15, delta_w=0.7, delta_s=0.3, delta_z=0.8, D=30),
    "fig4": dict(K_w=5, K_s=15, delta_w=0.8, delta_s=0.3, delta_z=0.6, D=30),
    "fig5": dict(K_w=20, K_s=10, delta_w=0.7, delta_s=0.2, delta_z=0.8, D=50),
}


def _load_scenario(args) -> ChannelScenario:
    if args.preset:
        return ChannelScenario.from_dict(PRESETS[args.preset])
    if not args.scenario:
        raise InvalidScenario("provide --scenario FILE or --preset NAME")
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InvalidScenario(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidScenario(f"scenario file is not valid JSON: {exc}") from None
    return ChannelScenario.from_dict(obj)


#: Most points a ``--grid`` may hold, counted before the list is built.
MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise InvalidParameter(f"grid must be 'start:stop:step', got {text!r}")
    if not (0 <= a <= b < float("inf") and 0 < step < float("inf")):
        raise InvalidParameter(
            f"bad grid {text!r} (finite numbers, 0 <= start <= stop, step > 0)"
        )
    top = b + 1e-12
    count = (top - a) / step  # points past the first, up to rounding
    if count >= MAX_GRID_POINTS:
        raise InvalidParameter(
            f"grid {text!r} exceeds the cap of {MAX_GRID_POINTS} points"
        )
    # a + k * step never decreases in k, so the filter keeps a prefix
    points = [round(a + k * step, 12) for k in range(int(count) + 2)
              if a + k * step <= top]
    # a step lost to float addition or to the rounding repeats a point
    if any(x >= y for x, y in zip(points, points[1:])):
        raise InvalidParameter(f"grid {text!r} repeats a point (step below resolution)")
    return points


def _fmt(x: float | None) -> str:
    return "" if x is None else f"{x:.12g}"


def cmd_bounds(args) -> int:
    from . import bounds, tradeoff

    s = _load_scenario(args)
    cache = CacheSizes(args.mw, args.ms)
    upper = bounds.ub_best(s, cache)
    surface = tradeoff.Tradeoff(s).surface
    lower = surface(args.mw, args.ms)
    mixture = [
        {"label": label, "weight": weight}
        for label, weight in surface.mixture(args.mw, args.ms)
    ]
    print(json.dumps({"upper": upper.to_dict(), "lower": lower,
                      "lower_mixture": mixture}, indent=2))
    return EXIT_OK


def cmd_curve(args) -> int:
    from . import bounds, hull, tradeoff

    s = _load_scenario(args)
    grid = _parse_grid(args.grid)
    # Every mode refuses a bad --ms, naming it as ``bounds`` does at the
    # grid's first point, though only surface-slice reads it.
    CacheSizes(grid[0], args.ms)
    rows: list[str] = []
    lower = tradeoff.Tradeoff(s)
    if args.mode == "weak-only":
        joint = lower.weak_curve
        try:
            sep = lower.separate_curve
        except NotApplicable:  # the separate family shares the weak-only gate
            sep = None
        rows.append("M,R_lower_joint,R_lower_separate,R_upper")
        uppers = bounds.ub_best_grid(s, [CacheSizes(m, 0.0) for m in grid])
        for m, up in zip(grid, uppers):
            lo = hull.eval_hull_1d(joint, m)
            lo_sep = None if sep is None else hull.eval_hull_1d(sep, m)
            rows.append(f"{_fmt(m)},{_fmt(lo)},{_fmt(lo_sep)},{_fmt(up.value)}")
    elif args.mode == "surface-slice":
        rows.append("M,R_lower,R_upper")
        caches = [CacheSizes(m, args.ms) for m in grid]
        surface = lower.surface
        lowers = [surface(m, args.ms) for m in grid]
        uppers = bounds.ub_best_grid(s, caches)
        for m, lo, up in zip(grid, lowers, uppers):
            rows.append(f"{_fmt(m)},{_fmt(lo)},{_fmt(up.value)}")
    elif args.mode == "global":
        rows.append("M_tot,R_glob,R_weak_only,R_uniform,R_nonsecure_note")
        # The uniform column needs the symmetric family: where it is gated
        # off (K_w or K_s = 0, which gates the all-cached family too), the
        # command is not applicable, so K_w >= 1 below.
        uni = lower.uniform_curve
        glob, weak = lower.global_curve, lower.weak_curve
        for m in grid:
            # non-secure column intentionally empty: out of scope here
            rows.append(
                f"{_fmt(m)},{_fmt(hull.eval_hull_1d(glob, m))},"
                f"{_fmt(hull.eval_hull_1d(weak, m / s.K_w))},"
                f"{_fmt(hull.eval_hull_1d(uni, m))},"
            )
    else:  # "uniform"; argparse's choices admit no other mode
        rows.append("M_tot,R_uniform")
        uni = lower.uniform_curve
        for m in grid:
            rows.append(f"{_fmt(m)},{_fmt(hull.eval_hull_1d(uni, m))}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_plan(s: ChannelScenario, args) -> schemes.SchemePlan:
    name = args.scheme
    if name not in schemes.BUILDERS:
        raise InvalidParameter(
            f"unknown scheme {name!r}; choose from {sorted(schemes.BUILDERS)}"
        )
    if name == "piggyback-one":
        return schemes.build_piggyback_one(s, args.t, args.eps)
    if name == "piggyback-allkeys":
        return schemes.build_piggyback_allkeys(s, args.t, args.eps)
    if name == "symmetric-piggyback":
        return schemes.build_symmetric_piggyback(s, args.tw, args.ts, args.eps)
    return schemes.BUILDERS[name](s, args.eps)


def cmd_verify(args) -> int:
    s = _load_scenario(args)
    plan = _build_plan(s, args)
    report = schemes.verify_plan(plan, s)
    print(report.to_json(indent=2))
    return EXIT_OK if report.passed else EXIT_INPUT


def cmd_simulate(args) -> int:
    from . import simulate

    s = _load_scenario(args)
    plan = _build_plan(s, args)
    cfg = simulate.SimConfig(
        n=args.n, trials=args.trials, seed=args.seed, demand_policy=args.demands
    )
    report = simulate.run_monte_carlo(plan, s, cfg)
    print(report.to_json(indent=2))
    return EXIT_OK


def cmd_regimes(args) -> int:
    from . import tradeoff

    s = _load_scenario(args)
    print(json.dumps(tradeoff.exact_regimes(s).to_dict(), indent=2))
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared by every
    :func:`main` call (parsing keeps no state in it)."""
    p = argparse.ArgumentParser(
        prog="secache",
        description="Secrecy capacity-memory tradeoffs of cache-aided "
        "wiretap erasure broadcast channels",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_scenario(sp):
        sp.add_argument("--scenario", help="scenario JSON file")
        sp.add_argument("--preset", choices=sorted(PRESETS), help="built-in scenario")

    b = sub.add_parser("bounds", help="upper/lower bound at one cache point")
    add_scenario(b)
    b.add_argument("--mw", type=float, required=True, help="weak cache size")
    b.add_argument("--ms", type=float, default=0.0, help="strong cache size")
    b.set_defaults(fn=cmd_bounds)

    c = sub.add_parser("curve", help="tradeoff curve over a memory grid")
    add_scenario(c)
    c.add_argument(
        "--mode",
        required=True,
        choices=["weak-only", "surface-slice", "global", "uniform"],
    )
    c.add_argument("--grid", required=True, help="start:stop:step")
    c.add_argument("--ms", type=float, default=0.0, help="fixed strong cache")
    c.add_argument("--out", help="output CSV (stdout when omitted)")
    c.set_defaults(fn=cmd_curve)

    def add_scheme(sp):
        add_scenario(sp)
        sp.add_argument("--scheme", required=True)
        sp.add_argument("--eps", type=float, default=1e-4, help="rate backoff")
        sp.add_argument("--t", type=int, default=1)
        sp.add_argument("--tw", type=int, default=1)
        sp.add_argument("--ts", type=int, default=1)

    v = sub.add_parser("verify", help="build a scheme plan and verify it")
    add_scheme(v)
    v.set_defaults(fn=cmd_verify)

    m = sub.add_parser("simulate", help="Monte-Carlo run of a scheme plan")
    add_scheme(m)
    m.add_argument("--n", type=int, required=True, help="blocklength")
    m.add_argument("--trials", type=int, default=100)
    m.add_argument("--seed", type=int, default=0)
    m.add_argument(
        "--demands",
        default="all-distinct",
        help="all-distinct | exhaustive-if-small | random:<count>",
    )
    m.set_defaults(fn=cmd_simulate)

    r = sub.add_parser("regimes", help="report numerically certified exact regimes")
    add_scenario(r)
    r.set_defaults(fn=cmd_regimes)
    return p


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NotApplicable as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except (InvalidScenario, InvalidParameter, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
