"""Seeded op streams for the three benchmark workloads.

An op is one ``secache`` CLI invocation (a JSON-serialisable dict holding
its ``argv``).  Each workload is an endless stream of *periods*: a period
is a fixed mix of op kinds whose inputs are drawn from
``random.Random(f"{workload}:{seed}:{period}")``, so period ``p`` is the
same for a seed however many periods a run gets through, and a run that
stops on a period boundary always measures the same mix.

Where op costs differ by orders of magnitude (plan size, scenario size),
draws are stratified so that every period carries about the same work and
the spread between seeds stays small: one op per plan-size stratum, with
the stratum's value cycling across periods (``cycle``), and Latin blocks
of receiver counts and erasures for random scenarios.  On ``curves`` at
20 s (normalised timings, 2-vCPU machine), five seeds gave a quartile
spread over the median of 0.19 (``items_per_s``), 0.45 (``op_p50_ms``)
and 0.31 (``op_tail_ms``) with plain draws; 0.10, 0.15 and 0.06 with
Latin blocks whose K_w/K_s pairing is not balanced; and 0.09, 0.08 and
0.10 with the balanced blocks below.
"""

from __future__ import annotations

import random

PRESETS = ("fig3", "fig4", "fig5")

# The placeholder that the worker replaces with the path of the op's
# scenario file (one-shot scenarios only).
SCENARIO = "@scenario"


def _op(kind: str, argv: list, scenario: dict | None = None) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "scenario": scenario}


def _window(rng: random.Random, lo: float, hi: float, points: int, step: float) -> str:
    """A ``start:stop:step`` grid of ``points`` points inside [lo, hi]."""
    span = (points - 1) * step
    k = rng.randint(0, round((hi - lo - span) / step))
    a = lo + k * step
    return f"{a:.2f}:{a + span:.2f}:{step:g}"


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

def _dense_curve_ops(rng: random.Random) -> list[dict]:
    """The re-anchor baseline command set on presets, on seeded grid windows
    (dense step, bounded point count) and seeded cache points."""
    return [
        _op("curve:surface-slice", ["curve", "--preset", "fig3", "--mode", "surface-slice",
                                    "--ms", "0.05", "--grid", _window(rng, 0, 1, 11, 0.01)]),
        _op("curve:global", ["curve", "--preset", "fig5", "--mode", "global",
                             "--grid", _window(rng, 0, 25, 101, 0.01)]),
        _op("curve:weak-only", ["curve", "--preset", "fig3", "--mode", "weak-only",
                                "--grid", _window(rng, 0, 1, 21, 0.01)]),
        _op("curve:weak-only", ["curve", "--preset", "fig5", "--mode", "weak-only",
                                "--grid", _window(rng, 0, 1, 21, 0.01)]),
        _op("curve:uniform", ["curve", "--preset", "fig3", "--mode", "uniform",
                              "--grid", _window(rng, 0, 25, 501, 0.01)]),
        _op("regimes", ["regimes", "--preset", "fig3"]),
        _op("regimes", ["regimes", "--preset", "fig5"]),
        _op("bounds", ["bounds", "--preset", "fig3", "--mw", round(rng.uniform(0, 1), 4),
                       "--ms", round(rng.uniform(0, 0.5), 4)]),
        _op("bounds", ["bounds", "--preset", "fig5", "--mw", round(rng.uniform(0, 1), 4),
                       "--ms", round(rng.uniform(0, 0.5), 4)]),
    ]


LATIN = 13  # scenarios per Latin block: K_w, K_s each a permutation of 0..12
BLOCKS_PER_PERIOD = 2
BOUNDARY = (0.0, 1.0)  # per block and erasure role, one draw of each (2/13 ~ 15%)


def _erasures(rng: random.Random, n: int) -> list[float]:
    """n stratified uniform draws on [0, 1] in seeded order, two of them
    replaced by the boundary values 0 and 1."""
    vals = [round((i + rng.random()) / n, 6) for i in range(n)]
    rng.shuffle(vals)
    for i, v in zip(rng.sample(range(n), len(BOUNDARY)), BOUNDARY):
        vals[i] = v
    return vals


def _latin_block(rng: random.Random) -> list[dict]:
    """LATIN scenarios.  The pairing of K_w with K_s is a random permutation
    whose sum of K_w*K_s (which sets a scenario's cost) is within half a
    standard deviation of its mean, so that blocks cost about the same."""
    n = LATIN
    kw, ks = list(range(n)), list(range(n))
    rng.shuffle(kw)
    mean = n * ((n - 1) / 2) ** 2
    while True:
        rng.shuffle(ks)
        for i in range(n):
            if kw[i] == 0 and ks[i] == 0:  # K >= 1: swap K_s with a neighbour
                j = (i + 1) % n
                ks[i], ks[j] = ks[j], ks[i]
        if abs(sum(a * b for a, b in zip(kw, ks)) - mean) <= 25:
            break
    first, second, dz = _erasures(rng, n), _erasures(rng, n), _erasures(rng, n)
    out = []
    for i in range(n):
        K = kw[i] + ks[i]
        out.append({
            "K_w": kw[i], "K_s": ks[i],
            "delta_w": max(first[i], second[i]), "delta_s": min(first[i], second[i]),
            "delta_z": dz[i], "D": rng.randint(K + 1, K + 30),
        })
    return out


def _one_shot_ops(rng: random.Random, sc: dict) -> list[dict]:
    K = sc["K_w"] + sc["K_s"]
    src = ["--scenario", SCENARIO]
    return [
        _op("bounds", ["bounds", *src, "--mw", round(rng.uniform(0, 1), 4),
                       "--ms", round(rng.uniform(0, 1), 4)], sc),
        _op("regimes", ["regimes", *src], sc),
        _op("curve:global", ["curve", *src, "--mode", "global", "--grid", f"0:{K}:{K / 10:g}"], sc),
        _op("curve:weak-only", ["curve", *src, "--mode", "weak-only", "--grid", "0:1:0.1"], sc),
    ]


def curves_period(rng: random.Random, cycle) -> list[dict]:
    """Nine dense preset ops and two Latin blocks of one-shot scenarios
    (4 ops each), in a seeded interleaving."""
    groups = [[op] for op in _dense_curve_ops(rng)]
    for _ in range(BLOCKS_PER_PERIOD):
        groups += [_one_shot_ops(rng, sc) for sc in _latin_block(rng)]
    rng.shuffle(groups)
    return [op for g in groups for op in g]


# ---------------------------------------------------------------------------
# plan-verify
# ---------------------------------------------------------------------------

# Parameters per (preset, builder), each explicit plan fitting in memory.
# Values are grouped into strata of similar plan size; each stratum yields
# one op per period, its value cycling through the stratum across periods
# (most strata hold 4, 2 or 1 values, so a 4-period run takes each value
# equally often).
# Known gap: fig5 plans with mid-range t (piggyback-*, 4 <= t <= 17) or t_w
# (symmetric-piggyback, 3 <= t_w <= 17) are left out, because their
# explicit plans grow like C(20, t) and exceed memory (fig5 piggyback-one
# at t=5 already holds 209k units).
_SYM_TS_STRATA = ((1, 2, 14, 15), (3, 11, 12, 13), (4, 10), (5, 9), (6, 7, 8))
_FIG5_SYM_TW_STRATA = ((1,), (2,), (18,), (19, 20))
_FIG5_T_STRATA = ((1, 19), (2, 18), (3,))


def _plan_params(rng: random.Random, cycle, preset: str, scheme: str) -> list[list]:
    key = f"{preset}:{scheme}"
    if scheme in ("piggyback-one", "piggyback-allkeys"):
        if preset == "fig5":
            return [["--t", cycle(f"{key}:{i}", s)] for i, s in enumerate(_FIG5_T_STRATA)]
        return [["--t", cycle(key, range(1, 5))]]
    if scheme == "symmetric-piggyback":
        if preset == "fig5":
            return [["--tw", rng.choice(cycle(key, _FIG5_SYM_TW_STRATA)), "--ts", rng.randint(1, 10)]]
        tws = rng.sample(range(1, 6), len(_SYM_TS_STRATA))  # each t_w in 1..5 once
        return [["--tw", tw, "--ts", cycle(f"{key}:{i}", s)]
                for i, (tw, s) in enumerate(zip(tws, _SYM_TS_STRATA))]
    return [[]]


SCHEMES = (
    "wiretap-cached-keys",
    "superposition-jamming",
    "piggyback-one",
    "piggyback-two",
    "cached-keys-all",
    "piggyback-allkeys",
    "symmetric-piggyback",
)


def plan_verify_period(rng: random.Random, cycle) -> list[dict]:
    """Every builder on fig3, fig4 and fig5: one ``verify`` per parameter
    stratum, with a seeded rate backoff."""
    ops = []
    for preset in PRESETS:
        for scheme in SCHEMES:
            for params in _plan_params(rng, cycle, preset, scheme):
                eps = f"{10 ** rng.uniform(-5, -3):.3g}"
                ops.append(_op(f"verify:{scheme}", ["verify", "--preset", preset, "--scheme", scheme,
                                                   *params, "--eps", eps]))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# monte-carlo
# ---------------------------------------------------------------------------

# (preset, scheme, builder params, blocklengths, (demand, trial) pairs per
# op).  Pairs are sized so that each op costs about the same on the seed
# code.  symmetric-piggyback(2,2) leaves out n=500, where a segment rounds
# to zero channel uses and the CLI rejects the plan (exit 2).
MC_PLANS = (
    ("fig3", "wiretap-cached-keys", (), (500, 5000, 50000), 160),
    ("fig3", "superposition-jamming", (), (500, 5000, 50000), 80),
    ("fig3", "cached-keys-all", (), (500, 5000, 50000), 160),
    ("fig3", "piggyback-one", ("--t", 2), (500, 5000, 50000), 40),
    ("fig3", "piggyback-allkeys", ("--t", 2), (500, 5000, 50000), 40),
    ("fig3", "symmetric-piggyback", ("--tw", 2, "--ts", 2), (5000, 50000), 12),
    ("fig5", "piggyback-one", ("--t", 1), (500, 5000, 50000), 10),
)
MC_POLICIES = ("all-distinct", "random:1", "random:2", "random:3")


def monte_carlo_period(rng: random.Random, cycle) -> list[dict]:
    """Each plan at each of its blocklengths, at the CLI's default rate
    backoff.  The demand policy follows a rotation over (plan,
    blocklength), shifted each period; simulation seeds are drawn."""
    shift = cycle("policy", range(len(MC_POLICIES)))
    ops = []
    for i, (preset, scheme, params, blocklengths, pairs) in enumerate(MC_PLANS):
        for j, n in enumerate(blocklengths):
            policy = MC_POLICIES[(i + j + shift) % len(MC_POLICIES)]
            demands = 1 if policy == "all-distinct" else 1 + int(policy.split(":")[1])
            ops.append(_op(f"simulate:{scheme}", [
                "simulate", "--preset", preset, "--scheme", scheme, *params, "--n", n,
                "--trials", max(1, pairs // demands), "--seed", rng.randrange(2**32),
                "--demands", policy,
            ]))
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "curves": curves_period,
    "plan-verify": plan_verify_period,
    "monte-carlo": monte_carlo_period,
}


def period_ops(workload: str, seed: int, period: int) -> list[dict]:
    def cycle(key: str, values):
        """Draw without replacement across periods: every len(values)
        consecutive periods take each value once, in a seeded order."""
        order = list(values)
        random.Random(f"{workload}:{seed}:{key}").shuffle(order)
        return order[period % len(order)]

    return WORKLOADS[workload](random.Random(f"{workload}:{seed}:{period}"), cycle)
