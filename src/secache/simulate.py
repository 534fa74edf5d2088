"""Finite-blocklength Monte-Carlo validation of scheme plans.

Channel model: per receiver and segment, the number of unerased symbols
is Binomial(segment length, 1 - delta).  Decoding uses the MDS
abstraction: the payloads a receiver must resolve in a segment decode
iff the unerased count reaches the (cumulative) payload size in bits.
Which decoded unit hands a receiver which message part is the static peel
rule of :func:`secache.schemes.deliveries`: one-time pads and known XOR
partners cancel exactly, so their values never decide an outcome.

Each run compiles the plan once into flat arrays: one draw per (segment,
receiver with load), with its length and success probability, and, for
each wanted part some receiver lacks in cache, its providers as (draw,
cumulative threshold) pairs.  A trial is then one array ``binomial`` call
and one vectorised threshold test: it fails iff some such part has no
provider whose draw reaches its threshold (a part with no provider fails
every trial).

All randomness comes from counter-based Philox streams keyed by
(seed, demand index, trial index), so results are bit-identical for a
given configuration regardless of execution order.  An array draw yields
the same counts as the scalar draws in the same order, and per-segment
erasure sums accumulate in draw order, so reports match a per-draw loop
byte for byte.

The simulation covers error behaviour only.  Secrecy of wiretap-binned
segments is a rate condition, not a finite-n observable, so its witness
is the structural keys-plus-bins accounting in the plan verifier.
"""

from __future__ import annotations

import itertools
import json
import random as _random
from dataclasses import dataclass, field
from math import ceil
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, RangeError
from .model import ChannelScenario
from .schemes import SchemePlan, deliveries

GENERATOR_NAME = "philox4x64"


def otp_encrypt(w: int, key: int, modulus: int) -> int:
    """One-time-pad encryption: (w + key) mod modulus."""
    if modulus <= 0:
        raise RangeError(f"modulus must be positive, got {modulus}")
    if not (0 <= w < modulus):
        raise RangeError(f"plaintext {w} outside [0, {modulus})")
    if not (0 <= key < modulus):
        raise RangeError(f"key {key} outside [0, {modulus})")
    return (w + key) % modulus


def otp_decrypt(c: int, key: int, modulus: int) -> int:
    """Inverse of :func:`otp_encrypt` for the same key."""
    if modulus <= 0:
        raise RangeError(f"modulus must be positive, got {modulus}")
    if not (0 <= c < modulus):
        raise RangeError(f"ciphertext {c} outside [0, {modulus})")
    if not (0 <= key < modulus):
        raise RangeError(f"key {key} outside [0, {modulus})")
    return (c - key) % modulus


@dataclass(frozen=True)
class SimConfig:
    n: int
    trials: int
    seed: int
    demand_policy: str = "all-distinct"  # | "exhaustive-if-small" | "random:<count>"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"blocklength must be >= 1, got {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass
class SimReport:
    n: int
    trials: int
    seed: int
    generator: str
    worst_case_error_rate: float
    per_demand: list[dict] = field(default_factory=list)
    segment_stats: list[dict] = field(default_factory=list)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {
                "n": self.n,
                "trials": self.trials,
                "seed": self.seed,
                "generator": self.generator,
                "worst_case_error_rate": self.worst_case_error_rate,
                "per_demand": self.per_demand,
                "segment_stats": self.segment_stats,
            },
            indent=indent,
        )


#: Largest (demand, trial) pair count one run may simulate.  At the measured
#: 0.06-0.2 ms per pair (2-vCPU VM) a capped run takes at most a few
#: minutes, and its per-demand report stays well inside memory.
MAX_SIM_PAIRS = 10**6


def _demands(
    s: ChannelScenario, policy: str, seed: int
) -> tuple[int, Iterable[tuple[int, ...]]]:
    """The number of demand vectors a policy yields, and a lazy iterator
    over them, so a run can be refused before any is built."""
    canonical = tuple(range(1, s.K + 1))
    if policy == "all-distinct":
        return 1, [canonical]
    if policy == "exhaustive-if-small":
        if s.D**s.K <= 10**6:
            return s.D**s.K, itertools.product(range(1, s.D + 1), repeat=s.K)
        policy = "random:1000"
    if policy.startswith("random:"):
        try:
            count = max(int(policy.split(":", 1)[1]), 0)
        except ValueError:
            raise ConfigError(f"demand count in {policy!r} is not an integer") from None
        rng = _random.Random(seed ^ 0x5EED)
        sampled = (
            tuple(rng.randint(1, s.D) for _ in range(s.K)) for _ in range(count)
        )
        return 1 + count, itertools.chain([canonical], sampled)
    raise ConfigError(f"unknown demand policy {policy!r}")


def _trial_rng(seed: int, demand_idx: int, trial: int) -> np.random.Generator:
    bitgen = np.random.Philox(
        counter=[trial, demand_idx, 0, 0],
        key=[seed & (2**64 - 1), 0x9E3779B97F4A7C15],
    )
    return np.random.Generator(bitgen)


def run_monte_carlo(
    plan: SchemePlan, s: ChannelScenario, cfg: SimConfig
) -> SimReport:
    """Simulate the plan at finite blocklength; exact and reproducible.

    Per trial: erasure counts are sampled per (receiver, segment); a
    receiver decodes the units it is loaded with in schedule order while
    the unerased count covers the cumulative payload bits; an error is any
    receiver with a wanted part that is neither cached nor handed over by
    a decoded unit (see :func:`secache.schemes.deliveries`).  Raises
    :class:`ConfigError` when demands x trials exceeds ``MAX_SIM_PAIRS``.
    """
    n_demands, demands = _demands(s, cfg.demand_policy, cfg.seed)
    if n_demands * cfg.trials > MAX_SIM_PAIRS:
        raise ConfigError(
            f"{n_demands} demands x {cfg.trials} trials exceeds the cap of "
            f"{MAX_SIM_PAIRS} simulated pairs"
        )
    n = cfg.n
    seg_lengths = []
    for seg in plan.schedule:
        length = round(seg.fraction * n)
        if length == 0 and seg.units:
            raise ConfigError(
                f"segment {seg.id} rounds to zero channel uses at n={n}"
            )
        seg_lengths.append(length)

    # One draw per (receiver with load, segment), in segment order and,
    # within a segment, in the iteration order of the set of its loaded
    # receivers.  Reordering draws changes every count of a trial's Philox
    # stream; tests/golden/simreports.tsv pins this order.
    draw_of: dict[tuple[int, int], int] = {}
    draw_seg: list[int] = []
    draw_p: list[float] = []
    # Cumulative MDS threshold of each (receiver, segment idx, unit idx):
    # units decode in schedule order, driven by the receiver's own load.
    threshold: dict[tuple[int, int, int], int] = {}
    for si, seg in enumerate(plan.schedule):
        receivers = set()
        cum: dict[int, int] = {}
        for ui, unit in enumerate(seg.units):
            for r, load in unit.decode_load.items():
                if load <= 0:
                    continue
                receivers.add(r)
                cum[r] = cum.get(r, 0) + ceil(load * n)
                threshold[(r, si, ui)] = cum[r]
        for r in receivers:
            draw_of[(r, si)] = len(draw_seg)
            draw_seg.append(si)
            draw_p.append(1.0 - s.erasure_of(r))

    # Each wanted part a receiver lacks is one group; its providers are
    # (draw, threshold) pairs, and the group decodes iff any draw reaches
    # its threshold.  A group with no provider never decodes.
    prov_draw: list[int] = []
    prov_thr: list[int] = []
    prov_group: list[int] = []
    groups = 0
    delivered = deliveries(plan)
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        providers = delivered.get(r, {})
        for label, _ in plan.message_parts.get(r, ()):
            if label in have:
                continue
            for si, ui in providers.get(label, ()):
                prov_draw.append(draw_of[(r, si)])
                prov_thr.append(threshold[(r, si, ui)])
                prov_group.append(groups)
            groups += 1

    seg_idx = np.array(draw_seg, dtype=np.intp)
    lengths = np.array([seg_lengths[si] for si in draw_seg], dtype=np.int64)
    probs = np.array(draw_p, dtype=np.float64)
    prov_draw_a = np.array(prov_draw, dtype=np.intp)
    prov_thr_a = np.array(prov_thr, dtype=np.int64)
    prov_group_a = np.array(prov_group, dtype=np.intp)

    per_demand = []
    worst = 0.0
    seg_erasures = np.zeros(len(plan.schedule))
    for d_idx, demand in enumerate(demands):
        errors = 0
        for trial in range(cfg.trials):
            got = _trial_rng(cfg.seed, d_idx, trial).binomial(lengths, probs)
            if d_idx == 0:
                # Sequential, in draw order: the sums match a scalar loop.
                np.add.at(seg_erasures, seg_idx, 1.0 - got / lengths)
            decoded = prov_group_a[got[prov_draw_a] >= prov_thr_a]
            if not np.bincount(decoded, minlength=groups).all():
                errors += 1
        rate = errors / cfg.trials
        worst = max(worst, rate)
        per_demand.append(
            {"demand": list(demand), "errors": errors, "trials": cfg.trials}
        )

    seg_samples = np.bincount(seg_idx, minlength=len(plan.schedule)) * cfg.trials
    stats = [
        {
            "segment": list(seg.id),
            "length": seg_lengths[i],
            "empirical_erasure_rate": (
                float(seg_erasures[i]) / int(seg_samples[i])
                if seg_samples[i] else None
            ),
        }
        for i, seg in enumerate(plan.schedule)
    ]
    return SimReport(
        n=cfg.n,
        trials=cfg.trials,
        seed=cfg.seed,
        generator=GENERATOR_NAME,
        worst_case_error_rate=worst,
        per_demand=per_demand,
        segment_stats=stats,
    )
