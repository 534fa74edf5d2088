"""Finite-blocklength Monte-Carlo validation of scheme plans.

Channel model: per receiver and segment, the number of unerased symbols
is Binomial(segment length, 1 - delta).  Decoding uses the MDS
abstraction: the payloads a receiver must resolve in a segment decode
iff the unerased count reaches the (cumulative) payload size in bits.
Which decoded unit hands a receiver which message part is the static peel
rule of :func:`secache.schemes.deliveries`: one-time pads and known XOR
partners cancel exactly, so their values never decide an outcome.  Each
receiver's provider sets are compiled once per run; a trial fails iff
some receiver lacks a wanted part in its cache and none of that part's
providers decoded.

All randomness comes from counter-based Philox streams keyed by
(seed, demand index, trial index), so results are bit-identical for a
given configuration regardless of execution order.

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
from typing import Optional

import numpy as np

from .errors import ConfigError, RangeError
from .model import ChannelScenario, validate_scenario
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


def _demands(s: ChannelScenario, cfg: SimConfig) -> list[tuple[int, ...]]:
    canonical = tuple(range(1, s.K + 1))
    policy = cfg.demand_policy
    if policy == "all-distinct":
        return [canonical]
    if policy == "exhaustive-if-small":
        if s.D**s.K <= 10**6:
            return list(itertools.product(range(1, s.D + 1), repeat=s.K))
        return _demands(s, SimConfig(cfg.n, cfg.trials, cfg.seed, "random:1000"))
    if policy.startswith("random:"):
        count = int(policy.split(":", 1)[1])
        rng = _random.Random(cfg.seed ^ 0x5EED)
        out = [canonical]
        for _ in range(count):
            out.append(tuple(rng.randint(1, s.D) for _ in range(s.K)))
        return out
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
    a decoded unit (see :func:`secache.schemes.deliveries`).
    """
    validate_scenario(s)
    n = cfg.n
    seg_lengths = []
    for seg in plan.schedule:
        length = round(seg.fraction * n)
        if length == 0 and seg.units:
            raise ConfigError(
                f"segment {seg.id} rounds to zero channel uses at n={n}"
            )
        seg_lengths.append(length)

    # Receivers with load per segment; each trial draws their erasures in
    # this (set iteration) order, so it must not change between trials.
    seg_receivers = []
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
        seg_receivers.append(receivers)

    # Each wanted part a receiver lacks, with its providers' thresholds.
    needs: list[tuple[int, list[tuple[int, int]]]] = []
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        providers = deliveries(plan, r)
        for label, _ in plan.message_parts.get(r, ()):
            if label not in have:
                needs.append((r, [
                    (si, threshold[(r, si, ui)])
                    for si, ui in providers.get(label, ())
                ]))

    demands = _demands(s, cfg)
    per_demand = []
    worst = 0.0
    seg_erasures = [0.0] * len(plan.schedule)
    seg_samples = [0] * len(plan.schedule)

    for d_idx, demand in enumerate(demands):
        errors = 0
        for trial in range(cfg.trials):
            rng = _trial_rng(cfg.seed, d_idx, trial)
            unerased: dict[tuple[int, int], int] = {}
            for si, receivers in enumerate(seg_receivers):
                for r in receivers:
                    got = int(rng.binomial(seg_lengths[si], 1.0 - s.erasure_of(r)))
                    unerased[(r, si)] = got
                    if d_idx == 0 and seg_lengths[si] > 0:
                        seg_erasures[si] += 1.0 - got / seg_lengths[si]
                        seg_samples[si] += 1
            if any(
                not any(unerased[(r, si)] >= thr for si, thr in providers)
                for r, providers in needs
            ):
                errors += 1
        rate = errors / cfg.trials
        worst = max(worst, rate)
        per_demand.append(
            {"demand": list(demand), "errors": errors, "trials": cfg.trials}
        )

    stats = [
        {
            "segment": list(seg.id),
            "length": seg_lengths[i],
            "empirical_erasure_rate": (
                seg_erasures[i] / seg_samples[i] if seg_samples[i] else None
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
