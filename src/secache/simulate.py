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
cumulative threshold) pairs, contiguous per part.  Trials run in blocks
of about ``_BLOCK_BYTES``: each trial is one array ``binomial`` call into
a row of the block, and the block is tested in one pass (every provider
threshold at once, then an OR over each part's providers).  A trial fails
iff some such part has no provider whose draw reaches its threshold (a
part with no provider fails every trial).

All randomness comes from counter-based Philox streams keyed by
(seed, demand index, trial index), so results are bit-identical for a
given configuration regardless of execution order.  One generator serves
a run: setting its state to a trial's counter gives the same stream as a
new generator for that trial.  An array draw yields the same counts as
the scalar draws in the same order, and per-segment erasure sums
accumulate trial by trial in draw order, so reports match a per-draw loop
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

from .errors import ConfigError
from .model import ChannelScenario
from .schemes import SchemePlan, deliveries

GENERATOR_NAME = "philox4x64"

#: Memory budget of one block of trials: each block's draws and threshold
#: tests are (trials, width) arrays of about this many bytes.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SimConfig:
    n: int
    trials: int
    seed: int
    demand_policy: str = "all-distinct"  # | "exhaustive-if-small" | "random:<count>"

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"blocklength must be >= 1, got {self.n}")
        # Up to 2**53 every integer is an exact float, so segment lengths
        # and MDS thresholds (a rate times n, rounded) are exact int64s.
        if self.n > 2**53:
            raise ConfigError(f"blocklength must be <= 2**53, got {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        # numpy stores the Philox key as float64 (see run_monte_carlo), so
        # above 2**53 two seeds could round to one key and one stream.
        if not (0 <= self.seed <= 2**53):
            raise ConfigError(f"seed must be in 0..2**53, got {self.seed}")


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
#: 0.009-0.12 ms per pair (fig3 and fig5 builder plans at n=50000, 2-vCPU
#: VM) a capped run takes at most about two minutes, and its per-demand
#: report stays well inside memory.
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
            count = int(policy.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"demand count in {policy!r} is not an integer") from None
        if count < 0:
            raise ConfigError(f"demand count in {policy!r} is negative")
        rng = _random.Random(seed ^ 0x5EED)
        sampled = (
            tuple(rng.randint(1, s.D) for _ in range(s.K)) for _ in range(count)
        )
        return 1 + count, itertools.chain([canonical], sampled)
    raise ConfigError(f"unknown demand policy {policy!r}")


def _block_rows(width: int) -> int:
    """Trials per block, so that a block's (trials, width) int64 arrays
    stay near ``_BLOCK_BYTES`` however many trials a run has."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


def run_monte_carlo(
    plan: SchemePlan, s: ChannelScenario, cfg: SimConfig
) -> SimReport:
    """Simulate the plan at finite blocklength; exact and reproducible.

    Per trial: erasure counts are sampled per (receiver, segment); a
    receiver decodes the units it is loaded with in schedule order while
    the unerased count covers the cumulative payload bits; an error is any
    receiver with a wanted part that is neither cached nor handed over by
    a decoded unit (see :func:`secache.schemes.deliveries`).  One Philox
    generator is re-keyed per (demand, trial) counter, and trials are
    drawn and tested a block at a time, so memory stays flat in
    ``cfg.trials``.  Raises :class:`ConfigError` when demands x trials
    exceeds ``MAX_SIM_PAIRS``.
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
    # (draw, threshold) pairs, contiguous from the group's start, and the
    # group decodes iff any draw reaches its threshold.  A group with no
    # provider never decodes.
    prov_draw: list[int] = []
    prov_thr: list[int] = []
    group_start: list[int] = []
    starved = False
    delivered = deliveries(plan)
    for r in range(1, s.K + 1):
        have = plan.cached_labels(r) | plan.virtual_cached.get(r, frozenset())
        providers = delivered.get(r, {})
        for label, _ in plan.message_parts.get(r, ()):
            if label in have:
                continue
            group_start.append(len(prov_draw))
            for si, ui in providers.get(label, ()):
                prov_draw.append(draw_of[(r, si)])
                prov_thr.append(threshold[(r, si, ui)])
            starved = starved or len(prov_draw) == group_start[-1]

    seg_idx = np.array(draw_seg, dtype=np.intp)
    lengths = np.array([seg_lengths[si] for si in draw_seg], dtype=np.int64)
    probs = np.array(draw_p, dtype=np.float64)
    prov_draw_a = np.array(prov_draw, dtype=np.intp)
    prov_thr_a = np.array(prov_thr, dtype=np.int64)
    group_start_a = np.array(group_start, dtype=np.intp)

    rows = min(cfg.trials, _block_rows(max(len(draw_seg), len(prov_draw))))
    got = np.empty((rows, len(draw_seg)), dtype=np.int64)
    block_seg = np.tile(seg_idx, rows)
    # One generator per run.  Setting the bit generator's state to counter
    # (trial, demand index, 0, 0) with an empty output buffer yields the
    # stream a new Philox with that counter would, at a fraction of the
    # cost.  numpy turns the key list into float64 (its second word
    # exceeds int64), so the key is read back rather than rebuilt.
    bitgen = np.random.Philox(key=[cfg.seed, 0x9E3779B97F4A7C15])
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    counter = [0, 0, 0, 0]
    state["state"]["counter"] = counter
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)

    per_demand = []
    worst = 0.0
    seg_erasures = np.zeros(len(plan.schedule))
    for d_idx, demand in enumerate(demands):
        errors = 0
        counter[1] = d_idx
        for first in range(0, cfg.trials, rows):
            block = got[: min(rows, cfg.trials - first)]
            for row in range(len(block)):
                counter[0] = first + row
                bitgen.state = state
                block[row] = gen.binomial(lengths, probs)
            if d_idx == 0:
                # Sequential, trial by trial in draw order: the sums match
                # a scalar loop.
                np.add.at(
                    seg_erasures, block_seg[: block.size],
                    (1.0 - block / lengths).ravel(),
                )
            # A starved group fails every trial (and reduceat cannot take
            # an empty group); with no group at all, no trial fails.
            if starved:
                errors += len(block)
            elif group_start:
                hit = block[:, prov_draw_a] >= prov_thr_a
                decoded = np.logical_or.reduceat(hit, group_start_a, axis=1)
                errors += len(block) - int(np.count_nonzero(decoded.all(axis=1)))
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
