"""Finite-blocklength Monte-Carlo validation of scheme plans.

Channel model: per receiver and segment, the number of unerased symbols
is Binomial(segment length, 1 - delta).  Decoding uses the MDS
abstraction: the payloads a receiver must resolve in a segment decode
iff the unerased count reaches the (cumulative) payload size in bits.
Which decoded unit hands a receiver which message part is the static peel
rule of :func:`secache.schemes.peel_rule`, the one the plan verifier
applies to the units it peels: one-time pads and known XOR partners
cancel exactly, so their values never decide an outcome.

Each run compiles the plan once, in one walk over its orbits that
expands neither schedule nor placement, into flat arrays: one draw per
(segment, receiver with load), with its length and success probability,
and, for each wanted part some receiver lacks in cache, its providers as
(draw, cumulative threshold) pairs, contiguous per part.  Who holds a
label is read label by label from the plan's families or listed atoms
(:class:`secache.schemes._Holders`, as the verifier reads it).  Where
the plan carries the class symmetry, the peel rule runs on each orbit's
first member only, and every member hands over the parts at the same part
positions (:class:`secache.schemes.Orbit`); the other members of an
orbit, in one segment or many, are stamped from the first member's walk,
a column of member ids at a time, without building their units.  The
wanted parts of every plan are read class by class, a class being the
receivers that share one parts tuple (:func:`_class_groups`).  Trials
run in blocks of about ``_BLOCK_BYTES``: each trial is drawn into a row
of the block, by one scalar ``binomial`` call per run of draws of equal
(length, probability) where they fall into at most ``_MAX_RUNS`` runs,
else by one array ``binomial`` call, and the block is tested in one pass
(every provider threshold at once, then an OR over each part's
providers).  A trial fails iff some such part has no provider whose draw
reaches its threshold (a part with no provider fails every trial).

All randomness comes from counter-based Philox streams keyed by
(seed, demand index, trial index), so results are bit-identical for a
given configuration regardless of execution order.  One generator serves
a run: setting its state to a trial's counter gives the same stream as a
new generator for that trial.  Per-run and array draws yield the same
counts as one scalar draw at a time in the same order (numpy runs the
same sampler, with the same per-generator cache, on both paths), and
per-segment erasure sums accumulate trial by trial in draw order, so
reports match a per-draw loop byte for byte.

:meth:`SimReport.to_json` writes the report's fixed shape itself, for the
one-line and the indented form alike, byte for byte as ``json.dumps``
would: with an ``indent``, ``json.dumps`` falls back to its pure-Python
encoder.

The simulation covers error behaviour only.  Secrecy of wiretap-binned
segments is a rate condition, not a finite-n observable, so its witness
is the structural keys-plus-bins accounting in the plan verifier.
"""

from __future__ import annotations

import itertools
import json
import operator
import random as _random
from dataclasses import dataclass, field
from functools import reduce
from math import ceil
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError
from .model import ChannelScenario
from .schemes import SchemePlan, _Holders, _check_plan_size, _ids, _lbl, _symmetry, peel_rule

GENERATOR_NAME = "philox4x64"

#: Memory budget of one block of trials: each block's draws and threshold
#: tests are (trials, width) arrays of about this many bytes.
_BLOCK_BYTES = 1 << 20

#: Most runs of equal (length, probability) a plan's draws may fall into
#: for a trial to take one scalar ``binomial`` call per run; above it, a
#: trial takes one array call.  An array call re-validates both arrays
#: whatever their runs: on 24 draws it costs 9.4-10.0 us, against
#: 3.3-3.5 us for one scalar call per run over 1 run, 4.6-4.9 us over 2,
#: 5.9-6.0 us over 3, 6.8-7.0 us over 4, 7.8-8.2 us over 5, 9.0-9.6 us
#: over 6 and 11.1-11.7 us over 8 (numpy 2.4, 2-vCPU VM), so the
#: crossover is about 6 runs.
_MAX_RUNS = 4


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
        """The report as JSON, byte for byte what ``json.dumps`` writes
        for its dict and this ``indent``.  It is written from the
        report's fixed shape: an ``indent`` sends ``json.dumps`` to its
        pure-Python encoder, several times slower on a report of hundreds
        of segments."""

        def brk(depth: int) -> str:
            return "" if indent is None else "\n" + " " * (indent * depth)

        def seq(items: list[str], depth: int, open_: str = "[", close: str = "]") -> str:
            if not items:
                return open_ + close
            inner = brk(depth + 1)
            return open_ + inner + ("," + inner if inner else ", ").join(items) + brk(depth) + close

        b3, b4, b5 = brk(3), brk(4), brk(5)
        s4, s5 = ("," + b4, "," + b5) if b4 else (", ", ", ")

        def seg_id(v) -> str:
            # [phase, member], the member an int, a string or a tuple of
            # ints, in one pass; any other id through json.dumps, indented
            # to depth 3 (with an indent, its pure-Python encoder).
            m = v[1] if type(v) is list and len(v) == 2 and type(v[0]) is int else None
            if type(m) is int or type(m) is str:
                return f"[{b4}{v[0]}{s4}{m if type(m) is int else json.dumps(m)}{b3}]"
            if type(m) is tuple and m and all(type(i) is int for i in m):
                return f"[{b4}{v[0]}{s4}[{b5}{s5.join(map(str, m))}{b4}]{b3}]"
            return json.dumps(v, indent=indent).replace("\n", b3)

        def rate(v: Optional[float]) -> str:
            return "null" if v is None else repr(v)

        b2 = brk(2)
        s3 = "," + b3 if b3 else ", "
        demands = [
            f'{{{b3}"demand": {seq([str(x) for x in d["demand"]], 3)}{s3}'
            f'"errors": {d["errors"]}{s3}"trials": {d["trials"]}{b2}}}'
            for d in self.per_demand
        ]
        stats = [
            f'{{{b3}"segment": {seg_id(st["segment"])}{s3}"length": {st["length"]}{s3}'
            f'"empirical_erasure_rate": {rate(st["empirical_erasure_rate"])}{b2}}}'
            for st in self.segment_stats
        ]
        return seq([
            f'"n": {json.dumps(self.n)}',
            f'"trials": {json.dumps(self.trials)}',
            f'"seed": {json.dumps(self.seed)}',
            f'"generator": {json.dumps(self.generator)}',
            f'"worst_case_error_rate": {json.dumps(self.worst_case_error_rate)}',
            f'"per_demand": {seq(demands, 1)}',
            f'"segment_stats": {seq(stats, 1)}',
        ], 0, "{", "}")


#: Largest (demand, trial) pair count one run may simulate.  At the measured
#: 0.005-0.14 ms per pair (runs of 1000 pairs of the seven monte-carlo
#: benchmark plans, fig3 and fig5, at n=50000, fastest of 5, 2-vCPU VM:
#: 0.005 ms for the plans drawn by run, 0.02-0.03 ms for the piggyback
#: plans, 0.14 ms for fig3 symmetric-piggyback(2,2)) a capped run takes at
#: most about two and a half minutes, and its per-demand report stays well
#: inside memory.
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


def _runs(lengths: np.ndarray, probs: np.ndarray) -> list[tuple[int, int, int, float]]:
    """The draws cut into runs of equal (length, probability), each as
    (first draw, end draw, length, probability)."""
    edges = np.flatnonzero((lengths[1:] != lengths[:-1]) | (probs[1:] != probs[:-1])) + 1
    cut = [0, *edges.tolist(), len(lengths)]
    return [(a, b, int(lengths[a]), float(probs[a])) for a, b in zip(cut, cut[1:]) if a < b]


def _block_rows(width: int) -> int:
    """Trials per block, so that a block's (trials, width) int64 arrays
    stay near ``_BLOCK_BYTES`` however many trials a run has."""
    return max(1, _BLOCK_BYTES // (8 * max(width, 1)))


class _Compiled(NamedTuple):
    """A plan compiled for one blocklength: each segment's length in
    channel uses; one draw per (segment, receiver with load) with its
    segment, length and success probability; and, for each wanted part
    some receiver lacks in cache (a group), its providers as (draw,
    cumulative threshold) pairs, contiguous from the group's start.  A
    group decodes iff some provider's draw reaches its threshold;
    ``starved`` is set when some group has no provider, and so never
    decodes."""

    seg_lengths: list[int]
    draw_seg: np.ndarray
    lengths: np.ndarray
    probs: np.ndarray
    prov_draw: np.ndarray
    prov_thr: np.ndarray
    group_start: np.ndarray
    starved: bool


def _class_groups(plan: SchemePlan, placed: _Holders, K: int, families: list):
    """The wanted groups of a plan, class by class: for each receiver ``r``
    in order, each message part ``message_parts[r]`` lists that ``r``
    neither holds (``placed``) nor holds virtually, in part order.
    Receivers that share one parts tuple (a class) share its label numbers
    and who holds each label, as a bitmask, and all their (receiver, part)
    pairs are read at once.  A label of one of ``families`` (none for a
    plan without the class symmetry) that ``placed`` reads from that family
    is held by its ids, which the family gives without parsing the label.

    Returns each label's number; each family label's number by the
    family's prefix and width and the label's ids (an int for one id, as
    ``itemgetter`` gives it, else a tuple); the group of each (receiver,
    label number) as a table with a row per receiver id up to ``K + 1``
    and a column per label number and one more, -1 where there is none
    (row ``K + 1`` and the last column stand for a receiver and a label no
    group has); the number of groups; and the group whose providers each
    group takes, or None where each takes its own: a label some parts
    tuple lists twice is two groups, and the table holds the first."""
    virtual: dict = {}
    classes: dict = {}  # id(parts) -> (parts, receivers)
    for r in range(1, K + 1):
        for label in plan.virtual_cached.get(r, ()):
            virtual[label] = virtual.get(label, 0) | 1 << r
        parts = plan.message_parts.get(r, ())
        if id(parts) in classes:
            classes[id(parts)][1].append(r)
        else:
            classes[id(parts)] = parts, [r]
    ids_of: dict = {}
    for family in families:
        if placed.families.get(family.prefix) is family and "[" not in family.prefix:
            table = family.table()
            ids_of.update(zip(table.values(), table))
    lid: dict = {}
    count = np.zeros(K + 2, dtype=np.intp)
    read = []
    for parts, rs in classes.values():
        labels = [label for label, _ in parts]
        masks = [(placed[label] if (ids := ids_of.get(label)) is None
                  else reduce(operator.or_, [1 << i for i in ids], 0)) | virtual.get(label, 0)
                 for label in labels]
        # Python ints where a mask reaches bit 63
        masks = np.array(masks, dtype=np.int64 if max(masks, default=0) >> 63 == 0 else object)
        rs = np.array(rs, dtype=np.intp)
        want = masks[None, :] >> rs[:, None] & 1 == 0
        count[rs] = want.sum(axis=1)
        read.append((rs, [lid.setdefault(label, len(lid)) for label in labels], want))
    start = np.cumsum(count) - count
    table = np.full((K + 2, len(lid) + 1), -1, dtype=np.intp)
    n_groups = int(count.sum())
    source = None
    for rs, ids, want in read:
        if not ids:
            continue
        group = np.where(want, start[rs][:, None] + np.cumsum(want, axis=1) - 1, -1)
        if len(set(ids)) == len(ids):
            table[rs[:, None], ids] = group
            continue
        # A label listed twice: its later position, wanted wherever its
        # first one is, takes the first one's group's providers.
        first: dict = {}  # each label number's first position
        at = [first.setdefault(i, k) for k, i in enumerate(ids)]
        table[rs[:, None], list(first)] = group[:, list(first.values())]
        if source is None:
            source = np.arange(n_groups)
        source[group[want]] = group[:, at][want]
    numbers: dict = {}
    for family in families:
        labels = family.table()
        width = sum(k for _, k in family.blocks)
        numbers.setdefault((family.prefix, width), {}).update(zip(
            map(operator.itemgetter(0), labels) if width == 1 else labels,
            map(lid.get, labels.values(), itertools.repeat(-1))))
    return lid, numbers, table, n_groups, source


def _compile(plan: SchemePlan, s: ChannelScenario, n: int) -> _Compiled:
    """Compile the plan in one pass over its orbits: each segment's id,
    length and members from its orbit (:meth:`secache.schemes.Orbit.segments`),
    its units from ``orb.units(member)`` or, where the plan carries the
    class symmetry (:func:`secache.schemes._symmetry`, read once), every
    member of an orbit stamped from its first member's walk, once the
    plan's size is checked (:func:`secache.schemes._check_plan_size`).

    Each loaded receiver's cumulative MDS threshold grows unit by unit
    (units decode in schedule order, driven by the receiver's own load);
    builders share one ``decode_load`` mapping across consecutive units,
    and over such a run each step is rounded up once.  Draws go in segment
    order and, within a segment, in the iteration order of the set of its
    loaded receivers, built from them in unit order (``set`` adds a list's
    or a tuple's items one at a time; a bulk ``update`` from a mapping
    sizes the table differently and can change that order).  Reordering
    draws changes every count of a trial's Philox stream;
    tests/golden/simreports.tsv pins this order.

    A stamp is the first member's walk with each id it reads (a loaded
    receiver, a handed part's receiver, an id in its label) taken as a
    column: a position in the member's ids, or an id of a class the orbit
    does not move (:class:`secache.schemes.Orbit`).  Each column is read
    from every member in one pass, and a renamed label is found by its
    prefix and ids, never formatted.  A member of a many-segment orbit is
    a segment with the first member's loaded receivers, in the same order,
    and handed parts, at the same thresholds.  The members of a
    one-segment orbit (the piggyback phase 1) share their segment: where
    the first member's units load each class the orbit moves wholly at one
    load or not at all, every member's units load the same receivers, and
    member ``i`` hands its parts over at the first member's thresholds
    plus ``i`` times the first member's whole load of the part's receiver.
    An orbit whose first member reads any other id, or whose renamed label
    is not ``prefix[ids]``, walks every member's units.  The wanted groups
    of every plan are read class by class (:func:`_class_groups`) and each
    provider is kept with its receiver, label number and place in schedule
    order, to be sorted by group once, at the end; a label some parts
    tuple lists twice is two groups, the second a copy of the first's
    providers.
    """
    po = plan.orbits
    K = s.K
    firsts, blocks, _ = _symmetry(plan)
    _check_plan_size(po, firsts)
    placed = _Holders(po.atoms, po.families)
    # with the symmetry, the message parts are the part runs' families
    families = [] if not blocks else list({id(run.labels): run.labels for runs in {
        id(runs): runs for runs in po.parts.values()}.values() for run in runs}.values())
    lid, numbers, table, n_groups, source = _class_groups(plan, placed, K, families)
    peel = peel_rule(placed, plan.message_parts, plan.virtual_cached)
    # a stamped receiver's id indexes the group table
    stampable = blocks and all(r >= 0 for c in po.classes for r in c)

    def walk(units, at):
        """The receivers loaded in ``units``, in order of first appearance;
        each part the units hand over (the parts at positions ``at`` or,
        without them, the peeled ones) as (receiver, label, threshold); and
        each loaded receiver's threshold after the last unit."""
        loaded: dict[int, None] = {}
        cum: dict[int, int] = {}  # thresholds before the current run
        handed = []
        # A run of units sharing one decode_load mapping adds the same
        # step to each of its receivers' thresholds per unit.
        load, steps, done = None, {}, 0
        for k, unit in enumerate(units):
            if unit.decode_load is not load:
                for r, step in steps.items():
                    cum[r] = cum.get(r, 0) + done * step
                load, steps, done = unit.decode_load, {}, 0
                for r, x in load.items():
                    # ``not x <= 0``: a NaN load is loaded, and ceil rejects it
                    if not x <= 0:
                        loaded[r] = None
                        steps[r] = ceil(x * n)
            done += 1
            for r, label in peel(unit) if at is None else itertools.compress(unit.parts, at[k]):
                handed.append((r, label, cum.get(r, 0) + done * steps[r]))
        for r, step in steps.items():
            cum[r] = cum.get(r, 0) + done * step
        return list(loaded), handed, cum

    seg_lengths: list[int] = []
    seg_draws: list[int] = []  # each segment's draw count
    draw_r: list[int] = []
    # Each provider's receiver, label number, draw, threshold and place in
    # schedule order.
    prov_r: list[int] = []
    prov_label: list[int] = []
    prov_draw: list[int] = []
    prov_thr: list[int] = []
    prov_seq: list[int] = []

    def stamp(orb, moved, block, one, length, loaded, handed, total):
        """Every segment of the orbit from its first member's walk
        (``loaded``, ``handed``, ``total``), or False where the walk reads
        an id the stamp cannot rename; ``one`` for a one-segment orbit."""
        members = list(orb.members)
        ids = members[0] if type(members[0]) is tuple else (members[0],)
        moves = dict(moved)
        unmoved = {r for c in po.classes if c not in moves for r in c}
        cols = dict(zip(ids, itertools.count()))
        fixed = []

        def col(r):
            if r not in cols and r in unmoved:
                cols[r] = len(cols)
                fixed.append(r)
            return cols.get(r)

        # Each label's number, or its (prefix, columns) where it is renamed.
        names: dict = {}
        for _, label, _ in handed:
            if label not in names:
                got = _ids(label) or ()
                if unmoved.issuperset(got):
                    names[label] = lid.get(label, -1)
                else:
                    names[label] = label.partition("[")[0], tuple(map(col, got))
                    if None in names[label][1] or _lbl(names[label][0], got) != label:
                        return False
        handed_cols = [col(r) for r, _, _ in handed]
        loaded_cols = [] if one else [col(r) for r in loaded]
        if None in loaded_cols or None in handed_cols:
            return False
        if one:
            # Where the first member's units load each class the orbit
            # moves wholly at one load or not at all, and besides only
            # receivers of unmoved classes, every member's units load the
            # same receivers by the same steps.
            if not unmoved.union(*moves).issuperset(loaded):
                return False
            for load in {id(u.decode_load): u.decode_load for u in block}.values():
                for c in moves:
                    xs = [load.get(r, 0) for r in c]
                    if not (max(xs) <= 0 or xs[0] > 0 and xs.count(xs[0]) == len(xs)):
                        return False
        # each member's ids, then the ids read from unmoved classes
        if type(members[0]) is not tuple:
            rows = list(zip(members, *map(itertools.repeat, fixed)))
        elif fixed:
            rows = list(map(operator.add, members, itertools.repeat(tuple(fixed))))
        else:
            rows = members
        first = len(draw_r)
        if one:
            order = list(set(loaded))
            draw_r.extend(order)
            seg_draws.append(len(order))
            seg_lengths.append(length)
            place = dict(zip(order, itertools.count(first)))
        else:
            # Each member's draws: the set of its loaded receivers.  An
            # itemgetter of two or more columns gives a tuple; the first
            # column read again adds nothing to the set.
            if loaded_cols == list(range(len(rows[0]))):
                sets = list(map(list, map(set, rows)))
            elif loaded_cols:
                getter = operator.itemgetter(*loaded_cols, loaded_cols[0])
                sets = list(map(list, map(set, map(getter, rows))))
            else:
                sets = [[]] * len(rows)
            draw_r.extend(itertools.chain.from_iterable(sets))
            seg_draws.extend([len(loaded_cols)] * len(rows))
            seg_lengths.extend([length] * len(rows))
        # Part by part, each member's provider, numbered in schedule order
        # (member by member, then part by part).
        base = len(prov_seq)
        for h, ((r, label, thr), k) in enumerate(zip(handed, handed_cols)):
            receivers = list(map(operator.itemgetter(k), rows))
            prov_r.extend(receivers)
            name = names[label]
            if type(name) is tuple:
                found = numbers.get((name[0], len(name[1])), {})
                prov_label.extend(map(found.get, map(operator.itemgetter(*name[1]), rows),
                                      itertools.repeat(-1)))
            else:
                prov_label.extend(itertools.repeat(name, len(rows)))
            if one:
                prov_draw.extend(map(place.__getitem__, receivers))
                prov_thr.extend(itertools.accumulate(itertools.repeat(total[r], len(rows) - 1),
                                                     initial=thr))
            else:
                prov_draw.extend(map(operator.add, map(list.index, sets, receivers),
                                     range(first, len(draw_r), len(loaded_cols))))
                prov_thr.extend(itertools.repeat(thr, len(rows)))
            prov_seq.extend(range(base + h, base + len(rows) * len(handed), len(handed)))
        return True

    for i, (orb, block) in enumerate(zip(po.orbits, firsts)):
        length = round(orb.fraction * n)
        # With the symmetry, the part positions each unit of the first
        # member hands over, where every member's units hand over theirs.
        at = [[p in got for p in unit.parts] if (got := set(peel(unit))) else ()
              for unit in block] if blocks else None
        if stampable and len(orb.members) > 1:
            sid, held = next(iter(orb.segments()))
            if length == 0 and block:
                raise ConfigError(
                    f"segment {(orb.phase, sid)} rounds to zero channel uses at n={n}")
            if stamp(orb, blocks[i], block, len(held) > 1, length, *walk(block, at)):
                continue
        for k, (sid, held) in enumerate(orb.segments()):
            # the orbit's first member is the first segment's first
            units = [u for j, m in enumerate(held)
                     for u in (block if k == j == 0 else orb.units(m))]
            if length == 0 and units:
                raise ConfigError(
                    f"segment {(orb.phase, sid)} rounds to zero channel uses at n={n}")
            loaded, handed, _ = walk(units, at and at * len(held))
            receivers = set(loaded)  # from a list: added one at a time, in order
            draw_of = dict(zip(receivers, itertools.count(len(draw_r))))
            for r, label, thr in handed:
                prov_r.append(r)
                prov_label.append(lid.get(label, -1))
                prov_draw.append(draw_of[r])
                prov_thr.append(thr)
                prov_seq.append(len(prov_seq))
            draw_r.extend(receivers)
            seg_draws.append(len(receivers))
            seg_lengths.append(length)

    # Each provider's group (-1 for a part its receiver does not want);
    # sorted by group, each group's providers in schedule order, which
    # walked ones come in and stamped ones are numbered by.
    group = table[np.minimum(np.fromiter(prov_r, dtype=np.intp, count=len(prov_r)), K + 1),
                  np.fromiter(prov_label, dtype=np.intp, count=len(prov_label))]
    columns = prov_seq, prov_draw, prov_thr
    if group.min(initial=0) < 0:
        kept = group >= 0
        group = group[kept]
        columns = [list(itertools.compress(values, kept.tolist())) for values in columns]
    seq, prov_draw, prov_thr = columns
    order = np.argsort(group * len(seq) + np.fromiter(seq, dtype=np.intp, count=len(seq)))
    per = np.bincount(group, minlength=n_groups)
    group_start = np.cumsum(per) - per
    if source is not None:
        # each group of a label listed twice takes its first position's
        # providers
        begin = group_start[source]
        per = per[source]
        group_start = np.cumsum(per) - per
        order = order[np.repeat(begin - group_start, per) + np.arange(per.sum())]
    prov_draw = np.fromiter(prov_draw, dtype=np.intp, count=len(prov_draw))[order]
    prov_thr = np.fromiter(prov_thr, dtype=np.int64, count=len(prov_thr))[order]
    starved = not per.all()
    draw_seg = np.repeat(np.arange(len(seg_lengths)), seg_draws)
    prob = {r: 1.0 - s.erasure_of(r) for r in set(draw_r)}  # read per draw
    return _Compiled(
        seg_lengths,
        draw_seg,
        np.array(seg_lengths, dtype=np.int64)[draw_seg],
        np.fromiter(map(prob.__getitem__, draw_r), dtype=np.float64, count=len(draw_r)),
        prov_draw,
        prov_thr,
        group_start,
        starved,
    )


def run_monte_carlo(
    plan: SchemePlan, s: ChannelScenario, cfg: SimConfig
) -> SimReport:
    """Simulate the plan at finite blocklength; exact and reproducible.

    Per trial: erasure counts are sampled per (receiver, segment); a
    receiver decodes the units it is loaded with in schedule order while
    the unerased count covers the cumulative payload bits; an error is any
    receiver with a wanted part that is neither cached nor handed over by
    a decoded unit (see :func:`secache.schemes.peel_rule`).  One Philox
    generator is re-keyed per (demand, trial) counter.  A trial's draws
    take one scalar ``binomial`` call per run of equal (length,
    probability) when they fall into at most ``_MAX_RUNS`` runs, and one
    array call otherwise.  Trials are drawn and tested a block at a time,
    so memory stays flat in ``cfg.trials``.  Raises :class:`ConfigError`
    when demands x trials exceeds ``MAX_SIM_PAIRS``; the compile refuses a
    plan above ``schemes.MAX_PLAN_SIZE``.
    """
    n_demands, demands = _demands(s, cfg.demand_policy, cfg.seed)
    if n_demands * cfg.trials > MAX_SIM_PAIRS:
        raise ConfigError(
            f"{n_demands} demands x {cfg.trials} trials exceeds the cap of "
            f"{MAX_SIM_PAIRS} simulated pairs"
        )
    (seg_lengths, seg_idx, lengths, probs, prov_draw, prov_thr, group_start,
     starved) = _compile(plan, s, cfg.n)
    runs = _runs(lengths, probs)
    by_run = len(runs) <= _MAX_RUNS
    rows = min(cfg.trials, _block_rows(max(len(seg_idx), len(prov_draw))))
    got = np.empty((rows, len(seg_idx)), dtype=np.int64)
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
    seg_erasures = np.zeros(len(seg_lengths))
    for d_idx, demand in enumerate(demands):
        errors = 0
        counter[1] = d_idx
        for first in range(0, cfg.trials, rows):
            block = got[: min(rows, cfg.trials - first)]
            for row in range(len(block)):
                counter[0] = first + row
                bitgen.state = state
                if by_run:
                    out = block[row]
                    for a, b, length, prob in runs:
                        out[a:b] = gen.binomial(length, prob, b - a)
                else:
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
            elif len(group_start):
                hit = block[:, prov_draw] >= prov_thr
                decoded = np.logical_or.reduceat(hit, group_start, axis=1)
                errors += len(block) - int(np.count_nonzero(decoded.all(axis=1)))
        rate = errors / cfg.trials
        worst = max(worst, rate)
        per_demand.append(
            {"demand": list(demand), "errors": errors, "trials": cfg.trials}
        )

    seg_samples = np.bincount(seg_idx, minlength=len(seg_lengths)) * cfg.trials
    seg_ids = [(orb.phase, sid) for orb in plan.orbits.orbits for sid, _ in orb.segments()]
    stats = [
        {
            "segment": list(seg_id),
            "length": seg_lengths[i],
            "empirical_erasure_rate": (
                float(seg_erasures[i]) / int(seg_samples[i])
                if seg_samples[i] else None
            ),
        }
        for i, seg_id in enumerate(seg_ids)
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
