"""Coding schemes as placement/delivery plans, plus a verifier.

A :class:`SchemePlan` is a demand-agnostic placement (atoms per receiver)
and a delivery schedule (segments holding units).  Seven builders produce
the plans behind the corner-point families; :func:`verify_plan` checks
each plan's rate feasibility, decodability, secrecy accounting and cache
accounting, returning margins of exact sums, rounded once, instead of
raising, so sweeps can log failures.  ``wiretap-cached-keys`` and
``cached-keys-all`` are one unicast key scheme (:func:`_build_unicast`),
``piggyback-one`` and ``piggyback-allkeys`` one weak-subset piggyback
scheme (:func:`_build_piggyback`); each pair secures its strong receivers
by wiretap bins or by cached keys.

Every plan is its receiver classes, its orbits (:class:`PlanOrbits`) and
its placement, held as data.  An orbit (:class:`Orbit`) is the schedule
entries that a permutation within a class maps onto one another, given
by their members and the function that builds all of a member's units.
:func:`verify_plan` and the simulation compile (:mod:`secache.simulate`)
walk the orbits; the explicit schedule and placement are expanded only
when read, within :data:`MAX_PLAN_SIZE`, and kept.  The subset builders
(both piggyback schemes and ``symmetric-piggyback``) treat all weak
receivers alike and all strong receivers alike, so each segment family
is one orbit.  They build nothing per subset: each family of labels, one
per receiver subset or pair, is a :class:`Family`, counted from binomials,
which formats a label only when it is read; an orbit's members, the
placement, the message parts (as runs, :class:`Run`) and ``key_rates``
are read from such families, and the piggyback phase-3 unit takes a
whole family of parts at one slot (:class:`AtSlot`).  Only such a plan
lets DECODE peel one member per sub-orbit of a representative, and the
simulation one member per orbit.  The four other builders, and any
changed plan, claim no symmetry and list their atoms
(:meth:`PlanOrbits.explicit`).

The plan records :class:`Atom`, :class:`DeliveryUnit` and
:class:`DeliverySegment` are immutable named tuples, changed with their
``_replace`` method; a plan holds tens of thousands of them, and a named
tuple is several times cheaper to build than a frozen dataclass.

Modelling conventions (erasure broadcast channel, blocklength-normalised
rates):

* Point-to-point or per-receiver broadcast phases become segments whose
  fractions sum to the phase length; a receiver's load in a segment is
  the total rate it must decode there.
* Wiretap randomisation is structural: a wiretap segment records
  ``bin_rate = fraction * (1 - delta_z)`` and the intended receivers
  carry that bin in their decode load, which makes the rate check
  coincide with the usual wiretap decoding constraint.
* Superposition is represented by its erasure-equivalent two-segment
  split; the cloud keys appear as jamming randomisation of the satellite
  segment (physically the two share channel uses, so per-segment secrecy
  sums remain valid witnesses).
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from math import comb, fsum, prod
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import IndexOutOfRange, InvalidParameter, NotApplicable
from .model import CacheSizes, ChannelScenario, RateMemoryPoint, pos

RATE_TOL = 1e-12


def _sum(terms: Sequence[float], times: int | Sequence[int] = 1) -> float:
    """The exact sum of ``terms``, each taken ``times`` times (term ``i``
    ``times[i]`` times), rounded once: by :func:`math.fsum`, or at a cost
    free of the counts in integers over the terms' common power-of-two
    denominator, whose true division rounds alike.  Where both raise (NaN,
    infinity, overflow), the plain sum's IEEE value: the terms added one
    at a time from 0.0, times ``times`` or each its count."""
    try:
        if times == 1 or type(times) is not int and times.count(1) == len(times):
            return fsum(terms)
        counts = itertools.repeat(times) if type(times) is int else times
        ratios = [term.as_integer_ratio() for term in terms]
        den = max((d for _, d in ratios), default=1)
        return sum(n * p * (den // d) for n, (p, d) in zip(counts, ratios)) / den
    except (OverflowError, ValueError):
        if type(times) is int:
            return reduce(operator.add, terms, 0.0) * times
        return reduce(operator.add, map(operator.mul, times, terms), 0.0)


# ---------------------------------------------------------------------------
# plan data model
# ---------------------------------------------------------------------------

#: The default decode load and decoder context of a unit: one shared,
#: read-only empty mapping.
_EMPTY: Mapping = MappingProxyType({})


class Atom(NamedTuple):
    """One cached object: a per-file message part or a secret key.

    A file part is stored for every library file, so it occupies
    ``D * rate``; a key occupies ``rate``.
    """

    kind: str  # "file_part" | "key"
    label: str
    rate: float

    def cache_cost(self, D: int) -> float:
        return D * self.rate if self.kind == "file_part" else self.rate


class DeliveryUnit(NamedTuple):
    """One decodable payload inside a segment.

    ``parts`` lists (demand-slot, part-label) pairs; with ``combine="xor"``
    the unit carries their modular sum (all parts share one rate), with
    ``combine="concat"`` their juxtaposition.  A concatenation may take a
    whole family of parts at one slot (:class:`AtSlot`, the piggyback
    phase 3), which formats its labels only when iterated.  ``pad_keys``
    are stripped by legitimate decoders; ``jam_keys`` only count as
    randomisation against the eavesdropper.  ``context[r]`` names cache
    labels receiver ``r`` must hold to run its restricted (cache-aided)
    decoder.  Builders share ``decode_load`` and ``context`` mappings
    between units, so they are never changed in place.
    """

    parts: Sequence[tuple[int, str]]
    part_rates: tuple[float, ...]
    combine: str = "xor"
    pad_keys: tuple[str, ...] = ()
    jam_keys: tuple[str, ...] = ()
    bin_rate: float = 0.0
    intended: frozenset = frozenset()
    decode_load: Mapping[int, float] = _EMPTY
    context: Mapping[int, tuple[str, ...]] = _EMPTY

    @property
    def payload_rate(self) -> float:
        if self.combine == "xor":
            return self.part_rates[0] if self.part_rates else 0.0
        return _sum(self.part_rates)

    def to_dict(self) -> dict:
        return {
            "parts": [[slot, label] for slot, label in self.parts],
            "part_rates": list(self.part_rates),
            "combine": self.combine,
            "pad_keys": list(self.pad_keys),
            "jam_keys": list(self.jam_keys),
            "bin_rate": self.bin_rate,
            "intended": sorted(self.intended),
            "decode_load": {str(k): v for k, v in sorted(self.decode_load.items())},
        }


class DeliverySegment(NamedTuple):
    """A time-shared slice of the delivery phase."""

    id: tuple
    fraction: float
    units: tuple[DeliveryUnit, ...]

    def to_dict(self) -> dict:
        return {
            "id": list(self.id),
            "fraction": self.fraction,
            "units": [u.to_dict() for u in self.units],
        }


class Orbit(NamedTuple):
    """Schedule entries that a permutation within receiver classes maps
    onto one another, in schedule order.

    ``units(member)`` builds all the units of a member (a subset, a
    receiver pair or a segment id; there is at least one member).  The
    orbit reports its segments itself (:meth:`segments`), and no reader
    looks past them: each member is the segment ``(phase, member)`` of
    length ``fraction``, or, with ``one_segment``, the members' units make
    up the one segment ``(phase, 0)``.  Members are alike for every check:
    equal decode loads, payloads, bins and key rates, with labels mapped
    one to one, so the first member (``next(iter(members))``) stands for
    the rest: :func:`verify_plan` weights its terms by the member count in
    exact sums.  Unit by unit, each member's units hand over
    (:func:`peel_rule`) the parts at the first member's part positions, so
    where the plan carries the class symmetry (:func:`_symmetry`) the
    simulation peels the first member only.  They are the first member's
    units with its ids renamed to the member's at the same positions
    (unmoved classes kept), so the simulation stamps the others from the
    first member's walk where it reads no other id, or one segment's
    units load a moved class whole at one load; tests hold every builder
    plan to it.

    The subset builders give as ``members`` a label family
    (:class:`Family`), whose ids are the orbit of the first member under
    the class group, or a receiver class itself (the piggyback phase 3);
    DECODE reads one member per sub-orbit of those (:func:`_blocks`), and
    every member of any other.
    """

    phase: int
    fraction: float
    members: Collection
    units: Callable[[object], tuple[DeliveryUnit, ...]]
    one_segment: bool = False

    def segments(self) -> Iterable[tuple[object, Collection]]:
        """Each segment's id after the phase, with the members whose units
        it holds, in schedule order; every segment holds as many members,
        and the first member is the first segment's first."""
        if self.one_segment:
            return ((0, self.members),)
        return ((m, (m,)) for m in self.members)


class _Labels(dict):
    """A family's labels by ids, each formatted (:func:`_lbl`) when first
    read and kept."""

    __slots__ = ("prefix",)

    def __missing__(self, ids: tuple[int, ...]) -> str:
        self[ids] = label = _lbl(self.prefix, ids)
        return label


class Family(Mapping):
    """A label family: a read-only mapping from receiver ids to the label
    ``prefix[ids]``.

    ``blocks`` are (class, size) pairs, as :func:`_blocks` gives them for
    orbit members: the ids are one ``size``-combination of each block's
    class, the blocks' in turn.  The family enumerates them as
    ``itertools.product`` over the blocks of ``combinations(class,
    size)``, the first block outermost or, with ``outer_last``, the last
    (the keyed piggyback's K3 keys run weak subset by weak subset).  Its
    length comes from binomials, and it formats a label only when the
    label is read, once.  ``label`` reads the ids a builder enumerates, as
    they are: a :class:`_Labels` that keeps the labels in the order they
    were first read until :meth:`table` replaces it by the plain dict of
    every label in the family's order, so a reader looks ``label`` up on
    the family each time.  A lookup by key (``family[ids]``, ``get``,
    ``in``) first checks that ``ids`` is one of the family's, so ids parsed
    from a label from elsewhere never match a label the family does not
    have.  A family of more than :data:`MAX_PLAN_SIZE` labels is refused.
    """

    __slots__ = ("prefix", "blocks", "outer_last", "size", "label")

    def __init__(self, prefix: str, *blocks: tuple[tuple[int, ...], int],
                 outer_last: bool = False):
        self.prefix, self.blocks, self.outer_last = prefix, blocks, outer_last
        self.size = prod(comb(len(c), k) for c, k in blocks)
        if self.size > MAX_PLAN_SIZE:
            raise InvalidParameter(f"label family {prefix} exceeds the cap of {MAX_PLAN_SIZE}")
        self.label = _Labels()
        self.label.prefix = prefix

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        if type(self.label) is dict:  # the table's own ids, found by identity
            return iter(self.label)
        combos = [itertools.combinations(c, k) for c, k in self.blocks]
        if len(combos) == 1:
            return combos[0]
        if self.outer_last:
            return map(tuple, map(itertools.chain.from_iterable,
                                  map(reversed, itertools.product(*combos[::-1]))))
        return map(tuple, map(itertools.chain.from_iterable, itertools.product(*combos)))

    def __contains__(self, ids) -> bool:
        if type(ids) is not tuple:
            return False
        at = 0
        for c, k in self.blocks:
            part = ids[at:at + k]
            at += k
            if len(part) < k or not all(type(i) is int and i in c for i in part) or any(
                    map(operator.ge, part, part[1:])):
                return False
        return at == len(ids)

    def __getitem__(self, ids: tuple[int, ...]) -> str:
        if ids not in self:
            raise KeyError(ids)
        return self.label[ids]

    def get(self, ids, default=None):
        return self.label[ids] if ids in self else default

    def has(self, label: str, ids: Optional[tuple[int, ...]]) -> bool:
        """Whether ``label``, whose ids are ``ids``, is one of the family's:
        a label already formatted is found by its ids, any other only once
        the ids are checked (:meth:`get`)."""
        return self.label.get(ids) == label or self.get(ids) == label

    def items(self):
        return self.table().items()

    def values(self):
        return self.table().values()

    def table(self) -> dict:
        """Every label by its ids, in the family's order, kept as ``label``:
        the first call formats the labels not yet read in one pass, block by
        block, whatever order the others were read in."""
        if type(self.label) is _Labels:
            # (ids, their names joined) of each combination of each block
            # (a block of size 0 adds no id), then of the blocks so far
            named = [zip(itertools.combinations(c, k),
                         map(",".join, itertools.combinations([str(i) for i in c], k)))
                     for c, k in self.blocks if k]
            rows = named[0] if named else [((), "")]
            for block in named[1:]:
                if self.outer_last:
                    rows = list(rows)
                    rows = [(ids + more, f"{name},{names}") for more, names in block
                            for ids, name in rows]
                else:
                    block = list(block)
                    rows = [(ids + more, f"{name},{names}") for ids, name in rows
                            for more, names in block]
            prefix = self.prefix
            table = {ids: f"{prefix}[{name}]" for ids, name in rows}
            table.update(self.label)  # the labels already read, as they were handed out
            self.label = table
        return self.label


class Run(NamedTuple):
    """Atoms a receiver holds, or message parts it wants, of one kind and
    rate, ``count`` of them, over one label family (:class:`Family`).

    A family of message parts lists its labels in canonical order (the
    first block outermost).  A run counts all its labels or, from
    :meth:`held_by`, those whose ids contain one receiver.
    """

    kind: str  # "file_part" | "key"
    rate: float
    count: int
    labels: Family

    @classmethod
    def over(cls, kind: str, rate: float, labels: Family) -> Run:
        return cls(kind, rate, len(labels), labels)

    def held_by(self, r: int) -> Run:
        """The run counting the labels whose ids contain ``r``, from
        binomials."""
        count = 0
        blocks = self.labels.blocks
        for b, (c, k) in enumerate(blocks):
            if r in c:
                count = comb(len(c) - 1, k - 1) if k else 0
                count *= prod(comb(len(o), m) for a, (o, m) in enumerate(blocks) if a != b)
        return Run(self.kind, self.rate, count, self.labels)

    cache_cost = Atom.cache_cost


class AtSlot(Sequence):
    """A label family's parts at one demand slot: a read-only sequence of
    ``(slot, label)`` pairs in the family's order, which formats the labels
    only when it is iterated.  It is equal to, hashes as and adds like the
    tuple of its pairs."""

    __slots__ = ("slot", "labels")

    def __init__(self, slot: int, labels: Mapping[tuple[int, ...], str]):
        self.slot, self.labels = slot, labels

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return zip(itertools.repeat(self.slot), self.labels.values())

    def __getitem__(self, i):
        return tuple(self)[i]

    def __eq__(self, other) -> bool:
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other: tuple) -> tuple:
        return tuple(self) + other

    def __repr__(self) -> str:
        return repr(tuple(self))


class PlanOrbits(NamedTuple):
    """A class-symmetric plan's schedule and placement, as orbits and data.

    ``classes`` lists the receivers of each class (weak, strong); the plan
    treats the members of a class alike, so the lowest-numbered one stands
    for its class.  The class group (permutations within each class) maps
    the plan onto itself, renaming the receiver ids in its labels
    ``prefix[ids]``.

    The placement takes one of two forms.  ``atoms`` lists each
    receiver's atoms in placement order.  The subset builders give instead
    ``families``: groups of family runs (:class:`Run`) whose atoms a
    receiver holds when its id is among the label's, in group order, a
    group's runs interleaved (:func:`_interleaved`); and with them
    ``parts``, each receiver's message parts (``SchemePlan.message_parts``,
    read from them) as family runs, and ``virtual``, the labels each
    receiver holds virtually (``SchemePlan.virtual_cached``).  Who holds a
    label is read from either form by one holder map (:class:`_Holders`),
    and a receiver's cache usage by one rule (:func:`_usage`).  The plan
    keeps the class symmetry only while its per-receiver fields are these
    (:func:`_symmetry`).
    """

    classes: tuple[tuple[int, ...], ...]
    orbits: tuple[Orbit, ...]
    atoms: Mapping[int, tuple[Atom, ...]] = _EMPTY
    families: tuple[tuple[Run, ...], ...] = ()
    parts: Mapping[int, tuple[Run, ...]] = _EMPTY
    virtual: Mapping[int, frozenset] = _EMPTY

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(sorted(min(c) for c in self.classes if c))

    @classmethod
    def explicit(cls, receivers: Iterable[int], schedule: Sequence[DeliverySegment],
                 placement: Mapping[int, tuple[Atom, ...]]) -> PlanOrbits:
        """A plan that claims no symmetry: each receiver its own class,
        each segment ``(phase, member)`` an orbit of one member whose units
        are the segment's own, and ``placement`` as its atoms."""
        orbits = tuple(
            Orbit(seg.id[0], seg.fraction, (seg.id[1],),
                  lambda member, units=seg.units: units)
            for seg in schedule
        )
        return cls(tuple((r,) for r in receivers), orbits, placement)


#: Largest plan expanded, in units plus atom references (atoms summed over
#: placements) of its explicit form (:func:`_check_plan_size`), and largest
#: label family built.  fig5 piggyback-one at t=10 (2.2M units) verifies
#: unexpanded; fig5 piggyback-allkeys at t=8 is refused at build, its K3
#: key family holding 10 C(20, 8) labels.
MAX_PLAN_SIZE = 10**6


def _check_plan_size(po: PlanOrbits, firsts: Optional[list] = None) -> tuple[int, int]:
    """The (units, atom references) of the plan's explicit form, counted
    from its orbits (each member with as many units as the first member,
    ``firsts``) and its family runs or listed atoms; refused above
    :data:`MAX_PLAN_SIZE`."""
    firsts = firsts or [orb.units(next(iter(orb.members))) for orb in po.orbits]
    units = sum(len(orb.members) * len(block) for orb, block in zip(po.orbits, firsts))
    atom_refs = (sum(run.count * sum(k for _, k in run.labels.blocks)
                     for group in po.families for run in group)
                 if po.families else sum(map(len, po.atoms.values())))
    if units + atom_refs > MAX_PLAN_SIZE:
        raise InvalidParameter(f"plan of {units} units and {atom_refs} atom references "
                               f"exceeds the cap of {MAX_PLAN_SIZE}")
    return units, atom_refs


@dataclass(frozen=True, eq=False)
class SchemePlan:
    """A placement and a delivery schedule, with what they claim.

    Every plan is described by its ``orbits`` (:class:`PlanOrbits`): the
    explicit ``schedule`` (every member's units, in orbit order) and
    ``placement`` (the listed atoms, or every receiver's share of the
    families) are each expanded from them on first read, within
    :data:`MAX_PLAN_SIZE`, and kept.  A plan is immutable; a changed plan
    is a new one whose orbits :meth:`PlanOrbits.explicit` builds from its
    changed schedule and placement, so it claims no symmetry and
    :func:`verify_plan` checks every segment and receiver of it.  One rule
    (:func:`_symmetry`) decides the rest: a plan keeps the class symmetry
    only while its per-receiver fields (``message_parts`` and
    ``virtual_cached``) are its orbits' own, so a plan with either replaced
    has every member of every orbit peeled, and every receiver checked,
    against the replaced fields.
    """

    scheme_name: str
    params: dict
    orbits: PlanOrbits
    claimed_point: RateMemoryPoint
    #: rate per key label; a subset builder's reads its key families
    key_rates: Mapping[str, float]
    #: per-receiver tiling of its demanded message into (label, rate); a
    #: subset builder's reads ``orbits.parts`` when a receiver's is asked for
    message_parts: Mapping[int, tuple[tuple[str, float], ...]]
    #: part labels available from cache by containment in stored atoms
    virtual_cached: dict[int, frozenset] = field(default_factory=dict)

    @cached_property
    def schedule(self) -> tuple[DeliverySegment, ...]:
        _check_plan_size(self.orbits)
        return tuple(DeliverySegment((orb.phase, sid), orb.fraction,
                                     tuple(itertools.chain.from_iterable(map(orb.units, held))))
                     for orb in self.orbits.orbits for sid, held in orb.segments())

    @cached_property
    def placement(self) -> dict[int, tuple[Atom, ...]]:
        po = self.orbits
        _check_plan_size(po)
        if po.families:
            return _placed(po.families, [r for c in po.classes for r in c])
        return dict(po.atoms)

    def cached_labels(self, receiver: int) -> set:
        return {a.label for a in self.placement.get(receiver, ())}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {
                "scheme": self.scheme_name,
                "params": self.params,
                "claimed_point": {
                    "R": self.claimed_point.R,
                    "M_w": self.claimed_point.M_w,
                    "M_s": self.claimed_point.M_s,
                    "label": self.claimed_point.label,
                },
                "key_rates": dict(sorted(self.key_rates.items())),
                "placement": {
                    str(r): [
                        {"kind": a.kind, "label": a.label, "rate": a.rate}
                        for a in atoms
                    ]
                    for r, atoms in sorted(self.placement.items())
                },
                "schedule": [seg.to_dict() for seg in self.schedule],
            },
            indent=indent,
        )


class CheckResult(NamedTuple):
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        return next(c for c in self.checks if c.name == name)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(
            {"passed": self.passed, "checks": [c._asdict() for c in self.checks]},
            indent=indent,
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _lbl(prefix: str, group: Iterable[int]) -> str:
    return f"{prefix}[{','.join(map(str, group))}]"


def _ids(label: str) -> Optional[tuple[int, ...]]:
    """The receiver ids of a label ``prefix[ids]``; None for a label not of
    that form."""
    _, sep, ids = label.partition("[")
    if not sep or ids[-1:] != "]":
        return None
    try:
        return tuple(map(int, ids[:-1].split(","))) if ids != "]" else ()
    except ValueError:
        return None


def _interleaved(group: Sequence[Run]) -> Iterable[tuple[Run, Iterable]]:
    """The labels of a group of runs, in chunks (run, its (ids, label)
    pairs): after each label of the first run come the next labels of the
    others, as many as each has per label of the first.  A group of one run
    is one chunk."""
    first, *rest = group
    if not rest:
        yield first, first.labels.items()
        return
    rest = [(run, iter(run.labels.items()), len(run.labels) // len(first.labels))
            for run in rest]
    for entry in first.labels.items():
        yield first, (entry,)
        for run, entries, share in rest:
            yield run, itertools.islice(entries, share)


def _placed(families: tuple[tuple[Run, ...], ...], receivers: Sequence[int]
            ) -> dict[int, tuple[Atom, ...]]:
    """The placement of ``families``, in ``receivers`` order, of the
    receivers that hold atoms: each label, group by group in
    :func:`_interleaved` order, makes one atom, which every receiver among
    its ids holds."""
    atoms = {r: [] for r in receivers}
    for group in families:
        for run, entries in _interleaved(group):
            kind, rate = run.kind, run.rate
            for ids, label in entries:
                atom = Atom(kind, label, rate)
                for i in ids:
                    atoms[i].append(atom)
    return {r: tuple(a) for r, a in atoms.items() if a}


class _KeyRates(Mapping):
    """The rate of each key label of ``groups`` (groups of key runs, an
    empty group skipped), in :func:`_interleaved` order; a label is looked
    up by its prefix and ids, which its run's family checks.

    A builder passes the key groups it also places, in its key order,
    which tests/golden/plans.tsv pins (``key_order``): that order need not
    be the placement's, as the keyed piggyback places its K4 keys first
    and lists them last.
    """

    __slots__ = ("groups", "runs")

    def __init__(self, *groups: Sequence[Run]):
        self.groups = tuple(group for group in groups if group)
        self.runs = {run.labels.prefix: run for group in groups for run in group}

    def __getitem__(self, label: str) -> float:
        run = self.runs.get(label.partition("[")[0])
        if run is None or not run.labels.has(label, _ids(label)):
            raise KeyError(label)
        return run.rate

    def __len__(self) -> int:
        return sum(run.count for run in self.runs.values())

    def __iter__(self):
        return (label for label, _ in self.items())

    def items(self):
        return ((label, run.rate) for group in self.groups
                for run, entries in _interleaved(group) for _, label in entries)


class _MessageParts(Mapping):
    """Each receiver's message parts, (label, rate) pairs read from its
    runs (``PlanOrbits.parts``), every receiver's when any is first asked
    for, into a plain dict (:meth:`parts`); receivers with one runs tuple
    share one parts tuple."""

    __slots__ = ("runs", "read")

    def __init__(self, runs: Mapping[int, tuple[Run, ...]]):
        self.runs, self.read = runs, None

    def parts(self) -> dict[int, tuple[tuple[str, float], ...]]:
        if self.read is None:
            shared = {}
            for runs in self.runs.values():
                if id(runs) not in shared:
                    shared[id(runs)] = tuple(
                        (label, run.rate) for run in runs for label in run.labels.values())
            self.read = {r: shared[id(runs)] for r, runs in self.runs.items()}
        return self.read

    def __getitem__(self, r: int) -> tuple[tuple[str, float], ...]:
        return self.parts()[r]

    def get(self, r: int, default=None):
        return self.parts().get(r, default)

    def items(self):
        return self.parts().items()

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)


def _peeled(H: tuple[int, ...], labels: dict) -> tuple[tuple[int, str], ...]:
    """Each member ``i`` of ``H`` with the label of ``H`` without ``i``.
    ``combinations`` drops members from last to first, so it is reversed."""
    rest = reversed(tuple(itertools.combinations(H, len(H) - 1)))
    return tuple(zip(H, map(labels.__getitem__, rest)))


def _xor_unit(H: tuple[int, ...], labels: dict, rate: float, pad: str,
              load: Mapping[int, float]) -> DeliveryUnit:
    """The coded-caching XOR over subset ``H`` (Maddah-Ali--Niesen): member
    ``i`` peels the part labelled by ``H`` without ``i`` and holds the other
    parts in cache; the key ``pad``, shared by ``H``, pads the sum."""
    return DeliveryUnit(
        _peeled(H, labels), (rate,) * len(H), "xor", (pad,), (), 0.0,
        frozenset(H), load,
    )


def _unicast(r: int, label: str, rate: float, pads: tuple[str, ...] = (),
             bin_rate: float = 0.0, context: tuple[str, ...] = ()) -> DeliveryUnit:
    """A unit only receiver ``r`` decodes: its part ``label`` at ``rate``,
    padded by ``pads``, with ``bin_rate`` of wiretap randomisation on top
    and ``context`` as its decoder context."""
    return DeliveryUnit(
        parts=((r, label),),
        part_rates=(rate,),
        pad_keys=pads,
        bin_rate=bin_rate,
        intended=frozenset({r}),
        decode_load={r: rate + bin_rate},
        context={r: context} if context else _EMPTY,
    )


def _check_eps(eps: float) -> None:
    # A smaller backoff is lost to rounding in the rate sums, so the
    # built plan would fail its own RATE check.
    if not (eps >= RATE_TOL):
        raise InvalidParameter(f"rate backoff eps must be >= {RATE_TOL}, got {eps}")


def _check_gate(s: ChannelScenario) -> None:
    if s.delta_z <= s.delta_s:
        raise NotApplicable(
            "scheme needs delta_z > delta_s (weak-only secrecy regime)"
        )


def _check_rate(rate: float, what: str) -> None:
    if rate <= 0.0:
        raise InvalidParameter(
            f"{what} is nonpositive ({rate}); eps too large for this scenario"
        )


def _split_backoff(ra0: float, rb0: float, eps: float) -> tuple[float, float]:
    """Distribute the rate backoff over the two submessages.

    Each submessage with positive nominal rate gives up an equal share;
    a vanished submessage (degenerate scenario) contributes rate 0 and
    its share moves to the other one so the total stays eps.
    """
    if ra0 > 0.0 and rb0 > 0.0:
        ra, rb = ra0 - eps / 2, rb0 - eps / 2
    elif ra0 > 0.0:
        ra, rb = ra0 - eps, 0.0
    elif rb0 > 0.0:
        ra, rb = 0.0, rb0 - eps
    else:
        raise NotApplicable("both submessage rates vanish in this scenario")
    if ra0 > 0.0:
        _check_rate(ra, "first submessage rate")
    if rb0 > 0.0:
        _check_rate(rb, "second submessage rate")
    return ra, rb


def _piggyback_split(
    s: ChannelScenario, t: int, dz: float, eps: float
) -> tuple[float, float, float, float, float]:
    """Phase fractions and backed-off submessage rates of the weak-subset
    piggyback scheme at index ``t``: ``(beta1, beta2, beta3, R_A, R_B)``.

    ``dz`` sets the secrecy budget of a strong channel use: wiretap coding
    against the eavesdropper gives ``delta_z - delta_s``, cached one-time
    pads give ``1 - delta_s``, i.e. ``dz = 1``.  Checks ``eps``, ``t`` and
    ``K_s`` first, in that order.
    """
    _check_eps(eps)
    if s.K_w < 2 or not (1 <= t <= s.K_w - 1):
        raise IndexOutOfRange(f"t={t} outside 1..{s.K_w - 1} (needs K_w >= 2)")
    if s.K_s < 1:
        raise NotApplicable("needs K_s >= 1")
    dw, ds = s.delta_w, s.delta_s
    Kw, Ks = s.K_w, s.K_s
    md = min(dw - ds, dz - ds)
    den = (Kw - t + 1) * (dz - ds) * (
        Ks * (t + 1) * (1 - dw) + (Kw - t) * md
    ) + Ks**2 * t * (t + 1) * (1 - dw) ** 2
    if den == 0:  # dz = 1 with delta_w = delta_s = 1
        raise NotApplicable("phase split degenerates at delta_w = delta_s = 1")
    beta1 = (Kw - t) * (Kw - t + 1) * (dz - ds) * md / den
    beta2 = Ks * (Kw - t + 1) * (t + 1) * (1 - dw) * (dz - ds) / den
    beta3 = Ks**2 * t * (t + 1) * (1 - dw) ** 2 / den
    RA, RB = _split_backoff(
        Ks * t * (t + 1) * (1 - dw) ** 2 * (dz - ds) / den,
        (Kw - t + 1) * (t + 1) * (1 - dw) * (dz - ds) * md / den,
        eps,
    )
    return beta1, beta2, beta3, RA, RB


def _held(po: PlanOrbits, r: int) -> tuple[Run, ...]:
    """Receiver ``r``'s share of the plan's ``families``, as runs."""
    return tuple(h for group in po.families for run in group if (h := run.held_by(r)).count)


def _usage(po: PlanOrbits, r: int, D: int) -> float:
    """Receiver ``r``'s cache occupancy for ``D`` files: the cost of its
    atoms, in a plan with families its runs (:func:`_held`), counted from
    binomials, in any other its listed atoms; an exact sum, rounded once."""
    if po.families:
        held = _held(po, r)
        return _sum([run.cache_cost(D) for run in held], [run.count for run in held])
    return _sum([a.cache_cost(D) for a in po.atoms.get(r, ())])


def cache_usage(plan: SchemePlan, D: int) -> dict[int, float]:
    """Cache occupancy per receiver (bits per channel use) for ``D`` files,
    of each receiver the placement lists, by :func:`_usage`: read from the
    plan's orbits, without expanding the placement."""
    po = plan.orbits
    listed = [r for c in po.classes for r in c if _held(po, r)] if po.families else po.atoms
    return {r: _usage(po, r, D) for r in listed}


def cache_usage_by_class(plan: SchemePlan, s: ChannelScenario) -> CacheSizes:
    """Worst-case occupancy over each receiver class."""
    per = cache_usage(plan, s.D)
    mw = max((per.get(r, 0.0) for r in s.weak_ids), default=0.0)
    ms = max((per.get(r, 0.0) for r in s.strong_ids), default=0.0)
    return CacheSizes(mw, ms)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _build_unicast(s: ChannelScenario, eps: float, keyed: bool) -> SchemePlan:
    """Unicast key scheme: K_w weak slots carry messages padded by cached
    keys, K_s strong slots the strong receivers' messages, secured by a
    wiretap bin or, if ``keyed``, by a cached key as well.  The split
    ``beta`` equalises the two classes' decoding constraints; ``dz`` sets
    the strong secrecy budget as in :func:`_piggyback_split`.
    """
    dz = 1.0 if keyed else s.delta_z
    dw, ds = s.delta_w, s.delta_s
    den = s.K_w * (dz - ds) + s.K_s * (1 - dw)
    if den <= 0:  # keyed only: the gate and K_w >= 1 keep den > 0 otherwise
        raise NotApplicable("all channels fully erased")
    beta = s.K_w * (dz - ds) / den
    R = (dz - ds) * (1 - dw) / den - eps
    _check_rate(R, "message rate")
    lam_s = (1 - beta) / s.K_s if s.K_s else 0.0
    if keyed:
        name, point_label = "cached-keys-all", "all:cached-keys"
        RKw = beta * min(1 - s.delta_z, 1 - dw) / s.K_w if s.K_w else 0.0
        RKs = (1 - beta) * min(1 - s.delta_z, 1 - ds) / s.K_s if s.K_s else 0.0
        key_rate = dict.fromkeys(s.weak_ids, RKw) | dict.fromkeys(s.strong_ids, RKs)
        bin_s = 0.0
    else:  # strong receivers hold no key
        name, point_label = "wiretap-cached-keys", "cached-keys"
        RKw, RKs = min(beta * (1 - s.delta_z) / s.K_w, R), 0.0
        key_rate = dict.fromkeys(s.weak_ids, RKw)
        bin_s = lam_s * (1 - s.delta_z)

    keys = {r: _lbl("K", [r]) for r in key_rate}
    placement = {r: (Atom("key", keys[r], rate),)
                 for r, rate in key_rate.items()}
    key_rates = {keys[r]: rate for r, rate in key_rate.items()}
    segments = [DeliverySegment((1, i), beta / s.K_w, (_unicast(i, "full", R, (keys[i],)),))
                for i in s.weak_ids]
    for j in s.strong_ids:
        unit = _unicast(j, "full", R, (keys[j],) if keyed else (), bin_s)
        segments.append(DeliverySegment((2, j), lam_s, (unit,)))

    return SchemePlan(
        scheme_name=name,
        params={"eps": eps, "D": s.D},
        orbits=PlanOrbits.explicit(range(1, s.K + 1), segments, placement),
        claimed_point=RateMemoryPoint(R, RKw, RKs, point_label),
        key_rates=key_rates,
        message_parts=dict.fromkeys(range(1, s.K + 1), (("full", R),)),
    )


def build_wiretap_cached_keys(s: ChannelScenario, eps: float) -> SchemePlan:
    """One-time-pad keys at weak receivers; wiretap code to strong ones
    (:func:`_build_unicast`)."""
    _check_gate(s)
    _check_eps(eps)
    if s.K_w < 1:
        raise NotApplicable("needs at least one weak receiver")
    return _build_unicast(s, eps, keyed=False)


def build_superposition_jamming(s: ChannelScenario, eps: float) -> SchemePlan:
    """Cloud of padded weak messages jams the strong satellite layer.

    Erasure-equivalent representation: a cloud segment of fraction gamma
    and a satellite segment of fraction 1-gamma whose randomisation is
    the cloud keys plus explicit binning.  The satellite input bias p
    (binary entropy 1-gamma) is recorded in the parameters.
    """
    _check_gate(s)
    _check_eps(eps)
    if s.K_w < 1 or s.K_s < 1:
        raise NotApplicable("needs K_w >= 1 and K_s >= 1")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    g1_den = s.K_s * (1 - dw) + s.K_w * (dw - ds)
    g1 = s.K_w * (dz - ds) / g1_den if g1_den > 0 else float("inf")
    g2 = s.K_w * (1 - ds) / (s.K_s * (1 - dw) + s.K_w * (1 - ds))
    gamma = min(g1, g2)
    R = gamma * (1 - dw) / s.K_w - eps
    _check_rate(R, "message rate")
    R_key = min((1 - dz) / s.K_w, R)
    R_bin = pos((1 - dz) - gamma * (1 - dw))
    p = _binary_entropy_inverse(1.0 - gamma)

    keys = [_lbl("K", [i]) for i in s.weak_ids]
    placement = {i: (Atom("key", key, R_key),) for i, key in zip(s.weak_ids, keys)}
    # Unicasts that their whole class decodes; the first satellite unit
    # also carries the cloud keys as jamming and the bin.
    cloud = [_unicast(i, "full", R, (key,))._replace(decode_load=dict.fromkeys(s.weak_ids, R))
             for i, key in zip(s.weak_ids, keys)]
    sat = [_unicast(j, "full", R)._replace(decode_load=dict.fromkeys(s.strong_ids, R))
           for j in s.strong_ids]
    sat[0] = sat[0]._replace(jam_keys=tuple(keys), bin_rate=R_bin,
                             decode_load=dict.fromkeys(s.strong_ids, R + R_bin))
    segments = [DeliverySegment((1, "cloud"), gamma, tuple(cloud)),
                DeliverySegment((2, "satellite"), 1 - gamma, tuple(sat))]

    return SchemePlan(
        scheme_name="superposition-jamming",
        params={"eps": eps, "D": s.D, "gamma": gamma, "satellite_bias": p},
        orbits=PlanOrbits.explicit(range(1, s.K + 1), segments, placement),
        claimed_point=RateMemoryPoint(R, R_key, 0.0, "superposition-jamming"),
        key_rates=dict.fromkeys(keys, R_key),
        message_parts=dict.fromkeys(range(1, s.K + 1), (("full", R),)),
    )


def _binary_entropy_inverse(h: float) -> float:
    """p in [0, 1/2] with -p log2 p - (1-p) log2 (1-p) = h, by bisection."""
    from math import log2

    if not (0.0 <= h <= 1.0):
        raise InvalidParameter(f"entropy value must lie in [0,1], got {h}")
    if h == 0.0:
        return 0.0
    if h == 1.0:
        return 0.5

    def hb(p: float) -> float:
        return -p * log2(p) - (1 - p) * log2(1 - p)

    lo, hi = 0.0, 0.5
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if hb(mid) < h:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10:
            break
    return 0.5 * (lo + hi)


def _build_piggyback(s: ChannelScenario, t: int, eps: float, keyed: bool) -> SchemePlan:
    """Weak-subset piggyback at index ``t``: phase 1 sends secured XORs of
    cached-data complements to weak receivers, phase 2 one period per weak
    t-subset (weak receivers decode the row against cached columns, strong
    receivers decode everything), phase 3 the strong receivers' remaining
    parts.  The strong side is secured by wiretap bins (a row bin and a
    phase-3 bin) or, if ``keyed``, by cached keys (K3 per weak subset and
    strong receiver, pads a column and is row context; K4 pads phase 3).
    """
    dz = 1.0 if keyed else s.delta_z
    beta1, beta2, beta3, RA, RB = _piggyback_split(s, t, dz, eps)
    dw, ds = s.delta_w, s.delta_s
    Kw, Ks, D = s.K_w, s.K_s, s.D
    weak = tuple(s.weak_ids)
    strong = tuple(s.strong_ids)
    A = Family("A", (weak, t - 1))
    B = Family("B", (weak, t))
    K1 = Family("K1", (weak, t + 1))
    K2 = Family("K2", (weak, t))
    K4 = Family("K4", (strong, 1))
    mzw = min(1 - s.delta_z, 1 - dw)
    rA = RA / len(A)
    rB = RB / len(B)
    RK1 = beta1 * mzw / len(K1)
    RK2 = beta2 * mzw / len(K2)
    # the strong receivers' phase-2 excess over the eavesdropper, per row
    excess = beta2 * min(pos(dw - s.delta_z), dw - ds)
    lam3 = beta3 / Ks

    if keyed:
        name, point_label = "piggyback-allkeys", f"all:piggyback-keys[t={t}]"
        # K3[j,G] per weak subset G, strong receiver by strong receiver
        K3 = Family("K3", (strong, 1), (weak, t), outer_last=True)
        Rbin = bin3 = 0.0
        RK3 = excess / len(K3)
        RK4 = beta3 * min(1 - s.delta_z, 1 - ds) / Ks
        heads = [(j,) for j in strong]
    else:  # no K3 key is built or read
        name, point_label = "piggyback-one", f"piggyback-one[t={t}]"
        Rbin = excess / len(B)
        bin3 = lam3 * (1 - s.delta_z)
        RK3 = RK4 = 0.0
        K3, heads = None, []

    A_run = Run.over("file_part", rA, A)
    B_run = Run.over("file_part", rB, B)
    K1_keys = (Run.over("key", RK1, K1),)
    # the K3 keys of G follow K2[G]
    K23_keys = (Run.over("key", RK2, K2),) + ((Run.over("key", RK3, K3),) if keyed else ())
    K4_keys = (Run.over("key", RK4, K4),) if keyed else ()
    # K4 is placed first but listed last in key_rates (:class:`_KeyRates`)
    families = [K4_keys] if keyed else []
    families.append((A_run,))
    if rB > 0:
        families.append((B_run,))
    families += [K1_keys, K23_keys]
    parts = dict.fromkeys(range(1, s.K + 1), tuple(run for run in (A_run, B_run) if run.rate > 0))

    xor_load = dict.fromkeys(weak, rB)
    column_load = dict.fromkeys(strong, rB)
    row_intended = frozenset(strong)

    def xor(H):
        return (_xor_unit(H, B.label, rB, K1.label[H], xor_load),)

    def period(G):
        """Phase 2 for weak subset G: the row, then one column per strong
        receiver."""
        k3 = tuple(K3.label[j + G] for j in heads)
        context = ((B.label[G],) if rB > 0 else ()) + k3
        units = [DeliveryUnit(
            parts=_peeled(G, A.label),
            part_rates=(rA,) * len(G),
            pad_keys=(K2.label[G],),
            bin_rate=Rbin,
            intended=row_intended.union(G),
            decode_load=dict.fromkeys(G, rA) | dict.fromkeys(strong, rA + Rbin),
            context=dict.fromkeys(G, context) if context else _EMPTY,
        )]
        if rB > 0:
            units += [
                DeliveryUnit(
                    parts=((j, B.label[G]),),
                    part_rates=(rB,),
                    pad_keys=k3[k:k + 1],
                    intended=frozenset({j}),
                    decode_load=column_load,
                )
                for k, j in enumerate(strong)
            ]
        return tuple(units)

    a_rates = (rA,) * len(A)

    def remainder(j):
        return (DeliveryUnit(
            parts=AtSlot(j, A),
            part_rates=a_rates,
            combine="concat",
            pad_keys=(K4.label[(j,)],) if keyed else (),
            bin_rate=bin3,
            intended=frozenset({j}),
            decode_load={j: RA + bin3},
        ),)

    # beta2, beta3 > 0: delta_w < 1 since _split_backoff returned (both
    # nominal rates carry 1 - delta_w), and dz > delta_s (gate or keys).
    orbits = []
    if beta1 > 0 and rB > 0:
        orbits.append(Orbit(1, beta1, K1, xor, one_segment=True))
    orbits.append(Orbit(2, beta2 / len(B), B, period))
    orbits.append(Orbit(3, lam3, tuple(strong), remainder))

    M_w_claim = (
        D * ((t - 1) * RA + t * RB) / Kw
        + comb(Kw - 1, t) * RK1
        + comb(Kw - 1, t - 1) * RK2
        + comb(Kw - 1, t - 1) * Ks * RK3
    )
    M_s_claim = RK4 + comb(Kw, t) * RK3
    return SchemePlan(
        scheme_name=name,
        params={"t": t, "eps": eps, "D": D},
        orbits=PlanOrbits((weak, strong), tuple(orbits), families=tuple(families), parts=parts),
        claimed_point=RateMemoryPoint(RA + RB, M_w_claim, M_s_claim, point_label),
        key_rates=_KeyRates(K1_keys, K23_keys, K4_keys),
        message_parts=_MessageParts(parts),
    )


def build_piggyback_one(s: ChannelScenario, t: int, eps: float) -> SchemePlan:
    """Weak-subset piggyback, caches at weak receivers only; strong
    receivers are secured by wiretap bins (:func:`_build_piggyback`)."""
    _check_gate(s)
    return _build_piggyback(s, t, eps, keyed=False)


def build_piggyback_two(s: ChannelScenario, eps: float) -> SchemePlan:
    """Whole second halves of every file cached at weak receivers.

    One piggyback phase carries padded first halves to weak receivers
    (rows) and second halves to strong receivers (columns); the pads also
    jam the columns.  A wiretap phase delivers the strong receivers'
    first halves.
    """
    _check_gate(s)
    _check_eps(eps)
    if s.K_w < 1 or s.K_s < 1:
        raise NotApplicable("needs K_w >= 1 and K_s >= 1")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    m = min(1 - dz, 1 - dw)
    den = Ks * m + Kw * (dz - ds)
    beta = Kw * (dz - ds) / den
    RA0 = (dz - ds) * m / den
    RB0 = Kw * (dz - ds) ** 2 / (Ks * den)
    RA, RB = _split_backoff(RA0, RB0, eps)
    # Key rate stays at the nominal first-half rate so that cache usage
    # lands exactly on the corner identity M = D R_B + R_key.
    R_key = RA0

    keys = {i: _lbl("K", [i]) for i in s.weak_ids}
    placement = {i: (Atom("file_part", "B", RB), Atom("key", key, R_key))
                 for i, key in keys.items()}
    # Rows: padded unicasts that every receiver decodes, the weak ones with
    # B as context; columns: unicasts that every strong receiver decodes.
    rows = tuple(_unicast(i, "A", RA, (key,))._replace(
        decode_load=dict.fromkeys(range(1, s.K + 1), RA), context=dict.fromkeys(s.weak_ids, ("B",)))
        for i, key in keys.items() if RA > 0)
    cols = tuple(_unicast(j, "B", RB)._replace(decode_load=dict.fromkeys(s.strong_ids, RB))
                 for j in s.strong_ids if RB > 0)
    segments = [DeliverySegment((1, "pg"), beta, rows + cols)]
    if RA > 0:
        lam2 = (1 - beta) / Ks
        for j in s.strong_ids:
            unit = _unicast(j, "A", RA, bin_rate=lam2 * (1 - dz))
            segments.append(DeliverySegment((2, j), lam2, (unit,)))

    message_parts = dict.fromkeys(
        range(1, s.K + 1), tuple(p for p in (("A", RA), ("B", RB)) if p[1] > 0))
    return SchemePlan(
        scheme_name="piggyback-two",
        params={"eps": eps, "D": D},
        orbits=PlanOrbits.explicit(range(1, s.K + 1), segments, placement),
        claimed_point=RateMemoryPoint(
            RA + RB, D * RB + R_key, 0.0, "piggyback-two"
        ),
        key_rates=dict.fromkeys(keys.values(), R_key),
        message_parts=message_parts,
    )


def build_cached_keys_all(s: ChannelScenario, eps: float) -> SchemePlan:
    """One-time-pad keys at every receiver; works for any eavesdropper
    (:func:`_build_unicast`)."""
    _check_eps(eps)
    return _build_unicast(s, eps, keyed=True)


def build_piggyback_allkeys(s: ChannelScenario, t: int, eps: float) -> SchemePlan:
    """Weak-subset piggyback, strong receivers secured by cached keys, so
    any eavesdropper is allowed (:func:`_build_piggyback`)."""
    return _build_piggyback(s, t, eps, keyed=True)


def build_symmetric_piggyback(
    s: ChannelScenario, t_w: int, t_s: int, eps: float
) -> SchemePlan:
    """Coded-caching placement inside each class, pairwise piggyback across.

    Subphase 1 serves weak receivers with secured XORs over (t_w+1)-sets,
    subphase 3 mirrors it for strong receivers over (t_s+1)-sets, and
    subphase 2 runs one two-receiver piggyback period per (weak, strong)
    pair, fully key-secured.
    """
    _check_eps(eps)
    if s.K_w < 1 or not (1 <= t_w <= s.K_w):
        raise IndexOutOfRange(f"t_w={t_w} outside 1..{s.K_w}")
    if s.K_s < 1 or not (1 <= t_s <= s.K_s):
        raise IndexOutOfRange(f"t_s={t_s} outside 1..{s.K_s}")
    dw, ds, dz = s.delta_w, s.delta_s, s.delta_z
    Kw, Ks, D = s.K_w, s.K_s, s.D
    mzw = min(1 - dz, 1 - dw)
    mzs = min(1 - dz, 1 - ds)
    den = Kw * (Kw - t_w) * (t_s + 1) * (1 - ds) ** 2 + Ks * (t_w + 1) * (
        1 - dw
    ) * ((Ks - t_s) * (1 - dw) + Kw * (t_s + 1) * (1 - ds))
    if den == 0:  # delta_w = 1 with t_w = K_w or delta_s = 1
        raise NotApplicable(
            "phase split degenerates at delta_w = 1 with t_w = K_w or delta_s = 1"
        )
    beta1 = Kw * (Kw - t_w) * (t_s + 1) * (1 - ds) ** 2 / den
    beta2 = Kw * Ks * (t_w + 1) * (t_s + 1) * (1 - dw) * (1 - ds) / den
    beta3 = Ks * (Ks - t_s) * (t_w + 1) * (1 - dw) ** 2 / den
    RA, RB = _split_backoff(
        Kw * (t_w + 1) * (t_s + 1) * (1 - dw) * (1 - ds) ** 2 / den,
        Ks * (t_w + 1) * (t_s + 1) * (1 - dw) ** 2 * (1 - ds) / den,
        eps,
    )
    weak = tuple(s.weak_ids)
    strong = tuple(s.strong_ids)
    A = Family("A", (weak, t_w))
    B = Family("B", (strong, t_s))
    Kw1 = Family("Kw1", (weak, t_w + 1))
    Ks1 = Family("Ks1", (strong, t_s + 1))
    Kw_pair = Family("Kw", (weak, 1), (strong, 1))
    Ks_pair = Family("Ks", (weak, 1), (strong, 1))
    Ar = Family("Ar", (weak, 1))
    Br = Family("Br", (strong, 1))
    a = RA / len(A)             # subset part, weak side
    ar = RA / Kw                # receiver part, strong deliveries
    b = RB / len(B)             # subset part, strong side
    br = RB / Ks                # receiver part, weak deliveries
    RK1 = beta1 * mzw / len(Kw1) if t_w < Kw else 0.0
    RK2 = beta3 * mzs / len(Ks1) if t_s < Ks else 0.0
    RK3 = beta2 * mzw / len(Kw_pair)
    RK4 = beta2 * min(pos(dw - dz), 1 - ds) / len(Ks_pair)

    A_run = Run.over("file_part", a, A)
    B_run = Run.over("file_part", b, B)
    Kw1_keys = (Run.over("key", RK1, Kw1),)
    Ks1_keys = (Run.over("key", RK2, Ks1),)
    pair_keys = (Run.over("key", RK3, Kw_pair), Run.over("key", RK4, Ks_pair))
    families = ((A_run,), Kw1_keys, (B_run,), Ks1_keys, pair_keys)

    # the receiver-indexed slice Ar[i] sits inside the cached A-subsets
    virtual = {i: frozenset({Ar.label[(i,)]}) for i in weak}
    virtual |= {j: frozenset({Br.label[(j,)]}) for j in strong}

    def xor(parts, rate, pads):
        """The subphase-1 or -3 XOR over H of the ``parts`` family, secured
        by the key of H in ``pads``."""
        def units(H):
            return (_xor_unit(H, parts.label, rate, pads.label[H], dict.fromkeys(H, rate)),)
        return units

    def pair(ij):
        """Subphase 2 for weak i and strong j: the row, then the column."""
        i, j = ij
        kw, ks = Kw_pair.label[ij], Ks_pair.label[ij]
        ar_i, br_j = Ar.label[(i,)], Br.label[(j,)]
        return (_unicast(i, br_j, br, (kw,), context=(ks, ar_i)),
                _unicast(j, ar_i, ar, (ks,), context=(kw, br_j)))

    orbits = []
    if beta1 > 0:
        orbits.append(Orbit(1, beta1 / len(Kw1), Kw1, xor(A, a, Kw1)))
    orbits.append(Orbit(2, beta2 / len(Kw_pair), Kw_pair, pair))
    if beta3 > 0:
        orbits.append(Orbit(3, beta3 / len(Ks1), Ks1, xor(B, b, Ks1)))

    parts_weak = (A_run, Run.over("file_part", br, Br))
    parts_strong = (Run.over("file_part", ar, Ar), B_run)
    parts = dict.fromkeys(weak, parts_weak) | dict.fromkeys(strong, parts_strong)

    M_w_claim = (
        D * t_w * RA / Kw
        + (t_w + 1) * beta1 * mzw / Kw
        + beta2 * min(1 - dz, 2 - dw - ds) / Kw
    )
    M_s_claim = (
        D * t_s * RB / Ks
        + (t_s + 1) * beta3 * mzs / Ks
        + beta2 * min(1 - dz, 2 - dw - ds) / Ks
    )
    return SchemePlan(
        scheme_name="symmetric-piggyback",
        params={"t_w": t_w, "t_s": t_s, "eps": eps, "D": D},
        orbits=PlanOrbits((weak, strong), tuple(orbits), families=families, parts=parts,
                          virtual=virtual),
        claimed_point=RateMemoryPoint(
            RA + RB, M_w_claim, M_s_claim, f"all:pair[tw={t_w},ts={t_s}]"
        ),
        key_rates=_KeyRates(Kw1_keys, Ks1_keys, pair_keys),
        message_parts=_MessageParts(parts),
        virtual_cached=virtual,
    )


BUILDERS = {
    "wiretap-cached-keys": build_wiretap_cached_keys,
    "superposition-jamming": build_superposition_jamming,
    "piggyback-one": build_piggyback_one,
    "piggyback-two": build_piggyback_two,
    "cached-keys-all": build_cached_keys_all,
    "piggyback-allkeys": build_piggyback_allkeys,
    "symmetric-piggyback": build_symmetric_piggyback,
}


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

class _Holders(dict):
    """Who holds each label, as an int bitmask over receivers: each listed
    atom's label (``atoms``, per receiver) is an entry from the start; a
    label ``prefix[ids]`` of one of the ``families`` (groups of runs) is
    read by its prefix when first looked up, and kept.  The family holds
    exactly that label (:meth:`Family.has`), held by the receivers among
    its ids; any other label reads 0.  Look labels up by ``[]``: ``get``
    does not read the families."""

    __slots__ = ("families",)

    def __init__(self, atoms: Mapping[int, Iterable[Atom]] = _EMPTY,
                 families: tuple[tuple[Run, ...], ...] = ()):
        super().__init__()
        for r, listed in atoms.items():
            for a in listed:
                self[a.label] = self.get(a.label, 0) | 1 << r
        self.families = {run.labels.prefix: run.labels for group in families for run in group}

    def __missing__(self, label: str) -> int:
        family = self.families.get(label.partition("[")[0])
        ids = None if family is None else _ids(label)
        mask = 0
        if ids is not None and family.has(label, ids):
            mask = reduce(operator.or_, [1 << i for i in ids], 0)
        self[label] = mask
        return mask


def peel_rule(placed: _Holders, message_parts: Mapping[int, Sequence[tuple[str, float]]],
              virtual_cached: Mapping[int, Iterable[str]]
              ) -> Callable[[DeliveryUnit], Sequence[tuple[int, str]]]:
    """The peel rule, one unit at a time: a function that gives the
    (receiver, part label) pairs a decoded unit hands over, in part order.

    Part ``i`` of a unit goes to the receiver ``r`` at its slot, and only
    to it, when ``r`` carries load in the unit and holds its pad keys and
    decoder context; in an XOR, ``r`` lacks part ``i``'s label and holds
    every other part's label (so part ``i`` is the one it peels); and the
    part rate equals ``r``'s message rate for that label.  Pads and known
    XOR partners cancel exactly, so only this structure, never their
    values, decides what a decoded unit yields.  Placement is per file, so
    the answer holds for every demand.

    "Who holds label L" is ``placed`` (:class:`_Holders`): pad keys are
    checked against it alone, context and XOR partners against it plus
    ``virtual_cached``.  ``message_parts`` gives the (label, rate) pairs
    each receiver wants; no other receiver is handed a part.  Each unit
    starts from the receivers that want some part and hold its pad keys;
    one pass over an XOR's parts finds those among them missing exactly
    one label.
    """
    have = placed
    if virtual_cached:  # a second map over the same families
        have = _Holders()
        have.families = placed.families
        have.update(placed)
        for r, labels in virtual_cached.items():
            for label in labels:
                have[label] |= 1 << r
    # Receivers whose message rate for a label is the given rate; builders
    # share one parts tuple among a class, so each distinct tuple is read once.
    groups: dict[int, list] = {}
    for r, parts in message_parts.items():
        groups.setdefault(id(parts), [parts, 0])[1] |= 1 << r
    wants: dict[tuple[str, float], int] = {}
    # Only the slots of receivers that want some part can deliver, so the
    # others skip every per-part check.
    wanting = 0
    for parts, mask in groups.values():
        for key in dict(parts).items():
            wants[key] = wants.get(key, 0) | mask
        if parts:
            wanting |= mask

    def peel(unit: DeliveryUnit) -> Sequence[tuple[int, str]]:
        pads = wanting
        for k in unit.pad_keys:
            pads &= placed[k]
        if not pads:
            return ()
        parts = unit.parts
        if unit.combine == "xor":
            # peeled[i]: receivers holding every label but part i's.  One
            # pass finds those missing no label (none) and exactly one
            # (one); who misses part i's label misses exactly that one.
            masks = []
            none, one = pads, 0
            for _, label in parts:
                m = have[label]
                masks.append(m)
                one = (one & m) | (none & ~m)
                none &= m
            peeled = [one & ~m for m in masks]
        else:
            peeled = [pads] * len(parts)
        got = []
        for i, (r, label) in enumerate(parts):
            ok = peeled[i] & (1 << r)
            if not ok:
                continue
            for c in unit.context.get(r, ()):
                ok &= have[c]
            if not ok or unit.decode_load.get(r, 0.0) <= 0.0:
                continue
            if wants.get((label, unit.part_rates[i]), 0) & ok:
                got.append((r, label))
        return got

    return peel


def _blocks(members: Collection, classes: tuple[tuple[int, ...], ...]) -> Optional[list]:
    """The class blocks of an orbit, as (class, size) pairs in member
    order, when its members are by construction the canonical enumeration
    of the first member's orbit under the class group of ``classes``
    (``combinations(class, size)`` for each block, ``product`` over the
    blocks): a family (:class:`Family`, the first block outermost) whose
    every block is a nonempty block of one of ``classes``, no class twice,
    or a tuple of ints equal to one of ``classes``, whose one block is
    that class, of size 1.  None for any other members."""
    if isinstance(members, Family):
        blocks = list(members.blocks)
        valid = all(k > 0 and c in classes for c, k in blocks) and len(
            {c for c, _ in blocks}) == len(blocks)
        return blocks if valid and not members.outer_last else None
    return [(members, 1)] if type(members) is tuple and members in classes else None


def _sub_orbit_firsts(first, blocks: Sequence, r: int) -> list:
    """The first member, in the canonical enumeration ``blocks`` describes
    (whose first member is ``first``), of each sub-orbit of receiver ``r``:
    the members where ``r`` sits at one position, and (if any) those
    without ``r``.  Only the block of ``r``'s class varies; every other
    block keeps its first combination."""
    picks = [range(k) for _, k in blocks]
    firsts = []
    for b, (c, k) in enumerate(blocks):
        if r not in c:
            continue
        n, q = len(c), c.index(r)
        for p in range(max(0, q + k - n), min(k - 1, q) + 1):
            firsts.append([*range(p), *range(q, q + k - p)])
        if k < n:
            firsts.append([i for i in range(n) if i != q][:k])
        break
    else:
        return [first]
    out = []
    for pick in firsts:
        picks[b] = pick
        ids = tuple(c[i] for (c, _), at in zip(blocks, picks) for i in at)
        out.append(ids[0] if type(first) is int else ids)
    return out


class _Symmetry(NamedTuple):
    """How a plan is read (:func:`_symmetry`): each orbit's first member's
    units, each orbit's class blocks or None, and the receivers a check
    visits."""

    firsts: list[tuple[DeliveryUnit, ...]]
    blocks: Optional[list]
    receivers: tuple[int, ...]


def _symmetry(plan: SchemePlan) -> _Symmetry:
    """The one answer to whether ``plan`` carries the class symmetry that
    lets a member or a label stand for others, which :func:`verify_plan`
    and the simulation compile each read once.

    The blocks are each orbit's class blocks (:func:`_blocks`) where it
    does, else None.  Only the families carry it, and keep it only where
    every per-receiver field the peel rule reads is the orbits' own: the
    message parts the builders' view of the part runs, and the virtual
    labels ``PlanOrbits.virtual`` (a plan with either replaced claims no
    symmetry).  Further, every orbit's members must be a canonical
    enumeration, and each family of parts at one slot (:class:`AtSlot`)
    among the first members' units whole at one rate: mapped onto itself
    by the class group and of one part rate, a :class:`Family` whose every
    nonempty block is over a class, with a rate per part, all equal.  The
    receivers are the class representatives where the blocks are not
    None, and otherwise every receiver of every class."""
    po, parts = plan.orbits, plan.message_parts
    firsts = [orb.units(next(iter(orb.members))) for orb in po.orbits]
    blocks = None
    if po.families and type(parts) is _MessageParts and parts.runs is po.parts and (
            plan.virtual_cached == po.virtual) and all(
            isinstance(family := unit.parts.labels, Family)
            and len(unit.part_rates) == len(family) and len(set(unit.part_rates)) < 2
            and all(c in po.classes for c, k in family.blocks if k)
            for block in firsts for unit in block if type(unit.parts) is AtSlot):
        blocks = [_blocks(orb.members, po.classes) for orb in po.orbits]
        blocks = None if None in blocks else blocks
    if blocks is None:
        return _Symmetry(firsts, None, tuple(sorted(r for c in po.classes for r in c)))
    return _Symmetry(firsts, blocks, po.representatives)


def _worst(best: tuple[float, str], margin: float, detail: str,
           args: tuple) -> tuple[float, str]:
    """The first strict minimum of the margins offered in order: ``margin``
    with ``detail.format(*args)`` if it is below ``best``'s, else ``best``.
    A NaN margin is below every number, so the first NaN offered wins, and
    fails its check."""
    if margin < best[0] or (margin != margin and best[0] == best[0]):
        return margin, detail.format(*args)
    return best


def verify_plan(plan: SchemePlan, s: ChannelScenario) -> VerificationReport:
    """Run the four plan checks; never raises, reports margins.

    RATE     every segment/receiver decode load strictly below capacity
    DECODE   cache + peeled deliveries tile each demanded message, and
             no XOR merges two contributions under any demand
    SECRECY  per segment, keys + bins cover min(payload, eavesdropper
             capacity) up to 1e-12
    CACHE    per-receiver occupancy within the claimed memory + 1e-12

    A plan is checked one orbit (:class:`PlanOrbits`) at a time, without
    expanding it.  One pass per segment orbit, over its first member's
    units, adds the RATE loads and the SECRECY payload and securing, and
    runs the XOR-merge rule.  DECODE and CACHE are checked at the
    receivers that the plan's one symmetry answer (:func:`_symmetry`)
    names: the lowest-numbered receiver of each class where the plan
    carries the class symmetry, and every receiver of every class where
    it does not.  A receiver's cache usage is :func:`_usage`'s, the rule
    :func:`cache_usage` reads; the reassembled rate is read from its
    message parts, counted from its part runs where the plan carries the
    class symmetry.  Every sum is exact and rounded once (:func:`_sum`),
    an orbit's terms weighted by its member count and a run's by its
    count, so margins are an exact full scan's.

    DECODE reads the plan itself: who holds a label from one holder map
    over its listed atoms and families (:class:`_Holders`), and the parts
    ``r`` wants from ``message_parts[r]``.  Those parts are both what
    :func:`peel_rule` may hand ``r`` and what DECODE checks.  It peels the
    members' units that give a checked receiver a slot; a part at another
    receiver's slot is never handed over, and a part counts as obtained
    only when ``r`` holds it, virtually or in the holder map, or a peeled
    unit hands that very label over.  In a plan with the class symmetry,
    DECODE peels one member per sub-orbit of ``r`` (the members where
    ``r`` sits at one position, or those without it) and ``r`` wants, of
    each family of parts, one label per sub-orbit of ``r``, the first,
    which stands for the rest; a unit whose parts are a family at one slot
    (:class:`AtSlot`) hands over only those labels of the slot's receiver.
    That is sound because the builders' labels are ``prefix[ids]`` with
    distinct receiver ids, which the class group renames, and their
    placement is class-symmetric (both tested): ``r``'s stabiliser then
    carries a first label that ``r`` obtains to its whole sub-orbit.  It
    is complete under a condition on builders, to which the class-view
    oracle tests hold every builder plan: where ``r`` obtains some label
    of a sub-orbit, it holds the first or a peeled member hands it over.
    Any other plan has every member peeled and every part read, at every
    receiver.

    Details name the first strict minimum in schedule and receiver order,
    as a full scan does; a NaN margin is below every number, so the first
    NaN is the check's margin and fails it.
    """
    po = plan.orbits
    firsts, blocks, receivers = _symmetry(plan)
    rate = sec = cache = (float("inf"), "")
    merged = None  # the first segment whose XOR repeats a label
    counts = []  # each orbit's segment count
    for orb, block in zip(po.orbits, firsts):
        sid, held = next(iter(orb.segments()))
        seg_id, times = (orb.phase, sid), len(held)
        counts.append(len(orb.members) // times)
        addends: dict[int, list[float]] = {}
        for unit in block:
            for r, load in unit.decode_load.items():
                addends.setdefault(r, []).append(load)
        for r, terms in addends.items():
            load = _sum(terms, times)
            capacity = orb.fraction * (1.0 - s.erasure_of(r))
            rate = _worst(rate, capacity - load, "segment {}, receiver {}: load "
                          "{:.6g} vs capacity {:.6g}", (seg_id, r, load, capacity))
        payload = _sum([unit.payload_rate for unit in block], times)
        securing = _sum([rate for unit in block for rate in (unit.bin_rate, *(
            plan.key_rates[k] for k in unit.pad_keys + unit.jam_keys))], times)
        required = min(payload, orb.fraction * (1.0 - s.delta_z))
        sec = _worst(sec, securing - required, "segment {}: securing {:.6g} vs "
                     "required {:.6g}", (seg_id, securing, required))
        # Within one XOR the (message, label) pairs must stay distinct, else
        # contributions merge.  A repeated label merges under the all-ones
        # demand (every slot asks for file 1); distinct labels never do.
        if merged is None and any(
            unit.combine == "xor"
            and len({label for _, label in unit.parts}) < len(unit.parts)
            for unit in block
        ):
            merged = seg_id

    symmetric = blocks is not None
    units = []
    for i, orb in enumerate(po.orbits):
        members = orb.members
        if symmetric and len(members) > 1:
            first = next(iter(members))
            members = dict.fromkeys(
                m for r in receivers for m in _sub_orbit_firsts(first, blocks[i], r))
        for m in members:
            units += orb.units(m)
    if symmetric:
        # A family's labels are wanted one per sub-orbit of r, the first,
        # which stands for the rest: r's stabiliser maps it onto each of
        # them, and what r holds and is handed onto itself.
        wants = {r: [(run.labels.label[ids], run.rate) for run in po.parts.get(r, ()) for ids in
                     sorted(_sub_orbit_firsts(next(iter(run.labels)), run.labels.blocks, r))]
                 for r in receivers}
        # A family of parts at one slot hands over only what DECODE
        # reads of it: the wanted labels of the slot's receiver.
        for k, unit in enumerate(units):
            if type(unit.parts) is AtSlot:
                j, family = unit.parts.slot, unit.parts.labels
                parts = tuple((j, label) for label, _ in wants.get(j, ())
                              if family.has(label, _ids(label)))
                units[k] = unit._replace(parts=parts, part_rates=unit.part_rates[:len(parts)])
    else:
        wants = {r: plan.message_parts[r] for r in receivers if r in plan.message_parts}
    placed = _Holders(po.atoms, po.families)
    virtual = {r: plan.virtual_cached[r] for r in receivers if r in plan.virtual_cached}
    peel = peel_rule(placed, wants, virtual)
    delivered_to: dict[int, set[str]] = {r: set() for r in receivers}
    checked = set(receivers)
    for unit in units:
        if not checked.isdisjoint([r for r, _ in unit.parts]):  # else it hands them nothing
            for r, label in peel(unit):
                delivered_to[r].add(label)

    decode = ""  # the first failure's detail
    point = plan.claimed_point
    for r in receivers:
        parts = wants.get(r, ())
        used = _usage(po, r, s.D)
        if symmetric:
            wanted = po.parts.get(r, ())
            total = _sum([run.rate for run in wanted], [run.count for run in wanted])
        else:
            total = _sum([rate for _, rate in parts])
        if not decode:
            have = virtual.get(r, ())
            missing = next((label for label, _ in parts if not (
                label in delivered_to[r] or label in have or placed[label] >> r & 1)), None)
            if missing is not None:
                decode = f"receiver {r} cannot obtain part {missing!r}"
            elif abs(total - point.R) > RATE_TOL:
                decode = f"receiver {r} reassembles rate {total!r}, claimed {point.R!r}"
        claim = point.M_w if r <= s.K_w else point.M_s
        cache = _worst(cache, claim - used, "receiver {}: usage {:.6g} vs claimed "
                       "{:.6g}", (r, used, claim))
    if not decode and merged is not None:
        decode = f"demand {(1,) * s.K}: merged contributions in segment {merged}"

    frac_sum = _sum([orb.fraction for orb in po.orbits], counts)
    frac_ok = abs(frac_sum - 1.0) <= 1e-12
    return VerificationReport([
        CheckResult("RATE", rate[0] > 0.0 and frac_ok, rate[0],
                    rate[1] if frac_ok else f"fractions sum to {frac_sum}"),
        CheckResult("DECODE", not decode, 0.0, decode),
        CheckResult("SECRECY", sec[0] >= -RATE_TOL, *sec),
        CheckResult("CACHE", cache[0] >= -RATE_TOL, *cache),
    ])
