"""Coding schemes as placement/delivery plans, plus a verifier.

A :class:`SchemePlan` is a demand-agnostic placement (atoms per receiver)
and a delivery schedule (segments holding units).  Seven builders produce
the plans behind the corner-point families; :func:`verify_plan` checks
each plan's rate feasibility, decodability, secrecy accounting and cache
accounting, returning margins instead of raising, so sweeps can log
failures.  ``wiretap-cached-keys`` and ``cached-keys-all`` are one unicast
key scheme (:func:`_build_unicast`), ``piggyback-one`` and
``piggyback-allkeys`` one weak-subset piggyback scheme
(:func:`_build_piggyback`); each pair secures its strong receivers by
wiretap bins or by cached keys.

Every plan is its receiver classes and its orbits (:class:`PlanOrbits`):
schedule entries that a permutation within a class maps onto one another
(:class:`Orbit`), given by their members and the function that builds a
member's units.  :func:`verify_plan` makes one pass per segment orbit
and one per class representative (the lowest-numbered receiver); the explicit
schedule and placement are expanded only when read, and kept.  The subset
builders (both piggyback schemes and ``symmetric-piggyback``) treat all
weak receivers alike and all strong receivers alike, so each segment
family is one orbit, and refuse a plan whose explicit form is larger than
:data:`MAX_PLAN_SIZE` before building anything.  The four other builders,
and any changed plan, claim no symmetry (:meth:`PlanOrbits.explicit`).

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
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import IndexOutOfRange, InvalidParameter, NotApplicable
from .model import CacheSizes, ChannelScenario, RateMemoryPoint, pos

RATE_TOL = 1e-12


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
    ``combine="concat"`` their juxtaposition.  ``pad_keys`` are stripped by
    legitimate decoders; ``jam_keys`` only count as randomisation against
    the eavesdropper.  ``context[r]`` names cache labels receiver ``r``
    must hold to run its restricted (cache-aided) decoder.  Builders share
    ``decode_load`` and ``context`` mappings between units, so they are
    never changed in place.
    """

    parts: tuple[tuple[int, str], ...]
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
        return sum(self.part_rates)

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

    ``units(member, only)`` builds the units of a member (a subset, a
    receiver pair or a segment id; there is at least one member), keeping
    at least those that hand a receiver in ``only`` a part, or all of them
    when ``only`` is None.  Each member is the segment ``(phase, member)``
    of length ``fraction``; with ``one_segment`` the members' units instead make up
    the one segment ``(phase, 0)``.  Members are alike for every check:
    equal decode loads, payloads, bins and key rates, with labels mapped
    one to one, so the first member stands for the rest.
    """

    phase: int
    fraction: float
    members: Sequence
    units: Callable[[object, Optional[frozenset]], tuple[DeliveryUnit, ...]]
    one_segment: bool = False


class PlanOrbits(NamedTuple):
    """A class-symmetric plan's schedule and placement, as orbits.

    ``classes`` lists the receivers of each class (weak, strong); the plan
    treats the members of a class alike, so the lowest-numbered one stands
    for its class.  ``place(only)`` gives the placement of the receivers in
    ``only``, or of every receiver when it is None.
    """

    classes: tuple[tuple[int, ...], ...]
    orbits: tuple[Orbit, ...]
    place: Callable[[Optional[frozenset]], dict[int, tuple[Atom, ...]]]

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(sorted(min(c) for c in self.classes if c))

    def placement(self) -> dict[int, tuple[Atom, ...]]:
        """The explicit placement."""
        return self.place(None)

    @classmethod
    def explicit(cls, receivers: Iterable[int], schedule: Sequence[DeliverySegment],
                 placement: dict[int, tuple[Atom, ...]]) -> PlanOrbits:
        """A plan that claims no symmetry: each receiver its own class and
        each segment ``(phase, member)`` an orbit of one member, whose units
        are the segment's own.  They are never filtered by ``only``: every
        receiver stands for itself, so no unit is left out of a check."""
        orbits = tuple(
            Orbit(seg.id[0], seg.fraction, (seg.id[1],),
                  lambda member, only, units=seg.units: units)
            for seg in schedule
        )
        return cls(tuple((r,) for r in receivers), orbits, lambda only: placement)

    def schedule(self) -> tuple[DeliverySegment, ...]:
        """The explicit schedule."""
        schedule = []
        for orb in self.orbits:
            if orb.one_segment:
                units = tuple(u for m in orb.members for u in orb.units(m, None))
                schedule.append(DeliverySegment((orb.phase, 0), orb.fraction, units))
            else:
                schedule += [
                    DeliverySegment((orb.phase, m), orb.fraction, orb.units(m, None))
                    for m in orb.members
                ]
        return tuple(schedule)


@dataclass(frozen=True, eq=False)
class SchemePlan:
    """A placement and a delivery schedule, with what they claim.

    Every plan is described by its ``orbits`` (:class:`PlanOrbits`): the
    explicit ``schedule`` and ``placement`` are each expanded from them on
    first read, and kept.  A plan is immutable; a changed plan is a new
    one whose orbits :meth:`PlanOrbits.explicit` builds from its changed
    schedule and placement, so it claims no symmetry and
    :func:`verify_plan` checks every segment and receiver of it.
    """

    scheme_name: str
    params: dict
    orbits: PlanOrbits
    claimed_point: RateMemoryPoint
    key_rates: dict[str, float]
    #: per-receiver tiling of its demanded message into (label, rate)
    message_parts: dict[int, tuple[tuple[str, float], ...]]
    #: part labels available from cache by containment in stored atoms
    virtual_cached: dict[int, frozenset] = field(default_factory=dict)

    @cached_property
    def schedule(self) -> tuple[DeliverySegment, ...]:
        return self.orbits.schedule()

    @cached_property
    def placement(self) -> dict[int, tuple[Atom, ...]]:
        return self.orbits.placement()

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


def _family(prefix: str, ids: Iterable[int], size: int) -> dict[tuple[int, ...], str]:
    """The ``size``-subsets of ``ids`` in lexicographic order, each mapped to
    its label (as :func:`_lbl` writes it); labels are formatted once and
    reused by every lookup."""
    ids = sorted(ids)
    names = itertools.combinations([str(i) for i in ids], size)
    return {
        G: f"{prefix}[{','.join(name)}]"
        for G, name in zip(itertools.combinations(ids, size), names)
    }


def _kept(only: Optional[frozenset], slots: Iterable[int]) -> bool:
    """Whether a unit handing parts to ``slots`` is built for ``only``."""
    return only is None or not only.isdisjoint(slots)


def _place(atoms: dict[int, list[Atom]], family: dict, make) -> None:
    """Append each subset's atom, made once from its label, to those of its
    members that ``atoms`` holds a list for; subsets with no such member
    are skipped."""
    placing = atoms.keys()
    for G, label in family.items():
        if placing.isdisjoint(G):
            continue
        atom = make(label)
        for i in G:
            held = atoms.get(i)
            if held is not None:
                held.append(atom)


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


#: Largest plan a subset builder accepts, in units plus atom references
#: (atoms summed over placements) of its explicit form, both counted from
#: binomials before anything is built; ``verify`` never expands a plan, but
#: reading its schedule or placement does.  fig5 piggyback-allkeys at t=4
#: (68,809 + 361,960) fits; fig5 piggyback-one at t=10 (2.2M units) does not.
MAX_PLAN_SIZE = 10**6


def _check_plan_size(units: int, atom_refs: int) -> None:
    if units + atom_refs > MAX_PLAN_SIZE:
        raise InvalidParameter(
            f"plan of {units} units and {atom_refs} atom references exceeds "
            f"the cap of {MAX_PLAN_SIZE}"
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


def _subset_parts(
    s: ChannelScenario, A: dict, rA: float, B: dict, rB: float
) -> dict[int, tuple[tuple[str, float], ...]]:
    """Every receiver's message tiled by the A- and B-subset parts of
    positive rate (one tuple, shared by all receivers)."""
    parts = tuple((label, rA) for label in A.values() if rA > 0) + tuple(
        (label, rB) for label in B.values() if rB > 0
    )
    return {k: parts for k in range(1, s.K + 1)}


def cache_usage(plan: SchemePlan, D: int) -> dict[int, float]:
    """Cache occupancy per receiver (bits per channel use) for ``D`` files."""
    return {
        r: sum(a.cache_cost(D) for a in atoms)
        for r, atoms in plan.placement.items()
    }


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
        message_parts={k: (("full", R),) for k in range(1, s.K + 1)},
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

    key_labels = [_lbl("K", [i]) for i in s.weak_ids]
    placement = {
        i: (Atom("key", key_labels[idx], R_key),)
        for idx, i in enumerate(s.weak_ids)
    }
    key_rates = {lbl: R_key for lbl in key_labels}

    cloud_units = tuple(
        DeliveryUnit(
            parts=((i, "full"),),
            part_rates=(R,),
            pad_keys=(_lbl("K", [i]),),
            intended=frozenset({i}),
            decode_load={w: R for w in s.weak_ids},
        )
        for i in s.weak_ids
    )
    sat_units = []
    for pos_j, j in enumerate(s.strong_ids):
        first = pos_j == 0
        load = R + (R_bin if first else 0.0)
        sat_units.append(
            DeliveryUnit(
                parts=((j, "full"),),
                part_rates=(R,),
                jam_keys=tuple(key_labels) if first else (),
                bin_rate=R_bin if first else 0.0,
                intended=frozenset({j}),
                decode_load={jj: load for jj in s.strong_ids},
            )
        )
    segments = [
        DeliverySegment((1, "cloud"), gamma, cloud_units),
        DeliverySegment((2, "satellite"), 1 - gamma, tuple(sat_units)),
    ]

    return SchemePlan(
        scheme_name="superposition-jamming",
        params={"eps": eps, "D": s.D, "gamma": gamma, "satellite_bias": p},
        orbits=PlanOrbits.explicit(range(1, s.K + 1), segments, placement),
        claimed_point=RateMemoryPoint(R, R_key, 0.0, "superposition-jamming"),
        key_rates=key_rates,
        message_parts={k: (("full", R),) for k in range(1, s.K + 1)},
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
    # units: phase-1 XORs, row + K_s columns per B-subset, phase 3; atom
    # references: members of A, B, K1, K2, of each K3 key (t + 1) and of K4
    _check_plan_size(
        comb(Kw, t + 1) + comb(Kw, t) * (1 + Ks) + Ks,
        (t - 1) * comb(Kw, t - 1) + 2 * t * comb(Kw, t) + (t + 1) * comb(Kw, t + 1)
        + ((t + 1) * Ks * comb(Kw, t) + Ks if keyed else 0),
    )
    mzw = min(1 - s.delta_z, 1 - dw)
    rA = RA / comb(Kw, t - 1)
    rB = RB / comb(Kw, t)
    RK1 = beta1 * mzw / comb(Kw, t + 1)
    RK2 = beta2 * mzw / comb(Kw, t)
    # the strong receivers' phase-2 excess over the eavesdropper, per row
    excess = beta2 * min(pos(dw - s.delta_z), dw - ds)
    lam3 = beta3 / Ks

    weak = list(s.weak_ids)
    strong = list(s.strong_ids)
    A = _family("A", weak, t - 1)
    B = _family("B", weak, t)
    K1 = _family("K1", weak, t + 1)
    K2 = _family("K2", weak, t)
    if keyed:
        name, point_label = "piggyback-allkeys", f"all:piggyback-keys[t={t}]"
        Rbin = bin3 = 0.0
        RK3 = excess / (Ks * comb(Kw, t))
        RK4 = beta3 * min(1 - s.delta_z, 1 - ds) / Ks
        # K3[j,G] is "K3[j," followed by B[G] without its "B["
        heads = [f"K3[{j}," for j in strong]
        K3 = {G: tuple([h + label[2:] for h in heads]) for G, label in B.items()}
        K4 = {j: (_lbl("K4", [j]),) for j in strong}
    else:
        name, point_label = "piggyback-one", f"piggyback-one[t={t}]"
        Rbin = excess / comb(Kw, t)
        bin3 = lam3 * (1 - s.delta_z)
        RK3 = RK4 = 0.0
        K3 = dict.fromkeys(B, ())
        K4 = {}

    key_rates = dict.fromkeys(K1.values(), RK1)
    for G, k2_label in K2.items():
        key_rates[k2_label] = RK2
        key_rates |= dict.fromkeys(K3[G], RK3)
    key_rates |= {k4: RK4 for pads in K4.values() for k4 in pads}

    def place(only):
        atoms = {i: [] for i in weak if _kept(only, (i,))}
        atoms |= {j: [Atom("key", k4, RK4)]
                  for j, (k4,) in K4.items() if _kept(only, (j,))}
        _place(atoms, A, lambda label: Atom("file_part", label, rA))
        if rB > 0:
            _place(atoms, B, lambda label: Atom("file_part", label, rB))
        _place(atoms, K1, lambda label: Atom("key", label, RK1))
        for G, k2_label in K2.items():
            held = [atoms[i] for i in G if i in atoms]
            k3 = [Atom("key", label, RK3) if held or j in atoms else None
                  for j, label in zip(strong, K3[G])]
            if held:
                k2 = Atom("key", k2_label, RK2)
                for a in held:
                    a.append(k2)
                    a += k3
            for j, atom in zip(strong, k3):
                if j in atoms:
                    atoms[j].append(atom)
        return {r: tuple(a) for r, a in atoms.items()}

    xor_load = dict.fromkeys(weak, rB)
    column_load = dict.fromkeys(strong, rB)
    row_intended = frozenset(strong)

    def xor(H, only):
        if not _kept(only, H):
            return ()
        return (_xor_unit(H, B, rB, K1[H], xor_load),)

    def period(G, only):
        """Phase 2 for weak subset G: the row, then one column per strong
        receiver."""
        units = []
        if _kept(only, G):
            context = ((B[G],) if rB > 0 else ()) + K3[G]
            units.append(DeliveryUnit(
                parts=_peeled(G, A),
                part_rates=(rA,) * len(G),
                pad_keys=(K2[G],),
                bin_rate=Rbin,
                intended=row_intended.union(G),
                decode_load=dict.fromkeys(G, rA) | dict.fromkeys(strong, rA + Rbin),
                context=dict.fromkeys(G, context) if context else _EMPTY,
            ))
        if rB > 0:
            units += [
                DeliveryUnit(
                    parts=((j, B[G]),),
                    part_rates=(rB,),
                    pad_keys=K3[G][k:k + 1],
                    intended=frozenset({j}),
                    decode_load=column_load,
                )
                for k, j in enumerate(strong)
                if _kept(only, (j,))
            ]
        return tuple(units)

    def remainder(j, only):
        if not _kept(only, (j,)):
            return ()
        return (DeliveryUnit(
            parts=tuple((j, a_label) for a_label in A.values()),
            part_rates=(rA,) * len(A),
            combine="concat",
            pad_keys=K4.get(j, ()),
            bin_rate=bin3,
            intended=frozenset({j}),
            decode_load={j: RA + bin3},
        ),)

    # beta2, beta3 > 0: delta_w < 1 since _split_backoff returned (both
    # nominal rates carry 1 - delta_w), and dz > delta_s (gate or keys).
    orbits = []
    if beta1 > 0 and rB > 0:
        orbits.append(Orbit(1, beta1, tuple(K1), xor, one_segment=True))
    orbits.append(Orbit(2, beta2 / comb(Kw, t), tuple(B), period))
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
        orbits=PlanOrbits((tuple(weak), tuple(strong)), tuple(orbits), place),
        claimed_point=RateMemoryPoint(RA + RB, M_w_claim, M_s_claim, point_label),
        key_rates=key_rates,
        message_parts=_subset_parts(s, A, rA, B, rB),
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

    key_labels = {i: _lbl("K", [i]) for i in s.weak_ids}
    placement = {
        i: (
            Atom("file_part", "B", RB),
            Atom("key", key_labels[i], R_key),
        )
        for i in s.weak_ids
    }
    key_rates = {key_labels[i]: R_key for i in s.weak_ids}

    rows = tuple(
        DeliveryUnit(
            parts=((i, "A"),),
            part_rates=(RA,),
            pad_keys=(key_labels[i],),
            intended=frozenset({i}),
            decode_load={w: RA for w in s.weak_ids}
            | {j: RA for j in s.strong_ids},
            context={w: ("B",) for w in s.weak_ids},
        )
        for i in s.weak_ids
        if RA > 0
    )
    cols = tuple(
        DeliveryUnit(
            parts=((j, "B"),),
            part_rates=(RB,),
            intended=frozenset({j}),
            decode_load={jj: RB for jj in s.strong_ids},
        )
        for j in s.strong_ids
        if RB > 0
    )
    segments = [DeliverySegment((1, "pg"), beta, rows + cols)]
    if RA > 0:
        lam2 = (1 - beta) / Ks
        for j in s.strong_ids:
            unit = _unicast(j, "A", RA, bin_rate=lam2 * (1 - dz))
            segments.append(DeliverySegment((2, j), lam2, (unit,)))

    message_parts = {
        k: tuple(p for p in (("A", RA), ("B", RB)) if p[1] > 0)
        for k in range(1, s.K + 1)
    }
    return SchemePlan(
        scheme_name="piggyback-two",
        params={"eps": eps, "D": D},
        orbits=PlanOrbits.explicit(range(1, s.K + 1), segments, placement),
        claimed_point=RateMemoryPoint(
            RA + RB, D * RB + R_key, 0.0, "piggyback-two"
        ),
        key_rates=key_rates,
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
    # units: the XORs of each class, a row and a column per pair; atom
    # references: members of A, Kw1, B and Ks1, and four keys per pair
    _check_plan_size(
        comb(Kw, t_w + 1) + 2 * Kw * Ks + comb(Ks, t_s + 1),
        t_w * comb(Kw, t_w) + (t_w + 1) * comb(Kw, t_w + 1)
        + t_s * comb(Ks, t_s) + (t_s + 1) * comb(Ks, t_s + 1) + 4 * Kw * Ks,
    )
    a = RA / comb(Kw, t_w)      # subset part, weak side
    ar = RA / Kw                # receiver part, strong deliveries
    b = RB / comb(Ks, t_s)      # subset part, strong side
    br = RB / Ks                # receiver part, weak deliveries
    RK1 = beta1 * mzw / comb(Kw, t_w + 1) if t_w < Kw else 0.0
    RK2 = beta3 * mzs / comb(Ks, t_s + 1) if t_s < Ks else 0.0
    RK3 = beta2 * mzw / (Kw * Ks)
    RK4 = beta2 * min(pos(dw - dz), 1 - ds) / (Kw * Ks)

    weak = list(s.weak_ids)
    strong = list(s.strong_ids)
    A = _family("A", weak, t_w)
    B = _family("B", strong, t_s)
    Kw1 = _family("Kw1", weak, t_w + 1)
    Ks1 = _family("Ks1", strong, t_s + 1)
    # Each label is formatted once; the loops below reuse it many times.
    Kw_pair = {(i, j): _lbl("Kw", (i, j)) for i in weak for j in strong}
    Ks_pair = {(i, j): _lbl("Ks", (i, j)) for i in weak for j in strong}
    Ar = {i: _lbl("Ar", [i]) for i in weak}
    Br = {j: _lbl("Br", [j]) for j in strong}

    key_rates = dict.fromkeys(Kw1.values(), RK1) | dict.fromkeys(Ks1.values(), RK2)
    for ij in Kw_pair:
        key_rates[Kw_pair[ij]] = RK3
        key_rates[Ks_pair[ij]] = RK4

    def place(only):
        atoms = {r: [] for r in weak + strong if _kept(only, (r,))}
        _place(atoms, A, lambda label: Atom("file_part", label, a))
        _place(atoms, Kw1, lambda label: Atom("key", label, RK1))
        _place(atoms, B, lambda label: Atom("file_part", label, b))
        _place(atoms, Ks1, lambda label: Atom("key", label, RK2))
        for ij in Kw_pair:
            held = [atoms[r] for r in ij if r in atoms]
            if held:
                pair = [
                    Atom("key", Kw_pair[ij], RK3),
                    Atom("key", Ks_pair[ij], RK4),
                ]
                for at in held:
                    at += pair
        return {r: tuple(at) for r, at in atoms.items()}

    # the receiver-indexed slice Ar[i] sits inside the cached A-subsets
    virtual = {i: frozenset({Ar[i]}) for i in weak}
    virtual |= {j: frozenset({Br[j]}) for j in strong}

    def xor(parts, rate, pads):
        """The subphase-1 or -3 XOR over H, secured by the key of H."""
        def units(H, only):
            if not _kept(only, H):
                return ()
            return (_xor_unit(H, parts, rate, pads[H], dict.fromkeys(H, rate)),)
        return units

    def pair(ij, only):
        """Subphase 2 for weak i and strong j: the row, then the column."""
        i, j = ij
        kw, ks = Kw_pair[ij], Ks_pair[ij]
        units = ()
        if _kept(only, (i,)):
            units += (_unicast(i, Br[j], br, (kw,), context=(ks, Ar[i])),)
        if _kept(only, (j,)):
            units += (_unicast(j, Ar[i], ar, (ks,), context=(kw, Br[j])),)
        return units

    orbits = []
    if beta1 > 0:
        orbits.append(Orbit(1, beta1 / comb(Kw, t_w + 1), tuple(Kw1), xor(A, a, Kw1)))
    orbits.append(Orbit(2, beta2 / (Kw * Ks), tuple(Kw_pair), pair))
    if beta3 > 0:
        orbits.append(Orbit(3, beta3 / comb(Ks, t_s + 1), tuple(Ks1), xor(B, b, Ks1)))

    mp_weak = tuple((label, a) for label in A.values()) + tuple(
        (Br[j], br) for j in strong
    )
    mp_strong = tuple((Ar[i], ar) for i in weak) + tuple(
        (label, b) for label in B.values()
    )
    message_parts = {i: mp_weak for i in weak}
    message_parts |= {j: mp_strong for j in strong}

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
        orbits=PlanOrbits((tuple(weak), tuple(strong)), tuple(orbits), place),
        claimed_point=RateMemoryPoint(
            RA + RB, M_w_claim, M_s_claim, f"all:pair[tw={t_w},ts={t_s}]"
        ),
        key_rates=key_rates,
        message_parts=message_parts,
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

def deliveries(plan: SchemePlan) -> dict[int, dict[str, list[tuple[int, int]]]]:
    """The peel rule: which units hand which receiver which part, once decoded.

    Maps each receiver to ``{part label: [(segment index, unit index),
    ...]}``, the units that deliver that part to it, in schedule order.
    Part ``i`` of a unit goes to the receiver ``r`` at its slot, and only
    to it, when ``r`` carries load in the unit and holds its pad keys and
    decoder context; in an XOR, ``r`` lacks part ``i``'s label and holds
    every other part's label (so part ``i`` is the one it peels); and the
    part rate equals ``r``'s message rate for that label.  Pads and known
    XOR partners cancel exactly, so only this structure, never their
    values, decides what a decoded unit yields.  Placement is per file, so
    the answer holds for every demand.

    "Who holds label L" is an int bitmask over receivers: pad keys are
    checked against placement alone, context and XOR partners against
    placement plus ``virtual_cached``.  Each unit starts from the
    receivers that want some part and hold its pad keys; one pass over an
    XOR's parts finds those among them missing exactly one label.
    """
    placed: dict[str, int] = {}
    for r, atoms in plan.placement.items():
        for a in atoms:
            placed[a.label] = placed.get(a.label, 0) | 1 << r
    have = dict(placed)
    for r, labels in plan.virtual_cached.items():
        for label in labels:
            have[label] = have.get(label, 0) | 1 << r
    # Receivers whose message rate for a label is the given rate; builders
    # share one parts tuple among a class, so each distinct tuple is read once.
    groups: dict[int, list] = {}
    for r, parts in plan.message_parts.items():
        groups.setdefault(id(parts), [parts, 0])[1] |= 1 << r
    wants: dict[tuple[str, float], int] = {}
    # Receivers that want some part: on a class view only the
    # representatives, on a full plan every receiver.  Only their slots
    # can deliver, so the others skip every per-part check.
    wanting = 0
    for parts, mask in groups.values():
        for key in dict(parts).items():
            wants[key] = wants.get(key, 0) | mask
        if parts:
            wanting |= mask

    out: dict[int, dict[str, list[tuple[int, int]]]] = {
        r: {} for r in plan.message_parts
    }
    for si, seg in enumerate(plan.schedule):
        for ui, unit in enumerate(seg.units):
            pads = wanting
            for k in unit.pad_keys:
                pads &= placed.get(k, 0)
            if not pads:
                continue
            at = (si, ui)
            parts = unit.parts
            if unit.combine == "xor":
                # peel[i]: receivers holding every label but part i's.  One
                # pass finds those missing no label (none) and exactly one
                # (one); who misses part i's label misses exactly that one.
                masks = []
                none, one = pads, 0
                for _, label in parts:
                    m = have.get(label, 0)
                    masks.append(m)
                    one = (one & m) | (none & ~m)
                    none &= m
                peel = [one & ~m for m in masks]
            else:
                peel = [pads] * len(parts)
            for i, (r, label) in enumerate(parts):
                ok = peel[i] & (1 << r)
                if not ok:
                    continue
                for c in unit.context.get(r, ()):
                    ok &= have.get(c, 0)
                if not ok or unit.decode_load.get(r, 0.0) <= 0.0:
                    continue
                if wants.get((label, unit.part_rates[i]), 0) & ok:
                    got = out[r].get(label)
                    if got is None:
                        out[r][label] = [at]
                    else:
                        got.append(at)
    return {r: got for r, got in out.items() if got}


class _ClassView(NamedTuple):
    """The parts of a plan that :func:`deliveries` and :func:`cache_usage`
    read, restricted to the class representatives."""

    placement: dict[int, tuple[Atom, ...]]
    schedule: tuple[DeliverySegment, ...]
    message_parts: dict[int, tuple[tuple[str, float], ...]]
    virtual_cached: dict[int, frozenset]


def _class_view(plan: SchemePlan) -> tuple[_ClassView, tuple[int, ...]]:
    """What DECODE and CACHE read, and the receivers they check: the class
    representatives with their atoms, their message parts and (at least)
    the units that hand them a part, in one segment.  Every bit of
    :func:`deliveries` concerns one receiver, so the view gives the
    representatives their own deliveries."""
    po = plan.orbits
    reps = po.representatives
    only = frozenset(reps)
    units = tuple(
        u for orb in po.orbits for m in orb.members for u in orb.units(m, only)
    )
    view = _ClassView(
        po.place(only), (DeliverySegment((), 0.0, units),),
        {r: plan.message_parts[r] for r in reps if r in plan.message_parts},
        {r: plan.virtual_cached[r] for r in reps if r in plan.virtual_cached},
    )
    return view, reps


def _worst(best: tuple[float, str], margin: float, detail: str,
           args: tuple) -> tuple[float, str]:
    """The first strict minimum of the margins offered in order: ``margin``
    with ``detail.format(*args)`` if it is below ``best``'s, else ``best``.
    Starting from ``(inf, "")``, a NaN margin never wins."""
    return (margin, detail.format(*args)) if margin < best[0] else best


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
    runs the XOR-merge rule; the fraction sum, and a segment's sums over
    an orbit of its units, still add every member's terms in schedule
    order (multiplying by the count would round differently), so margins
    are bit-identical to a full scan.  One pass per receiver class, on
    its lowest-numbered receiver, checks the DECODE tiling and CACHE.
    Details name the first strict minimum in schedule and receiver order,
    as a full scan does.  A plan that claims no symmetry, such as a
    changed plan, has every segment and every receiver as its own orbit
    and class, so all of them are checked.
    """
    rate = sec = cache = (float("inf"), "")
    frac_sum = 0.0
    merged = None  # the first segment whose XOR repeats a label
    for orb in plan.orbits.orbits:
        first = orb.members[0]
        block = orb.units(first, None)
        if orb.one_segment:
            seg_id, count, times = (orb.phase, 0), 1, len(orb.members)
        else:
            seg_id, count, times = (orb.phase, first), len(orb.members), 1
        for _ in range(count):
            frac_sum += orb.fraction
        loads: dict[int, float] = {}
        payload = securing = 0.0
        for _ in range(times):
            for unit in block:
                for r, load in unit.decode_load.items():
                    loads[r] = loads.get(r, 0.0) + load
                payload += unit.payload_rate
                securing += unit.bin_rate
                for k in unit.pad_keys + unit.jam_keys:
                    securing += plan.key_rates[k]
        for r, load in loads.items():
            capacity = orb.fraction * (1.0 - s.erasure_of(r))
            rate = _worst(rate, capacity - load, "segment {}, receiver {}: load "
                          "{:.6g} vs capacity {:.6g}", (seg_id, r, load, capacity))
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

    decode = ""  # the first failure's detail
    point = plan.claimed_point
    view, receivers = _class_view(plan)
    delivered_to = deliveries(view)
    usage = cache_usage(view, s.D)
    for r in receivers:
        if not decode:
            have = {a.label for a in view.placement.get(r, ())}
            have |= view.virtual_cached.get(r, frozenset())
            delivered = delivered_to.get(r, {})
            total = 0.0
            for label, part_rate in view.message_parts.get(r, ()):
                if label not in have and label not in delivered:
                    decode = f"receiver {r} cannot obtain part {label!r}"
                    break
                total += part_rate
            else:
                if abs(total - point.R) > RATE_TOL:
                    decode = (f"receiver {r} reassembles rate {total!r}, "
                              f"claimed {point.R!r}")
        claim = point.M_w if r <= s.K_w else point.M_s
        used = usage.get(r, 0.0)
        cache = _worst(cache, claim - used, "receiver {}: usage {:.6g} vs claimed "
                       "{:.6g}", (r, used, claim))
    if not decode and merged is not None:
        decode = f"demand {(1,) * s.K}: merged contributions in segment {merged}"

    frac_ok = abs(frac_sum - 1.0) <= 1e-12
    return VerificationReport([
        CheckResult("RATE", rate[0] > 0.0 and frac_ok, rate[0],
                    rate[1] if frac_ok else f"fractions sum to {frac_sum}"),
        CheckResult("DECODE", not decode, 0.0, decode),
        CheckResult("SECRECY", sec[0] >= -RATE_TOL, *sec),
        CheckResult("CACHE", cache[0] >= -RATE_TOL, *cache),
    ])
