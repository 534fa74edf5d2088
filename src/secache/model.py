"""Core domain types: channel scenarios, cache sizes, rate-memory points.

All rates and memories are normalised by the blocklength (bits per channel
use).  A scenario consists of two receiver populations on a binary erasure
broadcast channel: ``K_w`` weak receivers with erasure probability
``delta_w`` and ``K_s`` strong receivers with erasure probability
``delta_s`` (``delta_s <= delta_w``), plus one eavesdropper with erasure
probability ``delta_z``.  The transmitter holds a library of ``D``
independent messages.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidScenario

if TYPE_CHECKING:
    import numpy as np

#: Absolute tolerance for floating comparisons throughout the package.
#: All closed forms are short rational expressions, so 1e-12 is safe.
TOL = 1e-12


@dataclass(frozen=True)
class ChannelScenario:
    """Channel and library parameters.

    Invariants, enforced at construction by :func:`validate_scenario`:

    * ``0 <= delta_s <= delta_w <= 1`` and ``0 <= delta_z <= 1``
    * ``D > K_w + K_s`` (more files than receivers)
    * ``K_w + K_s >= 1``
    """

    K_w: int
    K_s: int
    delta_w: float
    delta_s: float
    delta_z: float
    D: int

    def __post_init__(self):
        validate_scenario(self)

    @property
    def K(self) -> int:
        return self.K_w + self.K_s

    @property
    def weak_ids(self) -> range:
        """Receiver ids 1..K_w."""
        return range(1, self.K_w + 1)

    @property
    def strong_ids(self) -> range:
        """Receiver ids K_w+1..K."""
        return range(self.K_w + 1, self.K + 1)

    def erasure_of(self, receiver: int) -> float:
        return self.delta_w if receiver <= self.K_w else self.delta_s

    def to_json(self) -> str:
        return json.dumps(vars(self))

    @staticmethod
    def from_dict(obj: dict) -> "ChannelScenario":
        try:
            return ChannelScenario(
                K_w=_count(obj, "K_w"),
                K_s=_count(obj, "K_s"),
                delta_w=float(obj["delta_w"]),
                delta_s=float(obj["delta_s"]),
                delta_z=float(obj["delta_z"]),
                D=_count(obj, "D"),
            )
        except KeyError as exc:
            raise InvalidScenario(f"missing scenario field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise InvalidScenario(f"malformed scenario field: {exc}") from None


def _count(obj: dict, name: str) -> int:
    """``obj[name]`` as an int; a bool or a non-integral number is refused
    rather than truncated (``3.0`` and ``"3"`` load as 3)."""
    value = obj[name]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise InvalidScenario(
            f"scenario field {name!r} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CacheSizes:
    """Per-receiver cache sizes, normalised by blocklength."""

    M_w: float
    M_s: float

    def __post_init__(self):
        if not (0 <= self.M_w < float("inf") and 0 <= self.M_s < float("inf")):
            raise InvalidScenario(
                f"cache sizes must be finite and nonnegative, got "
                f"M_w={self.M_w}, M_s={self.M_s}"
            )


@dataclass(frozen=True)
class RateMemoryPoint:
    """An achievable (or bounding) rate-memory triple with a label.

    ``M_s`` is zero for curves where only weak receivers hold caches.
    """

    R: float
    M_w: float
    M_s: float
    label: str

    def __post_init__(self):
        for name in ("R", "M_w", "M_s"):
            v = getattr(self, name)
            if not (v == v) or v in (float("inf"), float("-inf")):
                raise InvalidScenario(f"{name} must be finite, got {v}")
            if v < 0:
                raise InvalidScenario(f"{name} must be >= 0, got {v}")


@dataclass(frozen=True, eq=False)
class Corners:
    """One corner family as columns: row i has rate ``R[i]``, memories
    ``M_w[i]``, ``M_s[i]`` and index ``index[i]`` (no columns, t, or
    (t_w, t_s)); its label is ``name`` with the index in its ``{}``."""

    name: str
    index: np.ndarray
    R: np.ndarray
    M_w: np.ndarray
    M_s: np.ndarray

    def __len__(self) -> int:
        return len(self.R)

    def label(self, i: int) -> str:
        return self.name.format(*self.index[i].tolist()) if self.index.shape[1] else self.name


def pos(x: float) -> float:
    """The positive part max(0, x)."""
    return x if x > 0.0 else 0.0


def validate_scenario(s: ChannelScenario) -> ChannelScenario:
    """Return ``s`` unchanged iff every scenario invariant holds.

    Raises :class:`InvalidScenario` naming the first violated invariant.
    """
    if s.K_w < 0 or s.K_s < 0:
        raise InvalidScenario("receiver counts must be nonnegative")
    if s.K_w + s.K_s < 1:
        raise InvalidScenario("at least one receiver required (K_w + K_s >= 1)")
    if not (0.0 <= s.delta_s <= s.delta_w <= 1.0):
        raise InvalidScenario(
            "erasure ordering violated: need 0 <= delta_s <= delta_w <= 1, "
            f"got delta_s={s.delta_s}, delta_w={s.delta_w}"
        )
    if not (0.0 <= s.delta_z <= 1.0):
        raise InvalidScenario(f"delta_z must lie in [0,1], got {s.delta_z}")
    if s.D <= s.K_w + s.K_s:
        raise InvalidScenario(
            f"library size must exceed receiver count: D={s.D} <= K={s.K_w + s.K_s}"
        )
    return s


def zero_cache_capacity(s: ChannelScenario) -> float:
    """Secrecy capacity with no cache memories anywhere.

    Equals ``(sum_k 1/(delta_z - delta_k))^-1`` when the eavesdropper is
    weaker than every legitimate receiver (``delta_z > delta_w``) and 0
    otherwise.  The closed form used here is

        (dz-ds)(dz-dw)^+ / [K_w (dz-ds) + K_s (dz-dw)^+]

    with the convention that a vanishing numerator yields 0.
    """
    if s.delta_z <= s.delta_w:
        return 0.0
    num = (s.delta_z - s.delta_s) * (s.delta_z - s.delta_w)
    den = s.K_w * (s.delta_z - s.delta_s) + s.K_s * (s.delta_z - s.delta_w)
    return num / den
