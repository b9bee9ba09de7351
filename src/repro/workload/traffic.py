"""Request mixes and Zipf-distributed point-of-interest popularity.

Real location traffic is heavily skewed: a few popular places absorb most of
the queries.  The workload engine models that with a Zipf distribution over
the scenario's POIs — the skew is what makes discovery caching effective, and
sweeping the exponent lets experiments explore how much of the paper's
"ubiquitous caching" argument depends on it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Generic, Sequence, TypeVar

from repro.simulation.metrics import float_sum

T = TypeVar("T")


class RequestKind(str, Enum):
    """The client-side services a simulated device exercises."""

    SEARCH = "search"
    ROUTE = "route"
    TILES = "tiles"
    LOCALIZE = "localize"


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    """Normalized Zipf weights: weight(rank) ∝ 1 / (rank + 1) ** exponent."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if exponent < 0.0:
        raise ValueError("exponent must be >= 0")
    raw = [1.0 / float(rank + 1) ** exponent for rank in range(count)]
    total = float_sum(raw)
    return [weight / total for weight in raw]


@dataclass(frozen=True)
class ZipfSampler(Generic[T]):
    """Samples items with Zipf popularity by their position in ``items``."""

    items: Sequence[T]
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.items:
            raise ValueError("cannot sample from an empty item list")
        weights = zipf_weights(len(self.items), self.exponent)
        object.__setattr__(self, "_cumulative", list(accumulate(weights)))

    def sample(self, rng: random.Random) -> T:
        draw = rng.random() * self._cumulative[-1]
        index = min(bisect_left(self._cumulative, draw), len(self.items) - 1)
        return self.items[index]


@dataclass(frozen=True)
class RequestMix:
    """Relative weights of the four request kinds a client issues."""

    search: float = 0.4
    route: float = 0.2
    tiles: float = 0.25
    localize: float = 0.15

    def __post_init__(self) -> None:
        if min(self.search, self.route, self.tiles, self.localize) < 0.0:
            raise ValueError("request weights must be non-negative")
        if self.total <= 0.0:
            raise ValueError("at least one request kind must have positive weight")

    @property
    def total(self) -> float:
        return self.search + self.route + self.tiles + self.localize

    def sample(self, rng: random.Random) -> RequestKind:
        draw = rng.random() * self.total
        for kind, weight in (
            (RequestKind.SEARCH, self.search),
            (RequestKind.ROUTE, self.route),
            (RequestKind.TILES, self.tiles),
            (RequestKind.LOCALIZE, self.localize),
        ):
            if draw < weight:
                return kind
            draw -= weight
        return RequestKind.LOCALIZE
