"""Lightweight metric collection used by benchmarks and experiments."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Iterable


def float_sum(values: Iterable[float]) -> float:
    """``values`` summed left to right, one rounding per addition.

    What builtin ``sum()`` returns on CPython up to 3.11; 3.12 compensates
    the rounding error of a float sum, so the same vector can sum to a
    different last bit there.  Sums that reach a byte-gated artifact use
    this instead, so the artifact is the same on either interpreter.
    """
    return reduce(add, values, 0)


@dataclass
class Summary:
    """Streaming summary statistics (count, mean, max)."""

    name: str
    count: int = 0
    total: float = 0.0
    maximum: float = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


def _streaming_bounds() -> list[float]:
    """Log-spaced bucket upper bounds shared by every streaming histogram.

    48 buckets per decade over 1e-3 .. 1e7 (latencies in ms, route lengths
    in meters, convergence times in seconds all fit) gives a worst-case
    relative quantile error of ``10**(1/48) − 1 ≈ 4.9%`` per bucket —
    comfortably inside the tolerance the exact-vs-streaming agreement test
    asserts.  Values at or below the lowest bound share the first bucket;
    values above the highest share the overflow bucket.
    """
    per_decade = 48
    return [10.0 ** (-3.0 + i / per_decade) for i in range(10 * per_decade + 1)]


_STREAM_BOUNDS: list[float] = _streaming_bounds()


@dataclass
class Histogram:
    """A value histogram that reports percentiles (p50/p95/p99).

    Two storage modes:

    * **exact** (default): every raw observation is kept and percentiles are
      exact.  Fine at the small-fleet simulation scale (thousands of requests
      per run) — and byte-stable, which the committed benchmark artifacts
      rely on.
    * **streaming** (``streaming=True``): observations land in fixed
      log-spaced buckets with (possibly weighted) counts, so memory stays
      O(buckets) no matter how many observations arrive — a million-client
      sweep would otherwise retain tens of millions of raw floats.
      Percentiles are interpolated within the containing bucket (error
      bounded by the bucket's relative width); weighted observation is what
      the cohort fast path uses to record one tracer's latency on behalf of
      its whole cohort.
    """

    name: str
    streaming: bool = False
    values: list[float] = field(default_factory=list)
    _sorted: list[float] | None = field(default=None, repr=False, compare=False)
    _bucket_weights: dict[int, float] = field(default_factory=dict, repr=False, compare=False)
    _total_weight: float = field(default=0.0, repr=False, compare=False)
    _weighted_sum: float = field(default=0.0, repr=False, compare=False)
    _minimum: float = field(default=math.inf, repr=False, compare=False)
    _maximum: float = field(default=-math.inf, repr=False, compare=False)

    def observe(self, value: float, weight: float = 1.0) -> None:
        # A NaN value lands in no bucket in order and a NaN or infinite
        # weight poisons every total, so both fail here; an infinite value
        # is an observation (it lands in the overflow bucket).
        if value != value:
            raise ValueError(f"histogram {self.name!r} cannot observe value {value!r}")
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"histogram {self.name!r} weight must be finite and >= 0, got {weight!r}")
        if self.streaming:
            if weight == 0.0:
                return
            index = bisect_left(_STREAM_BOUNDS, value)
            self._bucket_weights[index] = self._bucket_weights.get(index, 0.0) + weight
            self._total_weight += weight
            self._weighted_sum += value * weight
            self._minimum = min(self._minimum, value)
            self._maximum = max(self._maximum, value)
            return
        if weight != int(weight):
            raise ValueError("exact histograms take integral weights")
        if weight == 1.0:
            self.values.append(value)
        else:
            self.values.extend([value] * int(weight))
        self._sorted = None

    def observe_many(self, values: Iterable[float]) -> None:
        values = list(values)
        if any(value != value for value in values):  # before any is observed
            raise ValueError(f"histogram {self.name!r} cannot observe value nan")
        if self.streaming:
            for value in values:
                self.observe(value)
            return
        self.values.extend(values)
        self._sorted = None

    @property
    def count(self) -> int:
        if self.streaming:
            return int(round(self._total_weight))
        return len(self.values)

    @property
    def mean(self) -> float:
        if self.streaming:
            return self._weighted_sum / self._total_weight if self._total_weight else 0.0
        return float_sum(self.values) / len(self.values) if self.values else 0.0

    def quantile(self, fraction: float) -> float:
        """The ``fraction`` percentile of the observations (0.0 when empty).

        Exact mode interpolates over the sorted raw values (the sorted copy
        is cached between observations, so reading several percentiles of
        one histogram sorts once); streaming mode interpolates within the
        bucket containing the target cumulative weight.
        """
        if not (0.0 <= fraction <= 1.0):
            raise ValueError("fraction must be in [0, 1]")
        if self.streaming:
            return self._streaming_quantile(fraction)
        if not self.values:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return _interpolate(self._sorted, fraction)

    def _streaming_quantile(self, fraction: float) -> float:
        if not self._total_weight:
            return 0.0
        target = fraction * self._total_weight
        cumulative = 0.0
        for index in sorted(self._bucket_weights):
            bucket_weight = self._bucket_weights[index]
            if cumulative + bucket_weight >= target:
                low = _STREAM_BOUNDS[index - 1] if index > 0 else self._minimum
                high = (
                    _STREAM_BOUNDS[index]
                    if index < len(_STREAM_BOUNDS)
                    else self._maximum
                )
                # Clamp the bucket to the observed range so single-bucket
                # histograms report the actual values, not bucket edges.
                low = max(low, self._minimum)
                high = min(high, self._maximum)
                if bucket_weight <= 0.0 or high <= low:
                    return high
                position = (target - cumulative) / bucket_weight
                return low + (high - low) * position
            cumulative += bucket_weight
        return self._maximum

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Streaming histograms merge bucket-wise — all streaming histograms
        share one global bucket layout, so the merge is exact with respect
        to bucketing: merging two histograms yields byte-for-byte the
        histogram that observing the union stream would have built.  That
        mergeability is what lets the telemetry pipeline fold adjacent
        windows together when downsampling retention.  A streaming
        histogram can also absorb an exact one (its raw values are simply
        observed); the reverse would silently fabricate raw values from
        buckets, so it raises instead.
        """
        if self.streaming:
            if other.streaming:
                for index, weight in other._bucket_weights.items():
                    self._bucket_weights[index] = self._bucket_weights.get(index, 0.0) + weight
                self._total_weight += other._total_weight
                self._weighted_sum += other._weighted_sum
                self._minimum = min(self._minimum, other._minimum)
                self._maximum = max(self._maximum, other._maximum)
            else:
                for value in other.values:
                    self.observe(value)
            return
        if other.streaming:
            raise ValueError("cannot merge a streaming histogram into an exact one")
        self.values.extend(other.values)
        self._sorted = None

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def snapshot(self) -> dict[str, float]:
        """The tail percentiles, keyed ``<name>.<p50|p95|p99>``."""
        return {f"{self.name}.p50": self.p50, f"{self.name}.p95": self.p95, f"{self.name}.p99": self.p99}


@dataclass
class MetricsRegistry:
    """The histograms of one run, by name."""

    histograms: dict[str, Histogram] = field(default_factory=dict)
    streaming_histograms: bool = False
    """Create histograms in bounded streaming mode (the large-fleet cohort
    sweep sets this so a million-client run keeps O(buckets) memory per
    histogram instead of one float per observation)."""

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name, streaming=self.streaming_histograms)
        return self.histograms[name]

    def snapshot(self) -> dict[str, float]:
        """Flat dict of every histogram's tail percentiles."""
        data: dict[str, float] = {}
        for histogram in self.histograms.values():
            data.update(histogram.snapshot())
        return data


def percentile(values: list[float], fraction: float) -> float:
    """The ``fraction`` percentile (0..1) of ``values`` by linear interpolation."""
    if not values:
        raise ValueError("cannot take a percentile of no values")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must be in [0, 1]")
    return _interpolate(sorted(values), fraction)


def _interpolate(ordered: list[float], fraction: float) -> float:
    """Linear-interpolated percentile of an already-sorted list."""
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight
