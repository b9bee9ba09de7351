"""Server-side load model: per-server service times and a bounded queue.

The single-request experiments treat every map server as infinitely fast —
useful for isolating discovery and network costs, but useless for answering
the fleet-scale question of *where map servers saturate*.  This module adds
the missing half: each map server owns a :class:`ServerQueue` that models a
pool of ``workers`` logical workers with deterministic per-request-kind
service times, each behind its own bounded FIFO queue.

The model is deliberately simple and exactly reproducible:

* A request arriving at simulated time ``t`` is placed on the worker offering
  the earliest feasible start at or after ``t`` — it waits behind the
  requests that worker still has outstanding.
* A request that would sit behind ``capacity`` others on every worker is
  dropped (load shedding); callers surface the drop as
  :class:`ServerOverloadedError` and clients fall back to other servers.
* Waiting time plus service time is charged against the simulated network's
  latency accounting, so client-observed percentiles include queueing delay.

The model composes with the workload engine's concurrent-round clock: the
engine rewinds the clock between clients of one round, so the server sees
its round's requests *out of processing order* but with true (overlapping)
arrival timestamps.  The queue therefore keeps each worker's schedule as
sorted busy intervals and places each request into the earliest idle slot at
or after its own arrival: two requests contend only when their arrival
instants genuinely overlap the same busy period, never merely because one
was simulated after the other.

Back-to-back jobs are stored run-length encoded.  The cohort fast path
commits thousands of jobs of one service time per batch, so each worker keeps
a batch as one *run* ``(base, service_s, lo, hi)`` whose job ``k`` (``lo <= k
< hi``) occupies ``[base + k * service_s, (base + k * service_s) +
service_s]`` — the float expressions a per-job commit would evaluate, so
every start, end and wait is bit-identical to storing the jobs one by one,
at a cost per run rather than per job.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop
from typing import Mapping, Sequence

import numpy as np

from repro.simulation.metrics import float_sum
from repro.simulation.network import SimulatedNetwork


class ServerOverloadedError(Exception):
    """Raised when a map server's bounded queue rejects a request."""


def load_cv(values: Sequence[float]) -> float:
    """Coefficient of variation (population std / mean) of a load vector.

    The balance metric for a replica group: per-replica utilizations of
    ``[u, u, u, u]`` give 0.0 (perfectly spread); ``[u, 0, 0, 0]`` — the
    first-healthy funnel — gives ``sqrt(3) ≈ 1.73``.  Zero (or empty) load
    is reported as perfectly balanced rather than dividing by zero.
    """
    if len(values) < 2:
        return 0.0
    mean = float_sum(values) / len(values)
    if mean <= 0.0:
        return 0.0
    variance = float_sum((value - mean) ** 2 for value in values) / len(values)
    return math.sqrt(variance) / mean


def check_count(name: str, value: object) -> None:
    """Reject ``value`` unless it is an ``int`` >= 1 (``bool`` and ``2.5`` are not)."""
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


@dataclass(frozen=True)
class ServiceTimeModel:
    """Deterministic service times per request kind, in milliseconds.

    ``per_kind_ms`` overrides the ``default_ms`` for specific request kinds
    (the :class:`repro.mapserver.policy.ServiceName` values).  Routing is
    typically the most expensive service, tile fetches the cheapest.
    """

    default_ms: float = 2.0
    per_kind_ms: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # ``nan < 0`` is false, so a sign check alone lets NaN through; the
        # queue's gap index compares service times with ``>=``, which NaN
        # silently fails, and the clock refuses to advance by one.
        fields = {"default_ms": self.default_ms}
        fields.update((f"per_kind_ms[{kind!r}]", ms) for kind, ms in self.per_kind_ms.items())
        for name, ms in fields.items():
            if not 0.0 <= ms < math.inf:
                raise ValueError(f"ServiceTimeModel.{name} must be finite and >= 0, got {ms!r}")

    def service_ms(self, kind: str) -> float:
        return self.per_kind_ms.get(kind, self.default_ms)


@dataclass
class QueueStats:
    """Accounting for one server's queue over a run."""

    arrivals: int = 0
    served: int = 0
    dropped: int = 0
    busy_ms: float = 0.0
    wait_ms_total: float = 0.0
    depth_total: int = 0
    max_depth: int = 0

    @property
    def drop_rate(self) -> float:
        return self.dropped / self.arrivals if self.arrivals else 0.0

    @property
    def mean_wait_ms(self) -> float:
        return self.wait_ms_total / self.served if self.served else 0.0

    @property
    def mean_depth(self) -> float:
        """Mean queue depth observed by admitted arrivals."""
        admitted = self.arrivals - self.dropped
        return self.depth_total / admitted if admitted else 0.0

    def utilization(self, window_seconds: float, workers: int = 1) -> float:
        """Fraction of ``window_seconds`` each worker spent serving requests.

        With ``workers`` > 1 the busy time is normalized per worker, so 1.0
        always means "every worker saturated".  Not clamped: a value near
        (or briefly above) 1.0 means the offered load saturated the server —
        the knee the fleet sweeps look for.
        """
        if window_seconds <= 0.0:
            return 0.0
        return self.busy_ms / (window_seconds * 1000.0 * max(1, workers))

    def snapshot(self, window_seconds: float | None = None, workers: int = 1) -> dict[str, float]:
        data = {
            "arrivals": float(self.arrivals),
            "served": float(self.served),
            "dropped": float(self.dropped),
            "drop_rate": self.drop_rate,
            "busy_ms": self.busy_ms,
            "mean_wait_ms": self.mean_wait_ms,
            "mean_depth": self.mean_depth,
            "max_depth": float(self.max_depth),
        }
        if window_seconds is not None:
            data["utilization"] = self.utilization(window_seconds, workers)
        return data


@lru_cache(maxsize=255)
def _stop_table(rank: int) -> bytes:
    """The ``translate`` table sending a mark above ``rank`` to 1, any other to 0."""
    return bytes(rank + 1) + b"\x01" * (255 - rank)


def _level_tables(levels: Sequence[float]) -> dict[float, bytes]:
    """Per level of the ascending ``levels``, the :func:`_stop_table` of its rank."""
    return {level: _stop_table(rank) for rank, level in enumerate(levels)}


@dataclass
class _WorkerSchedule:
    """One worker's committed jobs as sorted, non-overlapping busy spans.

    Span ``i`` covers ``[starts[i], ends[i]]``.  It is a single job when
    ``runs[i]`` is ``None``, else a run ``(base, service_s, lo, hi,
    jump_above)`` of back-to-back jobs (see the module docstring).
    ``jump_above`` is the service time a placement must exceed to jump the
    run whole: rounding leaves consecutive jobs at most 2.5 ulp apart (and
    3 ulp from tying), so above 4 ulp nothing fits between two of them and
    each is one more to queue behind.  It is infinite for a run whose own
    service time is that small; such runs are walked job by job.

    Admission reads two indexes kept beside the spans instead of walking
    them.  ``counts[i]`` is span ``i``'s job count (``jobs`` their total),
    so a backlog is the first live span's own live jobs plus a C-level sum
    — a subtraction while no run is stored.  ``marks`` is the gap index:
    byte ``i`` counts the service times in ``levels`` (ascending) that the
    walk cannot pass over span ``i`` in one step (:meth:`_stop_at`), so the
    next span a placement must look at is one ``translate`` + ``find`` away.
    A queue's workers share one ``levels`` / ``_stops`` table, built from
    its :class:`ServiceTimeModel` before any span is stored; a service time
    outside it is learned by :meth:`_index_level`, which gives this worker
    tables of its own and never edits the shared ones.  ``last_stop`` is the
    index of the last span with a nonzero mark (-1 when none is), which is
    what :meth:`bound` reads.
    """

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    runs: list[tuple[float, float, int, int, float] | None] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    jobs: int = 0
    marks: bytearray = field(default_factory=bytearray)
    levels: list[float] = field(default_factory=list)
    last_stop: int = -1
    _stops: dict[float, bytes] = field(default_factory=dict, repr=False)
    """Per level, the :func:`_stop_table` of its rank."""

    _MAX_LEVELS = 255
    """A mark is one byte.  A queue asks for one level per distinct service
    time of its model; a 256th level re-indexes from that level alone."""

    def prune(self, cutoff: float) -> int:
        """Drop the spans that completed by ``cutoff``; returns how many."""
        cut = bisect_right(self.ends, cutoff)
        self.jobs -= self._jobs(0, cut)
        del self.starts[:cut], self.ends[:cut], self.runs[:cut], self.counts[:cut], self.marks[:cut]
        self.last_stop = max(-1, self.last_stop - cut)
        return cut

    def _jobs(self, lo: int, hi: int) -> int:
        """Jobs stored in spans ``lo`` up to (not including) ``hi``."""
        return hi - lo if self.jobs == len(self.counts) else sum(self.counts[lo:hi])

    def _first_live(self, run: tuple[float, float, int, int, float], now: float) -> int:
        """First job of ``run`` (whose last job is live) ending after ``now``."""
        base, service_s, lo, hi, _ = run
        job = lo
        if service_s > 0.0 and now > base:  # arithmetic guess, made exact below
            job = int(max(lo, min(hi - 1, (now - base) / service_s - 1.0)))
        while (base + job * service_s) + service_s <= now:
            job += 1
        while job > lo and (base + (job - 1) * service_s) + service_s > now:
            job -= 1
        return job

    def live_count(self, now: float) -> int:
        spans = len(self.ends)
        first = bisect_right(self.ends, now)
        live = self._jobs(first, spans)
        if first < spans and (run := self.runs[first]) is not None:
            live -= self._first_live(run, now) - run[2]  # the first run's completed jobs
        return live

    def _stop_at(self, index: int) -> float:
        """The largest service time the walk stops for at span ``index``.

        Entering a span past the first live one, the walk's cursor is the
        previous span's end.  It stops to place the request in the gap
        before the span when the gap holds the service time, and to walk the
        span job by job when it cannot step over it whole: a run it may not
        jump (``service_s <= jump_above``) or a span whose first job does not
        end after the cursor.  Any longer service time steps: it queues
        behind every job of the span and the cursor moves to the span's end.
        """
        if index == 0:
            return math.inf  # no previous span: always the walk's to resolve
        previous_end = self.ends[index - 1]
        start = self.starts[index]
        gap = start - previous_end
        run = self.runs[index]
        if run is None:
            return gap if self.ends[index] > previous_end else math.inf
        return max(gap, run[4]) if start + run[1] > previous_end else math.inf

    def _index_level(self, service_s: float) -> bytes:
        """Add ``service_s`` to the levels, re-mark every span, return its table.

        Builds new ``levels`` and ``_stops`` rather than editing them in
        place, since they may be the queue's shared tables.
        """
        levels = [] if len(self.levels) == self._MAX_LEVELS else list(self.levels)
        insort(levels, service_s)
        self.levels = levels
        self.marks = bytearray(bisect_right(levels, self._stop_at(index)) for index in range(len(self.ends)))
        self.last_stop = len(self.marks.rstrip(b"\0")) - 1
        self._stops = _level_tables(levels)
        return self._stops[service_s]

    def _pass(
        self, first: int, index: int, now: float, cursor: float, queued_behind: int, service_s: float, capacity: int
    ) -> tuple[float, int, int, int] | None:
        """The walk over span ``index``, job by job from ``cursor``.

        The walk jumps over each live job until a gap fits the service time;
        ``(span, job)`` is the job the gap precedes, for :meth:`insert`.  The
        jobs jumped are the requests this one sits behind, and their count
        is what the bounded buffer limits: returns ``None`` once it reaches
        ``capacity``.  A run is jumped in one step whenever its
        ``jump_above`` allows.  Passing the span returns ``(cursor,
        queued_behind, index + 1, 0)``.
        """
        run = self.runs[index]
        if run is None:
            if self.starts[index] - cursor >= service_s:
                return cursor, queued_behind, index, 0
            if self.ends[index] > cursor:
                cursor = self.ends[index]
                queued_behind += 1
        else:
            base, run_service_s, lo, hi, jump_above = run
            job = lo if index > first else self._first_live(run, now)
            start = base + job * run_service_s
            if service_s > jump_above and start - cursor < service_s and start + run_service_s > cursor:
                cursor = self.ends[index]  # behind this job and all the run's later ones
                queued_behind += hi - job
                job = hi
            while job < hi and queued_behind < capacity:
                start = base + job * run_service_s
                if start - cursor >= service_s:
                    return cursor, queued_behind, index, job
                if start + run_service_s > cursor:
                    cursor = start + run_service_s
                    queued_behind += 1
                job += 1
        if queued_behind >= capacity:
            return None
        return cursor, queued_behind, index + 1, 0

    def place(self, now: float, service_s: float, capacity: int) -> tuple[float, int, int, int] | None:
        """Earliest feasible ``(start, queued_behind, span, job)`` at or after ``now``.

        What walking every live span with :meth:`_pass` returns, found by
        lookup: the walk proper resolves the first live span (whose live jobs
        depend on ``now``) and each span the gap index says it stops at;
        every span in between it would step over whole, so those are
        counted, not walked.  ``None`` once the request would queue behind
        ``capacity``.
        """
        ends = self.ends
        spans = len(ends)
        first = index = bisect_right(ends, now)
        cursor, queued_behind = now, 0
        stops = self._stops.get(service_s) or self._index_level(service_s)
        while index < spans:
            placed = self._pass(first, index, now, cursor, queued_behind, service_s, capacity)
            if placed is None or placed[2] == index:
                return placed
            cursor, queued_behind, index = placed[0], placed[1], index + 1
            # Every span passed holds a job or more, so the buffer fills by `stop`.
            stop = min(spans, index + capacity - queued_behind)
            hit = self.marks[index:stop].translate(stops).find(1)
            after = stop if hit < 0 else index + hit
            if after > index:
                queued_behind += self._jobs(index, after)
                if queued_behind >= capacity:
                    return None
                cursor = ends[after - 1]
                index = after
        return cursor, queued_behind, spans, 0

    def bound(self, now: float, service_s: float) -> float | None:
        """The start :meth:`place` would return, when it is known without a walk.

        ``now`` for an idle worker.  Otherwise the tail, when the walk is
        certain to step over every live span: no span after ``L = max(0,
        last_stop)`` stops it for any indexed level, and span ``L`` has
        either completed by ``now`` or is the first live span and the walk
        steps over it from ``now`` — the gap before it cannot hold
        ``service_s`` and it is not a run ``service_s`` may not jump.  Then
        :meth:`place` answers the tail, or ``None`` when the worker is full.
        ``None`` means only :meth:`place` can say: the first live span may
        hold a gap, or ``service_s`` is not indexed yet, and indexing it may
        raise marks this reads as zero.
        """
        ends = self.ends
        if not ends or ends[-1] <= now:
            return now
        if service_s not in self._stops:
            return None
        last = self.last_stop if self.last_stop > 0 else 0
        if ends[last] <= now:
            return ends[-1]
        if last and ends[last - 1] > now:
            return None
        run = self.runs[last]
        if self.starts[last] - now < service_s and (run is None or service_s > run[4]):
            return ends[-1]
        return None

    @staticmethod
    def span(base: float, service_s: float, count: int) -> tuple[float, tuple[float, float, int, int, float] | None]:
        """``(end, run)`` of ``count`` back-to-back jobs from ``base``.

        ``run`` is ``None`` for a single job.  It depends on nothing stored,
        so workers committing equal jobs from an equal base share one.
        """
        end = (base + (count - 1) * service_s) + service_s
        if count == 1:
            return end, None
        slack = 4.0 * math.ulp(end)
        return end, (base, service_s, 0, count, slack if service_s > slack else math.inf)

    def append(self, base: float, end: float, run: tuple[float, float, int, int, float] | None, count: int) -> None:
        """Store the :meth:`span` ``(end, run)`` of ``count`` jobs from ``base`` last.

        The one tail store: :meth:`insert` hands its tail case here and a
        phantom batch calls it per worker.  The new span's mark is
        :meth:`_stop_at` of it, read off the previous end; a nonzero one
        makes it ``last_stop``.  No other span's mark changes.
        """
        index = len(self.ends)
        self.starts.append(base)
        self.ends.append(end)
        self.runs.append(run)
        self.counts.append(count)
        self.jobs += count
        mark = bisect_right(self.levels, self._stop_at(index))
        self.marks.append(mark)
        if mark:
            self.last_stop = index

    def insert(self, index: int, job: int, base: float, service_s: float, count: int) -> int:
        """Commit ``count`` back-to-back jobs before ``job`` of span ``index``.

        At the tail (``index == len(ends)``) this is :meth:`append` of the
        :meth:`span`.  Inside the schedule it splits a run when ``job`` is
        interior to it: both halves keep the run's ``base``, so their jobs
        keep their exact instants.  Returns the number of spans added.  The
        new span and the one after it get fresh marks; a split's first half
        keeps the run's start and predecessor, so it keeps the run's mark
        too.
        """
        last_end, new_run = self.span(base, service_s, count)
        if index == len(self.ends):
            self.append(base, last_end, new_run, count)
            return 1
        starts, ends, runs, counts, marks = self.starts, self.ends, self.runs, self.counts, self.marks
        last_stop, at = self.last_stop, index
        added = 1
        run = runs[index]
        if run is not None and job > run[2]:
            old_base, old_service_s, lo, hi, jump_above = run
            starts.insert(index, starts[index])
            ends.insert(index, (old_base + (job - 1) * old_service_s) + old_service_s)
            runs.insert(index, (old_base, old_service_s, lo, job, jump_above))
            counts.insert(index, job - lo)
            marks.insert(index, marks[index])
            index += 1
            starts[index] = old_base + job * old_service_s
            runs[index] = (old_base, old_service_s, job, hi, jump_above)
            counts[index] = hi - job
            added = 2
        starts.insert(index, base)
        ends.insert(index, last_end)
        runs.insert(index, new_run)
        counts.insert(index, count)
        self.jobs += count
        levels = self.levels
        marks.insert(index, bisect_right(levels, self._stop_at(index)))
        marks[index + 1] = bisect_right(levels, self._stop_at(index + 1))
        # Only the marks of the new span and the one after it changed.
        if last_stop > at:  # a later stop, shifted
            self.last_stop = last_stop + added
        elif marks[index + 1]:
            self.last_stop = index + 1
        elif marks[index]:
            self.last_stop = index
        elif last_stop == at and added == 1:  # the stop was re-marked to zero
            self.last_stop = len(marks[:index].rstrip(b"\0")) - 1
        return added


_DOUBLE = struct.Struct("<d")
_BITS = struct.Struct("<q")


def _bits(value: float) -> int:
    """The bit pattern of ``value``; for non-negative floats it orders them."""
    return _BITS.unpack(_DOUBLE.pack(value))[0]


def _level(bits: int) -> float:
    """The float whose bit pattern is ``bits`` (>= 0); -1 stands for just below 0.0."""
    return _DOUBLE.unpack(_BITS.pack(bits))[0] if bits >= 0 else -math.ulp(0.0)


def _taken(classes: list[tuple[float, int, int]], level: float, service_s: float) -> tuple[list[int], int]:
    """Per class ``(tail, room, size)``, ``a(level)``, and ``N(level)``: their sum over workers.

    ``a`` is ``clip(floor((level - tail) / service_s) + 1, 0, room)`` in
    float, read off the quotient: it reaches ``room`` once the quotient
    reaches ``room - 1`` (an overflow to ``inf`` included) and is 0 below 0.
    """
    counts = []
    total = 0
    for tail, room, size in classes:
        quotient = (level - tail) / service_s
        count = room if quotient >= room - 1 else 0 if quotient < 0.0 else int(quotient) + 1
        counts.append(count)
        total += size * count
    return counts, total


def water_fill(tails: Sequence[float], caps: Sequence[int], admitted: int, service_s: float) -> list[int]:
    """How many of ``admitted`` same-instant jobs each worker takes.

    Each job goes to the worker that would finish it first, lowest index on
    ties: worker ``i``'s ``k``-th job (``k < caps[i]``) finishes at ``v_i(k)
    = tails[i] + k * service_s`` in float, and ``v_i`` never falls as ``k``
    rises, so the greedy order is the k-way merge of the workers' sequences
    and the split is the ``admitted`` smallest pairs in ``(v, i, k)`` order.
    They are found by selection, not by merging them one by one.

    Write ``s = service_s > 0``, ``t_i = tails[i]`` (>= 0, the clock never
    reads below zero; a negative tail raises ``ValueError``) and ``c_i =
    min(caps[i], admitted)`` (no worker takes more than ``admitted``).
    Workers with equal ``(t_i, c_i)`` have the same sequence ``v_i``, so
    each step below runs once per such *class* of workers, weighted by its
    size: a batch meets a few classes however many workers it spans.

    1. *Level.*  ``a_i(L) = clip(floor((L - t_i) / s) + 1, 0, c_i)`` in float
       approximates how many of worker ``i``'s pairs lie at or below ``L``,
       and ``N(L) = Σ a_i(L)`` never falls as ``L`` rises.  A bisection over
       the bit patterns of the non-negative floats (which they order) keeps
       ``N(L_lo) < admitted <= N(L_hi)``, from a level below every tail
       (``N = 0``) and ``top = max_i (t_i + c_i * s)`` or ``inf``, until
       ``L_hi - L_lo < s/2`` or the patterns are adjacent: ≤ 64 passes.
    2. *Band.*  With ``n_i = a_i(L_hi)``, pairs ``k < n_i - m`` are certain,
       pairs ``k >= n_i + m`` are out, and the rest of ``admitted`` is taken
       from the band between them in ascending float ``v_i(k)`` — the heap's
       own values — a group of equal values whole while it fits, and the
       group it does not fit in by ``(i, k)``: the heap's tie-break.

    The margin ``m`` is proven.  Let ``U = ulp(max(top, L_hi))``: every float
    the argument rounds to (``k * s``, ``v_i(k)``, ``L - t_i``) is at most
    that large, so each rounding errs by at most ``U/2``.  Hence ``|v_i(k) -
    (t_i + k s)| <= U``, and ``a_i(L)`` lies between the exact counts
    ``ρ_i(L ∓ 2U)``, ``ρ_i(x) = clip(floor((x - t_i)/s) + 1, 0, c_i)``
    (the quotient's own rounding is ≤ ``U/s`` below the subnormal range, and
    ≤ 2^-1075 in it).  Let ``V`` be the ``admitted``-th smallest value; the
    heap's count ``x_i`` lies between ``#{k: v_i(k) < V}`` and ``#{k:
    v_i(k) <= V}``.  ``N(L_lo) < admitted <= Σ #{v <= V}`` forces ``V > L_lo
    - 3U`` and ``N(L_hi) >= admitted > Σ #{v < V}`` forces ``V <= L_hi +
    3U``, so ``n_i - x_i <= ρ_i(L_hi + 2U) - ρ_i(L_lo - 4U) <= ⌈(L_hi - L_lo
    + 6U)/s⌉`` and ``x_i - n_i <= ρ_i(L_hi + 4U) - ρ_i(L_hi - 2U) <=
    ⌈6U/s⌉``.  ``m = ⌈(L_hi - L_lo + 7U)/s⌉ + 1`` in float covers that: the
    extra ``U/2`` the float difference may lose, the two roundings of the
    bound itself (below 1/2 while it is under ``admitted``) and the
    subnormal quotient term.  ``m`` is capped at ``max c_i``, which bounds
    any ``|x_i - n_i|``: a tiny ``s`` (where ``U/s`` would overflow) puts
    every worker's whole room in the band, and is still exact.  Nothing in
    the argument tells two workers of one class apart, so it holds class by
    class: the bounds on ``n_i - x_i`` are the same for every member.
    """
    numbers: dict[tuple[float, int], int] = {}  # a worker's (tail, cap) -> its class
    found: dict[tuple[float, int], int] = {}  # a class's (tail, room) -> its number
    sizes: list[int] = []  # per class, its workers
    for pair, size in Counter(zip(tails, caps)).items():
        if not pair[0] >= 0.0:
            raise ValueError(f"water_fill tails must be >= 0, got {pair[0]!r}")
        number = numbers[pair] = found.setdefault((pair[0], min(pair[1], admitted)), len(found))
        if number < len(sizes):
            sizes[number] += size
        else:
            sizes.append(size)
    classes = [(tail, room, size) for (tail, room), size in zip(found, sizes)]
    largest = max(room for _, room, _ in classes)

    top = max(tail + room * service_s for tail, room, _ in classes)  # inf past the float range
    low = _bits(abs(min(tails))) - 1  # abs: a tail may be -0.0
    low_level = _level(low)
    high, high_level = _bits(top), top
    high_taken, total = _taken(classes, top, service_s)
    if total < admitted:
        high, high_level, high_taken = _bits(math.inf), math.inf, [room for _, room, _ in classes]
    while high - low > 1 and high_level - low_level >= service_s / 2:
        mid = (low + high) // 2
        mid_level = _level(mid)
        mid_taken, total = _taken(classes, mid_level, service_s)
        if total >= admitted:
            high, high_level, high_taken = mid, mid_level, mid_taken
        else:
            low, low_level = mid, mid_level

    bound = (high_level - low_level) + 7.0 * math.ulp(max(top, high_level))
    margin = largest if bound >= largest * service_s else min(largest, math.ceil(bound / service_s) + 1)
    taken = []  # per class, the jobs each member takes
    band: list[tuple[float, int]] = []  # (v, class) per band pair of one member
    rest, width = admitted, 0
    for number, ((tail, room, size), approx) in enumerate(zip(classes, high_taken)):
        first, last = max(approx - margin, 0), min(approx + margin, room)
        taken.append(first)
        rest -= size * first
        width += size * (last - first)
        band.extend((tail + k * service_s, number) for k in range(first, last))
    if not 0 <= rest <= width:
        raise RuntimeError(f"water_fill band of {width} cannot hold the {rest} jobs left")

    band.sort()
    group: dict[int, int] = {}  # per class, its members' pairs at one value of the band
    position = 0
    while rest:
        value, group = band[position][0], {}
        while position < len(band) and band[position][0] == value:
            number = band[position][1]
            group[number] = group.get(number, 0) + 1
            position += 1
        size = sum([sizes[number] * pairs for number, pairs in group.items()])
        if size > rest:
            break  # the group is taken in part, below
        for number, pairs in group.items():
            taken[number] += pairs
        rest -= size
    each = {pair: taken[number] for pair, number in numbers.items()}
    assigned = [each[pair] for pair in zip(tails, caps)]
    if rest:  # by (worker index, job) through the group until the rest is taken
        tied = {pair: group[number] for pair, number in numbers.items() if number in group}
        for index, pair in enumerate(zip(tails, caps)):
            if pair in tied:
                pairs = min(tied[pair], rest)
                assigned[index] += pairs
                rest -= pairs
                if not rest:
                    break
    if sum(assigned) != admitted:
        raise RuntimeError(f"water_fill assigned {sum(assigned)} of {admitted} jobs")
    return assigned


@dataclass
class ServerQueue:
    """A bounded queue in front of one map server's worker pool.

    Each of the ``workers`` logical workers serves one request at a time
    from its own FIFO; an arriving request is placed on the worker offering
    the earliest feasible start (ties break toward the lowest worker index,
    keeping admission deterministic).  ``capacity`` bounds the *per-worker*
    backlog, so total buffered work scales with the worker count — a replica
    with 4 workers saturates at 4× the single-worker knee.  With the default
    ``workers=1`` the model reduces exactly to the original single-worker
    queue.
    """

    network: SimulatedNetwork
    service_times: ServiceTimeModel = field(default_factory=ServiceTimeModel)
    capacity: int = 64
    workers: int = 1
    stats: QueueStats = field(default_factory=QueueStats)
    kind_arrivals: dict[str, int] = field(default_factory=dict, repr=False)
    """Per-request-kind count of *individually processed* arrivals (phantom
    batches excluded).  The cohort fast path diffs this around one tracer
    request to learn which kinds that request charged to this server, then
    replays them for the tracer's phantom cohort-mates.  Deliberately not
    part of :meth:`snapshot`, so committed artifacts keep their keys."""
    kind_totals: dict[str, int] = field(default_factory=dict, repr=False)
    """Per-request-kind count of *all* offered arrivals — individually
    processed and phantom-batched alike, drops included.  The telemetry
    pipeline diffs this (via :meth:`telemetry_frame`) per window to map
    demand by kind; kept separate from :attr:`kind_arrivals` because the
    cohort diff mechanism requires that one stays phantom-free."""
    _schedules: list[_WorkerSchedule] = field(default_factory=list, repr=False)
    _busy_until: float = field(default=0.0, repr=False)
    _stored_spans: int = field(default=0, repr=False)
    _prune_above: int = field(default=1024, repr=False)
    _instant: tuple[float, list[float], list[int], list[int]] | None = field(default=None, repr=False)
    """``(at, tails, lives, caps)``: what :meth:`_tail_state` last read at
    ``at``, kept exact by every commit since and forgotten when a prune
    removes a span (see :meth:`phantom_arrivals`)."""

    def __post_init__(self) -> None:
        check_count("ServerQueue.capacity", self.capacity)
        check_count("ServerQueue.workers", self.workers)
        # Every worker shares one gap-index table of the model's service
        # times, in seconds as `process` and `phantom_arrivals` compute them.
        model = self.service_times
        levels = sorted({ms / 1000.0 for ms in (model.default_ms, *model.per_kind_ms.values())})
        if len(levels) > _WorkerSchedule._MAX_LEVELS:  # more than a mark counts: each learns its own
            levels = []
        stops = _level_tables(levels)
        self._schedules = [_WorkerSchedule(levels=levels, _stops=stops) for _ in range(self.workers)]

    @property
    def busy_until(self) -> float:
        """Simulated instant at which the last scheduled request completes."""
        return self._busy_until

    @property
    def depth(self) -> int:
        """Requests outstanding (queued or in service) at the current instant."""
        now = self.network.clock.now()
        return sum(schedule.live_count(now) for schedule in self._schedules)

    _PRUNE_LAG_SECONDS = 120.0
    """How far behind the newest arrival completed spans are retained.

    The workload engine's clock only rewinds within one concurrent round
    (seconds at most), so spans that completed minutes before the current
    arrival can never be observed again and are dropped to keep the
    schedule lists — and their insertion cost — small."""

    def _prune(self, now: float) -> None:
        """Drop long-completed spans once the stored count has doubled.

        The threshold moves to twice what a prune leaves behind, so a
        schedule that is all live (nothing to drop) is not rescanned on
        every arrival and pruning stays amortized O(1) per stored span.
        """
        if self._stored_spans <= self._prune_above:
            return
        cutoff = now - self._PRUNE_LAG_SECONDS
        removed = sum(schedule.prune(cutoff) for schedule in self._schedules)
        self._stored_spans -= removed
        if removed:
            self._instant = None
        self._prune_above = max(1024, 2 * self._stored_spans)

    def snapshot(self, window_seconds: float | None = None) -> dict[str, float]:
        """The queue's stats snapshot, normalized for (and reporting) workers."""
        data = self.stats.snapshot(window_seconds=window_seconds, workers=self.workers)
        data["workers"] = float(self.workers)
        return data

    def telemetry_frame(self) -> dict[str, object]:
        """Cumulative counters for the telemetry pipeline to diff per window.

        Phantom cohort arrivals are included (they land in ``stats`` and
        ``kind_totals``), so windowed deltas reflect the load the server
        actually absorbed, not just the individually-simulated slice.

        ``workers`` is a *gauge*, not a counter: the pipeline keeps the
        latest value per window instead of diffing it, so supply-side
        roll-ups can normalize busy time into utilization
        (``busy_ms / (workers × window span)``) without reaching back into
        the queue object.
        """
        return {
            "arrivals": float(self.stats.arrivals),
            "served": float(self.stats.served),
            "dropped": float(self.stats.dropped),
            "wait_ms": self.stats.wait_ms_total,
            "busy_ms": self.stats.busy_ms,
            "workers": float(self.workers),
            "kinds": {kind: float(count) for kind, count in self.kind_totals.items()},
        }

    def _choose(self, now: float, service_s: float) -> tuple[tuple[float, int, int, int] | None, int]:
        """The placement ``process`` commits and its worker's index.

        The lowest ``(start, index)`` over the workers that admit the
        request, asking few of them: worker 0 first, then (unless it starts
        at ``now``, which nothing beats) each worker whose
        :meth:`_WorkerSchedule.bound` is unknown or idle, in index order,
        and last the rest — whose start is their tail — in ``(tail,
        index)`` order, until the next cannot beat the best so far.  Those
        are asked only whether they have room.
        """
        schedules, capacity = self._schedules, self.capacity
        best, chosen = schedules[0].place(now, service_s, capacity), 0
        if self.workers == 1 or (best is not None and best[0] <= now):
            return best, chosen
        tails = []
        for index in range(1, self.workers):
            schedule = schedules[index]
            bound = schedule.bound(now, service_s)
            if bound is not None and bound > now:
                tails.append((bound, index))
                continue
            placed = schedule.place(now, service_s, capacity)
            if placed is not None and (best is None or placed[0] < best[0]):
                best, chosen = placed, index
                if placed[0] <= now:
                    return best, chosen
        heapify(tails)
        while tails and (best is None or tails[0] < (best[0], chosen)):
            index = heappop(tails)[1]
            placed = schedules[index].place(now, service_s, capacity)
            if placed is not None:
                return placed, index
        return best, chosen

    def process(self, kind: str) -> float:
        """Admit one request, wait out the backlog, and serve it.

        Advances the simulated clock by queueing delay plus service time and
        charges both to the network's latency accounting (so client latency
        percentiles include server load).  Returns the total milliseconds
        spent server-side; raises :class:`ServerOverloadedError` when every
        worker's bounded buffer is full.
        """
        now = self.network.clock.now()
        self.stats.arrivals += 1
        self.kind_arrivals[kind] = self.kind_arrivals.get(kind, 0) + 1
        self.kind_totals[kind] = self.kind_totals.get(kind, 0) + 1
        self._prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0

        best, chosen = self._choose(now, service_s)
        if best is None:
            self.stats.dropped += 1
            raise ServerOverloadedError(
                f"all {self.workers} worker queue(s) full "
                f"({self.capacity} per worker) for {kind!r} request"
            )
        start, queued_behind, span, job = best

        self.stats.depth_total += queued_behind
        if queued_behind > self.stats.max_depth:
            self.stats.max_depth = queued_behind

        wait_ms = (start - now) * 1000.0
        schedule = self._schedules[chosen]
        added = schedule.insert(span, job, start, service_s, 1)
        self._stored_spans += added
        tail = schedule.ends[-1]
        self._busy_until = max(self._busy_until, tail)
        if self._instant is not None:  # one more job ending after `at` is one more live there
            at, tails, lives, caps = self._instant
            tails[chosen] = max(at, tail)
            if schedule.ends[span + added - 1] > at:
                lives[chosen] += 1
                caps[chosen] = max(0, self.capacity - lives[chosen])

        self.stats.served += 1
        self.stats.busy_ms += service_ms
        self.stats.wait_ms_total += wait_ms
        total_ms = wait_ms + service_ms
        self.network.server_processing(total_ms)
        return total_ms

    def phantom_arrivals(self, kind: str, count: int) -> tuple[int, int]:
        """Charge ``count`` statistically-identical arrivals in aggregate.

        The cohort fast path of the workload engine simulates one *tracer*
        device per cohort slice through the full client stack and charges the
        server-side load of the tracer's phantom cohort-mates here: ``count``
        requests of ``kind`` all arriving at the current simulated instant.
        Their busy time, waits, depths and drops land in :class:`QueueStats`
        exactly as if each had been admitted individually, and their busy
        intervals are committed to the worker schedules so subsequent *real*
        requests queue behind them — that is what makes large-fleet
        saturation measured rather than extrapolated.

        Two deliberate approximations versus ``count`` calls to
        :meth:`process` (both only matter off the saturated path the batch
        exists for):

        * placement is tail-append per worker (interior idle gaps are not
          back-filled) — which is also what lets a batch commit one
          run-length-encoded run per worker — and
        * the per-worker drop check is the aggregate ``capacity − live``
          backlog bound rather than a per-job placement probe.

        Room is read off the instant's state ``(at, tails, lives, caps)``:
        per worker its next-free instant, live backlog and slots left at
        ``at``.  A batch at a new instant scans every worker for it
        (:meth:`_tail_state`); a batch at the instant already scanned reads
        it as it stands, so a full instant (no slot left) drops whole without
        a scan.  It stays exact because the live count at a fixed instant is
        the number of stored jobs ending after it: an insert adds jobs whose
        ends are known, which this batch's commit loop and :meth:`process`
        add to the worker they fill; a split keeps every job's instants; and
        only a prune removes jobs, so a prune that removes a span forgets
        the state.

        The commit works per class of workers with equal ``(tail, jobs,
        live)``: they commit equal runs from equal backlogs, so the class
        builds its :meth:`_WorkerSchedule.span` (one run tuple its members
        share), its depths, ``jobs × service_ms`` and its live count and
        room after the batch once.  Per worker the loop only stores the run
        with :meth:`_WorkerSchedule.append`, which reads the worker's own
        previous end for the gap mark, and writes the instant's state.
        ``busy_ms`` still adds per worker in worker order, the float sum
        per-job admission would reach.

        Phantoms charge no network latency and never advance the clock —
        only real requests drive time.  Returns ``(admitted, dropped)``.
        """
        if type(count) is not int or count < 0:
            raise ValueError(f"phantom_arrivals count must be an int >= 0, got {count!r}")
        if count == 0:
            return (0, 0)
        now = self.network.clock.now()
        stats = self.stats
        stats.arrivals += count
        self.kind_totals[kind] = self.kind_totals.get(kind, 0) + count
        self._prune(now)
        if self._instant is None or self._instant[0] != now:
            self._instant = (now, *self._tail_state(now))
        _, tails, lives, caps = self._instant
        admitted = min(count, sum(caps))
        dropped = count - admitted
        stats.dropped += dropped
        if admitted == 0:
            return (0, dropped)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0

        # Greedy earliest-finish water-fill, bounded by per-worker caps: each
        # job goes to the worker that would finish it first (lowest index on
        # ties).  `water_fill` finds that split by selection, at a cost per
        # class of identical workers rather than per job.
        if service_s <= 0.0:
            # Zero service time: every job starts at its worker's tail and
            # nothing levels — fill the workers with room in index order.
            assigned, remaining = [], admitted
            for cap in caps:
                assigned.append(min(cap, remaining))
                remaining -= assigned[-1]
        else:
            assigned = water_fill(tails, caps, admitted, service_s)

        # The waits fold left to right, job by job in worker order, with the
        # expression of per-job admission, so the float sum is the one
        # `process` calls would reach: np.add.accumulate is that sequential
        # fold (np.sum and math.fsum reassociate it).
        jobs_per_worker = np.array(assigned)
        positions = np.arange(admitted) - np.repeat(np.cumsum(jobs_per_worker) - jobs_per_worker, jobs_per_worker)
        waits = ((np.repeat(tails, jobs_per_worker) + positions * service_s) - now) * 1000.0
        stats.wait_ms_total = float(np.add.accumulate(np.concatenate(([stats.wait_ms_total], waits)))[-1])

        # One run per worker, appended at its tail.  Workers with equal
        # `(tail, jobs, live)` commit equal runs, so each such class builds
        # its span and instant state once.  Job `position` queues behind
        # `live + position` others; the run's jobs that end after `now` are
        # live there from now on.  `busy_ms` adds per worker, in worker order.
        capacity, schedules, span = self.capacity, self._schedules, _WorkerSchedule.span
        depth_total, max_depth, busy_until, busy_ms = stats.depth_total, stats.max_depth, self._busy_until, stats.busy_ms
        commits: dict[tuple[float, int, int], tuple] = {}  # a class's (tail, jobs, live) -> what it commits
        for index, jobs in enumerate(assigned):
            if not jobs:
                continue
            tail, live = tails[index], lives[index]
            key = (tail, jobs, live)
            commit = commits.get(key)
            if commit is None:
                end, run = span(tail, service_s, jobs)
                max_depth = max(max_depth, live + jobs - 1)
                busy_until = max(busy_until, end)
                depth = jobs * live + jobs * (jobs - 1) // 2
                if end > now:  # past a tail after `now` every job is live; at `now` all but a prefix
                    live += jobs if tail > now or run is None else jobs - schedules[index]._first_live(run, now)
                commit = commits[key] = (end, run, jobs * service_ms, depth, live, max(0, capacity - live))
            end, run, busy, depth, live, room = commit
            schedules[index].append(tail, end, run, jobs)
            tails[index], lives[index], caps[index] = end, live, room
            busy_ms += busy
            depth_total += depth
        stats.depth_total, stats.max_depth, stats.busy_ms = depth_total, max_depth, busy_ms
        stats.served += admitted
        self._stored_spans += len(assigned) - assigned.count(0)
        self._busy_until = busy_until
        return (admitted, dropped)

    def _tail_state(self, now: float) -> tuple[list[float], list[int], list[int]]:
        """Per worker: next-free instant, live backlog and slots left at ``now``.

        The scan :meth:`phantom_arrivals` keeps as its instant's state.
        """
        tails: list[float] = []
        lives: list[int] = []
        caps: list[int] = []
        for schedule in self._schedules:  # live_count, read straight off the counts
            ends = schedule.ends
            spans = len(ends)
            first = bisect_right(ends, now)
            live = spans - first if schedule.jobs == spans else sum(schedule.counts[first:])
            if first < spans and (run := schedule.runs[first]) is not None:
                live -= schedule._first_live(run, now) - run[2]
            tails.append(max(now, ends[-1] if ends else 0.0))
            lives.append(live)
            caps.append(max(0, self.capacity - live))
        return tails, lives, caps
