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
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heapreplace
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (network imports nothing here)
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
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 0.0
    variance = sum((value - mean) ** 2 for value in values) / len(values)
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
    byte ``i`` counts the service times in ``levels`` (every service time
    this worker has been asked to place, ascending) that the walk cannot
    pass over span ``i`` in one step (:meth:`_stop_at`), so the next span a
    placement must look at is one ``translate`` + ``find`` away.
    """

    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    runs: list[tuple[float, float, int, int, float] | None] = field(default_factory=list)
    counts: list[int] = field(default_factory=list)
    jobs: int = 0
    marks: bytearray = field(default_factory=bytearray)
    levels: list[float] = field(default_factory=list)
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
        """Add ``service_s`` to the levels, re-mark every span, return its table."""
        if len(self.levels) == self._MAX_LEVELS:
            self.levels.clear()
        insort(self.levels, service_s)
        self.marks = bytearray(bisect_right(self.levels, self._stop_at(index)) for index in range(len(self.ends)))
        self._stops = {level: _stop_table(rank) for rank, level in enumerate(self.levels)}
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

    def insert(self, index: int, job: int, base: float, service_s: float, count: int) -> int:
        """Commit ``count`` back-to-back jobs before ``job`` of span ``index``.

        Splits a run when ``job`` is interior to it: both halves keep the
        run's ``base``, so their jobs keep their exact instants.  Returns
        the number of spans added.  The new span and the one after it get
        fresh marks; a split's first half keeps the run's start and
        predecessor, so it keeps the run's mark too.
        """
        starts, ends, runs, counts, marks = self.starts, self.ends, self.runs, self.counts, self.marks
        added = 1
        run = runs[index] if index < len(runs) else None
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
        last_end = (base + (count - 1) * service_s) + service_s
        slack = 4.0 * math.ulp(last_end)
        starts.insert(index, base)
        ends.insert(index, last_end)
        runs.insert(
            index, None if count == 1 else (base, service_s, 0, count, slack if service_s > slack else math.inf)
        )
        counts.insert(index, count)
        self.jobs += count
        levels = self.levels
        marks.insert(index, bisect_right(levels, self._stop_at(index)))
        if index + 1 < len(starts):
            marks[index + 1] = bisect_right(levels, self._stop_at(index + 1))
        return added


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

    network: "SimulatedNetwork"
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

    def __post_init__(self) -> None:
        check_count("ServerQueue.capacity", self.capacity)
        check_count("ServerQueue.workers", self.workers)
        self._schedules = [_WorkerSchedule() for _ in range(self.workers)]

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
        self._stored_spans -= sum(schedule.prune(cutoff) for schedule in self._schedules)
        self._prune_above = max(1024, 2 * self._stored_spans)

    def _commit(
        self, schedule: _WorkerSchedule, span: int, job: int, start: float, service_s: float, jobs: int
    ) -> None:
        self._stored_spans += schedule.insert(span, job, start, service_s, jobs)
        self._busy_until = max(self._busy_until, schedule.ends[-1])

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

        best: tuple[float, int, int, int] | None = None
        for schedule in self._schedules:
            placed = schedule.place(now, service_s, self.capacity)
            if placed is not None and (best is None or placed[0] < best[0]):
                best, best_schedule = placed, schedule
                if placed[0] <= now:
                    break  # an idle worker cannot be beaten
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
        self._commit(best_schedule, span, job, start, service_s, 1)

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

        Phantoms charge no network latency and never advance the clock —
        only real requests drive time.  Returns ``(admitted, dropped)``.
        """
        if type(count) is not int or count < 0:
            raise ValueError(f"phantom_arrivals count must be an int >= 0, got {count!r}")
        if count == 0:
            return (0, 0)
        now = self.network.clock.now()
        self.stats.arrivals += count
        self.kind_totals[kind] = self.kind_totals.get(kind, 0) + count
        self._prune(now)
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0

        # Per-worker tail state: next-free instant, live backlog, cap left.
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
        admitted = min(count, sum(caps))
        dropped = count - admitted
        self.stats.dropped += dropped
        if admitted == 0:
            return (0, dropped)

        # Greedy earliest-finish water-fill, bounded by per-worker caps: each
        # job goes to the worker that would finish it first (lowest index on
        # ties).  A worker's finish times only rise, so the greedy order is a
        # k-way merge over a heap: O(admitted × log workers), and `admitted`
        # is at most capacity × workers, never `count`.
        if service_s <= 0.0:
            # Zero service time: every job starts at its worker's tail and
            # nothing levels — fill the workers with room in index order.
            assigned, remaining = [], admitted
            for cap in caps:
                assigned.append(min(cap, remaining))
                remaining -= assigned[-1]
        else:
            assigned = [0] * self.workers
            heap = [(tails[index], index) for index in range(self.workers) if caps[index]]
            heapify(heap)
            for _ in range(admitted):
                index = heap[0][1]
                assigned[index] = taken = assigned[index] + 1
                if taken < caps[index]:
                    heapreplace(heap, (tails[index] + taken * service_s, index))
                else:
                    heappop(heap)

        # The waits fold left to right, job by job in worker order, with the
        # expression of per-job admission, so the float sum is the one
        # `process` calls would reach: np.add.accumulate is that sequential
        # fold (np.sum and math.fsum reassociate it).
        stats = self.stats
        jobs_per_worker = np.array(assigned)
        positions = np.arange(admitted) - np.repeat(np.cumsum(jobs_per_worker) - jobs_per_worker, jobs_per_worker)
        waits = ((np.repeat(tails, jobs_per_worker) + positions * service_s) - now) * 1000.0
        stats.wait_ms_total = float(np.add.accumulate(np.concatenate(([stats.wait_ms_total], waits)))[-1])

        # One run per worker.  Job `position` queues behind `live + position` others.
        for index, jobs in enumerate(assigned):
            if not jobs:
                continue
            schedule = self._schedules[index]
            self._commit(schedule, len(schedule.ends), 0, tails[index], service_s, jobs)
            stats.depth_total += jobs * lives[index] + jobs * (jobs - 1) // 2
            stats.max_depth = max(stats.max_depth, lives[index] + jobs - 1)
            stats.served += jobs
            stats.busy_ms += jobs * service_ms
        return (admitted, dropped)
