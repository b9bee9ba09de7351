"""Tests for the server-side load model (service times + bounded queue).

Covers the queueing model in isolation (service, backlog, drops, the
utilization→1 saturation property), its wiring into map servers and the
federation, and the jittered latency / resolver-pool refinements that ride
on the same fleet experiments.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heapreplace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core.config import FederationConfig
from repro.simulation import queueing
from repro.simulation.network import LatencyModel, SimulatedNetwork
from repro.simulation.queueing import (
    QueueStats,
    ServerOverloadedError,
    ServerQueue,
    ServiceTimeModel,
    _WorkerSchedule,
    check_count,
    water_fill,
)
from repro.worldgen.scenario import build_scenario


def drive_open_arrivals(queue: ServerQueue, interarrival_s: float, count: int) -> None:
    """Feed ``count`` arrivals spaced ``interarrival_s`` apart.

    ``process`` advances the clock past each request's completion (the caller
    waits synchronously), so the driver rewinds/advances the clock to each
    arrival instant — the same concurrent-branch pattern the workload engine
    uses for fleet rounds.
    """
    clock = queue.network.clock
    for index in range(count):
        arrival = index * interarrival_s
        if clock.now() > arrival:
            clock.rewind_to(arrival)
        elif clock.now() < arrival:
            clock.advance(arrival - clock.now())
        try:
            queue.process("search")
        except ServerOverloadedError:
            pass  # shed load still counts in queue.stats.dropped


class TestServiceTimeModel:
    def test_default_and_override(self):
        model = ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 8.0})
        assert model.service_ms("search") == 2.0
        assert model.service_ms("routing") == 8.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ServiceTimeModel(default_ms=-1.0)
        with pytest.raises(ValueError):
            ServiceTimeModel(per_kind_ms={"tiles": -0.5})


class TestCheckCount:
    @pytest.mark.parametrize("value", [1, 2, 100])
    def test_accepts_positive_ints(self, value):
        check_count("workers", value)

    @pytest.mark.parametrize("value", [0, -3, True, 2.5, "4", None])
    def test_rejects_everything_else_naming_the_field(self, value):
        with pytest.raises(ValueError, match="workers"):
            check_count("workers", value)


class TestServerQueue:
    def make_queue(self, service_ms: float = 10.0, capacity: int = 64) -> ServerQueue:
        return ServerQueue(
            network=SimulatedNetwork(),
            service_times=ServiceTimeModel(default_ms=service_ms),
            capacity=capacity,
        )

    def test_idle_server_charges_only_service_time(self):
        queue = self.make_queue(service_ms=10.0)
        total_ms = queue.process("search")
        assert total_ms == pytest.approx(10.0)
        assert queue.network.clock.now() == pytest.approx(0.010)
        assert queue.network.stats.total_latency_ms == pytest.approx(10.0)
        assert queue.stats.mean_wait_ms == 0.0

    def test_concurrent_arrivals_queue_behind_each_other(self):
        # Three requests arriving at the same instant (clock rewound between
        # them, as the workload engine does within a round) serialize: the
        # k-th pays k-1 service times of waiting.
        queue = self.make_queue(service_ms=10.0)
        clock = queue.network.clock
        totals = []
        for _ in range(3):
            clock.rewind_to(0.0)
            totals.append(queue.process("search"))
        assert totals == [pytest.approx(10.0), pytest.approx(20.0), pytest.approx(30.0)]
        assert queue.stats.max_depth == 2

    def test_backlog_drains_with_time(self):
        queue = self.make_queue(service_ms=10.0)
        clock = queue.network.clock
        for _ in range(3):
            clock.rewind_to(0.0)
            queue.process("search")
        clock.rewind_to(0.0)
        clock.advance(1.0)  # everything has completed by now
        assert queue.depth == 0
        assert queue.process("search") == pytest.approx(10.0)

    def test_bounded_queue_drops_when_full(self):
        queue = self.make_queue(service_ms=10.0, capacity=2)
        clock = queue.network.clock
        for _ in range(2):
            clock.rewind_to(0.0)
            queue.process("search")
        clock.rewind_to(0.0)
        with pytest.raises(ServerOverloadedError):
            queue.process("search")
        assert queue.stats.dropped == 1
        assert queue.stats.served == 2
        assert queue.stats.drop_rate == pytest.approx(1.0 / 3.0)

    def test_utilization_tracks_offered_load(self):
        # Offered load rho = service / interarrival; utilization ~= rho.
        for rho in (0.25, 0.5, 0.9):
            queue = self.make_queue(service_ms=10.0, capacity=10_000)
            drive_open_arrivals(queue, interarrival_s=0.010 / rho, count=400)
            window = 400 * (0.010 / rho)
            assert queue.stats.utilization(window) == pytest.approx(rho, rel=0.05)

    def test_utilization_approaches_one_at_saturation(self):
        # Offered load beyond the service rate: the server is busy the whole
        # horizon it worked through, i.e. utilization -> 1.
        queue = self.make_queue(service_ms=10.0, capacity=10_000)
        drive_open_arrivals(queue, interarrival_s=0.005, count=400)  # rho = 2
        utilization = queue.stats.utilization(queue.busy_until)
        assert utilization == pytest.approx(1.0, rel=0.01)
        assert queue.stats.mean_wait_ms > 100.0  # backlog grew without bound

    def test_deterministic(self):
        def one_run() -> dict[str, float]:
            queue = self.make_queue(service_ms=7.0, capacity=32)
            drive_open_arrivals(queue, interarrival_s=0.004, count=100)
            return queue.stats.snapshot(window_seconds=queue.busy_until)

        assert one_run() == one_run()

    def test_snapshot_fields(self):
        queue = self.make_queue()
        queue.process("search")
        snapshot = queue.stats.snapshot(window_seconds=1.0)
        for key in ("arrivals", "served", "dropped", "drop_rate", "busy_ms",
                    "mean_wait_ms", "mean_depth", "max_depth", "utilization"):
            assert key in snapshot

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            ServerQueue(network=SimulatedNetwork(), capacity=0)


class TestMapServerQueueWiring:
    def make_scenario(self, **config_kwargs):
        config = FederationConfig(
            service_times=ServiceTimeModel(default_ms=5.0, per_kind_ms={"routing": 12.0}),
            **config_kwargs,
        )
        return build_scenario(store_count=1, city_rows=3, city_cols=3, config=config, seed=11)

    def test_servers_get_queues_and_charge_latency(self):
        scenario = self.make_scenario()
        federation = scenario.federation
        assert all(server.queue is not None for server in federation.servers.values())
        client = federation.client()
        before = federation.network.stats.server_processing_ms
        client.search("milk", near=scenario.stores[0].entrance, radius_meters=200.0)
        after = federation.network.stats.server_processing_ms
        assert after > before  # the consulted servers' service time was charged

    def test_no_service_times_means_no_queue(self):
        scenario = build_scenario(store_count=1, city_rows=3, city_cols=3, seed=11)
        assert all(server.queue is None for server in scenario.federation.servers.values())

    def test_overloaded_server_is_skipped_not_fatal(self):
        config = FederationConfig(
            # One slot, and a service slow enough that the backlog outlives
            # the client's own DNS walk to the server.
            service_times=ServiceTimeModel(default_ms=60_000.0),
            server_queue_capacity=1,
        )
        scenario = build_scenario(store_count=1, city_rows=3, city_cols=3, config=config, seed=11)
        federation = scenario.federation
        server = scenario.store_server(0)
        # Saturate the store server's queue with a request whose completion
        # (at t=160s) outlives everything the client's fan-out does first —
        # including a full 60s service at the city server.
        clock = federation.network.clock
        clock.advance(100.0)
        server.queue.process("search")
        clock.rewind_to(10.0)
        client = federation.client()
        # The fan-out search must survive the overloaded server (it is
        # skipped like a denied one) and still consult the city server.
        result = client.search("milk", near=scenario.stores[0].entrance, radius_meters=200.0)
        assert result.servers_consulted >= 1
        assert server.queue.stats.dropped >= 1


class TestJitteredLatency:
    def test_default_latency_model_is_deterministic(self):
        model = LatencyModel()
        assert not model.is_stochastic
        network = SimulatedNetwork(latency=model)
        assert network.client_map_server_exchange() == pytest.approx(50.0)

    def test_jitter_varies_latency_reproducibly(self):
        model = LatencyModel(jitter_sigma=0.5)

        def draws(seed: int) -> list[float]:
            network = SimulatedNetwork(latency=model, jitter_seed=seed)
            network.reseed_jitter(7)
            return [network.client_map_server_exchange() for _ in range(5)]

        first = draws(1)
        assert draws(1) == first  # deterministic per seed/stream
        assert draws(2) != first  # distinct streams differ
        assert len(set(first)) > 1  # latency actually varies

    def test_loss_charges_retransmissions(self):
        model = LatencyModel(loss_probability=0.5)
        network = SimulatedNetwork(latency=model, jitter_seed=3)
        network.reseed_jitter(1)
        total = sum(network.client_map_server_exchange() for _ in range(50))
        assert network.stats.retransmissions > 0
        # Every retransmission costs one extra full round trip.
        expected = 50 * 50.0 + network.stats.retransmissions * 50.0
        assert total == pytest.approx(expected)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"jitter_sigma": -0.1}, "jitter_sigma"),
            ({"jitter_sigma": math.nan}, "jitter_sigma"),
            ({"jitter_sigma": math.inf}, "jitter_sigma"),
            ({"loss_probability": 1.0}, "loss probability"),
        ],
    )
    def test_invalid_knobs_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LatencyModel(**kwargs)


class TestQueueStatsEdgeCases:
    def test_empty_stats(self):
        stats = QueueStats()
        assert stats.drop_rate == 0.0
        assert stats.mean_wait_ms == 0.0
        assert stats.mean_depth == 0.0
        assert stats.utilization(0.0) == 0.0


class TestPhantomArrivals:
    """The cohort fast path's batch admission must match sequential reality."""

    def make_queue(self, service_ms: float = 10.0, capacity: int = 8, workers: int = 1) -> ServerQueue:
        return ServerQueue(
            network=SimulatedNetwork(),
            service_times=ServiceTimeModel(default_ms=service_ms),
            capacity=capacity,
            workers=workers,
        )

    def test_batch_matches_sequential_concurrent_admissions(self):
        """One phantom_arrivals(n) call must book the same aggregate stats as
        n sequential same-instant process() calls (the concurrent-round
        rewind pattern the engine uses)."""
        count = 30
        sequential = self.make_queue(service_ms=2.0, capacity=8, workers=3)
        clock = sequential.network.clock
        for _ in range(count):
            start = clock.now()
            try:
                sequential.process("search")
            except ServerOverloadedError:
                pass
            clock.rewind_to(start)

        batch = self.make_queue(service_ms=2.0, capacity=8, workers=3)
        batch.phantom_arrivals("search", count)

        a, b = sequential.stats, batch.stats
        assert (a.arrivals, a.served, a.dropped) == (b.arrivals, b.served, b.dropped)
        assert a.busy_ms == pytest.approx(b.busy_ms)
        assert a.wait_ms_total == pytest.approx(b.wait_ms_total)
        assert a.depth_total == b.depth_total
        assert a.max_depth == b.max_depth

    def test_phantoms_never_advance_the_clock(self):
        queue = self.make_queue()
        queue.phantom_arrivals("search", 5)
        assert queue.network.clock.now() == 0.0

    def test_later_real_request_queues_behind_phantom_load(self):
        """Phantom jobs occupy real worker time: a request issued after a
        batch waits behind it rather than seeing an idle server."""
        queue = self.make_queue(service_ms=10.0, capacity=8, workers=1)
        queue.phantom_arrivals("search", 3)
        total_ms = queue.process("search")
        assert total_ms == pytest.approx(40.0)  # 3 phantoms ahead + own service

    def test_capacity_bounds_batch_admission(self):
        queue = self.make_queue(service_ms=10.0, capacity=4, workers=2)
        admitted, dropped = queue.phantom_arrivals("search", 100)
        assert admitted == 8  # capacity x workers
        assert dropped == 92
        assert queue.stats.dropped == 92

    def test_kind_arrivals_tracks_per_kind_counts(self):
        queue = self.make_queue(capacity=64)
        queue.process("search")
        queue.process("search")
        queue.process("tiles")
        assert queue.kind_arrivals == {"search": 2, "tiles": 1}
        # ...and deliberately stays out of the committed snapshot keys.
        assert not any("kind" in key for key in queue.snapshot(window_seconds=1.0))

    def test_rejects_negative_count_and_accepts_zero(self):
        queue = self.make_queue()
        with pytest.raises(ValueError):
            queue.phantom_arrivals("search", -1)
        assert queue.phantom_arrivals("search", 0) == (0, 0)
        assert queue.stats.arrivals == 0


class TestInstantState:
    """A batch scans the workers at a new instant and keeps what it read;
    a batch at that instant again reads the kept state, which every commit
    since has kept exact, until a prune removes a span."""

    def make_queue(self) -> tuple[ServerQueue, list[float]]:
        """A checked 3-worker queue whose worker scans are logged by instant."""
        queue = checked(
            ServerQueue(
                network=SimulatedNetwork(), service_times=ServiceTimeModel(default_ms=10.0), capacity=4, workers=3
            )
        )
        scans: list[float] = []
        scan = queue._tail_state

        def logged(now):
            scans.append(now)
            return scan(now)

        queue._tail_state = logged
        return queue, scans

    @staticmethod
    def fresh(queue: ServerQueue) -> tuple:
        """The state a new scan at the kept instant reads."""
        at = queue._instant[0]
        return (at, *ServerQueue._tail_state(queue, at))

    def test_a_second_batch_at_an_instant_reads_the_state(self):
        queue, scans = self.make_queue()
        assert queue.phantom_arrivals("search", 5) == (5, 0)  # workers take 2, 2, 1
        assert queue._instant == (0.0, [0.02, 0.02, 0.01], [2, 2, 1], [2, 2, 3]) == self.fresh(queue)
        assert queue.phantom_arrivals("tiles", 4) == (4, 0)  # worker 2 first, then the 0.02 tie by index
        assert [schedule.jobs for schedule in queue._schedules] == [3, 3, 3]
        assert queue._instant == self.fresh(queue) and queue._instant[2:] == ([3, 3, 3], [1, 1, 1])
        assert scans == [0.0]

    def test_a_process_between_batches_changes_exactly_the_chosen_worker(self):
        queue, scans = self.make_queue()
        clock = queue.network.clock
        queue.phantom_arrivals("search", 5)
        at = queue._instant[0]
        tails, lives, caps = (list(part) for part in queue._instant[1:])
        clock.advance(0.015)  # worker 2's job has completed: it is idle
        assert queue.process("search") == 10.0
        tails[2], lives[2], caps[2] = 0.025, 2, 2  # its new job ends after the kept instant
        assert queue._instant == (at, tails, lives, caps) == self.fresh(queue)
        clock.rewind_to(0.0)
        assert queue.process("search") == 30.0  # 20 ms behind worker 0's two jobs, then served
        tails[0], lives[0], caps[0] = 0.03, 3, 1
        assert queue._instant == (at, tails, lives, caps) == self.fresh(queue)
        clock.rewind_to(0.0)  # a request advances the clock; the batch lands back at the kept instant
        assert queue.phantom_arrivals("search", 3) == (3, 0)
        assert scans == [0.0]

    def test_a_prune_that_removes_a_span_forgets_the_state(self):
        queue, scans = self.make_queue()
        queue.phantom_arrivals("search", 20)
        kept = queue._instant
        queue._prune_above = 0
        queue._prune(0.0)  # nothing has completed: no span removed
        assert queue._instant is kept
        queue._prune_above = 0
        queue._prune(500.0)
        assert queue._stored_spans == 0 and queue._instant is None
        assert queue.phantom_arrivals("search", 2) == (2, 0)
        assert scans == [0.0, 0.0]

    def test_a_batch_after_the_clock_moves_or_a_rewind_rescans(self):
        queue, scans = self.make_queue()
        clock = queue.network.clock
        queue.phantom_arrivals("search", 20)
        clock.advance(0.015)  # each worker's first job has completed
        assert queue.phantom_arrivals("search", 5) == (3, 2)
        assert queue._instant[0] == 0.015 and scans == [0.0, 0.015]
        assert queue.phantom_arrivals("search", 1) == (0, 1)
        assert scans == [0.0, 0.015]
        clock.rewind_to(0.0)  # one instant is kept: the earlier one is scanned again
        assert queue.phantom_arrivals("search", 1) == (0, 1)
        assert queue._instant == self.fresh(queue) and scans == [0.0, 0.015, 0.0]

    def test_jobs_of_a_new_run_that_end_at_the_instant_are_not_live_there(self):
        """A service time under half an ulp of the clock: an idle worker's
        first jobs end at the instant itself, so only the rest are live."""
        model = ServiceTimeModel(per_kind_ms={"tiles": 1e-13})
        queue = checked(ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=8, workers=2))
        queue.network.clock.advance(1.0)
        assert queue.phantom_arrivals("tiles", 9) == (9, 0)  # workers take 5 and 4
        assert queue._instant[2] == [3, 2] and queue._instant == self.fresh(queue)
        assert queue.phantom_arrivals("tiles", 9) == (9, 0)  # read, not rescanned: `checked` holds it to a scan

    def test_a_full_instant_drops_whole_and_a_process_there_raises(self):
        queue, scans = self.make_queue()
        assert queue.phantom_arrivals("search", 20) == (12, 8)
        assert sum(queue._instant[3]) == 0
        assert queue.phantom_arrivals("search", 7) == (0, 7)
        assert queue.phantom_arrivals("tiles", 2) == (0, 2)
        assert scans == [0.0]
        assert (queue.stats.arrivals, queue.stats.served, queue.stats.dropped) == (29, 12, 17)
        assert queue.kind_totals == {"search": 27, "tiles": 2}
        with pytest.raises(ServerOverloadedError):  # the full instant is full for a real request too
            queue.process("search")
        assert queue._instant == self.fresh(queue)


# --------------------------------------------------------------------------
# Reference model: the per-interval queue the run-length-encoded one replaced.
#
# ``ServerQueue`` stores each worker's schedule as runs and water-fills a
# phantom batch by selection (``water_fill``).  The oracle below is the
# implementation it replaced, kept verbatim in its arithmetic: one ``(start,
# end)`` pair per job, a per-interval placement walk, and the O(admitted ×
# workers) greedy loop.  It never prunes — pruning must not be observable —
# and it must agree with ``ServerQueue`` bit for bit, so every comparison
# below is ``==``.
# --------------------------------------------------------------------------


class _OracleWorkerFull(Exception):
    pass


class _OracleSchedule:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def live_count(self, now: float) -> int:
        return len(self.ends) - bisect_right(self.ends, now)

    def place(self, now: float, service_s: float, capacity: int) -> tuple[float, int]:
        first_live = bisect_right(self.ends, now)
        cursor = now
        queued_behind = 0
        for index in range(first_live, len(self.starts)):
            if self.starts[index] - cursor >= service_s:
                break
            interval_end = self.ends[index]
            if interval_end > cursor:
                cursor = interval_end
                queued_behind += 1
                if queued_behind >= capacity:
                    raise _OracleWorkerFull()
        return cursor, queued_behind

    def commit(self, start: float, service_s: float) -> None:
        insort(self.starts, start)
        insort(self.ends, start + service_s)


class OracleQueue:
    """The pre-rewrite ``ServerQueue`` scheduling core, stats included."""

    def __init__(self, network: SimulatedNetwork, service_times: ServiceTimeModel, capacity: int, workers: int) -> None:
        self.network = network
        self.service_times = service_times
        self.capacity = capacity
        self.workers = workers
        self.stats = QueueStats()
        self.schedules = [_OracleSchedule() for _ in range(workers)]

    @property
    def busy_until(self) -> float:
        return max((s.ends[-1] for s in self.schedules if s.ends), default=0.0)

    @property
    def depth(self) -> int:
        now = self.network.clock.now()
        return sum(schedule.live_count(now) for schedule in self.schedules)

    def process(self, kind: str) -> float:
        now = self.network.clock.now()
        self.stats.arrivals += 1
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0
        best: tuple[float, int, _OracleSchedule] | None = None
        for schedule in self.schedules:
            try:
                start, queued_behind = schedule.place(now, service_s, self.capacity)
            except _OracleWorkerFull:
                continue
            if best is None or start < best[0]:
                best = (start, queued_behind, schedule)
                if start <= now:
                    break
        if best is None:
            self.stats.dropped += 1
            raise ServerOverloadedError(kind)
        start, queued_behind, schedule = best
        self.stats.depth_total += queued_behind
        if queued_behind > self.stats.max_depth:
            self.stats.max_depth = queued_behind
        wait_ms = (start - now) * 1000.0
        schedule.commit(start, service_s)
        self.stats.served += 1
        self.stats.busy_ms += service_ms
        self.stats.wait_ms_total += wait_ms
        total_ms = wait_ms + service_ms
        self.network.server_processing(total_ms)
        return total_ms

    def phantom_arrivals(self, kind: str, count: int) -> tuple[int, int]:
        if count == 0:
            return (0, 0)
        now = self.network.clock.now()
        self.stats.arrivals += count
        service_ms = self.service_times.service_ms(kind)
        service_s = service_ms / 1000.0
        tails: list[float] = []
        lives: list[int] = []
        caps: list[int] = []
        for schedule in self.schedules:
            tails.append(max(now, schedule.ends[-1] if schedule.ends else 0.0))
            live = schedule.live_count(now)
            lives.append(live)
            caps.append(max(0, self.capacity - live))
        admitted = min(count, sum(caps))
        dropped = count - admitted
        self.stats.dropped += dropped
        if admitted == 0:
            return (0, dropped)
        assigned = [0] * self.workers
        if service_s <= 0.0:
            remaining = admitted
            while remaining:
                for index in range(self.workers):
                    if remaining and assigned[index] < caps[index]:
                        take = min(remaining, caps[index] - assigned[index])
                        assigned[index] += take
                        remaining -= take
        else:
            for _ in range(admitted):
                best_index = -1
                best_finish = math.inf
                for index in range(self.workers):
                    if assigned[index] >= caps[index]:
                        continue
                    finish = tails[index] + assigned[index] * service_s
                    if finish < best_finish:
                        best_finish = finish
                        best_index = index
                assigned[best_index] += 1
        for index, jobs in enumerate(assigned):
            if not jobs:
                continue
            schedule = self.schedules[index]
            tail = tails[index]
            for position in range(jobs):
                start = tail + position * service_s
                schedule.commit(start, service_s)
                self.stats.wait_ms_total += (start - now) * 1000.0
                queued_behind = lives[index] + position
                self.stats.depth_total += queued_behind
                if queued_behind > self.stats.max_depth:
                    self.stats.max_depth = queued_behind
            self.stats.served += jobs
            self.stats.busy_ms += jobs * service_ms
        return (admitted, dropped)


# --------------------------------------------------------------------------
# Reference walk: the per-span admission the counts and the gap index replaced.
#
# ``_WorkerSchedule.place`` and ``live_count`` answer by lookup.  The bodies
# below are the walks they replaced, verbatim: ``walk_place`` visits every
# live job (a run in one step where its ``jump_above`` allows) and
# ``walk_live_count`` counts them one span at a time.  ``CheckedSchedule``
# asks both on every call a queue makes and requires ``==``.
# --------------------------------------------------------------------------


def walk_first_live(run: tuple[float, float, int, int, float], now: float) -> int:
    base, service_s, lo, hi, _ = run
    job = lo
    if service_s > 0.0 and now > base:
        job = int(max(lo, min(hi - 1, (now - base) / service_s - 1.0)))
    while (base + job * service_s) + service_s <= now:
        job += 1
    while job > lo and (base + (job - 1) * service_s) + service_s > now:
        job -= 1
    return job


def walk_live_count(schedule: _WorkerSchedule, now: float) -> int:
    first = bisect_right(schedule.ends, now)
    live = 0
    for index in range(first, len(schedule.ends)):
        run = schedule.runs[index]
        if run is None:
            live += 1
        else:
            live += run[3] - (run[2] if index > first else walk_first_live(run, now))
    return live


def walk_place(
    schedule: _WorkerSchedule, now: float, service_s: float, capacity: int
) -> tuple[float, int, int, int] | None:
    starts, ends, runs = schedule.starts, schedule.ends, schedule.runs
    first = bisect_right(ends, now)
    cursor = now
    queued_behind = 0
    for index in range(first, len(ends)):
        run = runs[index]
        if run is None:
            if starts[index] - cursor >= service_s:
                return cursor, queued_behind, index, 0
            if ends[index] > cursor:
                cursor = ends[index]
                queued_behind += 1
        else:
            base, run_service_s, lo, hi, jump_above = run
            job = lo if index > first else walk_first_live(run, now)
            start = base + job * run_service_s
            if service_s > jump_above and start - cursor < service_s and start + run_service_s > cursor:
                cursor = ends[index]
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
    return cursor, queued_behind, len(ends), 0


class CheckedSchedule(_WorkerSchedule):
    """A schedule whose every ``place`` / ``live_count`` answer is the walk's,
    and whose every known ``bound`` is the start of a walk that cannot fill."""

    def bound(self, now, service_s):
        bound = super().bound(now, service_s)
        if bound is not None:
            assert bound == walk_place(self, now, service_s, self.jobs + 1)[0]
        return bound

    def place(self, now, service_s, capacity):
        placed = super().place(now, service_s, capacity)
        assert placed == walk_place(self, now, service_s, capacity)
        return placed

    def live_count(self, now):
        live = super().live_count(now)
        assert live == walk_live_count(self, now)
        return live


def checked(queue: ServerQueue) -> ServerQueue:
    """``queue`` with walk-checked schedules sharing its level tables.  Before
    each ``phantom_arrivals`` a batch's inlined live counts are checked
    against the walk, and so is the instant state the queue keeps: it equals
    a fresh ``_tail_state`` scan of its instant, whose live counts are the
    walk's.  After each, every worker's indexes agree with its spans."""
    shared = queue._schedules[0]
    queue._schedules = [CheckedSchedule(levels=shared.levels, _stops=shared._stops) for _ in range(queue.workers)]
    admit = queue.phantom_arrivals

    def phantom_arrivals(kind, count):
        for schedule in queue._schedules:
            schedule.live_count(queue.network.clock.now())
        if queue._instant is not None:
            at, tails, lives, caps = queue._instant
            assert (tails, lives, caps) == ServerQueue._tail_state(queue, at)
            assert lives == [walk_live_count(schedule, at) for schedule in queue._schedules]
        result = admit(kind, count)
        for schedule in queue._schedules:
            assert_indexes_consistent(schedule)
        return result

    queue.phantom_arrivals = phantom_arrivals
    return queue


def assert_indexes_consistent(schedule: _WorkerSchedule) -> None:
    """Counts, job total and marks agree with the spans they index."""
    assert len(schedule.counts) == len(schedule.marks) == len(schedule.ends)
    assert schedule.counts == [1 if run is None else run[3] - run[2] for run in schedule.runs]
    assert schedule.jobs == sum(schedule.counts)
    # Mark 0 is never read (the walk resolves the first live span) and goes
    # stale when a prune removes its predecessor.
    marks = [bisect_right(schedule.levels, schedule._stop_at(index)) for index in range(1, len(schedule.ends))]
    assert list(schedule.marks[1:]) == marks
    assert schedule.last_stop == max([index for index, mark in enumerate(schedule.marks) if mark], default=-1)


KINDS = ("search", "routing", "tiles")

# Any non-negative service time, weighted toward round configured values and
# toward ones at or below an ulp of the clock (1e-13 ms against seconds),
# which fit *between* two back-to-back jobs and so may not jump a run whole.
service_ms_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 10.0, 1000.0 / 3.0, 1e-13, 1e-12, 1e-9]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
queue_shapes = st.tuples(
    st.integers(min_value=1, max_value=5),  # workers
    st.integers(min_value=1, max_value=12),  # capacity
    st.tuples(service_ms_values, service_ms_values, service_ms_values),
)
# Rewinds stay within the prune lag of the latest arrival, as the engine's do.
queue_ops = st.one_of(
    st.tuples(st.just("process"), st.sampled_from(KINDS)),
    st.tuples(st.just("phantom"), st.sampled_from(KINDS), st.integers(min_value=0, max_value=40)),
    st.tuples(
        st.just("advance"),
        st.sampled_from([0.001, 0.0025, 0.01, 1.0, 150.0]) | st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    ),
    st.tuples(
        st.just("rewind"),
        st.sampled_from([0.001, 0.0025, 0.01, 1.0]) | st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    ),
)


def make_pair(workers: int, capacity: int, kind_ms: tuple[float, ...]) -> tuple[ServerQueue, OracleQueue]:
    model = ServiceTimeModel(per_kind_ms=dict(zip(KINDS, kind_ms)))
    queue = checked(ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=capacity, workers=workers))
    oracle = OracleQueue(SimulatedNetwork(), model, capacity, workers)
    return queue, oracle


def apply_op(queue, op: tuple, high_water: float) -> object:
    """Run one drawn operation; returns what a caller would observe."""
    clock = queue.network.clock
    if op[0] == "process":
        try:
            return queue.process(op[1])
        except ServerOverloadedError:
            return "overloaded"
    if op[0] == "phantom":
        return queue.phantom_arrivals(op[1], op[2])
    if op[0] == "advance":
        return clock.advance(op[1])
    floor = max(0.0, high_water - 100.0)
    return clock.rewind_to(max(floor, clock.now() - op[1]))


def worker_jobs(schedule) -> list[tuple[float, float]]:
    """Every stored job of one worker, in schedule order, from its spans."""
    jobs = []
    for start, end, run in zip(schedule.starts, schedule.ends, schedule.runs, strict=True):
        if run is None:
            jobs.append((start, end))
            continue
        base, service_s, lo, hi, _ = run
        span = [(base + k * service_s, (base + k * service_s) + service_s) for k in range(lo, hi)]
        assert (span[0][0], span[-1][1]) == (start, end)
        jobs.extend(span)
    return jobs


class TestRunLengthQueueMatchesOracle:
    """``ServerQueue`` vs the per-interval oracle: equal, not approximately."""

    @settings(max_examples=300, deadline=None)
    @given(shape=queue_shapes, ops=st.lists(queue_ops, max_size=60), prune_always=st.booleans())
    # A zero-length job arriving exactly where one batch job ends and the
    # next begins lands *inside* the run, which must split around it.
    @example(
        shape=(1, 8, (10.0, 0.0, 10.0)),
        prune_always=False,
        ops=[
            ("phantom", "search", 4),
            ("advance", 0.01),
            ("process", "routing"),
            ("process", "search"),
            ("rewind", 0.02),
            ("process", "search"),
        ],
    )
    # Rewinding into the middle of a committed run: only its live suffix
    # counts as backlog, and a batch appended behind it levels across workers.
    @example(
        shape=(3, 4, (2.0, 2.0, 2.5)),
        prune_always=True,
        ops=[
            ("phantom", "search", 9),
            ("advance", 0.005),
            ("phantom", "tiles", 7),
            ("rewind", 0.003),
            ("process", "routing"),
            ("advance", 150.0),
            ("process", "tiles"),
        ],
    )
    # A zero-service batch is a run of identical empty jobs: a later request
    # queues behind one of them, not all (found by jumping such runs whole).
    @example(
        shape=(1, 2, (0.0, 2.0, 0.0)),
        prune_always=False,
        ops=[("advance", 0.001), ("phantom", "search", 2), ("rewind", 0.001), ("process", "routing")],
    )
    # After a rewind more jobs are live than the buffer holds.  A request that
    # walks a run job by job is shed the moment it is behind `capacity` of
    # them, even though a later job of the same run leaves a gap it would fit
    # (found by dropping the capacity guard from the per-job walk).
    @example(
        shape=(1, 6, (1e-12, 0.0, 5473.8125)),
        prune_always=False,
        ops=[
            ("process", "search"),
            ("process", "tiles"),
            ("phantom", "tiles", 6),
            ("rewind", 0.001),
            ("process", "search"),
        ],
    )
    # A batch on a worker idle at the instant: its run starts after a gap
    # the other kinds fit in, so its mark is nonzero and it is `last_stop`;
    # a request rewound into the gap is served there.
    @example(
        shape=(2, 8, (2.0, 2.0, 2.0)),
        prune_always=False,
        ops=[
            ("phantom", "search", 2),
            ("advance", 1.0),
            ("phantom", "tiles", 3),
            ("rewind", 0.5),
            ("process", "routing"),
        ],
    )
    # The first span on an empty worker, then a second batch behind it.
    @example(
        shape=(3, 4, (1.0, 1.0, 1.0)),
        prune_always=False,
        ops=[("phantom", "search", 5), ("phantom", "search", 4), ("process", "search")],
    )
    # One job per worker: every span stored is a single job (`run` is None).
    @example(
        shape=(3, 4, (2.0, 2.0, 2.0)),
        prune_always=False,
        ops=[("phantom", "search", 3), ("advance", 0.001), ("phantom", "routing", 3), ("process", "tiles")],
    )
    # A service time below a quarter ulp of the clock: the batch's runs may
    # not be jumped whole (`jump_above` is inf), and a later request walks them.
    @example(
        shape=(2, 6, (1e-13, 2.0, 2.0)),
        prune_always=False,
        ops=[("advance", 1.0), ("phantom", "search", 5), ("process", "search"), ("phantom", "search", 7)],
    )
    # Workers 0 and 1 share a tail (0.004) and take one job each, but hold one
    # and two live jobs: equal runs, different depths and rooms after.
    @example(
        shape=(2, 3, (2.0, 4.0, 2.0)),
        prune_always=False,
        ops=[
            ("process", "routing"),
            ("rewind", 0.004),
            ("process", "search"),
            ("rewind", 0.002),
            ("process", "search"),
            ("rewind", 0.004),
            ("phantom", "search", 2),
            ("phantom", "tiles", 4),
        ],
    )
    def test_every_observable_equals_the_oracle(self, shape, ops, prune_always):
        queue, oracle = make_pair(*shape)
        high_water = 0.0
        for op in ops:
            if prune_always:
                queue._prune_above = 0  # force a prune scan on the next arrival
            high_water = max(high_water, queue.network.clock.now())
            assert apply_op(queue, op, high_water) == apply_op(oracle, op, high_water)
            assert queue.stats == oracle.stats
            assert queue.busy_until == oracle.busy_until
            assert queue.depth == oracle.depth
            assert queue.network.clock.now() == oracle.network.clock.now()
        for schedule, reference in zip(queue._schedules, oracle.schedules):
            if not prune_always:
                assert worker_jobs(schedule) == list(zip(reference.starts, reference.ends))

    def test_tiny_job_fits_the_ulp_gap_inside_a_run(self):
        """Job 5 of this batch ends one ulp before job 6 starts.  A request
        shorter than that ulp, arriving exactly then, is served in the gap —
        so it must not jump the run — and splits it without moving a job."""
        queue, oracle = make_pair(1, 12, (2.0, 1e-15, 2.0))
        gap_opens = (0.001 + 5 * 0.002) + 0.002
        assert (0.001 + 6 * 0.002) - gap_opens >= 1e-18
        for side in (queue, oracle):
            side.network.clock.advance(0.001)
            side.phantom_arrivals("search", 8)
            side.network.clock.advance(1.0)
            side.network.clock.rewind_to(gap_opens)  # rewinding sets the instant exactly
        assert queue.process("routing") == oracle.process("routing") == 1e-15
        assert [run and run[2:4] for run in queue._schedules[0].runs] == [(0, 6), None, (6, 8)]
        assert worker_jobs(queue._schedules[0]) == list(zip(oracle.schedules[0].starts, oracle.schedules[0].ends))
        for side in (queue, oracle):
            side.network.clock.rewind_to(0.004)
        assert queue.process("tiles") == oracle.process("tiles")
        assert queue.stats == oracle.stats and queue.stats.max_depth == 8

    def test_saturated_batch_matches_oracle_at_fleet_scale(self):
        """The cohort path's shape: many workers, deep buffers, batches that
        overflow them, real requests rewound between batches."""
        queue, oracle = make_pair(16, 64, (4.0, 12.0, 1.5))
        for step in range(3):
            for tracer in range(12):
                for side in (queue, oracle):
                    side.network.clock.rewind_to(step * 2.0)
                    side.network.clock.advance(0.0007 * tracer)
                kind = KINDS[tracer % 3]
                assert apply_op(queue, ("process", kind), 0.0) == apply_op(oracle, ("process", kind), 0.0)
                assert queue.phantom_arrivals(kind, 311) == oracle.phantom_arrivals(kind, 311)
                assert queue.stats == oracle.stats
            for side in (queue, oracle):
                side.network.clock.advance_to(max(side.network.clock.now(), (step + 1) * 2.0))
        assert queue.stats.dropped > 0 and queue.stats.served > 16 * 64
        assert queue.busy_until == oracle.busy_until
        assert sum(len(s.runs) for s in queue._schedules) < queue.stats.served // 4


class QueueMachine(RuleBasedStateMachine):
    """Interleaved process / phantom / clock moves / forced prunes.

    Two ``ServerQueue``s take the same operations; only one is ever pruned,
    so any observable effect of pruning shows up as a difference.
    """

    @initialize(shape=queue_shapes)
    def build(self, shape):
        workers, capacity, kind_ms = shape
        model = ServiceTimeModel(per_kind_ms=dict(zip(KINDS, kind_ms)))
        self.queue = checked(
            ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=capacity, workers=workers)
        )
        self.unpruned = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=capacity, workers=workers)
        self.unpruned._prune_above = 10**9
        self.high_water = 0.0

    @rule(op=queue_ops)
    def operate(self, op):
        self.high_water = max(self.high_water, self.queue.network.clock.now())
        result = apply_op(self.queue, op, self.high_water)
        assert result == apply_op(self.unpruned, op, self.high_water)
        if op[0] == "process" and result != "overloaded":
            assert result >= self.queue.service_times.service_ms(op[1])  # wait >= 0

    @rule()
    def prune(self):
        self.queue._prune_above = 0
        self.queue._prune(self.queue.network.clock.now())

    @invariant()
    def conserved_and_bounded(self):
        stats = self.queue.stats
        assert stats.arrivals == stats.served + stats.dropped
        assert stats.wait_ms_total >= 0.0
        assert stats.max_depth < self.queue.capacity  # queued_behind < capacity
        assert stats == self.unpruned.stats
        assert self.queue.depth == self.unpruned.depth
        assert self.queue.busy_until == self.unpruned.busy_until
        assert self.queue._stored_spans == sum(len(s.runs) for s in self.queue._schedules)
        for schedule in self.queue._schedules:
            assert_indexes_consistent(schedule)

    @invariant()
    def worker_runs_never_overlap(self):
        for schedule in self.queue._schedules:
            jobs = worker_jobs(schedule)
            for (start, end), (next_start, next_end) in zip(jobs, jobs[1:]):
                assert start <= next_start and end <= next_end
                # Back-to-back jobs are computed from their run's base, not
                # chained, so they may meet a few ulp early — never more.
                assert next_start - end >= -4.0 * math.ulp(end)


QueueMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestQueueMachine = QueueMachine.TestCase


# Service times (seconds) a schedule is probed with: configured-looking values,
# zero, and one below an ulp of the clock that fits between a run's jobs.
SCHEDULE_SERVICES = (0.0, 1e-15, 1e-4, 0.0005, 0.0015, 0.004)


class ScheduleMachine(RuleBasedStateMachine):
    """One worker schedule driven as a queue drives it — placements committed
    where ``place`` puts them, batches appended at the tail, prunes — and
    probed between moves, at instants on its own span boundaries and at
    service times tied to its own gaps: exactly a gap, and one ulp either
    side.  Every ``place`` / ``live_count`` answer is the walk's."""

    @initialize(capacity=st.integers(min_value=1, max_value=12))
    def build(self, capacity):
        self.schedule = CheckedSchedule()
        self.capacity = capacity

    def _instant(self, data) -> float:
        bounds = self.schedule.starts + self.schedule.ends
        drawn = st.floats(min_value=0.0, max_value=0.02, allow_nan=False)
        return data.draw(st.sampled_from(bounds) | drawn if bounds else drawn)

    def _tied(self, data) -> list[float]:
        """A stored gap and its two float neighbours (the non-negative ones)."""
        schedule = self.schedule
        if len(schedule.ends) < 2:
            return []
        index = data.draw(st.integers(min_value=1, max_value=len(schedule.ends) - 1))
        gap = schedule.starts[index] - schedule.ends[index - 1]
        return [s for s in (gap, math.nextafter(gap, -math.inf), math.nextafter(gap, math.inf)) if s >= 0.0]

    @rule(data=st.data(), tied=st.booleans())
    def admit(self, data, tied):
        choices = (self._tied(data) if tied else []) or list(SCHEDULE_SERVICES)
        service_s = data.draw(st.sampled_from(choices))
        placed = self.schedule.place(self._instant(data), service_s, self.capacity)
        if placed is not None:
            start, _, span, job = placed
            self.schedule.insert(span, job, start, service_s, 1)

    @rule(data=st.data(), service_s=st.sampled_from(SCHEDULE_SERVICES), jobs=st.integers(min_value=1, max_value=9))
    def batch(self, data, service_s, jobs):
        ends = self.schedule.ends
        tail = max(self._instant(data), ends[-1] if ends else 0.0)
        self.schedule.insert(len(ends), 0, tail, service_s, jobs)

    @rule(data=st.data())
    def prune(self, data):
        self.schedule.prune(self._instant(data))

    @rule(data=st.data(), capacity=st.integers(min_value=1, max_value=12))
    def probe(self, data, capacity):
        now = self._instant(data)
        for service_s in self._tied(data) + list(SCHEDULE_SERVICES):
            self.schedule.bound(now, service_s)
            self.schedule.place(now, service_s, capacity)
            self.schedule.bound(now, service_s)
        self.schedule.live_count(now)

    @invariant()
    def indexes_agree_with_the_spans(self):
        assert_indexes_consistent(self.schedule)


ScheduleMachine.TestCase.settings = settings(max_examples=80, stateful_step_count=30, deadline=None)
TestScheduleMachine = ScheduleMachine.TestCase


class TestAdmissionByLookup:
    """``place`` / ``live_count`` answer by lookup, the walk's answers exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        workers=st.integers(min_value=1, max_value=3),
        capacity=st.integers(min_value=1, max_value=4),
        kind_ms=st.tuples(*[st.sampled_from([0.5, 1.5, 2.5, 4.0, 1000.0 / 3.0])] * 3),
        bursts=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=0.05, allow_nan=False), st.lists(st.sampled_from(KINDS))),
            min_size=1,
            max_size=6,
        ),
    )
    def test_saturated_bursts_match_the_oracle(self, workers, capacity, kind_ms, bursts):
        """Saturated workers: every burst ends with twice as many same-kind
        requests at one instant as all workers together may hold, so at
        least half of those are shed."""
        queue, oracle = make_pair(workers, capacity, kind_ms)
        for instant, kinds in bursts:
            for kind in kinds + ["search"] * (2 * workers * capacity):
                for side in (queue, oracle):
                    side.network.clock.rewind_to(min(instant, side.network.clock.now()))
                    side.network.clock.advance_to(instant)
                assert apply_op(queue, ("process", kind), 0.0) == apply_op(oracle, ("process", kind), 0.0)
            assert queue.stats == oracle.stats
        assert queue.stats.dropped >= workers * capacity * len(bursts)

    def test_count_budget_on_a_saturated_worker(self):
        """Python lines run per ``place`` on one worker at capacity 512
        holding 400+ live single jobs separated by mixed gaps stay within
        ``C * log2(spans) + K`` — the walk ran several lines per live span."""
        C, K = 2, 36
        schedule = CheckedSchedule()
        rng = random.Random(12)
        services = (0.0005, 0.0015, 0.0025, 0.004)
        # 300 arrivals 4 ms apart leave gaps of 0-3.5 ms; then a burst at one
        # instant packs the worker back to back until its buffer is full.
        arrivals = [0.2 + 0.004 * k for k in range(300)] + [1.5] * 600
        for arrival in arrivals:
            service_s = rng.choice(services)
            placed = schedule.place(arrival, service_s, 512)
            if placed is not None:
                start, _, span, job = placed
                schedule.insert(span, job, start, service_s, 1)
        probes = [(rng.uniform(0.0, 1.6), rng.choice(services)) for _ in range(200)]
        for now, service_s in probes:  # every level indexed, answers checked against the walk
            schedule.place(now, service_s, 512)
        assert all(run is None for run in schedule.runs)
        assert schedule.live_count(0.0) >= 800 and schedule.live_count(1.5) >= 400

        lines = 0
        outcomes = set()

        def count_lines(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_filename.endswith("queueing.py"):
                if event == "line":
                    lines += 1
                return count_lines
            return None

        for now, service_s in probes:
            spans = len(schedule.ends) - bisect_right(schedule.ends, now)
            lines = 0
            sys.settrace(count_lines)
            try:
                placed = _WorkerSchedule.place(schedule, now, service_s, 512)
            finally:
                sys.settrace(None)
            outcomes.add("rejected" if placed is None else "tail" if placed[2] == len(schedule.ends) else "gap")
            assert lines <= C * math.log2(spans) + K, (lines, spans)
        assert {"rejected", "gap"} <= outcomes


    def test_a_256th_service_time_starts_the_levels_over(self):
        """A mark is one byte, so a worker indexes at most 255 service times;
        the next one re-indexes it from that level alone."""
        schedule = CheckedSchedule()
        for k in range(40):  # gaps from 2 ms down to 1.6 ms
            schedule.insert(len(schedule.ends), 0, 0.003 * k, 0.001 + 0.00001 * k, 1)
        for k in range(300):
            schedule.place(0.0, k * 1e-5, 64)
        assert len(schedule.levels) == 300 - 255
        assert_indexes_consistent(schedule)


class TestLevelsFromTheModel:
    """A queue's workers share one gap-index table of its model's service
    times, so ``bound`` answers for every kind from the first request on."""

    def test_workers_share_one_table_and_learning_a_level_leaves_it(self):
        model = ServiceTimeModel(default_ms=2.0, per_kind_ms={"routing": 4.0, "tiles": 0.5, "search": 2.0})
        queue = ServerQueue(network=SimulatedNetwork(), service_times=model, workers=4)
        shared = queue._schedules[0]
        assert shared.levels == [0.0005, 0.002, 0.004]
        assert all(s.levels is shared.levels and s._stops is shared._stops for s in queue._schedules)
        levels, stops = list(shared.levels), dict(shared._stops)
        worker = queue._schedules[1]
        worker.insert(0, 0, 0.0, 0.002, 3)
        for kind in ("routing", "tiles", "geocode"):
            assert worker.bound(0.0, model.service_ms(kind) / 1000.0) == 0.006
        worker.place(0.0, 0.003, queue.capacity)  # a level outside the model
        assert worker.levels == [0.0005, 0.002, 0.003, 0.004] and 0.003 in worker._stops
        assert (shared.levels, shared._stops) == (levels, stops) and 0.003 not in shared._stops
        assert all(s.levels is shared.levels for s in queue._schedules if s is not worker)
        assert_indexes_consistent(worker)

    def test_a_model_with_more_times_than_a_mark_counts_shares_no_table(self):
        """A mark is one byte: past 255 service times each worker learns its own."""
        model = ServiceTimeModel(per_kind_ms={f"kind{k}": 1.0 + k / 100 for k in range(300)})
        queue = checked(ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=4, workers=2))
        assert queue._schedules[0].levels == []
        for k in (0, 299, 0):
            queue.network.clock.rewind_to(0.0)
            queue.process(f"kind{k}")
        first, second = queue._schedules
        expected = sorted(model.service_ms(kind) / 1000.0 for kind in ("kind0", "kind299"))
        assert first.levels == second.levels == expected and first.levels is not second.levels
        for schedule in queue._schedules:
            assert_indexes_consistent(schedule)


@dataclass
class CountingSchedule(CheckedSchedule):
    """A checked schedule that counts the ``place`` calls made on it."""

    calls: int = 0

    def place(self, now, service_s, capacity):
        self.calls += 1
        return super().place(now, service_s, capacity)


class TestProbeBudget:
    """``process`` asks few workers' ``place``: the ones whose ``bound`` is
    unknown, and the ones ordered by tail that can still win."""

    def test_fleet_shaped_rounds_probe_few_workers(self):
        """The cohort path's shape at its worker count: 100 workers at
        capacity 512; each tracer arrives a client's round trip after the
        round starts, and its batch of the same kind lands back at the round
        start, behind everything queued (the engine rewinds to charge it).
        Scanning the workers until one is idle asked ≈ 96 per arrival here."""
        model = ServiceTimeModel(per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5})
        queue = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=512, workers=100)
        shared = queue._schedules[0]
        queue._schedules = [CountingSchedule(levels=shared.levels, _stops=shared._stops) for _ in range(queue.workers)]
        clock = queue.network.clock
        for step in range(3):
            round_start = step * 2.0
            for tracer in range(64):
                clock.rewind_to(min(clock.now(), round_start))
                clock.advance_to(round_start + 0.05 + 0.0003 * tracer)
                kind = KINDS[tracer % 3]
                apply_op(queue, ("process", kind), 0.0)
                clock.rewind_to(round_start)
                queue.phantom_arrivals(kind, 900)
            clock.advance_to(round_start + 2.0)
        arrivals = sum(queue.kind_arrivals.values())
        assert arrivals == 192 and queue.stats.dropped > 0
        assert sum(schedule.calls for schedule in queue._schedules) / arrivals <= 4.0

    def test_equal_tails_go_to_the_lower_index(self):
        """Workers 1 and 2 both start the request at their common tail.
        Worker 2 has not indexed this service time (it does not share the
        queue's level tables), so its bound is unknown and it is asked first;
        worker 1 is known to start at its tail and is asked after it.  The
        lower index still wins the tie."""
        queue = checked(ServerQueue(network=SimulatedNetwork(), capacity=4, workers=3))
        service_s = queue.service_times.service_ms("search") / 1000.0
        worker_0, worker_1, worker_2 = queue._schedules
        worker_2.levels, worker_2._stops = [], {}
        worker_0.insert(0, 0, 0.0, 0.005, 1)
        for schedule in (worker_1, worker_2):
            schedule.insert(0, 0, 0.0, 0.003, 1)
        worker_1.place(0.0, service_s, queue.capacity)  # indexes the level
        assert worker_1.bound(0.0, service_s) == 0.003 and worker_2.bound(0.0, service_s) is None
        assert queue.process("search") == 3.0 + 2.0
        assert [schedule.jobs for schedule in queue._schedules] == [1, 2, 1]


class TestBatchCommitBudget:
    """A phantom batch stores each worker's run through ``append`` alone and
    builds one span per class of workers with equal ``(tail, jobs, live)``.
    Counts calls; times nothing."""

    def test_fleet_shaped_batches_build_one_span_per_class(self, monkeypatch):
        """The rounds of ``TestProbeBudget``'s fleet shape: 100 workers at
        capacity 512, each tracer's batch landing at the round start."""
        model = ServiceTimeModel(per_kind_ms={"search": 1.5, "routing": 4.0, "tiles": 0.5})
        queue = ServerQueue(network=SimulatedNetwork(), service_times=model, capacity=512, workers=100)
        calls = Counter()

        def counting(name, method):
            def count(*args):
                calls[name] += 1
                return method(*args)

            return count

        monkeypatch.setattr(_WorkerSchedule, "span", staticmethod(counting("span", _WorkerSchedule.span)))
        monkeypatch.setattr(_WorkerSchedule, "append", counting("append", _WorkerSchedule.append))
        monkeypatch.setattr(_WorkerSchedule, "insert", counting("insert", _WorkerSchedule.insert))
        fill = queueing.water_fill
        split = {}  # the batch's committing workers and their classes

        def spied_fill(tails, caps, admitted, service_s):
            assigned = fill(tails, caps, admitted, service_s)
            committing = [(tail, jobs, live) for tail, jobs, live in zip(tails, assigned, queue._instant[2]) if jobs]
            split.update(workers=len(committing), classes=len(set(committing)))
            return assigned

        monkeypatch.setattr(queueing, "water_fill", spied_fill)
        clock = queue.network.clock
        totals = Counter()
        for step in range(3):
            round_start = step * 2.0
            for tracer in range(64):
                clock.rewind_to(min(clock.now(), round_start))
                clock.advance_to(round_start + 0.05 + 0.0003 * tracer)
                kind = KINDS[tracer % 3]
                apply_op(queue, ("process", kind), 0.0)
                clock.rewind_to(round_start)
                before = calls.copy()
                split.update(workers=0, classes=0)
                queue.phantom_arrivals(kind, 900)
                batch = calls - before
                assert batch["insert"] == 0
                assert batch["append"] == split["workers"]
                assert batch["span"] <= split["classes"]
                totals.update(batch)
            clock.advance_to(round_start + 2.0)
        assert queue.stats.dropped > 0
        assert 0 < totals["span"] < totals["append"] / 5  # 2,510 spans for 17,091 workers


# --------------------------------------------------------------------------
# Reference water-fill: the heap merge ``water_fill`` replaced.
#
# ``water_fill`` picks the ``admitted`` earliest finishes by a bisected level
# and a proven band.  ``heap_water_fill`` below is the loop it replaced,
# verbatim: one heap step per admitted job.  Inputs are drawn at fleet scale
# (up to 128 workers, 512 slots each) and aimed at the band's edges: ties,
# ulp-adjacent tails, tails near 1e9, a tail one service time late, and
# service times from subnormal up, where the margin must cap at the room.
# --------------------------------------------------------------------------


def heap_water_fill(tails: list[float], caps: list[int], admitted: int, service_s: float) -> list[int]:
    workers = len(tails)
    assigned = [0] * workers
    heap = [(tails[index], index) for index in range(workers) if caps[index]]
    heapify(heap)
    for _ in range(admitted):
        index = heap[0][1]
        assigned[index] = taken = assigned[index] + 1
        if taken < caps[index]:
            heapreplace(heap, (tails[index] + taken * service_s, index))
        else:
            heappop(heap)
    return assigned


fill_service_s = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1.5e-265, 1e-15, 1e-13, 1e-9, 0.0005, 0.0015, 0.002, 0.004, 0.012, 1 / 3]),
    st.floats(min_value=5e-324, max_value=1 / 3),
)


@st.composite
def water_fill_inputs(draw) -> tuple[list[float], list[int], int, float]:
    """``(tails, caps, admitted, service_s)`` as ``phantom_arrivals`` passes them.

    Each worker's tail is coded by one integer (integer lists draw fast):
    negative is that many ulps above ``now``, 0 is ``now`` itself (idle
    workers tie), 1–40 is that many service times late, and 41–44 picks one
    of four free offsets of up to 2 s.
    """
    service_s = draw(fill_service_s)
    now = draw(st.sampled_from([0.0, 0.1, 2.0, 1e9 - 3.0, 1e9]) | st.floats(min_value=0.0, max_value=1e9))
    free = draw(st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=4, max_size=4))
    workers = draw(st.integers(min_value=1, max_value=128))
    tails = []
    for code in draw(st.lists(st.integers(min_value=-4, max_value=44), min_size=workers, max_size=workers)):
        tail = now
        for _ in range(-code):
            tail = math.nextafter(tail, math.inf)
        if 0 < code <= 40:
            tail = now + code * service_s
        elif code > 40:
            tail = now + free[code - 41]
        tails.append(tail)
    caps = draw(st.lists(st.integers(min_value=0, max_value=512), min_size=workers, max_size=workers))
    caps[draw(st.integers(min_value=0, max_value=workers - 1))] |= 1  # some worker has room
    admitted = draw(st.integers(min_value=1, max_value=sum(caps)))
    return tails, caps, admitted, service_s


class TestWaterFillMatchesHeap:
    """``water_fill`` vs the heap merge it replaced: equal, worker by worker.
    Hypothesis draws each worker's tail from a few codes, so most draws put
    many workers in one class of equal ``(tail, room)``."""

    @settings(max_examples=150, deadline=None)
    @given(inputs=water_fill_inputs())
    # A service time so small that U/s is ~1e249 jobs: the margin caps at the
    # room and the whole room is the band (an uncapped margin overflowed here).
    @example(inputs=([1.0, 1.0, math.nextafter(1.0, math.inf)], [5, 3, 4], 7, 1.5e-265))
    # A tail one service time late ties with the others' second jobs.
    @example(inputs=([0.1, 0.1 + 0.002, 0.1], [3, 3, 3], 5, 0.002))
    # Every slot admitted.
    @example(inputs=([0.5, 0.25], [2, 0], 2, 1 / 3))
    # 100 workers in three interleaved classes: the group tied at 0.002 (the
    # idle class's second jobs and the late class's first) is taken in part,
    # by worker index.
    @example(
        inputs=([(0.0, 0.002, 0.001)[i % 3] for i in range(100)], [(5, 5, 3)[i % 3] for i in range(100)], 87, 0.002)
    )
    # Below an ulp of the tails every job of a worker finishes at its tail, so
    # the count at `top` falls short of `admitted` and the high level is inf.
    @example(inputs=([1e9, 1e9, math.nextafter(1e9, math.inf)], [3, 4, 5], 10, 1e-9))
    # All workers in one class.
    @example(inputs=([0.5] * 10, [7] * 10, 33, 0.004))
    def test_selection_equals_the_heap(self, inputs):
        assert water_fill(*inputs) == heap_water_fill(*inputs)

    def test_rejects_a_negative_tail(self):
        with pytest.raises(ValueError, match="tails must be >= 0"):
            water_fill([0.5, -1.0], [2, 2], 3, 0.002)


class TestQueueConfigValidation:
    """Bad queue configs fail at construction, and the message names the field."""

    @pytest.mark.parametrize("ms", [math.nan, math.inf, -1.0])
    def test_default_ms(self, ms):
        with pytest.raises(ValueError, match=r"ServiceTimeModel\.default_ms"):
            ServiceTimeModel(default_ms=ms)

    @pytest.mark.parametrize("ms", [math.nan, math.inf, -0.5])
    def test_per_kind_ms(self, ms):
        with pytest.raises(ValueError, match=r"ServiceTimeModel\.per_kind_ms\['search'\]"):
            ServiceTimeModel(per_kind_ms={"tiles": 0.5, "search": ms})

    @pytest.mark.parametrize("capacity", [2.5, True, math.inf, 0])
    def test_queue_capacity(self, capacity):
        with pytest.raises(ValueError, match=r"ServerQueue\.capacity"):
            ServerQueue(network=SimulatedNetwork(), capacity=capacity)

    @pytest.mark.parametrize("workers", [1.0, True, 0])
    def test_queue_workers(self, workers):
        with pytest.raises(ValueError, match=r"ServerQueue\.workers"):
            ServerQueue(network=SimulatedNetwork(), workers=workers)

    @pytest.mark.parametrize("capacity", [2.5, math.inf, 0])
    def test_federation_server_queue_capacity(self, capacity):
        with pytest.raises(ValueError, match="server_queue_capacity"):
            FederationConfig(server_queue_capacity=capacity)

    @pytest.mark.parametrize("workers", [2.0, False, -1])
    def test_federation_server_workers(self, workers):
        with pytest.raises(ValueError, match="server_workers"):
            FederationConfig(server_workers=workers)

    @pytest.mark.parametrize("count", [2.5, True, -1])
    def test_phantom_count(self, count):
        queue = ServerQueue(network=SimulatedNetwork())
        with pytest.raises(ValueError, match="phantom_arrivals count"):
            queue.phantom_arrivals("search", count)
        assert queue.stats == QueueStats()
