"""Request-target planning and client-side failover across replicas.

Discovery returns a flat list of server ids; under replication several of
those ids are interchangeable replicas of one coverage group.  This module
collapses the flat list into *logical request targets* (one per group, one
per standalone server) and executes a request against a target with
failover: on a shed request
(:class:`~repro.simulation.queueing.ServerOverloadedError`) or a dead-server
timeout, back off per the :class:`~repro.services.retry.RetryPolicy` and try
the next candidate.  Every attempt, failure, stale-cache hit and failover
latency is recorded in the device's :class:`FailoverRecorder`, which the
workload engine aggregates into the run's availability metrics.

Candidate order within a replica group is the load-balancing policy:

* :data:`WEIGHTED` (the default) — RFC 2782 SRV semantics: strict priority
  tiers (every candidate of a lower ``priority`` value is tried before any
  of a higher one), weighted-random selection within a tier from the
  device's seeded RNG stream, zero-weight candidates only after every
  weighted one.  Replicas a device holds unhealthy are pushed behind all
  healthy candidates regardless of tier, so load balancing never overrules
  known-dead avoidance.
* :data:`FIRST_HEALTHY` — the legacy ordering: healthiest first per the
  device's :class:`ReplicaHealth`, discovery order otherwise.  Kept as an
  explicit mode so experiments can measure what RFC 2782 buys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar

from repro.mapserver.policy import AccessDenied
from repro.mapserver.server import MapServer
from repro.services.health import SHARED_NEWS, ReplicaHealth
from repro.services.retry import RetryPolicy
from repro.simulation.network import NetworkTimeoutError, SimulatedNetwork
from repro.simulation.queueing import ServerOverloadedError

T = TypeVar("T")

WEIGHTED = "weighted"
FIRST_HEALTHY = "first-healthy"
SELECTION_MODES = (WEIGHTED, FIRST_HEALTHY)

SrvInfo = Mapping[str, tuple[int, int]]
"""Per-server ``(priority, weight)`` decoded from the SRV registrations."""


class TargetUnavailableError(Exception):
    """Raised when a logical target's whole replica chain fails.

    ``denied`` distinguishes a policy refusal (not an availability event —
    the server is healthy, the caller is not allowed) from an exhausted
    chain of overloaded/dead replicas.
    """

    def __init__(self, target_key: str, reason: str, denied: bool = False) -> None:
        super().__init__(f"target {target_key!r} unavailable: {reason}")
        self.target_key = target_key
        self.denied = denied


@dataclass(frozen=True)
class RequestTarget:
    """One logical destination: a replica group or a standalone server."""

    key: str
    candidates: tuple[tuple[str, "MapServer | None"], ...]
    """``(server_id, server)`` pairs in attempt order; ``server`` is ``None``
    for a discovered id that is no longer reachable (crashed or departed —
    the stale-cache case)."""

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return tuple(server_id for server_id, _ in self.candidates)


@dataclass
class FailoverRecorder:
    """Per-device accounting of attempts, failures and failover latency."""

    chains: int = 0
    """Logical target chains executed (one per target per request fan-out)."""
    chains_ok: int = 0
    chains_failed: int = 0
    """Chains that exhausted every candidate (the availability failures)."""
    chains_denied: int = 0
    """Chains abandoned on a policy denial (not an availability event)."""
    attempts: int = 0
    failed_attempts: int = 0
    stale_attempts: int = 0
    """Attempts addressed to a server id no longer reachable — the client
    acted on a stale cached discovery result."""
    failovers: int = 0
    """Chains that succeeded only after at least one failed attempt."""
    backoff_ms_total: float = 0.0
    failover_ms: list[float] = field(default_factory=list)
    """Per-failover latency: first failure detection to eventual success."""
    dead_detections_own: int = 0
    """Times this device learned a replica was dead the hard way: by paying
    its own dead-server timeout with no prior knowledge."""
    dead_detections_shared: int = 0
    """Times this device learned a replica was dead from its resolver pool's
    shared health board instead — for free."""
    detect_ms: list[float] = field(default_factory=list)
    """Client-time cost of each first detection: the full dead-server timeout
    for an own detection, 0 for one learned from the pool.  The mean is the
    run's 'time to detect a crashed replica' headline."""

    @property
    def failed_chain_rate(self) -> float:
        measured = self.chains - self.chains_denied
        return self.chains_failed / measured if measured else 0.0

    @property
    def stale_attempt_rate(self) -> float:
        return self.stale_attempts / self.attempts if self.attempts else 0.0

    @property
    def detect_mean_ms(self) -> float:
        """Mean client-time cost of learning a replica was dead."""
        return sum(self.detect_ms) / len(self.detect_ms) if self.detect_ms else 0.0

    def merge_from(self, other: "FailoverRecorder") -> None:
        self.chains += other.chains
        self.chains_ok += other.chains_ok
        self.chains_failed += other.chains_failed
        self.chains_denied += other.chains_denied
        self.attempts += other.attempts
        self.failed_attempts += other.failed_attempts
        self.stale_attempts += other.stale_attempts
        self.failovers += other.failovers
        self.backoff_ms_total += other.backoff_ms_total
        self.failover_ms.extend(other.failover_ms)
        self.dead_detections_own += other.dead_detections_own
        self.dead_detections_shared += other.dead_detections_shared
        self.detect_ms.extend(other.detect_ms)


def rfc2782_order(
    server_ids: Sequence[str],
    srv_of: SrvInfo,
    rng: random.Random,
) -> list[str]:
    """Order candidate ids by RFC 2782 SRV semantics.

    Strict priority tiers (ascending ``priority``); within a tier, repeated
    weighted-random selection without replacement from ``rng`` — a candidate
    of weight 3 is three times as likely as one of weight 1 to be picked at
    each step — with zero-weight candidates appended only after every
    weighted one (RFC 2782's "no weight: last resort" reading, made
    deterministic).  Ids missing from ``srv_of`` count as priority 0,
    weight 0.  Ties inside a tier start from sorted id order so the shuffle
    depends only on the RNG stream, never on discovery order.
    """
    tiers: dict[int, list[str]] = {}
    for server_id in server_ids:
        priority, _ = srv_of.get(server_id, (0, 0))
        tiers.setdefault(priority, []).append(server_id)

    ordered: list[str] = []
    for priority in sorted(tiers):
        tier = sorted(tiers[priority])
        weighted = [sid for sid in tier if srv_of.get(sid, (0, 0))[1] > 0]
        zero = [sid for sid in tier if srv_of.get(sid, (0, 0))[1] == 0]
        while weighted:
            if len(weighted) == 1:
                ordered.append(weighted.pop())
                break
            total = sum(srv_of[sid][1] for sid in weighted)
            threshold = rng.random() * total
            cumulative = 0.0
            chosen = len(weighted) - 1
            for index, sid in enumerate(weighted):
                cumulative += srv_of[sid][1]
                if threshold < cumulative:
                    chosen = index
                    break
            ordered.append(weighted.pop(chosen))
        ordered.extend(zero)
    return ordered


def plan_targets(
    server_ids: Sequence[str],
    directory: Mapping[str, MapServer],
    group_of: Mapping[str, str],
    health: ReplicaHealth | None = None,
    include_dead: bool = False,
    selection: str = FIRST_HEALTHY,
    srv_of: SrvInfo | None = None,
    rng: random.Random | None = None,
    recorder: FailoverRecorder | None = None,
) -> list[RequestTarget]:
    """Collapse discovered server ids into ordered logical request targets.

    Targets appear in discovery order of their first member.  Within a
    target, candidate order is the ``selection`` policy: :data:`WEIGHTED`
    draws an RFC 2782 order from the device's ``rng`` stream (healthy
    candidates first, then known-unhealthy ones healthiest-first);
    :data:`FIRST_HEALTHY` keeps the legacy health sort.  Dead ids (absent
    from ``directory``) are kept as ``(id, None)`` candidates only when
    ``include_dead`` is set — the legacy path drops them silently, exactly
    as :meth:`FederationContext.servers` always has.

    Planning is also where pool gossip pays off: with a ``recorder`` given,
    every candidate the device's health view first flags off the shared
    board is counted as a zero-cost dead-replica detection.
    """
    members: dict[str, list[str]] = {}
    order: list[str] = []
    for server_id in server_ids:
        key = group_of.get(server_id, server_id)
        bucket = members.get(key)
        if bucket is None:
            bucket = members[key] = []
            order.append(key)
        if server_id not in bucket:
            bucket.append(server_id)

    targets: list[RequestTarget] = []
    for key in order:
        ids = members[key]
        if health is not None and health.board is not None and recorder is not None:
            # Gossip accounting only exists with a pool board attached; the
            # common per-device configuration skips the consult walk on the
            # request hot path entirely.
            for server_id in ids:
                if health.consult(server_id) == SHARED_NEWS:
                    recorder.dead_detections_shared += 1
                    recorder.detect_ms.append(0.0)
        if len(ids) > 1:
            if selection == WEIGHTED and srv_of is not None and rng is not None:
                if health is None:
                    ids = rfc2782_order(ids, srv_of, rng)
                else:
                    healthy = [sid for sid in ids if health.is_healthy(sid)]
                    suspect = [sid for sid in ids if not health.is_healthy(sid)]
                    ids = rfc2782_order(healthy, srv_of, rng) + sorted(
                        suspect, key=health.sort_key
                    )
            elif health is not None:
                ids = sorted(ids, key=health.sort_key)
        candidates: list[tuple[str, "MapServer | None"]] = []
        for server_id in ids:
            server = directory.get(server_id)
            if server is None and not include_dead:
                continue
            candidates.append((server_id, server))
        if candidates:
            targets.append(RequestTarget(key=key, candidates=tuple(candidates)))
    return targets


def _instantaneous_load(server: MapServer | None) -> float:
    """A server's load in [0, 1] for the utilization-aware retry policy."""
    if server is None:
        return 1.0
    queue = server.queue
    if queue is None:
        return 0.0
    slots = queue.capacity * queue.workers
    return min(1.0, queue.depth / slots) if slots else 0.0


def execute_with_failover(
    target: RequestTarget,
    operation: Callable[[MapServer], T],
    network: SimulatedNetwork,
    policy: RetryPolicy | None,
    health: ReplicaHealth | None,
    recorder: FailoverRecorder,
    rng: random.Random | None = None,
) -> T:
    """Run ``operation`` against ``target`` with replica failover.

    Charges one client↔map-server exchange per live attempt (and a
    dead-server timeout per dead or partitioned-away attempt), paces retries
    per ``policy`` (drawing full-jitter delays from ``rng`` when the policy
    asks for them), and raises :class:`TargetUnavailableError` once the
    chain is exhausted.  With ``policy=None`` the chain is a single attempt
    — the legacy skip-on-failure behaviour, byte-identical in message
    counts.
    """
    recorder.chains += 1
    clock = network.clock
    max_attempts = policy.max_attempts if policy is not None else 1
    failed = 0
    failed_load = 0.0
    """Instantaneous load of the most recently *failed* server — what the
    utilization-aware policy paces the next retry by (retries against a
    saturated replica spread out; a dead one reads as fully loaded)."""
    first_failure_at: float | None = None

    for server_id, server in target.candidates:
        if failed >= max_attempts:
            break
        if failed > 0 and policy is not None:
            delay_ms = policy.delay_ms(failed, failed_load, rng=rng)
            if delay_ms > 0.0:
                recorder.backoff_ms_total += delay_ms
                network.client_backoff(delay_ms)

        recorder.attempts += 1
        if server is None or not network.server_reachable(server_id):
            # Stale discovery (the id resolves to nothing reachable) or a
            # partition between this client and the server.  Either way the
            # client only learns that by waiting out a timeout, and either
            # way the server is unreachable-dead from where it stands.
            if server is None:
                recorder.stale_attempts += 1
            recorder.failed_attempts += 1
            timeout_ms = policy.timeout_ms(failed) if policy is not None else 0.0
            if health is None or not health.knew_dead(server_id):
                # A first detection, paid for the hard way: nothing — not
                # the device's own memory, not its pool's board — warned it.
                recorder.dead_detections_own += 1
                recorder.detect_ms.append(timeout_ms)
            network.dead_server_timeout(timeout_ms)
            if health is not None:
                health.record_failure(server_id, dead=True)
            failed += 1
            failed_load = 1.0
            if first_failure_at is None:
                first_failure_at = clock.now()
            continue

        try:
            network.client_map_server_exchange(
                server_id=server_id, fail_on_exhaustion=policy is not None
            )
        except NetworkTimeoutError:
            # The exchange burned its whole retransmit budget (loss burst /
            # gray failure) and was abandoned.  Flaky, not proven dead: the
            # failure is recorded per-device without dead-gossip.
            recorder.failed_attempts += 1
            network.dead_server_timeout(policy.timeout_ms(failed) if policy else 0.0)
            if health is not None:
                health.record_failure(server_id)
            failed += 1
            failed_load = _instantaneous_load(server)
            if first_failure_at is None:
                first_failure_at = clock.now()
            continue
        try:
            result = operation(server)
        except AccessDenied:
            recorder.chains_denied += 1
            raise TargetUnavailableError(target.key, f"policy denied {server_id!r}", denied=True)
        except ServerOverloadedError:
            recorder.failed_attempts += 1
            if health is not None:
                health.record_failure(server_id)
            failed += 1
            failed_load = _instantaneous_load(server)
            if first_failure_at is None:
                first_failure_at = clock.now()
            continue

        recorder.chains_ok += 1
        if health is not None:
            health.record_success(server_id)
        if failed > 0 and first_failure_at is not None:
            recorder.failovers += 1
            recorder.failover_ms.append((clock.now() - first_failure_at) * 1000.0)
        return result

    recorder.chains_failed += 1
    raise TargetUnavailableError(
        target.key, f"all {len(target.candidates)} replica(s) failed after {failed} attempt(s)"
    )
