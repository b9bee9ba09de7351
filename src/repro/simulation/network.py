"""A simulated network for counting messages and accumulating latency.

The paper's argument for DNS-based discovery rests on message counts and
cacheability rather than raw bandwidth, so the network model is simple: each
logical link has a fixed one-way latency, and every message sent over it is
counted and charged against a simulated clock.

Two optional refinements serve the fleet-scale experiments:

* **Jitter/loss** — ``LatencyModel.jitter_sigma`` draws a lognormal
  multiplier per exchange and ``loss_probability`` retransmits lost
  exchanges, both from a deterministic RNG stream that the workload engine
  reseeds per client (so every device sees its own reproducible network).
* **Server processing** — :meth:`SimulatedNetwork.server_processing` charges
  server-side queueing + service time (see
  :mod:`repro.simulation.queueing`) into the same latency accounting,
  without counting a network message.

Correlated failures are expressed through :class:`NetworkFaultState`, a
bag of *primitives* — region↔server partitions, per-server gray failures
(latency multiplier and/or loss burst), and dark DNS authorities — that
:mod:`repro.faults` drives from deterministic fault tapes.  The network
deliberately knows nothing about fault *schedules*; it only answers "is
this link up, and how lossy is it, right now?".  With no fault state
attached (the default), every path through this module is byte-identical
to the fault-free implementation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.simulation.clock import SimulatedClock

# One-way latency per hop: a device's resolver sits on its LAN, every other
# hop crosses the WAN.  The operator console → control endpoint hop is used
# only by the operator API's ``transport="network"`` path.
CLIENT_TO_RESOLVER_MS = 1.0
RESOLVER_TO_AUTHORITY_MS = 25.0
CLIENT_TO_MAP_SERVER_MS = 25.0
CLIENT_TO_CENTRAL_MS = 25.0
OPERATOR_TO_CONTROL_MS = 25.0

MAX_RETRANSMITS = 8
"""Retry bound per exchange so a high (base or gray) loss probability cannot
loop forever."""


class NetworkTimeoutError(Exception):
    """An exchange exhausted its retransmit budget and was abandoned.

    Raised only on opt-in (``fail_on_exhaustion=True``) paths — the failover
    executor — so legacy transparent-retry callers keep their draw-for-draw
    behaviour.  The raising exchange charges nothing; the caller decides what
    an abandoned request costs (typically a retry-policy attempt timeout).
    """

    def __init__(self, server_id: str | None = None) -> None:
        self.server_id = server_id
        where = f" to {server_id}" if server_id else ""
        super().__init__(f"exchange{where} exhausted its retransmit budget")


@dataclass(frozen=True, slots=True)
class LatencyModel:
    """The stochastic part of every exchange (the per-hop one-way latencies
    are the module constants above).

    ``jitter_sigma`` > 0 turns every exchange's latency into
    ``base * Lognormal(0, sigma)``; ``loss_probability`` > 0 makes each
    exchange independently lose its datagram with that probability and pay a
    full extra (jittered) round trip per retransmission, bounded by
    ``MAX_RETRANSMITS``.  Both default to off, keeping the historical
    fixed-latency behaviour bit-for-bit.
    """

    jitter_sigma: float = 0.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.jitter_sigma < math.inf):
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("loss probability must be in [0, 1)")

    @property
    def is_stochastic(self) -> bool:
        return self.jitter_sigma > 0.0 or self.loss_probability > 0.0


@dataclass(frozen=True, slots=True)
class GrayFailure:
    """A degraded-but-alive server: slower and/or lossier, not down.

    Gray failures are the failures monitoring misses — the server answers
    health checks but every exchange with it pays ``latency_multiplier``
    and suffers ``loss_probability`` (whichever of the gray and base loss
    rates is worse applies).
    """

    latency_multiplier: float = 1.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if not (1.0 <= self.latency_multiplier < math.inf):
            raise ValueError(
                f"latency_multiplier must be finite and >= 1 (a gray failure cannot speed a "
                f"server up), got {self.latency_multiplier}"
            )
        if not (0.0 <= self.loss_probability < 1.0):
            raise ValueError("gray loss probability must be in [0, 1)")
        if self.latency_multiplier == 1.0 and self.loss_probability == 0.0:
            raise ValueError("a gray failure must degrade something")


@dataclass
class NetworkFaultState:
    """Mutable fault primitives a :class:`SimulatedNetwork` consults per call.

    The fault *tape* machinery lives in :mod:`repro.faults` (which drives
    these setters); the network only holds current truth.  ``active_region``
    is the region of the client currently on the wire — the workload engine
    sets it around each device's requests so region-scoped partitions know
    which side of the cut the caller is on.  A client with no region
    (``active_region is None``) is outside every region-scoped partition.
    """

    active_region: int | None = None
    _blocked_all: set[str] = field(default_factory=set)
    _blocked_regions: dict[str, set[int]] = field(default_factory=dict)
    _gray: dict[str, GrayFailure] = field(default_factory=dict)
    _authorities_down: set[str] = field(default_factory=set)

    # -- partitions ----------------------------------------------------
    def block(self, server_id: str, regions: tuple[int, ...] | None = None) -> bool:
        """Open a partition between ``server_id`` and clients (or regions)."""
        if not regions:
            if server_id in self._blocked_all:
                return False
            self._blocked_all.add(server_id)
            return True
        cut = self._blocked_regions.setdefault(server_id, set())
        before = len(cut)
        cut.update(regions)
        return len(cut) > before

    def unblock(self, server_id: str, regions: tuple[int, ...] | None = None) -> bool:
        """Heal a partition; returns False when nothing was blocked."""
        if not regions:
            changed = server_id in self._blocked_all
            self._blocked_all.discard(server_id)
            if self._blocked_regions.pop(server_id, None) is not None:
                changed = True
            return changed
        cut = self._blocked_regions.get(server_id)
        if not cut:
            return False
        before = len(cut)
        cut.difference_update(regions)
        if not cut:
            del self._blocked_regions[server_id]
        return len(cut or ()) < before

    def server_reachable(self, server_id: str) -> bool:
        if server_id in self._blocked_all:
            return False
        regions = self._blocked_regions.get(server_id)
        if regions and self.active_region is not None:
            return self.active_region not in regions
        return True

    # -- gray failures -------------------------------------------------
    def set_gray(self, server_id: str, gray: GrayFailure) -> bool:
        changed = self._gray.get(server_id) != gray
        self._gray[server_id] = gray
        return changed

    def clear_gray(self, server_id: str) -> bool:
        return self._gray.pop(server_id, None) is not None

    def gray_for(self, server_id: str) -> GrayFailure | None:
        return self._gray.get(server_id)

    # -- DNS authority outages -----------------------------------------
    def authority_down(self, server_id: str) -> bool:
        if server_id in self._authorities_down:
            return False
        self._authorities_down.add(server_id)
        return True

    def authority_up(self, server_id: str) -> bool:
        if server_id not in self._authorities_down:
            return False
        self._authorities_down.discard(server_id)
        return True

    def authority_is_down(self, server_id: str) -> bool:
        return server_id in self._authorities_down

    def active_fault_kinds(self) -> tuple[str, ...]:
        """Fault families currently in force at the network layer, sorted.

        The telemetry pipeline annotates each emission window with these so
        post-run queries can line up burn-rate spikes and shed-rate maps
        against what the world was doing.  Flash crowds live in the
        injector, not here — :meth:`repro.faults.FaultInjector.active_fault_kinds`
        adds that family on top.
        """
        kinds: list[str] = []
        if self._authorities_down:
            kinds.append("authority-outage")
        if self._gray:
            kinds.append("gray")
        if self._blocked_all or self._blocked_regions:
            kinds.append("partition")
        return tuple(sorted(kinds))


@dataclass
class NetworkStats:
    """Counters accumulated by a simulated network."""

    messages_sent: int = 0
    total_latency_ms: float = 0.0
    messages_by_kind: dict[str, int] = field(default_factory=dict)
    retransmissions: int = 0
    server_processing_ms: float = 0.0
    backoff_ms: float = 0.0

    def record(self, kind: str, latency_ms: float) -> None:
        self.messages_sent += 1
        self.total_latency_ms += latency_ms
        self.messages_by_kind[kind] = self.messages_by_kind.get(kind, 0) + 1

    def reset(self) -> None:
        self.messages_sent = 0
        self.total_latency_ms = 0.0
        self.messages_by_kind.clear()
        self.retransmissions = 0
        self.server_processing_ms = 0.0
        self.backoff_ms = 0.0


@dataclass
class SimulatedNetwork:
    """Tracks messages and advances a clock by their round-trip latencies."""

    clock: SimulatedClock = field(default_factory=SimulatedClock)
    latency: LatencyModel = field(default_factory=LatencyModel)
    stats: NetworkStats = field(default_factory=NetworkStats)
    jitter_seed: int = 0
    faults: NetworkFaultState | None = None
    _jitter_rng: random.Random | None = field(default=None, repr=False)

    def fault_state(self) -> NetworkFaultState:
        """The attached fault state, created on first use.

        Fault-free runs never call this, so ``faults`` stays ``None`` and
        every exchange skips the fault checks entirely.
        """
        if self.faults is None:
            self.faults = NetworkFaultState()
        return self.faults

    def server_reachable(self, server_id: str) -> bool:
        """Whether the active client can reach ``server_id`` right now."""
        return self.faults is None or self.faults.server_reachable(server_id)

    def reseed_jitter(self, stream_key: int) -> None:
        """Restart the jitter/loss RNG from a fresh deterministic stream.

        Convenience for single-client experiments and tests.  A fleet must
        NOT call this per client per round (each call restarts the stream and
        would replay the same draws); fleets hold one RNG per device and
        install it with :meth:`set_jitter_stream` instead.
        """
        if self.latency.is_stochastic:
            self.set_jitter_stream(random.Random((self.jitter_seed << 32) ^ stream_key))

    def set_jitter_stream(self, rng: random.Random | None) -> None:
        """Point the network at a caller-owned jitter RNG stream.

        The stream's state persists across calls: each workload device holds
        its own RNG and installs it before issuing requests, so a device's
        network draws form one continuous stream no matter how the fleet's
        requests interleave.
        """
        self._jitter_rng = rng

    def current_jitter_stream(self) -> random.Random | None:
        """The installed jitter RNG (for save/restore around a borrower).

        An operator client that injects its own stream for a control
        exchange uses this to put the fleet's stream back afterwards, so
        device draw sequences are untouched by control traffic.
        """
        return self._jitter_rng

    def _jittered(
        self,
        latency_ms: float,
        *,
        server_id: str | None = None,
        fail_on_exhaustion: bool = False,
    ) -> float:
        """One exchange's latency after jitter, gray failure and losses.

        Draw-for-draw compatible with the historical transparent-retry
        behaviour: the same RNG sequence is consumed for the same inputs.
        Only when the retransmit budget is exhausted *and* the caller opted
        in does one extra loss draw decide whether the exchange is abandoned
        (:class:`NetworkTimeoutError`, charging nothing).
        """
        gray = None
        if self.faults is not None and server_id is not None:
            gray = self.faults.gray_for(server_id)
        sigma = self.latency.jitter_sigma
        loss = self.latency.loss_probability
        if gray is not None:
            latency_ms *= gray.latency_multiplier
            loss = max(loss, gray.loss_probability)
        if sigma <= 0.0 and loss <= 0.0:
            return latency_ms
        if self._jitter_rng is None:
            self._jitter_rng = random.Random(self.jitter_seed)
        rng = self._jitter_rng
        total = latency_ms * (rng.lognormvariate(0.0, sigma) if sigma > 0.0 else 1.0)
        retries = 0
        while loss > 0.0 and retries < MAX_RETRANSMITS and rng.random() < loss:
            retries += 1
            total += latency_ms * (rng.lognormvariate(0.0, sigma) if sigma > 0.0 else 1.0)
        self.stats.retransmissions += retries
        if fail_on_exhaustion and loss > 0.0 and retries >= MAX_RETRANSMITS and rng.random() < loss:
            raise NetworkTimeoutError(server_id)
        return total

    def round_trip(
        self,
        kind: str,
        one_way_latency_ms: float,
        *,
        server_id: str | None = None,
        fail_on_exhaustion: bool = False,
    ) -> float:
        """Charge one request/response exchange and return its latency in ms."""
        latency_ms = 2.0 * one_way_latency_ms
        model = self.latency
        if (
            model.jitter_sigma > 0.0
            or model.loss_probability > 0.0
            or (server_id is not None and self.faults is not None)
        ):
            # Only jitter, loss or a gray failure of ``server_id`` can change
            # the latency or draw from the RNG; otherwise it is the constant.
            latency_ms = self._jittered(
                latency_ms, server_id=server_id, fail_on_exhaustion=fail_on_exhaustion
            )
        self.clock.advance_ms(latency_ms)
        # ``NetworkStats.record``, in place: this runs once per exchange.
        stats = self.stats
        stats.messages_sent += 1
        stats.total_latency_ms += latency_ms
        by_kind = stats.messages_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + 1
        return latency_ms

    # Convenience wrappers for the hop classes used throughout the library.
    def client_resolver_exchange(self) -> float:
        return self.round_trip("dns.client_resolver", CLIENT_TO_RESOLVER_MS)

    def resolver_authority_exchange(self) -> float:
        return self.round_trip("dns.resolver_authority", RESOLVER_TO_AUTHORITY_MS)

    def client_map_server_exchange(
        self, server_id: str | None = None, fail_on_exhaustion: bool = False
    ) -> float:
        return self.round_trip(
            "mapserver.request",
            CLIENT_TO_MAP_SERVER_MS,
            server_id=server_id,
            fail_on_exhaustion=fail_on_exhaustion,
        )

    def client_central_exchange(self) -> float:
        return self.round_trip("central.request", CLIENT_TO_CENTRAL_MS)

    def operator_control_exchange(
        self, endpoint_id: str | None = None, fail_on_exhaustion: bool = False
    ) -> float:
        """Charge one operator → control-endpoint request/response exchange.

        ``endpoint_id`` names the control endpoint so gray failures and
        partitions scoped to it apply, exactly as they do to data traffic.
        """
        return self.round_trip(
            "control.request",
            OPERATOR_TO_CONTROL_MS,
            server_id=endpoint_id,
            fail_on_exhaustion=fail_on_exhaustion,
        )

    def control_timeout(self, timeout_ms: float) -> float:
        """Charge one abandoned operator request (counted under
        ``control.timeout``): the operator paid its full patience and got
        no response, mirroring :meth:`dead_server_timeout` for the control
        hop."""
        if timeout_ms <= 0.0:
            return 0.0
        self.clock.advance_ms(timeout_ms)
        self.stats.record("control.timeout", timeout_ms)
        return timeout_ms

    def client_backoff(self, delay_ms: float) -> float:
        """Charge a client-side retry backoff wait (no message is counted).

        The wait lands in ``total_latency_ms`` so client-observed request
        latency includes the pacing the retry policy imposed.
        """
        if delay_ms <= 0.0:
            return 0.0
        self.clock.advance_ms(delay_ms)
        self.stats.total_latency_ms += delay_ms
        self.stats.backoff_ms += delay_ms
        return delay_ms

    def dead_server_timeout(self, timeout_ms: float) -> float:
        """Charge one unanswered request to a dead map server.

        The attempt is a real message (counted under ``mapserver.timeout``)
        whose cost to the client is the full timeout, not a round trip —
        dead servers are *more* expensive to talk to than live ones.
        """
        if timeout_ms <= 0.0:
            return 0.0
        self.clock.advance_ms(timeout_ms)
        self.stats.record("mapserver.timeout", timeout_ms)
        return timeout_ms

    def dns_timeout(self, timeout_ms: float) -> float:
        """Charge one unanswered DNS query to a dark authority.

        Like :meth:`dead_server_timeout` but on the resolver→authority hop:
        the query is a real message (counted under ``dns.timeout``) whose
        cost is the resolver's full patience for the authority.
        """
        if timeout_ms <= 0.0:
            return 0.0
        self.clock.advance_ms(timeout_ms)
        self.stats.record("dns.timeout", timeout_ms)
        return timeout_ms

    def server_processing(self, latency_ms: float) -> float:
        """Charge server-side queueing + service time (no message is counted).

        The delay lands in ``total_latency_ms`` so client-observed request
        latency includes how loaded the serving map server was.
        """
        self.clock.advance_ms(latency_ms)
        self.stats.total_latency_ms += latency_ms
        self.stats.server_processing_ms += latency_ms
        return latency_ms

    def reset_stats(self) -> None:
        self.stats.reset()
