"""The closed-loop autoscaler: one control loop per warm-pooled group.

Each :class:`Autoscaler` evaluation (paced to the telemetry cadence — one
per *sealed window*, not per round) reads the group's zone pressure from
the :class:`~repro.telemetry.reader.TelemetryReader` and issues at most
one batched control-plane action per group:

* **breach** (pressure sustained ``breach_evals`` evaluations):
  first restore any standby caught mid-drain back to full weight
  (undrain on load recovery), else promote one pooled standby
  (unpark → ``set_weight(PROMOTE_WEIGHT)``);
* **recover** (quiet sustained ``recover_evals`` evaluations): step the
  most-recently promoted standby down the :data:`RAMP_WEIGHTS` ladder
  (two steps per evaluation when the zone's demand slope says load is
  ebbing fast), and once drained — after ``park_delay_seconds`` —
  deregister it back into the pool.

Every weight change travels through
:meth:`repro.control.ControlPlane.apply_batch`, so the plane's ``timeline``
(in a workload run, the run's one shared history) shows each decision
cycle as one batch of control entries, with rejected ops (e.g. the
group-guard refusing to zero the last positive weight) recorded rather
than raised.

Cost is accounted as **replica-seconds**: the integral over simulated
time of replicas that are reachable, registered, and positively weighted
across the managed groups — the "what you pay for" series static
provisioning is compared against in ``BENCH_e19.json``.

Determinism: evaluations iterate groups and servers in sorted/deployment
order, read only sealed telemetry, and use no randomness or wall clock,
so a fixed seed yields a byte-identical decision tape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.autoscale.policy import BURN_LOW, AutoscalerConfig, Cooldown, HysteresisGate
from repro.control.plane import ControlOp, ControlPlane
from repro.control.schedule import ControlEventKind
from repro.core.federation import Federation
from repro.core.warmpool import WarmPool
from repro.telemetry.reader import TelemetryReader
from repro.telemetry.spatial import cell_ancestor

ZONE_LEVEL = 12
"""Cell level of the zones a group's pressure is read over."""

SIGNAL_WINDOWS = 1
"""Trailing sealed windows every pressure signal folds."""

SHED_HIGH = 0.2
"""Zonal shed rate that counts as pressure on its own."""

PROMOTE_WEIGHT = 4
"""The SRV weight a promoted (or undrained) standby serves at."""

RAMP_WEIGHTS = (4, 2, 1, 0)
"""The drain ladder a retiring standby steps down: load sheds in halves
instead of one step drain."""

SLOPE_FAST_PER_S = -0.5
"""Zone demand slope (requests/s per window) at or below which a retiring
standby takes two ramp steps per evaluation instead of one."""


@dataclass
class _GroupState:
    """Per-group control state: the gate, the cooldowns, in-flight drains."""

    gate: HysteresisGate
    up_cooldown: Cooldown
    down_cooldown: Cooldown
    ramp_cooldown: Cooldown
    drained_at: dict[str, float] = field(default_factory=dict)
    """Fully drained standby → the instant it reached weight 0 (awaiting
    its park delay)."""


class Autoscaler:
    """Drives warm-pool capacity from telemetry roll-ups, per group.

    Args:
        federation: the live federation; scaling domains are the replica
            groups with a pool in ``federation.warm_pools``.
        reader: the telemetry query surface — the *only* signal source.
        config: thresholds and stability tunables.
        control: an optional control plane; by default the autoscaler
            gets its own (schedule-free) plane.  The workload engine passes
            one that records onto the run's shared timeline, or an
            operator-API adapter.

    The engine calls :meth:`begin` once at run start (cost-integral
    anchor) and :meth:`observe` at every round seal (the ``RoundObserver``
    signature); everything else is internal.
    """

    def __init__(
        self,
        federation: Federation,
        reader: TelemetryReader,
        config: AutoscalerConfig,
        control: ControlPlane | None = None,
    ) -> None:
        self.federation = federation
        self.reader = reader
        self.config = config
        self.control = control or ControlPlane(federation=federation)
        self.pools: dict[str, WarmPool] = {
            group_id: pool  # type: ignore[misc]
            for group_id, pool in sorted(federation.warm_pools.items())
        }
        self._states: dict[str, _GroupState] = {
            group_id: _GroupState(
                gate=HysteresisGate(self.config.breach_evals, self.config.recover_evals),
                up_cooldown=Cooldown(self.config.cooldown_seconds),
                down_cooldown=Cooldown(self.config.cooldown_seconds),
                ramp_cooldown=Cooldown(self.config.ramp_cooldown_seconds),
            )
            for group_id in self.pools
        }
        self._zones: dict[str, tuple[str, ...]] = {
            group_id: self._derive_zones(group_id) for group_id in self.pools
        }
        self._last_direction: dict[str, tuple[int, float]] = {}
        """Per-server last applied scale direction (+1 up / -1 down) and
        its instant, for the flap (oscillation) metric."""
        self._seen_windows = 0
        self._last_now: float | None = None
        self.replica_seconds = 0.0
        self.active_peak = 0
        self.counters: dict[str, int] = {
            "ops_applied": 0,
            "ops_rejected": 0,
            "promotions": 0,
            "ramp_steps": 0,
            "parks": 0,
            "flaps": 0,
        }

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def begin(self, now: float) -> None:
        """Anchor the replica-seconds integral at run start."""
        if self._last_now is None:
            self._last_now = now
            self.active_peak = self._active_replicas()

    def observe(self, round_index: int, now: float) -> None:
        """The round-seal hook (``RoundObserver`` signature).

        Always advances the cost integral and parks any drained standby
        whose grace period elapsed; *evaluates* (and possibly acts) only
        when a new telemetry window sealed since the last call, so the
        decision cadence is the telemetry cadence regardless of round
        length.
        """
        del round_index  # decisions key on simulated time and windows
        active = self._active_replicas()
        self.active_peak = max(self.active_peak, active)
        if self._last_now is not None:
            self.replica_seconds += active * (now - self._last_now)
        self._last_now = now
        for group_id in self.pools:
            self._park_due(group_id, now)
        window_count = self.reader.window_count
        if window_count == self._seen_windows:
            return
        self._seen_windows = window_count
        for group_id in self.pools:
            self._evaluate(group_id, now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Bounded headline floats for ``WorkloadReport.snapshot``
        (``autoscale.*`` keys, present only when the autoscaler ran)."""
        data = {name: float(value) for name, value in self.counters.items()}
        data["replica_seconds"] = self.replica_seconds
        data["active_peak"] = float(self.active_peak)
        return data

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _derive_zones(self, group_id: str) -> tuple[str, ...]:
        """The zone-level ancestors of the group's registered covering
        cells (from the pipeline's server→cells map — telemetry metadata,
        not federation introspection)."""
        group = self.federation.replica_groups[group_id]
        tokens: set[str] = set()
        for server_id in group.server_ids:
            for token in self.reader.pipeline.server_cells.get(server_id, ()):
                tokens.add(cell_ancestor(token, ZONE_LEVEL))
        return tuple(sorted(tokens))

    def _group_pressure(self, group_id: str) -> tuple[float, float, float]:
        """(worst mean wait, worst shed rate, most negative demand slope)
        across the group's zones over the last sealed window."""
        zonal = self.reader.zonal(ZONE_LEVEL, last=SIGNAL_WINDOWS)
        wait = shed = 0.0
        slope = 0.0
        for index, zone in enumerate(self._zones[group_id]):
            stats = zonal.get(zone)
            if stats is not None:
                wait = max(wait, stats["mean_wait_ms"])
                shed = max(shed, stats["shed_rate"])
            zone_slope = self.reader.demand_slope(zone, ZONE_LEVEL)
            slope = zone_slope if index == 0 else min(slope, zone_slope)
        return wait, shed, slope

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def _evaluate(self, group_id: str, now: float) -> None:
        config = self.config
        state = self._states[group_id]
        if not self.reader.has_signal(last=SIGNAL_WINDOWS):
            # Zero-sample window(s): missing telemetry is "no signal", not
            # pressure 0.0.  Hold the gate in its dead band — this resets
            # both streaks, so an empty window can neither advance a breach
            # nor fake the quiet streak that triggers a scale-down.
            state.gate.update(False, False)
            return
        wait, shed, slope = self._group_pressure(group_id)
        burn = self.reader.max_burn(last=SIGNAL_WINDOWS)
        pressed = (
            wait >= config.wait_high_ms
            or shed >= SHED_HIGH
            or (config.burn_high > 0.0 and burn >= config.burn_high)
        )
        relaxed = (
            wait <= config.wait_low_ms
            and shed < SHED_HIGH
            and (config.burn_high <= 0.0 or burn <= BURN_LOW)
        )
        decision = state.gate.update(pressed, relaxed and not pressed)
        if decision == "breach":
            self._scale_up(group_id, state, now)
        elif decision == "recover":
            self._scale_down(group_id, state, now, slope)

    def _scale_up(self, group_id: str, state: _GroupState, now: float) -> None:
        pool = self.pools[group_id]
        # 1) Load came back while a standby was mid-drain: cancel the
        # retirement, restoring full weight in one batch.
        ramping = [sid for sid in pool.serving_ids() if pool.weight_of(sid) < PROMOTE_WEIGHT]
        if ramping and state.up_cooldown.ready(now) and state.down_cooldown.ready(now):
            ops = [ControlOp(ControlEventKind.SET_WEIGHT, sid, PROMOTE_WEIGHT) for sid in ramping]
            applied = self._apply(ops, now)
            if applied:
                for sid in ramping:
                    state.drained_at.pop(sid, None)
                    self._note_direction(sid, +1, now)
                state.up_cooldown.stamp(now)
            return
        # 2) Promote one pooled standby (drained-awaiting-park first:
        # pooled_ids preserves deployment order and a recently drained
        # standby sits earliest, with the warmest caches).
        pooled = pool.pooled_ids()
        if pooled and state.up_cooldown.ready(now) and state.down_cooldown.ready(now):
            candidate = pooled[0]
            pool.ensure_registered(candidate)
            applied = self._apply(
                [ControlOp(ControlEventKind.SET_WEIGHT, candidate, PROMOTE_WEIGHT)],
                now,
            )
            if applied:
                state.drained_at.pop(candidate, None)
                self._note_direction(candidate, +1, now)
                self.counters["promotions"] += 1
                state.up_cooldown.stamp(now)

    def _scale_down(
        self, group_id: str, state: _GroupState, now: float, slope: float
    ) -> None:
        pool = self.pools[group_id]
        # Ramp the most recently promoted serving standby down the
        # ladder — gradually, and faster when demand is ebbing steeply.
        serving = pool.serving_ids()
        if not serving:
            return
        if not (
            state.up_cooldown.ready(now)
            and state.down_cooldown.ready(now)
            and state.ramp_cooldown.ready(now)
        ):
            return
        candidate = serving[-1]
        weight = pool.weight_of(candidate)
        ladder = [w for w in RAMP_WEIGHTS if w < weight]
        if not ladder:
            ladder = [0]
        steps = 2 if slope <= SLOPE_FAST_PER_S else 1
        targets = ladder[:steps]
        ops = [
            ControlOp(ControlEventKind.SET_WEIGHT, candidate, target)
            for target in targets
        ]
        applied = self._apply(ops, now)
        if applied:
            self._note_direction(candidate, -1, now)
            self.counters["ramp_steps"] += len(targets)
            if targets[-1] == 0:
                state.drained_at[candidate] = now
            state.ramp_cooldown.stamp(now)
            state.down_cooldown.stamp(now)

    def _park_due(self, group_id: str, now: float) -> None:
        """Deregister drained standbys whose park delay elapsed (not an
        SRV op: no client-visible weight changes, no cooldown stamp)."""
        state = self._states[group_id]
        pool = self.pools[group_id]
        due = [
            sid
            for sid, drained in sorted(state.drained_at.items())
            if now - drained >= self.config.park_delay_seconds
        ]
        for server_id in due:
            if pool.weight_of(server_id) == 0 and not pool.is_parked(server_id):
                pool.park(server_id)
                self.counters["parks"] += 1
            del state.drained_at[server_id]

    # ------------------------------------------------------------------
    # Actuation plumbing
    # ------------------------------------------------------------------
    def _apply(self, ops: list[ControlOp], now: float) -> int:
        """Issue one decision cycle's batch; returns applied-op count."""
        records = self.control.apply_batch(now, ops)
        applied = sum(1 for record in records if record.applied)
        rejected = len(records) - applied
        self.counters["ops_applied"] += applied
        self.counters["ops_rejected"] += rejected
        return applied

    def _note_direction(self, server_id: str, direction: int, now: float) -> None:
        """Track per-server scale direction.  A *flap* — the oscillation
        the stability machinery exists to bound — is a direction reversal
        landing within a convergence window (``cooldown_seconds``) of the
        opposite action: the controller undid itself before clients could
        even converge on the first change.  A reversal after the window
        (a diurnal re-promotion for the next peak) is legitimate elasticity,
        not a flap."""
        previous = self._last_direction.get(server_id)
        if previous is not None:
            prev_direction, prev_at = previous
            if (
                direction != prev_direction
                and now - prev_at < self.config.cooldown_seconds
            ):
                self.counters["flaps"] += 1
        self._last_direction[server_id] = (direction, now)

    def _active_replicas(self) -> int:
        """Replicas currently serving across the managed groups:
        reachable, registered, positively weighted (the replica-seconds
        cost basis)."""
        federation = self.federation
        total = 0
        for group_id in self.pools:
            group = federation.replica_groups[group_id]
            for server_id in group.server_ids:
                if (
                    server_id in federation.servers
                    and server_id in federation.registry.registrations
                    and federation.srv_of(server_id)[1] > 0
                ):
                    total += 1
        return total
