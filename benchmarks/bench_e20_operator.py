"""E20 — the operator API layer: control ops as messages on the wire.

E15 measured the control plane as in-process method calls; E19 closed the
autoscaling loop the same way.  This experiment puts the *operator* on
the network: every control op travels as an authenticated, schema-
validated request through :mod:`repro.operator`, charged real (simulated)
latency, loss, and partitions on the control hop.  Four claims are
pinned:

* **drain convergence lag** — the same one-event drain tape is played
  three ways: ``direct`` (in-process API, the byte-identity transport),
  ``net-healthy`` (every request pays the control-hop RTT) and
  ``net-lossy`` (a gray-failing control endpoint: retransmits, timeouts,
  and same-token retries at later rounds).  Delivery lag — scripted
  instant to the op landing at the authority — must be *strictly* above
  the direct baseline once the wire is real, and grow again under loss;
  the tape must still fully deliver, and a networked drain is still not
  an outage (zero failed requests, fleet convergence intact).
* **partitioned operator** — two operator consoles in different regions
  issue *conflicting* drains on a two-replica group while a region-scoped
  partition cuts one console off.  The partition heals, the cut-off
  console's same-token retry arrives late, and the shared audit log's
  sequence order resolves the race: one audited winner, the loser's
  record shows ``conflict``, the group keeps a registered positive-weight
  member throughout (zero NXDOMAIN windows).
* **autoscaler reaction lag** — the E19 flash-crowd cell re-run with the
  autoscaler's batches routed through the operator API.  Over the network
  transport its first capacity action lands measurably later than over
  the direct transport — the control hop's RTT is now part of the
  reaction time — while the loop still promotes and still beats the
  crowd.
* **audit replay determinism** — replaying the partitioned cell's audit
  log through a fresh API over a fresh federation reproduces the exact
  final SRV state (equal state digests).

Runs through ``harness.main``: ``--smoke`` is the sweep whose output *is* the
committed, byte-gated ``BENCH_e20.json``; no flag re-runs the cells with a
larger fleet into the git-ignored ``BENCH_e20_full.json``.
"""

from __future__ import annotations

from types import SimpleNamespace

from harness import Experiment, digest, main  # first: finds src/ when run standalone
from _util import disaster_world
from bench_e19_autoscale import (
    AUTOSCALE,
    FLASH_STEPS,
    POOL_SIZE,
    RESOLVER_POOLS,
    TELEMETRY,
    build_world,
    flash_plan,
)
from repro.control.schedule import ControlEvent, ControlEventKind, ControlSchedule
from repro.core.config import FederationConfig
from repro.faults.scenarios import RETRY_POLICY, SERVICE_TIMES
from repro.operator import (
    AuditLog,
    OperatorApi,
    OperatorClient,
    OperatorConfig,
    PrincipalRegistry,
    replay_audit,
    state_digest,
)
from repro.operator.permissions import ALL_PERMISSIONS
from repro.simulation.network import GrayFailure
from repro.workload import WorkloadConfig, WorkloadEngine
from repro.worldgen.scenario import build_scenario

WORLD_SEED = 33
WORKLOAD_SEED = 7

SMOKE_CLIENTS = 16
FULL_CLIENTS = 32
AUTOSCALE_SMOKE_CLIENTS = 24
AUTOSCALE_FULL_CLIENTS = 48
STEP_SECONDS = 20.0
DRAIN_STEPS = 14
REPLICAS = 4

CONTROL_LOSS = 0.95
"""The lossy cell's gray loss probability on the control endpoint.  High
enough that the retransmit budget (8) is exhausted on a meaningful
fraction of exchanges (~63% per exchange), forcing full timeouts and
next-round same-token retries — not just padded latencies."""

OPERATOR_TIMEOUT_MS = 400.0


# ----------------------------------------------------------------------
# Drain-convergence cells
# ----------------------------------------------------------------------
def drain_world():
    """One store, four replicas, the E17 service-time/retry models — the
    same control-plane regime E15 measured, now with an operator door."""
    return disaster_world(device_ttl=20.0, dns_ttl=60.0, store_count=1, store_replicas=REPLICAS)


def drain_tape(server_id: str) -> ControlSchedule:
    """Drain → undrain → drain again: three operator requests, so the
    lossy cell gets several independent chances to lose one."""
    return ControlSchedule.from_events(
        [
            ControlEvent(2 * STEP_SECONDS, ControlEventKind.DRAIN, server_id),
            ControlEvent(6 * STEP_SECONDS, ControlEventKind.UNDRAIN, server_id),
            ControlEvent(9 * STEP_SECONDS, ControlEventKind.DRAIN, server_id),
        ]
    )


def run_drain_cell(mode: str, clients: int) -> dict[str, object]:
    """One transport mode over the drain tape.

    ``direct`` routes the tape through the API in-process; ``net-healthy``
    pays the control-hop RTT per request; ``net-lossy`` additionally gray-
    fails the control endpoint at :data:`CONTROL_LOSS`.
    """
    scenario = drain_world()
    drained = scenario.store_replica_ids(0)[0]
    transport = "direct" if mode == "direct" else "network"
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=DRAIN_STEPS,
            seed=WORKLOAD_SEED,
            step_seconds=STEP_SECONDS,
            control=drain_tape(drained),
            operator=OperatorConfig(transport=transport, timeout_ms=OPERATOR_TIMEOUT_MS),
        ),
    )
    if mode == "net-lossy":
        scenario.federation.network.fault_state().set_gray(
            scenario.federation.discovery_authority_id,
            GrayFailure(loss_probability=CONTROL_LOSS),
        )
    report = engine.run()
    stats = report.operator_stats
    network = scenario.federation.network
    player = engine.control_plane
    # The three transports run byte-identically until the first tape event
    # fires, so its delivery lag isolates the pure transport delta; later
    # events also carry round-position drift from the diverged clocks.
    lag_first = player.delivery_lags[0] if player.delivery_lags else float("inf")
    return {
        "mode": mode,
        "lag_first_s": lag_first,
        "lag_mean_s": stats["delivery_lag_mean"],
        "lag_max_s": stats["delivery_lag_max"],
        "requests": stats["requests"],
        "delivered": stats["delivered"],
        "timeouts": stats["timeouts"],
        "retransmits": float(network.stats.retransmissions),
        "tape_retries": stats["tape_retries"],
        "applied": report.control_stats["events_applied"],
        "converge_p95_s": report.control_stats["converge_p95_s"],
        "failed": float(report.failed_requests),
        "_tape_pending": stats["tape_pending"],
        "_unconverged": report.control_stats["devices_unconverged"],
        "_audit_records": stats["audit_records"],
        "_snapshot_digest": digest(report.snapshot()),
    }


def run_drain_cells(clients: int) -> list[dict[str, object]]:
    return [run_drain_cell(mode, clients) for mode in ("direct", "net-healthy", "net-lossy")]


# ----------------------------------------------------------------------
# Partitioned-operator cell
# ----------------------------------------------------------------------
def partition_world():
    """One store, two replicas for the two consoles to race over (the cell
    drives them by hand; no fleet runs)."""
    return build_scenario(
        store_count=1,
        city_rows=5,
        city_cols=5,
        config=FederationConfig(
            device_discovery_cache_ttl_seconds=20.0,
            registration_ttl_seconds=60.0,
            service_times=SERVICE_TIMES,
            retry_policy=RETRY_POLICY,
        ),
        seed=WORLD_SEED,
        reuse_worlds=True,
        store_replicas=2,
    )


def run_partition_cell() -> dict[str, object]:
    """Two consoles, one partition, one audited winner.

    Operator ``east`` (region 0) and operator ``west`` (region 1) target
    the two replicas of one group with conflicting drains.  A region-
    scoped partition cuts ``west`` off from the control endpoint first:
    its request burns the full timeout and goes *pending* — the API never
    saw it.  ``east``'s drain lands.  The partition heals, ``west``
    retries with the same idempotency token, and the group guard turns
    the late arrival into an audited ``conflict``.  Throughout, the group
    keeps a registered positive-weight member — no NXDOMAIN window."""
    scenario = partition_world()
    federation = scenario.federation
    first, second = scenario.store_replica_ids(0)
    group_id = sorted(federation.replica_groups)[0]
    endpoint = federation.discovery_authority_id
    audit = AuditLog()

    def console(name: str, region: int) -> OperatorClient:
        principals = PrincipalRegistry()
        principals.register(name, ALL_PERMISSIONS)
        api = OperatorApi(federation=federation, principals=principals, audit=audit)
        return OperatorClient(
            api=api,
            principal=name,
            transport="network",
            endpoint_id=endpoint,
            region=region,
            timeout_ms=OPERATOR_TIMEOUT_MS,
        )

    east = console("east", 0)
    west = console("west", 1)
    faults = federation.network.fault_state()

    def registered_positive() -> bool:
        return any(
            server_id in federation.registry.registrations
            and federation.srv_of(server_id)[1] > 0
            for server_id in federation.replica_groups[group_id].server_ids
        )

    nxdomain_free = registered_positive()
    # Partition the west console's region away from the control endpoint.
    faults.block(endpoint, regions=(1,))
    west_token = west.next_token()
    cut_off = west.request("drain", second, token=west_token)
    nxdomain_free = nxdomain_free and registered_positive()
    won = east.request("drain", first)
    nxdomain_free = nxdomain_free and registered_positive()
    # Heal; the west console retries the *same* logical request.
    faults.unblock(endpoint, regions=(1,))
    lost = west.request("drain", second, token=west_token)
    nxdomain_free = nxdomain_free and registered_positive()

    weights = sorted(federation.srv_of(server_id)[1] for server_id in (first, second))
    final_digest = state_digest(federation)

    # Replay determinism: the shared audit log, replayed through a fresh
    # API over a fresh federation, must land the identical state digest.
    fresh = partition_world()
    replay_principals = PrincipalRegistry()
    replay_principals.register("east", ALL_PERMISSIONS)
    replay_principals.register("west", ALL_PERMISSIONS)
    replay_api = OperatorApi(federation=fresh.federation, principals=replay_principals)
    replay_audit(audit.records, replay_api)
    replay_digest = state_digest(fresh.federation)

    return {
        "cut_off_arrived": cut_off.arrived,
        "winner": "east" if won.response.ok else "west",
        "winner_seq": won.response.seq,
        "loser_seq": lost.response.seq,
        "loser_error": lost.response.error or "",
        "west_timeouts": float(west.counters["unreachable"] + west.counters["timeouts"]),
        "drained_weights": weights,
        "nxdomain_free": nxdomain_free,
        "audit_outcomes": [record.outcome for record in audit.records],
        "state_digest": final_digest,
        "replay_digest": replay_digest,
    }


# ----------------------------------------------------------------------
# Autoscaler reaction-lag cells
# ----------------------------------------------------------------------
def run_reaction_cell(transport: str, clients: int) -> dict[str, object]:
    """The E19 flash-crowd auto cell, scaler batches routed through the
    operator API over ``transport``."""
    scenario = build_world()
    federation = scenario.federation
    group_id = sorted(federation.replica_groups)[0]
    federation.attach_warm_pool(group_id, POOL_SIZE)
    engine = WorkloadEngine(
        scenario,
        WorkloadConfig(
            clients=clients,
            steps=FLASH_STEPS,
            seed=WORKLOAD_SEED,
            step_seconds=STEP_SECONDS,
            resolver_pools=RESOLVER_POOLS,
            faults=flash_plan(scenario),
            telemetry=TELEMETRY,
            autoscale=AUTOSCALE,
            operator=OperatorConfig(transport=transport, timeout_ms=OPERATOR_TIMEOUT_MS),
        ),
    )
    report = engine.run()
    assert engine.operator_api is not None
    first_action_at = next(
        (
            record.at_seconds
            for record in engine.operator_api.audit
            if record.outcome == "applied"
        ),
        float("inf"),
    )
    stats = report.autoscale_stats
    return {
        "transport": transport,
        "first_action_s": first_action_at,
        "promotions": stats["promotions"],
        "ops_applied": stats["ops_applied"],
        "ops_rejected": stats["ops_rejected"],
        "audited": report.operator_stats["audit_records"],
        "_snapshot_digest": digest(report.snapshot()),
    }


def run_reaction_cells(clients: int) -> list[dict[str, object]]:
    return [run_reaction_cell(transport, clients) for transport in ("direct", "network")]


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
def by_mode(rows: list[dict[str, object]], key: str = "mode") -> dict[str, dict[str, object]]:
    return {str(row[key]): row for row in rows}


def verify(
    drain: list[dict[str, object]],
    partition: dict[str, object],
    reaction: list[dict[str, object]],
) -> list[str]:
    """The experiment's claims, checked against the measured cells."""
    failures: list[str] = []
    cells = by_mode(drain)
    direct, healthy, lossy = cells["direct"], cells["net-healthy"], cells["net-lossy"]

    for row in drain:
        if row["_tape_pending"] != 0.0:
            failures.append(f"{row['mode']}: tape never fully delivered")
        if row["applied"] != 3.0:
            failures.append(
                f"{row['mode']}: {row['applied']:.0f} of 3 tape events applied"
            )
        if row["failed"] != 0.0:
            failures.append(
                f"{row['mode']}: {row['failed']:.0f} failed requests — a drain "
                "became an outage"
            )
        if row["_unconverged"] != 0.0:
            failures.append(f"{row['mode']}: fleet never converged on the tape")
    if direct["timeouts"] != 0.0 or direct["retransmits"] != 0.0:
        failures.append("direct: charged network failures on an in-process transport")
    if healthy["lag_first_s"] <= direct["lag_first_s"]:
        failures.append(
            f"net-healthy first-event lag {healthy['lag_first_s']:.3f}s not "
            f"strictly above the direct baseline {direct['lag_first_s']:.3f}s"
        )
    for stat in ("lag_mean_s", "lag_max_s"):
        # A control hop only ever adds delay: every event lands at the same
        # round boundary as in-process, plus the hop RTTs paid before it.
        if healthy[stat] < direct[stat]:
            failures.append(
                f"net-healthy {stat} {healthy[stat]:.3f}s below the direct "
                f"baseline {direct[stat]:.3f}s — a network hop cannot speed delivery up"
            )
    if lossy["lag_first_s"] <= healthy["lag_first_s"]:
        failures.append(
            f"net-lossy first-event lag {lossy['lag_first_s']:.3f}s not above "
            f"net-healthy {healthy['lag_first_s']:.3f}s"
        )
    if lossy["retransmits"] < 1.0:
        failures.append("net-lossy: the gray control endpoint lost nothing")
    if lossy["timeouts"] < 1.0 or lossy["tape_retries"] < 1.0:
        failures.append(
            "net-lossy: no request ever timed out and retried — the loss "
            "rate is not exercising the retry path"
        )

    if partition["cut_off_arrived"]:
        failures.append("partition: the cut-off console's request reached the API")
    if partition["winner"] != "east":
        failures.append("partition: the unpartitioned console did not win")
    if partition["loser_error"] != "conflict":
        failures.append(
            f"partition: the late retry resolved to {partition['loser_error']!r}, "
            "not an audited conflict"
        )
    if not partition["winner_seq"] < partition["loser_seq"]:
        failures.append("partition: audit sequence does not order the winner first")
    if partition["drained_weights"][0] != 0 or partition["drained_weights"][1] <= 0:
        failures.append(
            f"partition: group weights {partition['drained_weights']} — exactly "
            "one replica must be drained"
        )
    if not partition["nxdomain_free"]:
        failures.append("partition: the group lost its last registered member")
    if partition["replay_digest"] != partition["state_digest"]:
        failures.append(
            "partition: audit replay did not reproduce the state digest "
            f"({partition['replay_digest']} != {partition['state_digest']})"
        )

    reaction_cells = by_mode(reaction, key="transport")
    r_direct, r_net = reaction_cells["direct"], reaction_cells["network"]
    for row in reaction:
        if row["promotions"] < 1.0:
            failures.append(
                f"reaction[{row['transport']}]: the autoscaler never promoted"
            )
    if r_net["first_action_s"] <= r_direct["first_action_s"]:
        failures.append(
            f"reaction: networked first action at {r_net['first_action_s']:.3f}s "
            f"is not after the direct transport's {r_direct['first_action_s']:.3f}s"
        )
    return failures


def payload(
    drain: list[dict[str, object]],
    partition: dict[str, object],
    reaction: list[dict[str, object]],
    clients: int,
) -> dict[str, object]:
    def drain_block(row: dict[str, object]) -> dict[str, object]:
        return {
            "delivery_lag_first_s": row["lag_first_s"],
            "delivery_lag_mean_s": row["lag_mean_s"],
            "delivery_lag_max_s": row["lag_max_s"],
            "requests": row["requests"],
            "delivered": row["delivered"],
            "timeouts": row["timeouts"],
            "retransmits": row["retransmits"],
            "tape_retries": row["tape_retries"],
            "events_applied": row["applied"],
            "converge_p95_s": row["converge_p95_s"],
            "failed_requests": row["failed"],
            "audit_records": row["_audit_records"],
            "snapshot_digest": row["_snapshot_digest"],
        }

    def reaction_block(row: dict[str, object]) -> dict[str, object]:
        return {
            "first_action_s": row["first_action_s"],
            "promotions": row["promotions"],
            "ops_applied": row["ops_applied"],
            "ops_rejected": row["ops_rejected"],
            "audit_records": row["audited"],
            "snapshot_digest": row["_snapshot_digest"],
        }

    return {
        "experiment": "E20",
        "description": "the operator API layer: control ops as "
        "authenticated, schema-validated messages over the simulated "
        "network — drain delivery lag per transport, partitioned "
        "operators resolved by audit-log order, autoscaler reaction lag, "
        "audit replay determinism",
        "world_seed": WORLD_SEED,
        "workload_seed": WORKLOAD_SEED,
        "clients": clients,
        "control_loss": CONTROL_LOSS,
        "operator_timeout_ms": OPERATOR_TIMEOUT_MS,
        "drain": {row["mode"]: drain_block(row) for row in drain},
        "partition": {
            "winner": partition["winner"],
            "winner_seq": partition["winner_seq"],
            "loser_seq": partition["loser_seq"],
            "loser_error": partition["loser_error"],
            "west_timeouts": partition["west_timeouts"],
            "drained_weights": partition["drained_weights"],
            "nxdomain_free": partition["nxdomain_free"],
            "audit_outcomes": partition["audit_outcomes"],
            "state_digest": partition["state_digest"],
            "replay_digest": partition["replay_digest"],
        },
        "autoscaler": {row["transport"]: reaction_block(row) for row in reaction},
    }


PARTITION_COLUMNS = ("winner", "winner_seq", "loser_seq", "loser_error", "west_timeouts", "nxdomain_free")


def run(smoke: bool) -> SimpleNamespace:
    clients = SMOKE_CLIENTS if smoke else FULL_CLIENTS
    return SimpleNamespace(
        drain=run_drain_cells(clients),
        partition=run_partition_cell(),
        reaction=run_reaction_cells(AUTOSCALE_SMOKE_CLIENTS if smoke else AUTOSCALE_FULL_CLIENTS),
        clients=clients,
    )


def rerun(s: SimpleNamespace) -> tuple[str, str]:
    """Determinism: the richest cell (lossy control hop: RNG-drawn
    retransmits, timeouts, and round retries) must reproduce exactly."""
    repeat = run_drain_cell("net-lossy", s.clients)
    return by_mode(s.drain)["net-lossy"]["_snapshot_digest"], repeat["_snapshot_digest"]


def ok(s: SimpleNamespace) -> str:
    cells, partition = by_mode(s.drain), s.partition
    reaction = by_mode(s.reaction, key="transport")
    return (
        f"first-event drain lag direct {cells['direct']['lag_first_s']:.2f}s "
        f"→ healthy {cells['net-healthy']['lag_first_s']:.2f}s → lossy "
        f"{cells['net-lossy']['lag_first_s']:.2f}s; partition winner seq "
        f"{partition['winner_seq']} < loser {partition['loser_seq']} "
        f"({partition['loser_error']}); autoscaler first action "
        f"{reaction['direct']['first_action_s']:.1f}s → "
        f"{reaction['network']['first_action_s']:.1f}s networked; "
        f"replay digest {partition['replay_digest']}"
    )


EXPERIMENT = Experiment(
    id="E20",
    doc=__doc__,
    run=run,
    tables=lambda s: [
        ("E20 drain transports", s.drain),
        ("E20 partitioned operators", [{key: s.partition[key] for key in PARTITION_COLUMNS}]),
        ("E20 autoscaler reaction", s.reaction),
    ],
    verify=lambda s: verify(s.drain, s.partition, s.reaction),
    rerun=rerun,
    payload=lambda s: payload(s.drain, s.partition, s.reaction, s.clients),
    ok=ok,
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
