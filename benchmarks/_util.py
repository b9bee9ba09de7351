"""Small helpers shared by the benchmark files."""

from __future__ import annotations

from repro.core.config import FederationConfig
from repro.faults.scenarios import RETRY_POLICY, SERVER_QUEUE_CAPACITY, SERVICE_TIMES, WORLD_SEED
from repro.worldgen.scenario import FederatedScenario, build_scenario


def md1_mean_wait_ms(service_ms: float, utilization: float) -> float:
    """Mean queueing wait of an M/D/1 server (milliseconds).

    Pollaczek–Khinchine with deterministic service: Wq = ρ·S / (2·(1−ρ)).
    Used as an analytic sanity check on the measured wait-time curves: the
    simulated arrival process is round-phased rather than Poisson, so the
    comparison is a sanity band, not an identity.  Utilization at or above
    1.0 has no steady state — callers must not ask.
    """
    if service_ms < 0.0:
        raise ValueError("service time cannot be negative")
    if not (0.0 <= utilization < 1.0):
        raise ValueError("M/D/1 has a steady state only for utilization in [0, 1)")
    return utilization * service_ms / (2.0 * (1.0 - utilization))


def batch_md1_mean_wait_ms(service_ms: float, batch_size: float, utilization: float) -> float:
    """Mean wait of an M/D/1 queue fed one batch of ``batch_size`` per arrival.

    The fleet engine issues each round's requests from the same simulated
    instant, so a server's arrivals are closer to periodic *batches* than to
    a Poisson stream.  If a whole round's K requests truly landed at one
    instant, the k-th would wait (k−1)·S, giving a batch mean of
    ``(K−1)/2·S`` on top of the Poisson-congestion term — the upper edge of
    the analytic band (clients' differing DNS walks spread real arrivals
    out, so measured waits fall below it).
    """
    if batch_size < 1.0:
        return md1_mean_wait_ms(service_ms, utilization)
    return (batch_size - 1.0) / 2.0 * service_ms + md1_mean_wait_ms(service_ms, utilization)


def check_md1_sanity(
    server_stats: dict[str, dict[str, float]],
    steps: int,
    max_utilization: float = 0.7,
    rel_tolerance: float = 1.5,
    abs_slack_ms: float = 0.5,
) -> list[str]:
    """Check measured mean waits against the M/D/1 analytic band.

    For every server comfortably below saturation (utilization ≤
    ``max_utilization``; beyond that the finite buffer dominates), the
    measured mean wait must lie between the Poisson M/D/1 lower bound (the
    least bursty arrival process at the observed rate) and the
    one-batch-per-round upper bound (the most bursty the round structure
    allows), each with tolerance.  Returns human-readable failure strings
    (empty = all sane) so callers can aggregate across sweep rows.
    """
    failures: list[str] = []
    for server_id, stats in sorted(server_stats.items()):
        served = stats.get("served", 0.0)
        utilization = stats.get("utilization", 0.0)
        if served < 10 or not (0.0 < utilization <= max_utilization):
            continue
        mean_service_ms = stats.get("busy_ms", 0.0) / served
        measured = stats.get("mean_wait_ms", 0.0)
        lower = md1_mean_wait_ms(mean_service_ms, min(utilization, 0.999))
        batch = stats.get("arrivals", served) / max(1, steps)
        upper = batch_md1_mean_wait_ms(mean_service_ms, batch, min(utilization, 0.999))
        if measured > rel_tolerance * upper + abs_slack_ms:
            failures.append(
                f"{server_id}: measured wait {measured:.3f}ms above batch-M/D/1 "
                f"upper bound {upper:.3f}ms (util {utilization:.2f}, batch {batch:.1f})"
            )
        elif measured < lower / rel_tolerance - abs_slack_ms:
            failures.append(
                f"{server_id}: measured wait {measured:.3f}ms below M/D/1 "
                f"lower bound {lower:.3f}ms (util {utilization:.2f})"
            )
    return failures


def print_table(title: str, rows: list[dict[str, object]]) -> None:
    """Print an experiment's result rows in a compact aligned table."""
    print(f"\n## {title}")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    header = " | ".join(f"{key:>18s}" for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        cells = []
        for key in keys:
            value = row.get(key)
            if isinstance(value, float):
                cells.append(f"{value:>18.3f}")
            else:
                cells.append(f"{str(value):>18s}")
        print(" | ".join(cells))


def paper_world():
    """The standard world of the paper experiments — a 6x6 city, three stores,
    no campus — and a client of it.  Every cell builds its own pair (≈30 ms),
    so no cell sees a resolver cache, clock or counter a sibling left behind."""
    world = build_scenario(store_count=3, include_campus=False, city_rows=6, city_cols=6, seed=42)
    return world, world.federation.client()


def cost_per_request(network, requests, passes: int) -> dict[str, float]:
    """Steady-state messages and simulated latency per request.

    The warm-up is stated, not inherited: one unmeasured pass over
    ``requests`` (after it every name those walks resolve sits in the
    resolver cache, positively or negatively), then the counters are reset
    and ``passes`` measured passes follow.  Callers keep the whole cell inside
    the 60 s negative-cache TTL of simulated time, so "warm" means one thing.
    A request returns its answer; ``answered`` counts the truthy ones.
    """
    for request in requests:
        request()
    network.reset_stats()
    answered = sum(bool(request()) for _ in range(passes) for request in requests)
    measured = passes * len(requests)
    return {
        "requests": measured,
        "answered": answered,
        "messages_per_request": network.stats.messages_sent / measured,
        "sim_latency_ms": network.stats.total_latency_ms / measured,
    }


def disaster_world(
    device_ttl: float, dns_ttl: float, store_count: int = 2, store_replicas: int = 2
) -> FederatedScenario:
    """The E17-style disaster world E18–E20 build their cells on: a 5x5 city
    with replicated stores under the fault library's service-time, queue and
    retry models.  The experiments differ only in how fast clients may
    converge (device-cache and DNS record TTLs) and in the replica layout."""
    config = FederationConfig(
        device_discovery_cache_ttl_seconds=device_ttl,
        registration_ttl_seconds=dns_ttl,
        client_tile_cache_entries=256,
        service_times=SERVICE_TIMES,
        server_queue_capacity=SERVER_QUEUE_CAPACITY,
        retry_policy=RETRY_POLICY,
    )
    return build_scenario(
        store_count=store_count,
        city_rows=5,
        city_cols=5,
        config=config,
        seed=WORLD_SEED,
        reuse_worlds=True,
        store_replicas=store_replicas,
    )
