"""Property-based tests locking down RFC 2782 ordering and target planning.

The control plane makes SRV priority/weight *mutable at runtime*, so the
ordering invariants that used to hold by construction now have to hold for
every state an operator can reach.  This suite drives
:func:`repro.services.failover.rfc2782_order` (and the health-aware
:func:`~repro.services.failover.plan_targets` split) through ~10k seeded random
configurations — weights, priorities, tier sizes, health states — and checks
the invariants the rest of the system leans on:

* **strict tiers** — every candidate of a lower priority value precedes
  every candidate of a higher one;
* **zero-weight last within tier** — weight-0 candidates (drained replicas)
  come after every positively-weighted tier mate;
* **permutation completeness** — each chain is a permutation of the
  candidates: nothing duplicated, nothing dropped;
* **empirical proportionality** — within a tier, first-pick frequency over
  many draws matches the weight shares within tolerance;
* **healthy-before-suspect** — with a health tracker, no known-unhealthy
  candidate ever precedes a healthy one inside a planned target.

Each bulk test uses one seeded ``random.Random`` stream, so a failure
reproduces exactly; a couple of hypothesis tests add shrinking on top.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.services.failover import WEIGHTED, plan_targets, rfc2782_order
from repro.services.health import ReplicaHealth
from repro.simulation.clock import SimulatedClock

CASES = 2500
"""Random configurations per bulk test — four bulk tests make the ~10k
cases the suite sweeps overall."""


def random_srv_config(rng: random.Random) -> tuple[list[str], dict[str, tuple[int, int]]]:
    """A random candidate set: 1-8 replicas over 1-3 tiers, weights 0-9."""
    count = rng.randint(1, 8)
    server_ids = [f"r{i}.grp" for i in range(count)]
    srv_of = {
        sid: (rng.randint(0, 2), rng.randint(0, 9)) for sid in server_ids
    }
    # Sometimes leave ids out of srv_of entirely (stale-view / bootstrap
    # case): they must default to tier 0, weight 0 without blowing up.
    for sid in server_ids:
        if rng.random() < 0.1:
            del srv_of[sid]
    rng.shuffle(server_ids)
    return server_ids, srv_of


def srv_lookup(srv_of: dict[str, tuple[int, int]], sid: str) -> tuple[int, int]:
    return srv_of.get(sid, (0, 0))


class TestRfc2782OrderProperties:
    def test_strict_tier_invariant_holds_over_random_configs(self):
        rng = random.Random(0xE15)
        for _ in range(CASES):
            server_ids, srv_of = random_srv_config(rng)
            ordered = rfc2782_order(server_ids, srv_of, rng)
            priorities = [srv_lookup(srv_of, sid)[0] for sid in ordered]
            assert priorities == sorted(priorities), (
                f"tier order violated: {ordered} -> {priorities} (srv={srv_of})"
            )

    def test_zero_weight_last_within_tier_over_random_configs(self):
        rng = random.Random(0xD8A1)
        for _ in range(CASES):
            server_ids, srv_of = random_srv_config(rng)
            ordered = rfc2782_order(server_ids, srv_of, rng)
            for priority in {srv_lookup(srv_of, sid)[0] for sid in ordered}:
                tier = [sid for sid in ordered if srv_lookup(srv_of, sid)[0] == priority]
                weights = [srv_lookup(srv_of, sid)[1] for sid in tier]
                # Once a zero appears, everything after it in the tier is zero:
                # a drained replica is never ahead of a weighted tier mate.
                seen_zero = False
                for weight in weights:
                    if weight == 0:
                        seen_zero = True
                    else:
                        assert not seen_zero, (
                            f"weighted candidate after a drained one in tier "
                            f"{priority}: {tier} weights={weights}"
                        )

    def test_permutation_completeness_over_random_configs(self):
        rng = random.Random(0xBEEF)
        for _ in range(CASES):
            server_ids, srv_of = random_srv_config(rng)
            ordered = rfc2782_order(server_ids, srv_of, rng)
            assert sorted(ordered) == sorted(server_ids), (
                f"chain is not a permutation: {server_ids} -> {ordered}"
            )

    def test_discovery_order_never_leaks_into_the_shuffle(self):
        """Two devices with identical RNG streams but differently-shuffled
        discovery results must draw identical chains: only the stream (and
        the SRV data) may influence the order."""
        rng = random.Random(0x0DDB)
        for _ in range(CASES):
            server_ids, srv_of = random_srv_config(rng)
            seed = rng.randrange(2**32)
            shuffled = list(server_ids)
            rng.shuffle(shuffled)
            first = rfc2782_order(server_ids, srv_of, random.Random(seed))
            second = rfc2782_order(shuffled, srv_of, random.Random(seed))
            assert first == second

    def test_empirical_weight_proportionality_three_to_one(self):
        srv_of = {"a": (0, 3), "b": (0, 1)}
        rng = random.Random(42)
        first = Counter(rfc2782_order(["a", "b"], srv_of, rng)[0] for _ in range(10_000))
        assert abs(first["a"] / 10_000 - 0.75) < 0.02

    def test_empirical_weight_proportionality_mixed_tier(self):
        """First-pick shares in a (5, 2, 1) tier track 5/8, 2/8, 1/8."""
        srv_of = {"a": (0, 5), "b": (0, 2), "c": (0, 1)}
        rng = random.Random(7)
        draws = 10_000
        first = Counter(
            rfc2782_order(["c", "b", "a"], srv_of, rng)[0] for _ in range(draws)
        )
        for sid, weight in (("a", 5), ("b", 2), ("c", 1)):
            assert abs(first[sid] / draws - weight / 8.0) < 0.02, (
                f"{sid}: {first[sid] / draws:.3f} vs {weight / 8.0:.3f}"
            )

    def test_drained_replica_is_never_picked_first_among_weighted(self):
        """Weight 0 (a drain) keeps a replica out of the tier's rotation
        entirely — over many draws it never leads while a mate has weight."""
        srv_of = {"a": (0, 1), "b": (0, 1), "drained": (0, 0)}
        rng = random.Random(3)
        for _ in range(2_000):
            ordered = rfc2782_order(["drained", "a", "b"], srv_of, rng)
            assert ordered[-1] == "drained"

    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8),
        priorities=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_hypothesis_invariants(self, weights, priorities, seed):
        count = min(len(weights), len(priorities))
        server_ids = [f"s{i}" for i in range(count)]
        srv_of = {
            sid: (priorities[i], weights[i]) for i, sid in enumerate(server_ids)
        }
        ordered = rfc2782_order(server_ids, srv_of, random.Random(seed))
        assert sorted(ordered) == sorted(server_ids)
        tiers = [srv_of[sid][0] for sid in ordered]
        assert tiers == sorted(tiers)


class TestPlanTargetsHealthProperties:
    def test_healthy_candidates_precede_suspect_ones(self):
        """Load balancing never overrules known-dead avoidance: under any
        random health state, every healthy group member precedes every
        unhealthy one in the planned chain."""
        rng = random.Random(0xCAFE)
        clock = SimulatedClock()
        for _ in range(CASES):
            server_ids, srv_of = random_srv_config(rng)
            group_of = {sid: "grp" for sid in server_ids}
            directory = {sid: object() for sid in server_ids}
            health = ReplicaHealth(clock=clock, cooldown_seconds=60.0)
            sick = {sid for sid in server_ids if rng.random() < 0.4}
            for sid in sick:
                health.record_failure(sid, dead=rng.random() < 0.5)
            targets = plan_targets(
                server_ids,
                directory=directory,
                group_of=group_of,
                health=health,
                selection=WEIGHTED,
                srv_of=srv_of,
                rng=rng,
            )
            assert len(targets) == 1
            chain = list(targets[0].candidate_ids)
            assert sorted(chain) == sorted(server_ids)
            flags = [health.is_healthy(sid) for sid in chain]
            # All True prefix, then all False: no suspect ahead of a healthy.
            assert flags == sorted(flags, reverse=True), (
                f"suspect ahead of healthy: {chain} flags={flags} sick={sick}"
            )
            clock.advance(120.0)  # clean slate for the next case
