"""Replica groups: several map servers advertising one coverage region.

An operator that wants availability under churn runs N replicas of its map
server.  All N advertise the *same* coverage region under the *same* spatial
names — each covering cell holds one SRV record per replica — so a single
discovery query returns every replica and the client can fail over between
them without another DNS round trip.

With RFC 2782 load sharing the records are no longer interchangeable blobs:
each replica carries a ``priority`` (strict tiers — lower serves first) and a
``weight`` (share of traffic within its tier), so a group of heterogeneous
machines can advertise e.g. weights ``(3, 1)`` and have clients spread load
3:1 instead of hammering whichever replica sorts first.

Replica server ids are derived from the group id
(:func:`replica_server_id`), which keeps directory keys and SRV targets
unique while letting any party recover the group from an id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_REPLICA_WEIGHT = 1
"""Weight every replica gets when the operator does not configure any:
equal positive weights make RFC 2782 selection spread load uniformly."""


def replica_server_id(group_id: str, index: int) -> str:
    """The directory/SRV identifier of replica ``index`` of ``group_id``."""
    if index < 0:
        raise ValueError("replica index cannot be negative")
    return f"r{index}.{group_id}"


@dataclass
class ReplicaGroup:
    """One logical coverage region served by interchangeable replicas."""

    group_id: str
    server_ids: tuple[str, ...] = ()
    weights: tuple[int, ...] = ()
    """Per-replica RFC 2782 weight, aligned with ``server_ids``.  Empty means
    "equal": every replica gets :data:`DEFAULT_REPLICA_WEIGHT`."""
    priorities: tuple[int, ...] = ()
    """Per-replica RFC 2782 priority tier, aligned with ``server_ids``.
    Empty means every replica shares tier 0."""
    _membership: dict[str, bool] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self.server_ids:
            raise ValueError("a replica group needs at least one replica")
        if len(set(self.server_ids)) != len(self.server_ids):
            raise ValueError("replica server ids must be unique within a group")
        if not self.weights:
            self.weights = tuple(DEFAULT_REPLICA_WEIGHT for _ in self.server_ids)
        if not self.priorities:
            self.priorities = tuple(0 for _ in self.server_ids)
        if len(self.weights) != len(self.server_ids):
            raise ValueError("weights must align with server_ids")
        if len(self.priorities) != len(self.server_ids):
            raise ValueError("priorities must align with server_ids")
        if any(weight < 0 for weight in self.weights):
            raise ValueError("replica weights cannot be negative")
        if any(priority < 0 for priority in self.priorities):
            raise ValueError("replica priorities cannot be negative")
        if all(weight == 0 for weight in self.weights) and len(self.server_ids) > 1:
            raise ValueError(
                "a replica group needs at least one positive weight "
                "(all-zero weights would leave RFC 2782 selection nothing to pick)"
            )
        for server_id in self.server_ids:
            self._membership.setdefault(server_id, True)

    def __len__(self) -> int:
        return len(self.server_ids)

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._membership

    def weight_of(self, server_id: str) -> int:
        return self.weights[self.server_ids.index(server_id)]

    # ------------------------------------------------------------------
    # Live mutation (operator control plane)
    # ------------------------------------------------------------------
    def set_weight(self, server_id: str, weight: int) -> None:
        """Change one replica's advertised weight in place.

        Draining the *last* positively-weighted replica of a multi-replica
        group is rejected — it would leave RFC 2782 selection nothing but
        last resorts, which is an operator error, not a drain (drain the
        replicas one at a time and the guard never triggers).
        """
        if weight < 0:
            raise ValueError("replica weights cannot be negative")
        index = self.server_ids.index(server_id)
        prospective = list(self.weights)
        prospective[index] = weight
        if all(w == 0 for w in prospective) and len(self.server_ids) > 1:
            raise ValueError(
                f"draining {server_id!r} would leave replica group "
                f"{self.group_id!r} with no positive weight"
            )
        self.weights = tuple(prospective)

    def set_priority(self, server_id: str, priority: int) -> None:
        """Move one replica to a different strict priority tier in place."""
        if priority < 0:
            raise ValueError("replica priorities cannot be negative")
        index = self.server_ids.index(server_id)
        prospective = list(self.priorities)
        prospective[index] = priority
        self.priorities = tuple(prospective)

    def extend(
        self, server_ids: tuple[str, ...], weight: int = 0, priority: int = 0
    ) -> None:
        """Add replicas to a live group, all at one ``(priority, weight)``.

        This is the warm-pool provisioning hook: standbys join the group at
        weight 0 (healthy-but-last-resort) so a later promotion is a pure
        weight change.  The new ids must be fresh; weight/priority must be
        non-negative (the all-zero-weight guard cannot trigger here because
        extension never removes an existing positive weight).
        """
        if not server_ids:
            return
        if weight < 0:
            raise ValueError("replica weights cannot be negative")
        if priority < 0:
            raise ValueError("replica priorities cannot be negative")
        for server_id in server_ids:
            if server_id in self._membership:
                raise ValueError(
                    f"replica {server_id!r} is already a member of group {self.group_id!r}"
                )
        self.server_ids = self.server_ids + tuple(server_ids)
        self.weights = self.weights + tuple(weight for _ in server_ids)
        self.priorities = self.priorities + tuple(priority for _ in server_ids)
        for server_id in server_ids:
            self._membership[server_id] = True
