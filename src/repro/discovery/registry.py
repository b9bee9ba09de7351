"""Registering map servers in the discovery DNS.

A map operator registers its map by (1) computing a cell covering of the
map's coverage region and (2) publishing one record per covering cell naming
the map server.  Because coverings over-approximate regions, nearby clients
may discover servers whose precise polygon does not contain them — exactly
the boundary fuzziness Section 3 accepts, and the reason clients filter
discovered servers afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.dns.records import RecordType, ResourceRecord, SrvData
from repro.dns.server import NameServer
from repro.dns.zone import Zone
from repro.discovery.naming import SpatialNaming
from repro.geometry.polygon import Polygon
from repro.spatialindex.cellid import CellId
from repro.spatialindex.covering import CoveringOptions, RegionCoverer

MAP_SERVER_RECORD_TYPE = RecordType.SRV
"""Record type used to advertise map servers under spatial names."""

DEFAULT_REGISTRATION_TTL = 3600.0
"""TTL for registration records — map server addresses change rarely (§5.1)."""


@dataclass(frozen=True, slots=True)
class Registration:
    """The result of registering one map server."""

    server_id: str
    cells: tuple[CellId, ...]
    record_count: int
    priority: int = 0
    weight: int = 0
    port: int = 443
    target: str = ""
    """SRV target host; defaults to the server id (the common case where the
    directory key *is* the advertised host)."""

    def __post_init__(self) -> None:
        if not self.target:
            object.__setattr__(self, "target", self.server_id)


@dataclass
class DiscoveryRegistry:
    """Owns the spatial DNS zone and registers map servers into it.

    In a real deployment each organization would run its own authoritative
    servers for the sub-zones delegated to it; for the prototype a single
    authoritative :class:`NameServer` hosts the whole spatial zone, which is
    sufficient to measure query counts, caching and latency.
    """

    naming: SpatialNaming = field(default_factory=SpatialNaming)
    covering_options: CoveringOptions = field(default_factory=CoveringOptions)
    ttl_seconds: float = DEFAULT_REGISTRATION_TTL
    zone: Zone = field(init=False)
    authority: NameServer = field(init=False)
    registrations: dict[str, Registration] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.zone = Zone(origin=self.naming.suffix, default_ttl=self.ttl_seconds)
        self.authority = NameServer(server_id=f"ns.{self.naming.suffix}")
        self.authority.host_zone(self.zone)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_covering(
        self,
        server_id: str,
        cells: list[CellId],
        priority: int = 0,
        weight: int = 0,
        port: int = 443,
        target: str | None = None,
    ) -> Registration:
        """Register ``server_id`` under an explicit list of cells.

        ``priority``/``weight`` carry RFC 2782 load-sharing semantics into
        every emitted SRV record; clients decode them back out of discovery
        answers to order replica chains.  ``target`` is the advertised SRV
        host (defaulting to the server id).  Registering an endpoint
        (``target:port``) that another registration already advertises at a
        shared spatial name is rejected outright: two SRV records for one
        host:port would silently shadow each other (only one backend
        exists), which is a deployment error, not a bigger replica group.
        """
        if not cells:
            raise ValueError("cannot register a map server with an empty covering")
        if server_id in self.registrations:
            raise ValueError(f"map server {server_id!r} is already registered")
        srv = SrvData(target=target or server_id, port=port, priority=priority, weight=weight)
        for cell in cells:
            name = self.naming.cell_to_name(cell)
            for record in self.zone.records_at(name, MAP_SERVER_RECORD_TYPE):
                if SrvData.decode(record.data).endpoint == srv.endpoint:
                    raise ValueError(
                        f"endpoint {srv.target}:{srv.port} is already advertised at "
                        f"{name!r} (by an existing registration); refusing to shadow it"
                    )
        record_count = 0
        data = srv.encode()
        for cell in cells:
            name = self.naming.cell_to_name(cell)
            self.zone.add(name, MAP_SERVER_RECORD_TYPE, data, self.ttl_seconds)
            record_count += 1
        registration = Registration(
            server_id,
            tuple(cells),
            record_count,
            priority=priority,
            weight=weight,
            port=port,
            target=srv.target,
        )
        self.registrations[server_id] = registration
        return registration

    def register_region(
        self,
        server_id: str,
        region: Polygon,
        priority: int = 0,
        weight: int = 0,
        port: int = 443,
        target: str | None = None,
    ) -> Registration:
        """Register a map server for a polygonal coverage region."""
        coverer = RegionCoverer(self.covering_options)
        cells = coverer.cover_polygon(region)
        return self.register_covering(
            server_id, cells, priority=priority, weight=weight, port=port, target=target
        )

    def reweight(
        self, server_id: str, priority: int | None = None, weight: int | None = None
    ) -> Registration:
        """Re-emit a registered server's SRV records with new priority/weight.

        The operator control plane's authority-side half: every spatial name
        the registration covers gets a replacement record carrying the new
        RFC 2782 values.  The replacement is published *before* the stale
        record is withdrawn, so at no instant does a covered name stop
        resolving the endpoint — there is no NXDOMAIN (or empty-answer)
        window for a fresh query to fall into.  Caches are untouched:
        clients keep acting on the old values until their TTLs lapse, which
        is exactly the convergence lag the workload engine measures.
        """
        registration = self.registrations.get(server_id)
        if registration is None:
            raise ValueError(f"map server {server_id!r} is not registered")
        new_priority = registration.priority if priority is None else priority
        new_weight = registration.weight if weight is None else weight
        if (new_priority, new_weight) == (registration.priority, registration.weight):
            return registration
        srv = SrvData(
            target=registration.target,
            port=registration.port,
            priority=new_priority,
            weight=new_weight,
        )
        data = srv.encode()
        for cell in registration.cells:
            name = self.naming.cell_to_name(cell)
            stale = [
                record
                for record in self.zone.records_at(name, MAP_SERVER_RECORD_TYPE)
                if SrvData.decode(record.data).endpoint == srv.endpoint
            ]
            self.zone.add(name, MAP_SERVER_RECORD_TYPE, data, self.ttl_seconds)
            for record in stale:
                self.zone.remove_record(record)
        updated = replace(registration, priority=new_priority, weight=new_weight)
        self.registrations[server_id] = updated
        return updated

    def deregister(self, server_id: str) -> int:
        """Remove a map server's records; returns the number of records removed.

        Removal is surgical (:meth:`repro.dns.zone.Zone.remove_record`):
        other servers' records at shared spatial names — replicas of the
        same coverage region — keep resolving untouched, and the authority
        stops answering for the departed server immediately.
        """
        registration = self.registrations.pop(server_id, None)
        if registration is None:
            return 0
        removed = 0
        expected = (registration.target, registration.port)
        for cell in registration.cells:
            name = self.naming.cell_to_name(cell)
            for record in self.zone.records_at(name, MAP_SERVER_RECORD_TYPE):
                if SrvData.decode(record.data).endpoint == expected and self.zone.remove_record(record):
                    removed += 1
        return removed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def registered_servers(self) -> list[str]:
        return sorted(self.registrations)

    def records_for_cell(self, cell: CellId) -> list[ResourceRecord]:
        return self.zone.records_at(self.naming.cell_to_name(cell), MAP_SERVER_RECORD_TYPE)

    def servers_at_cell(self, cell: CellId) -> list[str]:
        """Server ids registered exactly at ``cell`` (not ancestors/descendants)."""
        return [SrvData.decode(r.data).target for r in self.records_for_cell(cell)]

    @property
    def total_records(self) -> int:
        return self.zone.record_count
