"""OpenFLAME reproduction: a federated mapping infrastructure for the Spatial Web.

This package reproduces the system described in "Uniting the World by
Dividing it: Federated Maps to Enable Spatial Applications" (HotOS 2025):

* ``repro.core`` — the federation and its client:
  :class:`~repro.core.federation.Federation` and
  :class:`~repro.core.client.OpenFlameClient`.
* ``repro.mapserver`` — independently operated map servers with per-service
  access policies.
* ``repro.discovery`` / ``repro.dns`` — DNS-based map server discovery.
* ``repro.services`` — the federated client-side location-based services.
* ``repro.centralized`` — the centralized baseline architecture (Figure 1).
* ``repro.worldgen`` — synthetic cities, stores and campuses for experiments.
* ``repro.workload`` — fleet simulation: mobility models, Zipf traffic and
  the workload engine that measures tail latency and cache hit-rates.

This package imports nothing, because importing any of its modules runs it
first.  Import each name from the submodule that defines it; a package
``__init__`` re-exports only the few names that other packages or the entry
points take through it (``scripts/check_reachable.py`` keeps it so).

Quickstart::

    from repro.worldgen import build_scenario

    scenario = build_scenario(store_count=1)
    client = scenario.federation.client()
    hits = client.search("seaweed", near=scenario.stores[0].entrance)
    print([hit.label for hit in hits.results])
"""
