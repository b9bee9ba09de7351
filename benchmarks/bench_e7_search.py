"""E7 — Section 2 / Section 5.2: location-based search over federated maps.

The grocery-store walkthrough's search step: recall of indoor product queries
under (a) the federation, where stores answer from their own inventories, and
(b) the centralized provider, which never obtained the indoor maps.  Also
reports the ablation where stores *do* hand over their data, and the fan-out
cost per federated query.
"""

from __future__ import annotations

import random

from repro.worldgen.scenario import build_scenario

from _util import paper_world

QUERIES_PER_STORE = 8


def _recall_row(search, stores) -> dict:
    """Recall of each store's first products, asked for from just outside it."""
    hits = queries = 0
    for store in stores:
        near = store.entrance.destination(180.0, 60.0)
        for product in store.products[:QUERIES_PER_STORE]:
            queries += 1
            labels = [r.tag_dict().get("product") or r.label for r in search(product.name, near)]
            hits += any(product.name in (label or "") for label in labels)
    return {"queries": queries, "recall": hits / queries if queries else None}


def _centralized_search(world):
    return lambda query, near: world.centralized.search(query, near=near, radius_meters=300.0, limit=10)


def recall() -> dict:
    world, client = paper_world()
    return {
        "federated (Fig 2)": _recall_row(
            lambda query, near: client.search(query, near=near, radius_meters=300.0, limit=10).results, world.stores
        ),
        "centralized, indoor maps withheld (Fig 1)": _recall_row(_centralized_search(world), world.stores),
    }


def ingested_ablation() -> dict:
    """If stores did share their maps, the centralized recall recovers.

    This isolates the cause of the recall gap: it is data availability (the
    paper's privacy/ownership argument), not the search algorithm.
    """
    world = build_scenario(store_count=2, centralized_ingests_indoor=True, seed=51)
    return {"centralized, indoor maps ingested": _recall_row(_centralized_search(world), world.stores)}


def fanout() -> dict:
    """How many servers a federated search touches, near and far from stores."""
    world, client = paper_world()
    searches = {
        "next to a store": client.search("seaweed", near=world.stores[0].entrance, radius_meters=300.0),
        "random street corner": client.search(
            "cafe", near=world.city.random_street_point(random.Random(1)), radius_meters=300.0
        ),
    }
    return {
        where: {
            "servers_consulted": result.servers_consulted,
            "servers_with_results": result.servers_with_results,
            "dns_lookups": result.dns_lookups,
        }
        for where, result in searches.items()
    }


CELLS = {"recall": recall, "ingested_ablation": ingested_ablation, "fanout": fanout}


def bands(t: dict) -> dict[str, bool]:
    federated, withheld = t["recall"]["federated (Fig 2)"], t["recall"]["centralized, indoor maps withheld (Fig 1)"]
    ingested = t["ingested_ablation"]["centralized, indoor maps ingested"]
    near_store, corner = t["fanout"]["next to a store"], t["fanout"]["random street corner"]
    return {
        f"federated indoor-product recall > 0.9 over >= 24 queries: {federated}": (
            federated["queries"] >= 24 and federated["recall"] > 0.9
        ),
        f"centralized recall < 0.1 over >= 24 queries (it never obtained the indoor maps): {withheld}": (
            withheld["queries"] >= 24 and withheld["recall"] < 0.1
        ),
        f"centralized recall > 0.9 over >= 16 queries once it ingests them (data, not algorithm): {ingested}": (
            ingested["queries"] >= 16 and ingested["recall"] > 0.9
        ),
        "a search next to a store finds >= 1 server with results and consults >= as many as have results at a "
        f"street corner: {near_store} vs {corner}": (
            near_store["servers_with_results"] >= 1
            and near_store["servers_consulted"] >= corner["servers_with_results"]
        ),
    }
