"""E00 — the paper's claims: E1–E12 and A1 under one byte-gated artifact.

The thirteen experiments that reproduce the *paper* — centralized vs federated
cost (E1/E2), discovery and covering (E3/E4), per-service quality (E5–E7,
E10–E12), scalability (E8), privacy (E9) and the design ablations (A1) — are
provider modules, ``bench_e1_centralized.py`` … ``bench_a1_ablations.py``,
each exposing

* ``CELLS``: table name → cell, a zero-argument function of its own seeds
  that builds its own world (no resolver cache, clock or iterator inherited
  from a sibling) and returns ``{row: {column: value}}`` with no wall-clock
  column;
* ``bands(tables)``: claim → whether it holds on those tables, in memory or
  loaded back from the artifact; a claim states its band with its minimum
  sample count, then the rows it was read from.

A provider's docstring opens ``EN — <paper section>: <title>``; the part before
the colon prefixes its failure lines, so a violated band names its experiment,
its place in the paper and the number.  The artifact's top-level keys are the
experiment ids: a drifting cell reads ``E7.recall.federated (Fig 2).recall:
1.0 -> 0.9`` in the smoke gate.  The experiments have one size, so ``--smoke``
and the full run compute the same cells.
"""

from __future__ import annotations

from harness import Experiment, digest, main  # first: finds src/ when run standalone
import bench_a1_ablations as A1
import bench_e1_centralized as E1
import bench_e2_federated as E2
import bench_e3_discovery as E3
import bench_e4_covering as E4
import bench_e5_routing as E5
import bench_e6_localization as E6
import bench_e7_search as E7
import bench_e8_scalability as E8
import bench_e9_privacy as E9
import bench_e10_routing_algos as E10
import bench_e11_tiles as E11
import bench_e12_geocode as E12

PROVIDERS = dict(E1=E1, E2=E2, E3=E3, E4=E4, E5=E5, E6=E6, E7=E7, E8=E8, E9=E9, E10=E10, E11=E11, E12=E12, A1=A1)

DECIMALS = 6


def rounded(node):
    """Every float leaf of the artifact, at 6 decimals — the one place.

    The CI smoke job runs a newer CPython than most checkouts, and its
    compensated builtin ``sum()`` (like a different numpy build's reductions)
    moves the last bits of any mean of distances: localization errors,
    alignment and coverage, snap distances, route gaps and stretch, covering
    areas.  A micrometre is ≈10⁵× that noise and far below any band.  Counts
    are integers and pass through; message totals and simulated milliseconds
    are multiples of 10⁻³, which rounding at 10⁻⁶ returns unchanged.
    """
    if isinstance(node, dict):
        return {key: rounded(value) for key, value in node.items()}
    return round(node, DECIMALS) if isinstance(node, float) else node


def run(smoke: bool) -> dict:
    """The artifact itself: experiment id → table → row → column."""
    return {
        experiment_id: rounded({name: cell() for name, cell in provider.CELLS.items()})
        for experiment_id, provider in PROVIDERS.items()
    }


def tables(payload: dict) -> list[tuple[str, list[dict]]]:
    return [
        (f"{experiment_id} {name}", [{"row": label, **row} for label, row in table.items()])
        for experiment_id, experiment in payload.items()
        for name, table in experiment.items()
    ]


def verify(payload: dict) -> list[str]:
    return [
        f"{provider.__doc__.split(':')[0]}: need {claim}"
        for experiment_id, provider in PROVIDERS.items()
        for claim, holds in provider.bands(payload[experiment_id]).items()
        if not holds
    ]


def rerun(payload: dict) -> tuple[str, str]:
    """E2's service rows again: its routing row is the one that could not
    repeat itself (48–56 msgs/request) while it measured from wherever a
    sibling left the shared client, so it is the one a leak would move."""
    return digest(payload["E2"]["services"]), digest(rounded(E2.services()))


def ok(payload: dict) -> str:
    search = payload["E2"]["search_overhead"]["federated (Fig 2)"]
    discovery, fix, recall = payload["E3"]["cache_state"], payload["E6"]["indoor_error"], payload["E7"]["recall"]
    outsider = payload["E9"]["exposure"]["outside user"]
    return (
        f"the paper's claims hold — federated search {search['messages_per_request']:g} msgs/request against 1 "
        f"centralized, discovery {discovery['cold']['messages']} msgs cold -> {discovery['warm']['messages']} warm, "
        f"indoor fix {fix['federated (store map servers)']['mean_error_m']:.2f} m against "
        f"{fix['centralized (GNSS only)']['mean_error_m']:.2f} m GNSS-only, indoor product recall "
        f"{recall['federated (Fig 2)']['recall']:g} against "
        f"{recall['centralized, indoor maps withheld (Fig 1)']['recall']:g}, outsiders see "
        f"{outsider['private_rooms_visible']} of {outsider['private_rooms']} private rooms"
    )


EXPERIMENT = Experiment(
    id="E00", doc=__doc__, run=run, tables=tables, verify=verify, rerun=rerun, payload=lambda payload: payload, ok=ok
)

if __name__ == "__main__":
    raise SystemExit(main(EXPERIMENT))
