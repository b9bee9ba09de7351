"""E6 — Section 5.2 Localization + Section 2: indoor localization accuracy.

Compares indoor localization error of (a) the coarse GNSS-style fix the
centralized provider is limited to, and (b) the federated flow where store
map servers localize against their private beacon/image fingerprints and the
client selects the most plausible result.  Also sweeps sensor noise, and
reports which advertised technology wins the selection.
"""

from __future__ import annotations

import random

from repro.simulation.metrics import Summary, percentile

from _util import paper_world

TRIALS = 30
NOISE_TRIALS = 15


def _trial(store, rng: random.Random, **sensing):
    """One ground-truth position in ``store`` and the cues a device senses there."""
    true_local = store.random_interior_point(rng)
    return store.local_to_geographic(true_local), store.sense_cues(true_local, rng, **sensing)


def _error_row(errors: list[float]) -> dict:
    return {
        "fixes": len(errors),
        "mean_error_m": sum(errors) / len(errors) if errors else None,
        "p90_error_m": percentile(errors, 0.9) if errors else None,
    }


def indoor_error() -> dict:
    world, client = paper_world()
    rng = random.Random(5)
    federated_errors, gnss_errors = [], []
    for _ in range(TRIALS):
        true_geo, cues = _trial(world.stores[0], rng)
        fix = client.localize(true_geo, cues)
        if fix.best is not None:
            federated_errors.append(fix.location.distance_to(true_geo))
        coarse = world.centralized.localize(cues)
        if coarse is not None:
            gnss_errors.append(coarse.location.distance_to(true_geo))
    return {
        "federated (store map servers)": _error_row(federated_errors),
        "centralized (GNSS only)": _error_row(gnss_errors),
    }


def noise_sweep() -> dict:
    """Localization degrades gracefully as cue noise grows."""
    world, client = paper_world()
    rows = {}
    for rssi_noise in (1, 3, 6, 10):
        rng = random.Random(rssi_noise * 10)
        errors = Summary("err")
        for _ in range(NOISE_TRIALS):
            true_geo, cues = _trial(
                world.stores[1], rng, rssi_noise_db=float(rssi_noise), image_noise=rssi_noise / 10.0
            )
            fix = client.localize(true_geo, cues)
            if fix.best is not None:
                errors.observe(fix.location.distance_to(true_geo))
        rows[str(rssi_noise)] = {"fixes": errors.count, "mean_error_m": errors.mean, "max_error_m": errors.maximum}
    return rows


def technology() -> dict:
    """Which advertised technology wins, and with what accuracy."""
    world, client = paper_world()
    rng = random.Random(9)
    winners: dict[str, Summary] = {}
    for trial in range(TRIALS):
        true_geo, cues = _trial(world.stores[2], rng, include_fiducial=(trial % 3 == 0))
        fix = client.localize(true_geo, cues)
        if fix.best is not None:
            name = fix.best.result.cue_type.value
            winners.setdefault(name, Summary(name)).observe(fix.location.distance_to(true_geo))
    return {name: {"wins": won.count, "mean_error_m": won.mean} for name, won in sorted(winners.items())}


CELLS = {"indoor_error": indoor_error, "noise_sweep": noise_sweep, "technology": technology}


def bands(t: dict) -> dict[str, bool]:
    federated, gnss = t["indoor_error"]["federated (store map servers)"], t["indoor_error"]["centralized (GNSS only)"]
    quiet, noisy = t["noise_sweep"]["1"], t["noise_sweep"]["10"]
    wins = sum(row["wins"] for row in t["technology"].values())
    return {
        f"federated mean error below GNSS-only, all {TRIALS} fixes each: {federated} vs {gnss}": (
            federated["fixes"] == gnss["fixes"] == TRIALS and federated["mean_error_m"] < gnss["mean_error_m"]
        ),
        **{
            f"at {noise} dB noise >= 12 of {NOISE_TRIALS} trials produce a fix: {row}": row["fixes"] >= 12
            for noise, row in t["noise_sweep"].items()
        },
        f"error degrades gracefully: 1 dB {quiet} at most 3 m above 10 dB {noisy}": (
            quiet["mean_error_m"] <= noisy["mean_error_m"] + 3.0
        ),
        f"a technology wins >= 27 of {TRIALS} trials: {wins} in {t['technology']}": wins >= 27,
    }
