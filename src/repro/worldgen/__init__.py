"""Synthetic world generation: cities, stores, campuses, products, scenarios."""

from repro.worldgen.scenario import build_scenario

__all__ = ["build_scenario"]
