"""Span recording around the layers' public callables, from outside ``src/``.

The benchmark wraps each layer boundary (a public method, named by dotted
path and resolved at run time) with a recorder that appends one span per
call: name, start, end, the span that caused it, and a request id shared
by every span under one ``OpenFlameClient`` call.  Spans stay in memory;
:func:`dump` writes them when the worker ends.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so self times of a tree add up to the
root's duration and can be read as shares of the run.

A target that no longer exists is reported in ``Tracer.missing`` and its
metrics read ``None`` — a refactor that renames a method degrades one
row of the table instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path
from typing import Callable, Sequence

ROOT_SPAN = "perfbench.timed"
"""The span the worker opens around the whole timed section."""

REQUEST_ROOTS = tuple(
    f"repro.core.OpenFlameClient.{method}"
    for method in ("search", "route", "localize", "render_viewport", "geocode")
)
"""Calls that start a client request: spans beneath one share its id."""

LAYER_SPANS: tuple[tuple[str, str | None, tuple[str, ...]], ...] = (
    ("workload.loop_self_s", None, ("repro.workload.WorkloadEngine.run",)),
    ("workload.mobility_self_s", "workload.mobility_calls", ("repro.workload.FleetClient.advance",)),
    ("queue.phantom_self_s", "queue.phantom_calls", ("repro.simulation.ServerQueue.phantom_arrivals",)),
    ("queue.process_self_s", "queue.process_calls", ("repro.simulation.ServerQueue.process",)),
    ("network.self_s", None, ("repro.simulation.SimulatedNetwork.round_trip",)),
    ("core.request_self_s", "core.request_calls", REQUEST_ROOTS),
    (
        "discovery.self_s",
        "discovery.calls",
        tuple(f"repro.discovery.Discoverer.discover_{how}" for how in ("at", "region", "along")),
    ),
    ("dns.self_s", "dns.resolve_calls", ("repro.dns.RecursiveResolver.resolve",)),
    ("mapserver.search_self_s", "mapserver.search_calls", ("repro.mapserver.MapServer.search",)),
    ("mapserver.route_self_s", "mapserver.route_calls", ("repro.mapserver.MapServer.route",)),
    ("mapserver.localize_self_s", "mapserver.localize_calls", ("repro.mapserver.MapServer.localize",)),
    ("mapserver.tile_self_s", "mapserver.tile_calls", ("repro.mapserver.MapServer.get_tile",)),
    ("mapserver.geocode_self_s", "mapserver.geocode_calls", ("repro.mapserver.MapServer.geocode",)),
    ("churn.self_s", None, ("repro.churn.ChurnController.apply_until",)),
    (
        "control.self_s",
        None,
        (
            "repro.control.ControlPlane.apply_until",
            "repro.control.ControlPlane.apply_batch",
            "repro.operator.NetworkedControlPlayer.apply_until",
        ),
    ),
    (
        "faults.self_s",
        None,
        ("repro.faults.FaultInjector.apply_until", "repro.faults.FaultInjector.inject_round_load"),
    ),
    (
        "telemetry.self_s",
        None,
        tuple(
            f"repro.telemetry.TelemetryPipeline.{method}"
            for method in ("record_request", "observe_servers", "flush")
        ),
    ),
    ("autoscale.self_s", None, ("repro.autoscale.Autoscaler.observe",)),
    ("operator.self_s", None, ("repro.operator.OperatorApi.handle",)),
)
"""``(self-time metric, call-count metric or None, dotted targets)`` per
layer boundary; layers are ``src/repro`` package names."""


class Tracer:
    """An in-memory span log with a parent stack (one thread, strict nesting)."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        """``[name index, start ns, end ns, parent span or -1, request id or 0]``."""
        self.missing: list[str] = []
        self._open: list[int] = []
        self._request = 0
        self._requests_started = 0

    def wrap(self, name: str, func: Callable, starts_request: bool = False) -> Callable:
        """``func`` with a span recorded around every call."""
        name_index = len(self.names)
        self.names.append(name)
        spans, open_spans, clock = self.spans, self._open, self.clock

        def traced(*args, **kwargs):
            own_request = starts_request and self._request == 0
            if own_request:
                self._requests_started += 1
                self._request = self._requests_started
            span = [name_index, 0, 0, open_spans[-1] if open_spans else -1, self._request]
            open_spans.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()
                if own_request:
                    self._request = 0

        return traced

    def install(self, targets: Sequence[str], request_roots: Sequence[str] = ()) -> None:
        """Wrap each dotted ``package.Class.method`` in place; note the missing."""
        for target in targets:
            resolved = _resolve(target)
            if resolved is None:
                self.missing.append(target)
                continue
            owner, attribute = resolved
            wrapped = self.wrap(target, getattr(owner, attribute), target in request_roots)
            setattr(owner, attribute, wrapped)


def _resolve(target: str) -> tuple[object, str] | None:
    """The ``(owner, attribute)`` a dotted name points at, or None."""
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:-1]:
            owner = getattr(owner, attribute, None)
        if owner is not None and callable(getattr(owner, parts[-1], None)):
            return owner, parts[-1]
        return None
    return None


def install_layers(tracer: Tracer) -> None:
    """Wrap every boundary in :data:`LAYER_SPANS`."""
    for _, _, targets in LAYER_SPANS:
        tracer.install(targets, REQUEST_ROOTS)


def self_times(spans: Sequence[Sequence[int]]) -> list[int]:
    """Each span's duration minus its direct children's (nanoseconds)."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def totals_by_name(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """``name -> (self seconds, calls)`` over the whole span log."""
    self_ns = [0] * len(tracer.names)
    calls = [0] * len(tracer.names)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_ns[span[0]] += own
        calls[span[0]] += 1
    return {name: (self_ns[i] / 1e9, calls[i]) for i, name in enumerate(tracer.names)}


def layer_metrics(tracer: Tracer, totals: dict[str, tuple[float, int]]) -> dict[str, float | None]:
    """The traced per-layer metrics from :func:`totals_by_name`'s result,
    ``None`` where every target of a layer is missing.

    ``trace.coverage`` is the share of the root span spent inside some
    layer span: one minus the root's own self time over its duration.
    """
    metrics: dict[str, float | None] = {}
    for self_metric, calls_metric, targets in LAYER_SPANS:
        present = [totals[target] for target in targets if target in totals]
        metrics[self_metric] = sum(t[0] for t in present) if present else None
        if calls_metric is not None:
            metrics[calls_metric] = float(sum(t[1] for t in present)) if present else None
    root = next((span for span in tracer.spans if tracer.names[span[0]] == ROOT_SPAN), None)
    if root is not None and root[2] > root[1]:
        metrics["trace.coverage"] = 1.0 - totals[ROOT_SPAN][0] / ((root[2] - root[1]) / 1e9)
    else:
        metrics["trace.coverage"] = None
    return metrics


def dump(tracer: Tracer, path: Path) -> None:
    """Write the span log as JSON (names once, spans as integer rows)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump({"names": tracer.names, "missing": tracer.missing, "spans": tracer.spans}, handle)
