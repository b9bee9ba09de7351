"""Compare two run records of ``python -m perfbench``: A is the base, B the change.

Both records are of one seed — a before/after pair — so the inputs are
identical and the bounds are the issue's (:data:`HOST`, :data:`SIMULATED`).
``BENCHMARK.json`` holds a wider one for ``ops_per_s`` because the driver
that reads it compares runs of *different* seeds, whose inputs differ.

One row per (workload, end-to-end metric) with both medians and quartiles,
the ratio B/A with its base, the bound and a verdict.  Host metrics:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over median)
  of either side is wider than the bound, so the two medians cannot be
  told apart at that resolution — unless every run of B reads better than
  every run of A, which needs no resolution;
* ``ok`` — otherwise.

Simulated metrics and the ``sim_digest`` are deterministic, so they are
compared exactly: ``same``, ``changed`` where they differ by no more than
the bound, ``worse`` beyond it.  A perf change must leave them ``same``; a
change that re-baselines the model shows as ``changed`` rows rather than
as a benchmark edit.
"""

from __future__ import annotations

from dataclasses import dataclass

HOST = (
    ("ops_per_s", "1/s", "higher", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
)
"""``(name, unit, better, bound)``: the share of A's median by which B's
may be worse."""

SIMULATED = (
    ("sim_p50_ms", "sim_ms", 0.01, "relative"),
    ("sim_p95_ms", "sim_ms", 0.01, "relative"),
    ("failed_share", "ratio", 0.001, "absolute"),
)
"""``(name, unit, bound, kind of bound)``; lower is better: worse by more
than 1%, or by more than 0.001 in absolute terms, is a regression."""


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: str
    change: str
    ratio: str
    bound: str
    verdict: str


def _relative_spread(stats: dict) -> float:
    return (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0


def _host_row(workload: str, name: str, unit: str, better: str, bound: float, a: dict, b: dict) -> Row:
    ratio = b["median"] / a["median"]
    if better == "higher":
        loss = 1.0 - ratio
        b_always_better = min(b["values"]) > max(a["values"])
    else:
        loss = ratio - 1.0
        b_always_better = max(b["values"]) < min(a["values"])
    if loss > bound:
        verdict = "worse"
    elif max(_relative_spread(a), _relative_spread(b)) > bound and not b_always_better:
        verdict = "unresolved"
    else:
        verdict = "ok"
    return Row(
        workload=workload,
        metric=name,
        base=f"{a['median']:.4g} [{a['q1']:.4g}, {a['q3']:.4g}]",
        change=f"{b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]",
        ratio=f"{ratio:.3f} x {a['median']:.4g} {unit}",
        bound=f"{bound:.0%} {better}",
        verdict=verdict,
    )


def _simulated_row(workload: str, name: str, unit: str, bound: float, kind: str, before: float, after: float) -> Row:
    loss = after - before if kind == "absolute" else after / before - 1.0
    return Row(
        workload=workload,
        metric=name,
        base=f"{before:.6g}",
        change=f"{after:.6g}",
        ratio=f"{after / before:.3f} x {before:.6g} {unit}" if before else f"{after - before:+.6g} {unit}",
        bound=f"+{bound} lower" if kind == "absolute" else f"{bound:.0%} lower",
        verdict="worse" if loss > bound else "same" if before == after else "changed",
    )


def compare(base: dict, change: dict) -> list[Row]:
    """Every comparison row for two run records of one seed."""
    rows: list[Row] = []
    for workload, a in base["workloads"].items():
        b = change["workloads"][workload]
        for name, unit, better, bound in HOST:
            rows.append(_host_row(workload, name, unit, better, bound, a["end_to_end"][name], b["end_to_end"][name]))
        for name, unit, bound, kind in SIMULATED:
            rows.append(_simulated_row(workload, name, unit, bound, kind, a["per_layer"][name], b["per_layer"][name]))
        before, after = a["sim_digest"][:16], b["sim_digest"][:16]
        rows.append(Row(workload, "sim_digest", before, after, "-", "exact", "same" if before == after else "changed"))
    return rows


def render(rows: list[Row]) -> str:
    header = Row("workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B/A x base", "bound", "verdict")
    table = [tuple(vars(row).values()) for row in [header, *rows]]
    widths = [max(len(line[column]) for line in table) for column in range(len(table[0]))]
    return "\n".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() for line in table)


def regressed(rows: list[Row]) -> bool:
    return any(row.verdict in ("worse", "changed") for row in rows)
