"""Every experiment in ``benchmarks/``, as data: id → (script, smoke budget in seconds).

Everything that enumerates experiments iterates this table instead of naming
them: ``scripts/check.sh --smoke`` (runs each script under its budget, then
gates its artifact), ``scripts/ci_summary.py`` (one table per artifact),
``.github/workflows/ci.yml`` (uploads the ``BENCH_e??.json`` pattern the
artifact names below all match) and ``tests/test_ci_pipeline.py``.

A budget bounds the smoke sweep's wall clock (``--budget-seconds``; the
determinism rerun is not on the timer) at ≈3–4× the sweep time measured on
this tree, 2 s floor — tight enough that losing a hot path fails the stage.
"""

from __future__ import annotations

EXPERIMENTS: dict[str, tuple[str, int]] = {
    "E00": ("bench_e00_paper.py", 6),  # 1.1–1.7 s, the paper's E1–E12 + A1: 34 tables, a fresh world per cell
    "E13": ("bench_e13_workload.py", 2),  # 0.2 s measured
    "E14": ("bench_e14_churn.py", 5),  # 1.4–1.5 s
    "E15": ("bench_e15_control.py", 5),  # 1.2–1.3 s
    "E16": ("bench_e16_scale.py", 3),  # 0.5–0.6 s, 100k clients on the cohort fast path
    "E17": ("bench_e17_faults.py", 5),  # 1.3–1.4 s
    "E18": ("bench_e18_telemetry.py", 6),  # 1.3 s, the 100k fleet twice (telemetry on/off)
    "E19": ("bench_e19_autoscale.py", 12),  # 3.3–3.5 s, seven provisioning cells
    "E20": ("bench_e20_operator.py", 5),  # 1.2 s
}


def artifact_name(experiment_id: str, smoke: bool = True) -> str:
    """``BENCH_e13.json`` is the committed smoke artifact; the full sweep's
    ``BENCH_e13_full.json`` is git-ignored so exploration never clobbers it."""
    return f"BENCH_{experiment_id.lower()}{'' if smoke else '_full'}.json"


if __name__ == "__main__":  # scripts/check.sh reads these lines
    for experiment_id, (script, budget) in EXPERIMENTS.items():
        print(experiment_id, script, budget, artifact_name(experiment_id))
