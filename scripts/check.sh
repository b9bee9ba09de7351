#!/usr/bin/env bash
# Repo check, split into the three stages the CI pipeline parallelizes:
#
#   --tier1   the tier-1 pytest suite
#   --smoke   the E13 .. E20 benchmark smokes (wall-clock budgeted) plus
#             the byte-for-byte reproducibility gate on ALL committed
#             artifacts (BENCH_e13.json .. BENCH_e20.json are written by
#             the smoke sweeps themselves, so a drifting simulation fails
#             the gate), and perfbench --quick (the host-time
#             benchmark's own output checks on small inputs)
#   --lint    ruff check + ruff format --check (skipped with a notice when
#             ruff is not installed, so offline containers stay one-command;
#             CI installs ruff and enforces it), plus the docs link
#             checker (a dead relative link in README.md or docs/ fails)
#
# With no stage flag every stage runs in order — the local one-command check.
# Budgets: E13_SMOKE_BUDGET_SECONDS / E14_SMOKE_BUDGET_SECONDS /
# E15_SMOKE_BUDGET_SECONDS / E17_SMOKE_BUDGET_SECONDS (default 20s each),
# E19_SMOKE_BUDGET_SECONDS (default 40s: seven provisioning cells plus a
# determinism rerun) and E20_SMOKE_BUDGET_SECONDS (default 40s: three
# drain transports, the partitioned-operator race, two autoscaler
# reaction cells and a determinism rerun).  Those smokes finish in a
# couple of seconds, so only an order-of-magnitude hot-path regression
# trips them.  The two that run 100,000 clients on the cohort fast path
# are held to ~3x their measured runtime, so losing the queue model's
# speed fails the stage: E16_SMOKE_BUDGET_SECONDS (default 3s; 0.6s
# measured, 0.9s on a busy machine) and E18_SMOKE_BUDGET_SECONDS (default
# 6s; it runs that fleet twice, telemetry on and off: 1.4s measured, 2.1s
# busy).
# Usage: scripts/check.sh [--tier1|--smoke|--lint]...
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

run_tier1=false
run_smoke=false
run_lint=false
if [ "$#" -eq 0 ]; then
  run_tier1=true
  run_smoke=true
  run_lint=true
fi
for arg in "$@"; do
  case "$arg" in
    --tier1) run_tier1=true ;;
    --smoke) run_smoke=true ;;
    --lint) run_lint=true ;;
    *)
      echo "unknown stage '$arg' (expected --tier1, --smoke and/or --lint)" >&2
      exit 2
      ;;
  esac
done

if $run_tier1; then
  echo "== tier-1: pytest =="
  python -m pytest -x -q
fi

if $run_smoke; then
  echo
  echo "== benchmark smoke: E13 workload (budgeted) =="
  python benchmarks/bench_e13_workload.py --smoke \
    --budget-seconds "${E13_SMOKE_BUDGET_SECONDS:-20}"

  echo
  echo "== benchmark smoke: E14 churn/failover/balancing (budgeted) =="
  python benchmarks/bench_e14_churn.py --smoke \
    --budget-seconds "${E14_SMOKE_BUDGET_SECONDS:-20}"

  echo
  echo "== benchmark smoke: E15 operator control plane (budgeted) =="
  python benchmarks/bench_e15_control.py --smoke \
    --budget-seconds "${E15_SMOKE_BUDGET_SECONDS:-20}"

  echo
  echo "== benchmark smoke: E16 100k-client scale (budgeted) =="
  python benchmarks/bench_e16_scale.py --smoke \
    --budget-seconds "${E16_SMOKE_BUDGET_SECONDS:-3}"

  echo
  echo "== benchmark smoke: E17 correlated disasters (budgeted) =="
  python benchmarks/bench_e17_faults.py --smoke \
    --budget-seconds "${E17_SMOKE_BUDGET_SECONDS:-20}"

  echo
  echo "== benchmark smoke: E18 telemetry pipeline (budgeted) =="
  python benchmarks/bench_e18_telemetry.py --smoke \
    --budget-seconds "${E18_SMOKE_BUDGET_SECONDS:-6}"

  echo
  echo "== benchmark smoke: E19 autoscaler (budgeted) =="
  python benchmarks/bench_e19_autoscale.py --smoke \
    --budget-seconds "${E19_SMOKE_BUDGET_SECONDS:-40}"

  echo
  echo "== benchmark smoke: E20 operator API (budgeted) =="
  python benchmarks/bench_e20_operator.py --smoke \
    --budget-seconds "${E20_SMOKE_BUDGET_SECONDS:-40}"

  echo
  echo "== benchmark smoke: perfbench --quick (host-time benchmark self-check) =="
  # Not a measurement (one small repetition per workload, ~7s): fails on a
  # simulated-output mismatch between repetitions, a switched-off layer
  # making calls, or any of the suite's output checks.
  PYTHONPATH="$PYTHONPATH:." python -m perfbench --quick --out "$(mktemp)"

  drifted=false
  for artifact in BENCH_e13.json BENCH_e14.json BENCH_e15.json BENCH_e16.json BENCH_e17.json BENCH_e18.json BENCH_e19.json BENCH_e20.json; do
    # `git diff` exits 0 for untracked paths, which would make the gate
    # vacuous for an artifact nobody committed — require the baseline.
    if ! git ls-files --error-unmatch "$artifact" >/dev/null 2>&1; then
      echo "FAIL: $artifact is not tracked by git (the byte-for-byte gate needs a committed baseline)"
      exit 1
    fi
    if ! git diff --quiet -- "$artifact" 2>/dev/null; then
      echo "FAIL: smoke did not reproduce the committed $artifact; drifted keys (old -> new):"
      python scripts/artifact_drift.py "$artifact"
      drifted=true
    fi
  done
  if $drifted; then
    exit 1
  fi
fi

if $run_lint; then
  echo
  echo "== lint: ruff check + format =="
  if command -v ruff >/dev/null 2>&1; then
    ruff check .
    ruff format --check .
  else
    echo "ruff not installed; running the fallback audit instead"
    echo "(CI installs ruff and enforces the full rule set)"
    python scripts/lint_fallback.py
  fi

  echo
  echo "== lint: docs relative links =="
  python scripts/check_docs_links.py
fi

echo
echo "All checks passed."
