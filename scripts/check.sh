#!/usr/bin/env bash
# Repo check, split into the three stages the CI pipeline parallelizes:
#
#   --tier1   the tier-1 pytest suite
#   --smoke   every experiment registered in benchmarks/registry.py: its
#             smoke sweep under its registered wall-clock budget, then the
#             byte-for-byte reproducibility gate on its committed artifact
#             (the smoke sweep writes the artifact itself, so a drifting
#             simulation fails the gate); then perfbench --quick (the
#             host-time benchmark's own output checks on small inputs)
#   --lint    ruff check + ruff format --check (skipped with a notice when
#             ruff is not installed, so offline containers stay one-command;
#             CI installs ruff and enforces it), plus — with or without
#             ruff — the docs link checker (a dead relative link in
#             README.md or docs/ fails), the set-order sum checker (a
#             float sum iterating a set in src/repro/ fails: its rounding
#             would follow the process's string-hash seed), the memo
#             bound checker (functools.cache, lru_cache or LruCache with no
#             stated bound in src/repro/ fails) and the module reachability
#             and layering checker (a module under src/repro/ that no entry
#             point in benchmarks/, perfbench/, scripts/ or examples/
#             imports, other than through its own package __init__, fails;
#             so does an import of a package at or above the importer's own
#             in check_reachable.py's LAYERS, and a package LAYERS omits)
#
# With no stage flag every stage runs in order — the local one-command check.
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
  registered="$(python benchmarks/registry.py)"
  drifted=false
  while read -r experiment script budget artifact; do
    echo
    echo "== benchmark smoke: $experiment (budget ${budget}s) =="
    # `git diff` exits 0 for untracked paths, which would make the gate
    # vacuous for an artifact nobody committed — require the baseline.
    if ! git ls-files --error-unmatch "$artifact" >/dev/null 2>&1; then
      echo "FAIL: $artifact is not tracked by git (the byte-for-byte gate needs a committed baseline)"
      exit 1
    fi
    python "benchmarks/$script" --smoke --budget-seconds "$budget"
    if ! git diff --quiet -- "$artifact" 2>/dev/null; then
      echo "FAIL: smoke did not reproduce the committed $artifact; drifted keys (old -> new):"
      python scripts/artifact_drift.py "$artifact"
      drifted=true
    fi
  done <<< "$registered"
  if $drifted; then
    exit 1
  fi

  echo
  echo "== benchmark smoke: perfbench --quick (host-time benchmark self-check) =="
  # Not a measurement (one small repetition per workload, ~7s): fails on a
  # simulated-output mismatch between repetitions, a switched-off layer
  # making calls, or any of the suite's output checks.
  PYTHONPATH="$PYTHONPATH:." python -m perfbench --quick --out "$(mktemp)"
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

  echo
  echo "== lint: float sums over sets =="
  python scripts/check_set_order_sums.py

  echo
  echo "== lint: memo bounds =="
  python scripts/check_unbounded_memos.py

  echo
  echo "== lint: module reachability and layering =="
  python scripts/check_reachable.py
fi

echo
echo "All checks passed."
