#!/usr/bin/env bash
# Tier-1 CI: test suite + schema contracts + bench regression gate.
#
# Usage:  bash scripts/ci.sh
#
# Steps:
#   1. tier-1 pytest (slow/bench marked tests stay opted out via addopts)
#   2. schema validation of the committed BENCH_*.json files and of a
#      freshly traced+profiled run's events.jsonl (exercises the full
#      span/metric/profile event surface, not just checked-in artifacts)
#   3. serving smoke test (HTTP round trip against a live daemon,
#      concurrent clients, bit-identity vs serial inference, keep-alive
#      round-trip latency, clean drain)
#   4. the serving example (examples/serve_client.py: the client protocol
#      against an in-process daemon on an ephemeral port, offline), so a
#      config field removed under a shipped example fails here
#   5. the repo benchmark's own tests (repobench/tests)
#   6. bench gate dry run (reports newest-vs-baseline deltas; the
#      enforcing run is `python scripts/bench_gate.py` without --dry-run,
#      meant for perf-sensitive PRs after refreshing the BENCH logs)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== schema: committed BENCH files =="
python scripts/check_schema.py

echo "== schema: freshly traced+profiled run =="
TMP_RUN="$(mktemp -d)"
trap 'rm -rf "$TMP_RUN"' EXIT
python -m repro search --scale unit --no-final-training --profile \
    --trace-dir "$TMP_RUN/run" --quiet >/dev/null
python scripts/check_schema.py "$TMP_RUN/run"

echo "== serve smoke =="
python scripts/serve_smoke.py

echo "== serving example =="
python examples/serve_client.py

echo "== repo benchmark tests =="
python -m pytest repobench/tests -q

echo "== bench gate (dry run) =="
python scripts/bench_gate.py --dry-run

echo "CI passed"
