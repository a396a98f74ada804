"""Steadiness check: run workloads over several seeds, report the spread.

Usage, from the root of a checkout::

    python3 repobench/steady.py --workloads search-unit serve-http \\
        --seeds 10 --first-seed 0 [--seconds 45] [--record]

Each run is ``run.py --workload W --seed S --trace 0`` in a subprocess.
For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of that median, next
to a third of the metric's bound.  ``--record`` writes the figures, the
host fingerprint and the per-layer map to ``repobench/record.json``; the
figures go under the set's seed range, next to those of earlier sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repobench.common import src_env  # noqa: E402
from repobench.metrics import (END_TO_END, ROLE_MEANING, LAYER_MOVES,  # noqa
                               RUN_SECONDS, WORKLOADS)

RECORD = Path(__file__).resolve().parent / "record.json"


def spread(values: List[float]) -> Dict[str, float]:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / abs(med) if med else 0.0}


def run_once(workload: str, seed: int, seconds: float) -> Dict:
    proc = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=Path.cwd(), capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}"
                           f"\n{proc.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    bounds = {name: bound for name, _, _, bound in END_TO_END}
    figures: Dict[str, Dict] = {}
    steady = True
    for workload in args.workloads:
        values: Dict[str, List[float]] = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = run_once(workload, seed, args.seconds)
            for name in bounds:
                values[name].append(out["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
        figures[workload] = {}
        for name, series in values.items():
            row = spread(series)
            row["values"] = series
            figures[workload][name] = row
            ok = name == "setup_s" or row["iqr_over_median"] < bounds[name]
            steady = steady and ok
            print(f"  {workload:12s} {name:16s} median {row['median']:12.6g}"
                  f"  spread {row['iqr_over_median']:.4f}  bound/3 "
                  f"{bounds[name] / 3:.4f}  {'ok' if ok else 'OVER BOUND'}",
                  flush=True)
    if args.record:
        env = src_env(Path.cwd())
        host = json.loads(subprocess.run(
            [sys.executable, "-c", "import json; from repro.obs.host import "
             "host_metadata; print(json.dumps(host_metadata()))"],
            env=env, capture_output=True, text=True, check=True).stdout)
        previous = json.loads(RECORD.read_text()) if RECORD.exists() else {}
        steadiness = previous.get("steadiness", {})
        last = args.first_seed + args.seeds - 1
        steadiness.setdefault(f"seeds {args.first_seed}-{last}",
                              {}).update(figures)
        RECORD.write_text(json.dumps({
            "host": host, "seconds": args.seconds, "seeds": args.seeds,
            "end_to_end_per_workload": ROLE_MEANING,
            "per_layer_moves": LAYER_MOVES,
            "steadiness": steadiness}, indent=2) + "\n")
        print(f"recorded to {RECORD}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
