"""The repository benchmark: one workload per invocation, or both.

Usage, from the root of a checkout::

    python3 repobench/run.py --workload search-unit --seed 0 \\
        --seconds 45 --trace 0

``--workload`` is ``search-unit``, ``serve-http`` or ``all``.  Each
workload runs in fresh processes with ``src`` on the path and one BLAS
thread; nothing is cached across runs.  With ``--trace 0`` the last line of
standard output is one JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric.  The lines before it are
the human-readable report: each metric with its unit and sample count,
what it is on this workload, and the operations attempted, succeeded
and failed.  A failed output check makes the run exit 1.

The benchmark's own tests: ``PYTHONPATH=src python -m pytest
repobench/tests``.  Steadiness over seeds: ``repobench/steady.py``.

Set-up time is the median of ``SETUP_REPEATS`` set-ups in separate
processes (the measured run is one of them).  The serve-http workload
spawns its daemons itself, so it repeats its own set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repobench.common import SETUP_REPEATS, src_env  # noqa: E402
from repobench.metrics import (E2E_UNITS, ROLE_MEANING, LAYER_MOVES,  # noqa
                               LAYER_UNITS, RUN_SECONDS, WORKLOADS)

MODULES = {"search-unit": "repobench.search_unit",
           "serve-http": "repobench.serve_http"}

#: a workload process is killed (with its children) after this long
CHILD_TIMEOUT_S = 170.0


def run_child(cmd: List[str], timeout_s: float) -> int:
    """Run ``cmd`` in its own session; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=src_env(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        output, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        output, _ = proc.communicate()
        sys.stdout.write(output.decode(errors="replace"))
        print(f"workload process timed out after {timeout_s:.0f} s")
        return -1
    if proc.returncode != 0:
        sys.stdout.write(output.decode(errors="replace"))
    return proc.returncode


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 work: Path, deadline: float) -> Optional[Dict]:
    """Run one workload's processes; returns its merged result."""
    base = [sys.executable, "-m", MODULES[workload], "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    setups: List[float] = []
    probes = 0 if workload == "serve-http" or trace else SETUP_REPEATS - 1
    for i in range(probes):
        out = work / f"{workload}-setup{i}.json"
        code = run_child(base + ["--t0", repr(time.monotonic()),
                                 "--out", str(out), "--work", str(work),
                                 "--setup-only"],
                         deadline - time.monotonic())
        if code != 0 or not out.exists():
            return None
        setups += json.loads(out.read_text())["setup_s"]
    out = work / f"{workload}.json"
    code = run_child(base + ["--t0", repr(time.monotonic()), "--out",
                             str(out), "--work", str(work)],
                     deadline - time.monotonic())
    if code != 0 or not out.exists():
        return None
    result = json.loads(out.read_text())
    setups += result["setup_s"]
    if not trace:
        result["e2e"]["setup_s"] = [statistics.median(setups), len(setups)]
    return result


def report(workload: str, result: Dict, trace: int) -> Dict[str, Dict]:
    """Print the human-readable report; return the metrics block."""
    metrics: Dict[str, Dict] = {}
    print(f"== {workload} ==")
    if trace:
        print("per-layer metrics (traced run; idle layers read 0):")
        for name, unit in LAYER_UNITS.items():
            value = float(result["layers"].get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:24s} {value:14.6g} {unit:9s} moves "
                  f"{LAYER_MOVES[name]}")
    else:
        print("end-to-end metrics:")
        for name, unit in E2E_UNITS.items():
            value, samples = result["e2e"][name]
            metrics[name] = {"value": float(value), "unit": unit}
            print(f"  {name:16s} {float(value):14.6g} {unit:6s} "
                  f"n={samples:<5d} {ROLE_MEANING[name][workload]}")
    for note in result["notes"]:
        print(f"  {note}")
    for error in result["errors"]:
        print(f"  CHECK FAILED: {error}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  operations: attempted {attempted}, succeeded "
          f"{attempted - failed}, failed {failed}")
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}: run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" \
        else [args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Dict] = {}
    try:
        for workload in workloads:
            deadline = time.monotonic() + CHILD_TIMEOUT_S
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, work, deadline)
            if result is None:
                print(f"{workload}: a workload process failed")
                return 1
            block = report(workload, result, args.trace)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in block.items()})
            attempted += result["attempted"]
            failed += result["failed"]
            correct = correct and not result["errors"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass                    # another run is using it
    print(json.dumps({"correct": correct and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
