"""Shared pieces of the workload processes: inputs, statistics, results.

Inputs are made from the one ``--seed`` the benchmark receives.  Each kind
of input draws from its own stream (``numpy.random.SeedSequence`` keyed by
the seed and a stream number), so adding a draw to one input never shifts
another.  The program under test receives only these inputs.
"""

from __future__ import annotations

import json
import math
import os
import resource
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: independent random streams, one per kind of input
STREAM_DATASETS, STREAM_POLICY, STREAM_SCHEDULE, STREAM_IMAGES = 1, 2, 3, 4

#: the percentiles a timing may be reported at, highest first
PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: set-ups per run; the run reports their median
SETUP_REPEATS = 3

#: weight bitwidths of the search space's menu (Table I)
BIT_MENU = (4, 5, 6, 7, 8)


def stream(seed: int, *keys: int) -> np.random.Generator:
    """The random stream of input kind ``keys`` for bench seed ``seed``."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), *keys]))


# -- seeded inputs -----------------------------------------------------------

def dataset_seeds(seed: int, count: int) -> List[int]:
    """The dataset seeds of one search-unit run's searches."""
    return [int(s) for s in
            stream(seed, STREAM_DATASETS).integers(0, 2**31 - 1, size=count)]


def policy_bits(seed: int, n_slots: int) -> List[int]:
    """One weight bitwidth per quantization slot, from the 4-8 bit menu."""
    return [int(b) for b in
            stream(seed, STREAM_POLICY).choice(BIT_MENU, size=n_slots)]


def serve_schedule(seed: int, rate: float, duration_s: float,
                   pool: int, single_share: float = 0.75,
                   max_images: int = 8) -> List[Tuple[float, List[int]]]:
    """Open-loop requests: ``(due_s, image indices)`` in due order.

    Poisson arrivals at ``rate`` per second over ``duration_s``.  A share
    ``single_share`` of requests carry one image; the rest carry 2 to
    ``max_images``.  Images are drawn from a pool of ``pool`` images.
    """
    rng = stream(seed, STREAM_SCHEDULE)
    plan: List[Tuple[float, List[int]]] = []
    due = 0.0
    while True:
        due += float(rng.exponential(1.0 / rate))
        if due >= duration_s:
            return plan
        if rng.random() < single_share:
            count = 1
        else:
            count = int(rng.integers(2, max_images + 1))
        plan.append((due, [int(i) for i in rng.integers(0, pool,
                                                        size=count)]))


# -- statistics --------------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Exact nearest-rank percentile of the samples themselves."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def supported(count: int, pcts: Sequence[float] = PERCENTILES,
              min_beyond: int = 10) -> Optional[float]:
    """The highest percentile with at least ``min_beyond`` samples above."""
    for pct in pcts:
        if count and beyond(count, pct) >= min_beyond:
            return pct
    return None


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Another process's peak resident set size (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- the workload-process result protocol -----------------------------------

class Result:
    """What a workload process hands back to ``run.py``.

    ``e2e`` maps an end-to-end role to ``(value, samples)``; ``layers``
    maps a per-layer metric to its value; ``notes`` are extra lines for
    the human-readable report (hot-path metric names, digests, percentiles
    with sample counts).
    """

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.e2e: Dict[str, Tuple[float, int]] = {}
        self.layers: Dict[str, float] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.errors.append(message)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps({
            "setup_s": self.setup_s,
            "e2e": {k: list(v) for k, v in self.e2e.items()},
            "layers": self.layers, "notes": self.notes,
            "attempted": self.attempted, "failed": self.failed,
            "errors": self.errors}))


def workload_args(argv: Optional[Sequence[str]] = None
                  ) -> "argparse.Namespace":
    """The arguments ``run.py`` passes every workload process."""
    import argparse
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before the spawn")
    parser.add_argument("--out", required=True, help="result JSON path")
    parser.add_argument("--work", default=None,
                        help="scratch directory for inputs and logs")
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def since_spawn(t0: float) -> float:
    """Seconds since the parent stamped ``t0`` with ``time.monotonic``.

    ``CLOCK_MONOTONIC`` is one clock for every process on a Linux host,
    so a child can time its own set-up from before it was spawned.
    """
    import time
    return time.monotonic() - t0


#: every workload process runs its BLAS and OpenMP pools on one thread.
#: On a shared host with two CPUs, a second pool thread made a fixed
#: 256-image batch 8% faster but doubled the spread of its 10-second
#: medians (0.10 -> 0.23 of the median): it measured whether the other
#: CPU was free.  The serve daemon's own threads need that CPU too.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def src_env(root: Path) -> Dict[str, str]:
    """The environment a workload process runs in: ``src`` on the path,
    one BLAS thread."""
    env = dict(os.environ, **ONE_THREAD)
    src = str(Path(root) / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
