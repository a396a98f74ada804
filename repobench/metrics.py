"""The benchmark's metric tables: names, units, directions and links.

Every workload run reports every end-to-end metric, so each end-to-end
metric is a *role* that is defined on both workloads.  ``ROLE_MEANING``
gives, per workload, the hot-path metric a role stands for there (for
example ``latency_ms`` is ``search.wall_s``, the mean search, on
search-unit and the closed-loop round trip p50 on serve-http).

Per-layer metrics come from traced runs.  A layer that does no work in a
workload reads 0 there.  ``LAYER_MOVES`` records, before any measurement,
the end-to-end metric each per-layer metric should move and on which
workload.

There are two workloads, not three.  The host the benchmark was written
on (two CPUs of a shared Xeon) changes speed by 15-20% over tens of
seconds, and a run has to span several of those swings for its median to
hold still: the mean of 8 fixed unit searches spread 0.10 of its median
over ~25-second windows, and 0.05 over ~50-second ones.  The time limit
of all runs together allows about 45 seconds per run for two workloads,
but only 25 for three.  So the batch-256 ``Program.run`` workload was
folded away: its integer-engine layers are measured in the serve
daemon, which runs the same arena executor at batch 1-8, and its
fake-quant forward and calibration in search-unit.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "search-unit": (
        "unit-scale mp_qaft searches: nn training, quant PTQ/QAFT and bo "
        "do the work; infer and serve are idle"),
    "serve-http": (
        "a repro serve daemon fed 1-8 image requests over HTTP: the arena "
        "executor behind parse, JSON, admission, queue and batcher"),
}

#: (name, unit, better, bound) of each end-to-end role.  The time bounds
#: are wide because the host's speed drifts (see the module docstring).
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("latency_ms", "ms", "lower", 0.25),
    ("throughput", "1/s", "higher", 0.25),
    ("quality", "score", "higher", 0.1),
]

#: what each role is on each workload
ROLE_MEANING: Dict[str, Dict[str, str]] = {
    "setup_s": {w: "setup_s" for w in WORKLOADS},
    "peak_rss_mb": {w: "peak_rss_mb" for w in WORKLOADS},
    "latency_ms": {
        "search-unit": "search.wall_s (mean search, in ms)",
        "serve-http": "closed-loop round trip p50 (serve.p50_ms and "
                      "serve.p95_ms of the open loop are printed)"},
    "throughput": {
        "search-unit": "trials/s over all searches (4 per search)",
        "serve-http": "serve.capacity_rps (closed loop, 200s only)"},
    "quality": {
        "search-unit": "search.best_score (mean Eq. 1 best score)",
        "serve-http": "share of open-loop requests answered 200 within "
                      "the latency limit"},
}

#: (name, unit, what it should move) of each per-layer metric
PER_LAYER: List[Tuple[str, str, str]] = [
    ("setup.import_s", "s", "setup_s on every workload"),
    ("data.load_s", "s", "setup_s (search-unit)"),
    ("nas.trial_s", "s", "latency_ms = search.wall_s (search-unit)"),
    ("nas.trial.calls", "count", "latency_ms (search-unit)"),
    ("nn.train_s", "s", "latency_ms = search.wall_s (search-unit)"),
    ("nn.train_ips", "1/s", "latency_ms = search.wall_s (search-unit)"),
    ("nn.eval_s", "s", "latency_ms = search.wall_s (search-unit)"),
    ("nn.dwconv.fwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.dwconv.fwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.dwconv.bwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.dwconv.bwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.conv2d.fwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.conv2d.fwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.conv2d.bwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.conv2d.bwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.bn.fwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.bn.fwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.bn.bwd_s", "s", "search.wall_s (search-unit)"),
    ("nn.bn.bwd.calls", "count", "search.wall_s (search-unit)"),
    ("nn.forward_ips", "1/s",
     "the eval phase of search.wall_s (images through "
     "evaluate_classifier per second, search-unit)"),
    ("quant.ptq_s", "s", "search.wall_s (search-unit)"),
    ("quant.qaft_s", "s", "search.wall_s (search-unit)"),
    ("quant.calibrate_s", "s", "search.wall_s (search-unit)"),
    ("bo.ask_s", "s", "search.wall_s (search-unit)"),
    ("bo.ask.calls", "count", "search.wall_s (search-unit)"),
    ("bo.tell_s", "s", "search.wall_s (search-unit)"),
    ("bo.tell.calls", "count", "search.wall_s (search-unit)"),
    ("parallel.overhead_s", "s", "search.wall_s (search-unit)"),
    ("infer.compile_s", "s", "setup_s (serve-http, in the daemon)"),
    ("infer.executor_s", "s", "setup_s (serve-http, in the daemon)"),
    ("infer.batch_ms", "ms",
     "latency_ms and throughput (serve-http; the daemon's "
     "run_batch_into median, the same spans as serve.exec.batch_ms)"),
    ("infer.gmac_per_s", "GMAC/s",
     "latency_ms and throughput (serve-http)"),
    ("infer.macs_per_image", "count",
     "latency_ms and throughput (serve-http)"),
    ("infer.bytes_per_image", "B",
     "latency_ms and throughput (serve-http); computed from stage "
     "shapes and weights at the mean batch size, not measured"),
    ("infer.allocs_per_image", "count",
     "latency_ms and throughput (serve-http)"),
    ("infer.arena_mb", "MB",
     "peak_rss_mb (serve-http; all the daemon's executors)"),
    ("serve.load_s", "s", "setup_s (serve-http)"),
    ("serve.queue.wait_ms", "ms", "latency_ms (serve-http)"),
    ("serve.batch.size_mean", "count",
     "throughput = serve.capacity_rps (serve-http)"),
    ("serve.exec.batch_ms", "ms",
     "latency_ms and throughput (serve-http)"),
    ("serve.server_ms", "ms", "latency_ms (serve-http)"),
    ("serve.http.overhead_ms", "ms",
     "latency_ms and throughput (serve-http)"),
    ("serve.shed", "count", "quality (serve-http)"),
    ("serve.timeouts", "count", "quality (serve-http)"),
    ("serve.gen.late_ms", "ms", "validity check of the open loop, no gate"),
    ("trace_overhead", "fraction",
     "none: traced minus untraced time over untraced, per workload"),
]

#: per-layer metrics where a larger value is the better one
HIGHER_LAYERS = {"nn.train_ips", "nn.forward_ips", "infer.gmac_per_s",
                 "serve.batch.size_mean"}

#: how long one run measures
RUN_SECONDS = 45

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}
LAYER_MOVES = {name: moves for name, _, moves in PER_LAYER}


def benchmark_spec() -> Dict:
    """The ``BENCHMARK.json`` payload these tables describe."""
    return {
        "command": ["python3", "repobench/run.py"],
        "paths": ["repobench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit,
                       "better": "higher" if name in HIGHER_LAYERS
                       else "lower"}
                      for name, unit, _ in PER_LAYER],
    }
