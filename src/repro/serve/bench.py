"""Serving load generator and the ``BENCH_serve.json`` trajectory log.

``measure_serving`` runs a deterministic in-process load test against a
real :class:`~repro.serve.daemon.ServeDaemon` (same admission, batching,
and metrics path the HTTP front end uses, minus socket noise):

1. **sequential baseline** — one client, ``max_batch=1``: every request
   is its own batch, the cost of serving without dynamic batching;
2. **concurrent batched** — ``n_clients`` threads against the configured
   ``max_batch``: requests that arrive while a batch executes are
   coalesced into the next one (the batcher never waits to fill).

Request *content* is fully deterministic (seeded synthetic images served
round-robin), so both phases answer the same work; only wall-clock
varies by host.  The record lands in ``BENCH_serve.json`` — schema
version 1, append-only like the other BENCH files::

    {"schema": 1,
     "runs": [{"timestamp": ..., "dataset": ..., "bits": ...,
               "image_size": ..., "n_requests": ..., "n_clients": ...,
               "max_batch": ..., "max_wait_ms": ..., "queue_depth": ...,
               "seq_s": ..., "conc_s": ..., "seq_ips": ..., "conc_ips": ...,
               "batch_speedup": ..., "mean_batch": ...,
               "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
               "shed": ..., "timeouts": ...,
               "host": {...}, "host_limited": ...}]}

``max_wait_ms`` stays in the record so the field set never shrinks; it
is always ``0.0`` now that the batcher has no fill wait (older records
hold the deadline they ran with).

``host_limited`` is true on single-CPU hosts, where ``n_clients``
threads measure GIL scheduling as much as serving; the bench gate skips
the latency metric there but still gates throughput (batching pays for
itself even on one core by amortizing per-request Python overhead into
one arena pass).
"""

from __future__ import annotations

import json
import os
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..obs.host import host_metadata

BENCH_SCHEMA_VERSION = 1

#: record fields, in stable order (new fields are appended, never renamed)
RECORD_FIELDS = (
    "timestamp", "dataset", "bits", "image_size", "n_requests",
    "n_clients", "max_batch", "max_wait_ms", "queue_depth",
    "seq_s", "conc_s", "seq_ips", "conc_ips", "batch_speedup",
    "mean_batch", "p50_ms", "p95_ms", "p99_ms", "shed", "timeouts",
    "host", "host_limited",
)


def default_bench_path() -> Path:
    """``BENCH_serve.json`` at the repository root (cwd fallback)."""
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent / "BENCH_serve.json"
    return Path.cwd() / "BENCH_serve.json"


def append_bench_record(path: Path, record: Dict[str, Any]) -> None:
    """Append one run record, creating the file as needed."""
    path = Path(path)
    payload: Dict[str, Any] = {"schema": BENCH_SCHEMA_VERSION, "runs": []}
    if path.exists():
        existing = json.loads(path.read_text())
        if isinstance(existing, dict) and isinstance(
                existing.get("runs"), list):
            payload["runs"] = existing["runs"]
    ordered = {key: record.get(key) for key in RECORD_FIELDS}
    for key in record:
        if key not in ordered:
            ordered[key] = record[key]
    payload["runs"].append(ordered)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def make_bench_artifact(path: Path, dataset: str = "cifar10",
                        bits: int = 8, image_size: int = 16,
                        seed: int = 7,
                        calibration_images: int = 64) -> Path:
    """Write a deterministic ``.bomp`` artifact without running a search.

    Same construction as the inference bench: the seed architecture,
    homogeneously quantized at ``bits`` and PTQ-calibrated on synthetic
    images.  Weights are untrained — throughput and batching behavior do
    not care — which keeps the serve bench (and the CI smoke test) a
    few seconds instead of a full search + final training.
    """
    from ..data.synthetic import load_dataset
    from ..infer.artifact import build_artifact, save_artifact
    from ..quant.apply import apply_policy, calibrate
    from ..space.builder import build_model
    from ..space.genome import MixedPrecisionGenome
    from ..space.space import SearchSpace

    data = load_dataset(dataset, n_train=max(calibration_images, 1),
                        n_test=64, image_size=image_size, seed=seed)
    space = SearchSpace(dataset)
    num_classes = {"cifar10": 10, "cifar100": 100}[dataset]
    model = build_model(space.seed_arch(), num_classes,
                        rng=np.random.default_rng(seed))
    policy = space.seed_policy(bits)
    apply_policy(model, policy)
    calibrate(model, data.x_train[:calibration_images])
    model.set_training(False)
    genome = MixedPrecisionGenome(space.seed_arch(), policy)
    artifact = build_artifact(
        model, genome, num_classes, image_size=image_size,
        in_channels=int(data.x_train.shape[3]), dataset_spec=data.spec,
        meta={"bench": True, "bits": bits, "seed": seed})
    return save_artifact(artifact, path)


def _drive(daemon, model: str, images: np.ndarray, n_requests: int,
           n_clients: int, timeout_s: float = 60.0) -> Dict[str, Any]:
    """Fire ``n_requests`` single-image requests from ``n_clients`` threads.

    Work is dealt round-robin; each client sends its share back-to-back
    (closed-loop clients, the standard serving-bench model).  Returns
    wall time and any per-request failures.
    """
    errors: List[BaseException] = []
    errors_lock = threading.Lock()

    def client(worker: int) -> None:
        for index in range(worker, n_requests, n_clients):
            image = images[index % images.shape[0]]
            try:
                request = daemon.submit(model, image, timeout_s=timeout_s)
                request.wait(timeout_s)
            except BaseException as exc:
                with errors_lock:
                    errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,),
                                name=f"bench-client-{i}")
               for i in range(n_clients)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return {"wall_s": wall, "errors": errors}


def measure_serving(artifact_path: Optional[Path] = None,
                    dataset: str = "cifar10", bits: int = 8,
                    image_size: int = 16, n_requests: int = 256,
                    n_clients: int = 8, max_batch: int = 8,
                    queue_depth: int = 256,
                    seed: int = 7) -> Dict[str, Any]:
    """The serving throughput/latency record (see module docstring)."""
    import tempfile

    from ..data.synthetic import load_dataset
    from .daemon import ServeConfig, ServeDaemon

    tmp = None
    if artifact_path is None:
        tmp = tempfile.TemporaryDirectory(prefix="bomp-serve-bench-")
        artifact_path = Path(tmp.name) / "bench.bomp"
        make_bench_artifact(artifact_path, dataset=dataset, bits=bits,
                            image_size=image_size, seed=seed)
    try:
        data = load_dataset(dataset, n_train=1, n_test=64,
                            image_size=image_size, seed=seed)
        images = np.ascontiguousarray(data.x_test, dtype=np.float32)

        # phase 1: batch-size-1 sequential baseline
        seq = ServeDaemon(ServeConfig(max_batch=1, queue_depth=queue_depth))
        seq.load_model("bench", artifact_path)
        # warmup: arena build + lazy BLAS setup stay out of the timing
        seq.predict("bench", images[:2])
        seq_run = _drive(seq, "bench", images, n_requests, n_clients=1)
        seq.shutdown(drain=True)

        # phase 2: dynamic batching under concurrent clients
        conc = ServeDaemon(ServeConfig(max_batch=max_batch,
                                       queue_depth=queue_depth))
        conc.load_model("bench", artifact_path)
        conc.predict("bench", images[:2])
        conc_run = _drive(conc, "bench", images, n_requests,
                          n_clients=n_clients)
        stats = conc.shutdown(drain=True)
    finally:
        if tmp is not None:
            tmp.cleanup()

    if seq_run["errors"] or conc_run["errors"]:
        raise RuntimeError(
            f"load generator saw failures: "
            f"{(seq_run['errors'] + conc_run['errors'])[:3]!r}")
    metrics = stats.get("metrics", {})
    latency = metrics.get("serve.bench.latency_s", {})
    batch = metrics.get("serve.bench.batch_size", {})
    seq_s, conc_s = seq_run["wall_s"], conc_run["wall_s"]

    def _ms(key: str) -> Optional[float]:
        value = latency.get(key)
        return round(value * 1000.0, 3) \
            if isinstance(value, (int, float)) else None

    return {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "dataset": dataset, "bits": bits, "image_size": image_size,
        "n_requests": n_requests, "n_clients": n_clients,
        "max_batch": max_batch, "max_wait_ms": 0.0,
        "queue_depth": queue_depth,
        "seq_s": round(seq_s, 4), "conc_s": round(conc_s, 4),
        "seq_ips": round(n_requests / seq_s, 2) if seq_s else None,
        "conc_ips": round(n_requests / conc_s, 2) if conc_s else None,
        "batch_speedup": round(seq_s / conc_s, 3) if conc_s else None,
        "mean_batch": round(float(batch.get("mean", 0.0) or 0.0), 3),
        "p50_ms": _ms("p50"), "p95_ms": _ms("p95"), "p99_ms": _ms("p99"),
        "shed": int(metrics.get("serve.shed", {}).get("value", 0)),
        "timeouts": int(metrics.get("serve.bench.timeouts", {})
                        .get("value", 0)),
        "host": host_metadata(),
        "host_limited": (os.cpu_count() or 1) <= 1,
    }
