#!/usr/bin/env python
"""CI smoke test for the serving daemon: HTTP round trip + clean drain.

Builds a small deterministic artifact, starts ``ServeDaemon`` on an
ephemeral port, loads the model over HTTP, sends a concurrent burst of
predict requests from real socket clients, checks the answers against
the serial ``repro infer`` reference (bit-identical logits), times
sequential round trips on one keep-alive connection, drains, and
validates the ``serve_stats.json`` left behind.  Everything a deploy
would do, in a few seconds::

    PYTHONPATH=src python scripts/serve_smoke.py

Exits 0 on success, 1 with a diagnosis otherwise.
"""

from __future__ import annotations

import http.client
import json
import statistics
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.infer.artifact import load_artifact  # noqa: E402
from repro.obs.schema import validate_path  # noqa: E402
from repro.serve import ServeConfig, ServeDaemon  # noqa: E402
from repro.serve.bench import make_bench_artifact  # noqa: E402

N_CLIENTS = 8
IMAGES_PER_CLIENT = 4
#: sequential keep-alive round trips; their median must stay below the
#: limit — a response split over two writes stalls >= 40 ms on the
#: client's delayed ACK, while a one-write answer takes a few ms
N_SEQUENTIAL = 50
SEQUENTIAL_LIMIT_MS = 30.0


def _post(base: str, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def sequential_round_trips(host: str, port: int, body: bytes) -> list:
    """Round-trip times (ms) of predict requests on one connection."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    times = []
    try:
        for _ in range(N_SEQUENTIAL):
            start = time.perf_counter()
            conn.request("POST", "/v1/models/smoke/predict", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            times.append((time.perf_counter() - start) * 1000.0)
            if response.status != 200:
                raise RuntimeError(f"status {response.status}")
    finally:
        conn.close()
    return times


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bomp-serve-smoke-") as tmp:
        artifact_path = Path(tmp) / "smoke.bomp"
        make_bench_artifact(artifact_path)
        run_dir = Path(tmp) / "run"
        daemon = ServeDaemon(ServeConfig(
            port=0, max_batch=4, run_dir=str(run_dir)))
        host, port = daemon.start()
        base = f"http://{host}:{port}"

        health = json.loads(
            urllib.request.urlopen(base + "/healthz", timeout=10).read())
        assert health["status"] == "ok", health
        _post(base, "/v1/models/smoke/load", {"path": str(artifact_path)})

        rng = np.random.default_rng(11)
        images = rng.normal(size=(N_CLIENTS * IMAGES_PER_CLIENT,
                                  16, 16, 3)).astype(np.float32)
        results: list = [None] * N_CLIENTS
        failures: list = []

        def client(index: int) -> None:
            lo = index * IMAGES_PER_CLIENT
            batch = images[lo:lo + IMAGES_PER_CLIENT]
            try:
                results[index] = _post(
                    base, "/v1/models/smoke/predict",
                    {"inputs": batch.tolist(), "return_logits": True})
            except Exception as exc:
                failures.append(f"client {index}: {exc}")

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            print("FAIL concurrent clients:", *failures, sep="\n  ")
            return 1

        served = np.concatenate([
            np.asarray(results[i]["logits"], dtype=np.float32)
            for i in range(N_CLIENTS)])
        reference = load_artifact(artifact_path).compile(
            name="reference").run(images, batch_size=images.shape[0])
        if not np.array_equal(served, reference):
            worst = float(np.abs(served - reference).max())
            print(f"FAIL served logits differ from serial reference "
                  f"(max abs diff {worst})")
            return 1

        times = sequential_round_trips(
            host, port, json.dumps({"inputs": images[0].tolist()}).encode())
        median_ms = statistics.median(times)
        if median_ms >= SEQUENTIAL_LIMIT_MS:
            print(f"FAIL median keep-alive round trip {median_ms:.1f} ms "
                  f">= {SEQUENTIAL_LIMIT_MS} ms over {N_SEQUENTIAL} "
                  f"requests (a write stall?)")
            return 1

        stats = daemon.shutdown(drain=True)
        admitted = stats["metrics"]["serve.requests"]["value"]
        if admitted < N_CLIENTS * IMAGES_PER_CLIENT:
            print(f"FAIL only {admitted} requests admitted")
            return 1
        errors = validate_path(run_dir / "serve_stats.json")
        if errors:
            print("FAIL serve_stats.json:", *errors, sep="\n  ")
            return 1
        print(f"serve smoke ok: {N_CLIENTS} concurrent clients, "
              f"{int(admitted)} requests, bit-identical to serial "
              f"inference, keep-alive round trip p50 {median_ms:.1f} ms, "
              f"clean drain")
    return 0


if __name__ == "__main__":
    sys.exit(main())
