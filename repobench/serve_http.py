"""Workload ``serve-http``: a ``repro serve`` daemon fed over HTTP.

This process is the load generator.  Before anything is timed it builds
the seeded ``.bomp`` fixture (:mod:`repobench.fixture`'s network and
policy, as a deployable artifact), the expected predictions
(``Program.run`` on the image pool) and every request body.  It then
spawns the daemon ``SETUP_REPEATS`` times; set-up is spawn until
``/healthz`` lists the model, and the last daemon is the one measured.

Traffic comes from ``CONNECTIONS`` keep-alive ``http.client``
connections, one thread each.  Requests carry 1-8 images, mostly one.

- Open loop: seeded Poisson arrivals at ``RATE`` requests/s for
  ``OPEN_SHARE`` of the seconds.  Latency runs from each request's due
  time, so a stall also delays the requests queued behind it.
- Closed loop: every connection sends its next request as soon as the
  last one is answered, for the rest of the seconds; capacity counts
  the 200 answers, and the gated latency is the median round trip here.

Why the gated latency is the closed loop's: the daemon writes a
response's headers and body in two sends, so with Nagle's algorithm on
the server the body waits for the client's delayed ACK (~40 ms).  In the
closed loop every request takes that stall.  In the open loop only some
do, depending on each connection's idle gap, so the open-loop median sat
on the ramp between ~13 ms and ~55 ms and its spread over ten runs was
over a third of it.  The open-loop p50 and p95 are still reported, with
sample counts.

Before the daemons start, the integer engine is checked on the image
pool: ``Program.run`` must give bit-identical logits on a repeat, and
the same logits as ``Program.run_batch_reference``, the fresh-allocation
path the arena executor is tested against.  Every 200 answer's
predictions must equal the argmax of those logits; any other status is a
failed request.  A traced run does both phases at half length on an
untraced daemon, then again on a traced one.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repobench.common import (SETUP_REPEATS, Result, beyond, median,
                              percentile, process_peak_rss_mb,
                              serve_schedule, src_env, supported,
                              workload_args)

#: open-loop arrival rate, requests/s: about a third of the ~35/s
#: closed-loop capacity measured when this benchmark was written (2-CPU
#: Xeon).  Latency there is bimodal: ~12 ms, or ~50 ms when a ~40 ms
#: delayed-ACK stall hits.  At half the capacity (17/s) the median fell
#: between the two modes and moved by a fifth from run to run.
RATE = 12.0
#: an open-loop request answered 200 within this limit meets it
LATENCY_LIMIT_MS = 100.0
OPEN_SHARE = 0.5
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
POOL = 256
MODEL = "bench"
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


def build_inputs(seed: int, work: Path) -> Tuple[Path, np.ndarray]:
    """The ``.bomp`` fixture and the image pool (input generation)."""
    from repro.infer.artifact import build_artifact, save_artifact
    from repobench.fixture import CLASSES, IMAGE_SIZE, build_model, images

    model, genome, _ = build_model(seed)
    artifact = build_artifact(model, genome, num_classes=CLASSES,
                              image_size=IMAGE_SIZE)
    path = work / "bench.bomp"
    save_artifact(artifact, path)
    return path, images(seed, POOL, salt=2)


class Connection(http.client.HTTPConnection):
    """A keep-alive client connection with Nagle's algorithm off, as
    common HTTP clients (urllib3, requests) open theirs.  The request's
    header and body writes then leave at once, so a delayed-ACK stall
    the generator measures is the server's, not the client's."""

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Daemon:
    """One spawned daemon process and its address."""

    def __init__(self, root: Path, work: Path, artifact: Path, trace: int,
                 index: int) -> None:
        self.port = free_port()
        self.stats = work / f"daemon{index}-spans.json"
        self.log = open(work / f"daemon{index}.log", "wb")
        cmd = [sys.executable, "-m", "repobench.serve_daemon",
               "--trace", str(trace), "--stats", str(self.stats), "--",
               "--model", f"{MODEL}={artifact}", "--port", str(self.port),
               "--run-dir", str(work / f"serve{index}")]
        self.started = time.monotonic()
        self.proc = subprocess.Popen(cmd, cwd=root, env=src_env(root),
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self) -> float:
        """Poll ``/healthz`` until it lists the model; seconds taken."""
        while time.monotonic() - self.started < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited during start-up")
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=5)
            try:
                conn.request("GET", "/healthz")
                body = json.loads(conn.getresponse().read())
                if MODEL in body.get("models", []):
                    return time.monotonic() - self.started
            except (OSError, http.client.HTTPException, ValueError):
                pass                      # not listening yet
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("daemon not ready in time")

    def stop(self) -> None:
        """SIGTERM (drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


class Traffic:
    """Request bodies, expected answers and the per-request samples."""

    def __init__(self, plan: List[Tuple[float, List[int]]],
                 pool: np.ndarray, expected: np.ndarray,
                 result: Result) -> None:
        self.plan = plan
        self.bodies = [json.dumps({"inputs": pool[idx].tolist()}).encode()
                       for _, idx in plan]
        self.expected = [expected[idx].tolist() for _, idx in plan]
        self.result = result
        self.lock = threading.Lock()

    def send(self, conn: Connection, i: int,
             statuses: Dict[int, int]) -> bool:
        """One request; True when answered 200 with correct predictions."""
        try:
            conn.request("POST", f"/v1/models/{MODEL}/predict",
                         body=self.bodies[i],
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()                  # the next request reconnects
            with self.lock:
                self.result.attempted += 1
                self.result.fail(1, f"request {i}: {exc!r}")
            return False
        with self.lock:
            statuses[response.status] = statuses.get(response.status, 0) + 1
            self.result.attempted += 1
            if response.status != 200:
                self.result.fail(1, f"request {i}: HTTP {response.status}")
                return False
            if json.loads(data)["predictions"] != self.expected[i]:
                self.result.fail(1, f"request {i}: wrong predictions")
                return False
        return True

    def open_loop(self, port: int, duration_s: float,
                  statuses: Dict[int, int]) -> Dict[str, List[float]]:
        """Requests at their due times; returns latency/rtt/late (ms)."""
        due = [d for d, _ in self.plan if d < duration_s]
        samples: Dict[str, List[float]] = {"latency": [], "rtt": [],
                                           "late": []}
        cursor = [0]
        start = time.perf_counter() + 0.05

        def client() -> None:
            conn = Connection("127.0.0.1", port, timeout=60)
            while True:
                with self.lock:
                    i = cursor[0]
                    cursor[0] += 1
                if i >= len(due):
                    break
                due_at = start + due[i]
                pause = due_at - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                sent = time.perf_counter()
                ok = self.send(conn, i, statuses)
                done = time.perf_counter()
                if ok:
                    with self.lock:
                        samples["latency"].append((done - due_at) * 1000.0)
                        samples["rtt"].append((done - sent) * 1000.0)
                        samples["late"].append((sent - due_at) * 1000.0)
            conn.close()

        run_threads(client)
        return samples

    def closed_loop(self, port: int, duration_s: float,
                    statuses: Dict[int, int]) -> Tuple[float, List[float]]:
        """Back-to-back requests; returns (200s per second, rtt ms).

        The rate is the 200 answers inside the window over the time from
        its start to the last of them.
        """
        cursor = [0]
        answered = [0]
        last = [0.0]
        rtts: List[float] = []
        start = time.perf_counter()
        stop = start + duration_s

        def client() -> None:
            conn = Connection("127.0.0.1", port, timeout=60)
            while time.perf_counter() < stop:
                with self.lock:
                    i = cursor[0] % len(self.plan)
                    cursor[0] += 1
                sent = time.perf_counter()
                ok = self.send(conn, i, statuses)
                done = time.perf_counter()
                if ok:
                    with self.lock:
                        rtts.append((done - sent) * 1000.0)
                        if done <= stop:
                            answered[0] += 1
                            last[0] = max(last[0], done)
            conn.close()

        run_threads(client)
        return answered[0] / max(last[0] - start, 1e-9), rtts


def run_threads(target) -> None:
    threads = [threading.Thread(target=target) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def measure(traffic: Traffic, daemon: Daemon, seconds: float
            ) -> Dict[str, object]:
    """Open then closed loop against ``daemon``."""
    statuses: Dict[int, int] = {}
    open_s = seconds * OPEN_SHARE
    samples = traffic.open_loop(daemon.port, open_s, statuses)
    boundary = time.monotonic()
    closed_s = seconds - open_s
    capacity, closed_rtt = traffic.closed_loop(daemon.port, closed_s,
                                               statuses)
    return {"open": samples, "capacity": capacity,
            "closed_rtt": closed_rtt, "statuses": statuses,
            "boundary": boundary}


def main() -> int:
    args = workload_args()
    root, work = Path.cwd(), Path(args.work)
    import repro  # noqa: F401
    from repro.infer.artifact import load_artifact
    result = Result()

    # -- input generation and expected outputs (untimed) ----------------
    artifact, pool = build_inputs(args.seed, work)
    program = load_artifact(artifact).compile()
    logits = program.run(pool)
    result.attempted += 2
    if not np.array_equal(program.run(pool), logits):
        result.fail(1, "Program.run: logits changed on repeat")
    if not np.array_equal(program.run_batch_reference(pool), logits):
        result.fail(1, "Program.run: logits differ from "
                       "Program.run_batch_reference")
    expected = np.argmax(logits, axis=1)
    longest = args.seconds * OPEN_SHARE
    traffic = Traffic(serve_schedule(args.seed, RATE, longest, POOL),
                      pool, expected, result)

    daemons: List[Daemon] = []
    try:
        if args.trace:
            return traced(args, root, work, artifact, traffic, result,
                          daemons)
        for i in range(SETUP_REPEATS):
            daemons.append(Daemon(root, work, artifact, 0, i))
            result.setup_s.append(daemons[-1].wait_ready())
            if i + 1 < SETUP_REPEATS:
                daemons[-1].stop()
        daemon = daemons[-1]
        run = measure(traffic, daemon, args.seconds)
        rss = process_peak_rss_mb(daemon.proc.pid)
    finally:
        for daemon in daemons:
            daemon.stop()
    latency = run["open"]["latency"]
    n = len(latency)
    within = sum(1 for v in latency if v <= LATENCY_LIMIT_MS)
    sent = sum(1 for d, _ in traffic.plan if d < longest)
    closed = run["closed_rtt"]
    result.e2e.update({
        "peak_rss_mb": (rss, 1),
        "latency_ms": (percentile(closed, 50), len(closed)),
        "throughput": (run["capacity"], len(run["closed_rtt"])),
        "quality": (within / sent, sent),
    })
    top = supported(n) or 50.0
    result.notes += [
        f"serve.p50_ms: {percentile(latency, 50):.3f} ms (n={n}, "
        f"{beyond(n, 50)} beyond)",
        f"serve.p95_ms: {percentile(latency, 95):.3f} ms (n={n}, "
        f"{beyond(n, 95)} beyond)",
        f"highest supported percentile: p{top:g} = "
        f"{percentile(latency, top):.3f} ms",
        "open-loop latency ladder: " + ", ".join(
            f"p{p:g} {percentile(latency, p):.2f}"
            for p in (10, 25, 50, 75, 90, 95)) + " ms",
        f"open loop: {sent} requests at {RATE:g}/s over "
        f"{longest:g} s on {CONNECTIONS} connections; {within} answered "
        f"within {LATENCY_LIMIT_MS:g} ms",
        f"serve.capacity_rps: {run['capacity']:.3f} (closed loop, "
        f"{CONNECTIONS} connections); round trip p50 "
        f"{percentile(closed, 50):.3f} ms (n={len(closed)}), p95 "
        f"{percentile(closed, 95):.3f} ms",
        f"generator lateness: p50 {percentile(run['open']['late'], 50):.3f}"
        f" ms, max {max(run['open']['late']):.3f} ms",
        f"HTTP statuses: {run['statuses']}",
    ]
    result.write(Path(args.out))
    return 0


def traced(args, root: Path, work: Path, artifact: Path, traffic: Traffic,
           result: Result, daemons: List[Daemon]) -> int:
    """Half the seconds untraced, then half on a traced daemon."""
    from repobench.spans import layer_metrics
    runs = []
    for trace in (0, 1):
        daemon = Daemon(root, work, artifact, trace, len(daemons))
        daemons.append(daemon)
        daemon.wait_ready()
        runs.append(measure(traffic, daemon, args.seconds / 2))
        daemon.stop()
    untraced, run = runs
    stats = json.loads(daemons[-1].stats.read_text())
    layers = layer_metrics(stats["summary"])
    summary, samples = stats["summary"], stats["samples"]
    exec_ms = [d * 1000.0 for d in
               summary.get("infer.run_batch_into", {}).get("durations", [])]
    rtts = run["open"]["rtt"] + run["closed_rtt"]
    server = [ms for _, ms in stats["server_ms"]]
    open_server = [ms for at, ms in stats["server_ms"]
                   if at < run["boundary"]]
    closed_server = [ms for at, ms in stats["server_ms"]
                     if at >= run["boundary"]]
    engine = stats["engine"]
    images = float(sum(samples["infer.images"]))
    per_batch = images / len(exec_ms)
    layers.update({
        "infer.batch_ms": median(exec_ms),
        "infer.gmac_per_s": engine["macs_per_image"] * images
        / (sum(exec_ms) / 1000.0) / 1e9,
        "infer.macs_per_image": engine["macs_per_image"],
        "infer.bytes_per_image": engine["act_bytes_per_image"]
        + engine["weight_bytes"] / per_batch,
        "infer.allocs_per_image": engine["runtime_allocs"] / images,
        "infer.arena_mb": engine["arena_bytes"] / 2**20,

        "setup.import_s": stats["import_s"],
        "serve.load_s": summary.get("serve.load", {}).get("total_s", 0.0),
        "serve.queue.wait_ms": median(samples["serve.queue.wait_ms"]),
        "serve.batch.size_mean": float(np.mean(samples["serve.batch.size"])),
        "serve.exec.batch_ms": median(exec_ms),
        "serve.server_ms": median(server),
        "serve.http.overhead_ms": float(np.mean(rtts) - np.mean(server)),
        "serve.shed": float(run["statuses"].get(429, 0)),
        "serve.timeouts": float(run["statuses"].get(504, 0)),
        "serve.gen.late_ms": median(run["open"]["late"]),
        "trace_overhead": percentile(run["closed_rtt"], 50)
        / percentile(untraced["closed_rtt"], 50) - 1.0,
    })
    result.layers = layers
    result.notes += [
        f"integer engine in the daemon: {len(exec_ms)} run_batch_into "
        f"calls, {images:.0f} images, {per_batch:.2f} images per batch; "
        f"infer.bytes_per_image is computed from stage shapes and "
        f"weights at that batch size, not measured",
        f"serve.http.overhead_ms = mean client round trip "
        f"{np.mean(rtts):.3f} ms ({len(rtts)} requests) - mean server "
        f"time {np.mean(server):.3f} ms ({len(server)} requests)",
        f"  open loop: round trip {np.mean(run['open']['rtt']):.3f} ms - "
        f"server {np.mean(open_server):.3f} ms = "
        f"{np.mean(run['open']['rtt']) - np.mean(open_server):.3f} ms",
        f"  closed loop: round trip {np.mean(run['closed_rtt']):.3f} ms - "
        f"server {np.mean(closed_server):.3f} ms = "
        f"{np.mean(run['closed_rtt']) - np.mean(closed_server):.3f} ms",
        f"traced closed-loop round trip p50 "
        f"{percentile(run['closed_rtt'], 50):.3f} ms vs untraced "
        f"{percentile(untraced['closed_rtt'], 50):.3f} ms",
    ]
    result.write(Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
