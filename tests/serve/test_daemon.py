"""Daemon end-to-end: HTTP protocol, admission statuses, graceful drain,
one-write responses and hostile request bodies."""

import http.client
import json
import socket
import sys
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.schema import validate_path
from repro.serve import (ModelDraining, QueueFullError, ServeConfig,
                         ServeDaemon, UnknownModel)
from repro.serve.daemon import STATS_FILENAME

from .conftest import IMAGE_SIZE, stall_first_batch


@pytest.fixture
def daemon(serve_artifact_path, tmp_path):
    daemon = ServeDaemon(ServeConfig(
        port=0, max_batch=4, queue_depth=32,
        run_dir=str(tmp_path / "run")))
    daemon.load_model("m", serve_artifact_path)
    yield daemon
    daemon.shutdown(drain=True)


@pytest.fixture
def base_url(daemon):
    host, port = daemon.start()
    return f"http://{host}:{port}"


def get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(url, payload):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTP:
    def test_healthz_and_models(self, base_url):
        status, health = get(base_url + "/healthz")
        assert status == 200 and health == {"status": "ok",
                                            "models": ["m"]}
        _, listing = get(base_url + "/v1/models")
        assert listing["models"][0]["name"] == "m"
        assert listing["models"][0]["input_shape"] == [IMAGE_SIZE,
                                                       IMAGE_SIZE, 3]

    def test_predict_single_and_batch(self, base_url, serve_images):
        one = serve_images[0].tolist()
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": one})
        assert status == 200 and body["batch"] == 1
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": serve_images[:5].tolist(),
                             "return_logits": True})
        assert status == 200 and body["batch"] == 5
        assert len(body["logits"]) == 5 and len(body["logits"][0]) == 10

    def test_predict_rejects_bad_inputs(self, base_url):
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": [[1, 2], [3]]})
        assert status == 400 and "numeric array" in body["error"]
        wrong = np.zeros((2, IMAGE_SIZE + 1, IMAGE_SIZE, 3)).tolist()
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": wrong})
        assert status == 400 and "expected images" in body["error"]

    def test_unknown_model_404(self, base_url, serve_images):
        status, _ = post(base_url + "/v1/models/ghost/predict",
                         {"inputs": serve_images[0].tolist()})
        assert status == 404

    def test_load_evict_over_http(self, base_url, serve_artifact_path,
                                  daemon):
        status, body = post(base_url + "/v1/models/second/load",
                            {"path": str(serve_artifact_path)})
        assert status == 200 and body["loaded"]["name"] == "second"
        assert "second" in daemon.model_names()
        request = urllib.request.Request(
            base_url + "/v1/models/second", method="DELETE")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
        assert "second" not in daemon.model_names()

    def test_stats_endpoint(self, base_url):
        status, stats = get(base_url + "/v1/stats")
        assert status == 200
        assert stats["schema"] == 1 and "serve.requests" in stats["metrics"]

    def test_eight_concurrent_clients(self, base_url, serve_images,
                                      serve_reference_program):
        """The acceptance bar: >= 8 concurrent clients, exact answers."""
        n_clients = 8
        outs = [None] * n_clients
        failures = []

        def client(index):
            image = serve_images[index]
            try:
                status, body = post(base_url + "/v1/models/m/predict",
                                    {"inputs": image.tolist(),
                                     "return_logits": True})
                assert status == 200, body
                outs[index] = np.asarray(body["logits"][0],
                                         dtype=np.float32)
            except Exception as exc:            # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        served = np.stack(outs)
        reference = serve_reference_program.run(
            serve_images[:n_clients], batch_size=n_clients)
        assert np.array_equal(served, reference)


class TestAdmission:
    def test_shed_when_queue_full(self, serve_artifact_path,
                                  serve_images):
        daemon = ServeDaemon(ServeConfig(max_batch=4, queue_depth=1))
        daemon.load_model("m", serve_artifact_path)
        runtime = daemon.runtime("m")
        # hold the queue lock so the worker cannot drain while we fill
        with runtime.queue._cond:
            runtime.queue._items.append(
                object())                       # depth == maxsize
            with pytest.raises(QueueFullError):
                daemon.submit("m", serve_images[0])
            runtime.queue._items.pop()
        snapshot = daemon.metrics.snapshot()
        assert snapshot["serve.shed"]["value"] == 1
        assert snapshot["serve.m.shed"]["value"] == 1
        daemon.shutdown(drain=False)

    @pytest.mark.parametrize("route", ["predict", "http"])
    def test_shed_image_withdraws_admitted_siblings(
            self, serve_artifact_path, serve_images, route):
        """Image 2 of 3 is shed: images 0-1 must leave the queue and never
        run, since nobody waits for them."""
        daemon = ServeDaemon(ServeConfig(port=0, max_batch=4,
                                         queue_depth=2))
        daemon.load_model("m", serve_artifact_path)
        runtime = daemon.runtime("m")
        entered, release, sizes = stall_first_batch(runtime.workers[0])
        blocker = daemon.submit("m", serve_images[0], timeout_s=60.0)
        assert entered.wait(30.0)              # the worker is busy
        three = serve_images[1:4]
        if route == "predict":
            with pytest.raises(QueueFullError):
                daemon.predict("m", three, timeout_s=60.0)
        else:
            host, port = daemon.start()
            status, body = post(f"http://{host}:{port}/v1/models/m/predict",
                                {"inputs": three.tolist()})
            assert status == 429, body
        assert runtime.queue.depth == 0
        release.set()
        assert blocker.wait(30.0).shape == (10,)
        daemon.shutdown(drain=True)
        assert sizes == [1]
        assert runtime.describe()["images_run"] == 1
        assert daemon.metrics.snapshot()["serve.m.requests"]["value"] == 1

    def test_shedding_under_contention_leaves_no_request_behind(
            self, serve_artifact_path, serve_reference_program,
            serve_images):
        """More clients and workers than cores, two queue slots and a
        short switch interval, so withdrawals race the workers' takeouts.
        Every admitted image must end answered or withdrawn, every
        answer must be exact, and no withdrawn image may be counted as
        run twice over."""
        daemon = ServeDaemon(ServeConfig(max_batch=2, queue_depth=2,
                                         workers_per_model=3))
        daemon.load_model("m", serve_artifact_path)
        admitted = []
        submit = daemon.submit

        def recording_submit(*args, **kwargs):
            request = submit(*args, **kwargs)
            admitted.append(request)
            return request

        daemon.submit = recording_submit
        reference = serve_reference_program.run(
            serve_images, batch_size=serve_images.shape[0])
        counts = {"served": 0, "shed": 0}
        failures = []
        lock = threading.Lock()

        def client(index):
            for round_ in range(12):
                lo = (index * 3 + round_) % (serve_images.shape[0] - 3)
                try:
                    logits = daemon.predict("m", serve_images[lo:lo + 3],
                                            timeout_s=30.0)
                except QueueFullError:
                    with lock:
                        counts["shed"] += 1
                    continue
                except Exception as exc:        # pragma: no cover
                    failures.append(exc)
                    return
                if not np.array_equal(logits, reference[lo:lo + 3]):
                    failures.append(f"client {index}: wrong logits")
                with lock:
                    counts["served"] += 3

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        runtime = daemon.runtime("m")
        daemon.shutdown(drain=True)
        assert not failures, failures[:3]
        assert counts["shed"] > 0 and counts["served"] > 0
        assert all(request.done for request in admitted)
        assert runtime.queue.depth == 0
        images_run = runtime.describe()["images_run"]
        assert counts["served"] <= images_run <= len(admitted)
        assert daemon.metrics.snapshot()["serve.m.requests"]["value"] \
            == images_run

    def test_unknown_model_raises(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        with pytest.raises(UnknownModel):
            daemon.submit("ghost", np.zeros((2, 2, 3), np.float32))
        daemon.shutdown()


class TestDrain:
    def test_draining_refuses_new_work(self, serve_artifact_path,
                                       serve_images):
        daemon = ServeDaemon(ServeConfig(max_batch=4))
        daemon.load_model("m", serve_artifact_path)
        daemon.shutdown(drain=True)
        with pytest.raises(ModelDraining):
            daemon.submit("m", serve_images[0])

    def test_drain_answers_backlog_and_writes_stats(
            self, serve_artifact_path, serve_images, tmp_path):
        run_dir = tmp_path / "run"
        daemon = ServeDaemon(ServeConfig(
            port=0, max_batch=4, run_dir=str(run_dir)))
        daemon.start()
        daemon.load_model("m", serve_artifact_path)
        requests = [daemon.submit("m", image, timeout_s=60.0)
                    for image in serve_images[:6]]
        stats = daemon.shutdown(drain=True)
        # every admitted request was answered, none flushed
        for request in requests:
            assert request.wait(10.0).shape == (10,)
        assert stats["flushed_requests"] == 0
        assert stats["drained_cleanly"] is True
        assert daemon.wait(1.0)                  # stopped event set
        stats_file = run_dir / STATS_FILENAME
        assert stats_file.exists()
        assert validate_path(stats_file) == []
        assert json.loads(stats_file.read_text())["metrics"][
            "serve.m.requests"]["value"] == 6.0

    def test_second_shutdown_is_idempotent(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.load_model("m", serve_artifact_path)
        first = daemon.shutdown(drain=True)
        second = daemon.shutdown(drain=True)
        assert second["draining"] is True
        assert first["schema"] == second["schema"] == 1

    def test_load_refused_while_draining(self, serve_artifact_path):
        daemon = ServeDaemon(ServeConfig())
        daemon.shutdown(drain=True)
        from repro.serve.registry import RegistryError
        with pytest.raises(RegistryError, match="draining"):
            daemon.load_model("m", serve_artifact_path)


class _CountingWriter:
    """Wraps a handler's ``wfile``; logs one entry per write call."""

    def __init__(self, inner, log):
        self._inner, self._log = inner, log

    def write(self, data):
        self._log.append(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture
def wire(daemon, base_url):
    """The started daemon with every accepted connection instrumented:
    ``writes`` logs each write to a client, ``nodelay`` each socket's
    TCP_NODELAY option."""
    server = daemon._server
    handler = server.RequestHandlerClass
    log = {"writes": [], "nodelay": []}

    class Counting(handler):
        def setup(self):
            super().setup()
            log["nodelay"].append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))
            self.wfile = _CountingWriter(self.wfile, log["writes"])

    server.RequestHandlerClass = Counting
    host, port = daemon.address
    log["connect"] = lambda: http.client.HTTPConnection(host, port,
                                                        timeout=30)
    return log


def _exchange(conn, method, path, body=None, headers=None):
    """One request on ``conn``; returns (status, JSON body, response)."""
    data = None if body is None else json.dumps(body).encode()
    conn.request(method, path, body=data, headers=headers or {})
    response = conn.getresponse()
    return response.status, json.loads(response.read()), response


class TestOneWriteResponses:
    """Every response leaves in exactly one write on a TCP_NODELAY
    socket — headers and body in separate writes stall ~40 ms on the
    client's delayed ACK."""

    def test_every_route_is_one_write(self, wire, serve_images,
                                      serve_artifact_path):
        image = serve_images[0].tolist()
        predict = "/v1/models/m/predict"
        routes = [
            ("GET", "/healthz", None, 200),
            ("GET", "/v1/models", None, 200),
            ("GET", "/v1/stats", None, 200),
            ("GET", "/nowhere", None, 404),
            ("POST", predict, {"inputs": image}, 200),
            ("POST", predict, {"inputs": [[1, 2], [3]]}, 400),
            ("POST", predict, {"inputs": image, "timeout_ms": 1e-3}, 504),
            ("POST", "/v1/models/ghost/predict", {"inputs": image}, 404),
            ("POST", "/v1/models/m/bogus", {}, 404),
            ("POST", "/v1/models/x/load", {"path": "/no/such.bomp"}, 400),
            ("POST", "/v1/models/m2/load",
             {"path": str(serve_artifact_path)}, 200),
            ("DELETE", "/v1/models/m2", None, 200),
            ("DELETE", "/v1/models/ghost", None, 404),
        ]
        conn = wire["connect"]()          # one keep-alive connection
        for method, path, body, expected in routes:
            before = len(wire["writes"])
            status, _, _ = _exchange(conn, method, path, body)
            assert status == expected, (method, path)
            assert len(wire["writes"]) - before == 1, (method, path)
        conn.close()
        # the stdlib's own errors (here: unsupported method) too
        conn = wire["connect"]()
        before = len(wire["writes"])
        status, body, _ = _exchange(conn, "PUT", "/healthz")
        assert status == 501 and "error" in body
        assert len(wire["writes"]) - before == 1
        conn.close()
        assert wire["nodelay"] and all(wire["nodelay"])


class TestHostileBodies:
    """Bad lengths and oversized bodies get typed answers, unread, and
    the connection is closed (its unread bytes are not a request)."""

    @pytest.mark.parametrize("length", ["abc", "-1", "1e3", ""])
    def test_malformed_content_length_is_400(self, wire, length):
        conn = wire["connect"]()
        conn.putrequest("POST", "/v1/models/m/predict")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert "Content-Length" in body["error"]
        assert response.getheader("Connection") == "close"
        conn.close()

    def test_oversized_body_is_413(self, wire):
        from repro.serve.daemon import MAX_BODY_BYTES
        conn = wire["connect"]()
        conn.putrequest("POST", "/v1/models/m/predict")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()               # the body is never sent
        response = conn.getresponse()
        assert response.status == 413
        assert "limit" in json.loads(response.read())["error"]
        assert response.getheader("Connection") == "close"
        conn.close()

    def test_bad_timeout_is_400(self, base_url, serve_images):
        for timeout in ("soon", -5, 0):
            status, body = post(base_url + "/v1/models/m/predict",
                                {"inputs": serve_images[0].tolist(),
                                 "timeout_ms": timeout})
            assert status == 400 and "timeout_ms" in body["error"]


class TestNonFinitePixels:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_is_400(self, base_url, serve_images, value):
        image = serve_images[0].copy()
        image[1, 2, 0] = value
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": image.tolist()})
        assert status == 400 and "finite" in body["error"]

    def test_huge_finite_saturates_to_top_code(self, base_url,
                                               serve_images,
                                               serve_reference_program):
        grid = serve_reference_program.input_grid
        top = (grid.n_levels - grid.zero_point) * grid.scale
        huge = serve_images[0].copy()
        huge[1, 2, :] = 1e30
        edge = serve_images[0].copy()
        edge[1, 2, :] = top
        codes = serve_reference_program.quantize_input(
            np.stack([huge, edge]))
        assert (codes[:, 1, 2, :] == grid.n_levels).all()
        status, body = post(base_url + "/v1/models/m/predict",
                            {"inputs": [huge.tolist(), edge.tolist()],
                             "return_logits": True})
        assert status == 200
        assert body["logits"][0] == body["logits"][1]
