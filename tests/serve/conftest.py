"""Fixtures for the serving suite.

One small deterministic artifact (untrained, calibrated seed network at
8x8 — serving correctness is bit-identity against the serial engine, not
accuracy) is built once per session and shared by every test; daemons
are cheap to start against it because the compiled program comes out of
the content-hash artifact cache after the first load.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.infer.artifact import load_artifact
from repro.serve.bench import make_bench_artifact

IMAGE_SIZE = 8


def stall_first_batch(worker):
    """Hold the worker inside its first batch until released.

    Returns ``(entered, release, sizes)``: ``entered`` is set once the
    first batch is executing, setting ``release`` lets it finish, and
    ``sizes`` records the size of every batch the worker runs.
    """
    entered, release, sizes = threading.Event(), threading.Event(), []
    original = worker.executor.run_batch_into

    def gated(x, out):
        sizes.append(x.shape[0])
        if len(sizes) == 1:
            entered.set()
            assert release.wait(30.0), "test never released the worker"
        return original(x, out)

    worker.executor.run_batch_into = gated
    return entered, release, sizes


@pytest.fixture(scope="session")
def serve_artifact_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "model.bomp"
    make_bench_artifact(path, image_size=IMAGE_SIZE, seed=7)
    return path


@pytest.fixture(scope="session")
def serve_reference_program(serve_artifact_path):
    """A serial-path compile of the same artifact, for bit-identity."""
    return load_artifact(serve_artifact_path).compile(name="reference")


@pytest.fixture(scope="session")
def serve_images():
    rng = np.random.default_rng(23)
    return rng.normal(size=(32, IMAGE_SIZE, IMAGE_SIZE, 3)) \
        .astype(np.float32)
