"""Launcher of the serve-http workload's daemon: ``repro serve``, in-process.

Usage: ``python -m repobench.serve_daemon --trace 0|1 --stats PATH --
<repro serve arguments>``.  With ``--trace 0`` it imports ``repro.cli``
and ``repro.serve`` and calls ``repro.cli.main(["serve", ...])``, which
is what ``python -m repro serve`` does.  With ``--trace 1`` it first
wraps the layer boundaries of :mod:`repobench.spans` plus the serving
ones below, and when the daemon has drained it writes the spans,
samples and the integer engine's figures to ``--stats``.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Any, Dict, List

from repobench.spans import SpanRecorder, install_layers


class ServeProbe:
    """Samples taken at the daemon's public queue and request methods.

    One HTTP request becomes one ``ServeDaemon.submit`` per image, all
    made by the connection's handler thread before it waits on any of
    them.  So a submit after a wait on the same thread starts the next
    HTTP request, and an HTTP request's server time is the longest
    ``ServeRequest.latency_s`` among its images.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.groups: List[List[Any]] = []
        self._local = threading.local()
        #: every arena executor that ran a batch
        self.executors: Dict[int, Any] = {}

    def install(self) -> None:
        from repro.serve.daemon import ServeDaemon
        from repro.serve.queueing import ModelQueue, ServeRequest
        wrap = self.recorder.wrap_method
        wrap(ServeDaemon, "load_model", "serve.load")
        wrap(ServeDaemon, "submit", "serve.submit", after=self._submitted)
        wrap(ServeRequest, "wait", "serve.wait", after=self._waited)
        wrap(ModelQueue, "take_batch", "serve.take_batch",
             after=self._taken)

    def _submitted(self, recorder, request, args) -> None:
        group = getattr(self._local, "group", None)
        if group is None or getattr(self._local, "waited", False):
            group = self._local.group = []
            self._local.waited = False
            self.groups.append(group)
        group.append(request)

    def executor_ran(self, recorder, result, args) -> None:
        """``run_batch_into`` hook: keep the executor for its figures."""
        self.executors[id(args[0])] = args[0]

    def engine(self) -> Dict[str, float]:
        """The integer engine's figures: MACs and bytes per image (bytes
        computed from stage shapes and weights: int32 codes in and out of
        every stage, weight codes once per batch), allocations after
        build and arena bytes over every executor."""
        import numpy as np              # after the timed repro import
        executors = list(self.executors.values())
        if not executors:
            return {}
        program = executors[0].program
        act_bytes = weight_bytes = 0
        for stage in program.stages:
            act_bytes += 4 * (int(np.prod(stage.in_shape))
                              + int(np.prod(stage.out_shape)))
            weight = stage.w2d if stage.w2d is not None else stage.weight
            if weight is not None:
                weight_bytes += weight.nbytes
        return {"macs_per_image": float(program.total_macs()),
                "act_bytes_per_image": float(act_bytes),
                "weight_bytes": float(weight_bytes),
                "runtime_allocs": float(sum(e.runtime_allocs
                                            for e in executors)),
                "arena_bytes": float(sum(e.alloc_bytes for e in executors))}

    def _waited(self, recorder, logits, args) -> None:
        self._local.waited = True

    def _taken(self, recorder, batch, args) -> None:
        if batch is None:
            return
        now = time.monotonic()
        recorder.sample("serve.batch.size", len(batch))
        for request in batch:
            recorder.sample("serve.queue.wait_ms",
                            (now - request.enqueued_at) * 1000.0)

    def server_ms(self) -> List[List[float]]:
        """Per HTTP request: ``[admitted at (monotonic s), server ms]``,
        the server time being the longest latency among its images."""
        out = []
        for group in self.groups:
            latencies = [r.latency_s for r in group]
            if latencies and None not in latencies:
                out.append([group[0].enqueued_at, max(latencies) * 1000.0])
        return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--stats", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    serve_args = [a for a in args.serve_args if a != "--"]

    start = time.perf_counter()
    import repro.cli
    import repro.serve  # noqa: F401  (cmd_serve imports it before loading)
    import_s = time.perf_counter() - start

    probe = None
    if args.trace:
        recorder = SpanRecorder()
        probe = ServeProbe(recorder)
        install_layers(recorder, after={"infer.run_batch_into":
                                        probe.executor_ran})
        probe.install()
    code = repro.cli.main(["serve"] + serve_args)
    if probe is not None and args.stats:
        with open(args.stats, "w") as handle:
            json.dump({"import_s": import_s,
                       "summary": probe.recorder.summary(),
                       "samples": probe.recorder.samples,
                       "server_ms": probe.server_ms(),
                       "engine": probe.engine()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
