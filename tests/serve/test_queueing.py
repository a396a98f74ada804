"""Admission control unit tests: futures, bounded queues, work-conserving
batch takeout and withdrawal."""

import threading
import time

import numpy as np
import pytest

from repro.serve.queueing import (ModelDraining, ModelQueue, QueueFullError,
                                  RequestTimeout, ServeRequest)


def req(timeout_s=None):
    return ServeRequest("m", np.zeros((2, 2, 3), np.float32),
                        timeout_s=timeout_s)


class TestServeRequest:
    def test_result_round_trip(self):
        request = req()
        logits = np.arange(4.0, dtype=np.float32)
        request.set_result(logits)
        assert np.array_equal(request.wait(1.0), logits)
        assert request.latency_s >= 0.0

    def test_error_propagates_to_waiter(self):
        request = req()
        request.set_error(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            request.wait(1.0)

    def test_wait_times_out(self):
        with pytest.raises(RequestTimeout):
            req().wait(0.01)

    def test_expiry_follows_deadline(self):
        assert not req().expired()              # no deadline, never expires
        request = req(timeout_s=60.0)
        assert not request.expired()
        assert request.expired(now=request.deadline + 1.0)

    def test_wait_unblocks_cross_thread(self):
        request = req()
        threading.Timer(0.02, request.set_result,
                        args=(np.zeros(2, np.float32),)).start()
        assert request.wait(5.0).shape == (2,)

    def test_done_once_finished(self):
        request = req()
        assert not request.done
        request.set_error(QueueFullError("shed"))
        assert request.done


class TestModelQueue:
    def test_fifo_and_depth(self):
        queue = ModelQueue("m", maxsize=4)
        first, second = req(), req()
        queue.submit(first)
        queue.submit(second)
        assert queue.depth == 2
        batch = queue.take_batch(max_batch=2)
        assert batch == [first, second]
        assert queue.depth == 0

    def test_full_queue_sheds(self):
        queue = ModelQueue("m", maxsize=1)
        queue.submit(req())
        with pytest.raises(QueueFullError):
            queue.submit(req())
        assert queue.depth == 1                # the shed one never entered

    def test_closed_queue_refuses(self):
        queue = ModelQueue("m")
        queue.close()
        with pytest.raises(ModelDraining):
            queue.submit(req())

    def test_take_batch_caps_at_max_batch(self):
        queue = ModelQueue("m", maxsize=8)
        for _ in range(5):
            queue.submit(req())
        assert len(queue.take_batch(max_batch=3)) == 3
        assert len(queue.take_batch(max_batch=3)) == 2

    def test_take_batch_does_not_wait_to_fill(self):
        """What is queued leaves at once, short of max_batch; a later
        arrival goes into the next batch."""
        queue = ModelQueue("m")
        waits = []
        wait = queue._cond.wait
        queue._cond.wait = lambda timeout=None: (waits.append(timeout)
                                                 or wait(timeout))
        queued = [req(), req(), req()]
        for request in queued:
            queue.submit(request)
        assert queue.take_batch(max_batch=8) == queued
        assert waits == []                      # never slept to fill
        late = req()
        queue.submit(late)
        assert queue.take_batch(max_batch=8) == [late]

    def test_take_batch_blocks_only_while_empty(self):
        queue = ModelQueue("m")
        taken = []
        worker = threading.Thread(
            target=lambda: taken.append(queue.take_batch(4)))
        worker.start()
        time.sleep(0.05)
        assert taken == []                      # nothing queued: blocks
        request = req()
        queue.submit(request)
        worker.join(5.0)
        assert taken == [[request]]

    def test_closed_queue_flushes_without_waiting(self):
        queue = ModelQueue("m")
        queue.submit(req())
        queue.close()
        start = time.monotonic()
        batch = queue.take_batch(max_batch=8)
        assert len(batch) == 1
        assert time.monotonic() - start < 1.0
        assert queue.take_batch(max_batch=8) is None

    def test_closed_queue_drains_in_max_batch_bites(self):
        queue = ModelQueue("m")
        for _ in range(5):
            queue.submit(req())
        queue.close()
        sizes = []
        while (batch := queue.take_batch(max_batch=2)) is not None:
            sizes.append(len(batch))
        assert sizes == [2, 2, 1]

    def test_close_wakes_blocked_worker(self):
        queue = ModelQueue("m")
        result = []
        worker = threading.Thread(
            target=lambda: result.append(queue.take_batch(4)))
        worker.start()
        time.sleep(0.02)                        # let it block on empty
        queue.close()
        worker.join(5.0)
        assert result == [None]

    def test_flush_fails_backlog(self):
        queue = ModelQueue("m")
        requests = [req() for _ in range(3)]
        for request in requests:
            queue.submit(request)
        queue.close()
        assert queue.flush(ModelDraining("bye")) == 3
        for request in requests:
            with pytest.raises(ModelDraining):
                request.wait(0.1)

    def test_withdraw_removes_queued_and_finishes(self):
        queue = ModelQueue("m", maxsize=3)
        first, second, third = req(), req(), req()
        for request in (first, second, third):
            queue.submit(request)
        queue.withdraw([first, second], QueueFullError("shed"))
        assert queue.depth == 1                 # slots freed at once
        for request in (first, second):
            assert request.done
            with pytest.raises(QueueFullError):
                request.wait(0.1)
        assert queue.take_batch(max_batch=8) == [third]

    def test_withdraw_after_takeout_finishes(self):
        """A worker already holds it: it cannot leave the queue, but it
        is finished, which tells the worker to skip it."""
        queue = ModelQueue("m")
        request = req()
        queue.submit(request)
        assert queue.take_batch(max_batch=8) == [request]
        queue.withdraw([request], QueueFullError("shed"))
        assert request.done and queue.depth == 0

    def test_error_statuses(self):
        assert QueueFullError("x").status == 429
        assert ModelDraining("x").status == 503
        assert RequestTimeout("x").status == 504
