"""The warm fork-server worker pool: dispatch, faults, lifecycle."""

from __future__ import annotations

import os
import time

import pytest

from repro.service import (
    DeadlineExceeded,
    PoolClosedError,
    RemoteTaskError,
    TaskResult,
    WorkerPool,
    shared_pool,
    shutdown_shared_pool,
)
from repro.service.pool import _POLL_INTERVAL


class TestDispatch:
    def test_ping_round_trip(self, warm_pool):
        result = warm_pool.submit("ping", "hello").result(timeout=30)
        assert isinstance(result, TaskResult)
        assert result.value["echo"] == "hello"
        assert result.value["warm"] is True
        assert result.pid == result.value["pid"]
        assert result.pid != os.getpid()

    def test_attribution_facts(self, warm_pool):
        result = warm_pool.submit("ping", None).result(timeout=30)
        assert result.queue_wait_s >= 0.0
        assert result.execute_s >= 0.0

    def test_map_yields_in_submission_order(self, warm_pool):
        payloads = list(range(16))
        values = list(warm_pool.map("ping", payloads))
        assert [value["echo"] for value in values] == payloads

    def test_unknown_task_rejected_at_submit(self, warm_pool):
        with pytest.raises(KeyError):
            warm_pool.submit("no_such_task", None)

    def test_task_exception_surfaces_as_remote_error(self, warm_pool):
        # engine_chunk with a malformed payload raises in the worker.
        future = warm_pool.submit("engine_chunk", "not-a-chunk")
        with pytest.raises(RemoteTaskError) as excinfo:
            future.result(timeout=30)
        assert excinfo.value.remote_traceback

    def test_stats_count_completions(self, warm_pool):
        before = warm_pool.stats.completed
        warm_pool.submit("ping", 1).result(timeout=30)
        assert warm_pool.stats.completed == before + 1


class TestFaults:
    def test_crashed_worker_task_is_retried(self, tmp_path):
        marker = str(tmp_path / "crash-once")
        pool = WorkerPool(workers=1, crash_once=marker)
        try:
            values = list(pool.map("ping", [1, 2, 3]))
            assert [value["echo"] for value in values] == [1, 2, 3]
            assert pool.stats.crashes >= 1
            assert pool.stats.retries >= 1
            assert pool.stats.workers_recycled >= 1
            assert os.path.exists(marker)
        finally:
            pool.close()

    def test_deadline_kills_and_recycles(self):
        pool = WorkerPool(workers=1)
        try:
            pool.warm_up()
            future = pool.submit("sleep", 30.0, deadline=0.2)
            with pytest.raises(DeadlineExceeded):
                future.result(timeout=30)
            assert pool.stats.deadline_kills == 1
            # The replacement worker comes up and serves new tasks.
            assert list(pool.map("ping", [9]))[0]["echo"] == 9
            assert pool.stats.workers_recycled >= 1
        finally:
            pool.close()

    def test_deadline_fires_while_a_sibling_streams_results(self):
        # One worker is stuck past its deadline while the other streams
        # a result every ~10 ms; the collector must still check the
        # deadline every poll interval, not only when results pause.
        deadline = 0.3
        pool = WorkerPool(workers=2)
        try:
            pool.warm_up()
            started = time.monotonic()
            stuck = pool.submit("sleep", 3.0, deadline=deadline)
            stream = [pool.submit("sleep", 0.01) for _ in range(200)]
            with pytest.raises(DeadlineExceeded):
                stuck.result(timeout=30)
            elapsed = time.monotonic() - started
            assert elapsed < deadline + 4 * _POLL_INTERVAL
            for future in stream:
                future.result(timeout=30)
        finally:
            pool.close()


class TestLifecycle:
    def test_submit_after_close_rejected(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(PoolClosedError):
            pool.submit("ping", None)

    def test_close_is_idempotent(self):
        pool = WorkerPool(workers=1)
        pool.close()
        pool.close()

    def test_ensure_workers_grows(self, warm_pool):
        warm_pool.ensure_workers(3)
        assert warm_pool.n_workers >= 3

    def test_shared_pool_is_reused_and_grows(self):
        try:
            first = shared_pool(1)
            again = shared_pool(2)
            assert first is again
            assert again.n_workers >= 2
        finally:
            shutdown_shared_pool()

    def test_shared_pool_replaced_after_shutdown(self):
        try:
            first = shared_pool(1)
            shutdown_shared_pool()
            second = shared_pool(1)
            assert second is not first
            assert not second.closed
        finally:
            shutdown_shared_pool()
