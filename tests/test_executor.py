"""Tests for barrier-synchronized stage execution."""

import time

import numpy as np
import pytest

from globalsfm.executor import StageTiming, TaskExecutor, TimingLog


def square(x):
    return x * x


def seeded_draw(seed):
    return float(np.random.default_rng(seed).normal())


def boom(x):
    raise RuntimeError(f"task {x} failed")


class TestMap:
    def test_inline_preserves_order(self):
        ex = TaskExecutor(n_workers=1)
        assert ex.map(square, range(10)) == [x * x for x in range(10)]

    def test_pool_preserves_order_and_values(self):
        inline = TaskExecutor(n_workers=1).map(square, range(25))
        pooled = TaskExecutor(n_workers=4).map(square, range(25))
        assert pooled == inline

    def test_pool_matches_inline_for_seeded_tasks(self):
        seeds = list(range(40))
        inline = TaskExecutor(n_workers=1).map(seeded_draw, seeds)
        pooled = TaskExecutor(n_workers=3).map(seeded_draw, seeds)
        assert pooled == inline

    def test_single_payload_runs_inline(self):
        assert TaskExecutor(n_workers=4).map(square, [7]) == [49]

    def test_empty_payloads(self):
        assert TaskExecutor(n_workers=2).map(square, []) == []

    def test_task_error_propagates(self):
        with pytest.raises(RuntimeError, match="task 3"):
            TaskExecutor(n_workers=1).map(boom, [3])

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            TaskExecutor(n_workers=0)


def run_stage(executor, stage, fn, payloads):
    """One stage the way the pipeline runs it: map, then record the stage."""
    started = time.monotonic()
    payloads = list(payloads)
    results = executor.map(fn, payloads)
    executor.finish_stage(stage, started, len(payloads))
    return results


class TestRunStage:
    """:meth:`TaskExecutor.finish_stage`, the one stage-recording method."""

    def test_results_and_timing_record(self):
        ex = TaskExecutor(n_workers=1)
        results = run_stage(ex, "squares", square, range(5))
        assert results == [0, 1, 4, 9, 16]
        assert len(ex.timing.stages) == 1
        rec = ex.timing.stages[0]
        assert rec.stage == "squares"
        assert rec.n_tasks == 5
        assert rec.n_workers == 1
        assert rec.wall_time_s >= 0.0
        assert rec.finished_at >= rec.started_at

    def test_barrier_ordering_across_stages(self):
        ex = TaskExecutor(n_workers=2)
        run_stage(ex, "first", square, range(8))
        run_stage(ex, "second", seeded_draw, range(8))
        run_stage(ex, "third", square, range(3))
        assert [s.stage for s in ex.timing.stages] == ["first", "second",
                                                       "third"]
        assert ex.timing.barrier_ordering_holds()
        for earlier, later in zip(ex.timing.stages, ex.timing.stages[1:]):
            assert later.started_at >= earlier.finished_at

    def test_worker_count_capped_by_tasks(self):
        ex = TaskExecutor(n_workers=8)
        run_stage(ex, "tiny", square, [1, 2])
        assert ex.timing.stages[0].n_workers == 2

    def test_inline_stage_records_one_worker(self):
        """A stage records the workers its maps used, not its task count:
        a stage without a map, or whose map ran inline, used one."""
        with TaskExecutor(n_workers=2) as ex:
            run_stage(ex, "pooled", square, range(8))
            ex.finish_stage("no map", time.monotonic(), 40)
            run_stage(ex, "one task", square, [3])
        assert [s.n_workers for s in ex.timing.stages] == [2, 1, 1]
        assert [s.n_tasks for s in ex.timing.stages] == [8, 40, 1]

    def test_timing_json_shape(self):
        ex = TaskExecutor(n_workers=1)
        run_stage(ex, "a", square, range(3))
        run_stage(ex, "b", square, range(2))
        payload = ex.timing.to_json_dict()
        assert set(payload) == {"stages", "total_wall_time_s"}
        assert [s["stage"] for s in payload["stages"]] == ["a", "b"]
        assert set(payload["stages"][0]) == {"stage", "wall_time_s",
                                             "n_tasks", "n_workers"}
        assert payload["total_wall_time_s"] == pytest.approx(
            sum(s["wall_time_s"] for s in payload["stages"]))


class TestTimingLog:
    def test_empty_log(self):
        log = TimingLog()
        assert log.barrier_ordering_holds()
        assert log.to_json_dict() == {"stages": [], "total_wall_time_s": 0}

    def test_ordering_violation_detected(self):
        log = TimingLog()
        log.record(StageTiming("a", 1.0, 1, 1, started_at=0.0,
                               finished_at=1.0))
        log.record(StageTiming("b", 1.0, 1, 1, started_at=0.5,
                               finished_at=1.5))
        assert not log.barrier_ordering_holds()
