"""Deterministic task execution with stage barriers and wall-time records.

The pipeline is organized as stages of independent pure tasks.  A stage
submits all its tasks, waits for every result (the barrier), and only then
may the next stage start.  Results are always collected in submission order
and every task derives its randomness from a seed embedded in its payload,
so the numerical output is identical for any worker count.

Worker processes are forked, which keeps task functions restricted to
module-level callables with picklable payloads.  One pool serves every
stage of a run: it is forked at the first pooled map and joined by
:meth:`TaskExecutor.close`, which a ``with`` block calls on every exit.
"""

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock record of one barrier-synchronized stage."""

    stage: str
    wall_time_s: float
    n_tasks: int
    n_workers: int
    started_at: float
    finished_at: float

    def to_json_dict(self) -> dict:
        return {"stage": self.stage, "wall_time_s": self.wall_time_s,
                "n_tasks": self.n_tasks, "n_workers": self.n_workers}


class TimingLog:
    """Ordered stage timings of one pipeline run."""

    def __init__(self):
        self.stages = []

    def record(self, timing: StageTiming) -> None:
        self.stages.append(timing)

    def barrier_ordering_holds(self) -> bool:
        """No stage started before the previous stage finished."""
        return all(b.started_at >= a.finished_at - 1e-9
                   for a, b in zip(self.stages, self.stages[1:]))

    def to_json_dict(self) -> dict:
        return {"stages": [s.to_json_dict() for s in self.stages],
                "total_wall_time_s": sum(s.wall_time_s for s in self.stages)}


class TaskExecutor:
    """Runs stages of independent tasks; one barrier after each stage.

    A worker count of 1 executes inline.  Higher counts fan tasks out to a
    forked process pool, opened at the first map that needs it and reused
    until :meth:`close`; results keep submission order either way.
    """

    def __init__(self, n_workers: int = 1):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.timing = TimingLog()
        self._pool = None
        # most workers a map of the current stage fanned out to
        self._stage_workers = 1

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def close(self) -> None:
        """Join the pool's workers, if a pool was opened."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def map(self, fn, payloads) -> list:
        """Order-preserving map over payloads, without timing a stage."""
        payloads = list(payloads)
        if self.n_workers == 1 or len(payloads) <= 1:
            return [fn(p) for p in payloads]
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=multiprocessing.get_context("fork"))
        workers = min(self.n_workers, len(payloads))
        self._stage_workers = max(self._stage_workers, workers)
        chunk = max(1, len(payloads) // (4 * workers))
        return list(self._pool.map(fn, payloads, chunksize=chunk))

    def finish_stage(self, stage: str, started: float, n_tasks: int) -> None:
        """Record a stage that began at ``started`` and ends now.

        The stage's worker count is the most workers one of its maps fanned
        out to through the pool since the previous stage ended, 1 for a
        stage that ran inline.

        Args:
            stage: stage name for the timing record.
            started: ``time.monotonic()`` reading taken when the stage began.
            n_tasks: independent tasks in the stage.
        """
        finished = time.monotonic()
        self.timing.record(StageTiming(
            stage=stage, wall_time_s=finished - started, n_tasks=n_tasks,
            n_workers=self._stage_workers, started_at=started,
            finished_at=finished))
        self._stage_workers = 1
