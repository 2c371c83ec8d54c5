"""One request lifecycle for the simulator, the shard sim and the live gateway.

Every arrival ends exactly once: completed, failed (dead-lettered, or
shed after admission) or shed at the front door.  :class:`Lifecycle`
records each step in the metrics, the registry and the optional
journal; :class:`Outcomes` is the count-based conservation check every
run ends with.  DESIGN.md section 16 maps outcomes to journal events
and says where each engine and plane checks conservation.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional

#: Failure reason of a job shed at an overloaded downstream stage.
SHED_EXPIRED_REASON = "shed-expired"

#: Every front-door shed, whatever its cause.
SHED_COUNTER = "gateway_shed_total"


class ConservationError(RuntimeError):
    """A run settled more jobs than it created (or lost track of one)."""


def deadline_expired(first_pool, slack_ms: float) -> bool:
    """Front-door shed test: the first stage's monitored queueing delay
    alone exceeds the chain's slack and no slot is free (a free slot
    means the observed backlog is already draining)."""
    if first_pool is None or getattr(first_pool, "free_slots", 0) > 0:
        return False
    return first_pool.monitored_delay_ms() > slack_ms


def stage_expired(residual_slack_ms: float, pool) -> bool:
    """Stage-hop shed test: the task is already dead (negative residual
    slack) and its stage is saturated."""
    return residual_slack_ms < 0 and getattr(pool, "free_slots", 0) == 0


class Outcomes(NamedTuple):
    """Created and settled job counts of one run (or one plane)."""

    created: int
    completed: int
    failed: int
    shed: int

    @classmethod
    def of(cls, result) -> "Outcomes":
        """Counts of a RunResult (or anything with its four fields)."""
        return cls(result.n_jobs, result.n_completed, result.n_failed,
                   result.shed_jobs)

    @classmethod
    def total(cls, parts: Iterable["Outcomes"]) -> "Outcomes":
        # Column sums; the zero row makes an empty plane sum to zeros.
        return cls(*map(sum, zip(cls(0, 0, 0, 0), *parts)))

    @property
    def unsettled(self) -> int:
        """Created jobs with no outcome yet (negative: double-counted)."""
        return self.created - (self.completed + self.failed + self.shed)

    @property
    def settled(self) -> bool:
        return self.unsettled <= 0

    def check(self, where: str, in_flight: Optional[int] = None) -> None:
        """Raise :class:`ConservationError` when more jobs settled than
        were created — or, given the in-flight count, unless exactly
        ``created`` are settled or in flight."""
        if self.unsettled < 0 or (
                in_flight is not None and self.unsettled != in_flight):
            raise ConservationError(
                f"{where}: completed {self.completed} + failed "
                f"{self.failed} + shed {self.shed}"
                + ("" if in_flight is None else f" + in flight {in_flight}")
                + f" does not match created {self.created}")


def drain(
    step_until: Callable[[float], None],
    settled: Callable[[], bool],
    horizon_ms: float,
    drain_ms: float,
    interval_ms: float,
) -> None:
    """Step past *horizon_ms* one monitor interval at a time until every
    created job has settled or *drain_ms* has passed."""
    t = horizon_ms
    while not settled() and t < horizon_ms + drain_ms:
        t += interval_ms
        step_until(t)


class Lifecycle:
    """Outcome bookkeeping of one gateway, simulated or live.

    *journal* (a file or in-memory
    :class:`~repro.serve.journal.RequestJournal`) and *store* (the sim's
    StateStore) are optional; a crashed shard detaches its journal.
    """

    def __init__(self, metrics, registry, sampler, journal=None,
                 store=None) -> None:
        self.metrics = metrics
        self.registry = registry
        self.sampler = sampler
        self.journal = journal
        self.store = store

    def lose(self, counter: str) -> None:
        """An arrival at a dead front door: created and shed, and the
        sampler (state that died with the gateway) learns nothing.
        *counter* names the cause."""
        self.metrics.record_job_created()
        self.shed_arrival(counter)

    def arrive(self, now_ms: float) -> None:
        """An arrival at a live front door: the predictor sees offered
        load, and a later shed is an SLO violation, not a no-op."""
        self.sampler.record(now_ms)
        self.metrics.record_job_created()

    def shed_arrival(self, counter: str) -> None:
        self.registry.counter(SHED_COUNTER).inc()
        self.registry.counter(counter).inc()

    def shed_if_expired(self, pools, app) -> bool:
        """Shed the arrival (True) when :func:`deadline_expired`."""
        if deadline_expired(pools.get(app.stage_names[0]), app.slack_ms):
            self.shed_arrival("gateway_shed_deadline_total")
            return True
        return False

    def admit(self, job) -> None:
        if self.store is not None:
            self.store.insert("jobs", job.job_id, {
                "app": job.app.name, "creationTime": job.arrival_ms})
        if self.journal is not None:
            self.journal.admit(job)

    def hop(self, job, stage_index: int, now_ms: float) -> None:
        if self.journal is not None:
            self.journal.hop(job, stage_index, now_ms)

    def complete(self, job, now_ms: float) -> None:
        job.completion_ms = now_ms
        self.metrics.record_job_completed(job)
        if self.store is not None:
            self.store.update("jobs", job.job_id, {"completionTime": now_ms})
        if self.journal is not None:
            self.journal.complete(job, now_ms)

    def fail(self, job, now_ms: float, reason: str) -> None:
        """A job whose task was dead-lettered."""
        self._failed(job, now_ms, reason)
        if self.journal is not None:
            self.journal.fail(job, now_ms, reason=reason)

    def shed(self, job, now_ms: float, reason: str) -> None:
        """An admitted job dropped because it can no longer meet its
        SLO: counted as failed, journaled as ``shed``."""
        self._failed(job, now_ms, reason)
        if self.journal is not None:
            self.journal.shed(job, now_ms, reason=reason)

    def shed_task(self, task, pool, now_ms: float) -> None:
        """Drop a task that failed :func:`stage_expired` at *pool*."""
        pool.record_shed()
        self.shed(task.job, now_ms, SHED_EXPIRED_REASON)

    def _failed(self, job, now_ms: float, reason: str) -> None:
        job.failed_ms = now_ms
        job.failure_reason = reason
        self.metrics.record_job_failed(job)
        if self.store is not None:
            self.store.update("jobs", job.job_id, {"failedTime": now_ms})

    def outcomes(self) -> Outcomes:
        return Outcomes(
            self.metrics.jobs_created,
            len(self.metrics.completed_jobs),
            len(self.metrics.failed_jobs),
            int(self.registry.value(SHED_COUNTER)),
        )
