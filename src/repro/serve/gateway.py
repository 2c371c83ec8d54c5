"""The admission gateway: where live requests enter the system.

One :class:`Gateway` fronts a tenant's worker pools.  It admits jobs
(function-chain invocations), applies backpressure — beyond
``max_pending`` in-flight jobs, new arrivals are *shed* rather than
queued without bound — and walks each admitted job through its chain,
paying the same per-hop transition overhead the simulator models.

Shed requests still count as created (and therefore as SLO violations)
in the metrics: admission control protects the *system*, it must not
launder the numbers.  The outcome bookkeeping itself is the shared
:class:`~repro.workflow.lifecycle.Lifecycle` (DESIGN.md, "Request
lifecycle"); the gateway adds what only a live path needs — the
backpressure bound, the in-flight gauge and the guards against stale
and duplicate task signals.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional

import numpy as np

from repro.metrics.collector import MetricsCollector
from repro.obs.registry import MetricsRegistry
from repro.prediction.windowed import WindowedMaxSampler
from repro.serve.clock import ScaledClock
from repro.serve.journal import RequestJournal
from repro.serve.recovery import (
    RECOVERY_EXPIRED_REASON,
    JournaledJob,
    rebuild_job,
)
from repro.workflow.job import Job, Task
from repro.workflow.lifecycle import Lifecycle, stage_expired
from repro.workflow.pool import FunctionPool
from repro.workloads.applications import Application
from repro.workloads.mixes import WorkloadMix


class Gateway:
    """Admission control + chain orchestration for one tenant."""

    def __init__(
        self,
        clock: ScaledClock,
        pools: Dict[str, FunctionPool],
        mix: WorkloadMix,
        metrics: MetricsCollector,
        sampler: WindowedMaxSampler,
        rng: np.random.Generator,
        max_pending: int = 0,
        input_scale_sampler: Optional[Callable[[np.random.Generator], float]] = None,
        shed_expired: bool = False,
        registry: Optional[MetricsRegistry] = None,
        journal: Optional[RequestJournal] = None,
    ) -> None:
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.clock = clock
        self.pools = pools
        self.mix = mix
        self.metrics = metrics
        self.sampler = sampler
        self.rng = rng
        self.max_pending = max_pending
        self.input_scale_sampler = input_scale_sampler
        self.shed_expired = shed_expired
        self._apps = {app.name: app for app in mix.applications}
        #: Crash flag: a dead gateway drops everything — arrivals,
        #: pending hop timers, task callbacks.  Its replacement (built
        #: by the recovery path) takes over the shared registry gauges.
        self.dead = False
        #: Live-job registry: job id -> the Job *object* this gateway
        #: admitted or recovered.  Terminal jobs leave the map; a task
        #: signal whose job object is not the registered one is stale
        #: (it crossed a crash epoch) and is dropped, not applied.
        self._jobs: Dict[int, Job] = {}
        # Admission counters live in the run's metrics registry (shared
        # with the pools and the collector unless told otherwise); the
        # former ad-hoc integer attributes are read-only views below.
        self.registry = registry if registry is not None else metrics.registry
        self._g_in_flight = self.registry.gauge("gateway_in_flight")
        self._c_admitted = self.registry.counter("gateway_admitted_total")
        self._c_shed = self.registry.counter("gateway_shed_total")
        self._c_shed_deadline = self.registry.counter(
            "gateway_shed_deadline_total")
        self._c_dead_lettered = self.registry.counter(
            "gateway_dead_lettered_total")
        self._c_duplicates = self.registry.counter(
            "gateway_duplicate_completions_total")
        self._c_backpressure = self.registry.counter(
            "gateway_backpressure_sheds_total")
        self._c_stale = self.registry.counter(
            "gateway_stale_signals_total")
        # Bumped through the lifecycle; created here so every export
        # lists it, at zero when nothing died.
        self.registry.counter("gateway_dead_sheds_total")
        #: Outcome bookkeeping; *journal* is the optional write-ahead
        #: log (None = durability off).
        self.lifecycle = Lifecycle(metrics, self.registry, sampler,
                                   journal=journal)
        self._idle = asyncio.Event()
        self._idle.set()

    # -- registry-backed counters (read-only views) ------------------------

    @property
    def in_flight(self) -> int:
        return int(self._g_in_flight.value)

    @property
    def admitted(self) -> int:
        return int(self._c_admitted.value)

    @property
    def shed(self) -> int:
        return int(self._c_shed.value)

    @property
    def shed_deadline(self) -> int:
        """Arrivals shed because their slack was already gone (deadline
        shedding) — kept separate from backpressure sheds."""
        return int(self._c_shed_deadline.value)

    @property
    def dead_lettered(self) -> int:
        """Jobs terminally failed (retries exhausted, dead-lettered)."""
        return int(self._c_dead_lettered.value)

    @property
    def duplicate_completions(self) -> int:
        """Completion/failure signals for jobs already terminal — a
        symptom of a double-delivery bug; counted, never applied."""
        return int(self._c_duplicates.value)

    @property
    def backpressure_sheds(self) -> int:
        """Arrivals shed by the ``max_pending`` in-flight bound alone
        (backpressure ⊂ ``shed``)."""
        return int(self._c_backpressure.value)

    @property
    def stale_signals(self) -> int:
        """Task signals from a pre-crash epoch, dropped by the live-job
        identity check (orphaned executions finishing after recovery)."""
        return int(self._c_stale.value)

    # -- request path ------------------------------------------------------

    def admit(
        self,
        app: Optional[Application] = None,
        input_scale: Optional[float] = None,
    ) -> Optional[Job]:
        """Admit one request; returns the Job, or None if shed.

        Every arrival — shed or not — feeds the arrival-rate sampler
        (the predictor must see offered load, not admitted load) and the
        job counter (a shed request is an SLO violation, not a no-op).
        """
        now = self.clock.now
        lifecycle = self.lifecycle
        if self.dead:
            # A crashed gateway answers nothing: the request is lost at
            # the front door.  The dead-shed counter separates this
            # degraded-routing loss from ordinary backpressure in the
            # failover accounting.
            lifecycle.lose("gateway_dead_sheds_total")
            return None
        lifecycle.arrive(now)
        if self.max_pending and self.in_flight >= self.max_pending:
            lifecycle.shed_arrival("gateway_backpressure_sheds_total")
            return None
        if app is None:
            app = self.mix.sample_application(self.rng)
        if self.shed_expired and lifecycle.shed_if_expired(self.pools, app):
            return None
        if input_scale is None:
            input_scale = (
                self.input_scale_sampler(self.rng)
                if self.input_scale_sampler is not None
                else 1.0
            )
        job = Job(app=app, arrival_ms=now, input_scale=input_scale)
        self._jobs[job.job_id] = job
        lifecycle.admit(job)
        self._g_in_flight.inc()
        self._c_admitted.inc()
        self._idle.clear()
        # Ingress hop: the transition overhead precedes every stage.
        self._later(app.transition_overhead_ms, job, 0)
        return job

    def _later(self, overhead_ms: float, job: Job, stage_index: int) -> None:
        asyncio.get_running_loop().call_later(
            self.clock.to_wall_s(overhead_ms),
            self._enqueue_stage,
            job,
            stage_index,
        )

    def _enqueue_stage(self, job: Job, stage_index: int) -> None:
        if self.dead:
            # A pending hop timer fired into a crashed gateway: the job
            # stays journaled-but-unfinished and recovery requeues it.
            return
        now = self.clock.now
        if stage_index > 0:
            self.lifecycle.hop(job, stage_index, now)
        task = Task(job=job, stage_index=stage_index, enqueue_ms=now)
        pool = self.pools[task.function]
        if (
            self.shed_expired
            and stage_index > 0
            and stage_expired(task.available_slack_ms(now), pool)
        ):
            if self._accepts(job):
                self.lifecycle.shed_task(task, pool, now)
                self._settle(job)
            return
        pool.enqueue(task)

    def on_task_finished(self, task: Task) -> None:
        """Pool callback: advance the chain or complete the job."""
        job = task.job
        if not self._accepts(job):
            return
        if task.is_last_stage:
            self.lifecycle.complete(job, self.clock.now)
            self._settle(job)
        else:
            self._later(job.app.transition_overhead_ms, job, task.stage_index + 1)

    def on_task_failed(self, task: Task, reason: str) -> None:
        """Retry-layer callback: *task*'s job is beyond saving.

        Marks the job terminally failed so ``in_flight`` still reaches
        zero and the drain barrier converges even when work is lost.
        """
        job = task.job
        if not self._accepts(job):
            return
        self.lifecycle.fail(job, self.clock.now, reason)
        self._c_dead_lettered.inc()
        self._settle(job)

    def _accepts(self, job: Job) -> bool:
        """Guard every signal that would settle or advance *job*.

        A job already terminal (a retried attempt's ghost completion
        racing the original, or a completion arriving after the job was
        dead-lettered) is counted as a duplicate and dropped —
        decrementing ``in_flight`` twice would corrupt admission control
        and wedge or falsify the drain barrier.  A stale signal is
        dropped too (see :meth:`_stale`).
        """
        if job.terminal:
            self._c_duplicates.inc()
            return False
        return not self._stale(job)

    def _stale(self, job: Job) -> bool:
        """Identity check against the live-job registry.

        True (and counted) when *job* is not the object this gateway
        knows under its id — a signal from a pre-crash epoch (or from a
        dead gateway's leftovers).  Applying it would decrement
        ``in_flight`` for a job the recovered epoch owns, corrupting
        admission control and double-counting the outcome.
        """
        if self.dead or self._jobs.get(job.job_id) is not job:
            self._c_stale.inc()
            return True
        return False

    def _settle(self, job: Job) -> None:
        self._jobs.pop(job.job_id, None)
        self._g_in_flight.dec()
        if self.in_flight == 0:
            self._idle.set()

    # -- recovery ----------------------------------------------------------

    def requeue_recovered(self, entry: JournaledJob) -> Optional[Job]:
        """Re-admit a journaled-but-unfinished job after a crash.

        The rebuilt job resumes at its furthest journaled stage, paying
        the ingress transition overhead once more.  Not re-journaled as
        an admit: its original admit record stands and exactly one
        terminal record will follow.
        """
        job = rebuild_job(entry, self._apps)
        if job is None:
            return None
        self._jobs[job.job_id] = job
        self._g_in_flight.inc()
        self._idle.clear()
        self._later(job.app.transition_overhead_ms, job, entry.last_stage)
        return job

    def expire_recovered(self, entry: JournaledJob) -> Optional[Job]:
        """Shed a recovered job whose deadline already passed.

        Re-running it cannot meet the SLO; it terminates as a failed
        job (reason ``recovery-expired``) with a journaled ``shed``
        record, so admissions == completions + fails + sheds holds.
        Counted outside ``in_flight`` — the job was never re-admitted.
        """
        job = rebuild_job(entry, self._apps)
        if job is None:
            return None
        self.lifecycle.shed(job, self.clock.now, RECOVERY_EXPIRED_REASON)
        return job

    def reset_in_flight(self) -> None:
        """Zero the shared in-flight gauge before repopulating it.

        The gauge survives the crashed gateway (it lives in the run
        registry); the jobs it counted do not.  Called once by the
        recovery path on the *new* gateway, before requeues.
        """
        self._g_in_flight.set(0)
        self._idle.set()

    # -- drain -------------------------------------------------------------

    async def drained(self, timeout_ms: Optional[float] = None) -> bool:
        """Wait until no job is in flight; returns False on timeout.

        ``timeout_ms`` is model time (wall-scaled like everything else).
        """
        timeout_s = (
            self.clock.to_wall_s(timeout_ms) if timeout_ms is not None else None
        )
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False
