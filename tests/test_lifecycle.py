"""The shared request lifecycle: exactly-once outcomes and conservation.

* A Hypothesis state machine drives random admit / hop / complete /
  fail / shed / crash sequences through :class:`Lifecycle` with an
  in-memory journal, recovering each crash through
  ``build_recovery_plan`` (requeue + expire), and checks after every
  step that the record-based verdict (``journal_conservation``) and the
  count-based check (``Outcomes.check``) agree — including after a job
  is recorded complete twice, which the count check must reject.
* Every engine and plane ends its run with the count check: a
  double-counted completion raises :class:`ConservationError` in the
  fast engine, the vector engine, the shard plane and the live gateway.
* The sim and the live WAL journal a post-admission shed the same way.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.energy import EnergyMeter
from repro.cluster.faults import ShardFaultSchedule
from repro.metrics.collector import MetricsCollector
from repro.prediction.windowed import WindowedMaxSampler
from repro.runtime.system import ClusterSpec, run_policy
from repro.runtime.vector import VectorEngine
from repro.serve import ServeOptions, serve_trace
from repro.serve.journal import RequestJournal, journal_conservation
from repro.serve.recovery import (
    RECOVERY_EXPIRED_REASON,
    build_recovery_plan,
    rebuild_job,
)
from repro.shard import sim as shard_sim
from repro.traces import poisson_trace
from repro.workflow.job import Job
from repro.workflow.lifecycle import (
    SHED_EXPIRED_REASON,
    ConservationError,
    Lifecycle,
    Outcomes,
)
from repro.workloads import get_mix

_MIX = get_mix("medium")
_APPS = {app.name: app for app in _MIX.applications}


class LifecycleMachine(RuleBasedStateMachine):
    """One gateway's lifecycle with a crash-and-recover rule."""

    @initialize()
    def setup(self):
        self.metrics = MetricsCollector(EnergyMeter())
        self.journal = RequestJournal(None)
        self.lifecycle = Lifecycle(
            self.metrics, self.metrics.registry,
            WindowedMaxSampler(interval_ms=10_000.0),
            journal=self.journal)
        self.now = 0.0
        #: job id -> (job, current stage): the gateway's live-job map.
        self.in_flight = {}
        self.completed = []
        self.double_counted = False

    def _pick(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.in_flight)))
        return self.in_flight[job_id]

    # -- front door ----------------------------------------------------

    @rule(app=st.sampled_from(sorted(_APPS)))
    def admit(self, app):
        self.lifecycle.arrive(self.now)
        job = Job(app=_APPS[app], arrival_ms=self.now)
        self.lifecycle.admit(job)
        self.in_flight[job.job_id] = (job, 0)

    @rule()
    def shed_at_door(self):
        self.lifecycle.arrive(self.now)
        self.lifecycle.shed_arrival("gateway_shed_deadline_total")

    @rule()
    def lose_at_dead_door(self):
        self.lifecycle.lose("gateway_dead_sheds_total")

    # -- in flight and terminal ------------------------------------------

    @rule(ms=st.floats(min_value=0.0, max_value=5_000.0))
    def advance(self, ms):
        self.now += ms

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data())
    def hop(self, data):
        job, stage = self._pick(data)
        if stage + 1 < len(job.app.stages):
            self.lifecycle.hop(job, stage + 1, self.now)
            self.in_flight[job.job_id] = (job, stage + 1)

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data(), outcome=st.sampled_from(
        ["complete", "fail", "shed"]))
    def settle(self, data, outcome):
        job, _stage = self._pick(data)
        del self.in_flight[job.job_id]
        if outcome == "complete":
            self.lifecycle.complete(job, self.now)
            self.completed.append(job)
        elif outcome == "fail":
            self.lifecycle.fail(job, self.now, "retries-exhausted")
        else:
            self.lifecycle.shed(job, self.now, SHED_EXPIRED_REASON)

    @precondition(lambda self: self.completed and not self.double_counted)
    @rule(data=st.data())
    def complete_twice(self, data):
        job = data.draw(st.sampled_from(self.completed))
        self.lifecycle.complete(job, self.now)
        self.double_counted = True
        with pytest.raises(ConservationError):
            self.lifecycle.outcomes().check(
                "double", in_flight=len(self.in_flight))

    @rule()
    def crash_and_recover(self):
        """The gateway dies with its in-flight jobs; recovery rebuilds
        them from the journal alone, requeueing or expiring each."""
        lost = set(self.in_flight)
        self.in_flight = {}
        plan = build_recovery_plan(
            self.journal.records, self.now, lambda name: _APPS[name].slo_ms)
        assert {e.job_id for e in plan.requeue + plan.expired} == lost
        for entry in plan.requeue:
            job = rebuild_job(entry, _APPS)
            self.in_flight[job.job_id] = (job, entry.last_stage)
        for entry in plan.expired:
            job = rebuild_job(entry, _APPS)
            assert job.arrival_ms == entry.arrival_ms
            self.lifecycle.shed(job, self.now, RECOVERY_EXPIRED_REASON)

    # -- invariants ------------------------------------------------------

    @invariant()
    def record_and_count_verdicts_agree(self):
        verdict = journal_conservation(self.journal.records)
        records_ok = (
            set(verdict["lost_jobs"]) == set(self.in_flight)
            and not verdict["duplicated_terminals"]
            and not verdict["orphaned_terminals"]
        )
        try:
            self.lifecycle.outcomes().check(
                "machine", in_flight=len(self.in_flight))
            counts_ok = True
        except ConservationError:
            counts_ok = False
        assert records_ok == counts_ok
        assert counts_ok != self.double_counted
        # Drained and not double-counted is exactly the journal's
        # "conserved" verdict.
        assert verdict["conserved"] == (
            not self.in_flight and not self.double_counted)


LifecycleMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLifecycleStateMachine = LifecycleMachine.TestCase


class TestOutcomes:
    def test_settled_and_unsettled(self):
        assert Outcomes(10, 6, 2, 2).settled
        assert Outcomes(10, 6, 2, 1).unsettled == 1
        assert not Outcomes(10, 6, 2, 1).settled

    def test_check_raises_only_on_double_count(self):
        Outcomes(10, 6, 2, 1).check("in flight")
        with pytest.raises(ConservationError, match="created 10"):
            Outcomes(10, 7, 2, 2).check("double")

    def test_check_with_in_flight_is_exact(self):
        Outcomes(10, 6, 2, 1).check("live", in_flight=1)
        with pytest.raises(ConservationError, match="in flight 0"):
            Outcomes(10, 6, 2, 1).check("live", in_flight=0)

    def test_total_sums_columns(self):
        assert Outcomes.total([]) == Outcomes(0, 0, 0, 0)
        assert Outcomes.total(
            [Outcomes(3, 1, 1, 0), Outcomes(4, 2, 0, 1)]
        ) == Outcomes(7, 3, 1, 1)


@pytest.fixture
def double_completions(monkeypatch):
    """Record every completion twice in the metrics collector."""
    record = MetricsCollector.record_job_completed

    def twice(self, job):
        record(self, job)
        record(self, job)

    monkeypatch.setattr(MetricsCollector, "record_job_completed", twice)


class TestEveryRunEndsWithTheCheck:
    trace = poisson_trace(8.0, 10.0, seed=5)

    def test_fast_engine(self, double_completions):
        with pytest.raises(ConservationError, match="rscale run"):
            run_policy("rscale", _MIX, self.trace, seed=5)

    def test_vector_engine(self, monkeypatch):
        outcomes = VectorEngine.outcomes
        monkeypatch.setattr(
            VectorEngine, "outcomes",
            lambda self: outcomes(self)._replace(
                completed=outcomes(self).completed + 1))
        with pytest.raises(ConservationError, match="rscale run"):
            run_policy("rscale", _MIX, self.trace, seed=5, engine="vector")

    def test_shard_plane(self, double_completions):
        with pytest.raises(ConservationError, match="plane"):
            run_policy("rscale", _MIX, self.trace, seed=5, shards=2,
                       cluster_spec=ClusterSpec(n_nodes=4))

    def test_live_gateway(self, double_completions):
        with pytest.raises(ConservationError, match="in flight"):
            serve_trace("rscale", _MIX, self.trace, seed=5,
                        options=ServeOptions(time_scale=0.005))

    def test_clean_runs_pass(self):
        result = run_policy("rscale", _MIX, self.trace, seed=5)
        assert Outcomes.of(result).settled
        live = serve_trace("rscale", _MIX, self.trace, seed=5,
                           options=ServeOptions(time_scale=0.005))
        assert Outcomes.of(live).unsettled == 0


def test_sim_failover_journals_post_admission_sheds_as_shed(monkeypatch):
    """Sim and live WAL agree: a job shed after admission — at a
    saturated stage or by a takeover past its deadline — is one
    ``shed`` record, never ``fail``."""
    planes = []
    init = shard_sim._ShardFaultPlane.__init__

    def capture(self, *args, **kwargs):
        init(self, *args, **kwargs)
        planes.append(self)

    monkeypatch.setattr(shard_sim._ShardFaultPlane, "__init__", capture)
    # An overloaded plane (heavy chains at 60 req/s on 12 cores), so
    # both kinds of post-admission shed happen.
    result = shard_sim.run_sharded_policy(
        "rscale", get_mix("heavy"), poisson_trace(60.0, 40.0, seed=3),
        shards=3, cluster_spec=ClusterSpec(n_nodes=3, cores_per_node=4),
        shard_faults=ShardFaultSchedule.parse("kill@10=1;recover@25=1"),
        heartbeat_interval_ms=2_000.0, shed_expired=True, seed=3,
        drain_ms=240_000.0,
    )
    assert result.orchestration["journal"]["conserved"]
    records = [r for system in planes[0].systems.values()
               for r in system.journal.records]
    by_reason = {}
    for record in records:
        if record.get("reason") in (SHED_EXPIRED_REASON,
                                    RECOVERY_EXPIRED_REASON):
            by_reason.setdefault(record["reason"], set()).add(record["ev"])
    assert by_reason == {SHED_EXPIRED_REASON: {"shed"},
                         RECOVERY_EXPIRED_REASON: {"shed"}}
