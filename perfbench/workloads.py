"""The benchmark's four workloads.

Each workload turns ``--seed`` into its inputs in :meth:`setup`, runs
one *unit* of work through the package's public entry points in
:meth:`execute` (the timed part), and reads the unit's outcome back as
a :class:`Tally` of requests, latencies and modelled resources.  The
run loop in ``run.py`` cycles units over the inputs until
``--seconds`` have passed.

Sizes are fixed here, not derived from ``--seconds``, so the modelled
metrics of a sim unit are exact functions of seed and code.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import get_mix, run_policy
from repro.core.policies import make_policy_config
from repro.experiments import predictors, simulation
from repro.experiments.robustness import journal_conservation
from repro.experiments.runner import (
    ExperimentRunner,
    TrialSpec,
    derive_seeds,
    run_trial,
    summaries_json,
)
from repro.runtime.system import ClusterSpec
from repro.serve.config import ServeOptions
from repro.serve.journal import RequestJournal, journal_basename
from repro.serve.runtime import ServingRuntime
from repro.sim.engine import ENGINE_VECTOR, resolve_engine
from repro.traces import base as trace_base
from repro.traces import factory

#: Percentiles tried for the tail, highest first, each with the
#: reciprocal of the share of samples beyond it.
TAIL_PERCENTILES = ((99.99, 10_000), (99.9, 1_000), (99.0, 100))
#: Samples a tail percentile must have beyond it.
TAIL_MIN_BEYOND = 10


@dataclass
class Tally:
    """Requests and modelled resources of one unit of work."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    within_slo: int = 0
    latencies: List[np.ndarray] = field(default_factory=list)
    containers: List[float] = field(default_factory=list)
    cold_starts: int = 0
    energy_j: float = 0.0
    errors: List[str] = field(default_factory=list)
    #: Percentiles taken per run when only summaries come back.
    run_p50: List[float] = field(default_factory=list)
    run_p99: List[float] = field(default_factory=list)
    #: Live replays: admission clock minus planned arrival, model ms.
    lateness: Optional[np.ndarray] = None

    @property
    def terminal(self) -> int:
        return self.completed + self.failed + self.shed

    def conserve(self, where: str, admitted: int, completed: int,
                 failed: int, shed: int) -> None:
        """Add one run's counts, checking completed+failed+shed==admitted."""
        if completed + failed + shed != admitted:
            self.errors.append(
                f"{where}: completed {completed} + failed {failed} + shed "
                f"{shed} != admitted {admitted}")
        self.admitted += admitted
        self.completed += completed
        self.failed += failed
        self.shed += shed

    def add_result(self, where: str, result) -> None:
        """Fold one RunResult in."""
        self.conserve(where, result.n_jobs, result.n_completed,
                      result.n_failed, result.shed_jobs)
        self.within_slo += result.n_completed - result.violations
        self.latencies.append(np.asarray(result.latencies_ms, dtype=float))
        self.containers.append(result.avg_containers)
        self.cold_starts += result.cold_starts
        self.energy_j += result.energy_joules


def latency_tail(latencies: np.ndarray):
    """(value, percentile, samples beyond) for the highest percentile
    with at least ``TAIL_MIN_BEYOND`` samples beyond it."""
    for q, per_beyond in TAIL_PERCENTILES:
        beyond = latencies.size // per_beyond
        if beyond >= TAIL_MIN_BEYOND:
            return float(np.percentile(latencies, q)), q, beyond
    return float(latencies.max()), 100.0, 0


def modelled_metrics(tallies: List[Tally], cycles: int) -> Dict[str, float]:
    """The modelled end-to-end metrics over *tallies*.

    Rates pool every request; counts and energy are per cycle (one
    pass over a workload's inputs).
    """
    admitted = sum(t.admitted for t in tallies)
    out = {
        "slo_met_pct": 100.0 * sum(t.within_slo for t in tallies) / admitted,
        "completed_pct": 100.0 * sum(t.completed for t in tallies) / admitted,
        "failed_pct": 100.0 * sum(t.failed + t.shed for t in tallies) / admitted,
        "avg_containers": float(np.mean(
            [c for t in tallies for c in t.containers])),
        "cold_starts": sum(t.cold_starts for t in tallies) / cycles,
        "energy_kj": sum(t.energy_j for t in tallies) / cycles / 1000.0,
    }
    out["slo_violation_pct"] = 100.0 - out["slo_met_pct"]
    pooled = [a for t in tallies for a in t.latencies]
    if pooled:
        lat = np.concatenate(pooled)
        out["latency_p50_ms"] = float(np.percentile(lat, 50))
        tail, q, beyond = latency_tail(lat)
        out["latency_tail_ms"] = tail
        out["tail_percentile"] = q
        out["tail_samples_beyond"] = beyond
        out["latency_samples"] = int(lat.size)
    else:
        # Summaries only: the median over runs of each run's own p50/p99.
        completed = sum(t.completed for t in tallies)
        out["latency_p50_ms"] = float(np.median(
            [p for t in tallies for p in t.run_p50]))
        out["latency_tail_ms"] = float(np.median(
            [p for t in tallies for p in t.run_p99]))
        out["tail_percentile"] = 99.0
        out["tail_samples_beyond"] = int(completed * 0.01)
        out["latency_samples"] = completed
    return out


class Workload:
    """One named workload; subclasses fill in the hooks.

    A unit of work runs one of the workload's ``inputs`` inputs; the
    run loop cycles through them in order.
    """

    name = ""
    #: Engine (or serving path) the runs resolve to.
    engine = ""
    #: Worker processes a unit fans out to (1 = none).
    workers = 1
    #: Distinct inputs a cycle runs.
    inputs = 1
    #: Cycles measured at least: two, so that repeated units of one
    #: input can be compared bit for bit.
    min_cycles = 2
    #: Whether the trace paces the run on the wall clock, so that its
    #: wall time is not a host cost.
    paced = False

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        """Build the inputs (timed as ``setup_s``)."""

    def prepare(self, i: int) -> None:
        """Untimed preparation of a unit on input *i*."""

    def execute(self, i: int):
        """The timed public call of a unit on input *i*."""
        raise NotImplementedError

    def tally(self, i: int, outcome) -> Tally:
        raise NotImplementedError

    def fingerprint(self, outcome) -> Optional[str]:
        """Exact modelled output of a unit, or None where host time
        feeds back into the model (live serving)."""
        return None

    def reference_errors(self, outcome) -> List[str]:
        """Compare the first unit against a plain call of its input."""
        return []

    def provenance(self) -> Dict:
        return {}


def _result_fingerprint(results) -> str:
    parts = []
    for r in results:
        parts.append(json.dumps(r.summary(), sort_keys=True, default=str))
        parts.append(hashlib.sha256(
            np.asarray(r.latencies_ms, dtype=float).tobytes()).hexdigest())
    return "|".join(parts)


class SimWikiFifer(Workload):
    """Fifer (LSTM proactive + RScale) on the scaled Wikipedia trace."""

    name = "sim-wiki-fifer"
    inputs = 4
    #: Model seconds per run.
    duration_s = 120.0

    def setup(self) -> None:
        predictors.clear_caches()
        self.seeds = derive_seeds(self.seed, self.inputs)
        self.traces = [
            simulation.make_scaled_trace("wiki", self.duration_s, seed=s)
            for s in self.seeds
        ]
        self.cluster = simulation.simulation_cluster()
        self.predictor = predictors.pretrained_predictor(
            "wiki",
            mean_rate_rps=simulation.WIKI_AVG_RPS / simulation.RATE_SCALE)
        self.engine = resolve_engine(None)

    def execute(self, i: int):
        return run_policy(
            "fifer", get_mix("heavy"), self.traces[i],
            cluster_spec=self.cluster, predictor=self.predictor,
            seed=self.seeds[i],
            idle_timeout_ms=simulation.DEFAULT_IDLE_TIMEOUT_MS,
        )

    def tally(self, i: int, outcome) -> Tally:
        t = Tally()
        t.add_result(f"run seed {self.seeds[i]}", outcome)
        return t

    def fingerprint(self, outcome) -> str:
        return _result_fingerprint([outcome])

    def provenance(self) -> Dict:
        return {"model_s_per_run": self.duration_s,
                "trace_jobs": [len(t.arrivals_ms) for t in self.traces]}


class StudyWitsChaos(Workload):
    """Batches of WITS flash-crowd RScale trials with mild faults.

    The trials are split into ``inputs`` batches of one runner call
    each: many short units give a steady median of host time, and a
    cycle still covers every trial for the modelled metrics.
    """

    name = "study-wits-chaos"
    workers = 2
    trials = 32
    inputs = 4
    rate_rps = 20.0
    duration_s = 120.0
    nodes = 5
    crash_probability = 0.002

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.specs = []
        for trial_seed in derive_seeds(self.seed, self.trials):
            kill_s = float(rng.uniform(0.2, 0.5)) * self.duration_s
            node = int(rng.integers(self.nodes))
            schedule = (f"kill@{kill_s:.3f}={node};"
                        f"recover@{kill_s + 0.25 * self.duration_s:.3f}={node}")
            self.specs.append(TrialSpec.make(
                "rscale", mix="heavy", trace_kind="wits",
                rate_rps=self.rate_rps, duration_s=self.duration_s,
                seed=trial_seed, nodes=self.nodes,
                faults=(("crash_probability", self.crash_probability),
                        ("node_fault_schedule", schedule)),
                shed_expired=True,
            ))
        # Trace build into the cache the runner primes before it forks
        # (its own priming is then a lookup).  Emptied first so every
        # set-up repetition builds the traces again.
        factory._TRACE_CACHE.clear()
        factory.prime_trace_cache(
            (s.trace_kind, s.rate_rps, s.duration_s, s.seed)
            for s in self.specs)
        self.engine = resolve_engine(self.specs[0].engine)
        size = self.trials // self.inputs
        self.batches = [self.specs[b:b + size]
                        for b in range(0, self.trials, size)]

    def execute(self, i: int):
        runner = ExperimentRunner(workers=self.workers, cache_dir=None)
        return runner.run(self.batches[i])

    def tally(self, i: int, outcome) -> Tally:
        t = Tally()
        for result in outcome:
            s = result.summary
            jobs = int(s["jobs"])
            t.conserve(f"trial seed {result.spec.seed}", jobs,
                       int(s["completed"]), int(s["failed"]),
                       int(s["shed_jobs"]))
            t.within_slo += jobs - int(round(s["slo_violation_rate"] * jobs))
            t.containers.append(s["avg_containers"])
            t.cold_starts += int(s["cold_starts"])
            t.energy_j += s["energy_joules"]
            t.run_p50.append(s["median_latency_ms"])
            t.run_p99.append(s["p99_latency_ms"])
        return t

    def fingerprint(self, outcome) -> str:
        return summaries_json(outcome)

    def reference_errors(self, outcome) -> List[str]:
        plain = run_trial(self.specs[0])
        if json.dumps(plain, sort_keys=True) != json.dumps(
                outcome[0].summary, sort_keys=True):
            return ["trial 0 through the runner differs from a plain "
                    "run_trial call"]
        return []

    def provenance(self) -> Dict:
        return {"trials_per_unit": self.trials // self.inputs,
                "model_s_per_trial": self.duration_s,
                "faults": dict(self.specs[0].faults)}


class ShardFanout(Workload):
    """Short sharded runs: 4 shards over 2 worker processes, vector."""

    name = "shard-fanout"
    workers = 2
    #: Cold starts per trace range over 5x between seeds; 32 traces
    #: keep the per-cycle count steady across seeds.
    inputs = 32
    shards = 4
    rate_rps = 100.0
    duration_s = 150.0
    nodes = 8

    def setup(self) -> None:
        self.seeds = derive_seeds(self.seed, self.inputs)
        self.traces = [
            factory.make_trace("wiki", self.rate_rps, self.duration_s, s)
            for s in self.seeds
        ]
        self.cluster = ClusterSpec(n_nodes=self.nodes)
        self.engine = resolve_engine(ENGINE_VECTOR)

    def execute(self, i: int):
        return run_policy(
            "rscale", get_mix("heavy"), self.traces[i],
            cluster_spec=self.cluster, seed=self.seeds[i],
            engine=ENGINE_VECTOR, shards=self.shards,
            shard_workers=self.workers,
            idle_timeout_ms=simulation.DEFAULT_IDLE_TIMEOUT_MS,
        )

    def tally(self, i: int, outcome) -> Tally:
        t = Tally()
        where = f"plane seed {self.seeds[i]}"
        if outcome.mode != "processes":
            t.errors.append(f"{where} ran {outcome.mode!r}")
        for shard_id, result in sorted(outcome.per_shard.items()):
            t.add_result(f"{where} shard {shard_id}", result)
        # The plane's container count is the sum over its shards.
        t.containers = [sum(t.containers)]
        return t

    def fingerprint(self, outcome) -> str:
        return _result_fingerprint(
            outcome.per_shard[s] for s in sorted(outcome.per_shard))

    def provenance(self) -> Dict:
        return {"shards": self.shards, "shard_workers": self.workers,
                "trace_jobs": [len(t.arrivals_ms) for t in self.traces]}


class LiveWal(Workload):
    """One live gateway replaying step-Poisson load, journal on."""

    name = "live-wal"
    engine = "live"
    paced = True
    policy = "bline"
    inputs = 3
    #: Host time feeds into every replay, so there is nothing to
    #: compare bit for bit; one cycle suffices.
    min_cycles = 1
    mean_rps = 20.0
    #: Rate multipliers, one per 2-model-s step (fixed; the seed draws
    #: the Poisson arrivals).  Short alternating steps make bline's
    #: cold-start count depend on the load shape more than on chance.
    steps = (0.5, 1.5) * 10
    step_s = 2.0
    time_scale = 0.2
    idle_timeout_ms = 3_000.0
    checkpoint_interval_ms = 5_000.0

    def __init__(self, seed: int, work_dir: str) -> None:
        super().__init__(seed, work_dir)
        self._replays = 0

    def setup(self) -> None:
        times_ms = np.arange(len(self.steps)) * self.step_s * 1000.0
        profile = trace_base.RateProfile(
            times_ms, np.asarray(self.steps) * self.mean_rps)
        self.seeds = derive_seeds(self.seed, self.inputs)
        self.traces = [
            trace_base.trace_from_profile(
                profile, len(self.steps) * self.step_s * 1000.0,
                seed=s, name="step-poisson")
            for s in self.seeds
        ]
        self.prepare(0)

    def prepare(self, i: int) -> None:
        self._replays += 1
        self.journal_dir = os.path.join(
            self.work_dir, f"journal-{self._replays}")
        os.makedirs(self.journal_dir)
        self.runtime = ServingRuntime(
            config=make_policy_config(
                self.policy, idle_timeout_ms=self.idle_timeout_ms),
            mix=get_mix("heavy"),
            cluster_spec=ClusterSpec(),
            seed=self.seeds[i],
            options=ServeOptions(
                time_scale=self.time_scale,
                journal_dir=self.journal_dir,
                checkpoint_interval_ms=self.checkpoint_interval_ms,
            ),
        )

    def execute(self, i: int):
        return self.runtime.run(self.traces[i])

    def tally(self, i: int, result) -> Tally:
        runtime = self.runtime
        t = Tally()
        where = f"replay {self._replays}"
        t.conserve(where, result.n_jobs, result.n_completed,
                   result.n_failed, result.shed_jobs)
        plan = runtime.replayer.plan()
        jobs = sorted(runtime.metrics.completed_jobs
                      + runtime.metrics.failed_jobs, key=lambda j: j.job_id)
        if len(jobs) != len(plan) or result.shed_jobs:
            t.errors.append(f"{where}: {len(jobs)} settled jobs for "
                            f"{len(plan)} planned arrivals")
        # Latency counts from the due time: the replayer's lateness at
        # admission is added to each request's response latency.
        t.lateness = np.array([j.arrival_ms - p.time_ms
                               for j, p in zip(jobs, plan)])
        due = []
        for job, late in zip(jobs, t.lateness):
            if job.completed:
                latency = job.response_latency_ms + late
                due.append(latency)
                t.within_slo += latency <= job.app.slo_ms
        t.latencies.append(np.asarray(due))
        t.containers.append(result.avg_containers)
        t.cold_starts = result.cold_starts
        t.energy_j = result.energy_joules
        records = RequestJournal.read_records(
            os.path.join(self.journal_dir, journal_basename()))
        verdict = journal_conservation(records)
        if not verdict["conserved"]:
            t.errors.append(f"{where}: journal not conserved: {verdict}")
        if verdict["jobs_admitted"] != result.n_jobs:
            t.errors.append(f"{where}: journal admits "
                            f"{verdict['jobs_admitted']} != {result.n_jobs}")
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        return t

    def provenance(self) -> Dict:
        return {"policy": self.policy, "time_scale": self.time_scale,
                "model_s_per_replay": len(self.steps) * self.step_s,
                "trace_jobs": [len(t.arrivals_ms) for t in self.traces]}


WORKLOADS = {w.name: w for w in (SimWikiFifer, StudyWitsChaos,
                                 ShardFanout, LiveWal)}
