"""Which public calls the traced run wraps, and the per-layer ledger
computed from what they recorded.

Layer names are the package's modules.  ``obs`` and ``workloads`` have
no metric: their calls are too fine-grained to wrap from outside
without distorting the run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ledger import AGG, COUNT, Ledger, pickled_size


def install_setup_layers(ledger: Ledger) -> None:
    """Wrap the calls that build a workload's inputs."""
    from repro.experiments import predictors, simulation
    from repro.traces import base, factory

    ledger.patch(factory, "make_trace", "traces.build")
    ledger.patch(factory, "cached_trace", "traces.build")
    ledger.patch(simulation, "make_scaled_trace", "traces.build")
    ledger.patch(base, "trace_from_profile", "traces.build")
    ledger.patch(predictors, "pretrained_predictor", "prediction.train")


def install_run_layers(ledger: Ledger) -> None:
    """Wrap the calls into each layer made while a unit runs."""
    from repro.cluster.cluster import Cluster
    from repro.core.scaling import ProactiveScaler, ReactiveScaler
    from repro.experiments import runner
    from repro.metrics.collector import MetricsCollector, RunResult
    from repro.runtime.system import ServerlessSystem
    from repro.runtime.vector import VectorEngine, VectorPool
    from repro.serve import runtime as serve_runtime
    from repro.serve.checkpoint import CheckpointManager
    from repro.serve.control import ControlLoop
    from repro.serve.gateway import Gateway
    from repro.serve.journal import RequestJournal
    from repro.shard import sim as shard_sim
    from repro.traces import factory
    from repro.workflow.pool import FunctionPool

    def after_system_run(args, kwargs, result, duration):
        system = args[0]
        ledger.counters["runtime.runs"] += 1
        ledger.counters["runtime.vector_runs"] += system.engine == "vector"
        ledger.counters["sim.events"] += system.sim.events_executed

    def after_place(args, kwargs, node, duration):
        if node is None:
            ledger.counters["cluster.place_failed"] += 1

    def after_batch(args, kwargs, results, duration):
        runner_ = args[0]
        ledger.counters["experiments.trial_s_sum"] += sum(
            r.wall_s for r in results)
        ledger.counters["experiments.worker_s"] += (
            max(1, runner_.workers) * duration / 1e9)

    def after_plane(args, kwargs, plane, duration):
        workers = 1
        if plane.mode == "processes":
            workers = min(plane.n_shards, kwargs.get("shard_workers", 1))
        jobs = [r.n_jobs for r in plane.per_shard.values()]
        ledger.counters["shard.planes"] += 1
        ledger.counters["shard.worker_s"] += workers * duration / 1e9
        ledger.counters["shard.imbalance_sum"] += max(jobs) / np.mean(jobs)

    def after_shard_worker(args, kwargs, result, duration):
        ledger.counters["shard.engine_s"] += duration / 1e9
        ledger.counters["shard.payload_bytes"] += (
            pickled_size(args[0]) + pickled_size(result))

    ledger.patch(ServerlessSystem, "run", "runtime.run",
                 after=after_system_run)
    ledger.patch(ProactiveScaler, "tick", "prediction.tick")
    ledger.patch(ReactiveScaler, "tick", "core.reactive_tick")
    ledger.patch(FunctionPool, "spawn", "core.spawns", COUNT)
    ledger.patch(VectorPool, "spawn", "core.spawns", COUNT)
    ledger.patch(FunctionPool, "reap_idle", "workflow.reaps", COUNT)
    ledger.patch(VectorPool, "reap_idle", "workflow.reaps", COUNT)
    ledger.patch(FunctionPool, "dispatch", "workflow.dispatch", AGG)
    ledger.patch(Cluster, "place", "cluster.place", AGG, after=after_place)
    ledger.patch(MetricsCollector, "finalize", "metrics.finalize")
    ledger.patch(VectorEngine, "_finalize", "metrics.finalize")
    ledger.patch(RunResult, "summary", "metrics.finalize")
    ledger.patch(runner.ExperimentRunner, "run", "experiments.batch",
                 after=after_batch)
    ledger.patch(factory, "prime_trace_cache", "experiments.trace_prime")
    ledger.patch_worker_entry(runner, "_execute_trial_chunk",
                              "experiments.chunk")
    ledger.patch(shard_sim, "run_sharded_policy", "shard.plane",
                 after=after_plane)
    ledger.patch(shard_sim, "partition_arrivals", "shard.partition")
    ledger.patch_worker_entry(shard_sim, "_shard_worker", "shard.worker",
                              after=after_shard_worker)
    ledger.patch(Gateway, "admit", "serve.admit", AGG)
    ledger.patch(RequestJournal, "append", "serve.journal_append", AGG)
    ledger.patch(RequestJournal, "flush", "serve.journal_flush", AGG)
    ledger.patch(CheckpointManager, "save", "serve.checkpoint")
    ledger.patch(ControlLoop, "tick", "serve.control_tick")
    ledger.patch_executor(serve_runtime)


#: Per-layer metrics: name -> unit.  Every ``*_s`` is self time per
#: measured unit unless README.md says otherwise; counts are per
#: measured unit.
LAYER_METRICS = {
    "traces.build_s": "s",
    "prediction.train_s": "s",
    "prediction.ticks": "count",
    "prediction.tick_s": "s",
    "core.reactive_ticks": "count",
    "core.reactive_tick_s": "s",
    "core.spawns": "count",
    "workflow.reaps": "count",
    "runtime.run_s": "s",
    "runtime.vector_runs_pct": "%",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "workflow.dispatch_calls": "count",
    "workflow.dispatch_s": "s",
    "cluster.place_calls": "count",
    "cluster.place_s": "s",
    "cluster.place_failed": "count",
    "metrics.finalize_s": "s",
    "experiments.batch_s": "s",
    "experiments.trial_s_sum": "s",
    "experiments.parallel_efficiency": "ratio",
    "experiments.trace_prime_s": "s",
    "shard.partition_s": "s",
    "shard.engine_s": "s",
    "shard.parallel_efficiency": "ratio",
    "shard.payload_bytes": "B",
    "shard.imbalance": "ratio",
    "serve.admits": "count",
    "serve.admit_s": "s",
    "serve.replay_lateness_p50_ms": "ms",
    "serve.replay_lateness_p99_ms": "ms",
    "serve.executor_wait_p99_ms": "ms",
    "serve.journal_appends": "count",
    "serve.journal_append_s": "s",
    "serve.journal_flushes": "count",
    "serve.journal_flush_s": "s",
    "serve.checkpoints": "count",
    "serve.checkpoint_s": "s",
    "serve.control_ticks": "count",
    "serve.control_tick_s": "s",
    "bench.trace_overhead_pct": "%",
}

#: Layer -> (count metric, self-time metric) read from span totals.
_SPAN_LAYERS = {
    "prediction.tick": ("prediction.ticks", "prediction.tick_s"),
    "core.reactive_tick": ("core.reactive_ticks", "core.reactive_tick_s"),
    "runtime.run": (None, "runtime.run_s"),
    "workflow.dispatch": ("workflow.dispatch_calls", "workflow.dispatch_s"),
    "cluster.place": ("cluster.place_calls", "cluster.place_s"),
    "metrics.finalize": (None, "metrics.finalize_s"),
    "experiments.batch": (None, "experiments.batch_s"),
    "experiments.trace_prime": (None, "experiments.trace_prime_s"),
    "shard.partition": (None, "shard.partition_s"),
    "serve.admit": ("serve.admits", "serve.admit_s"),
    "serve.journal_append": ("serve.journal_appends",
                             "serve.journal_append_s"),
    "serve.journal_flush": ("serve.journal_flushes", "serve.journal_flush_s"),
    "serve.checkpoint": ("serve.checkpoints", "serve.checkpoint_s"),
    "serve.control_tick": ("serve.control_ticks", "serve.control_tick_s"),
}


def per_layer_metrics(
    setup: Ledger,
    setup_reps: int,
    run: Ledger,
    units: int,
    lateness_ms: Optional[np.ndarray],
    overhead_pct: float,
) -> Dict[str, Optional[float]]:
    """Every per-layer metric, None where the layer did no work.

    Setup layers are per setup repetition; the rest per traced unit.
    """
    out: Dict[str, Optional[float]] = {name: None for name in LAYER_METRICS}
    setup_totals = setup.layer_totals()
    for layer, metric in (("traces.build", "traces.build_s"),
                          ("prediction.train", "prediction.train_s")):
        if layer in setup_totals:
            out[metric] = setup_totals[layer][2] / setup_reps

    totals = run.layer_totals()
    c = run.counters
    for layer, (count_metric, time_metric) in _SPAN_LAYERS.items():
        if layer not in totals:
            continue
        calls, _total_s, self_s = totals[layer]
        if count_metric is not None:
            out[count_metric] = calls / units
        out[time_metric] = self_s / units

    for name in ("core.spawns", "workflow.reaps", "cluster.place_failed"):
        out[name] = c.get(name, 0.0) / units
    if c.get("runtime.runs"):
        out["runtime.vector_runs_pct"] = (
            100.0 * c["runtime.vector_runs"] / c["runtime.runs"])
        out["sim.events"] = c["sim.events"] / units
        out["sim.events_per_s"] = c["sim.events"] / totals["runtime.run"][1]
    if c.get("experiments.worker_s"):
        out["experiments.trial_s_sum"] = c["experiments.trial_s_sum"] / units
        out["experiments.parallel_efficiency"] = (
            c["experiments.trial_s_sum"] / c["experiments.worker_s"])
    if c.get("shard.planes"):
        out["shard.engine_s"] = c["shard.engine_s"] / units
        out["shard.parallel_efficiency"] = (
            c["shard.engine_s"] / c["shard.worker_s"])
        out["shard.payload_bytes"] = c["shard.payload_bytes"] / c["shard.planes"]
        out["shard.imbalance"] = c["shard.imbalance_sum"] / c["shard.planes"]
    if lateness_ms is not None and lateness_ms.size:
        out["serve.replay_lateness_p50_ms"] = float(
            np.percentile(lateness_ms, 50))
        out["serve.replay_lateness_p99_ms"] = float(
            np.percentile(lateness_ms, 99))
    waits = run.samples.get("serve.executor_wait_ms")
    if waits:
        out["serve.executor_wait_p99_ms"] = float(np.percentile(waits, 99))
    out["bench.trace_overhead_pct"] = overhead_pct
    return out


def ledger_rows(values: Dict[str, Optional[float]]) -> List[str]:
    """Human-readable ledger lines, ``n/a`` for idle layers."""
    rows = []
    for name, unit in LAYER_METRICS.items():
        value = values[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        rows.append(f"  {name:34s} {shown:>14s} {unit}")
    return rows
