"""Persistent performance harness: engine throughput + runner scaling.

Unlike the ``bench_*`` pytest benches (which regenerate paper tables),
this is a standalone script that measures the *simulator's own* speed
and writes the numbers to ``BENCH_sim.json`` so regressions show up in
review diffs and CI can assert a floor:

* engine events/sec on the reference workload for both engines —
  ``vector`` (flat-array batch engine) and ``fast`` (the event loop
  with a bulk-arrival cursor) — plus a parity check that both produce
  the same summary;
* EventQueue micro-throughput under push/pop and cancel-heavy churn
  (exercising lazy-cancellation compaction);
* experiment-runner wall-clock for a seeded repeat batch run serially
  vs ``--workers N``, and the warm-cache replay of the same batch.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py --quick
    PYTHONPATH=src python benchmarks/bench_perf.py --workers 4 \
        --min-eps 20000 --out BENCH_sim.json
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policies import make_policy_config  # noqa: E402
from repro.experiments.export import atomic_write_json  # noqa: E402
from repro.runtime.system import ClusterSpec, ServerlessSystem  # noqa: E402
from repro.sim.engine import Event, EventQueue, Simulator  # noqa: E402
from repro.traces import step_poisson_trace  # noqa: E402
from repro.workloads import get_mix  # noqa: E402


#: Pre-fast-path engine throughput on the reference workload (rscale /
#: heavy / step-Poisson 80 rps x 120 s, 8 nodes, seed 5), measured on
#: the development machine at the commit before the fast-path work.
#: Full (non --quick) runs compare against it so BENCH_sim.json records
#: the cumulative engine speedup, not just the vector-vs-fast A/B.
PRE_FASTPATH_BASELINE_EPS = 47_556.0


def _reference_run(engine: str, rate: float, duration: float):
    """One reference-workload run; returns (summary, events, wall_s)."""
    trace = step_poisson_trace(rate, duration, variation=0.4, seed=5)
    system = ServerlessSystem(
        config=make_policy_config("rscale", idle_timeout_ms=60_000.0),
        mix=get_mix("heavy"),
        cluster_spec=ClusterSpec(n_nodes=8),
        seed=5,
        engine=engine,
    )
    started = time.perf_counter()
    result = system.run(trace)
    wall = time.perf_counter() - started
    return result.summary(), system.sim.events_executed, wall


def bench_engine(rate: float, duration: float) -> dict:
    # Warm-up: touch every engine once on a short run so the timed
    # passes don't pay one-off costs (lazy imports, numpy dispatch
    # caches, branch-predictor cold start).
    for engine in ("vector", "fast"):
        _reference_run(engine, 10.0, 10.0)
    vec_summary, vec_events, vec_wall = _reference_run(
        "vector", rate, duration
    )
    fast_summary, fast_events, fast_wall = _reference_run(
        "fast", rate, duration
    )
    if vec_summary != fast_summary:
        raise AssertionError(
            "vector-engine summary diverged from the event-loop engine"
        )
    return {
        "workload": {
            "policy": "rscale", "mix": "heavy", "trace": "step-poisson",
            "rate_rps": rate, "duration_s": duration, "nodes": 8, "seed": 5,
        },
        "vector": {
            "events": vec_events,
            "wall_s": round(vec_wall, 4),
            "events_per_sec": round(vec_events / vec_wall, 1),
        },
        "fast": {
            "events": fast_events,
            "wall_s": round(fast_wall, 4),
            "events_per_sec": round(fast_events / fast_wall, 1),
        },
        "vector_vs_fast_speedup": round(
            (vec_events / vec_wall) / (fast_events / fast_wall), 3
        ),
        "parity": True,
    }


def _with_baseline(engine: dict, quick: bool) -> dict:
    """Attach the pinned pre-fast-path reference (full runs only: the
    baseline was measured at the full reference-workload shape)."""
    if quick:
        return engine
    eps = engine["fast"]["events_per_sec"]
    engine["pre_fastpath_baseline"] = {
        "events_per_sec": PRE_FASTPATH_BASELINE_EPS,
        "note": "measured on the development machine before the "
                "fast-path work; cross-machine comparisons are "
                "indicative only",
    }
    engine["speedup_vs_pre_fastpath"] = round(
        eps / PRE_FASTPATH_BASELINE_EPS, 3
    )
    return engine


def bench_event_queue(n: int) -> dict:
    out = {}
    # Pure push/pop throughput.
    queue = EventQueue()
    noop = lambda: None  # noqa: E731
    started = time.perf_counter()
    for i in range(n):
        queue.push(Event(time=float(i % 997), priority=0, callback=noop))
    while queue:
        queue.pop()
    wall = time.perf_counter() - started
    out["push_pop"] = {
        "events": n,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(2 * n / wall, 1),
    }
    # Cancel-heavy churn: 80% of pushes are cancelled before popping,
    # the regime the compaction guard exists for.
    sim = Simulator()
    started = time.perf_counter()
    for i in range(n):
        handle = sim.schedule_at(float(i), noop)
        if i % 5 != 0:
            sim.cancel(handle)
    queue = sim._queue
    while queue:
        queue.pop()
    wall = time.perf_counter() - started
    out["cancel_churn"] = {
        "events": n,
        "cancelled_fraction": 0.8,
        "wall_s": round(wall, 4),
        "ops_per_sec": round(2 * n / wall, 1),
        "compactions": queue.compactions,
        "final_heap_size": queue.heap_size(),
    }
    return out


def bench_shard(quick: bool, rate: float, duration: float) -> dict:
    """Sharded-plane benches: partitioned admission throughput plus
    end-to-end 1 -> 2 -> 4 shard scaling.

    The admission bench times the per-request work the sharded gateway
    does before a job exists — SplitMix64 ring partition, per-shard app
    presampling and the flat record layout — because that path bounds
    the aggregate request rate N gateways can admit regardless of how
    fast the downstream engines drain.  The scaling bench runs the full
    reference workload through ``run_sharded_policy``'s process mode;
    on a single-CPU host its speedup reflects pool overhead only.
    """
    import numpy as np

    from repro.core.vectorized import (
        job_record_layout, presample_app_indices,
    )
    from repro.shard.ring import ConsistentHashRing
    from repro.shard.sim import (
        _shard_seed, partition_arrivals, run_sharded_policy,
    )
    from repro.traces.base import ArrivalTrace

    mix = get_mix("heavy")
    cdf = mix._weight_cdf
    chain_lengths = np.asarray(
        [len(app.stages) for app in mix.applications], dtype=np.intp
    )

    n_requests = 200_000 if quick else 1_000_000
    shards = 4
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 600_000.0, n_requests))
    trace = ArrivalTrace(times, name="admission-bench")
    ring = ConsistentHashRing(shards)
    # Warm-up pass (numpy dispatch, md5 ring build).
    partition_arrivals(ArrivalTrace(times[:1000], name="warm"), ring)

    started = time.perf_counter()
    parts = partition_arrivals(trace, ring)
    admitted = 0
    for shard_id, sub, _ids in parts:
        shard_rng = np.random.default_rng(_shard_seed(5, shard_id))
        count = len(sub.arrivals_ms)
        apps = presample_app_indices(cdf, shard_rng, count)
        job_record_layout(chain_lengths[apps])
        admitted += count
    admission_wall = time.perf_counter() - started
    if admitted != n_requests:
        raise AssertionError("ring partition lost or duplicated requests")

    out = {
        "admission": {
            "requests": n_requests,
            "shards": shards,
            "wall_s": round(admission_wall, 4),
            "requests_per_sec": round(n_requests / admission_wall, 1),
        },
    }

    scaling = {}
    wall_1 = None
    for n in (1, 2, 4):
        started = time.perf_counter()
        result = run_sharded_policy(
            "rscale", mix, step_poisson_trace(
                rate, duration, variation=0.4, seed=5),
            shards=n, shard_workers=n,
            cluster_spec=ClusterSpec(n_nodes=8), seed=5,
            engine="vector", idle_timeout_ms=60_000.0,
        )
        wall = time.perf_counter() - started
        wall_1 = wall if n == 1 else wall_1
        scaling[str(n)] = {
            "jobs": int(result.n_jobs),
            "wall_s": round(wall, 4),
            "jobs_per_sec": round(result.n_jobs / wall, 1),
            "speedup_vs_1": round(wall_1 / wall, 3),
        }
    out["shard_scaling"] = scaling
    return out


def bench_runner(workers: int, rate: float, duration: float,
                 repeats: int) -> dict:
    from repro.experiments.runner import (
        ExperimentRunner, repeat_specs, summaries_json,
    )

    specs = repeat_specs(
        "rscale", base_seed=11, repeats=repeats,
        mix="heavy", trace_kind="step-poisson",
        rate_rps=rate, duration_s=duration, nodes=5,
    )
    serial = ExperimentRunner(workers=1, cache_dir=None)
    started = time.perf_counter()
    serial_results = serial.run(specs)
    serial_wall = time.perf_counter() - started

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as cache_dir:
        parallel = ExperimentRunner(workers=workers, cache_dir=cache_dir)
        started = time.perf_counter()
        parallel_results = parallel.run(specs)
        parallel_wall = time.perf_counter() - started
        if summaries_json(serial_results) != summaries_json(parallel_results):
            raise AssertionError("parallel summaries diverged from serial")

        warm = ExperimentRunner(workers=workers, cache_dir=cache_dir)
        started = time.perf_counter()
        warm_results = warm.run(specs)
        warm_wall = time.perf_counter() - started
        if summaries_json(warm_results) != summaries_json(serial_results):
            raise AssertionError("cache replay diverged from cold run")
        hits, misses = warm.cache_hits, warm.cache_misses

    out = {
        "trials": repeats,
        "workers": workers,
        "serial_wall_s": round(serial_wall, 3),
        "parallel_wall_s": round(parallel_wall, 3),
        "parallel_speedup": round(serial_wall / parallel_wall, 3),
        "warm_cache_wall_s": round(warm_wall, 3),
        "warm_cache_hits": hits,
        "warm_cache_misses": misses,
        "determinism": "serial == parallel == cache replay",
    }
    cpus = os.cpu_count() or 1
    if cpus < workers:
        out["note"] = (
            f"measured on a {cpus}-CPU machine: {workers} workers cannot "
            f"run concurrently, so parallel_speedup reflects pool "
            f"overhead, not the scaling achievable on multi-core hosts"
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short runs for CI smoke (seconds, not minutes)")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker processes for the runner comparison")
    parser.add_argument("--min-eps", type=float, default=0.0,
                        help="fail if fast-path events/sec drops below this")
    parser.add_argument("--min-vector-eps", type=float, default=0.0,
                        help="fail if vector-engine events/sec drops below "
                             "this")
    parser.add_argument("--min-parallel-speedup", type=float, default=0.0,
                        help="fail if the runner's parallel speedup drops "
                             "below this (only enforced when the machine "
                             "has at least 2 CPUs; a 1-core box cannot "
                             "demonstrate parallelism)")
    parser.add_argument("--min-shard-admission", type=float, default=0.0,
                        help="fail if the sharded plane's partitioned "
                             "admission path drops below this many "
                             "aggregate requests/sec")
    parser.add_argument("--min-shard-speedup", type=float, default=0.0,
                        help="fail if the 2-shard end-to-end run is not "
                             "at least this much faster than 1 shard "
                             "(auto-skipped below 2 CPUs)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_sim.json"),
                        help="where to write the JSON report")
    args = parser.parse_args(argv)

    if args.quick:
        rate, duration, queue_n, repeats = 40.0, 60.0, 50_000, 3
        runner_rate, runner_duration = 30.0, 45.0
    else:
        rate, duration, queue_n, repeats = 80.0, 120.0, 200_000, 6
        runner_rate, runner_duration = 50.0, 120.0

    report = {
        "bench": "simulator performance harness",
        "mode": "quick" if args.quick else "full",
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }

    print("engine throughput (vector vs fast)...")
    report["engine"] = _with_baseline(bench_engine(rate, duration), args.quick)
    eng = report["engine"]
    print(f"  vector: {eng['vector']['events_per_sec']:>10,.0f} events/s "
          f"({eng['vector']['events']} events in {eng['vector']['wall_s']}s)"
          f"  -> {eng['vector_vs_fast_speedup']}x fast, parity ok")
    print(f"  fast:   {eng['fast']['events_per_sec']:>10,.0f} events/s "
          f"({eng['fast']['events']} events in {eng['fast']['wall_s']}s)")

    print("event-queue micro-bench...")
    report["event_queue"] = bench_event_queue(queue_n)
    eq = report["event_queue"]
    print(f"  push/pop:     {eq['push_pop']['ops_per_sec']:>12,.0f} ops/s")
    print(f"  cancel churn: {eq['cancel_churn']['ops_per_sec']:>12,.0f} ops/s "
          f"({eq['cancel_churn']['compactions']} compactions, final heap "
          f"{eq['cancel_churn']['final_heap_size']})")

    print(f"experiment runner ({repeats} trials, "
          f"serial vs {args.workers} workers vs warm cache)...")
    report["runner"] = bench_runner(args.workers, runner_rate,
                                    runner_duration, repeats)
    rn = report["runner"]
    print(f"  serial {rn['serial_wall_s']}s | parallel "
          f"{rn['parallel_wall_s']}s ({rn['parallel_speedup']}x) | warm "
          f"cache {rn['warm_cache_wall_s']}s "
          f"({rn['warm_cache_hits']}/{rn['trials']} hits)")

    print("sharded plane (partitioned admission + 1/2/4-shard scaling)...")
    report["shard"] = bench_shard(args.quick, runner_rate, runner_duration)
    sh = report["shard"]
    print(f"  admission:  {sh['admission']['requests_per_sec']:>12,.0f} "
          f"req/s aggregate over {sh['admission']['shards']} shards")
    for n, row in sh["shard_scaling"].items():
        print(f"  {n} shard(s): {row['wall_s']}s "
              f"({row['jobs_per_sec']:,.0f} jobs/s, "
              f"{row['speedup_vs_1']}x vs 1 shard)")

    # Floors that this machine cannot meaningfully enforce are recorded
    # in the artifact itself, so a BENCH_sim.json with no failure is
    # distinguishable from one where the check never ran.
    cpus = report["cpu_count"] or 1
    skipped_floors = []
    if args.min_parallel_speedup and cpus < 2:
        skipped_floors.append({
            "floor": "min_parallel_speedup",
            "value": args.min_parallel_speedup,
            "reason": f"{cpus}-CPU machine cannot demonstrate parallelism",
        })
    if args.min_shard_speedup and cpus < 2:
        skipped_floors.append({
            "floor": "min_shard_speedup",
            "value": args.min_shard_speedup,
            "reason": f"{cpus}-CPU machine cannot run shards concurrently",
        })
    report["skipped_floors"] = skipped_floors

    out_path = atomic_write_json(args.out, report)
    print(f"wrote {out_path}")

    failed = False
    if args.min_eps and eng["fast"]["events_per_sec"] < args.min_eps:
        print(f"FAIL: fast-path {eng['fast']['events_per_sec']:,.0f} "
              f"events/s below floor {args.min_eps:,.0f}", file=sys.stderr)
        failed = True
    if (args.min_vector_eps
            and eng["vector"]["events_per_sec"] < args.min_vector_eps):
        print(f"FAIL: vector engine {eng['vector']['events_per_sec']:,.0f} "
              f"events/s below floor {args.min_vector_eps:,.0f}",
              file=sys.stderr)
        failed = True
    if args.min_parallel_speedup:
        if cpus < 2:
            print(f"note: --min-parallel-speedup skipped on a "
                  f"{cpus}-CPU machine (no parallelism to measure)")
        elif rn["parallel_speedup"] < args.min_parallel_speedup:
            print(f"FAIL: parallel speedup {rn['parallel_speedup']}x "
                  f"below floor {args.min_parallel_speedup}x",
                  file=sys.stderr)
            failed = True
    if (args.min_shard_admission
            and sh["admission"]["requests_per_sec"]
            < args.min_shard_admission):
        print(f"FAIL: sharded admission "
              f"{sh['admission']['requests_per_sec']:,.0f} req/s below "
              f"floor {args.min_shard_admission:,.0f}", file=sys.stderr)
        failed = True
    if args.min_shard_speedup:
        if cpus < 2:
            print(f"note: --min-shard-speedup skipped on a "
                  f"{cpus}-CPU machine (shards cannot run concurrently)")
        elif (sh["shard_scaling"]["2"]["speedup_vs_1"]
                < args.min_shard_speedup):
            print(f"FAIL: 2-shard speedup "
                  f"{sh['shard_scaling']['2']['speedup_vs_1']}x below "
                  f"floor {args.min_shard_speedup}x", file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
