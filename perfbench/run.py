"""The repository benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-wiki-fifer --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), then repeats units of work for ``--seconds`` and prints every
end-to-end metric; host times are scaled to the reference host's speed
(see hostspeed.py).  ``--trace 1`` runs half the time untraced and half
with the span ledger installed, checks that both halves produced the
same modelled output, and prints the per-layer ledger.  Both end with
one JSON line; a failed correctness check prints ``"correct": false``
without numbers and exits 1.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import numpy as np

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up repeats at least this often and for at least this long
#: (host-speed kernels included); ``setup_s`` is the median.  Cheap
#: set-ups repeat more, so a few milliseconds of host noise cannot move
#: their median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0

#: Printed beside the end-to-end metrics but kept out of the JSON
#: line: they read 0 on fault-free workloads, where their complements
#: ``slo_met_pct`` and ``completed_pct`` do not.
COMPLEMENTS = {"slo_violation_pct": "%", "failed_pct": "%"}


def metric_units(section: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json lists in *section*."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


def cpu_seconds() -> float:
    """User+system time of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Unit:
    """One measured unit: host cost, host slowdown while it ran (mean
    of the kernel right before and right after) and what it produced."""

    def __init__(self, wall_s, cpu_s, slowdown, tally, fingerprint):
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.slowdown = slowdown
        self.tally = tally
        self.fingerprint = fingerprint


def run_units(workload, seconds, min_cycles, ledger=None, install=None):
    """Cycle through the workload's inputs, one unit each, until
    *seconds* passed, ending on a whole cycle (at least *min_cycles*).

    With a *ledger*, ``install(ledger)`` wraps the layers around each
    unit's timed call only; tallies are read with the originals back.
    Returns the units and every correctness error found.
    """
    k = workload.inputs
    units = []
    deadline = time.perf_counter() + seconds
    while (len(units) < min_cycles * k or len(units) % k
           or time.perf_counter() < deadline):
        i = len(units) % k
        workload.prepare(i)
        gc.collect()
        if ledger is not None:
            ledger.run_id = len(units) + 1
            install(ledger)
        before = hostspeed.slowdown()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            outcome = workload.execute(i)
        finally:
            wall = time.perf_counter() - t0
            cpu = cpu_seconds() - cpu0
            if ledger is not None:
                ledger.unpatch()
        slowdown = (before + hostspeed.slowdown()) / 2.0
        units.append(Unit(wall, cpu, slowdown, workload.tally(i, outcome),
                          workload.fingerprint(outcome)))
        if len(units) == 1:
            first = outcome
    errors = [e for u in units for e in u.tally.errors]
    if any(units[j].fingerprint != units[j - k].fingerprint
           for j in range(k, len(units))):
        errors.append("modelled output differs between repeated units "
                      "of one input")
    if not errors:
        errors.extend(workload.reference_errors(first))
    return units, errors


def provenance(workload, units) -> dict:
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "engine": workload.engine,
        "workers": workload.workers,
        "units": len(units),
        "jobs_per_unit": units[0].tally.admitted,
        **workload.provenance(),
    }


def end_to_end(workload, setup_times, units, rss_mb):
    from workloads import modelled_metrics

    tallies = [u.tally for u in units]
    cycles = len(units) // workload.inputs
    if all(u.fingerprint is not None for u in units):
        # Repeated cycles are bit-identical: count each number once.
        tallies, cycles = tallies[:workload.inputs], 1
    metrics = modelled_metrics(tallies, cycles)
    metrics["setup_s"] = statistics.median(
        t / slowdown for t, slowdown in setup_times)
    # A paced run's wall time is the trace's, whatever the host speed.
    wall_scale = [1.0 if workload.paced else u.slowdown for u in units]
    metrics["jobs_per_s"] = statistics.median(
        u.tally.terminal / u.wall_s * s for u, s in zip(units, wall_scale))
    metrics["cpu_ms_per_job"] = statistics.median(
        1000.0 * u.cpu_s / u.slowdown / u.tally.terminal for u in units)
    # The same figures as measured, before scaling to the reference.
    metrics["unscaled"] = {
        "setup_s": statistics.median(t for t, _ in setup_times),
        "jobs_per_s": statistics.median(
            u.tally.terminal / u.wall_s for u in units),
        "cpu_ms_per_job": statistics.median(
            1000.0 * u.cpu_s / u.tally.terminal for u in units),
        "host_slowdown": statistics.median(u.slowdown for u in units),
    }
    metrics["peak_rss_mb"] = rss_mb
    return metrics


def time_setups(workload, ledger=None):
    """(seconds, host slowdown) of each set-up repetition."""
    from layers import install_setup_layers

    times = []
    gc.collect()
    start = time.perf_counter()
    while (len(times) < SETUP_REPS
           or time.perf_counter() - start < SETUP_MIN_S):
        if ledger is not None:
            install_setup_layers(ledger)
        before = hostspeed.slowdown()
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            wall = time.perf_counter() - t0
            if ledger is not None:
                ledger.unpatch()
        times.append((wall, (before + hostspeed.slowdown()) / 2.0))
    return times


def fail(errors, units) -> int:
    for error in errors:
        print(f"correctness check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": max(1, len(units)),
                      "failed": max(1, len(errors)), "metrics": {}}))
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from ledger import Ledger
    from layers import install_run_layers, ledger_rows, per_layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    work_dir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, work_dir)
    try:
        if not args.trace:
            setup_times = time_setups(workload)
            units, errors = run_units(workload, args.seconds,
                                      workload.min_cycles)
            if errors:
                return fail(errors, units)
            metrics = end_to_end(workload, setup_times, units, peak_rss_mb())
            print(json.dumps(provenance(workload, units), sort_keys=True))
            reported = metric_units("end_to_end")
            for name, unit in {**reported, **COMPLEMENTS}.items():
                print(f"  {name:20s} {metrics[name]:>16.6f} {unit}")
            print(f"  tail = p{metrics['tail_percentile']:g} "
                  f"({metrics['tail_samples_beyond']} samples beyond, "
                  f"{metrics['latency_samples']} latency samples)")
            print("  as measured, before scaling to the reference host: "
                  + ", ".join(f"{name} {value:.6g}" for name, value
                              in metrics["unscaled"].items()))
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in reported.items()}
            attempted = len(units)
        else:
            setup_ledger = Ledger(work_dir)
            setup_times = time_setups(workload, setup_ledger)
            plain, errors = run_units(workload, args.seconds / 2, 1)
            run_ledger = Ledger(work_dir)
            traced, traced_errors = run_units(
                workload, args.seconds / 2, 1, run_ledger, install_run_layers)
            errors += traced_errors
            merged = run_ledger.merge_worker_files()
            if workload.workers > 1 and merged == 0:
                errors.append("no spans came back from worker processes")
            if any(p.fingerprint != t.fingerprint
                   for p, t in zip(plain, traced)):
                errors.append("traced units differ from untraced units")
            if errors:
                return fail(errors, plain + traced)
            overhead = 100.0 * (
                statistics.median(u.wall_s for u in traced)
                / statistics.median(u.wall_s for u in plain) - 1.0)
            lateness = [u.tally.lateness for u in traced
                        if u.tally.lateness is not None]
            values = per_layer_metrics(
                setup_ledger, len(setup_times), run_ledger, len(traced),
                np.concatenate(lateness) if lateness else None, overhead)
            spans_path = os.path.join(
                out_dir, f"{workload.name}-seed{args.seed}-spans.jsonl")
            if os.path.exists(spans_path):
                os.remove(spans_path)
            setup_ledger.write_jsonl(spans_path, "setup")
            run_ledger.write_jsonl(spans_path, "traced")
            print(json.dumps(provenance(workload, traced), sort_keys=True))
            print(f"per-layer ledger (per traced unit; spans in "
                  f"{os.path.relpath(spans_path, ROOT)}):")
            print("\n".join(ledger_rows(values)))
            # Idle layers (n/a above) count as 0 in the JSON line.
            result = {name: {"value": values[name] or 0.0, "unit": unit}
                      for name, unit in metric_units("per_layer").items()}
            attempted = len(plain) + len(traced)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
