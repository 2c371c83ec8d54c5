"""Span ledger for the benchmark's traced runs.

The ledger measures the ``repro`` package from outside: it patches a
fixed list of public calls (class methods and module functions) with
timing wrappers for the length of a traced phase and restores the
originals afterwards.  Nothing under ``src/`` knows it exists.

Each wrapped call is a span with a name (its layer), start and end
(``perf_counter_ns``, one monotonic clock for every process), the span
that was open when it started, its process and the run (measured
unit) it belongs to.  A span's self time is its duration minus
the time covered by the spans nested directly inside it, accumulated
on a per-thread stack while the spans close.

Calls on the hot path of a run (container dispatch, placement, gateway
admission, journal appends) happen hundreds of thousands of times per
run, so for those layers the ledger keeps one aggregate row per
(layer, parent span, run) with the call count, total and self time
instead of one record per call.

Worker processes forked by the experiment runner and by the sharded
plane inherit the patched calls.  A worker drops the parent's buffers
when it forks, and the worker entry points write the worker's spans
to ``<out_dir>/w-<pid>-<n>.json`` when they return; the parent merges
those files with :meth:`Ledger.merge_worker_files`.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

#: A record per call.
SPAN = "span"
#: One aggregate row per (layer, parent, run).
AGG = "agg"
#: Add the call's integer return value to a counter; no timing.
COUNT = "count"


class Ledger:
    """In-memory spans, aggregates, counters and samples of one process."""

    #: Span ids are unique per process across every ledger in it (and
    #: across processes, since the pid is part of the id).
    _ids = itertools.count(1)

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.parent_pid = os.getpid()
        self.run_id = 0
        self._local = threading.local()
        self._flushes = itertools.count()
        self._patches: List[tuple] = []
        self.reset()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- buffers -------------------------------------------------------------

    def reset(self) -> None:
        #: (span_id, parent_id, layer, start_ns, end_ns, self_ns, pid, run)
        self.spans: List[tuple] = []
        #: (layer, parent_id, run) -> [calls, total_ns, self_ns]
        self.agg: Dict[tuple, List[int]] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def _after_fork(self) -> None:
        # A forked worker starts with an empty ledger; the parent keeps
        # (and reports) everything recorded before the fork.
        self._flushes = itertools.count()
        self.reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_id(self) -> int:
        return os.getpid() * 1_000_000_000 + next(self._ids)

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        mode: str = SPAN,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Return *fn* wrapped to record *layer*.

        ``after(args, kwargs, result, duration_ns)`` runs once the span
        closed.
        """
        ledger = self
        if mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                ledger.counters[layer] += result
                return result
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = ledger._stack()
            span_id = ledger._span_id()
            parent_id = stack[-1][1] if stack else 0
            frame = [0, span_id]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_ns = duration - frame[0]
                if mode == AGG:
                    key = (layer, parent_id, ledger.run_id)
                    row = ledger.agg.get(key)
                    if row is None:
                        ledger.agg[key] = [1, duration, self_ns]
                    else:
                        row[0] += 1
                        row[1] += duration
                        row[2] += self_ns
            if mode == SPAN:
                ledger.spans.append((
                    span_id, parent_id, layer, start, end, self_ns,
                    os.getpid(), ledger.run_id,
                ))
            if after is not None:
                after(args, kwargs, result, duration)
            return result
        return timed

    def patch(self, owner, attr: str, layer: str, mode: str = SPAN,
              after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with its wrapped version."""
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(layer, original, mode, after))

    def patch_worker_entry(self, module, attr: str, layer: str,
                           after: Optional[Callable] = None) -> None:
        """Wrap a worker-process entry point so a worker writes its
        spans out when the call returns.

        The wrapper keeps the original's module and qualified name, so
        the executor pickles it by reference and a forked worker
        resolves that reference to the (inherited) wrapper.
        """
        ledger = self

        def flushed(args, kwargs, result, duration):
            if after is not None:
                after(args, kwargs, result, duration)
            if os.getpid() != ledger.parent_pid:
                ledger.flush_worker()

        self.patch(module, attr, layer, SPAN, after=flushed)

    def patch_executor(self, module) -> None:
        """Replace ``module.ThreadPoolExecutor`` with one that samples
        the wait from hand-off (``submit``) to the start of the work."""
        ledger = self

        class HandOffTimedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                handed = time.perf_counter_ns()

                def started(*a, **k):
                    ledger.samples["serve.executor_wait_ms"].append(
                        (time.perf_counter_ns() - handed) / 1e6)
                    return fn(*a, **k)

                return super().submit(started, *args, **kwargs)

        self._patches.append((module, "ThreadPoolExecutor",
                              module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = HandOffTimedExecutor

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- worker hand-back ----------------------------------------------------

    def flush_worker(self) -> None:
        """Write this worker's buffers to a file and clear them."""
        path = os.path.join(
            self.out_dir, f"w-{os.getpid()}-{next(self._flushes)}.json")
        payload = {
            "spans": self.spans,
            "agg": [list(key) + row for key, row in self.agg.items()],
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
        self.reset()

    def merge_worker_files(self) -> int:
        """Fold every worker file into this ledger; returns how many."""
        names = sorted(n for n in os.listdir(self.out_dir)
                       if n.startswith("w-") and n.endswith(".json"))
        for name in names:
            path = os.path.join(self.out_dir, name)
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            os.remove(path)
            self.spans.extend(tuple(s) for s in payload["spans"])
            for layer, parent, run, calls, total, self_ns in payload["agg"]:
                row = self.agg.setdefault((layer, parent, run), [0, 0, 0])
                row[0] += calls
                row[1] += total
                row[2] += self_ns
            for key, value in payload["counters"].items():
                self.counters[key] += value
            for key, values in payload["samples"].items():
                self.samples[key].extend(values)
        return len(names)

    # -- read side -----------------------------------------------------------

    def layer_totals(self) -> Dict[str, List[float]]:
        """layer -> [calls, total_s, self_s] over spans and aggregates."""
        totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for _sid, _parent, layer, start, end, self_ns, *_ in self.spans:
            row = totals[layer]
            row[0] += 1
            row[1] += (end - start) / 1e9
            row[2] += self_ns / 1e9
        for (layer, _parent, _run), (calls, total, self_ns) in self.agg.items():
            row = totals[layer]
            row[0] += calls
            row[1] += total / 1e9
            row[2] += self_ns / 1e9
        return totals

    def write_jsonl(self, path: str, phase: str) -> None:
        """Append this ledger's spans and aggregate rows to *path*."""
        with open(path, "a", encoding="utf-8") as fh:
            for sid, parent, layer, start, end, self_ns, pid, run in self.spans:
                fh.write(json.dumps({
                    "phase": phase, "kind": "span", "name": layer,
                    "span": sid, "parent": parent, "start_ns": start,
                    "end_ns": end, "self_ns": self_ns, "pid": pid,
                    "run": run,
                }) + "\n")
            for (layer, parent, run), (calls, total, self_ns) in self.agg.items():
                fh.write(json.dumps({
                    "phase": phase, "kind": "aggregate", "name": layer,
                    "parent": parent, "run": run, "calls": calls,
                    "total_ns": total, "self_ns": self_ns,
                }) + "\n")


def pickled_size(obj) -> int:
    """Bytes *obj* takes on the wire to or from a worker process."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
