"""One workload in one long-lived child process.

The parent (:mod:`bench.cli`) starts this module with ``-m``, reads one
JSON line per event from its stdout and writes one command per line to
its stdin: ``block`` runs one fixed-count block of requests, ``finish``
computes the metrics and ends the process.  Between commands the child
sleeps on the pipe, so only one process is ever active.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
import threading
import time
import traceback
import tracemalloc
from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator, List, Optional

import numpy as np

from .workloads import WORKLOADS, Call, Workload, flatten

Around = Callable[[Call], ContextManager]

#: ``peak_rss_mb`` is read after this many blocks, so that it measures a
#: fixed amount of work however many blocks the machine fits in the run.
RSS_BLOCKS = 8


def run_request(script: List[Call], around: Optional[Around] = None):
    """Run one request; return per-call seconds and per-call results.

    ``around(call)`` wraps each timed call (never its ``prepare`` step):
    the counted and traced passes use it to switch their hooks on for
    exactly the span the timing covers.
    """
    times, outs = [], []
    clock = time.perf_counter
    for call in script:
        if call.prepare is not None:
            call.prepare()
        if around is None:
            t0 = clock()
            out = call.run()
            t1 = clock()
        else:
            with around(call):
                t0 = clock()
                out = call.run()
                t1 = clock()
        times.append(t1 - t0)
        outs.append(out)
    return times, outs


def digest(outs: list) -> bytes:
    return b"".join(a.tobytes() for a in flatten(outs))


def matches_reference(outs: list, expected: list) -> bool:
    got, want = flatten(outs), flatten(expected)
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        w = np.asarray(w, dtype=np.float64)
        scale = float(np.max(np.abs(w))) if w.size else 0.0
        if g.shape != w.shape or not np.allclose(
                g, w, rtol=1e-4, atol=1e-4 * scale):
            return False
    return True


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def count_calls(w: Workload, requests: int = 3) -> float:
    """Python + C function calls per request, over ``requests`` requests."""
    counting = False
    calls = 0

    def hook(frame, event, arg) -> None:
        nonlocal calls
        if counting and event in ("call", "c_call"):
            calls += 1

    @contextmanager
    def around(call: Call) -> Iterator[None]:
        nonlocal counting
        counting = True
        try:
            yield
        finally:
            counting = False

    threading.setprofile(hook)
    try:
        w.restart()             # program threads must be born hooked
        with w.block_scope():
            run_request(w.script)
            sys.setprofile(hook)
            try:
                for _ in range(requests):
                    run_request(w.script, around)
            finally:
                sys.setprofile(None)
    finally:
        threading.setprofile(None)
        w.restart()
    return calls / requests / w.jobs


def alloc_peak_kb(w: Workload) -> float:
    """tracemalloc peak above the pre-call baseline, over one request."""
    peak = 0

    @contextmanager
    def around(call: Call) -> Iterator[None]:
        nonlocal peak
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        finally:
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)

    tracemalloc.start()
    try:
        with w.block_scope():
            run_request(w.script)       # tracemalloc's own first-use cost
            # Whether a collection happens to fall inside the request
            # decides how much cyclic garbage the peak includes.
            gc.collect()
            gc.disable()
            run_request(w.script, around)
    finally:
        gc.enable()
        tracemalloc.stop()
    return peak / 1024


class Session:
    """Runs a workload's requests, checks every result, keeps the samples."""

    def __init__(self, workload: Workload) -> None:
        self.w = workload
        self.samples: List[List[float]] = []    # per call, seconds
        self.attempted = 0
        self.failed = 0
        self.first = b""
        self.cycles: List = []
        self.blocks = 0
        self.rss_mb: Optional[float] = None

    def cold(self) -> None:
        """Set up and serve the first request; check it against the
        numpy reference.  Every later request must repeat its bytes."""
        w = self.w
        w.setup()
        self.samples = [[] for _ in w.script]
        with w.block_scope():
            _, outs = run_request(w.script)
            self.first = digest(outs)
            self.attempted += w.jobs
            if not matches_reference(outs, w.reference()):
                self.failed += w.jobs
            self.cycles = w.cycle_pairs(outs)

    def request(self, record: bool = True) -> Optional[list]:
        self.attempted += self.w.jobs
        try:
            times, outs = run_request(self.w.script)
        except Exception:
            # A request that raises is a failed request to report, not a
            # reason to lose the whole run.
            traceback.print_exc(file=sys.stderr)
            self.failed += self.w.jobs
            return None
        if digest(outs) != self.first:
            self.failed += self.w.jobs
        elif record:
            for column, t in zip(self.samples, times):
                column.append(t)
        return outs

    def warm(self, requests: int = 4) -> None:
        with self.w.block_scope():
            for _ in range(requests):
                self.request(record=False)
        # Move everything allocated so far out of the collector's reach:
        # later collections then cost the same in every block instead of
        # re-scanning the program's import-time garbage.
        gc.collect()
        gc.freeze()

    def block(self) -> None:
        with self.w.block_scope():
            for _ in range(self.w.block):
                self.request()
        self.blocks += 1
        if self.blocks == RSS_BLOCKS:
            self.rss_mb = peak_rss_mb()

    def floors_ms(self) -> List[float]:
        return [min(column) * 1e3 for column in self.samples]

    def end_to_end(self) -> Dict[str, float]:
        """The gated metrics.  Timings are sums of per-call floors; the
        rest are counts that do not depend on machine speed."""
        w = self.w
        # Before the counted passes inflate it; a run shorter than
        # RSS_BLOCKS (the tests) reports what it has.
        rss = self.rss_mb or peak_rss_mb()
        with w.block_scope():
            outs = self.request(record=False)
            if outs is None or w.cycle_pairs(outs) != self.cycles:
                self.failed += w.jobs   # simulated cycles must repeat exactly
        cycles = sum(sim for sim, _ in self.cycles) / w.jobs
        floor_ms = sum(self.floors_ms()) / w.jobs
        return {
            "req_ms_floor": floor_ms,
            "sim_cycles_per_s": cycles / (floor_ms / 1e3),
            "sim_cycles_per_req": cycles,
            "model_err_pct": 100 * max(abs(sim - model) / model
                                       for sim, model in self.cycles),
            "host_calls_per_req": count_calls(w),
            "host_alloc_peak_kb": alloc_peak_kb(w) / w.jobs,
            "peak_rss_mb": rss,
        }

    def spread(self) -> Dict[str, float]:
        """How noisy the machine was: never gated, always reported."""
        totals = sorted(sum(ts) * 1e3 / self.w.jobs
                        for ts in zip(*self.samples))
        floor = sum(self.floors_ms()) / self.w.jobs
        median = statistics.median(totals)
        return {
            "bench.req_ms_median": median,
            "bench.req_ms_p90": totals[min(len(totals) - 1,
                                           int(0.9 * len(totals)))],
            "bench.noise_ratio": median / floor,
            "bench.samples": len(totals),
        }


def main(argv: Optional[List[str]] = None, stdin=None, stdout=None) -> int:
    ap = argparse.ArgumentParser(prog="bench.worker")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--cold", action="store_true",
                    help="exit after the first request (a set-up sample)")
    ap.add_argument("--e2e", type=int, default=1)
    ap.add_argument("--layers", type=int, default=0)
    ap.add_argument("--out", default="bench/out")
    args = ap.parse_args(argv)
    stdin = stdin or sys.stdin
    stdout = stdout or sys.stdout

    def emit(event: str, **fields) -> None:
        stdout.write(json.dumps({"event": event, **fields}) + "\n")
        stdout.flush()

    w = WORKLOADS[args.workload](args.seed, quick=args.quick)
    session = Session(w)
    try:
        session.cold()
        emit("cold")
        if args.cold:
            return 1 if session.failed else 0
        session.warm()
        emit("ready")
        for line in stdin:
            command = line.strip()
            if command == "block":
                session.block()
                emit("block", failed=session.failed)
            elif command == "finish":
                result: Dict[str, object] = {}
                if args.layers:
                    # Before the counted passes below restart the
                    # program's threads and with them its counters.
                    from .layers import per_layer
                    result["per_layer"] = {
                        **per_layer(session, args.seed, args.quick, args.out),
                        **session.spread()}
                if args.e2e:
                    result["end_to_end"] = session.end_to_end()
                emit("finish", attempted=session.attempted,
                     failed=session.failed,
                     python=platform.python_version(),
                     numpy=np.__version__, **result)
                break
            else:
                raise ValueError(f"unknown command {command!r}")
    finally:
        w.close()
    return 1 if session.failed else 0


if __name__ == "__main__":
    sys.exit(main())
