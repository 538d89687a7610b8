"""cProfile attribution of a workload's requests to ``src/repro`` packages.

cProfile taxes every Python call but not the work inside native code, so
the proportions it reports are skewed towards call-heavy layers; the
numbers are for finding where a layer's time went, never for claiming a
gain (that is what ``req_ms_floor`` is for).  Time spent in functions
outside the program (numpy, the standard library, builtins) is charged
to the package that called them, through as many foreign frames as it
takes; time spent blocked on a lock or in ``sleep`` is dropped.
"""

from __future__ import annotations

import cProfile
import pstats
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from .worker import run_request
from .workloads import Call, Workload

_MARK = "/src/repro/"


def layer_of(filename: str) -> str:
    """The ``src/repro`` package a source file belongs to, or ''."""
    at = filename.rfind(_MARK)
    if at < 0:
        return ""
    head = filename[at + len(_MARK):].split("/", 1)
    return head[0] if len(head) == 2 else ""


def _blocked(func: Tuple[str, int, str]) -> bool:
    return func[0] == "~" and ("acquire" in func[2] or "sleep" in func[2])


def attribute(stats: dict) -> Dict[str, Tuple[float, int]]:
    """``{package: (self seconds, calls)}`` from a ``pstats`` table."""
    mixes: Dict[tuple, Dict[str, float]] = {}

    def mix(func: tuple) -> Dict[str, float]:
        """Which packages a function's time is charged to, as shares:
        itself if it is the program's, else its callers' mixes weighted
        by the cumulative time each spent in it."""
        own = layer_of(func[0])
        if own:
            return {own: 1.0}
        if func in mixes:
            return mixes[func]
        mixes[func] = {}        # cuts recursion among foreign functions
        callers = stats[func][4] if func in stats else {}
        total = sum(c[3] for c in callers.values())
        out: Dict[str, float] = {}
        if total > 0:
            for caller, c in callers.items():
                for layer, share in mix(caller).items():
                    out[layer] = out.get(layer, 0.0) + share * c[3] / total
        mixes[func] = out
        return out

    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        own = layer_of(func[0])
        if own:
            seconds[own] = seconds.get(own, 0.0) + tt
            calls[own] = calls.get(own, 0) + nc
        elif not _blocked(func):
            for caller, c in callers.items():
                for layer, share in mix(caller).items():
                    seconds[layer] = seconds.get(layer, 0.0) + share * c[2]
    return {layer: (seconds[layer], calls.get(layer, 0))
            for layer in seconds}


def profile_requests(w: Workload, budget_s: float
                     ) -> Dict[str, Tuple[float, float]]:
    """Profile requests (at least 3, then until the budget or 512
    requests); return per-request ``{package: (self ms, calls)}``.
    Threads the program starts are profiled too."""
    profiles: List[cProfile.Profile] = []
    main = cProfile.Profile()

    armed = False

    def on_thread_event(frame, event, arg) -> None:
        # Runs in a thread the program started.  Once the first profiled
        # call has begun, swap this hook for a profiler of that thread.
        if armed:
            prof = cProfile.Profile()
            try:
                prof.enable()
            except ValueError:
                # Python >= 3.12: one profiler at a time, and the main
                # one already sees every thread.
                threading.setprofile(None)
                return
            profiles.append(prof)

    @contextmanager
    def around(call: Call) -> Iterator[None]:
        nonlocal armed
        armed = True
        main.enable()
        try:
            yield
        finally:
            main.disable()

    done = 0
    threading.setprofile(on_thread_event)
    try:
        w.restart()             # program threads must be born profiled
        with w.block_scope():
            run_request(w.script)
            t_end = time.perf_counter() + budget_s
            while done < 3 or (done < 512
                               and time.perf_counter() < t_end):
                run_request(w.script, around)
                done += 1
    finally:
        threading.setprofile(None)
        w.restart()             # joins the profiled threads
    stats = pstats.Stats(main)
    for prof in profiles:
        prof.disable()
        stats.add(prof)
    per = done * w.jobs
    return {layer: (s * 1e3 / per, n / per)
            for layer, (s, n) in attribute(stats.stats).items()}
