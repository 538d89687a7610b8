"""``PlanCache``: it hits where it should, and it is bounded.

Three things are pinned here:

* the service's certificate cache hits on fused batches (``run_batch``
  binds fresh ``batch{uid}.*`` buffers every burst; the role-based
  ``plan_key`` makes them one plan);
* the cache never exceeds :attr:`PlanCache.MAX_ENTRIES`, evicts the
  least recently *used* entry, and keeps both properties under
  concurrent workers;
* the hit/miss counts the retired ``benchmarks/test_plan_cache.py``
  asserted: executor repeat requests, certified engines sharing one
  cache, and a repeated host call.
"""

import sys
import threading

import numpy as np

from repro.host import Fblas, FblasContext
from repro.plan import PlanCache
from repro.service import RoutineJob
from repro.service.batch import run_batch
from repro.streaming import build_engine, execute_plan

from helpers import bound_app

RNG = np.random.default_rng(18)
BOUND = PlanCache.MAX_ENTRIES


def f32(*shape):
    return RNG.standard_normal(shape).astype(np.float32)


# ---------------------------------------------------------------------------
# The service certificate cache
# ---------------------------------------------------------------------------

def test_fused_batches_share_one_certificate():
    """300 bursts of 16 x 256-element DOTs through one shared cache:
    the first certifies, the rest replay (0 hits / 300 entries before
    buffer names left the key)."""
    ctx = FblasContext()
    cache = PlanCache(name="service.schedule")
    jobs = [RoutineJob("dot", (f32(256), f32(256))) for _ in range(16)]
    want = run_batch(ctx, jobs, "event", width=8)
    for _ in range(300):
        got = run_batch(ctx, jobs, "certified", width=8,
                        schedule_cache=cache)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    stats = cache.stats()
    assert stats["entries"] <= 2, stats
    assert stats["hits"] >= 298, stats
    assert not ctx.mem.buffers          # every batch buffer was released


# ---------------------------------------------------------------------------
# Bound + LRU
# ---------------------------------------------------------------------------

def test_bound_and_least_recently_used_eviction():
    cache = PlanCache(name="t")
    for i in range(BOUND):
        cache[i] = f"v{i}"
    assert len(cache) == BOUND
    assert cache.get(0) == "v0"         # a hit refreshes key 0 ...
    for i in range(BOUND, BOUND + 50):
        cache[i] = f"v{i}"
    assert len(cache) == BOUND
    assert 0 in cache                   # ... so it outlives keys 1..50
    assert all(i not in cache for i in range(1, 51))
    assert all(i in cache for i in range(51, BOUND + 50))
    assert cache.get(1) is None
    cache[0] = "again"                  # overwriting neither grows nor evicts
    assert len(cache) == BOUND and cache[0] == "again"
    assert cache.stats() == {"entries": BOUND, "hits": 1, "misses": 1}
    cache.clear()
    assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


def test_locked_cache_stays_bounded_under_threads():
    """Four workers, each hitting one hot key between bursts of distinct
    ones: no lost counts, never over the bound, the hot key survives."""
    cache = PlanCache(name="t")
    cache["hot"] = "hot"
    per_thread, threads = BOUND, 4
    errors = []

    def worker(tid):
        try:
            for i in range(per_thread):
                cache[(tid, i)] = i
                if cache.get("hot") != "hot":
                    errors.append(("hot evicted", tid, i))
                if len(cache) > BOUND:
                    errors.append(("over bound", tid, i, len(cache)))
        except Exception as exc:                    # pragma: no cover
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(t,))
                for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert not errors, errors[:3]
    assert cache.stats() == {"entries": BOUND,
                             "hits": threads * per_thread, "misses": 0}


# ---------------------------------------------------------------------------
# Hit/miss counts on the three repeat paths
# ---------------------------------------------------------------------------

REPEATS = 8


def test_executor_repeat_requests_compile_once():
    """Fresh problem instances of one MDAG shape: one compilation, then
    every request hits the structural fingerprint."""
    cache = PlanCache()
    reports = []
    for _ in range(REPEATS):
        g, _, _, mem = bound_app("axpydot", [f32(512) for _ in range(3)],
                                 0.5, width=8)
        res = execute_plan(g, mem, plan_cache=cache)
        reports.append([r.to_dict() for r in res.reports])
    assert all(r == reports[0] for r in reports[1:])
    assert cache.stats() == {"entries": 1, "hits": REPEATS - 1, "misses": 1}


def test_certified_engines_share_one_certification():
    """Separately built engines on separate boards, one schedule cache:
    the first run pays the FB4xx passes, repeats replay the certificate."""
    cache = PlanCache()
    for _ in range(REPEATS):
        g, _, _, mem = bound_app("axpydot", [f32(1024) for _ in range(3)],
                                 np.float32(0.7), width=8)
        build_engine(g, mem, mode="certified", schedule_cache=cache).run()
    assert cache.stats() == {"entries": 1, "hits": REPEATS - 1, "misses": 1}


def test_host_repeat_calls_hit_the_schedule_cache():
    """A repeated host call of one shape certifies once — also when it
    moves to other buffers on the same banks — and a different length
    (or bank: the certificate budgets bandwidth per bank) does not hit."""
    fb = Fblas(engine_mode="certified", width=8)

    def pair(n, banks=(0, 1)):
        return [fb.copy_to_device(f32(n), bank=b) for b in banks]

    x, y = pair(2048)
    values = [fb.dot(x, y) for _ in range(REPEATS)]
    assert all(v == values[0] for v in values[1:])
    assert fb._schedule_cache.stats() == {
        "entries": 1, "hits": REPEATS - 1, "misses": 1}
    fb.dot(*pair(2048))
    assert fb._schedule_cache.stats()["hits"] == REPEATS
    fb.dot(*pair(1024))
    fb.dot(*pair(2048, banks=(2, 3)))
    assert fb._schedule_cache.stats() == {
        "entries": 3, "hits": REPEATS, "misses": 3}
