"""Keyed caches for compiled plans and certified schedules.

:class:`PlanCache` is a counting, bounded dict: it speaks the plain
mapping protocol the certifier's ``ensure_certified(cache=...)`` hook
and the executor's ``plan_cache=`` hook expect, keeps hit/miss counters
so callers can assert that repeat requests really skipped scheduling
and pattern derivation, and never holds more than
:attr:`PlanCache.MAX_ENTRIES` entries (least recently used goes first),
so a long-lived process cannot leak through it however many distinct
structures it sees.  Lookups, stores and counters take one lock, so a
cache is safe to share between threads (service workers, the
process-wide caches of :mod:`repro.apps.catalogue`).

When a telemetry session is active, every counted lookup also
increments the labelled ``plan_cache.requests`` counter in the
session's metrics registry (labels: ``cache`` — this cache's name —
and ``result`` — ``hit``/``miss``), so cache efficiency is visible to
metrics scrapes and the run ledger without polling each cache object.
The telemetry import is deferred into the lookup path to keep this
module import-light (and the check is the usual single ``active()``
read, so an un-instrumented lookup stays O(1) dict work).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Optional

__all__ = ["PlanCache"]


class PlanCache:
    """A dict-protocol LRU cache with hit/miss accounting.

    ``name`` labels this cache's series in the telemetry metrics
    registry (e.g. ``"host.plan"``, ``"host.schedule"``,
    ``"executor.schedule"``); anonymous caches report as ``"plan"``.
    """

    #: Entry bound.  A certificate or compiled plan is a few kB and is
    #: shared by every request of one structure, so a few hundred
    #: structures cover any real mix; an evicted one is re-derived.
    MAX_ENTRIES = 256

    def __init__(self, name: str = "plan") -> None:
        self.name = name
        self._store: Dict[Any, Any] = {}
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _observe(self, result: str) -> None:
        from ..telemetry.runtime import active
        tel = active()
        if tel is not None:
            tel.registry.counter(
                "plan_cache.requests",
                "compiled-plan / certificate cache lookups by outcome",
            ).add((("cache", self.name), ("result", result)), 1)

    def get(self, key: Any, default: Optional[Any] = None) -> Any:
        with self._lock:
            store = self._store
            if key in store:
                self.hits += 1
                self._observe("hit")
                # Re-insert: dict order is recency, oldest first.
                value = store[key] = store.pop(key)
                return value
            self.misses += 1
            self._observe("miss")
            return default

    def __getitem__(self, key: Any) -> Any:
        return self._store[key]

    def __setitem__(self, key: Any, value: Any) -> None:
        with self._lock:
            store = self._store
            store.pop(key, None)
            store[key] = value
            if len(store) > self.MAX_ENTRIES:
                del store[next(iter(store))]

    def __contains__(self, key: Any) -> bool:
        return key in self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._store)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._store), "hits": self.hits,
                    "misses": self.misses}

    def __repr__(self) -> str:   # pragma: no cover - debugging aid
        return (f"PlanCache(name={self.name!r}, entries={len(self._store)}, "
                f"hits={self.hits}, misses={self.misses})")
