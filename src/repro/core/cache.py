"""Explicit, inspectable caches for precomputed hot-path data.

The FSBM hot loops lean on precomputed lookup data — the collision
kernel tables, the Kovetz–Olund pair split, and the sparse collision
operators derived from both. These used to hide behind anonymous
``functools.lru_cache`` wrappers; this module replaces them with named
:class:`CountingCache` instances collected in a process-wide registry,
so tests and the benchmark harness can ask *which* caches exist, how
often they hit, and what they hold (the memoization analogue of the
paper's "know what the lookup actually touches" argument).

All caches are thread-safe: batched rank execution
(:mod:`repro.wrf.model`) runs per-rank physics on a thread pool, and
the first step of a run populates these caches from several threads at
once.

Usage::

    from repro.core.cache import cached, cache_stats

    @cached("fsbm.pair_split", maxsize=4)
    def _pair_split(nkr): ...

    cache_stats()["fsbm.pair_split"].hits
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of one cache's counters (hit/miss/eviction totals)."""

    name: str
    hits: int
    misses: int
    evictions: int
    currsize: int
    maxsize: int | None
    #: Bytes held by current entries (0 unless the cache has a sizer).
    nbytes: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache was never consulted)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counter_values(self) -> dict[str, int]:
        """The numeric series a trace counter track samples per cache.

        Consumed by :func:`repro.obs.metrics.emit_cache_counters`, which
        snapshots every registered cache onto the span timeline.
        """
        return {"hits": self.hits, "misses": self.misses, "nbytes": self.nbytes}


class CountingCache:
    """A named, bounded, thread-safe memo table with hit/miss counters.

    Keys must be hashable; eviction is least-recently-used when
    ``maxsize`` is set. Unlike ``lru_cache`` the builder runs under the
    cache lock, so concurrent first lookups of the same key build the
    value exactly once — important for the expensive kernel tables when
    ranks execute batched on threads.
    """

    def __init__(
        self,
        name: str,
        maxsize: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
    ):
        self.name = name
        self.maxsize = maxsize
        #: Optional value sizer; when set, :meth:`info` reports the
        #: total bytes of live entries (used by the transport-workspace
        #: registry to expose its pinned-buffer footprint).
        self.sizeof = sizeof
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get_or_build(self, key: Any, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss."""
        with self._lock:
            if key in self._data:
                self._hits += 1
                self._data.move_to_end(key)
                return self._data[key]
            self._misses += 1
            value = builder()
            self._data[key] = value
            if self.maxsize is not None:
                while len(self._data) > self.maxsize:
                    self._data.popitem(last=False)
                    self._evictions += 1
            return value

    def clear(self) -> None:
        """Drop all entries (counters keep their totals)."""
        with self._lock:
            self._data.clear()

    def discard(self, key: Any) -> bool:
        """Drop one entry if present; returns whether it existed.

        Used by registries whose values own external resources (e.g.
        the process-rank pool's shared superblocks) and must leave the
        cache when the resource is released, without clearing unrelated
        entries. Not counted as an eviction.
        """
        with self._lock:
            if key in self._data:
                del self._data[key]
                return True
            return False

    def info(self) -> CacheInfo:
        with self._lock:
            nbytes = 0
            if self.sizeof is not None:
                nbytes = sum(int(self.sizeof(v)) for v in self._data.values())
            return CacheInfo(
                name=self.name,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                currsize=len(self._data),
                maxsize=self.maxsize,
                nbytes=nbytes,
            )

    def keys(self) -> list:
        """Current keys, oldest first (inspection helper)."""
        with self._lock:
            return list(self._data.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._data


_registry: dict[str, CountingCache] = {}
_registry_lock = threading.Lock()


def get_cache(
    name: str,
    maxsize: int | None = None,
    sizeof: Callable[[Any], int] | None = None,
) -> CountingCache:
    """The registered cache called ``name``, created on first use.

    The ``maxsize`` and ``sizeof`` of the first registration win;
    later callers get the same instance regardless of what they pass.
    """
    with _registry_lock:
        cache = _registry.get(name)
        if cache is None:
            cache = CountingCache(name, maxsize=maxsize, sizeof=sizeof)
            _registry[name] = cache
        return cache


def cache_stats() -> dict[str, CacheInfo]:
    """Counters of every registered cache, keyed by cache name."""
    with _registry_lock:
        caches = list(_registry.values())
    return {c.name: c.info() for c in caches}


def clear_all_caches() -> None:
    """Empty every registered cache (test isolation helper)."""
    with _registry_lock:
        caches = list(_registry.values())
    for c in caches:
        c.clear()


def cached(name: str, maxsize: int | None = None) -> Callable:
    """Decorator memoizing a function through a registered cache.

    Drop-in for ``functools.lru_cache`` (``cache_clear``/``cache_info``
    are provided), but the cache is named, registered, thread-safe, and
    its counters are visible via :func:`cache_stats`. Arguments must be
    hashable; keyword arguments participate in the key.
    """

    def decorate(fn: Callable) -> Callable:
        cache = get_cache(name, maxsize=maxsize)

        def wrapper(*args, **kwargs):
            key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
            return cache.get_or_build(key, lambda: fn(*args, **kwargs))

        wrapper.__name__ = getattr(fn, "__name__", "cached")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        wrapper.cache = cache
        wrapper.cache_clear = cache.clear
        wrapper.cache_info = cache.info
        return wrapper

    return decorate
