"""Tests for the named counting caches (`repro.core.cache`)."""

from __future__ import annotations

import threading

import pytest

from repro.core.cache import (
    CountingCache,
    cache_stats,
    cached,
    clear_all_caches,
    get_cache,
)


class TestCountingCache:
    def test_hit_miss_counters(self):
        c = CountingCache("t.counters")
        calls = []
        assert c.get_or_build("k", lambda: calls.append(1) or "v") == "v"
        assert c.get_or_build("k", lambda: calls.append(1) or "v") == "v"
        assert len(calls) == 1
        info = c.info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        assert info.hit_rate == 0.5

    def test_lru_eviction(self):
        c = CountingCache("t.evict", maxsize=2)
        c.get_or_build("a", lambda: 1)
        c.get_or_build("b", lambda: 2)
        c.get_or_build("a", lambda: 1)  # refresh a: b is now LRU
        c.get_or_build("c", lambda: 3)
        assert "b" not in c
        assert "a" in c and "c" in c
        assert c.info().evictions == 1

    def test_clear_keeps_counters(self):
        c = CountingCache("t.clear")
        c.get_or_build("a", lambda: 1)
        c.get_or_build("a", lambda: 1)
        c.clear()
        info = c.info()
        assert info.currsize == 0
        assert (info.hits, info.misses) == (1, 1)

    def test_hit_rate_empty(self):
        assert CountingCache("t.empty").info().hit_rate == 0.0

    def test_builder_runs_once_under_contention(self):
        c = CountingCache("t.thread")
        built = []

        def build():
            built.append(1)
            return 42

        threads = [
            threading.Thread(target=lambda: c.get_or_build("k", build))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert c.info().hits == 7


class TestRegistry:
    def test_get_cache_returns_same_instance(self):
        a = get_cache("t.registry.same", maxsize=3)
        b = get_cache("t.registry.same", maxsize=99)
        assert a is b
        assert a.maxsize == 3  # first registration wins

    def test_cache_stats_lists_registered(self):
        get_cache("t.registry.listed").get_or_build("x", lambda: 1)
        stats = cache_stats()
        assert "t.registry.listed" in stats
        assert stats["t.registry.listed"].misses >= 1

    def test_clear_all(self):
        c = get_cache("t.registry.clearall")
        c.get_or_build("x", lambda: 1)
        clear_all_caches()
        assert len(c) == 0


class TestCachedDecorator:
    def test_memoizes_and_exposes_lru_api(self):
        calls = []

        @cached("t.deco.basic")
        def f(x, y=0):
            calls.append((x, y))
            return x + y

        assert f(1) == 1
        assert f(1) == 1
        assert f(1, y=2) == 3
        assert f(1, y=2) == 3
        assert calls == [(1, 0), (1, 2)]
        info = f.cache_info()
        assert info.hits == 2 and info.misses == 2
        f.cache_clear()
        assert f(1) == 1
        assert calls == [(1, 0), (1, 2), (1, 0)]

    def test_wrapped_is_original(self):
        @cached("t.deco.wrapped")
        def g(x):
            """doc"""
            return x

        assert g.__wrapped__(5) == 5
        assert g.__doc__ == "doc"
        assert g.cache is get_cache("t.deco.wrapped")


class TestFsbmCachesRegistered:
    """The hot-path precomputes live in named, inspectable caches."""

    def test_kernel_tables_cache_visible(self):
        from repro.fsbm.collision_kernels import get_tables

        get_tables()
        get_tables()
        stats = cache_stats()
        assert "fsbm.kernel_tables" in stats
        assert stats["fsbm.kernel_tables"].hits >= 1

    def test_pair_split_cache_counts_and_invalidates_by_nkr(self):
        from repro.fsbm.coal_bott import _pair_split

        _pair_split.cache_clear()
        before = _pair_split.cache_info()
        s33 = _pair_split(33)
        s33_again = _pair_split(33)
        s17 = _pair_split(17)
        after = _pair_split.cache_info()
        assert s33 is s33_again
        assert s33.k_lo.shape == (33, 33)
        assert s17.k_lo.shape == (17, 17)
        assert after.misses - before.misses == 2  # one per nkr
        assert after.hits - before.hits == 1
        assert set(_pair_split.cache.keys()) >= {(33,), (17,)}

    def test_coal_operator_cache_keys_on_rectangle(self):
        import numpy as np

        from repro.fsbm.coal_bott import _coal_operators
        from repro.fsbm.collision_kernels import get_tables

        tables = get_tables()
        cache = get_cache("fsbm.coal_operators")
        cache.clear()
        base = cache.info()
        _coal_operators(tables, "cwll", 33, 20, 20, np.dtype(np.float64))
        _coal_operators(tables, "cwll", 33, 20, 20, np.dtype(np.float64))
        _coal_operators(tables, "cwll", 33, 21, 20, np.dtype(np.float64))
        info = cache.info()
        assert info.misses - base.misses == 2
        assert info.hits - base.hits == 1


@pytest.fixture(autouse=True)
def _isolate_test_caches():
    yield
    # Drop only the throwaway caches this module registered; the fsbm
    # caches keep their (expensive) contents for other tests.
    for name, c in list(cache_stats().items()):
        if name.startswith("t."):
            get_cache(name).clear()
