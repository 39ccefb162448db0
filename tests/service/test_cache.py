"""Unit tests for the LRU result cache."""

import pytest

from repro.service.cache import ResultCache


class TestLookupSemantics:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get([1, 2], [3]) is None
        cache.put([1, 2], [3], {(1, 3)})
        assert cache.get([1, 2], [3]) == {(1, 3)}
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_key_is_order_insensitive(self):
        cache = ResultCache(capacity=4)
        cache.put([2, 1], [4, 3], {(1, 3)})
        assert cache.get([1, 2], [3, 4]) == {(1, 3)}

    def test_returned_set_is_a_copy(self):
        cache = ResultCache(capacity=4)
        cache.put([1], [2], {(1, 2)})
        result = cache.get([1], [2])
        result.add((9, 9))
        assert cache.get([1], [2]) == {(1, 2)}

    def test_sources_and_targets_are_not_interchangeable(self):
        cache = ResultCache(capacity=4)
        cache.put([1], [2], {(1, 2)})
        assert cache.get([2], [1]) is None


class TestEviction:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(capacity=2)
        cache.put([1], [1], set())
        cache.put([2], [2], set())
        assert cache.get([1], [1]) == set()  # refresh entry 1
        cache.put([3], [3], set())  # evicts entry 2
        assert cache.get([2], [2]) is None
        assert cache.get([1], [1]) == set()
        assert cache.stats.evictions == 1

    def test_capacity_bound_holds(self):
        cache = ResultCache(capacity=3)
        for i in range(10):
            cache.put([i], [i], set())
        assert len(cache) == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestInvalidation:
    def test_invalidate_all_drops_everything(self):
        cache = ResultCache(capacity=8)
        for i in range(5):
            cache.put([i], [i], set())
        assert cache.invalidate_all() == 5
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_empty_invalidation_not_counted(self):
        cache = ResultCache(capacity=8)
        assert cache.invalidate_all() == 0
        assert cache.stats.invalidations == 0

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        cache.put([1], [2], set())
        cache.get([1], [2])
        cache.get([3], [4])
        assert cache.stats.hit_rate == 0.5
        assert cache.stats.as_dict()["hit_rate"] == 0.5
