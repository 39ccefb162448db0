"""Tests for the unified :class:`repro.api.ReachQuery` object."""

import pytest

from repro.api import QueryError, ReachQuery


class TestConstruction:
    def test_coerces_iterables_to_tuples(self):
        query = ReachQuery([3, 1], {2})
        assert query.sources == (3, 1)
        assert query.targets == (2,)

    def test_defaults(self):
        query = ReachQuery((1,), (2,))
        assert query.direction == "auto"
        assert query.use_cache is True

    def test_frozen_and_hashable(self):
        query = ReachQuery((1,), (2,))
        with pytest.raises(AttributeError):
            query.direction = "forward"
        assert query == ReachQuery([1], [2])
        assert hash(query) == hash(ReachQuery((1,), (2,)))

    def test_single_pair_constructor(self):
        query = ReachQuery.single(4, 9)
        assert query.sources == (4,)
        assert query.targets == (9,)

    def test_invalid_direction_rejected(self):
        with pytest.raises(QueryError):
            ReachQuery((1,), (2,), direction="sideways")

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "many", 16])
    def test_invalid_batch_budget_rejected(self, bad):
        # The per-query batching budget is gone: every value, including the
        # once-valid 16, fails loudly instead of being silently ignored.
        with pytest.raises(TypeError):
            ReachQuery((1,), (2,), max_batch_pairs=bad)
        with pytest.raises(QueryError, match="unknown query keys: max_batch_pairs"):
            ReachQuery.from_dict(
                {"sources": [1], "targets": [2], "max_batch_pairs": bad}
            )


class TestIntrospection:
    def test_is_empty(self):
        assert ReachQuery((), (1,)).is_empty
        assert ReachQuery((1,), ()).is_empty
        assert not ReachQuery((1,), (2,)).is_empty

    def test_num_pairs(self):
        assert ReachQuery((1, 2, 3), (4, 5)).num_pairs == 6


class TestRoundTrip:
    def test_from_dict_inverts_to_dict(self):
        query = ReachQuery(
            (1, 2), (3,), direction="backward", use_cache=False, tenant="crm"
        )
        assert ReachQuery.from_dict(query.to_dict()) == query

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(QueryError, match="unknown query keys"):
            ReachQuery.from_dict({"sources": [1], "targets": [2], "limit": 5})

    def test_from_dict_requires_sources_and_targets(self):
        with pytest.raises(QueryError, match="missing"):
            ReachQuery.from_dict({"sources": [1]})
