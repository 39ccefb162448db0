"""Validation and serialisation tests for :class:`repro.api.DSRConfig`."""

import pytest

from repro.api import ConfigError, DSRConfig


class TestDefaults:
    def test_default_config_is_valid(self):
        config = DSRConfig()
        assert config.backend == "dsr"
        assert config.num_partitions == 4
        assert config.use_equivalence is True

    def test_config_is_frozen(self):
        config = DSRConfig()
        with pytest.raises(AttributeError):
            config.backend = "giraph"

    def test_config_is_hashable_without_options(self):
        assert hash(DSRConfig()) == hash(DSRConfig())
        assert DSRConfig() in {DSRConfig()}


class TestValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"backend": ""},
            {"backend": 7},
            {"num_partitions": 0},
            {"num_partitions": -2},
            {"num_partitions": 2.5},
            {"num_partitions": True},
            {"partitioner": "nope"},
            {"local_index": "nope"},
            {"use_equivalence": "yes"},
            {"enable_backward": "true"},
            {"seed": "seven"},
            {"executor": "gpu"},
            {"executor": "threads"},
            {"executor": 3},
            {"epoch_flush": "eventually"},
            {"epoch_flush": True},
        ],
        ids=lambda overrides: repr(overrides),
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            DSRConfig(**overrides)

    def test_config_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            DSRConfig(partitioner="nope")

    def test_all_known_partitioners_and_indexes_accepted(self):
        for partitioner in ("metis", "hash"):
            DSRConfig(partitioner=partitioner)
            for local_index in ("dfs", "msbfs", "ferrari", "grail", "closure"):
                DSRConfig(backend="fan", partitioner=partitioner, local_index=local_index)

    def test_replace_revalidates(self):
        config = DSRConfig()
        assert config.replace(num_partitions=8).num_partitions == 8
        with pytest.raises(ConfigError):
            config.replace(num_partitions=0)

    def test_every_executor_and_epoch_flush_mode_accepted(self):
        for executor in ("serial", "processes", "tcp"):
            for epoch_flush in ("inline", "background"):
                config = DSRConfig(executor=executor, epoch_flush=epoch_flush)
                assert config.executor == executor
                assert config.epoch_flush == epoch_flush

    def test_defaults_preserve_legacy_behaviour(self):
        config = DSRConfig()
        assert config.executor == "serial"
        assert config.epoch_flush == "inline"


class TestRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            DSRConfig(),
            DSRConfig(backend="giraphpp-eq", num_partitions=7, partitioner="hash"),
            DSRConfig(backend="naive", local_index="grail"),
            DSRConfig(enable_backward=True, executor="processes", seed=99),
            DSRConfig(executor="processes", epoch_flush="background"),
        ],
        ids=[
            "default",
            "giraphpp-eq",
            "naive-grail",
            "backward-processes",
            "sharded-background",
        ],
    )
    def test_from_dict_inverts_to_dict(self, config):
        assert DSRConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_safe(self):
        import json

        config = DSRConfig(backend="fan", local_index="ferrari", enable_backward=True)
        restored = DSRConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: shards"):
            DSRConfig.from_dict({"backend": "dsr", "shards": 3})

    def test_from_dict_rejects_non_mapping(self):
        with pytest.raises(ConfigError):
            DSRConfig.from_dict(["backend", "dsr"])

    def test_from_dict_rejects_invalid_values(self):
        with pytest.raises(ConfigError):
            DSRConfig.from_dict({"num_partitions": 0})


class TestRemovedExecutors:
    """The GIL-bound ``threads`` executor is gone: in-process means serial."""

    def test_from_dict_refuses_threads_naming_the_live_executors(self):
        with pytest.raises(
            ConfigError,
            match="unknown executor 'threads'; available: serial, processes, tcp",
        ):
            DSRConfig.from_dict({"backend": "dsr", "executor": "threads"})

    def test_make_executor_refuses_threads(self):
        from repro.cluster.executors import EXECUTOR_NAMES, make_executor

        assert EXECUTOR_NAMES == ("serial", "processes", "tcp")
        with pytest.raises(ValueError, match="unknown executor 'threads'"):
            make_executor("threads")


class TestRemovedFields:
    """The fleet fields and the deprecated ``parallel`` alias are gone."""

    @pytest.mark.parametrize(
        "field",
        [{"replicas": 3}, {"fleet": True}, {"parallel": True}],
        ids=["replicas", "fleet", "parallel"],
    )
    def test_constructor_rejects_them(self, field):
        with pytest.raises(TypeError):
            DSRConfig(**field)

    @pytest.mark.parametrize("key", ["replicas", "parallel"])
    def test_from_dict_rejects_them(self, key):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            DSRConfig.from_dict({"backend": "dsr", key: 3})


class TestRemovedKernelTiers:
    """The kernel tier is no longer selectable: ``kernels`` keeps only
    ``"auto"``, and the removed tier names, like any other, are refused,
    not ignored."""

    @pytest.mark.parametrize("name", ["python", "numpy", "simd"])
    def test_constructor_refuses_them(self, name):
        with pytest.raises(ConfigError, match="kernels accepts only 'auto'"):
            DSRConfig(kernels=name)

    @pytest.mark.parametrize("name", ["python", "numpy"])
    def test_from_dict_refuses_them(self, name):
        with pytest.raises(ConfigError, match="kernels accepts only 'auto'"):
            DSRConfig.from_dict({"backend": "dsr", "kernels": name})

    def test_auto_is_the_default_and_round_trips(self):
        assert DSRConfig().kernels == "auto"
        assert DSRConfig.from_dict(DSRConfig().to_dict()).kernels == "auto"


class TestOneKernel:
    """The dsr backend runs one kernel, the bitset sweep over each
    condensation, on every executor: a ``local_index`` it would not run is
    refused, not ignored.  The baselines keep their strategy choice."""

    def test_msbfs_is_the_default(self):
        assert DSRConfig().local_index == "msbfs"

    @pytest.mark.parametrize("name", ["dfs", "ferrari", "grail", "closure", "bitset"])
    def test_dsr_refuses_every_other_local_index(self, name):
        with pytest.raises(ConfigError, match="accepts only 'msbfs'"):
            DSRConfig(local_index=name)
        with pytest.raises(ConfigError, match="accepts only 'msbfs'"):
            DSRConfig.from_dict({"backend": "dsr", "local_index": name})

    def test_baselines_keep_their_strategy(self):
        assert DSRConfig(backend="fan", local_index="ferrari").local_index == "ferrari"
        with pytest.raises(ConfigError, match="msbfs"):
            DSRConfig(backend="fan", local_index="ferrari").replace(backend="dsr")

    def test_local_index_options_are_gone(self):
        with pytest.raises(TypeError):
            DSRConfig(local_index_options={"k": 2})
        with pytest.raises(ConfigError, match="unknown config keys: local_index_options"):
            DSRConfig.from_dict({"local_index_options": {"k": 2}})


class TestWorkerHosts:
    def test_requires_tcp_executor(self):
        with pytest.raises(ConfigError, match="executor='tcp'"):
            DSRConfig(worker_hosts=["127.0.0.1:9000"])

    def test_rejects_empty_or_non_string_sequences(self):
        with pytest.raises(ConfigError, match="worker_hosts"):
            DSRConfig(executor="tcp", worker_hosts=[])
        with pytest.raises(ConfigError, match="worker_hosts"):
            DSRConfig(executor="tcp", worker_hosts=[("127.0.0.1", 9000)])

    def test_rejects_malformed_specs(self):
        with pytest.raises(ConfigError, match="host:port"):
            DSRConfig(executor="tcp", worker_hosts=["nocolon"])
        with pytest.raises(ConfigError, match="host:port"):
            DSRConfig(executor="tcp", worker_hosts=["host:notaport"])

    def test_normalised_to_tuple_and_round_trips(self):
        import json

        config = DSRConfig(
            executor="tcp", worker_hosts=["127.0.0.1:9000", "10.0.0.2:9001"]
        )
        assert config.worker_hosts == ("127.0.0.1:9000", "10.0.0.2:9001")
        payload = json.loads(json.dumps(config.to_dict()))
        assert payload["worker_hosts"] == ["127.0.0.1:9000", "10.0.0.2:9001"]
        assert DSRConfig.from_dict(payload) == config

    def test_tcp_without_hosts_is_valid_managed_mode(self):
        config = DSRConfig(executor="tcp")
        assert config.worker_hosts is None


#: A valid non-default value for every field (``worker_hosts`` needs tcp).
NON_DEFAULTS = {
    "backend": {"backend": "giraph"},
    "num_partitions": {"num_partitions": 7},
    "partitioner": {"partitioner": "hash"},
    "local_index": {"backend": "fan", "local_index": "ferrari"},
    "use_equivalence": {"use_equivalence": False},
    "seed": {"seed": 41},
    "enable_backward": {"enable_backward": True},
    "executor": {"executor": "tcp"},
    "epoch_flush": {"epoch_flush": "background"},
    "worker_hosts": {"executor": "tcp", "worker_hosts": ["127.0.0.1:9000"]},
}


#: Fields with one accepted value, so no non-default one to round-trip.
SINGLE_VALUED = {"kernels"}


class TestEveryField:
    def test_table_names_every_field(self):
        from dataclasses import fields

        every_field = {spec.name for spec in fields(DSRConfig)}
        assert set(NON_DEFAULTS) == every_field - SINGLE_VALUED
        assert set(DSRConfig().to_dict()) == every_field

    @pytest.mark.parametrize("field", sorted(NON_DEFAULTS))
    def test_non_default_value_survives_a_json_round_trip(self, field):
        import json

        config = DSRConfig(**NON_DEFAULTS[field])
        assert getattr(config, field) != getattr(DSRConfig(), field)
        restored = DSRConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config
        assert getattr(restored, field) == getattr(config, field)
