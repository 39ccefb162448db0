"""Unit tests for the deterministic fault-injection registry."""

import re
import time
from pathlib import Path

import pytest

from repro.resilience import (
    FailPointError,
    FailPointRegistry,
    FailPointSpec,
    failpoint,
    global_failpoints,
    use_failpoints,
)
from repro.resilience import failpoints


class TestSpecValidation:
    def test_defaults(self):
        spec = FailPointSpec("executor.call")
        assert spec.action == "raise"
        assert spec.count == 1

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint action"):
            FailPointSpec("x", action="explode")

    def test_unknown_raise_type_rejected(self):
        with pytest.raises(ValueError, match="cannot raise"):
            FailPointSpec("x", action="raise", value="KeyboardInterrupt")

    def test_delay_needs_seconds(self):
        with pytest.raises(ValueError, match="non-negative seconds"):
            FailPointSpec("x", action="delay", value="fast")

    def test_call_needs_callable(self):
        with pytest.raises(ValueError, match="callable"):
            FailPointSpec("x", action="call", value=3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"after": -1}, {"count": 0}, {"probability": 1.5}, {"probability": -0.1}],
    )
    def test_window_bounds(self, kwargs):
        with pytest.raises(ValueError):
            FailPointSpec("x", **kwargs)

    def test_from_dict_rejects_unknown_keys_and_missing_site(self):
        with pytest.raises(ValueError, match="unknown failpoint spec keys"):
            FailPointSpec.from_dict({"site": "x", "when": "now"})
        with pytest.raises(ValueError, match="needs a 'site'"):
            FailPointSpec.from_dict({"action": "drop"})


class TestMatching:
    def test_site_must_match_exactly(self):
        spec = FailPointSpec("executor.call")
        assert spec.matches("executor.call", {})
        assert not spec.matches("executor.recv", {})

    def test_labels_are_a_subset_match(self):
        spec = FailPointSpec("executor.call", labels={"rank": 0})
        assert spec.matches("executor.call", {"rank": 0, "kind": "task"})
        assert not spec.matches("executor.call", {"rank": 1})
        assert not spec.matches("executor.call", {})


class TestTriggerWindow:
    def test_after_and_count_window(self):
        registry = FailPointRegistry([FailPointSpec("s", after=2, count=2)])
        outcomes = []
        for _ in range(6):
            try:
                registry.evaluate("s", {})
                outcomes.append(False)
            except FailPointError:
                outcomes.append(True)
        # Skip hits 1-2, fire on hits 3-4, then exhausted.
        assert outcomes == [False, False, True, True, False, False]
        assert registry.fired("s") == 2

    def test_count_none_fires_forever(self):
        registry = FailPointRegistry([FailPointSpec("s", count=None)])
        for _ in range(5):
            with pytest.raises(FailPointError):
                registry.evaluate("s", {})
        assert registry.fired() == 5

    def test_probability_is_seed_deterministic(self):
        def pattern(seed):
            registry = FailPointRegistry(
                [FailPointSpec("s", count=None, probability=0.5)], seed=seed
            )
            fired = []
            for _ in range(20):
                try:
                    registry.evaluate("s", {})
                    fired.append(False)
                except FailPointError:
                    fired.append(True)
            return fired

        assert pattern(3) == pattern(3)
        assert any(pattern(3)) and not all(pattern(3))


class TestActions:
    def test_raise_named_type(self):
        registry = FailPointRegistry(
            [FailPointSpec("s", action="raise", value="ValueError")]
        )
        with pytest.raises(ValueError, match="failpoint 's' injected"):
            registry.evaluate("s", {})

    def test_drop_raises_connection_error(self):
        registry = FailPointRegistry([FailPointSpec("s", action="drop")])
        with pytest.raises(ConnectionError, match="dropped the connection"):
            registry.evaluate("s", {})

    def test_delay_sleeps(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        registry = FailPointRegistry([FailPointSpec("s", action="delay", value=0.2)])
        registry.evaluate("s", {})
        assert slept == [0.2]

    def test_call_receives_labels(self):
        seen = []
        registry = FailPointRegistry(
            [FailPointSpec("s", action="call", value=seen.append)]
        )
        registry.evaluate("s", {"rank": 3})
        assert seen == [{"rank": 3}]


class TestRegistryLifecycle:
    def test_disabled_registry_is_a_no_op(self):
        # The global registry is unarmed by default: the compiled-in hook
        # must never fire (and never pay more than a branch).
        assert not global_failpoints().enabled
        failpoint("executor.call", rank=0)  # does nothing

    def test_use_failpoints_scopes_the_schedule(self):
        with use_failpoints([FailPointSpec("s")]) as registry:
            assert global_failpoints() is registry
            with pytest.raises(FailPointError):
                failpoint("s")
            assert registry.fired("s") == 1
        assert not global_failpoints().enabled

    def test_clear_and_configure(self):
        registry = FailPointRegistry()
        assert not registry.enabled
        registry.add(FailPointSpec("s"))
        assert registry.enabled
        registry.clear()
        assert not registry.enabled
        registry.configure([FailPointSpec("a"), FailPointSpec("b")])
        assert {spec.site for spec in registry.specs()} == {"a", "b"}


class TestEnvBootstrap:
    def test_from_env_parses_json_schedule(self):
        registry = FailPointRegistry.from_env(
            '[{"site": "executor.call", "action": "drop", '
            '"labels": {"rank": 0}, "after": 2, "count": 1}]'
        )
        (spec,) = registry.specs()
        assert spec.site == "executor.call"
        assert spec.action == "drop"
        assert spec.labels == {"rank": 0}
        assert (spec.after, spec.count) == (2, 1)
        assert registry.enabled

    def test_from_env_rejects_bad_payloads(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            FailPointRegistry.from_env("{nope")
        with pytest.raises(ValueError, match="JSON list"):
            FailPointRegistry.from_env('{"site": "x"}')


#: The site catalog of ``repro.resilience.failpoints`` and docs/RESILIENCE.md.
CATALOG = (
    "executor.call",
    "executor.recv",
    "executor.hydrate",
    "executor.hydrate.replay",
    "shard.load",
    "service.flush",
)

REPO = Path(__file__).resolve().parents[2]
SITE_CALL = re.compile(r"""\bfailpoint\(\s*["']([a-z.]+)["']""")


def wired_sites():
    """Site names of every ``failpoint("...")`` call in the package source."""
    sites = set()
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if path.name == "failpoints.py":
            continue  # its docstring quotes a call as an example
        sites.update(SITE_CALL.findall(path.read_text()))
    return sites


class TestSiteCatalog:
    """The documented sites are exactly the ones compiled into the code."""

    @pytest.mark.parametrize("site", CATALOG)
    def test_catalogued_site_is_wired_into_the_code(self, site):
        assert site in wired_sites()

    def test_module_docstring_lists_every_wired_site(self):
        documented = set(re.findall(r"^``([a-z.]+)``\s", failpoints.__doc__, re.M))
        assert documented == wired_sites() == set(CATALOG)

    def test_resilience_doc_lists_every_wired_site(self):
        text = (REPO / "docs" / "RESILIENCE.md").read_text()
        documented = set(re.findall(r"^\| `([a-z]+(?:\.[a-z]+)+)` \|", text, re.M))
        assert documented == wired_sites() == set(CATALOG)
