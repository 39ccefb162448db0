"""Unit tests for the kernel backend switch (`repro.reachability.kernels`).

Parity of the numpy kernels themselves is covered by ``tests/proptest``;
this file tests the selection machinery — resolution, the process-global
switch, the context manager, and the dispatch points in
``bitset_msbfs``/``packed``.
"""

import pytest

from repro.reachability import kernels
from repro.reachability.kernels import (
    KERNEL_NAMES,
    kernel_backend,
    numpy_available,
    resolve_kernels,
    set_kernel_backend,
    use_kernels,
)


class TestResolution:
    def test_python_always_resolves(self):
        assert resolve_kernels("python") == "python"

    def test_auto_resolves_to_a_concrete_backend(self):
        assert resolve_kernels("auto") in ("python", "numpy")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            resolve_kernels("simd")

    def test_names_constant_covers_all_accepted_spellings(self):
        assert set(KERNEL_NAMES) == {"auto", "python", "numpy"}
        for name in KERNEL_NAMES:
            if name != "numpy" or numpy_available():
                resolve_kernels(name)  # none raise where the backend can run

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_auto_prefers_numpy_when_available(self):
        assert resolve_kernels("auto") == "numpy"


class TestGlobalSwitch:
    def test_set_and_restore(self):
        previous = kernel_backend()
        try:
            assert set_kernel_backend("python") == "python"
            assert kernel_backend() == "python"
        finally:
            set_kernel_backend(previous)

    def test_use_kernels_restores_on_exit(self):
        previous = kernel_backend()
        with use_kernels("python"):
            assert kernel_backend() == "python"
        assert kernel_backend() == previous

    def test_use_kernels_restores_on_error(self):
        previous = kernel_backend()
        with pytest.raises(RuntimeError):
            with use_kernels("python"):
                raise RuntimeError("boom")
        assert kernel_backend() == previous

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_switch_changes_dispatch_not_answers(self):
        from repro.graph.digraph import DiGraph
        from repro.reachability.bitset_msbfs import set_reachability_rows

        graph = DiGraph.from_edges([(1, 0), (2, 1), (3, 2), (3, 0), (4, 3)])
        csr = graph.csr()
        sources = sorted(graph.vertices())
        with use_kernels("python"):
            reference = set_reachability_rows(csr, sources)
        with use_kernels("numpy"):
            assert set_reachability_rows(csr, sources) == reference


class TestPackDispatchThreshold:
    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_small_and_large_rank_lists_agree(self):
        from repro.reachability.packed import _NUMPY_PACK_THRESHOLD, pack_ranks

        small = list(range(_NUMPY_PACK_THRESHOLD - 1))
        large = list(range(0, 10 * _NUMPY_PACK_THRESHOLD, 3))
        with use_kernels("python"):
            small_ref, large_ref = pack_ranks(small), pack_ranks(large)
        with use_kernels("numpy"):
            assert pack_ranks(small) == small_ref
            assert pack_ranks(large) == large_ref


class TestEnvSeeding:
    def test_module_default_matches_environment(self, monkeypatch):
        # The module-level default was computed at import from REPRO_KERNELS;
        # what we can still test here is that an explicit re-seed through
        # set_kernel_backend honours the same resolution rules.
        previous = kernel_backend()
        try:
            assert set_kernel_backend("auto") == resolve_kernels("auto")
        finally:
            set_kernel_backend(previous)

    def test_numpy_unavailability_is_a_config_error_not_a_crash(self):
        if numpy_available():
            pytest.skip("numpy installed: the unavailable branch is dead here")
        with pytest.raises(ValueError):
            resolve_kernels("numpy")
        assert kernels.resolve_kernels("auto") == "python"
