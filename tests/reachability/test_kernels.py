"""Unit tests for the kernel module (`repro.reachability.kernels`).

Parity of the numpy kernels with the python loops is covered by
``tests/proptest``; this file pins what is left of the module's surface —
the constant tier name and the refusal of a big-endian host — the
three input-size crossovers that pick a call's side, and the side and
window of a row sweep.
"""

import importlib.util
import os
import subprocess
import sys
import textwrap

import pytest

from repro.graph.digraph import DiGraph
from repro.reachability import bitset_msbfs, kernels, packed
from repro.reachability.packed import _NUMPY_PACK_THRESHOLD, pack_ranks


def test_kernel_backend_is_the_numpy_constant():
    assert kernels.kernel_backend() == "numpy"


def test_a_big_endian_host_is_refused_at_import(monkeypatch):
    # A fresh copy of the module, so the loaded one is left untouched.
    monkeypatch.setattr(sys, "byteorder", "big")
    spec = importlib.util.spec_from_file_location("_kernels_on_big_endian", kernels.__file__)
    module = importlib.util.module_from_spec(spec)
    with pytest.raises(ImportError, match="little-endian"):
        spec.loader.exec_module(module)


def test_repro_kernels_in_the_environment_selects_nothing():
    # The variable once seeded a process-global tier at import; now an
    # engine opened under it has no tier and a wide sweep still runs on
    # numpy.
    script = textwrap.dedent(
        """
        from repro.api import DSRConfig, open_engine
        from repro.graph import generators
        from repro.graph.scc import condense
        from repro.reachability import bitset_msbfs, kernels

        engine = open_engine(generators.dag(60, 180, seed=1), DSRConfig(num_partitions=2))
        try:
            assert not hasattr(engine, "kernels")
            assert engine.config.kernels == "auto"
        finally:
            engine.close()
        calls = []
        serve = kernels.np_propagate
        kernels.np_propagate = lambda *args, **kw: calls.append(1) or serve(*args, **kw)
        csr = condense(generators.dag(40, 120, seed=2))[0].csr()
        bitset_msbfs.propagate(csr, {v: 1 << v for v in range(bitset_msbfs.NUMPY_MIN_SEEDS)})
        assert calls == [1], calls
        """
    )
    env = dict(os.environ, REPRO_KERNELS="python")
    src = os.path.join(os.path.dirname(kernels.__file__), "..", "..")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath(src), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


class TestPackDispatchThreshold:
    def test_small_and_large_rank_lists_agree(self):
        # One list on each side of the crossover, both held to the oracle
        # and to the numpy function.
        small = list(range(_NUMPY_PACK_THRESHOLD - 1))
        large = list(range(0, 10 * _NUMPY_PACK_THRESHOLD, 3))
        for ranks in (small, large):
            expected = sum(1 << rank for rank in ranks)
            assert pack_ranks(ranks) == expected
            assert kernels.np_pack_ranks(ranks) == expected


def _path_sweep(size):
    """A forward sweep of ``size`` seeds over a descending path."""
    length = max(size, 1) + 3
    csr = DiGraph.from_edges([(v + 1, v) for v in range(length - 1)], range(length)).csr()
    return bitset_msbfs.propagate(csr, {csr.index_of(v): 1 << v for v in range(size)})


def _row_inversion(size):
    """An inversion of ``size`` rows, row ``i`` setting bits ``i`` and ``i + 2``."""
    rows = [1 << i | 1 << (i + 2) for i in range(size)]
    return packed.invert_rows(rows, [[i] for i in range(size)], range(size + 2))


def _rank_packing(size):
    """``size`` ranks, every third position."""
    return packed.pack_ranks(list(range(0, 3 * size, 3)))


#: Each crossover: the module constant that holds it, a call whose input
#: size is the argument, and the numpy function that serves that call from
#: the constant on.
CROSSOVER_CALLS = {
    "seeds": (bitset_msbfs, "NUMPY_MIN_SEEDS", _path_sweep, "np_propagate"),
    "rows": (packed, "NUMPY_MIN_ROWS", _row_inversion, "np_invert_rows"),
    "ranks": (packed, "_NUMPY_PACK_THRESHOLD", _rank_packing, "np_pack_ranks"),
}


def _spy(monkeypatch, function_name):
    """Count the calls of one numpy kernel, which still serves them."""
    calls = []
    serve = getattr(kernels, function_name)

    def spy(*args, **kwargs):
        calls.append(1)
        return serve(*args, **kwargs)

    monkeypatch.setattr(kernels, function_name, spy)
    return calls


class TestCrossovers:
    @pytest.mark.parametrize("name", sorted(CROSSOVER_CALLS))
    def test_the_input_size_alone_picks_the_side(self, name, monkeypatch):
        module, constant, call, function_name = CROSSOVER_CALLS[name]
        threshold = getattr(module, constant)
        calls = _spy(monkeypatch, function_name)
        below = call(threshold - 1)
        assert calls == []
        at = call(threshold)
        assert calls == [1]
        # Each side also answers the other side's input identically.
        monkeypatch.setattr(module, constant, 0)
        assert call(threshold - 1) == below
        monkeypatch.setattr(module, constant, sys.maxsize)
        assert call(threshold) == at

    def test_the_fixture_forces_every_size(self, crossover, monkeypatch):
        for name, (module, constant, call, function_name) in sorted(CROSSOVER_CALLS.items()):
            calls = _spy(monkeypatch, function_name)
            # One narrow call and one far past every measured crossover.
            for size in (1, 200):
                call(size)
            expected = 2 if crossover.side == "numpy" else 0
            assert len(calls) == expected, (name, crossover.side)


def _descending_path(length):
    """A snapshot whose vertex ``v`` reaches every lower vertex (dense index = id)."""
    return DiGraph.from_edges([(v + 1, v) for v in range(length - 1)], range(length)).csr()


def _spy_sweeps(monkeypatch):
    """Record ``(batch, reverse)`` of every row sweep, which still runs."""
    calls = []
    sweep = bitset_msbfs._sweep_rows

    def spy(csr, batch, harvest, reverse, transpose):
        calls.append((list(batch), reverse))
        return sweep(csr, batch, harvest, reverse, transpose)

    monkeypatch.setattr(bitset_msbfs, "_sweep_rows", spy)
    return calls


class _RecordedOffsets:
    """An offsets array that records every index it is read at."""

    def __init__(self, offsets, reads):
        self._offsets, self._reads = offsets, reads

    def __getitem__(self, index):
        self._reads.append(index)
        return self._offsets[index]


class TestSweepSide:
    def test_many_seeds_one_target_sweeps_from_the_target(self, crossover, monkeypatch):
        csr = _descending_path(120)
        calls = _spy_sweeps(monkeypatch)
        seeds = list(range(20, 107))
        rows = bitset_msbfs.set_reachability_rows(csr, seeds, 1 << 5)
        assert calls == [([5], True)]
        assert rows == {seed: 1 << 5 for seed in seeds}
        # A reverse call turns the other way round.
        calls.clear()
        rows = bitset_msbfs.set_reachability_rows(csr, range(87), 1 << 100, reverse=True)
        assert calls == [([100], False)]
        assert rows == {seed: 1 << 100 for seed in range(87)}

    def test_few_seeds_many_targets_sweep_from_the_seeds(self, crossover, monkeypatch):
        csr = _descending_path(120)
        calls = _spy_sweeps(monkeypatch)
        targets = list(range(30, 38))
        rows = bitset_msbfs.set_reachability_rows(csr, [50, 60], packed.pack_ranks(targets))
        assert calls == [([50, 60], False)]
        assert rows == {seed: packed.pack_ranks(targets) for seed in (50, 60)}

    def test_the_narrow_loop_stops_at_the_lowest_target(self, monkeypatch):
        monkeypatch.setattr(bitset_msbfs, "NUMPY_MIN_SEEDS", sys.maxsize)
        csr = _descending_path(120)
        assert csr.edges_descend()  # checked once, before the offsets are spied on
        reads = []
        csr.fwd_offsets = _RecordedOffsets(csr.fwd_offsets, reads)
        rows = bitset_msbfs.set_reachability_rows(csr, [50, 60], 0b111 << 30)
        assert rows == {50: 0b111 << 30, 60: 0b111 << 30}
        # Every vertex below 60 is reached, but the loop stops once index
        # 30 is final.
        assert reads and min(reads) >= 30
