"""Tests for the single-configuration reference simulator and the Dinero-style runner."""

import pytest

import repro.cache.simulator as simulator_module
from repro.cache.dinero import DineroStyleRunner
from repro.cache.simulator import SingleConfigSimulator, simulate_trace
from repro.core.config import CacheConfig
from repro.engine import get_engine
from repro.errors import SimulationError
from repro.trace.trace import Trace
from repro.types import AccessType, ReplacementPolicy
from repro.workloads.mediabench import mediabench_trace


class TestSingleConfigSimulator:
    def test_direct_mapped_conflict(self):
        # Two blocks that map to the same set of a direct-mapped cache
        # alternate: every access after the first two must miss.
        config = CacheConfig(num_sets=2, associativity=1, block_size=4)
        simulator = SingleConfigSimulator(config)
        for address in [0, 8, 0, 8, 0, 8]:
            simulator.access(address)
        assert simulator.stats.misses == 6
        assert simulator.stats.hits == 0

    def test_two_way_fifo_holds_both(self):
        config = CacheConfig(num_sets=1, associativity=2, block_size=4)
        simulator = SingleConfigSimulator(config)
        for address in [0, 8, 0, 8, 0, 8]:
            simulator.access(address)
        assert simulator.stats.misses == 2
        assert simulator.stats.hits == 4

    def test_fifo_vs_lru_divergence(self):
        # Classic sequence where FIFO and LRU disagree: with 2 ways,
        # A B A C A -> FIFO evicts A when C arrives (A oldest), LRU evicts B.
        addresses = [0, 8, 0, 16, 0]
        fifo = simulate_trace(CacheConfig(1, 2, 4, ReplacementPolicy.FIFO), addresses)
        lru = simulate_trace(CacheConfig(1, 2, 4, ReplacementPolicy.LRU), addresses)
        assert fifo.misses == 4   # A, B, C miss; final A misses (was evicted)
        assert lru.misses == 3    # A, B, C miss; final A hits

    def test_compulsory_miss_classification(self):
        config = CacheConfig(1, 1, 4)
        simulator = SingleConfigSimulator(config)
        for address in [0, 4, 0, 4]:
            simulator.access(address)
        assert simulator.stats.misses == 4
        assert simulator.stats.compulsory_misses == 2

    def test_block_size_merges_addresses(self):
        config = CacheConfig(1, 1, 64)
        simulator = SingleConfigSimulator(config)
        for address in [0, 4, 8, 60, 63]:
            simulator.access(address)
        assert simulator.stats.misses == 1
        assert simulator.stats.hits == 4

    def test_negative_address_rejected(self):
        simulator = SingleConfigSimulator(CacheConfig(1, 1, 4))
        with pytest.raises(SimulationError):
            simulator.access(-4)

    def test_run_with_trace_object(self):
        trace = Trace([0, 4, 0], [0, 1, 0])
        simulator = SingleConfigSimulator(CacheConfig(1, 2, 4))
        stats = simulator.run(trace)
        assert stats.accesses == 3
        assert stats.by_type[AccessType.WRITE] == 1

    def test_unknown_access_type_code_raises(self):
        simulator = SingleConfigSimulator(CacheConfig(2, 1, 4))
        with pytest.raises(ValueError):
            simulator.run_blocks([1, 2], [0, -1])
        engine = get_engine("victim-cache", num_sets=2, associativity=1, block_size=4, entries=2)
        with pytest.raises(ValueError):
            engine.run_blocks([1, 2], [2, 3])

    def test_contains_block_and_resident(self):
        simulator = SingleConfigSimulator(CacheConfig(2, 1, 4))
        simulator.access(0)
        assert simulator.contains_block(0)
        assert not simulator.contains_block(1)
        assert simulator.resident_blocks(0) == [[0]]

    def test_reset(self):
        simulator = SingleConfigSimulator(CacheConfig(2, 2, 4))
        simulator.run([0, 4, 8, 12])
        simulator.reset()
        assert simulator.stats.accesses == 0
        assert simulator.resident_blocks() == [[], []]


class TestPerSetState:
    """Per-set state: RANDOM seeding per set, sets built on first touch."""

    @pytest.mark.parametrize(
        "seed, expected",
        [
            # (misses, evictions, compulsory_misses, tag_comparisons)
            (0, (360, 131, 312, 6817)),
            (7, (351, 122, 312, 7192)),
        ],
    )
    def test_random_policy_counts_are_pinned(self, seed, expected):
        # Set i draws victims from its own stream seeded with seed + i; a
        # set seeded any other way changes these counts.
        config = CacheConfig(64, 4, 16, ReplacementPolicy.RANDOM)
        simulator = SingleConfigSimulator(config, seed=seed)
        stats = simulator.run(mediabench_trace("cjpeg", 3000, seed=5))
        assert (
            stats.misses,
            stats.evictions,
            stats.compulsory_misses,
            stats.tag_comparisons,
        ) == expected

    def test_sets_are_built_on_first_touch(self, monkeypatch):
        built = []

        class CountingCacheSet(simulator_module.CacheSet):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(simulator_module, "CacheSet", CountingCacheSet)
        config = CacheConfig(16384, 8, 16, ReplacementPolicy.FIFO)
        simulator = SingleConfigSimulator(config)
        assert len(built) == 0
        trace = mediabench_trace("cjpeg", 3000, seed=5)
        simulator.run(trace)
        blocks = trace.block_addresses(config.block_size).tolist()
        touched = {block & (config.num_sets - 1) for block in blocks}
        assert len(built) == len(touched)

    def test_untouched_sets_read_as_empty(self):
        simulator = SingleConfigSimulator(CacheConfig(8, 2, 4))
        assert simulator.resident_blocks() == [[]] * 8
        assert simulator.resident_blocks(5) == [[]]
        assert not simulator.contains_block(13)
        simulator.run([4 * 3, 4 * 11, 4 * 3])
        assert simulator.resident_blocks() == [[], [], [], [3, 11], [], [], [], []]
        assert simulator.contains_block(11)
        assert not simulator.contains_block(19)
        assert not simulator.contains_block(5)
        simulator.reset()
        assert simulator.resident_blocks() == [[]] * 8
        assert not simulator.contains_block(3)
        assert simulator.stats.accesses == 0

    def test_reset_replays_random_streams(self):
        config = CacheConfig(4, 2, 4, ReplacementPolicy.RANDOM)
        trace = mediabench_trace("cjpeg", 2000, seed=3)
        simulator = SingleConfigSimulator(config, seed=11)
        first = simulator.run(trace).as_dict()
        simulator.reset()
        assert simulator.run(trace).as_dict() == first
        fresh = SingleConfigSimulator(config, seed=11).run(trace).as_dict()
        assert fresh == first


class TestDineroStyleRunner:
    def test_sweep_produces_one_stat_per_config(self, loop_trace):
        configs = [CacheConfig(2**i, 2, 16) for i in range(4)]
        result = DineroStyleRunner(configs).run(loop_trace)
        assert result.passes == 4
        assert set(result.stats) == set(configs)
        assert result.trace_length == len(loop_trace)
        assert result.elapsed_seconds > 0

    def test_larger_caches_never_increase_compulsory_misses(self, mixed_trace):
        configs = [CacheConfig(2**i, 2, 16) for i in range(5)]
        result = DineroStyleRunner(configs).run(mixed_trace)
        compulsory = [result.stats[config].compulsory_misses for config in configs]
        assert len(set(compulsory)) == 1  # compulsory misses depend only on block size

    def test_total_tag_comparisons_sums_configs(self, loop_trace):
        configs = [CacheConfig(1, 2, 16), CacheConfig(2, 2, 16)]
        result = DineroStyleRunner(configs).run(loop_trace)
        assert result.total_tag_comparisons == sum(
            stat.tag_comparisons for stat in result.stats.values()
        )

    def test_miss_count_and_rates_helpers(self, loop_trace):
        config = CacheConfig(4, 2, 16)
        result = DineroStyleRunner([config]).run(loop_trace)
        assert result.miss_count(config) == result.stats[config].misses
        assert config in result.miss_rates()

    def test_as_rows(self, loop_trace):
        configs = [CacheConfig(1, 1, 16), CacheConfig(2, 1, 16)]
        rows = DineroStyleRunner(configs).run(loop_trace).as_rows()
        assert len(rows) == 2
        assert {"num_sets", "misses", "miss_rate"} <= set(rows[0])

    def test_requires_configs(self):
        with pytest.raises(SimulationError):
            DineroStyleRunner([])

    def test_rejects_duplicates(self):
        config = CacheConfig(1, 1, 16)
        with pytest.raises(SimulationError):
            DineroStyleRunner([config, config])
