"""Single-configuration trace-driven cache simulator.

:class:`SingleConfigSimulator` models what one Dinero IV invocation does: it
owns the storage for exactly one cache configuration and must be driven over
the whole trace to produce hit/miss counts for that configuration alone.

Each set (a :class:`CacheSet` and its policy object) is built the first time
an access indexes it, so a mostly-untouched 16384-set cache costs only the
sets the trace reaches.  Set ``i`` gets its policy seeded with ``seed + i``,
which keeps every ``RANDOM`` set on its own deterministic stream whenever it
is built.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from repro.cache.cacheset import CacheSet
from repro.cache.policies import make_policy
from repro.cache.stats import CacheStats
from repro.core.config import CacheConfig
from repro.errors import SimulationError
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace
from repro.types import ACCESS_TYPE_BY_CODE, AccessType


class SingleConfigSimulator:
    """Trace-driven simulator for one cache configuration.

    Parameters
    ----------
    config:
        The cache configuration (sets, ways, block size, policy) to model.
    seed:
        Seed forwarded to stochastic policies (``RANDOM``); ignored by the
        deterministic ones.
    track_compulsory:
        When true (the default), first-touch misses are classified as
        compulsory, which requires remembering every block ever seen.
        Disable for very long traces if that memory matters.
    """

    def __init__(self, config: CacheConfig, seed: int = 0, track_compulsory: bool = True) -> None:
        self.config = config
        self.stats = CacheStats()
        self._seed = seed
        self._sets: List[Optional[CacheSet]] = [None] * config.num_sets
        self._offset_bits = config.offset_bits
        self._index_mask = config.num_sets - 1
        self._track_compulsory = track_compulsory
        self._seen_blocks: Set[int] = set()

    def _set(self, index: int) -> CacheSet:
        """Build set ``index`` on its first touch."""
        config = self.config
        cache_set = CacheSet(
            config.associativity,
            make_policy(config.policy, config.associativity, seed=self._seed + index),
        )
        self._sets[index] = cache_set
        return cache_set

    # -- single access --------------------------------------------------------

    def access(self, address: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one byte-address reference; return ``True`` on a hit."""
        if address < 0:
            raise SimulationError(f"negative address: {address}")
        return self.access_block(address >> self._offset_bits, access_type)

    def access_block(self, block: int, access_type: AccessType = AccessType.READ) -> bool:
        """Simulate one reference given its block address; return ``True`` on a hit."""
        return self.access_block_detail(block, access_type)[0]

    def access_block_detail(
        self, block: int, access_type: AccessType = AccessType.READ
    ) -> tuple:
        """One block reference with the miss-path detail the mechanism layer needs.

        Returns ``(hit, evicted_block, compulsory)``: the evicted block address
        (``None`` when nothing left the cache) feeds victim-cache insertion,
        and ``compulsory`` flags a first-touch miss so a mechanism engine can
        classify the misses that survive its own probe.
        """
        index = block & self._index_mask
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._set(index)
        before = cache_set.comparisons
        compulsory = False
        if self._track_compulsory:
            if block not in self._seen_blocks:
                compulsory = True
                self._seen_blocks.add(block)
        hit, evicted = cache_set.access(block, is_write=(access_type == AccessType.WRITE))
        self.stats.record(
            hit=hit,
            access_type=access_type,
            compulsory=compulsory and not hit,
            evicted=evicted is not None,
            comparisons=cache_set.comparisons - before,
        )
        return hit, evicted, compulsory and not hit

    # -- bulk simulation ------------------------------------------------------

    def run_blocks(
        self,
        blocks: Union[Sequence[int], np.ndarray],
        access_types: Optional[Union[Sequence[int], np.ndarray]] = None,
    ) -> None:
        """Simulate a chunk of pre-shifted block addresses (engine pipeline)."""
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        access = self.access_block_detail
        if access_types is None:
            for block in blocks:
                access(block)
            return
        if isinstance(access_types, np.ndarray):
            access_types = access_types.tolist()
        by_code = ACCESS_TYPE_BY_CODE
        for block, type_code in zip(blocks, access_types):
            access(block, by_code[type_code])

    def run(
        self,
        trace: Union[Trace, Iterable[int]],
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> CacheStats:
        """Simulate a whole trace (or a bare iterable of addresses)."""
        if isinstance(trace, Trace):
            for blocks, types in trace.iter_block_chunks(
                self._offset_bits, chunk_size, with_types=True
            ):
                self.run_blocks(blocks, types)
        else:
            for address in trace:
                self.access(int(address))
        return self.stats

    # -- inspection -----------------------------------------------------------

    def resident_blocks(self, set_index: Optional[int] = None) -> List[List[int]]:
        """Blocks currently resident, per set (or for one set)."""
        sets = self._sets if set_index is None else [self._sets[set_index]]
        return [[] if cache_set is None else cache_set.resident_blocks() for cache_set in sets]

    def contains_block(self, block: int) -> bool:
        """True when ``block`` (a block address) is resident."""
        cache_set = self._sets[block & self._index_mask]
        return cache_set is not None and block in cache_set.resident_blocks()

    def reset(self) -> None:
        """Empty the cache and zero the statistics.

        A set built afresh on its next touch equals a reset one: a policy's
        reset restores the state its constructor gives it (``RANDOM``
        re-seeds with the same seed).
        """
        self._sets = [None] * self.config.num_sets
        self.stats = CacheStats()
        self._seen_blocks = set()


def simulate_trace(
    config: CacheConfig,
    trace: Union[Trace, Iterable[int]],
    seed: int = 0,
) -> CacheStats:
    """One-shot helper: simulate ``trace`` on ``config`` and return the stats."""
    simulator = SingleConfigSimulator(config, seed=seed)
    return simulator.run(trace)
