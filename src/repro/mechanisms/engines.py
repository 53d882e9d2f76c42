"""Mechanism engines: a DL1 cache augmented on its miss path.

Each engine owns one :class:`~repro.cache.simulator.SingleConfigSimulator`
(the DL1 level) plus a small mechanism buffer probed only when the DL1
misses.  The emitted columns follow the "trips to the next memory level"
convention:

* ``accesses``  — DL1 accesses (identical to the bare cache's column);
* ``misses``    — DL1 misses *not* served by the mechanism, so a mechanism
  row's miss column compares directly against a bigger L1's;
* ``compulsory``— first-touch misses among those surviving misses;
* ``mechanism_hits`` / ``mechanism_swaps`` / ``mechanism_allocations`` —
  the per-mechanism counters, emitted via the frame's mechanism columns.

All three engines accept run-length-collapsed chunks exactly: after a run's
head access the block is resident in DL1, so the remaining repeats are
guaranteed DL1 hits that never reach the mechanism (hit handling is
idempotent for every replacement policy), and a run whose value equals the
carried last block of the previous chunk is *all* hits.  Exactness is
claimed for the emitted columns above — tag-comparison and dirty-bit
bookkeeping inside DL1 is skipped for bulk-accounted repeats.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.core.results import (
    ResultsFrame,
    SimulationResults,
    mechanism_code,
    policy_code,
)
from repro.engine.base import Engine, register_engine
from repro.errors import ConfigurationError, SimulationError
from repro.mechanisms.buffers import FullyAssociativeBuffer, StreamBufferSet
from repro.types import ACCESS_TYPE_BY_CODE, AccessType, ReplacementPolicy

BlockChunk = Union[Sequence[int], np.ndarray]
TypeChunk = Optional[Union[Sequence[int], np.ndarray]]

#: Registry keys of the mechanism engines, in MECHANISM_TABLE (code) order.
MECHANISM_ENGINE_NAMES: Tuple[str, ...] = (
    "miss-cache",
    "stream-buffer",
    "victim-cache",
)


class MechanismEngine(Engine):
    """Shared DL1-plus-mechanism scaffolding (not itself registered).

    Subclasses implement :meth:`_probe` — called once per surviving DL1 miss
    with the missed block, the block DL1 evicted for it (or ``None``), and
    the access type — returning whether the mechanism served the miss.
    """

    supports_block_runs = True

    def __init__(
        self,
        num_sets: int,
        associativity: int,
        block_size: int,
        entries: int,
        policy: Union[str, ReplacementPolicy] = ReplacementPolicy.FIFO,
        seed: int = 0,
        track_compulsory: bool = True,
    ) -> None:
        super().__init__()
        self.config = CacheConfig(
            num_sets, associativity, block_size, ReplacementPolicy.parse(policy)
        )
        if int(entries) < 1:
            raise ConfigurationError(
                f"mechanism entry count must be positive, got {entries}"
            )
        self.entries = int(entries)
        self._seed = int(seed)
        self._track_compulsory = bool(track_compulsory)
        self.dl1 = SingleConfigSimulator(
            self.config, seed=self._seed, track_compulsory=self._track_compulsory
        )
        self.mechanism_hits = 0
        self.mechanism_swaps = 0
        self.mechanism_allocations = 0
        self._misses = 0
        self._compulsory = 0
        self._last_block: Optional[int] = None

    # -- mechanism hook --------------------------------------------------------

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        """Probe the mechanism for a DL1 miss; return ``True`` when served."""
        raise NotImplementedError

    def _reset_mechanism(self) -> None:
        raise NotImplementedError

    # -- engine surface --------------------------------------------------------

    @property
    def offset_bits(self) -> int:
        return self.config.offset_bits

    def _access(self, block: int, access_type: AccessType) -> None:
        hit, evicted, compulsory = self.dl1.access_block_detail(block, access_type)
        if not hit and not self._probe(block, evicted, access_type):
            self._misses += 1
            if compulsory:
                self._compulsory += 1
        self._last_block = block

    def run_blocks(self, blocks: BlockChunk, access_types: TypeChunk = None) -> None:
        if isinstance(blocks, np.ndarray):
            blocks = blocks.tolist()
        access = self._access
        if access_types is None:
            for block in blocks:
                access(block, AccessType.READ)
            return
        if isinstance(access_types, np.ndarray):
            access_types = access_types.tolist()
        by_code = ACCESS_TYPE_BY_CODE
        for block, type_code in zip(blocks, access_types):
            access(block, by_code[type_code])

    def run_block_runs(
        self, values: BlockChunk, counts: BlockChunk, access_types: TypeChunk = None
    ) -> None:
        arr = np.asarray(values, dtype=np.int64)
        counts_arr = np.asarray(counts, dtype=np.int64)
        if counts_arr.size != arr.size:
            raise SimulationError(
                f"run-length chunk mismatch: {arr.size} values vs "
                f"{counts_arr.size} counts"
            )
        if arr.size == 0:
            return
        if counts_arr.min() < 1:
            raise SimulationError("run-length counts must be positive")
        if access_types is None:
            types = None
        else:
            types = np.asarray(access_types, dtype=np.int64)
            if types.size != arr.size:
                raise SimulationError(
                    f"run-length chunk mismatch: {arr.size} values vs "
                    f"{types.size} access types"
                )
            types = types.tolist()
        bulk_hits = self.dl1.stats.record_bulk_hits
        for index, (block, count) in enumerate(
            zip(arr.tolist(), counts_arr.tolist())
        ):
            access_type = (
                AccessType.READ if types is None else ACCESS_TYPE_BY_CODE[types[index]]
            )
            if block == self._last_block:
                # The previous access inserted (or hit) this block, so every
                # repeat — the run's head included — is a guaranteed DL1 hit
                # that never probes the mechanism.
                bulk_hits(count, access_type)
                continue
            self._access(block, access_type)
            if count > 1:
                bulk_hits(count - 1, access_type)

    def finalize(self, trace_name: str = "trace") -> SimulationResults:
        config = self.config
        frame = ResultsFrame(
            [config.num_sets],
            [config.associativity],
            [config.block_size],
            [policy_code(config.policy)],
            [self.dl1.stats.accesses],
            [self._misses],
            [self._compulsory],
            simulator_name=self.family,
            trace_name=trace_name,
            mechanism_codes=[mechanism_code(self.family)],
            mechanism_entries=[self.entries],
            mechanism_hits=[self.mechanism_hits],
            mechanism_swaps=[self.mechanism_swaps],
            mechanism_allocations=[self.mechanism_allocations],
        )
        return SimulationResults.from_frame(frame)

    def reset(self) -> None:
        self.dl1 = SingleConfigSimulator(
            self.config, seed=self._seed, track_compulsory=self._track_compulsory
        )
        self.mechanism_hits = 0
        self.mechanism_swaps = 0
        self.mechanism_allocations = 0
        self._misses = 0
        self._compulsory = 0
        self._last_block = None
        self._reset_mechanism()
        self._elapsed = 0.0


@register_engine("victim-cache")
class VictimCacheEngine(MechanismEngine):
    """DL1 plus a fully-associative victim cache of DL1 evictions.

    On a DL1 miss the victim cache is probed *after* DL1 inserts the missed
    block.  A victim-cache hit promotes the block back (removing it from the
    buffer) and — when DL1 displaced a block for it — swaps that victim into
    the buffer (``mechanism_swaps``).  A victim-cache miss files the DL1
    victim, if any, at MRU (``mechanism_allocations``), evicting the
    buffer's LRU entry to make room.
    """

    def __init__(self, *args, **options) -> None:
        super().__init__(*args, **options)
        self.buffer = FullyAssociativeBuffer(self.entries)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        buffer = self.buffer
        if block in buffer:
            self.mechanism_hits += 1
            buffer.remove(block)
            if evicted is not None:
                buffer.insert(evicted)
                self.mechanism_swaps += 1
            return True
        if evicted is not None:
            buffer.insert(evicted)
            self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffer = FullyAssociativeBuffer(self.entries)


@register_engine("miss-cache")
class MissCacheEngine(MechanismEngine):
    """DL1 plus a tags-only fully-associative miss cache.

    Every DL1 miss probes the buffer: a hit serves the miss (LRU touch,
    ``mechanism_hits``); a miss files the missed block itself at MRU
    (``mechanism_allocations``).  Swaps never occur (tags only — nothing is
    exchanged with DL1).
    """

    def __init__(self, *args, **options) -> None:
        super().__init__(*args, **options)
        self.buffer = FullyAssociativeBuffer(self.entries)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        buffer = self.buffer
        if block in buffer:
            self.mechanism_hits += 1
            buffer.touch(block)
            return True
        buffer.insert(block)
        self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffer = FullyAssociativeBuffer(self.entries)


@register_engine("stream-buffer")
class StreamBufferEngine(MechanismEngine):
    """DL1 plus N FIFO sequential-prefetch stream buffers.

    A DL1 miss head-probes every buffer (MRU first): a head hit serves the
    miss, advances that stream by one block and marks it MRU
    (``mechanism_hits``).  Otherwise a new stream starting at the next
    sequential block replaces the LRU buffer (``mechanism_allocations``) —
    but only for loads and instruction fetches: stores do not allocate
    streams, which is why this engine needs per-access types
    (:attr:`wants_access_types`).
    """

    wants_access_types = True

    def __init__(self, *args, depth: int = 4, **options) -> None:
        super().__init__(*args, **options)
        self.depth = int(depth)
        self.buffers = StreamBufferSet(self.entries, depth=self.depth)

    def _probe(
        self, block: int, evicted: Optional[int], access_type: AccessType
    ) -> bool:
        if self.buffers.probe(block):
            self.mechanism_hits += 1
            return True
        if access_type != AccessType.WRITE:
            self.buffers.allocate(block)
            self.mechanism_allocations += 1
        return False

    def _reset_mechanism(self) -> None:
        self.buffers = StreamBufferSet(self.entries, depth=self.depth)
