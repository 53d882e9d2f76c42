"""Oracle tests for the mechanism engines (victim / miss cache, stream buffers).

A naive pure-python reference re-implements each mechanism with plain lists,
driven strictly one access at a time.  Hypothesis then pins the registered
engines byte-identical to the reference — emitted frame rows *and* every
mechanism counter — across geometries, policies, entry counts {2, 4, 8, 16}
and chunk sizes, and pins ``run_block_runs`` to the raw per-access walk on
adversarial run-length-heavy traces (including runs split across chunk
boundaries, which exercises the carried last-block fast path).
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.simulator import SingleConfigSimulator
from repro.core.config import CacheConfig
from repro.engine import get_engine, get_engine_class
from repro.errors import ConfigurationError, SimulationError
from repro.mechanisms import (
    MECHANISM_ENGINE_NAMES,
    FullyAssociativeBuffer,
    StreamBufferSet,
)
from repro.trace.trace import Trace
from repro.types import AccessType, ReplacementPolicy

ENTRY_COUNTS = (2, 4, 8, 16)
TYPE_CODES = (int(AccessType.READ), int(AccessType.WRITE))

#: (address, access-type) streams with a footprint small enough to thrash
#: tiny caches but large enough to cycle every buffer size under test.
ACCESSES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=255), st.sampled_from(TYPE_CODES)),
    min_size=0,
    max_size=150,
)

#: Run-length segments: (block, repeat count, head access type).  Small block
#: range + repeats up to 9 yields RLE-heavy streams whose runs regularly
#: straddle the chunk boundaries below.
RUN_SEGMENTS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=1, max_value=9),
        st.sampled_from(TYPE_CODES),
    ),
    min_size=1,
    max_size=40,
)

CHUNK_SIZES = st.sampled_from([1, 7, 1000])


class NaiveMechanismReference:
    """Per-access reference: DL1 simulator plus naive list-based mechanism state.

    Mirrors the documented mechanism semantics with the dumbest possible data
    structures — ``buffer`` is a plain list (index 0 LRU, end MRU) and
    ``streams`` a list of lists probed MRU-first — so any cleverness in
    :mod:`repro.mechanisms.buffers` or the bulk run-collapse path has an
    independent implementation to disagree with.
    """

    def __init__(
        self,
        mechanism,
        num_sets,
        associativity,
        block_size,
        entries,
        policy="fifo",
        depth=4,
        seed=0,
    ):
        self.mechanism = mechanism
        self.entries = entries
        self.depth = depth
        self.dl1 = SingleConfigSimulator(
            CacheConfig(
                num_sets, associativity, block_size, ReplacementPolicy.parse(policy)
            ),
            seed=seed,
            track_compulsory=True,
        )
        self.buffer = []
        self.streams = []
        self.misses = 0
        self.compulsory = 0
        self.hits = 0
        self.swaps = 0
        self.allocations = 0

    def access(self, address, access_type=AccessType.READ):
        self.access_block(address >> self.dl1.config.offset_bits, access_type)

    def access_block(self, block, access_type=AccessType.READ):
        hit, evicted, compulsory = self.dl1.access_block_detail(block, access_type)
        if hit or self._probe(block, evicted, access_type):
            return
        self.misses += 1
        if compulsory:
            self.compulsory += 1

    def _file(self, block):
        if block in self.buffer:
            self.buffer.remove(block)
        elif len(self.buffer) >= self.entries:
            del self.buffer[0]
        self.buffer.append(block)

    def _probe(self, block, evicted, access_type):
        if self.mechanism == "victim-cache":
            if block in self.buffer:
                self.hits += 1
                self.buffer.remove(block)
                if evicted is not None:
                    self._file(evicted)
                    self.swaps += 1
                return True
            if evicted is not None:
                self._file(evicted)
                self.allocations += 1
            return False
        if self.mechanism == "miss-cache":
            if block in self.buffer:
                self.hits += 1
                self.buffer.remove(block)
                self.buffer.append(block)
                return True
            self._file(block)
            self.allocations += 1
            return False
        assert self.mechanism == "stream-buffer"
        for index in range(len(self.streams) - 1, -1, -1):
            stream = self.streams[index]
            if stream and stream[0] == block:
                self.hits += 1
                del stream[0]
                stream.append(block + self.depth)
                self.streams.append(self.streams.pop(index))
                return True
        if access_type != AccessType.WRITE:
            if len(self.streams) >= self.entries:
                del self.streams[0]
            self.streams.append([block + offset for offset in range(1, self.depth + 1)])
            self.allocations += 1
        return False


def _assert_frame_matches_reference(engine, reference, mechanism, entries):
    frame = engine.finalize("oracle").frame()
    assert len(frame) == 1
    assert frame.mechanism_at(0) == mechanism
    assert int(frame.mechanism_entries[0]) == entries
    observed = {
        "accesses": int(frame.accesses[0]),
        "misses": int(frame.misses[0]),
        "compulsory": int(frame.compulsory[0]),
        "mechanism_hits": int(frame.mechanism_hits[0]),
        "mechanism_swaps": int(frame.mechanism_swaps[0]),
        "mechanism_allocations": int(frame.mechanism_allocations[0]),
    }
    expected = {
        "accesses": reference.dl1.stats.accesses,
        "misses": reference.misses,
        "compulsory": reference.compulsory,
        "mechanism_hits": reference.hits,
        "mechanism_swaps": reference.swaps,
        "mechanism_allocations": reference.allocations,
    }
    assert observed == expected


class TestOracleParity:
    @given(
        accesses=ACCESSES,
        mechanism=st.sampled_from(MECHANISM_ENGINE_NAMES),
        entries=st.sampled_from(ENTRY_COUNTS),
        block_size_log2=st.integers(min_value=0, max_value=3),
        num_sets=st.sampled_from([1, 2, 4]),
        associativity=st.sampled_from([1, 2]),
        policy=st.sampled_from(["fifo", "lru"]),
        chunk_size=CHUNK_SIZES,
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_engine_matches_naive_reference(
        self,
        accesses,
        mechanism,
        entries,
        block_size_log2,
        num_sets,
        associativity,
        policy,
        chunk_size,
    ):
        addresses = [address for address, _ in accesses]
        types = [code for _, code in accesses]
        options = dict(
            num_sets=num_sets,
            associativity=associativity,
            block_size=1 << block_size_log2,
            entries=entries,
            policy=policy,
        )
        engine = get_engine(mechanism, **options)
        engine.run(Trace(addresses, types, name="oracle"), chunk_size=chunk_size)
        reference = NaiveMechanismReference(mechanism, **options)
        # Engines without wants_access_types never see the type stream, so
        # the reference must replay the same all-reads view they simulated.
        wants = get_engine_class(mechanism).wants_access_types
        for address, code in zip(addresses, types):
            reference.access(address, AccessType(code) if wants else AccessType.READ)
        _assert_frame_matches_reference(engine, reference, mechanism, entries)

    @given(
        segments=RUN_SEGMENTS,
        mechanism=st.sampled_from(MECHANISM_ENGINE_NAMES),
        entries=st.sampled_from(ENTRY_COUNTS),
        chunk_size=st.sampled_from([1, 3, 5, 1000]),
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    def test_block_runs_match_raw_walk(self, segments, mechanism, entries, chunk_size):
        """Collapsed (values, counts) chunks are byte-identical to the raw walk.

        Chunks are re-run-length-encoded per slice exactly like the fused
        executor does, so runs split across chunk boundaries hit the carried
        ``_last_block`` all-hits path.
        """
        blocks = np.repeat(
            [block for block, _, _ in segments], [count for _, count, _ in segments]
        ).astype(np.int64)
        expanded_types = np.repeat(
            [code for _, _, code in segments], [count for _, count, _ in segments]
        ).astype(np.int8)
        options = dict(
            num_sets=2, associativity=2, block_size=4, entries=entries, policy="fifo"
        )
        raw = get_engine(mechanism, **options)
        collapsed = get_engine(mechanism, **options)
        wants = raw.wants_access_types
        for start in range(0, blocks.size, chunk_size):
            chunk = blocks[start : start + chunk_size]
            type_chunk = expanded_types[start : start + chunk_size]
            raw.run_blocks(chunk, type_chunk if wants else None)
            boundaries = np.flatnonzero(np.diff(chunk)) + 1
            starts = np.concatenate(([0], boundaries))
            values = chunk[starts]
            counts = np.diff(np.concatenate((starts, [chunk.size])))
            if wants:
                collapsed.run_block_runs(values, counts, type_chunk[starts])
            else:
                collapsed.run_block_runs(values, counts)
        assert collapsed.finalize("runs").frame() == raw.finalize("runs").frame()


class TestDeterministicPins:
    def _thrash_engine(self, mechanism, entries=2):
        # 1-set direct-mapped DL1 with 1-byte blocks: every distinct address
        # is a distinct block and any two alternating blocks thrash DL1.
        return get_engine(
            mechanism, num_sets=1, associativity=1, block_size=1, entries=entries
        )

    def test_victim_cache_swap_cycle(self):
        engine = self._thrash_engine("victim-cache")
        engine.run_blocks([0, 1] * 4)
        frame = engine.finalize("pin").frame()
        assert int(frame.accesses[0]) == 8
        assert int(frame.misses[0]) == 2
        assert int(frame.compulsory[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 6
        assert int(frame.mechanism_allocations[0]) == 1

    def test_miss_cache_thrash(self):
        engine = self._thrash_engine("miss-cache")
        engine.run_blocks([0, 1] * 4)
        frame = engine.finalize("pin").frame()
        assert int(frame.misses[0]) == 2
        assert int(frame.mechanism_hits[0]) == 6
        assert int(frame.mechanism_swaps[0]) == 0
        assert int(frame.mechanism_allocations[0]) == 2

    def test_stream_buffer_sequential_stream(self):
        engine = self._thrash_engine("stream-buffer", entries=1)
        engine.run_blocks(list(range(10)))
        frame = engine.finalize("pin").frame()
        assert int(frame.misses[0]) == 1
        assert int(frame.mechanism_hits[0]) == 9
        assert int(frame.mechanism_allocations[0]) == 1

    def test_stream_buffer_write_does_not_allocate(self):
        engine = self._thrash_engine("stream-buffer")
        engine.run_blocks([0], [int(AccessType.WRITE)])
        assert engine.mechanism_allocations == 0
        engine.run_blocks([64], [int(AccessType.READ)])
        assert engine.mechanism_allocations == 1

    def test_run_split_across_calls_matches_raw(self):
        options = dict(num_sets=1, associativity=1, block_size=1, entries=4)
        collapsed = get_engine("victim-cache", **options)
        collapsed.run_block_runs([5], [3])
        collapsed.run_block_runs([5, 6], [2, 1])
        raw = get_engine("victim-cache", **options)
        raw.run_blocks([5, 5, 5, 5, 5, 6])
        assert collapsed.finalize("split").frame() == raw.finalize("split").frame()

    def test_reset_restores_a_fresh_engine(self):
        engine = self._thrash_engine("victim-cache")
        engine.run_blocks([0, 1, 0, 1])
        engine.reset()
        engine.run_blocks([0, 1] * 4)
        assert int(engine.finalize("pin").frame().mechanism_swaps[0]) == 6


class TestValidation:
    @pytest.mark.parametrize("mechanism", MECHANISM_ENGINE_NAMES)
    def test_entries_must_be_positive(self, mechanism):
        with pytest.raises(ConfigurationError, match="positive"):
            get_engine(
                mechanism, num_sets=1, associativity=1, block_size=4, entries=0
            )

    def test_run_length_size_mismatch_rejected(self):
        engine = get_engine(
            "miss-cache", num_sets=1, associativity=1, block_size=4, entries=2
        )
        with pytest.raises(SimulationError, match="mismatch"):
            engine.run_block_runs([1, 2], [1])
        with pytest.raises(SimulationError, match="positive"):
            engine.run_block_runs([1], [0])

    def test_stream_buffer_type_mismatch_rejected(self):
        engine = get_engine(
            "stream-buffer", num_sets=1, associativity=1, block_size=4, entries=2
        )
        with pytest.raises(SimulationError, match="access types"):
            engine.run_block_runs([1, 2], [1, 1], [0])


class TestBufferStructures:
    def test_fully_associative_lru_order(self):
        buffer = FullyAssociativeBuffer(2)
        assert buffer.insert(1) is None
        assert buffer.insert(2) is None
        assert buffer.insert(1) is None  # refresh, no eviction
        assert buffer.resident_blocks() == [2, 1]
        assert buffer.insert(3) == 2  # LRU evicted
        buffer.touch(1)
        assert buffer.resident_blocks() == [3, 1]
        buffer.remove(3)
        assert 3 not in buffer and len(buffer) == 1
        buffer.reset()
        assert len(buffer) == 0

    def test_fully_associative_rejects_zero_entries(self):
        with pytest.raises(ConfigurationError):
            FullyAssociativeBuffer(0)

    def test_stream_buffer_set_probes_mru_first(self):
        buffers = StreamBufferSet(2, depth=1)
        buffers.allocate(4)  # stream A: head 5
        buffers.allocate(4)  # stream B: head 5, MRU
        assert buffers.probe(5) is True
        # The MRU stream consumed its head and advanced; LRU stream intact.
        assert buffers.heads() == [5, 6]

    def test_stream_buffer_set_replaces_lru(self):
        buffers = StreamBufferSet(2, depth=2)
        buffers.allocate(0)  # heads [1]
        buffers.allocate(10)  # heads [1, 11]
        buffers.allocate(20)  # LRU (head 1) replaced
        assert buffers.heads() == [11, 21]
        buffers.reset()
        assert len(buffers) == 0

    def test_stream_buffer_set_validation(self):
        with pytest.raises(ConfigurationError):
            StreamBufferSet(0)
        with pytest.raises(ConfigurationError):
            StreamBufferSet(1, depth=0)
