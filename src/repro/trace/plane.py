"""Decoded trace planes: the chunk-serving API and the one decode behind it.

The fused sweep executor never walks raw byte addresses.  It asks a
:class:`TraceChunkSource` for, per ``chunk_size`` slice of the trace, the
pre-shifted block addresses for a block size, the run-length collapse of
those blocks and the access-type codes.  Two sources implement that API:

* :class:`LocalChunkSource` — in-process decode-on-demand over a plain
  :class:`~repro.trace.trace.Trace` (the serial default);
* :class:`~repro.trace.planecache.CachedPlane` — a read-only mmap of a
  plane artifact, which is what pooled workers attach (the sweep ships
  them a few-hundred-byte descriptor, never the trace).

:func:`build_plane_arrays` is the single decode a plane artifact stores:
the address array, ``addresses >> offset_bits`` per block size, and
:func:`~repro.trace.trace.collapse_block_runs` applied chunk by chunk with
the sweep's ``chunk_size`` (runs never merge across chunk boundaries,
exactly like the local pipeline), so results, work counters and store
artifacts are identical whichever source the executor walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, collapse_block_runs

#: Array offsets inside a plane are aligned to cache-line size so numpy
#: views start on naturally-aligned addresses for every dtype we store.
_ALIGN = 64

_KEY_ADDRESSES = "addresses"
_KEY_TYPES = "types"


def _blocks_key(offset_bits: int) -> str:
    return f"blocks:{int(offset_bits)}"


def _runs_key(offset_bits: int, part: str) -> str:
    return f"runs:{int(offset_bits)}:{part}"


@dataclass(frozen=True)
class ArraySpec:
    """Location of one array inside a plane (picklable, compact)."""

    key: str
    dtype: str
    shape: Tuple[int, ...]
    offset: int


@dataclass(frozen=True)
class PlaneLayout:
    """Everything needed to rebuild zero-copy views over a plane's bytes.

    The trace's identity-for-reporting (name, length), the chunk geometry
    the decode used, and one :class:`ArraySpec` per stored array.  A layout
    pickles to a few hundred bytes regardless of trace size.
    """

    trace_name: str
    length: int
    chunk_size: int
    collapse: bool
    arrays: Tuple[ArraySpec, ...]

    def spec(self, key: str) -> Optional[ArraySpec]:
        for candidate in self.arrays:
            if candidate.key == key:
                return candidate
        return None


class TraceChunkSource:
    """Chunk-serving API the fused executor consumes.

    Implementations expose the trace sliced into ``chunk_size`` pieces and
    serve, per chunk, the pre-shifted block addresses for any block size,
    the per-chunk run-length collapse, and the access-type codes.  All
    returned arrays must be treated as read-only.
    """

    trace_name: str = "trace"
    length: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    collapse: bool = True

    @property
    def num_chunks(self) -> int:
        if self.length == 0:
            return 0
        return (self.length + self.chunk_size - 1) // self.chunk_size

    def chunk_bounds(self, chunk_index: int) -> Tuple[int, int]:
        start = chunk_index * self.chunk_size
        return start, min(start + self.chunk_size, self.length)

    def blocks(self, chunk_index: int, offset_bits: int) -> np.ndarray:
        raise NotImplementedError

    def runs(
        self, chunk_index: int, offset_bits: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError

    def types(self, chunk_index: int) -> np.ndarray:
        raise NotImplementedError


class LocalChunkSource(TraceChunkSource):
    """Decode-on-demand source over an in-process :class:`Trace`.

    One vectorised shift per (chunk, block size) and one run-length
    collapse over that same array.  A single-slot memo keeps the executor's
    access pattern (blocks then runs for the same chunk and offset) from
    shifting twice.
    """

    def __init__(self, trace: Trace, chunk_size: int = DEFAULT_CHUNK_SIZE,
                 collapse: bool = True) -> None:
        self.trace = trace
        self.trace_name = trace.name
        self.length = len(trace)
        self.chunk_size = max(int(chunk_size), 1)
        self.collapse = bool(collapse)
        self._memo_key: Optional[Tuple[int, int]] = None
        self._memo_blocks: Optional[np.ndarray] = None

    def blocks(self, chunk_index: int, offset_bits: int) -> np.ndarray:
        key = (chunk_index, int(offset_bits))
        if self._memo_key != key or self._memo_blocks is None:
            start, stop = self.chunk_bounds(chunk_index)
            self._memo_blocks = self.trace.addresses[start:stop] >> int(offset_bits)
            self._memo_key = key
        return self._memo_blocks

    def runs(
        self, chunk_index: int, offset_bits: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if not self.collapse:
            return None
        return collapse_block_runs(self.blocks(chunk_index, offset_bits))

    def types(self, chunk_index: int) -> np.ndarray:
        start, stop = self.chunk_bounds(chunk_index)
        return self.trace.access_types[start:stop]


@dataclass(frozen=True)
class DecodeRequirements:
    """What a plane must hold for one job list."""

    offsets: Tuple[int, ...]              # distinct offset_bits across jobs
    runs_offsets: Tuple[int, ...]         # offsets with a run-consuming engine
    needs_types: bool                     # any engine wants access types


def _job_offset_bits(job) -> Optional[int]:
    """The job's block-offset width, derived from its options when possible."""
    options = dict(job.options)
    block_size = options.get("block_size")
    if block_size is None:
        block_size = getattr(options.get("config"), "block_size", None)
    if block_size is None:
        return None
    block_size = int(block_size)
    if block_size <= 0 or block_size & (block_size - 1):
        return None
    return block_size.bit_length() - 1


def decode_requirements(jobs: Sequence) -> DecodeRequirements:
    """Derive the decode plan for a job list without building every engine.

    ``supports_block_runs`` and ``wants_access_types`` are class attributes,
    so the registry answers them without instantiation; ``offset_bits`` is
    ``log2(block_size)`` for every engine in the registry and is read from
    the job options.  A job whose options carry no block size (an engine
    added later with a different geometry) falls back to building one probe
    instance — correctness never depends on the fast path.
    """
    # The engine layer imports this module, so the registry is looked up
    # at call time rather than at import time.
    from repro.engine.base import get_engine_class

    offsets: Dict[int, bool] = {}
    needs_types = False
    for job in jobs:
        cls = get_engine_class(job.engine)
        offset_bits = _job_offset_bits(job)
        if offset_bits is None:
            offset_bits = int(job.build().offset_bits)
        wants_runs = bool(cls.supports_block_runs)
        offsets[offset_bits] = offsets.get(offset_bits, False) or wants_runs
        needs_types = needs_types or bool(cls.wants_access_types)
    return DecodeRequirements(
        offsets=tuple(sorted(offsets)),
        runs_offsets=tuple(sorted(o for o, runs in offsets.items() if runs)),
        needs_types=needs_types,
    )


def _chunked_runs(
    blocks: np.ndarray, length: int, chunk_size: int, num_chunks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chunk-by-chunk run-length collapse with a per-chunk splits index.

    Exactly the local pipeline's collapse (runs never merge across chunk
    boundaries); the per-chunk run slices are recovered through ``splits``.
    """
    values_parts: List[np.ndarray] = []
    counts_parts: List[np.ndarray] = []
    splits = np.zeros(num_chunks + 1, dtype=np.int64)
    for chunk_index in range(num_chunks):
        start = chunk_index * chunk_size
        stop = min(start + chunk_size, length)
        values, counts = collapse_block_runs(blocks[start:stop])
        values_parts.append(values)
        counts_parts.append(counts)
        splits[chunk_index + 1] = splits[chunk_index] + values.size
    values_all = (
        np.concatenate(values_parts) if values_parts
        else np.empty(0, dtype=np.int64)
    )
    counts_all = (
        np.concatenate(counts_parts) if counts_parts
        else np.empty(0, dtype=np.int64)
    )
    return values_all, counts_all, splits


def build_plane_arrays(
    trace: Trace,
    plan: DecodeRequirements,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    collapse: bool = True,
) -> List[Tuple[str, np.ndarray]]:
    """Decode ``trace`` once into the plane's columnar arrays.

    The raw address array, the per-block-size shift array for every offset
    in the plan, the chunk-faithful run-length arrays (values/counts plus
    splits index) for every offset with a run-consuming engine, and the
    access-type codes when any engine wants them.
    """
    chunk_size = max(int(chunk_size), 1)
    arrays: List[Tuple[str, np.ndarray]] = []
    addresses = np.ascontiguousarray(trace.addresses)
    arrays.append((_KEY_ADDRESSES, addresses))
    if plan.needs_types:
        arrays.append((_KEY_TYPES, np.ascontiguousarray(trace.access_types)))
    length = int(addresses.size)
    num_chunks = (length + chunk_size - 1) // chunk_size if length else 0
    runs_offsets = set(plan.runs_offsets) if collapse else set()
    for offset_bits in plan.offsets:
        blocks = addresses >> offset_bits
        arrays.append((_blocks_key(offset_bits), blocks))
        if offset_bits not in runs_offsets:
            continue
        values_all, counts_all, splits = _chunked_runs(
            blocks, length, chunk_size, num_chunks
        )
        arrays.append((_runs_key(offset_bits, "values"), values_all))
        arrays.append((_runs_key(offset_bits, "counts"), counts_all))
        arrays.append((_runs_key(offset_bits, "splits"), splits))
    return arrays


def layout_plane_arrays(
    arrays: Sequence[Tuple[str, np.ndarray]]
) -> Tuple[Tuple[ArraySpec, ...], int]:
    """Cache-line-aligned :class:`ArraySpec` placements and the total bytes."""
    specs: List[ArraySpec] = []
    cursor = 0
    for key, array in arrays:
        cursor = (cursor + _ALIGN - 1) // _ALIGN * _ALIGN
        specs.append(ArraySpec(key, array.dtype.str, tuple(array.shape), cursor))
        cursor += array.nbytes
    return tuple(specs), cursor
