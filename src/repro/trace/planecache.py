"""Content-addressed on-disk cache of decoded trace planes.

Every sweep surface — ``repro-dew sweep``, ``submit``, the service daemons —
historically re-paid the same two costs per run over the same trace file: the
text parse (``.din``/CSV/hex to packed arrays) and the decode (per-block-size
shifts plus the chunk-faithful run-length collapse, see
:mod:`repro.trace.plane`).  This module removes them *across* runs and
processes: the first sweep over a trace decodes once and persists the plane,
every later sweep — in any process, on any daemon sharing the cache
directory — ``mmap``-attaches the artifact and never touches the text file
again.  Within one pooled sweep the same artifact is the fan-out: workers
receive a :class:`CachedPlaneDescriptor` and map the file, and a sweep
without a cache writes its plane to a throwaway :func:`ephemeral_plane`.

This is the result store's idea applied one level down.  The layout mirrors
:mod:`repro.store.resultstore` deliberately::

    <root>/planecache.json                  {"schema": 1, "format": "trace-plane"}
    <root>/objects/<d[:2]>/<d>.plane        one decoded plane, d = key digest
    <root>/fingerprints/<p[:2]>/<p>.json    trace-fingerprint sidecars,
                                            p = sha256(absolute trace path)

An artifact is addressed by :class:`PlaneKey` — the SHA-256 of ``(trace
fingerprint, chunk size, collapse flag, decode requirements)`` — so two job
grids with the same decode plan share one artifact, and a changed trace can
never alias a stale plane.  The same durability rules as the store apply:
writes go through the atomic temp-plus-``os.replace`` primitive, corruption
(bad magic, unknown schema, truncation, mismatched digest) is treated as a
miss and overwritten by the next put, and concurrent writers race benignly
(both produce byte-identical content; ``os.replace`` is atomic).

**Artifact format.**  ``numpy``'s ``.npz`` cannot be memory-mapped (members
sit inside a zip), so the plane artifact is a flat file with the same
spirit: a magic preamble, an ASCII JSON header (schema version, plane key,
array directory, payload SHA-256) and the raw array bytes, each array
starting on a 64-byte-aligned offset.  Attaching validates only the header
and the total size, then maps the file read-only — a warm sweep faults in
only the pages it actually walks (``mmap_mode="r"`` semantics), and the
payload hash is re-checked by the explicit ``trace cache verify`` pass, the
exact get-vs-verify split the result store uses.

**Fingerprint sidecars.**  Hashing a multi-million-access trace to compute
its content fingerprint costs a full pass over the arrays.  The cache keeps
one tiny JSON sidecar per trace *path*, validated by ``(path, mtime_ns,
size)``: a warm submission or daemon job reads the fingerprint from the
sidecar and skips the hash (and, with a cached plane, the entire load).
Sidecars are only ever written from fingerprints computed off the actual
file contents, so a stale sidecar requires an mtime-and-size-preserving
in-place rewrite — the standard build-system staleness tradeoff.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import EngineError, StoreError
from repro.obs.metrics import component_snapshot, get_registry
from repro.store.manage import (
    STATUS_CORRUPT,
    STATUS_FOREIGN,
    STATUS_MIS_ADDRESSED,
    STATUS_OK,
    STATUS_TEMP,
    STREAM_CHUNK_BYTES,
    ArtifactRecord,
    GcReport,
    VerifyReport,
    _DIGEST_RE,
    collect_garbage,
)
from repro.store.resultstore import _atomic_replace
from repro.trace.plane import (
    _KEY_ADDRESSES,
    _KEY_TYPES,
    ArraySpec,
    DecodeRequirements,
    PlaneLayout,
    TraceChunkSource,
    _blocks_key,
    _runs_key,
    build_plane_arrays,
    decode_requirements,
    layout_plane_arrays,
)
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace, collapse_block_runs

#: Version of the cache directory layout and plane artifact envelope.
PLANE_SCHEMA_VERSION = 1

#: Artifact schema versions this build can attach; unknown versions are
#: treated as a miss (mirroring the ResultsFrame readable-schemas idiom), so
#: a cache shared between builds degrades to re-decoding, never to misreads.
_READABLE_SCHEMAS = (1,)

_MANIFEST_NAME = "planecache.json"
_OBJECTS_DIR = "objects"
_FINGERPRINTS_DIR = "fingerprints"
_PLANE_SUFFIX = ".plane"

#: Artifact preamble: 12 magic bytes then a little-endian uint32 header size.
_MAGIC = b"REPROPLANE1\n"
_PREAMBLE = struct.Struct("<12sI")

#: Headers beyond this are corrupt by definition (a real header is ~1 KiB).
_MAX_HEADER_BYTES = 1 << 24

#: Payload bytes start on the first 64-byte boundary past the header, so
#: every array offset inherits the plane layout's cache-line alignment.
_PAYLOAD_ALIGN = 64


def _align(value: int) -> int:
    return (value + _PAYLOAD_ALIGN - 1) // _PAYLOAD_ALIGN * _PAYLOAD_ALIGN


@dataclass(frozen=True)
class PlaneKey:
    """Content address of one decoded plane.

    Identity is the trace's content fingerprint plus everything that shapes
    the decoded arrays: the chunk geometry, whether runs were collapsed, the
    block-size shift set, the run-carrying shift set and whether access
    types ride along.  Nothing positional (no paths, no timestamps) — the
    same trace content under any filename reuses one artifact.
    """

    fingerprint: str
    chunk_size: int
    collapse: bool
    offsets: Tuple[int, ...]
    runs_offsets: Tuple[int, ...]
    needs_types: bool

    @classmethod
    def from_plan(
        cls,
        fingerprint: str,
        plan: DecodeRequirements,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        collapse: bool = True,
    ) -> "PlaneKey":
        """Build a key from an already-derived decode plan."""
        collapse = bool(collapse)
        return cls(
            fingerprint=str(fingerprint),
            chunk_size=max(int(chunk_size), 1),
            collapse=collapse,
            offsets=tuple(int(o) for o in plan.offsets),
            runs_offsets=tuple(int(o) for o in plan.runs_offsets) if collapse else (),
            needs_types=bool(plan.needs_types),
        )

    @classmethod
    def make(
        cls,
        fingerprint: str,
        jobs: Sequence,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        collapse: bool = True,
    ) -> "PlaneKey":
        """Build a key for a job list (derives the decode plan from it)."""
        return cls.from_plan(
            fingerprint, decode_requirements(jobs), chunk_size, collapse
        )

    def plan(self) -> DecodeRequirements:
        """The decode requirements this key pins."""
        return DecodeRequirements(
            offsets=self.offsets,
            runs_offsets=self.runs_offsets,
            needs_types=self.needs_types,
        )

    @property
    def digest(self) -> str:
        """SHA-256 hex digest addressing this key's artifact."""
        payload = json.dumps(
            {
                "schema": PLANE_SCHEMA_VERSION,
                "trace": self.fingerprint,
                "chunk_size": self.chunk_size,
                "collapse": self.collapse,
                "offsets": list(self.offsets),
                "runs_offsets": list(self.runs_offsets),
                "types": self.needs_types,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("ascii")).hexdigest()

    def describe(self) -> Dict[str, object]:
        """JSON-able key description embedded into artifacts for integrity."""
        return {
            "digest": self.digest,
            "fingerprint": self.fingerprint,
            "chunk_size": self.chunk_size,
            "collapse": self.collapse,
            "offsets": list(self.offsets),
            "runs_offsets": list(self.runs_offsets),
            "needs_types": self.needs_types,
        }

    @classmethod
    def from_description(cls, info: Dict[str, object]) -> "PlaneKey":
        """Rebuild a key from an artifact header's embedded description."""
        return cls(
            fingerprint=str(info.get("fingerprint", "")),
            chunk_size=max(int(info.get("chunk_size", DEFAULT_CHUNK_SIZE)), 1),
            collapse=bool(info.get("collapse", True)),
            offsets=tuple(int(o) for o in info.get("offsets", ())),
            runs_offsets=tuple(int(o) for o in info.get("runs_offsets", ())),
            needs_types=bool(info.get("needs_types", False)),
        )


@dataclass(frozen=True)
class CachedPlaneDescriptor:
    """Everything a pool worker needs to re-attach a cached plane.

    A few hundred pickled bytes instead of the trace, and every worker's
    private mapping shares one page-cache copy of the artifact.
    """

    path: str
    layout: PlaneLayout
    key: PlaneKey


class CachedPlane(TraceChunkSource):
    """A read-only mmap attachment of one cached plane artifact.

    A drop-in :class:`~repro.trace.plane.TraceChunkSource`: the fused
    executor walks it exactly as it walks an in-process trace.  The mapping
    is ``ACCESS_READ``: the kernel faults pages in lazily as the executor
    walks them, and any write through a view raises.  The plane also
    carries the decoded trace's content fingerprint, so ``run_sweep`` and
    the service daemon can key the result store — and skip loading the
    trace entirely — from the plane alone.
    """

    def __init__(
        self,
        layout: PlaneLayout,
        path: Union[str, os.PathLike],
        key: PlaneKey,
    ) -> None:
        self.layout = layout
        self.trace_name = layout.trace_name
        self.length = layout.length
        self.chunk_size = layout.chunk_size
        self.collapse = layout.collapse
        self.path = Path(path)
        self.key = key
        with open(path, "rb") as handle:
            self._mmap = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._buf: Optional[memoryview] = memoryview(self._mmap)
        self._views: Dict[str, np.ndarray] = {}

    # -- array access ---------------------------------------------------------

    def _array(self, key: str) -> Optional[np.ndarray]:
        view = self._views.get(key)
        if view is not None:
            return view
        spec = self.layout.spec(key)
        if spec is None:
            return None
        if self._buf is None:
            raise StoreError(f"cached trace plane {self.path} is closed")
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=self._buf, offset=spec.offset,
        )
        view.setflags(write=False)
        self._views[key] = view
        return view

    def blocks(self, chunk_index: int, offset_bits: int) -> np.ndarray:
        start, stop = self.chunk_bounds(chunk_index)
        stored = self._array(_blocks_key(offset_bits))
        if stored is not None:
            return stored[start:stop]
        # Safety net for offsets outside the plane's plan: derive from the
        # always-stored address array (still zero-copy reads, one shift).
        addresses = self._array(_KEY_ADDRESSES)
        if addresses is None:  # pragma: no cover - addresses are always stored
            raise EngineError("cached trace plane holds no address array")
        return addresses[start:stop] >> int(offset_bits)

    def runs(
        self, chunk_index: int, offset_bits: int
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if not self.collapse:
            return None
        splits = self._array(_runs_key(offset_bits, "splits"))
        if splits is None:
            # Offset outside the plane's run plan: collapse locally so the
            # executor's behaviour (and results) never depend on the plan.
            return collapse_block_runs(self.blocks(chunk_index, offset_bits))
        values = self._array(_runs_key(offset_bits, "values"))
        counts = self._array(_runs_key(offset_bits, "counts"))
        assert values is not None and counts is not None
        start, stop = int(splits[chunk_index]), int(splits[chunk_index + 1])
        return values[start:stop], counts[start:stop]

    def types(self, chunk_index: int) -> np.ndarray:
        stored = self._array(_KEY_TYPES)
        if stored is None:
            raise EngineError(
                "cached trace plane was decoded without access types; "
                "re-decode with a job list that wants them"
            )
        start, stop = self.chunk_bounds(chunk_index)
        return stored[start:stop]

    # -- identity and lifecycle -----------------------------------------------

    def fingerprint(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> str:
        """The cached trace's content digest (no hashing — it rode the key)."""
        return self.key.fingerprint

    def descriptor(self) -> CachedPlaneDescriptor:
        """The compact re-attach descriptor to ship to pool workers."""
        return CachedPlaneDescriptor(
            path=str(self.path), layout=self.layout, key=self.key
        )

    @classmethod
    def attach(cls, descriptor: CachedPlaneDescriptor) -> "CachedPlane":
        """Worker-side re-attach from a descriptor (raises StoreError)."""
        try:
            return cls(descriptor.layout, descriptor.path, descriptor.key)
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"could not attach cached trace plane {descriptor.path}: {exc}"
            ) from exc

    def close(self) -> None:
        """Drop the mapping (views first, so the mmap can actually close)."""
        self._views.clear()
        buf, self._buf = self._buf, None
        if buf is None:
            return
        try:
            buf.release()
            self._mmap.close()
        except BufferError:  # pragma: no cover - a caller leaked a view
            # The mapping stays until process exit; an unlinked artifact's
            # disk space is reclaimed regardless.
            pass

    def __enter__(self) -> "CachedPlane":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _read_header(path: Path) -> Tuple[Dict[str, object], int, int]:
    """Parse an artifact's preamble and JSON header.

    Returns ``(header, payload_base, file_size)``; raises
    :class:`~repro.errors.StoreError` on any malformation.  Unknown *extra*
    header fields and arrays are tolerated (forward compatibility within a
    readable schema); unknown schema versions are not.
    """
    try:
        with open(path, "rb") as handle:
            preamble = handle.read(_PREAMBLE.size)
            if len(preamble) != _PREAMBLE.size:
                raise StoreError(f"plane artifact {path} is truncated")
            magic, header_bytes = _PREAMBLE.unpack(preamble)
            if magic != _MAGIC:
                raise StoreError(f"plane artifact {path} has a bad magic preamble")
            if not 0 < header_bytes <= _MAX_HEADER_BYTES:
                raise StoreError(
                    f"plane artifact {path} declares an implausible header size"
                )
            blob = handle.read(header_bytes)
            if len(blob) != header_bytes:
                raise StoreError(f"plane artifact {path} is truncated")
            file_size = os.fstat(handle.fileno()).st_size
    except FileNotFoundError:
        # Absence is a plain miss, never corruption — let the caller count it.
        raise
    except OSError as exc:
        raise StoreError(f"could not read plane artifact {path}: {exc}") from exc
    try:
        header = json.loads(blob.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise StoreError(f"plane artifact {path} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise StoreError(f"plane artifact {path} has a malformed header")
    schema = header.get("schema")
    if schema not in _READABLE_SCHEMAS:
        raise StoreError(
            f"plane artifact {path} uses schema {schema!r}; "
            f"this build reads versions {_READABLE_SCHEMAS}"
        )
    payload_base = _align(_PREAMBLE.size + header_bytes)
    try:
        payload_bytes = int(header["payload_bytes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"plane artifact {path} has a malformed header") from exc
    if file_size != payload_base + payload_bytes:
        raise StoreError(
            f"plane artifact {path} is {file_size} bytes; header promises "
            f"{payload_base + payload_bytes}"
        )
    return header, payload_base, file_size


def _layout_from_header(
    path: Path,
    header: Dict[str, object],
    payload_base: int,
    file_size: int,
    trace_name: Optional[str],
) -> Tuple[PlaneLayout, PlaneKey]:
    """Turn a validated header into an attachable layout (bounds-checked)."""
    try:
        key = PlaneKey.from_description(header.get("key", {}))
        specs: List[ArraySpec] = []
        for entry in header["arrays"]:
            spec = ArraySpec(
                key=str(entry["key"]),
                dtype=str(entry["dtype"]),
                shape=tuple(int(axis) for axis in entry["shape"]),
                offset=payload_base + int(entry["offset"]),
            )
            nbytes = int(np.dtype(spec.dtype).itemsize)
            for axis in spec.shape:
                nbytes *= axis
            if spec.offset < payload_base or spec.offset + nbytes > file_size:
                raise StoreError(
                    f"plane artifact {path} array {spec.key!r} exceeds the file"
                )
            specs.append(spec)
        layout = PlaneLayout(
            trace_name=(
                str(trace_name)
                if trace_name is not None
                else str(header.get("trace_name", "trace"))
            ),
            length=int(header["length"]),
            chunk_size=key.chunk_size,
            collapse=key.collapse,
            arrays=tuple(specs),
        )
    except StoreError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"plane artifact {path} has a malformed header") from exc
    return layout, key


class TracePlaneCache:
    """A directory of content-addressed decoded-plane artifacts.

    Construct via :func:`open_plane_cache`.  Lookup statistics (``hits``,
    ``misses``, ``corrupt``, ``puts`` plus the sidecar split) accumulate per
    instance — the service daemon surfaces them through its heartbeat so
    ``queue stats`` can show how much decoding the fleet skipped.
    """

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.hit_count = 0
        self.miss_count = 0
        self.corrupt_count = 0
        self.put_count = 0
        self.sidecar_hit_count = 0
        self.sidecar_miss_count = 0
        # Process-wide named instruments alongside the per-instance ints:
        # the registry totals ride daemon heartbeats for fleet aggregation.
        registry = get_registry()
        self._metric_hits = registry.counter(
            "plane_cache_hits_total", "decoded planes attached from the cache"
        )
        self._metric_misses = registry.counter(
            "plane_cache_misses_total", "plane lookups with no artifact"
        )
        self._metric_corrupt = registry.counter(
            "plane_cache_corrupt_total", "unreadable plane artifacts (read as misses)"
        )
        self._metric_puts = registry.counter(
            "plane_cache_puts_total", "decoded planes persisted"
        )
        self._metric_sidecar_hits = registry.counter(
            "plane_cache_sidecar_hits_total", "fingerprints served from sidecars"
        )
        self._metric_sidecar_misses = registry.counter(
            "plane_cache_sidecar_misses_total", "fingerprint sidecar misses"
        )

    # -- accounting -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Lookup/write accounting accumulated by this instance."""
        return {
            "hits": self.hit_count,
            "misses": self.miss_count,
            "corrupt": self.corrupt_count,
            "puts": self.put_count,
            "sidecar_hits": self.sidecar_hit_count,
            "sidecar_misses": self.sidecar_miss_count,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The unified per-component stats shape (see
        :func:`repro.obs.metrics.component_snapshot`); ``counters`` carries
        exactly the legacy :meth:`stats` keys."""
        return component_snapshot("trace_plane_cache", self.stats())

    # -- addressing -----------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / _OBJECTS_DIR

    def path_for(self, key: Union[PlaneKey, str]) -> Path:
        """Filesystem path of the artifact addressed by ``key`` (or digest)."""
        digest = key if isinstance(key, str) else key.digest
        return self.objects_dir / digest[:2] / (digest + _PLANE_SUFFIX)

    def contains(self, key: PlaneKey) -> bool:
        """Whether an artifact exists under ``key`` (without validating it)."""
        return self.path_for(key).is_file()

    __contains__ = contains

    def artifact_paths(self) -> List[Path]:
        """All plane artifacts currently in the cache (sorted, deterministic)."""
        objects = self.objects_dir
        if not objects.is_dir():
            return []
        return [
            path
            for path in sorted(objects.glob("*/*" + _PLANE_SUFFIX))
            if not path.name.startswith(".")
        ]

    def __len__(self) -> int:
        return len(self.artifact_paths())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TracePlaneCache({str(self.root)!r}, {len(self)} planes)"

    # -- read/write -----------------------------------------------------------

    def _attach(self, key: PlaneKey, trace_name: Optional[str]) -> CachedPlane:
        """Header-validate and mmap the artifact for ``key`` (may raise)."""
        path = self.path_for(key)
        header, payload_base, file_size = _read_header(path)
        embedded = header.get("key", {})
        if not isinstance(embedded, dict) or embedded.get("digest") != key.digest:
            raise StoreError(
                f"plane artifact {path} embeds a different key than its address"
            )
        layout, _ = _layout_from_header(
            path, header, payload_base, file_size, trace_name
        )
        return CachedPlane(layout, path, key)

    def get(
        self, key: PlaneKey, trace_name: Optional[str] = None
    ) -> Optional[CachedPlane]:
        """Attach the cached plane for ``key``, or ``None`` on miss.

        Corruption of any kind — bad magic, unknown schema, truncation, a
        key that does not match the address — counts in ``corrupt_count``
        and reads as a miss; the caller re-decodes and the next put
        overwrites the bad artifact.  ``trace_name`` overrides the stored
        reporting name (the artifact is shared by every path holding the
        same content, so the caller's basename wins over the writer's).
        """
        try:
            plane = self._attach(key, trace_name)
        except FileNotFoundError:
            self.miss_count += 1
            self._metric_misses.inc()
            return None
        except (StoreError, OSError, ValueError):
            self.corrupt_count += 1
            self._metric_corrupt.inc()
            return None
        self.hit_count += 1
        self._metric_hits.inc()
        return plane

    def put(self, key: PlaneKey, trace: Trace) -> Path:
        """Decode and persist the plane for ``key`` atomically; returns the path.

        Concurrent writers race benignly: both temp files hold
        byte-identical payloads and ``os.replace`` installs whichever
        finishes last.
        """
        arrays = build_plane_arrays(trace, key.plan(), key.chunk_size, key.collapse)
        trace_name = trace.name
        specs, payload_bytes = layout_plane_arrays(arrays)

        contiguous = [np.ascontiguousarray(array) for _, array in arrays]
        digest = hashlib.sha256()
        cursor = 0
        for spec, array in zip(specs, contiguous):
            digest.update(b"\0" * (spec.offset - cursor))
            digest.update(array.data.cast("B"))
            cursor = spec.offset + array.nbytes

        header = {
            "schema": PLANE_SCHEMA_VERSION,
            "key": key.describe(),
            "trace_name": trace_name,
            "length": int(arrays[0][1].size),
            "arrays": [
                {
                    "key": spec.key,
                    "dtype": spec.dtype,
                    "shape": list(spec.shape),
                    "offset": spec.offset,
                }
                for spec in specs
            ],
            "payload_bytes": payload_bytes,
            "payload_sha256": digest.hexdigest(),
        }
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
        payload_base = _align(_PREAMBLE.size + len(blob))

        def write(handle) -> None:
            handle.write(_PREAMBLE.pack(_MAGIC, len(blob)))
            handle.write(blob)
            handle.write(b"\0" * (payload_base - _PREAMBLE.size - len(blob)))
            position = 0
            for spec, array in zip(specs, contiguous):
                handle.write(b"\0" * (spec.offset - position))
                handle.write(array.data.cast("B"))
                position = spec.offset + array.nbytes

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_replace(path, write, prefix=".tmp-" + key.digest[:8] + "-")
        self.put_count += 1
        self._metric_puts.inc()
        return path

    def ensure(
        self,
        trace: Trace,
        jobs: Sequence,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        collapse: bool = True,
    ) -> CachedPlane:
        """Attach the plane for ``(trace, jobs)``, decoding and caching on miss."""
        key = PlaneKey.make(trace.fingerprint(), jobs, chunk_size, collapse)
        plane = self.get(key, trace_name=trace.name)
        if plane is not None:
            return plane
        self.put(key, trace=trace)
        return self._attach(key, trace.name)

    # -- fingerprint sidecars -------------------------------------------------

    def _sidecar_path(self, trace_path: Union[str, os.PathLike]) -> Path:
        digest = hashlib.sha256(
            os.path.abspath(os.fspath(trace_path)).encode("utf-8")
        ).hexdigest()
        return self.root / _FINGERPRINTS_DIR / digest[:2] / (digest + ".json")

    def cached_fingerprint(
        self, trace_path: Union[str, os.PathLike]
    ) -> Optional[str]:
        """The trace file's fingerprint, if a sidecar matches its stat identity.

        Validated against the file's current ``(mtime_ns, size)``; any
        mismatch, missing sidecar or unreadable payload is a (counted) miss.
        """
        try:
            stat = os.stat(trace_path)
            payload = json.loads(
                self._sidecar_path(trace_path).read_text(encoding="utf-8")
            )
            if (
                int(payload["mtime_ns"]) == stat.st_mtime_ns
                and int(payload["size"]) == stat.st_size
            ):
                fingerprint = str(payload["fingerprint"])
                if _DIGEST_RE.match(fingerprint):
                    self.sidecar_hit_count += 1
                    self._metric_sidecar_hits.inc()
                    return fingerprint
        except (OSError, ValueError, KeyError, TypeError):
            pass
        self.sidecar_miss_count += 1
        self._metric_sidecar_misses.inc()
        return None

    def record_fingerprint(
        self, trace_path: Union[str, os.PathLike], fingerprint: str
    ) -> None:
        """Persist a sidecar binding the file's stat identity to ``fingerprint``.

        Only call with a fingerprint computed from the file's actual
        contents (``load_trace_file`` does); best-effort — a failed write
        just means the next run hashes again.
        """
        try:
            stat = os.stat(trace_path)
        except OSError:
            return
        payload = {
            "schema": 1,
            "path": os.path.abspath(os.fspath(trace_path)),
            "mtime_ns": stat.st_mtime_ns,
            "size": stat.st_size,
            "fingerprint": str(fingerprint),
        }
        sidecar = self._sidecar_path(trace_path)
        try:
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            _atomic_replace(
                sidecar,
                lambda handle: json.dump(payload, handle, sort_keys=True),
                mode="w",
                prefix=".tmp-sidecar-",
            )
        except (OSError, StoreError):
            pass


def open_plane_cache(path: Union[str, os.PathLike]) -> TracePlaneCache:
    """Open (creating if necessary) the plane cache rooted at ``path``.

    The root gains a ``planecache.json`` manifest recording the schema
    version; re-opening a cache written by an incompatible build raises
    :class:`~repro.errors.StoreError` instead of misreading it.
    """
    root = Path(path)
    manifest_path = root / _MANIFEST_NAME
    try:
        (root / _OBJECTS_DIR).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise StoreError(f"could not create trace plane cache at {root}: {exc}") from exc
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        except (OSError, ValueError) as exc:
            raise StoreError(
                f"unreadable plane cache manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("schema") != PLANE_SCHEMA_VERSION:
            raise StoreError(
                f"trace plane cache at {root} uses schema {manifest.get('schema')!r}; "
                f"this build reads version {PLANE_SCHEMA_VERSION}"
            )
    else:
        manifest = {"schema": PLANE_SCHEMA_VERSION, "format": "trace-plane"}
        _atomic_replace(
            manifest_path,
            lambda handle: json.dump(manifest, handle, sort_keys=True),
            mode="w",
            prefix=".tmp-manifest-",
        )
    return TracePlaneCache(root)


def coerce_plane_cache(
    value: Union[None, bool, str, os.PathLike, TracePlaneCache]
) -> Optional[TracePlaneCache]:
    """Normalize the ``trace_cache`` argument every consumer accepts.

    ``None``/``False`` disable the cache; an open cache passes through; a
    path opens (creating) a cache there.
    """
    if value is None or value is False:
        return None
    if isinstance(value, TracePlaneCache):
        return value
    if value is True:
        raise StoreError("trace_cache=True needs a directory; pass a path")
    return open_plane_cache(value)


#: Name prefix of the throwaway plane directories :func:`ephemeral_plane`
#: creates, recognisable to leak checks.
EPHEMERAL_PLANE_PREFIX = "repro-plane-"


def _ephemeral_root() -> Optional[str]:
    """``/dev/shm`` when it is a writable directory, else the default temp dir."""
    if os.path.isdir("/dev/shm") and os.access("/dev/shm", os.W_OK | os.X_OK):
        return "/dev/shm"
    return None


@contextlib.contextmanager
def ephemeral_plane(
    trace: Trace, jobs: Sequence, chunk_size: int = DEFAULT_CHUNK_SIZE
) -> Iterator[CachedPlane]:
    """Decode ``trace`` for ``jobs`` into a throwaway plane and attach it.

    This is how a pooled sweep without a plane cache fans its trace out:
    the plane is written once into a private ``repro-plane-*`` temporary
    directory and workers attach it from its descriptor.  On exit — normal
    return, an exception or ``KeyboardInterrupt`` alike — the mapping is
    closed and the directory removed; workers still attached keep their
    mappings until they exit.
    """
    with tempfile.TemporaryDirectory(
        prefix=EPHEMERAL_PLANE_PREFIX, dir=_ephemeral_root()
    ) as root:
        cache = TracePlaneCache(root)
        key = PlaneKey.make(trace.fingerprint(), jobs, chunk_size)
        cache.put(key, trace)
        plane = cache._attach(key, trace.name)
        try:
            yield plane
        finally:
            plane.close()


# -- management (ls / verify / gc) ---------------------------------------------
#
# These reuse the result store's operator vocabulary wholesale: the same
# ArtifactRecord/VerifyReport/GcReport types, the same status constants and
# the same eviction policy, so `trace cache verify/gc` behaves exactly like
# `store verify/gc` with a different artifact parser.


def _payload_sha256(path: Path, offset: int) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        handle.seek(offset)
        for block in iter(lambda: handle.read(STREAM_CHUNK_BYTES), b""):
            digest.update(block)
    return digest.hexdigest()


def _classify_plane(path: Path, size: int) -> ArtifactRecord:
    """Fully re-verify one digest-named ``.plane`` file."""
    stem = path.name[: -len(_PLANE_SUFFIX)]
    try:
        header, payload_base, _file_size = _read_header(path)
        key = PlaneKey.from_description(header.get("key", {}))
        embedded_digest = str(header.get("key", {}).get("digest", ""))
        expected_sha = str(header.get("payload_sha256", ""))
        rows = len(header.get("arrays", []))
    except (StoreError, OSError) as exc:
        return ArtifactRecord(
            path=path, status=STATUS_CORRUPT, size_bytes=size, digest=stem,
            detail=f"unreadable artifact: {exc}",
        )
    actual_sha = _payload_sha256(path, payload_base)
    if actual_sha != expected_sha:
        return ArtifactRecord(
            path=path, status=STATUS_CORRUPT, size_bytes=size, digest=stem,
            trace_fingerprint=key.fingerprint,
            detail=(
                f"payload hash mismatch (header {expected_sha[:12]}..., "
                f"re-hashed {actual_sha[:12]}...)"
            ),
        )
    rehashed = key.digest
    if embedded_digest != stem or rehashed != stem:
        return ArtifactRecord(
            path=path, status=STATUS_MIS_ADDRESSED, size_bytes=size, digest=stem,
            trace_fingerprint=key.fingerprint, rows=rows,
            detail=(
                f"address {stem[:12]}... does not match embedded key "
                f"(embedded {embedded_digest[:12]}..., re-hashed {rehashed[:12]}...)"
            ),
        )
    return ArtifactRecord(
        path=path, status=STATUS_OK, size_bytes=size, digest=stem,
        engine="plane", trace_fingerprint=key.fingerprint, rows=rows,
    )


def scan_plane_cache(cache: TracePlaneCache) -> List[ArtifactRecord]:
    """Classify every file under the cache root (sorted, deterministic).

    The cache manifest and the fingerprint sidecars are the cache's own
    bookkeeping (neither artifacts nor foreign junk); everything else is
    classified ok/corrupt/mis-addressed/temp/foreign exactly as
    :func:`repro.store.manage.scan_store` does for result artifacts.
    """
    root = cache.root
    objects = cache.objects_dir
    sidecars = root / _FINGERPRINTS_DIR
    records: List[ArtifactRecord] = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path == root / _MANIFEST_NAME:
            continue
        if sidecars in path.parents:
            continue
        size = path.stat().st_size
        if path.name.startswith(".tmp-"):
            records.append(ArtifactRecord(
                path=path, status=STATUS_TEMP, size_bytes=size,
                detail="orphaned in-flight write",
            ))
            continue
        in_bucket = (
            path.parent.parent == objects
            and path.name.endswith(_PLANE_SUFFIX)
            and _DIGEST_RE.match(path.name[: -len(_PLANE_SUFFIX)]) is not None
            and path.parent.name == path.name[:2]
        )
        if not in_bucket:
            records.append(ArtifactRecord(
                path=path, status=STATUS_FOREIGN, size_bytes=size,
                detail="not a plane artifact",
            ))
            continue
        records.append(_classify_plane(path, size))
    return records


def verify_plane_cache(cache: TracePlaneCache) -> VerifyReport:
    """Re-read every artifact, re-hash its payload and re-derive its address."""
    return VerifyReport(records=tuple(scan_plane_cache(cache)))


def gc_plane_cache(
    cache: TracePlaneCache,
    keep_fingerprints=None,
    dry_run: bool = False,
    max_bytes: Optional[int] = None,
) -> GcReport:
    """Collect garbage (and, with a keep-list, other traces') planes.

    Semantics are identical to :func:`repro.store.manage.gc_store` — temp,
    corrupt and mis-addressed files always go; ``keep_fingerprints`` are
    prefixes of trace fingerprints; ``max_bytes`` evicts valid planes
    oldest-modification-time-first; foreign files are never touched.  An
    evicted plane is only a cache loss: the next sweep re-decodes it.
    """
    return collect_garbage(
        scan_plane_cache(cache),
        cache.objects_dir,
        keep_fingerprints=keep_fingerprints,
        dry_run=dry_run,
        max_bytes=max_bytes,
    )
