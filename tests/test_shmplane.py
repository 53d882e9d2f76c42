"""Tests for the pooled fan-out's ephemeral trace plane and its sweep integration.

A pooled sweep without a plane cache decodes its trace once into a
throwaway plane artifact — under ``/dev/shm`` when that is writable — and
every worker maps it read-only from a compact descriptor.  Three
properties carry the feature:

1. **Byte-identity** — results (rows, merged JSON, counters, store
   artifacts) are identical across serial, plane-backed and pooled runs,
   store resume, and the per-job ``Engine.run`` oracle.  The hypothesis
   oracle and the deterministic pooled tests pin this.
2. **Zero-copy layout** — the descriptor passed to workers is a few
   hundred bytes regardless of trace size, and attached views read the
   very arrays the parent decoded.
3. **No orphaned planes** — no ``repro-plane-*`` directory survives a
   normal exit, a worker crash, an aborting hook or a real SIGINT.
"""

import os
import pickle
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sweep import (
    FusedSweepExecutor,
    SweepJob,
    build_grid_jobs,
    build_mechanism_grid_jobs,
    run_sweep,
)
from repro.errors import EngineError, ReproError, StoreError
from repro.store import open_store
from repro.trace.plane import LocalChunkSource, decode_requirements
from repro.trace.planecache import EPHEMERAL_PLANE_PREFIX, CachedPlane, ephemeral_plane
from repro.trace.trace import Trace, collapse_block_runs
from repro.workloads.synthetic import SequentialStream, WorkingSetGenerator


def _trace(length=20_000, seed=5):
    return WorkingSetGenerator(hot_bytes=4096, cold_bytes=1 << 16).generate(
        length, seed=seed
    )


def _jobs():
    return build_grid_jobs(
        [16, 64], [2, 4], [2**i for i in range(5)], policies=["fifo", "lru", "random"]
    )


def _leaked_planes():
    """Ephemeral plane directories in ``/dev/shm`` and the temp dir."""
    found = []
    for root in sorted({"/dev/shm", tempfile.gettempdir()}):
        if os.path.isdir(root):
            found += [
                os.path.join(root, entry)
                for entry in os.listdir(root)
                if entry.startswith(EPHEMERAL_PLANE_PREFIX)
            ]
    return sorted(found)


@pytest.fixture(autouse=True)
def leak_baseline():
    """Every test in this module must leave no ephemeral plane behind."""
    before = _leaked_planes()
    yield before
    assert _leaked_planes() == before


class TestPlanePublication:
    def test_plane_serves_the_locally_computed_arrays(self):
        trace = _trace(5_000)
        jobs = _jobs()
        chunk = 512
        with ephemeral_plane(trace, jobs, chunk_size=chunk) as plane:
            local = LocalChunkSource(trace, chunk_size=chunk)
            assert plane.num_chunks == local.num_chunks
            for index in range(plane.num_chunks):
                for offset in (4, 6):
                    assert np.array_equal(
                        plane.blocks(index, offset), local.blocks(index, offset)
                    )
                    expected = local.runs(index, offset)
                    got = plane.runs(index, offset)
                    assert np.array_equal(got[0], expected[0])
                    assert np.array_equal(got[1], expected[1])
                start, stop = plane.chunk_bounds(index)
                assert np.array_equal(
                    plane.types(index), trace.access_types[start:stop]
                )

    def test_unpublished_offset_falls_back_to_address_shift(self):
        trace = _trace(2_000)
        with ephemeral_plane(trace, _jobs(), chunk_size=256) as plane:
            # offset_bits=5 (block size 32) is outside the decoded plan.
            expected = trace.addresses[:256] >> 5
            assert np.array_equal(plane.blocks(0, 5), expected)
            values, counts = plane.runs(0, 5)
            lv, lc = collapse_block_runs(expected)
            assert np.array_equal(values, lv) and np.array_equal(counts, lc)

    def test_descriptor_is_compact_and_picklable(self):
        trace = _trace(50_000)
        with ephemeral_plane(trace, _jobs()) as plane:
            blob = pickle.dumps(plane.descriptor())
            # The whole point: per-worker transfer is O(#arrays), not O(trace).
            assert len(blob) < 4096
            with CachedPlane.attach(pickle.loads(blob)) as attached:
                assert np.array_equal(attached.blocks(0, 4), plane.blocks(0, 4))

    def test_decode_requirements_reads_classes_not_instances(self):
        jobs = _jobs()
        plan = decode_requirements(jobs)
        assert plan.offsets == (4, 6)  # block sizes 16 and 64
        assert set(plan.runs_offsets) == {4, 6}  # dew + janapsatya consume runs
        assert plan.needs_types  # 'random' policy runs through single

    def test_attach_after_destroy_raises_engine_error(self):
        # Once the ephemeral plane's directory is gone, a late worker
        # attach fails loudly (a StoreError) instead of reading garbage.
        with ephemeral_plane(_trace(1_000), _jobs()) as plane:
            descriptor = plane.descriptor()
        with pytest.raises(StoreError, match="attach"):
            CachedPlane.attach(descriptor)


class TestByteIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        addresses=st.lists(st.integers(0, 1023), min_size=1, max_size=200),
        chunk_size=st.integers(1, 64),
    )
    def test_shm_oracle_serial_vs_plane_vs_per_job(
        self, per_job_sweep, addresses, chunk_size
    ):
        """For arbitrary tiny traces: in-process fused, plane-backed fused
        and the per-job ``Engine.run`` oracle agree exactly."""
        trace = Trace(np.array(addresses, dtype=np.int64))
        jobs = build_grid_jobs([16], [2], [1, 2, 4], policies=["fifo", "lru"])
        plain = run_sweep(trace, jobs, chunk_size=chunk_size)
        with ephemeral_plane(trace, jobs, chunk_size) as source:
            plane = run_sweep(source, jobs)
        per_job = per_job_sweep(trace, jobs, chunk_size=chunk_size)
        assert plain.as_rows() == plane.as_rows() == per_job.as_rows()
        assert (
            plain.merged().to_json()
            == plane.merged().to_json()
            == per_job.merged().to_json()
        )

    def test_pooled_shm_modes_match_serial(self, tmp_path):
        trace = _trace()
        jobs = _jobs()
        base = run_sweep(trace, jobs)
        for kwargs in (
            dict(workers=2),                                # ephemeral plane
            dict(workers=2, trace_cache=tmp_path / "pc"),   # cached plane
        ):
            outcome = run_sweep(trace, jobs, **kwargs)
            assert outcome.as_rows() == base.as_rows(), kwargs
            assert outcome.merged().to_json() == base.merged().to_json(), kwargs

    def test_store_resume_rides_the_plane(self, tmp_path):
        trace = _trace()
        jobs = _jobs()
        cold_store = open_store(tmp_path / "cold")
        cold = run_sweep(trace, jobs, store=cold_store, workers=2)
        assert cold.executed_jobs == len(jobs)
        # Evict two artifacts and resume pooled: only those cells re-run.
        fingerprint = trace.fingerprint()
        for job in jobs[:2]:
            cold_store.delete(job.store_key(fingerprint))
        warm = run_sweep(trace, jobs, store=cold_store, workers=2)
        assert warm.cached_jobs == len(jobs) - 2
        assert warm.executed_jobs == 2
        assert warm.as_rows() == cold.as_rows()
        # And a storeless serial run agrees byte for byte.
        assert run_sweep(trace, jobs).as_rows() == warm.as_rows()


def _mixed_jobs():
    """dew + victim-cache + stream-buffer: heterogeneous runs/types flags."""
    jobs = build_grid_jobs([16, 64], [2], [1, 2, 4], policies=["fifo"])
    return jobs + build_mechanism_grid_jobs(
        ["victim-cache", "stream-buffer"], [16, 64], [2], [1, 2], entry_counts=(2, 4)
    )


class TestMixedEnginePlane:
    def test_mixed_grid_decode_requirements(self):
        plan = decode_requirements(_mixed_jobs())
        assert plan.offsets == (4, 6)
        assert set(plan.runs_offsets) == {4, 6}
        # Only stream-buffer wants types; its presence flips the whole plan.
        assert plan.needs_types

    def test_plane_and_pool_match_serial(self, tmp_path):
        trace = _trace(8_000)
        jobs = _mixed_jobs()
        base = run_sweep(trace, jobs)
        with ephemeral_plane(trace, jobs) as plane:
            outcome = run_sweep(plane, jobs)
        assert outcome.as_rows() == base.as_rows()
        for kwargs in (
            dict(workers=2),
            dict(workers=2, trace_cache=tmp_path / "pc"),
        ):
            outcome = run_sweep(trace, jobs, **kwargs)
            assert outcome.as_rows() == base.as_rows(), kwargs
            assert outcome.merged().to_json() == base.merged().to_json(), kwargs

    def test_store_resume_rides_the_plane(self, tmp_path):
        trace = _trace(8_000)
        jobs = _mixed_jobs()
        store = open_store(tmp_path / "mixed")
        cold = run_sweep(trace, jobs, store=store, workers=2)
        assert cold.executed_jobs == len(jobs)
        for job in jobs[-2:]:
            store.delete(job.store_key(trace.fingerprint()))
        warm = run_sweep(trace, jobs, store=store, workers=2)
        assert warm.executed_jobs == 2
        assert warm.cached_jobs == len(jobs) - 2
        assert warm.as_rows() == cold.as_rows()


class TestAccessTypeRequirements:
    """decode_requirements surfaces type needs; a typeless plane fails loudly."""

    def test_stream_buffer_jobs_need_types(self):
        sb = build_mechanism_grid_jobs(["stream-buffer"], [16], [2], [2], entry_counts=(2,))
        assert decode_requirements(sb).needs_types is True

    def test_other_mechanisms_do_not_need_types(self):
        quiet = build_mechanism_grid_jobs(
            ["victim-cache", "miss-cache"], [16], [2], [2], entry_counts=(2,)
        )
        assert decode_requirements(quiet).needs_types is False

    def test_plane_published_without_types_fails_loudly(self):
        """A plane planned for typeless jobs must reject a types-hungry rider.

        Decoding against dew-only jobs omits the access-type array; wiring
        a stream-buffer job onto that plane afterwards must raise before any
        cell simulates, not silently default the types.
        """
        trace = _trace(2_000)
        dew_jobs = build_grid_jobs([16], [2], [1, 2], policies=["fifo"])
        sb = build_mechanism_grid_jobs(["stream-buffer"], [16], [2], [2], entry_counts=(2,))
        assert decode_requirements(dew_jobs).needs_types is False
        with ephemeral_plane(trace, dew_jobs) as plane:
            with pytest.raises(EngineError, match="without access types"):
                FusedSweepExecutor(plane, dew_jobs + sb).execute()


class TestSegmentLifecycle:
    def test_normal_exit_unlinks(self, leak_baseline):
        run_sweep(_trace(), _jobs(), workers=2)
        assert _leaked_planes() == leak_baseline

    def test_worker_crash_unlinks(self, leak_baseline):
        # An engine whose construction fails inside the worker: the pool
        # surfaces the exception, run_sweep's finally removes the plane.
        bad = SweepJob.make("dew", block_size=16, associativity=0, set_sizes=(1,))
        jobs = _jobs() + [bad]
        with pytest.raises(ReproError):
            run_sweep(_trace(), jobs, workers=2)
        assert _leaked_planes() == leak_baseline

    def test_aborting_hook_unlinks_serial_and_pooled(self, leak_baseline):
        trace = _trace()
        jobs = _jobs()

        def abort(index, job, results, cached):
            raise KeyboardInterrupt

        for kwargs in (dict(), dict(workers=2)):
            with pytest.raises(KeyboardInterrupt):
                run_sweep(trace, jobs, on_result=abort, **kwargs)
            assert _leaked_planes() == leak_baseline

    def test_sigint_mid_pooled_sweep_unlinks(self, tmp_path, leak_baseline):
        """A real SIGINT delivered to a sweeping process leaves no plane."""
        marker = tmp_path / "first-cell"
        script = textwrap.dedent(
            f"""
            import time
            from pathlib import Path
            from repro.engine.sweep import run_sweep, build_grid_jobs
            from repro.workloads.synthetic import WorkingSetGenerator

            trace = WorkingSetGenerator(hot_bytes=4096, cold_bytes=1 << 16).generate(
                20000, seed=5
            )
            jobs = build_grid_jobs([16, 64], [2, 4], [2**i for i in range(5)])

            def slow(index, job, results, cached):
                Path({str(marker)!r}).write_text("up")
                time.sleep(30)  # hold the sweep open for the SIGINT

            run_sweep(trace, jobs, workers=2, on_result=slow)
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        child = subprocess.Popen([sys.executable, "-c", script], env=env)
        try:
            deadline = time.time() + 60
            while not marker.exists():
                assert child.poll() is None, "sweep process died before first cell"
                assert time.time() < deadline, "sweep never produced a cell"
                time.sleep(0.05)
            # The plane is live while the sweep is held open.
            assert len(_leaked_planes()) == len(leak_baseline) + 1
            child.send_signal(signal.SIGINT)
            child.wait(timeout=60)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup on test bugs
                child.kill()
                child.wait()
        assert child.returncode != 0  # died to the interrupt, not success
        assert _leaked_planes() == leak_baseline

    def test_executor_accepts_plane_and_matches_trace_input(self):
        trace = _trace(4_000)
        jobs = _jobs()[:4]
        direct = [r.to_json() for r in FusedSweepExecutor(trace, jobs).execute()]
        with ephemeral_plane(trace, jobs) as plane:
            via_plane = [r.to_json() for r in FusedSweepExecutor(plane, jobs).execute()]
        assert direct == via_plane

    def test_sequential_stream_plane_identity(self):
        # A second workload family through the full matrix, cheap but distinct.
        trace = SequentialStream(stride=4, region_bytes=1 << 13).generate(
            10_000, seed=2
        )
        jobs = build_grid_jobs([8, 32], [2], [1, 2, 4, 8])
        base = run_sweep(trace, jobs)
        with ephemeral_plane(trace, jobs) as plane:
            assert run_sweep(plane, jobs).as_rows() == base.as_rows()
        assert run_sweep(trace, jobs, workers=2).as_rows() == base.as_rows()
