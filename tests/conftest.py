"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.engine.sweep import SweepOutcome
from repro.trace.trace import DEFAULT_CHUNK_SIZE, Trace
from repro.workloads.mediabench import mediabench_trace
from repro.workloads.synthetic import StridedLoop, WorkingSetGenerator


@pytest.fixture
def small_random_addresses():
    """A deterministic pseudo-random address list with a small footprint."""
    rng = random.Random(1234)
    return [rng.randrange(0, 4096) for _ in range(600)]


@pytest.fixture
def loop_trace() -> Trace:
    """A small looping workload trace (high temporal locality)."""
    return StridedLoop(array_bytes=512, stride=4).generate(800, seed=7).with_name("loop")


@pytest.fixture
def mixed_trace() -> Trace:
    """A working-set workload trace (moderate locality, some cold misses)."""
    return WorkingSetGenerator(hot_bytes=2048, cold_bytes=1 << 16, hot_fraction=0.8).generate(
        1000, seed=11
    ).with_name("mixed")


@pytest.fixture
def cjpeg_trace() -> Trace:
    """A small Mediabench-style trace."""
    return mediabench_trace("cjpeg", 2000, seed=3)


@pytest.fixture(scope="session")
def per_job_sweep():
    """The per-job oracle: every sweep job run alone through ``Engine.run``.

    Returns ``run(trace, jobs, chunk_size=...)``, which builds the
    :class:`SweepOutcome` a one-pass-per-job sweep would produce, so
    ``as_rows()``, ``merged().to_json()`` and per-job ``counters`` of any
    ``run_sweep`` mode can be compared against it.
    """

    def run(trace, jobs, chunk_size=DEFAULT_CHUNK_SIZE) -> SweepOutcome:
        jobs = tuple(jobs)
        return SweepOutcome(
            jobs,
            tuple(job.build().run(trace, chunk_size=chunk_size) for job in jobs),
            trace_name=getattr(trace, "name", "trace"),
        )

    return run
