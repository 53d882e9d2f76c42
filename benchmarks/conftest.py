"""Shared fixtures for the paper-reproduction benchmarks.

The expensive part of the evaluation — the Table 3 sweep (every application x
block size x associativity, simulated by both DEW and the Dinero-style
baseline) — is computed once per session and shared by the Table 3, Figure 5
and Figure 6 benchmarks.

Trace lengths are controlled by ``REPRO_BENCH_REQUESTS`` (default 20000); the
paper's original traces are millions to billions of requests, which a pure
Python harness cannot replay in CI time.  See EXPERIMENTS.md for the scaling
discussion.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench.harness import ExperimentRunner


def _report_fixture(number: int, what: str):
    """A session fixture ``pr<number>_report`` collecting one bench trajectory.

    Benchmarks record measurements into the yielded dict
    (``report["name"] = value``); at session end a non-empty collection is
    written as ``BENCH_PR<number>.json`` (path overridable via the
    ``REPRO_BENCH_PR<number>`` environment variable) so CI can archive how
    each layer performs over time.
    """

    def collector():
        data = {}
        yield data
        if data:
            path = os.environ.get(f"REPRO_BENCH_PR{number}", f"BENCH_PR{number}.json")
            with open(path, "w", encoding="ascii") as handle:
                json.dump(dict(sorted(data.items())), handle, indent=2, sort_keys=True)
                handle.write("\n")

    collector.__doc__ = f"Collector for {what}, written as BENCH_PR{number}.json."
    return pytest.fixture(scope="session", name=f"pr{number}_report")(collector)


pr4_report = _report_fixture(4, "each optimisation layer's new-vs-old speedup ratios")
pr5_report = _report_fixture(5, "the service throughput benchmark (dedup, cell reuse, p50/p95)")
pr6_report = _report_fixture(6, "the pooled fan-out's plane setup ratio and worker-scaling curve")
pr7_report = _report_fixture(7, "the fleet benchmark (jobs/sec vs daemons, socket latency, failover)")
pr8_report = _report_fixture(8, "the mechanism engines' run-length-collapse speedup")
pr9_report = _report_fixture(9, "the trace plane cache (warm attach, sidecar, served warm p50)")
pr10_report = _report_fixture(10, "the telemetry plane's hot-path overhead and phase breakdown")


@pytest.fixture(scope="session")
def experiment_runner() -> ExperimentRunner:
    """The paper's evaluation grid at a Python-tractable trace length."""
    return ExperimentRunner(
        proportional_lengths=False,
        seed=int(os.environ.get("REPRO_BENCH_SEED", "2010")),
    )


@pytest.fixture(scope="session")
def table3_cells(experiment_runner):
    """All Table 3 cells (also feeds Figures 5 and 6)."""
    return experiment_runner.run_table3()
