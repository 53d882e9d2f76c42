"""Golden finalize output of every registered engine on one fixed trace.

The parity oracles compare engines against each other, so a column that
every path fills the same wrong way (``compulsory_misses`` on Janapsatya
rows, ``simulator_name``, the mechanism counters) would slip past them.
This test pins ``finalize().as_rows()`` plus the run's simulator/trace names
for every engine, and DEW's work counters, against a committed golden file.
Those columns flow into store artifacts and served JSON unchanged.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden_rows.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict

import pytest

from engine_options import ENGINE_TEST_OPTIONS
from repro.engine import available_engines, get_engine
from repro.workloads.mediabench import mediabench_trace

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_engine_rows.json"


def _golden_trace():
    return mediabench_trace("cjpeg", 3000, seed=5)


def _engine_payload(name: str) -> Dict[str, Any]:
    engine = get_engine(name, **ENGINE_TEST_OPTIONS[name])
    results = engine.run(_golden_trace(), chunk_size=512)
    payload: Dict[str, Any] = {
        "simulator_name": results.simulator_name,
        "trace_name": results.trace_name,
        "rows": results.as_rows(),
    }
    if name == "dew":
        payload["counters"] = dataclasses.asdict(results.counters)
    return payload


def build_golden() -> Dict[str, Any]:
    """The golden payload of every registered engine, keyed by registry name."""
    return {name: _engine_payload(name) for name in available_engines()}


@pytest.fixture(scope="module")
def golden() -> Dict[str, Any]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_engine(golden):
    assert sorted(golden) == available_engines()


@pytest.mark.parametrize("name", available_engines())
def test_engine_rows_match_golden(name, golden):
    # Compare serialised text so row key order is pinned along with values.
    assert json.dumps(_engine_payload(name)) == json.dumps(golden[name])


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(build_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
