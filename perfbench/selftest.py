"""Determinism test of the benchmark itself.

Runs each workload twice with one seed (``--trace 1``, which makes one
untraced and one traced round) and asserts that both runs print the same
simulated-statistics digest and the same count metrics, and that every
output check passed.  Run from the root of a checkout::

    python3 perfbench/selftest.py [WORKLOAD ...]

It takes a few minutes; it is not part of the unit-test suite.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import COUNT_METRICS, ROUND_SECONDS  # noqa: E402

SEED = 7


def run_once(workload: str):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    assert completed.returncode == 0, f"{workload}: exit code {completed.returncode}\n{completed.stdout}"
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0, f"{workload}: output checks failed"
    digest = next(line.split()[1] for line in lines if line.strip().startswith("digest "))
    counts = {name: result["metrics"][name]["value"] for name in COUNT_METRICS}
    counts.update({line.split()[1]: line.split()[3] for line in lines if line.strip().startswith("count ")})
    return digest, counts


def main(argv):
    workloads = argv or sorted(ROUND_SECONDS)
    for workload in workloads:
        first, second = run_once(workload), run_once(workload)
        assert first[0] == second[0], f"{workload}: digests differ: {first[0]} vs {second[0]}"
        assert first[1] == second[1], f"{workload}: count metrics differ: {first[1]} vs {second[1]}"
        print(f"{workload}: digest {first[0][:16]} and {len(first[1])} count metrics repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
