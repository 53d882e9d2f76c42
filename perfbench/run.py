"""The repository benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore-sweep --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload with spans recorded around the calls into each ``repro`` layer and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

#: Nominal length of one round; a run makes ``round(seconds / round_s)``
#: rounds (at least one), so both sides of a comparison do the same work.
ROUND_SECONDS = {"explore-sweep": 8.3, "paper-repro": 20.0, "served-mix": 20.0}
#: Extra fresh-process set-ups per run, on top of each round's own set-up.
SETUP_PROBES = 5
STEP_TIMEOUT = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
}

#: Per-layer metrics printed in the JSON line: each is measured on every
#: workload (times) or is a count that reads 0 where its layer is idle.
PER_LAYER = {
    "engine.dew.construct_s": "s",
    "engine.dew.run_s": "s",
    "engine.dew.maccess_per_s": "Maccess/s",
    "engine.finalize_s": "s",
    "engine.self_s": "s",
    "core.dew.tag_cmp_per_access": "count",
    "core.dew.node_evals_per_access": "count",
    "core.dew.mra_hit_ratio": "ratio",
    "core.dew.search_share": "ratio",
    "trace.run_head_ratio": "ratio",
    "store.hit_ratio": "ratio",
    "mechanisms.hit_ratio": "ratio",
    "cache.dinero.tag_cmp_per_access": "count",
    "service.dedup_ratio": "ratio",
    "service.cell_reuse_ratio": "ratio",
    "bench.dew_share": "ratio",
    "bench.speedup_mean": "ratio",
}

#: Per-layer metrics that are simulated statistics: they repeat exactly
#: for one seed, whatever the host or the program's speed.
COUNT_METRICS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "ratio") and not name.startswith("bench.")
)

ENGINE_FAMILIES = ("dew", "janapsatya", "single", "victim-cache", "miss-cache", "stream-buffer")
LAYERS = ("trace", "engine", "cache", "store", "service", "bench", "explore")


class StepFailed(RuntimeError):
    pass


def calibrate() -> float:
    """host.calib_s: a fixed pure-Python loop, timed."""
    start = time.perf_counter()
    total = 0
    for index in range(2_000_000):
        total = (total + index * index) % 1_000_003
    return time.perf_counter() - start


def percentile(values: List[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in 0..1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Runner:
    def __init__(self, args: argparse.Namespace, root: Path) -> None:
        self.args = args
        self.workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = "0"
        for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            self.env[name] = "1"
        self.steps = 0

    def step(self, name: str, state: Optional[Path] = None, trace: bool = False):
        """Run one worker step in a fresh process; returns (result, spawn time)."""
        self.steps += 1
        out = self.workdir / f"{name}-{self.steps}.json"
        command = [
            sys.executable, str(HERE / "worker.py"), name,
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--dir", str(self.workdir), "--out", str(out),
        ]
        if state is not None:
            command += ["--state", str(state)]
        if trace:
            command.append("--trace")
        spawned = time.monotonic()
        # A session of its own lets a timed-out step be killed together with
        # the daemon it may have started.
        process = subprocess.Popen(
            command, env=self.env, stdout=subprocess.DEVNULL, start_new_session=True
        )
        try:
            returncode = process.wait(timeout=STEP_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise StepFailed(f"worker step {name!r} timed out after {STEP_TIMEOUT:g} s") from None
        if returncode != 0:
            raise StepFailed(f"worker step {name!r} exited with code {returncode}")
        return json.loads(out.read_text()), spawned


def layer_metrics(span_lists: List[List[Dict[str, Any]]], result: Dict[str, Any]) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced round (``None``: layer not called)."""
    durations: Dict[str, List[float]] = {}
    self_by_layer: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    accesses: Dict[str, int] = {}
    run_seconds: Dict[str, float] = {}
    dew_heads = dew_fed = 0
    counters: Dict[str, int] = {}
    gets = hits = puts = put_bytes = 0
    for spans in span_lists:
        for span, own in zip(spans, tracing.self_times(spans)):
            name = span["name"]
            duration = span["end"] - span["start"]
            durations.setdefault(name, []).append(duration)
            self_by_layer[span["layer"]] = self_by_layer.get(span["layer"], 0.0) + own
            if name.startswith("engine.") and name.endswith(".run"):
                family = name.split(".")[1]
                accesses[family] = accesses.get(family, 0) + span["accesses"]
                run_seconds[family] = run_seconds.get(family, 0.0) + duration
                if family == "dew":
                    dew_fed += span["accesses"]
                    dew_heads += span.get("heads", span["accesses"])
            for key, value in span.get("counters", {}).items():
                counters[key] = counters.get(key, 0) + value
            if name == "store.get":
                gets += 1
                hits += span["hit"]
            elif name == "store.put":
                puts += 1
                put_bytes += span["bytes"]

    def p50(name: str) -> Optional[float]:
        values = durations.get(name)
        return statistics.median(values) if values else None

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, Optional[float]] = {
        "trace.decode_s": p50("trace.decode"),
        "trace.fingerprint_s": p50("trace.fingerprint"),
        "trace.plane_ensure_s": p50("trace.plane_ensure"),
        "trace.run_head_ratio": ratio(dew_heads, dew_fed),
        "engine.sweep_s": p50("engine.sweep"),
        "engine.finalize_s": p50("engine.finalize"),
        "engine.job_build_s": p50("engine.job_build"),
    }
    for family in ENGINE_FAMILIES:
        metrics[f"engine.{family}.construct_s"] = p50(f"engine.{family}.construct")
        metrics[f"engine.{family}.run_s"] = p50(f"engine.{family}.run")
        metrics[f"engine.{family}.maccess_per_s"] = (
            accesses[family] / run_seconds[family] / 1e6 if run_seconds.get(family) else None
        )
    requests = counters.get("requests", 0)
    metrics.update({
        "core.dew.tag_cmp_per_access": ratio(counters.get("tag_comparisons", 0), requests),
        "core.dew.node_evals_per_access": ratio(counters.get("node_evaluations", 0), requests),
        "core.dew.mra_hit_ratio": ratio(counters.get("mra_hits", 0), requests),
        "core.dew.search_share": ratio(counters.get("searches", 0), counters.get("node_evaluations", 0)),
        "cache.dinero.construct_s": p50("cache.dinero.construct"),
        "cache.dinero.run_s": p50("cache.dinero.run"),
        "store.get_s": p50("store.get"),
        "store.put_s": p50("store.put"),
        "store.hit_ratio": ratio(hits, gets),
        "store.put_bytes": ratio(put_bytes, puts),
        "service.submit_s": p50("service.submit"),
        "service.wait_s": p50("service.wait"),
        "service.result_s": p50("service.result"),
        "service.execute_span_s": p50("service.execute"),
        "bench.cell_s": p50("bench.cell"),
        "bench.table4_s": p50("bench.table4"),
        "explore.pareto_s": p50("explore.pareto"),
        "explore.tune_s": p50("explore.tune"),
    })
    records = result.get("records", [])
    if records:
        metrics["service.queue_wait_s"] = median([r["queue_wait"] for r in records])
        metrics["service.execute_s"] = median([r["execute"] for r in records])
    repeats = result.get("kinds", {}).get("repeat")
    if repeats:
        metrics["service.repeat_latency_p50_s"] = median(repeats)
    for layer, seconds in self_by_layer.items():
        metrics[f"{layer}.self_s"] = seconds
    for name in ("mechanisms.hit_ratio", "cache.dinero.tag_cmp_per_access",
                 "service.dedup_ratio", "service.cell_reuse_ratio",
                 "bench.dew_share", "bench.speedup_mean"):
        metrics[name] = result.get("counts", {}).get(name, result.get("timed", {}).get(name, 0.0))
    return metrics


def unit_of(name: str) -> str:
    if name in PER_LAYER:
        return PER_LAYER[name]
    if name.endswith("maccess_per_s"):
        return "Maccess/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    return "ratio"


def run(args: argparse.Namespace, root: Path) -> int:
    runner = Runner(args, root)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    lines: List[str] = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
    ]
    attempted = failed = 0
    problems: List[str] = []
    try:
        runner.step("prepare")
        calib_before = calibrate()
        setups: List[float] = []
        for probe in range(SETUP_PROBES):
            result, spawned = runner.step("setup", state=runner.workdir / f"setup-{probe}")
            setups.append(result.get("setup_s", result["ready"] - spawned))
        rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
        plan = [False] * rounds
        if args.trace:
            plan = [False, True] * max(1, rounds // 2)
        untraced: List[Dict[str, Any]] = []
        traced: List[Dict[str, Any]] = []
        for index, trace in enumerate(plan):
            state = runner.workdir / f"round-{index}"
            result, spawned = runner.step("round", state=state, trace=trace)
            result["state"] = state
            setups.append(result.get("setup_s", result["ready"] - spawned))
            (traced if trace else untraced).append(result)
        calib_after = calibrate()
        every = untraced + traced
        for result in every:
            attempted += result.get("attempted", result["units"])
            failed += result.get("failed", 0)
            problems += result.get("problems", [])
        first = every[0]
        for result in every[1:]:
            attempted += 1
            if result["digest"] != first["digest"] or result["counts"] != first["counts"]:
                failed += 1
                problems.append("rounds of one seed disagree on the simulated-statistics digest")
        check, _ = runner.step("check", state=first["state"])
        attempted += check["attempted"]
        failed += check["failed"]
        problems += check["problems"]
    except StepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        try:
            runner.workdir.parent.rmdir()
        except OSError:
            pass

    samples = [value for result in untraced for value in result["samples"]]
    walls = [result["wall_s"] for result in untraced]
    # Percentiles are taken per round and their median over rounds is
    # reported, so one round caught in a slow phase of the host does not
    # set the run's figure.
    end_to_end = {
        "wall_s": median(walls),
        "setup_s": median(setups),
        "peak_rss_mib": median([result["rss_mib"] for result in untraced]),
        "latency_p50_s": median([percentile(result["samples"], 0.5) for result in untraced]),
        "latency_p90_s": median([percentile(result["samples"], 0.9) for result in untraced]),
    }
    lines.append(f"  host.calib_s before={calib_before:.4f} after={calib_after:.4f} s (never gated)")
    lines.append(f"  digest {first['digest']}")
    for name, value in sorted(first["counts"].items()):
        lines.append(f"  count {name} = {value!r}")
    lines.append(
        f"  rounds {len(untraced)} untraced + {len(traced)} traced, setup samples {len(setups)}, "
        f"latency samples {len(samples)} "
        f"({len(first['samples']) - math.ceil(0.9 * len(first['samples']))} beyond p90 per round)"
    )
    for kind, values in sorted(first.get("kinds", {}).items()):
        lines.append(f"  {kind}: {len(values)} submissions, p50 {median(values):.4f} s")
    for name, unit in END_TO_END.items():
        lines.append(f"  {name} = {end_to_end[name]:.6f} {unit}")
    error_rate = failed / attempted if attempted else 1.0
    lines.append(f"  error_rate = {error_rate:.6f} ratio ({failed} failed / {attempted} attempted)")
    for problem in problems[:20]:
        lines.append(f"  FAILED: {problem}")

    if args.trace:
        per_round = [layer_metrics(result["spans"], result) for result in traced]
        layer: Dict[str, Optional[float]] = {}
        for name in per_round[0]:
            values = [m[name] for m in per_round if m[name] is not None]
            layer[name] = median(values) if values else None
        overhead = median([r["wall_s"] for r in traced]) - median(walls)
        lines.append(f"  tracing overhead = {overhead:.6f} s (traced wall_s - untraced wall_s)")
        for name in sorted(layer):
            value = layer[name]
            shown = "not called" if value is None else f"{value:.6g} {unit_of(name)}"
            lines.append(f"  layer {name} = {shown}")
        metrics = {
            name: {"value": layer[name] if layer[name] is not None else 0.0, "unit": unit}
            for name, unit in PER_LAYER.items()
        }
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (src/repro is missing here)", file=sys.stderr)
        return 2
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
