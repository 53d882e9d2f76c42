"""One step of one benchmark workload, run in a fresh process.

``run.py`` drives this script; each invocation does exactly one step and
writes its findings as JSON to ``--out``:

``prepare``
    Write the seeded inputs (``.din`` traces, the served request plan).
``setup``
    Bring the workload to "ready for the first request" and stop there.
``round``
    Set up, then run the workload's timed section once over fresh state.
``check``
    Verify the outputs the rounds left behind against direct runs.

The program under test sees only the generated inputs; the seed stays here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

# -- workload sizes ------------------------------------------------------------
#
# explore-sweep: two modelled traces, the fused FIFO+LRU grid over the
# default sweep ranges plus a small mechanism slice.
EXPLORE_APPS = ("cjpeg", "mpeg2_enc")
EXPLORE_ACCESSES = 40_000
EXPLORE_BLOCK_SIZES = (4, 16, 64)
EXPLORE_ASSOCIATIVITIES = (1, 4, 8)
EXPLORE_SET_SIZES = tuple(2 ** level for level in range(15))  # 1 .. 16384
EXPLORE_MECHANISMS = ("miss-cache", "stream-buffer", "victim-cache")
EXPLORE_MECH_SETS = (64, 512)
EXPLORE_MECH_ENTRIES = (4, 8)
# paper-repro: Table 3 (6 apps x 3 B x 3 A = 54 cells), Table 4, headline.
PAPER_REQUESTS = 1000
# served-mix: three traces, FIFO grids over one fixed set-size range so
# that grids share cells.
SERVED_APPS = ("cjpeg", "djpeg", "g721_enc")
SERVED_ACCESSES = 20_000
SERVED_MAX_SETS = 1024
SERVED_BLOCK_SIZES = (4, 16, 64)
SERVED_ASSOCIATIVITIES = (2, 4, 8)
# 120 submissions: p50 falls among the overlaps, p90 among the fresh cells.
SERVED_MIX = (("fresh", 27), ("overlap", 57), ("repeat", 36))


def _now() -> float:
    # CLOCK_MONOTONIC is shared by every process of the host, so a child's
    # timestamp can be compared with the parent's spawn time.
    return time.monotonic()


def _peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _digest(parts: List[Any]) -> str:
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def _counters_json(counters) -> Dict[str, int]:
    return {
        "requests": counters.requests,
        "node_evaluations": counters.node_evaluations,
        "mra_hits": counters.mra_hits,
        "searches": counters.searches,
        "tag_comparisons": counters.tag_comparisons,
    }


def _sum_counters(items: List[Dict[str, int]]) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for item in items:
        for key, value in item.items():
            total[key] = total.get(key, 0) + value
    return total


# -- prepare ---------------------------------------------------------------------


def _served_plan(seed: int) -> List[Dict[str, Any]]:
    """A seeded closed-loop submission sequence with a known kind per entry.

    Cells are ``(trace, block size, associativity)`` DEW jobs; a grid's
    identity is its cell set.  ``fresh`` submits one unseen cell (simulate
    and persist), ``overlap`` submits a new grid of 2-4 cells that are all
    stored already (a new job served from store reads), ``repeat``
    resubmits a finished grid under another spelling (the dedup path).
    Every seed submits the same multiset of fresh cells and the same number
    of each kind; the seed only changes their order and the overlap grids,
    so the amount of simulation does not depend on the seed.
    """
    rng = random.Random(seed)
    fresh_cells = [
        (app, b, a) for app in SERVED_APPS for b in SERVED_BLOCK_SIZES for a in SERVED_ASSOCIATIVITIES
    ]
    rng.shuffle(fresh_cells)
    pending = [kind for kind, count in SERVED_MIX for _ in range(count)]
    rng.shuffle(pending)
    stored: set = set()
    finished: List[Dict[str, Any]] = []
    finished_cells: set = set()
    plan: List[Dict[str, Any]] = []

    def subsets(values) -> List[List[int]]:
        return [
            [v for bit, v in enumerate(values) if mask >> bit & 1] for mask in range(1, 1 << len(values))
        ]

    def make(kind: str) -> Optional[Dict[str, Any]]:
        if kind == "fresh":
            app, b, a = fresh_cells.pop()
            return {"app": app, "block_sizes": [b], "associativities": [1, a]}
        if kind == "repeat":
            if not finished:
                return None
            base = rng.choice(finished)
            return dict(
                base,
                block_sizes=base["block_sizes"][::-1],
                associativities=base["associativities"][::-1],
            )
        candidates = []
        for app in SERVED_APPS:
            for blocks in subsets(SERVED_BLOCK_SIZES):
                for assocs in subsets(SERVED_ASSOCIATIVITIES):
                    cells = frozenset((app, b, a) for b in blocks for a in assocs)
                    if 2 <= len(cells) <= 4 and cells <= stored and cells not in finished_cells:
                        candidates.append((app, blocks, assocs))
        if not candidates:
            return None
        app, blocks, assocs = rng.choice(candidates)
        return {"app": app, "block_sizes": blocks, "associativities": [1] + assocs}

    while pending:
        for position, kind in enumerate(pending):
            grid = make(kind)
            if grid is not None:
                break
        else:  # pragma: no cover - "fresh" is always feasible while pending
            raise RuntimeError("no feasible submission")
        pending.pop(position)
        cells = frozenset(
            (grid["app"], b, a) for b in grid["block_sizes"] for a in grid["associativities"] if a > 1
        )
        plan.append(dict(grid, kind=kind))
        if cells not in finished_cells:
            finished.append(grid)
            finished_cells.add(cells)
        stored |= cells
    return plan


def cmd_prepare(args: argparse.Namespace) -> Dict[str, Any]:
    from repro.trace.din import write_din
    from repro.workloads.mediabench import mediabench_trace

    inputs = Path(args.dir) / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if args.workload == "explore-sweep":
        for app in EXPLORE_APPS:
            write_din(mediabench_trace(app, EXPLORE_ACCESSES, seed=args.seed), inputs / f"{app}.din")
    elif args.workload == "served-mix":
        for app in SERVED_APPS:
            write_din(mediabench_trace(app, SERVED_ACCESSES, seed=args.seed), inputs / f"{app}.din")
        (inputs / "plan.json").write_text(json.dumps(_served_plan(args.seed)))
    return {}


# -- explore-sweep ---------------------------------------------------------------


def _explore_jobs():
    from repro.engine import build_grid_jobs
    from repro.engine.sweep import build_mechanism_grid_jobs

    return build_grid_jobs(
        EXPLORE_BLOCK_SIZES, EXPLORE_ASSOCIATIVITIES, EXPLORE_SET_SIZES, ("fifo", "lru")
    ) + build_mechanism_grid_jobs(
        EXPLORE_MECHANISMS, (16,), (4,), EXPLORE_MECH_SETS, EXPLORE_MECH_ENTRIES
    )


def _explore_setup(args, state: Path, tracer=None):
    import repro.trace.files as files
    from repro.trace.planecache import open_plane_cache

    cache = open_plane_cache(state / "tracecache")
    traces = {}
    for app in EXPLORE_APPS:
        path = Path(args.dir) / "inputs" / f"{app}.din"
        if tracer is not None:
            tracer.request = f"setup:{app}"
        traces[app] = files.load_trace_file(path, cache=cache)
    return cache, traces


def _explore_round(args, state: Path, tracer) -> Dict[str, Any]:
    import repro.engine as engine
    import repro.explore.pareto as pareto
    from repro.explore.tuner import CacheTuner
    from repro.store import open_store

    cache, traces = _explore_setup(args, state, tracer)
    ready = _now()
    jobs = _explore_jobs()
    store = open_store(state / "store")
    samples: List[float] = []
    rows: Dict[str, Any] = {}
    counters = []
    start = time.perf_counter()
    for app in EXPLORE_APPS:
        if tracer is not None:
            tracer.request = f"sweep:{app}"
        begin = time.perf_counter()
        outcome = engine.run_sweep(traces[app], jobs, store=store, trace_cache=cache)
        frame = outcome.frame()
        front = pareto.pareto_front_frame(frame)
        best = CacheTuner().tune_frame(frame)
        samples.append(time.perf_counter() - begin)
        rows[app] = {
            "rows": outcome.as_rows(),
            "pareto": [int(index) for index in front],
            "tuned": best.best.config.label(),
        }
        counters.extend(
            _counters_json(result.counters) for job, result in zip(outcome.jobs, outcome.results)
            if job.engine == "dew"
        )
    wall = time.perf_counter() - start
    total = _sum_counters(counters)
    mech = [r for app in EXPLORE_APPS for r in rows[app]["rows"] if r.get("mechanism", "none") != "none"]
    mech_hits = sum(r["mechanism_hits"] for r in mech)
    mech_bare = sum(r["misses"] + r["mechanism_hits"] for r in mech)
    (state / "rows.json").write_text(json.dumps(rows))
    return {
        "ready": ready,
        "wall_s": wall,
        "samples": samples,
        "units": len(samples),
        "digest": _digest([rows, total]),
        "counts": {"mechanisms.hit_ratio": mech_hits / mech_bare if mech_bare else 0.0},
    }


def _explore_check(args, state: Path) -> Dict[str, Any]:
    """Re-simulate sampled rows with the reference engines."""
    from repro.core.config import CacheConfig
    from repro.engine import get_engine
    from repro.trace.files import load_trace_file
    from repro.types import ReplacementPolicy

    rows = json.loads((state / "rows.json").read_text())
    rng = random.Random(args.seed)
    attempted = failed = 0
    problems: List[str] = []
    for app in EXPLORE_APPS:
        trace = load_trace_file(Path(args.dir) / "inputs" / f"{app}.din")
        bare = {
            (r["policy"], r["block_size"], r["associativity"], r["num_sets"]): r["misses"]
            for r in rows[app]["rows"]
            if r.get("mechanism", "none") == "none"
        }
        for r in rows[app]["rows"]:
            if r.get("mechanism", "none") == "none":
                continue
            attempted += 1
            key = (r["policy"], r["block_size"], r["associativity"], r["num_sets"])
            if r["misses"] + r["mechanism_hits"] != bare.get(key):
                failed += 1
                problems.append(f"{app} {r['mechanism']} {key}: mechanism invariant broken")
        fifo = sorted(k for k in bare if k[0] == "fifo")
        lru_sets = sorted(k for k in bare if k[0] == "lru" and k[3] > 1)
        for key in rng.sample(fifo, 2) + rng.sample(lru_sets, 1):
            policy, block_size, associativity, num_sets = key
            config = CacheConfig(num_sets, associativity, block_size, ReplacementPolicy.parse(policy))
            result = get_engine("single", config=config).run(trace)
            attempted += 1
            if result.misses(config) != bare[key]:
                failed += 1
                problems.append(f"{app} single {key}: {result.misses(config)} != {bare[key]}")
        # The stack walk costs O(stack distance) per access, which is
        # steep at 4-byte blocks; one of the larger block sizes suffices.
        for block_size in rng.sample(EXPLORE_BLOCK_SIZES[1:], 1):
            capacities = EXPLORE_ASSOCIATIVITIES
            result = get_engine("lru-stack", block_size=block_size, capacities=capacities).run(trace)
            for capacity in capacities:
                key = ("lru", block_size, capacity, 1)
                attempted += 1
                config = CacheConfig(1, capacity, block_size, ReplacementPolicy.LRU)
                if result.misses(config) != bare[key]:
                    failed += 1
                    problems.append(f"{app} lru-stack {key}: {result.misses(config)} != {bare[key]}")
    return {"attempted": attempted, "failed": failed, "problems": problems}


# -- paper-repro -----------------------------------------------------------------


def _paper_round(args, state: Path, tracer) -> Dict[str, Any]:
    from repro.bench.harness import ExperimentRunner

    runner = ExperimentRunner(max_requests=PAPER_REQUESTS, seed=args.seed, workers=1)
    runner.traces()
    ready = _now()
    params = [
        (app, b, a) for app in runner.apps for b in runner.block_sizes for a in runner.associativities
    ]
    samples: List[float] = []
    cells = []
    start = time.perf_counter()
    for app, b, a in params:
        if tracer is not None:
            tracer.request = f"cell:{app}:{b}:{a}"
        begin = time.perf_counter()
        cells.append(runner.run_cell(app, b, a))
        samples.append(time.perf_counter() - begin)
    if tracer is not None:
        tracer.request = "table4"
    table4 = runner.run_table4()
    headline = runner.run_headline_claims(cells)
    wall = time.perf_counter() - start
    timing = ("dew_seconds", "dinero_seconds", "speedup")
    cell_rows = [
        {key: value for key, value in cell.as_dict().items() if key not in timing} for cell in cells
    ]
    table4_rows = [row.as_dict() for row in table4]
    dew_seconds = sum(cell.dew_seconds for cell in cells)
    dinero_seconds = sum(cell.dinero_seconds for cell in cells)
    dinero_accesses = sum(cell.requests * cell.configs_simulated for cell in cells)
    exact = [cell.exact_match for cell in cells]
    return {
        "ready": ready,
        "wall_s": wall,
        "samples": samples,
        "units": len(samples),
        "attempted": len(exact),
        "failed": exact.count(False),
        "problems": [
            f"cell {c.app} B{c.block_size} A{c.associativity} not exact" for c in cells if not c.exact_match
        ],
        "digest": _digest([cell_rows, table4_rows, headline["all_exact"]]),
        "counts": {
            "cache.dinero.tag_cmp_per_access": sum(c.dinero_comparisons for c in cells) / dinero_accesses,
        },
        "timed": {
            "bench.dew_share": dew_seconds / (dew_seconds + dinero_seconds),
            "bench.speedup_mean": headline["mean_speedup"],
        },
    }


# -- served-mix ------------------------------------------------------------------


def _spawn_daemon(args, service_dir: Path, trace: bool) -> subprocess.Popen:
    if trace:
        command = [sys.executable, str(HERE / "serve_launcher.py"), str(service_dir / "daemon-spans.json")]
    else:
        command = [sys.executable, "-m", "repro.cli"]
    with open(service_dir / "daemon.log", "wb") as log:
        return subprocess.Popen(
            command + ["serve", "svc"], cwd=service_dir, stdout=subprocess.DEVNULL, stderr=log
        )


def _wait_ready(service_dir: Path, daemon: subprocess.Popen, timeout: float = 60.0):
    from repro.service.queue import open_service
    from repro.service.socketserver import discover_socket

    deadline = _now() + timeout
    while _now() < deadline:
        if daemon.poll() is not None:
            raise RuntimeError(f"daemon exited with code {daemon.returncode}")
        if (service_dir / "svc").is_dir():
            try:
                transport = discover_socket(open_service("svc", create=False))
            except Exception:  # noqa: BLE001 - the directory is still being created
                transport = None
            if transport is not None:
                transport.close()
                return
        time.sleep(0.002)
    raise RuntimeError("daemon did not answer a ping in time")


def _stop_daemon(daemon: subprocess.Popen) -> None:
    if daemon.poll() is None:
        daemon.send_signal(signal.SIGINT)
        try:
            daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait()


def _served_setup(args, state: Path, trace: bool):
    # Client and daemon both address the service as "svc" relative to the
    # state directory: the daemon's socket path then stays far below the
    # 108-byte Unix socket limit however deep the checkout lies.
    state.mkdir(parents=True, exist_ok=True)
    os.chdir(state)
    spawned = _now()
    daemon = _spawn_daemon(args, state, trace)
    try:
        _wait_ready(state, daemon)
    except BaseException:
        _stop_daemon(daemon)
        raise
    return daemon, spawned


def _served_round(args, state: Path, tracer) -> Dict[str, Any]:
    from repro.service.api import ServiceClient, SweepRequest

    daemon, spawned = _served_setup(args, state, tracer is not None)
    ready = _now()
    plan = json.loads((Path(args.dir) / "inputs" / "plan.json").read_text())
    inputs = Path(args.dir) / "inputs"
    samples: List[float] = []
    by_kind: Dict[str, List[float]] = {}
    payloads: Dict[str, str] = {}
    order: List[str] = []
    records = []
    deduped = 0
    failed = 0
    problems: List[str] = []
    try:
        client = ServiceClient("svc")
        start = time.perf_counter()
        for index, entry in enumerate(plan):
            request = SweepRequest(
                trace_path=str(inputs / f"{entry['app']}.din"),
                block_sizes=tuple(entry["block_sizes"]),
                associativities=tuple(entry["associativities"]),
                max_sets=SERVED_MAX_SETS,
            )
            if tracer is not None:
                tracer.request = f"submit:{index}"
            begin = time.perf_counter()
            try:
                response = client.submit(request)
                record = client.wait(response["job_id"], timeout=120.0)
                text = client.result_text(record.id)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                failed += 1
                problems.append(f"submission {index}: {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - begin
            samples.append(latency)
            by_kind.setdefault(entry["kind"], []).append(latency)
            deduped += bool(response.get("deduped"))
            payloads.setdefault(record.id, text)
            order.append(record.id)
            records.append(record)
        wall = time.perf_counter() - start
        client.close()
    finally:
        _stop_daemon(daemon)
    rss = _peak_rss_mib(resource.RUSAGE_CHILDREN)
    (state / "payloads").mkdir(exist_ok=True)
    for index, entry in enumerate(plan):
        if index < len(order):
            path = state / "payloads" / f"{order[index]}.json"
            if not path.exists():
                path.write_text(payloads[order[index]])
                (state / "payloads" / f"{order[index]}.grid").write_text(json.dumps(entry))
    executed = [r for r in {r.id: r for r in records}.values()]
    cells_total = sum(r.cells_total for r in executed)
    cells_cached = sum(r.cells_cached for r in executed)
    result = {
        "ready": ready,
        "setup_s": ready - spawned,
        "wall_s": wall,
        "rss_mib": rss,
        "samples": samples,
        "units": len(plan),
        "attempted": len(plan),
        "failed": failed,
        "problems": problems,
        "digest": _digest([payloads[job_id] for job_id in order]),
        "kinds": {kind: sorted(values) for kind, values in by_kind.items()},
        "counts": {
            "service.dedup_ratio": deduped / len(plan),
            "service.cell_reuse_ratio": cells_cached / cells_total if cells_total else 0.0,
        },
        "records": [
            {"queue_wait": r.started_at - r.submitted_at, "execute": r.finished_at - r.started_at}
            for r in executed
            if r.started_at is not None and r.finished_at is not None
        ],
    }
    return result


def _served_check(args, state: Path) -> Dict[str, Any]:
    """Every distinct served payload must equal a direct sweep's output."""
    from repro.engine import run_sweep
    from repro.engine.sweep import SweepOutcome
    from repro.service.api import SweepRequest
    from repro.trace.files import load_trace_file

    traces: Dict[str, Any] = {}
    cell_results: Dict[Any, Any] = {}
    attempted = failed = 0
    problems: List[str] = []
    for grid_path in sorted((state / "payloads").glob("*.grid")):
        grid = json.loads(grid_path.read_text())
        served = grid_path.with_suffix(".json").read_text()
        path = str(Path(args.dir) / "inputs" / f"{grid['app']}.din")
        if path not in traces:
            traces[path] = load_trace_file(path)
        request = SweepRequest(
            trace_path=path,
            block_sizes=tuple(grid["block_sizes"]),
            associativities=tuple(grid["associativities"]),
            max_sets=SERVED_MAX_SETS,
        )
        jobs = request.build_jobs()
        results = []
        for job in jobs:
            # Each cell is simulated cold exactly once and reused by every
            # grid that contains it; the merge is the direct sweep's own.
            key = (path, job)
            if key not in cell_results:
                cell_results[key] = run_sweep(traces[path], [job]).results[0]
            results.append(cell_results[key])
        direct = SweepOutcome(
            jobs=tuple(jobs), results=tuple(results), trace_name=traces[path].name
        ).merged().to_json()
        attempted += 1
        if direct != served:
            failed += 1
            problems.append(f"served payload {grid_path.stem[:12]} differs from the direct sweep")
    return {"attempted": attempted, "failed": failed, "problems": problems}


# -- steps -----------------------------------------------------------------------

ROUNDS = {"explore-sweep": _explore_round, "paper-repro": _paper_round, "served-mix": _served_round}
CHECKS = {"explore-sweep": _explore_check, "served-mix": _served_check}


def cmd_setup(args: argparse.Namespace) -> Dict[str, Any]:
    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "explore-sweep":
            _explore_setup(args, state)
            return {"ready": _now()}
        if args.workload == "paper-repro":
            from repro.bench.harness import ExperimentRunner

            ExperimentRunner(max_requests=PAPER_REQUESTS, seed=args.seed, workers=1).traces()
            return {"ready": _now()}
        daemon, spawned = _served_setup(args, state, False)
        ready = _now()
        _stop_daemon(daemon)
        return {"ready": ready, "setup_s": ready - spawned}
    finally:
        os.chdir(args.dir)
        shutil.rmtree(state, ignore_errors=True)


def cmd_round(args: argparse.Namespace) -> Dict[str, Any]:
    state = Path(args.state)
    state.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = ROUNDS[args.workload](args, state, tracer)
    result.setdefault("rss_mib", _peak_rss_mib())
    if tracer is not None:
        spans = [tracer.spans]
        daemon_spans = state / "daemon-spans.json"
        if daemon_spans.exists():
            spans.append(json.loads(daemon_spans.read_text()))
        result["spans"] = spans
    return result


def cmd_check(args: argparse.Namespace) -> Dict[str, Any]:
    check = CHECKS.get(args.workload)
    if check is None:
        return {"attempted": 0, "failed": 0, "problems": []}
    return check(args, Path(args.state))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("step", choices=("prepare", "setup", "round", "check"))
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, help="the run's working directory")
    parser.add_argument("--state", default=None, help="fresh state directory of this step")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    steps = {"prepare": cmd_prepare, "setup": cmd_setup, "round": cmd_round, "check": cmd_check}
    result = steps[args.step](args)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
