"""Tests for store management: scan/verify/gc/export/import and the CLI."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core.config import CacheConfig
from repro.core.results import ConfigResult, ResultsFrame, SimulationResults
from repro.engine import build_grid_jobs, run_sweep
from repro.errors import StoreError
from repro.store import (
    StoreKey,
    export_store,
    gc_store,
    import_store,
    open_store,
    scan_store,
    verify_store,
)
from repro.trace.trace import Trace


def _results(misses=5, config=None):
    return SimulationResults(
        [ConfigResult(config or CacheConfig(4, 2, 16), accesses=50, misses=misses)],
        elapsed_seconds=0.25,
        simulator_name="dew",
        trace_name="t",
    )


def _key(fingerprint="f" * 64, engine="dew", **options):
    return StoreKey.make(fingerprint, engine, options or {"block_size": 16})


class TestVerifyStore:
    def test_empty_store_is_clean(self, tmp_path):
        report = verify_store(open_store(tmp_path))
        assert report.clean
        assert report.records == ()
        assert "0 ok" in report.summary()

    def test_ok_artifacts_report_metadata(self, tmp_path):
        store = open_store(tmp_path)
        key = _key()
        store.put(key, _results())
        report = verify_store(store)
        assert report.clean
        (record,) = report.records
        assert record.status == "ok"
        assert record.digest == key.digest
        assert record.engine == "dew"
        assert record.trace_fingerprint == "f" * 64
        assert record.rows == 1
        assert record.elapsed_seconds == 0.25

    def test_truncated_artifact_reported_corrupt(self, tmp_path):
        store = open_store(tmp_path)
        path = store.put(_key(), _results())
        path.write_bytes(path.read_bytes()[:30])
        report = verify_store(store)
        assert not report.clean
        assert report.count("corrupt") == 1
        assert report.problems[0].path == path

    def test_decode_bug_propagates_instead_of_reporting_corrupt(
        self, tmp_path, monkeypatch
    ):
        store = open_store(tmp_path)
        store.put(_key(), _results())

        def broken_read_npz(file):
            raise TypeError("bug in the frame decoder")

        monkeypatch.setattr(ResultsFrame, "read_npz", broken_read_npz)
        with pytest.raises(TypeError, match="bug in the frame decoder"):
            verify_store(store)

    def test_mis_addressed_artifact_reported(self, tmp_path):
        store = open_store(tmp_path)
        path = store.put(_key(block_size=16), _results())
        other = store.path_for(_key(block_size=32))
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(path.read_bytes())
        report = verify_store(store)
        assert report.count("mis-addressed") == 1
        assert report.count("ok") == 1
        assert not report.clean

    def test_foreign_and_temp_files_reported_but_not_failures(self, tmp_path):
        store = open_store(tmp_path)
        path = store.put(_key(), _results())
        (store.root / "notes.txt").write_text("operator scribbles")
        (path.parent / ".tmp-deadbeef-orphan.npz").write_bytes(b"partial")
        report = verify_store(store)
        assert report.count("foreign") == 1
        assert report.count("temp") == 1
        assert report.clean  # neither is an integrity failure

    def test_scan_is_deterministic(self, tmp_path):
        store = open_store(tmp_path)
        for block in (8, 16, 32):
            store.put(_key(block_size=block), _results())
        first = [record.path for record in scan_store(store)]
        second = [record.path for record in scan_store(store)]
        assert first == second == sorted(first)


class TestGcStore:
    def test_gc_empty_store(self, tmp_path):
        report = gc_store(open_store(tmp_path))
        assert report.removed == ()
        assert report.kept == 0

    def test_gc_removes_corrupt_and_temp_keeps_valid_and_foreign(self, tmp_path):
        store = open_store(tmp_path)
        good = store.put(_key(block_size=16), _results())
        bad = store.put(_key(block_size=32), _results())
        bad.write_bytes(b"garbage")
        (bad.parent / ".tmp-x-orphan.npz").write_bytes(b"partial")
        foreign = store.root / "notes.txt"
        foreign.write_text("keep me")
        report = gc_store(store)
        assert len(report.removed) == 2
        assert report.kept == 1
        assert good.is_file() and foreign.is_file()
        assert not bad.is_file()
        assert verify_store(store).clean

    def test_gc_keep_fingerprints_drops_other_traces(self, tmp_path):
        store = open_store(tmp_path)
        keep_path = store.put(_key("a" * 64), _results())
        drop_path = store.put(_key("b" * 64), _results())
        report = gc_store(store, keep_fingerprints=["a" * 64])
        assert [record.path for record in report.removed] == [drop_path]
        assert keep_path.is_file()
        assert len(store) == 1

    def test_gc_keep_fingerprints_accepts_ls_style_prefixes(self, tmp_path):
        # `store ls` prints 12-char fingerprint prefixes; copy-pasting one
        # into gc must keep that trace, not silently delete everything.
        store = open_store(tmp_path)
        keep_path = store.put(_key("a" * 64), _results())
        drop_path = store.put(_key("b" * 64), _results())
        report = gc_store(store, keep_fingerprints=["a" * 12])
        assert [record.path for record in report.removed] == [drop_path]
        assert keep_path.is_file()
        assert report.unmatched_keeps == ()

    def test_gc_reports_unmatched_keep_entries(self, tmp_path, capsys):
        store = open_store(tmp_path)
        store.put(_key("a" * 64), _results())
        report = gc_store(store, keep_fingerprints=["a" * 12, "f00dface"])
        assert report.unmatched_keeps == ("f00dface",)
        assert main([
            "store", "gc", str(store.root), "--keep-fingerprints", "f00dface",
        ]) == 0
        assert "matched no artifact" in capsys.readouterr().err

    def test_gc_that_would_delete_everything_empties_but_keeps_store_valid(self, tmp_path, cjpeg_trace):
        store = open_store(tmp_path)
        jobs = build_grid_jobs([16], [2], (1, 2, 4))
        run_sweep(cjpeg_trace, jobs, store=store)
        assert len(store) > 0
        report = gc_store(store, keep_fingerprints=["0" * 64])
        assert len(report.removed) > 0
        assert report.kept == 0
        assert len(store) == 0
        # The store survives: the next sweep simply re-simulates everything.
        again = run_sweep(cjpeg_trace, jobs, store=store)
        assert again.executed_jobs == len(jobs)

    def test_gc_dry_run_deletes_nothing(self, tmp_path):
        store = open_store(tmp_path)
        path = store.put(_key(), _results())
        path.write_bytes(b"garbage")
        report = gc_store(store, dry_run=True)
        assert report.dry_run and len(report.removed) == 1
        assert path.is_file()
        assert "would remove" in report.summary()


class TestGcSizeBudget:
    def _aged_store(self, tmp_path, count=4):
        """A store of ``count`` artifacts with strictly increasing mtimes."""
        import os

        store = open_store(tmp_path)
        paths = []
        for index in range(count):
            path = store.put(_key(block_size=2 ** (index + 2)), _results())
            # Deterministic, widely spaced mtimes: oldest first.
            os.utime(path, (1_000_000 + index * 1000, 1_000_000 + index * 1000))
            paths.append(path)
        return store, paths

    def test_oldest_artifacts_evicted_first(self, tmp_path):
        store, paths = self._aged_store(tmp_path)
        sizes = [path.stat().st_size for path in paths]
        budget = sizes[2] + sizes[3]  # room for exactly the two newest
        report = gc_store(store, max_bytes=budget)
        assert report.budget_evicted == 2
        assert [record.path for record in report.removed] == paths[:2]
        assert not paths[0].is_file() and not paths[1].is_file()
        assert paths[2].is_file() and paths[3].is_file()
        assert report.kept == 2
        assert "evicted for the size budget" in report.summary()

    def test_budget_already_satisfied_evicts_nothing(self, tmp_path):
        store, paths = self._aged_store(tmp_path)
        report = gc_store(store, max_bytes=sum(p.stat().st_size for p in paths))
        assert report.budget_evicted == 0
        assert report.removed == ()
        assert report.kept == len(paths)

    def test_zero_budget_empties_store_but_keeps_it_valid(self, tmp_path, cjpeg_trace):
        store = open_store(tmp_path)
        jobs = build_grid_jobs([16], [2], (1, 2, 4))
        run_sweep(cjpeg_trace, jobs, store=store)
        report = gc_store(store, max_bytes=0)
        assert report.kept == 0
        assert len(store) == 0
        again = run_sweep(cjpeg_trace, jobs, store=store)
        assert again.executed_jobs == len(jobs)

    def test_budget_dry_run_deletes_nothing(self, tmp_path):
        store, paths = self._aged_store(tmp_path)
        report = gc_store(store, max_bytes=0, dry_run=True)
        assert report.budget_evicted == len(paths)
        assert all(path.is_file() for path in paths)

    def test_budget_applies_after_keep_filter(self, tmp_path):
        """Artifacts dropped by the keep-list do not count against the budget."""
        store = open_store(tmp_path)
        import os

        keep_path = store.put(_key("a" * 64), _results())
        drop_path = store.put(_key("b" * 64), _results())
        os.utime(keep_path, (2_000_000, 2_000_000))
        os.utime(drop_path, (1_000_000, 1_000_000))
        budget = keep_path.stat().st_size
        report = gc_store(store, keep_fingerprints=["a" * 12], max_bytes=budget)
        assert report.budget_evicted == 0
        assert keep_path.is_file() and not drop_path.is_file()

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="non-negative"):
            gc_store(open_store(tmp_path), max_bytes=-1)

    def test_cli_max_bytes(self, tmp_path, capsys):
        store, paths = self._aged_store(tmp_path)
        budget = sum(path.stat().st_size for path in paths[1:])
        assert main([
            "store", "gc", str(store.root), "--max-bytes", str(budget),
        ]) == 0
        out = capsys.readouterr().out
        assert "1 evicted for the size budget" in out
        assert not paths[0].is_file()
        assert all(path.is_file() for path in paths[1:])


class TestExportImport:
    def test_empty_store_round_trip(self, tmp_path):
        store = open_store(tmp_path / "a")
        payload = export_store(store, tmp_path / "a" / "MANIFEST.json")
        assert payload["artifacts"] == []
        report = import_store(open_store(tmp_path / "b"), tmp_path / "a" / "MANIFEST.json")
        assert report.imported == 0 and report.skipped == 0

    def test_export_skips_corrupt_artifacts(self, tmp_path):
        store = open_store(tmp_path)
        store.put(_key(block_size=16), _results())
        bad = store.put(_key(block_size=32), _results())
        bad.write_bytes(b"garbage")
        payload = export_store(store, tmp_path / "MANIFEST.json")
        assert len(payload["artifacts"]) == 1

    def test_import_is_idempotent(self, tmp_path):
        source = open_store(tmp_path / "a")
        source.put(_key(), _results())
        export_store(source, tmp_path / "a" / "MANIFEST.json")
        target = open_store(tmp_path / "b")
        first = import_store(target, tmp_path / "a" / "MANIFEST.json")
        second = import_store(target, tmp_path / "a" / "MANIFEST.json")
        assert (first.imported, first.skipped) == (1, 0)
        assert (second.imported, second.skipped) == (0, 1)

    def test_import_rejects_tampered_bundle(self, tmp_path):
        source = open_store(tmp_path / "a")
        path = source.put(_key(), _results())
        export_store(source, tmp_path / "a" / "MANIFEST.json")
        path.write_bytes(path.read_bytes() + b"tamper")
        target = open_store(tmp_path / "b")
        with pytest.raises(StoreError, match="hash check"):
            import_store(target, tmp_path / "a" / "MANIFEST.json")
        assert len(target) == 0  # nothing half-imported

    def test_import_rejects_unknown_schema(self, tmp_path):
        manifest = tmp_path / "MANIFEST.json"
        manifest.write_text(json.dumps({"manifest_schema": 999, "store_schema": 1}))
        with pytest.raises(StoreError, match="schema"):
            import_store(open_store(tmp_path / "b"), manifest)

    @settings(max_examples=8, deadline=None)
    @given(
        addresses=st.lists(st.integers(0, 1 << 12), min_size=1, max_size=200),
        block=st.sampled_from([8, 16]),
    )
    def test_export_import_sweep_byte_identity(self, addresses, block):
        """export -> fresh-dir import -> warm sweep == original warm sweep."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            trace = Trace(np.asarray(addresses, dtype=np.int64))
            jobs = build_grid_jobs([block], [1, 2], (1, 2, 4), policies=("fifo", "lru"))
            store_a = open_store(tmp / "a")
            run_sweep(trace, jobs, store=store_a)
            original = run_sweep(trace, jobs, store=store_a)
            assert original.executed_jobs == 0
            original_json = original.merged().to_json()
            export_store(store_a, tmp / "a" / "MANIFEST.json")
            store_b = open_store(tmp / "b")
            report = import_store(store_b, tmp / "a" / "MANIFEST.json")
            assert report.imported == len(store_a)
            imported = run_sweep(trace, jobs, store=store_b)
            assert imported.executed_jobs == 0
            assert imported.merged().to_json() == original_json


class TestHarnessStoreCells:
    def _kwargs(self, tmp_path):
        return dict(
            apps=["cjpeg"], block_sizes=(8,), associativities=(2,),
            set_sizes=(1, 2, 4), max_requests=1500, seed=7,
            store=tmp_path / "store",
        )

    def test_run_cell_warm_rerun_is_value_identical(self, tmp_path):
        from repro.bench.harness import ExperimentRunner

        cold = ExperimentRunner(**self._kwargs(tmp_path)).run_cell("cjpeg", 8, 2)
        warm_runner = ExperimentRunner(**self._kwargs(tmp_path))
        warm = warm_runner.run_cell("cjpeg", 8, 2)
        assert warm.as_dict() == cold.as_dict()
        store = warm_runner.store()
        assert store is not None
        assert store.hit_count == 2  # DEW half + baseline half

    def test_run_table3_uses_store(self, tmp_path):
        from repro.bench.harness import ExperimentRunner

        cold_cells = ExperimentRunner(**self._kwargs(tmp_path)).run_table3()
        warm_runner = ExperimentRunner(**self._kwargs(tmp_path))
        warm_cells = warm_runner.run_table3()
        assert [cell.as_dict() for cell in warm_cells] == [
            cell.as_dict() for cell in cold_cells
        ]
        store = warm_runner.store()
        assert store is not None and store.put_count == 0

    def test_storeless_runner_unchanged(self):
        from repro.bench.harness import ExperimentRunner

        runner = ExperimentRunner(
            apps=["cjpeg"], block_sizes=(8,), associativities=(2,),
            set_sizes=(1, 2, 4), max_requests=1500, seed=7,
        )
        cell = runner.run_cell("cjpeg", 8, 2)
        assert cell.exact_match
        assert cell.dew_seconds > 0 and cell.dinero_seconds > 0


class TestCliStoreManagement:
    @pytest.fixture
    def warm_store(self, tmp_path):
        din = tmp_path / "tiny.din"
        assert main(["generate", "cjpeg", str(din), "--requests", "1200"]) == 0
        store_dir = tmp_path / "store"
        assert main([
            "sweep", str(din), "--block-sizes", "8", "--associativities", "1,2",
            "--max-sets", "8", "--policies", "fifo,lru", "--store", str(store_dir),
        ]) == 0
        return store_dir

    def test_management_commands_refuse_missing_store(self, tmp_path, capsys):
        missing = tmp_path / "no-such-store"
        for command in (["store", "ls"], ["store", "verify"], ["store", "gc"],
                        ["store", "export"]):
            assert main(command + [str(missing)]) == 2
            assert "no result store" in capsys.readouterr().err
            assert not missing.exists()  # nothing silently created

    def test_ls_text_and_json(self, warm_store, capsys):
        assert main(["store", "ls", str(warm_store)]) == 0
        text = capsys.readouterr().out
        assert "2 artifact(s)" in text and "dew" in text and "janapsatya" in text
        assert main(["store", "ls", str(warm_store), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert {row["status"] for row in rows} == {"ok"}

    def test_verify_detects_deliberate_corruption(self, warm_store, capsys):
        assert main(["store", "verify", str(warm_store)]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        victim = sorted((warm_store / "objects").glob("*/*.npz"))[0]
        victim.write_bytes(b"deliberately corrupted")
        assert main(["store", "verify", str(warm_store)]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out and "[corrupt]" in out

    def test_gc_cleans_corruption_then_verify_passes(self, warm_store, capsys):
        victim = sorted((warm_store / "objects").glob("*/*.npz"))[0]
        victim.write_bytes(b"deliberately corrupted")
        assert main(["store", "gc", str(warm_store)]) == 0
        assert "removed 1 file(s)" in capsys.readouterr().out
        assert main(["store", "verify", str(warm_store)]) == 0

    def test_gc_keep_fingerprints_flag(self, warm_store, capsys):
        assert main([
            "store", "gc", str(warm_store), "--keep-fingerprints", "0" * 64,
        ]) == 0
        assert "removed 2 file(s)" in capsys.readouterr().out

    def test_export_import_round_trip_via_cli(self, warm_store, tmp_path, capsys):
        assert main(["store", "export", str(warm_store)]) == 0
        assert "exported 2 artifact(s)" in capsys.readouterr().out
        target = tmp_path / "other-store"
        assert main([
            "store", "import", str(target), str(warm_store / "MANIFEST.json"),
        ]) == 0
        assert "imported 2 artifact(s)" in capsys.readouterr().out
        assert main(["store", "verify", str(target)]) == 0
        # The default-named manifest is store bookkeeping, not foreign junk.
        assert main(["store", "verify", str(warm_store)]) == 0
        assert "0 foreign" in capsys.readouterr().out.splitlines()[-1]


class TestStreamingImport:
    """Imports stream chunk-by-chunk instead of staging whole files in memory."""

    def _bundle(self, tmp_path, artifacts=6):
        source = open_store(tmp_path / "bundle")
        for index in range(artifacts):
            source.put(
                _key(block_size=2 ** (index + 2)),
                _results(misses=index, config=CacheConfig(4, 2, 2 ** (index + 2))),
            )
        export_store(source, tmp_path / "bundle" / "MANIFEST.json")
        return source

    def test_multi_artifact_bundle_streams_in_small_chunks(self, tmp_path, monkeypatch):
        """Force a tiny chunk size: many-chunk copies must still be exact."""
        from repro.store import manage

        source = self._bundle(tmp_path)
        monkeypatch.setattr(manage, "STREAM_CHUNK_BYTES", 64)
        target = open_store(tmp_path / "target")
        report = import_store(target, tmp_path / "bundle" / "MANIFEST.json")
        assert report.imported == len(source) == 6
        assert report.copied_bytes == sum(
            path.stat().st_size for path in source.artifact_paths()
        )
        for path in source.artifact_paths():
            copied = target.root / path.relative_to(source.root)
            assert copied.read_bytes() == path.read_bytes()
        assert verify_store(target).clean

    def test_copy_aborts_when_source_changes_between_passes(self, tmp_path, monkeypatch):
        """A source mutated after validation fails in transit, atomically."""
        from repro.store import manage

        self._bundle(tmp_path, artifacts=2)
        manifest = tmp_path / "bundle" / "MANIFEST.json"
        payload = json.loads(manifest.read_text())
        victim = (tmp_path / "bundle" / payload["artifacts"][0]["path"]).resolve()

        real_sha = manage._sha256_file

        def sha_then_mutate(path):
            digest = real_sha(path)
            if Path(path).resolve() == victim:
                victim.write_bytes(b"mutated-after-validation")
            return digest

        monkeypatch.setattr(manage, "_sha256_file", sha_then_mutate)
        target = open_store(tmp_path / "target")
        with pytest.raises(StoreError, match="changed during import"):
            import_store(target, manifest)
        # The failed copy left no temp file and no mis-addressed artifact.
        assert verify_store(target).clean
        leftovers = [
            p for p in (target.root / "objects").rglob("*") if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_import_report_summary_mentions_bytes(self, tmp_path):
        self._bundle(tmp_path, artifacts=1)
        target = open_store(tmp_path / "target")
        report = import_store(target, tmp_path / "bundle" / "MANIFEST.json")
        assert "bytes" in report.summary()
        assert report.copied_bytes > 0
