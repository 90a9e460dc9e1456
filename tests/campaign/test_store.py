"""Content-addressed run keys and the on-disk result store."""

import dataclasses
import json
import os

import pytest

import repro
from repro.campaign import (
    Campaign,
    CampaignReport,
    ResultStore,
    StoreError,
    StoreIntegrityError,
    WorkloadSpec,
    expand_runs,
    run_campaign,
    run_key,
)
from repro.obs.manifest import fingerprint, package_version, scenario_to_dict
from repro.sim.runner import ScenarioConfig
from tests.campaign import chaos


def _campaign(**overrides):
    kwargs = dict(
        name="t",
        base=ScenarioConfig(n_nodes=6),
        n_slots=500,
        axes={"utilisation": (0.4, 0.8)},
        workload=WorkloadSpec(n_connections=4),
        n_replications=2,
        master_seed=5,
    )
    kwargs.update(overrides)
    return Campaign(**kwargs)


class TestRunKey:
    def test_stable_across_expansions(self):
        a = list(expand_runs(_campaign()))
        b = list(expand_runs(_campaign()))
        assert [run_key(s) for s in a] == [run_key(s) for s in b]

    def test_distinct_per_run(self):
        keys = [run_key(s) for s in expand_runs(_campaign())]
        assert len(set(keys)) == len(keys)

    def test_config_change_changes_key(self):
        base = next(iter(expand_runs(_campaign())))
        other = next(iter(expand_runs(_campaign(n_slots=600))))
        assert run_key(base) != run_key(other)

    def test_seed_change_changes_key(self):
        base = next(iter(expand_runs(_campaign())))
        other = next(iter(expand_runs(_campaign(master_seed=6))))
        assert run_key(base) != run_key(other)

    def test_campaign_name_does_not_change_key(self):
        # Two campaigns describing the same runs share cached results.
        base = next(iter(expand_runs(_campaign(name="a"))))
        other = next(iter(expand_runs(_campaign(name="b"))))
        assert run_key(base) == run_key(other)

    def test_replication_in_key(self):
        runs = list(expand_runs(_campaign()))
        spec0 = runs[0]
        spec1 = dataclasses.replace(spec0, replication=1)
        assert run_key(spec0) != run_key(spec1)


def _key_from_scratch(spec):
    """The documented key payload, fingerprinted with no caching."""
    point = spec.point
    return fingerprint(
        {
            "config": scenario_to_dict(point.config),
            "workload": (
                dataclasses.asdict(point.workload)
                if point.workload is not None
                else None
            ),
            "n_slots": point.n_slots,
            "seed": list(spec.seed_entropy),
            "code_version": package_version(),
        }
    )


class TestGoldenKeys:
    """Caching the key must never silently re-key a store."""

    def test_pinned_keys(self, monkeypatch):
        monkeypatch.setattr(repro, "__version__", "0.0.0+golden")
        specs = list(expand_runs(_campaign(name="golden")))
        assert [run_key(s) for s in specs[:3]] == [
            "6754bdcc8207502c1351",
            "183885c52a9e8eda5b29",
            "c1c5d9397d26c8f45898",
        ]

    def test_cached_key_equals_from_scratch_fingerprint(self):
        e2e_grid = Campaign(
            name="e2e-grid",
            base=ScenarioConfig(n_nodes=8),
            n_slots=2_000,
            axes={
                "utilisation": tuple(
                    round(0.15 + 0.05 * i, 2) for i in range(16)
                )
            },
            workload=WorkloadSpec(n_connections=12),
            n_replications=12,
            master_seed=1,
            engine="vector",
        )
        no_workload = Campaign(
            name="plain",
            base=ScenarioConfig(n_nodes=4),
            n_slots=300,
            axes={"protocol": ("ccr-edf", "tdma"), "n_slots": (100, 200)},
            n_replications=2,
        )
        for campaign in (e2e_grid, no_workload):
            for spec in expand_runs(campaign):
                assert run_key(spec) == _key_from_scratch(spec)
                assert run_key(spec) == run_key(spec)  # the cached read


class TestResultStore:
    def test_save_load_contains(self, tmp_path):
        store = ResultStore(tmp_path)
        assert "abc" not in store
        store.save("abc", {"row": {"x": 1}})
        assert "abc" in store
        assert store.load("abc") == {"row": {"x": 1}}
        assert store.keys() == ["abc"]
        assert len(store) == 1

    def test_atomic_write_leaves_no_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("abc", {"row": {}})
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_campaign_snapshot_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        c = _campaign()
        store.save_campaign(c)
        assert store.load_campaign() == c

    def test_missing_snapshot_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no campaign snapshot"):
            ResultStore(tmp_path).load_campaign()


class TestIntegrity:
    """Checksummed records, store-level errors, and fsck."""

    def _stored(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("abc", {"row": {"x": 1, "y": 2.5}})
        return store, store.segment_path

    def test_documents_carry_checksum_envelope(self, tmp_path):
        _store, path = self._stored(tmp_path)
        (line,) = path.read_text().splitlines()
        # The record contract: field order, canonical payload, one line.
        assert line.startswith('{"key":"abc","payload":{"row":{"x":1,"y":2.5}}')
        raw = json.loads(line)
        assert list(raw) == ["key", "payload", "sha256"]
        assert len(raw["sha256"]) == 64

    def test_load_rejects_tampered_payload(self, tmp_path):
        store, path = self._stored(tmp_path)
        path.write_text(path.read_text().replace('"x":1', '"x":7'))
        with pytest.raises(StoreIntegrityError, match="checksum mismatch"):
            store.load("abc")
        # The error is a StoreError, names the segment, and points at fsck.
        try:
            store.load("abc")
        except StoreError as exc:
            assert exc.path == path
            assert "repro campaign fsck" in str(exc)

    def test_load_rejects_truncated_document(self, tmp_path):
        store, path = self._stored(tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(StoreIntegrityError, match="truncated or invalid"):
            store.load("abc")
        # A store opened on the torn segment does not index the record.
        assert "abc" not in ResultStore(tmp_path)

    def test_load_verifies_bytes_on_disk_every_time(self, tmp_path):
        store, path = self._stored(tmp_path)
        assert store.is_valid("abc") and store.load("abc")
        # Damage arriving *after* a successful read is still caught: the
        # index holds no verdict, only where to read.
        chaos.damage_record(tmp_path, 0, "flip")
        assert "abc" in store and not store.is_valid("abc")
        with pytest.raises(StoreIntegrityError):
            store.load("abc")

    def test_load_rejects_record_filed_under_another_key(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("aaa", {"row": {"x": 1}})
        store.save("bbb", {"row": {"x": 2}})
        data = store.segment_path.read_bytes()
        a, b = data.splitlines(keepends=True)
        store.segment_path.write_bytes(b + a)  # same lengths, swapped
        with pytest.raises(StoreIntegrityError, match="filed under"):
            store.load("aaa")
        assert ResultStore(tmp_path).load("aaa") == {"row": {"x": 1}}

    def test_load_missing_key_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            ResultStore(tmp_path).load("missing")

    def test_is_valid_never_raises(self, tmp_path):
        store, path = self._stored(tmp_path)
        assert store.is_valid("abc")
        assert not store.is_valid("missing")
        path.write_bytes(b"\x00\xff")
        assert not store.is_valid("abc")

    def test_last_record_of_a_key_wins(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k", {"row": {"x": 1}})
        store.save("other", {"row": {"x": 0}})
        store.save("k", {"row": {"x": 2}})
        for opened in (store, ResultStore(tmp_path)):
            assert opened.load("k") == {"row": {"x": 2}}
            assert opened.keys() == ["k", "other"] and len(opened) == 2
        report = store.fsck()
        assert report.clean and report.superseded == 1
        store.fsck(repair=True)
        assert len(chaos.record_spans(tmp_path)) == 2
        assert store.load("k") == {"row": {"x": 2}}
        assert ResultStore(tmp_path).fsck().superseded == 0

    def test_legacy_unchecksummed_document_accepted(self, tmp_path):
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "old.json").write_text(
            json.dumps({"row": {"x": 1}})
        )
        store = ResultStore(tmp_path)
        assert store.load("old") == {"row": {"x": 1}}
        assert store.is_valid("old")
        assert store.fsck().clean

    def test_corrupt_snapshot_raises_store_error_not_json_error(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        store.save_campaign(_campaign())
        store.spec_path.write_text('{"name": "t", truncated')
        with pytest.raises(StoreIntegrityError, match="invalid JSON"):
            store.load_campaign()

    def test_fsck_detects_and_repairs(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(_campaign())
        store.save("a", {"row": {"x": 1}})
        store.save("b", {"row": {"x": 2}})
        assert store.fsck().clean

        chaos.damage_record(tmp_path, 0, "truncate")
        store = ResultStore(tmp_path)
        report = store.fsck()
        assert not report.clean
        assert report.scanned == 3 and report.ok == 2
        ((where, reason),) = report.corrupt
        assert where == f"{store.segment_path}@0"
        assert "truncated or invalid" in reason and "key a" in reason

        repaired = store.fsck(repair=True)
        assert repaired.clean
        assert repaired.repaired == (where,)
        # The repairing store keeps working on the rewritten segment ...
        assert "a" not in store and store.load("b") == {"row": {"x": 2}}
        store.save("a", {"row": {"x": 1}})
        # ... and so does anyone opening it afterwards.
        reopened = ResultStore(tmp_path)
        assert reopened.keys() == ["a", "b"]
        assert reopened.fsck().clean

    def test_fsck_detects_and_repairs_a_damaged_quarantine_record(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        store.save("a", {"row": {"x": 1}})
        store.save_failure("bad", {"error": "boom", "attempts": 3})
        store.save_failure("ok", {"error": "boom", "attempts": 1})
        assert store.fsck().clean
        damaged = store.failure_path_for("bad")
        damaged.write_text(damaged.read_text().replace("boom", "bang"))

        report = store.fsck()
        assert not report.clean
        ((where, reason),) = report.corrupt
        assert where == str(damaged) and "checksum mismatch" in reason

        repaired = store.fsck(repair=True)
        assert repaired.repaired == (str(damaged),)
        assert not damaged.exists()
        assert store.failure_keys() == ["ok"]
        assert store.fsck().clean

    def test_fsck_never_evicts_the_spec_snapshot(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_campaign(_campaign())
        store.spec_path.write_text("not json")
        report = store.fsck(repair=True)
        assert not report.clean
        assert store.spec_path.exists()

    def test_fsck_sweeps_stray_tmp_files(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("a", {"row": {}})
        stray = store.root / "runs.jsonl.tmp"  # a repair killed mid-write
        stray.write_text('{"key":')
        report = store.fsck(repair=True)
        assert report.stray_tmp == (str(stray),)
        assert not stray.exists()


class TestTornTail:
    """A writer killed mid-record leaves a torn last line."""

    def test_every_cut_inside_the_last_record(self, tmp_path):
        whole = ResultStore(tmp_path / "whole")
        docs = {k: {"row": {"x": i, "y": [1.5, None]}} for i, k in
                enumerate(("k0", "k1", "k2"))}
        for key, doc in docs.items():
            whole.save(key, doc)
        data = whole.segment_path.read_bytes()
        last_offset, last_length = chaos.record_spans(whole.root)[-1]
        for cut in range(last_offset + 1, last_offset + last_length):
            root = tmp_path / f"cut-{cut}"
            root.mkdir()
            (root / "runs.jsonl").write_bytes(data[:cut])
            store = ResultStore(root)
            # Earlier records load; the torn one probes as not cached.
            assert store.keys() == ["k0", "k1"]
            assert store.load("k0") == docs["k0"]
            assert store.load("k1") == docs["k1"]
            assert "k2" not in store and not store.is_valid("k2")
            # The next save lands intact on its own line.
            store.save("k3", {"row": {"x": 3}})
            assert store.load("k3") == {"row": {"x": 3}}
            assert ResultStore(root).load("k3") == {"row": {"x": 3}}
            assert (root / "runs.jsonl").read_bytes().startswith(
                data[:cut] + b"\n"
            )
            report = store.fsck()
            if cut == last_offset + last_length - 1:
                # Only the newline was lost: the fence completes the
                # record, and it verifies.
                assert report.clean and report.ok == 4
                assert ResultStore(root).load("k2") == docs["k2"]
                continue
            assert len(report.corrupt) == 1 and report.ok == 3
            assert store.fsck(repair=True).clean
            after = ResultStore(root).fsck()
            assert after.clean and not after.corrupt and after.scanned == 3

    def test_torn_tail_without_a_later_save(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("k0", {"row": {"x": 0}})
        store.save("k1", {"row": {"x": 1}})
        chaos.truncate_tail(tmp_path, 5)
        store = ResultStore(tmp_path)
        assert store.keys() == ["k0"]
        report = store.fsck()
        assert [w for w, _ in report.corrupt] == [
            f"{store.segment_path}@{chaos.record_spans(tmp_path)[0][1]}"
        ]
        assert store.fsck(repair=True).clean
        assert store.segment_path.read_bytes().endswith(b"}\n")
        assert len(chaos.record_spans(tmp_path)) == 1


class TestCorruptRecordReRun:
    def test_rerun_supersedes_and_report_is_byte_identical(self, tmp_path):
        c = _campaign()
        clean = ResultStore(tmp_path / "clean")
        run_campaign(c, clean)
        run_campaign(c, ResultStore(tmp_path / "healed"))
        for n, how in enumerate(("flip", "garbage", "truncate")):
            chaos.damage_record(tmp_path / "healed", n, how)
        summary = run_campaign(c, ResultStore(tmp_path / "healed"))
        # The garbage line names no key, so it reads as missing, not
        # corrupt; all three are re-run.
        assert summary.executed == 3 and summary.corrupt_replaced == 2
        assert summary.complete
        healed = ResultStore(tmp_path / "healed")
        assert len(chaos.record_spans(healed.root)) == c.total_runs + 3

        def report_bytes(store, name):
            CampaignReport.from_store(c, store).to_csv(tmp_path / name)
            return (tmp_path / name).read_bytes()

        assert report_bytes(healed, "a.csv") == report_bytes(clean, "b.csv")
        assert healed.fsck(repair=True).clean
        assert report_bytes(healed, "c.csv") == report_bytes(clean, "b.csv")
        # Compacted in surviving-line order, the segments need not be
        # byte-equal (meta.elapsed_host_s differs) but hold the same keys.
        assert healed.keys() == clean.keys()


class TestLegacyImport:
    """A file-per-run ``runs/`` directory is imported once, then removed."""

    def test_valid_mismatched_and_prechecksum_documents(self, tmp_path):
        from repro.campaign.store import _payload_digest

        runs = tmp_path / "runs"
        runs.mkdir()
        good = {"row": {"x": 1}}
        (runs / "good.json").write_text(
            json.dumps(
                {"payload": good, "sha256": _payload_digest(good)}, indent=2
            )
        )
        (runs / "bad.json").write_text(
            json.dumps({"payload": {"row": {"x": 2}},
                        "sha256": _payload_digest(good)})
        )
        (runs / "old.json").write_text(json.dumps({"row": {"x": 3}}))
        (runs / "torn.json").write_text('{"payload": {"row"')

        store = ResultStore(tmp_path)
        assert not runs.exists()
        assert store.keys() == ["good", "old"]
        assert store.load("good") == good
        assert store.load("old") == {"row": {"x": 3}}
        # Imported records are ordinary records: checksummed, fsck-clean.
        report = store.fsck()
        assert report.clean and report.ok == 2 and report.legacy == 0
        assert ResultStore(tmp_path).keys() == ["good", "old"]


class TestDescriptors:
    def test_store_leaks_no_descriptor(self, tmp_path):
        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        ResultStore(tmp_path / "warm").save("k", {"row": {}})
        before = open_fds()
        for i in range(20):
            store = ResultStore(tmp_path / f"s{i % 3}")
            store.save(f"k{i}", {"row": {"i": i}})
            store.save(f"k{i}", {"row": {"i": -i}})
            store.fsck(repair=True)  # reopens the segment
            assert store.load(f"k{i}") == {"row": {"i": -i}}
            del store
        assert open_fds() == before


class TestQuarantineRecords:
    def test_failure_round_trip_and_listing(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.failure_keys() == []
        store.save_failure("k", {"run_key": "k", "attempts": []})
        assert store.failure_keys() == ["k"]
        assert store.load_failure("k")["run_key"] == "k"
        store.clear_failure("k")
        store.clear_failure("k")  # idempotent
        assert store.failure_keys() == []

    def test_successful_save_clears_quarantine(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save_failure("k", {"run_key": "k", "attempts": []})
        store.save("k", {"row": {"x": 1}})
        assert store.failure_keys() == []
        assert "k" in store
        # ... also when the record was quarantined by an earlier process.
        store.save_failure("j", {"run_key": "j", "attempts": []})
        ResultStore(tmp_path).save("j", {"row": {"x": 2}})
        assert store.failure_keys() == []

    def test_save_touches_failed_dir_only_after_a_failure(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        unlinked = []
        real_unlink = Path.unlink

        def spy(self, *args, **kwargs):
            unlinked.append(self)
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", spy)
        store = ResultStore(tmp_path)
        store.save("a", {"row": {}})
        store.clear_failure("a")
        assert unlinked == [] and not store.failed_dir.exists()
        store.save_failure("b", {"run_key": "b", "attempts": []})
        store.save("b", {"row": {}})
        assert unlinked == [store.failure_path_for("b")]
