"""The unified store layer: content addressing, merge-on-save, locking.

Every persistent artifact in the system (solver-cache verdicts, UNSAT
cores, witness records) rides on this layer, so its
contract is tested directly: records survive round trips, concurrent
saves take the union, stamps invalidate cold, orphaned shard files never
resurrect, and the save lock is exclusive yet recoverable when its
holder dies.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import pytest

from repro.store import ArtifactStore, DirectoryLock, StoreRecord, content_key
from repro.store.locking import DEFAULT_TIMEOUT_SECONDS

FP = ["test-fingerprint", 1]


def _store(tmp_path, **kwargs):
    kwargs.setdefault("version", 7)
    return ArtifactStore(str(tmp_path), **kwargs)


def _record(kind, payload):
    return StoreRecord(kind, content_key(kind, payload), payload)


class TestContentKey:
    def test_deterministic_across_dict_ordering(self):
        assert content_key("k", {"a": 1, "b": 2}) == content_key(
            "k", {"b": 2, "a": 1}
        )

    def test_kind_namespaces_the_hash(self):
        assert content_key("query", [1, 2]) != content_key("core", [1, 2])


class TestRoundTrip:
    def test_save_then_load_restores_every_record(self, tmp_path):
        store = _store(tmp_path)
        records = [
            _record("alpha", {"x": 1}),
            _record("alpha", {"x": 2}),
            _record("beta", [1, 2, 3]),
        ]
        assert store.save(FP, records) == 3
        loaded = store.load(FP)
        assert sorted((r.kind, r.key) for r in loaded) == sorted(
            (r.kind, r.key) for r in records
        )
        by_slot = {(r.kind, r.key): r.payload for r in loaded}
        for record in records:
            assert by_slot[(record.kind, record.key)] == record.payload

    def test_duplicate_records_store_once(self, tmp_path):
        store = _store(tmp_path)
        record = _record("alpha", {"x": 1})
        assert store.save(FP, [record, record]) == 1

    def test_meta_stamps_version_fingerprint_and_kinds(self, tmp_path):
        store = _store(tmp_path, version=7)
        store.save(FP, [_record("alpha", 1), _record("beta", 2)])
        meta = store.read_meta()
        assert meta["version"] == 7
        assert meta["fingerprint"] == FP
        assert meta["entries"] == 2
        assert meta["kinds"] == {"alpha": 1, "beta": 1}


class TestMergeOnSave:
    def test_two_saves_union(self, tmp_path):
        """The lost-update fix at its root: later saves merge, never clobber."""
        _store(tmp_path).save(FP, [_record("alpha", {"x": 1})])
        _store(tmp_path).save(FP, [_record("alpha", {"x": 2})])
        assert len(_store(tmp_path).load(FP)) == 2

    def test_replace_discards_on_disk_records(self, tmp_path):
        store = _store(tmp_path)
        store.save(FP, [_record("alpha", {"x": 1})])
        store.save(FP, [_record("alpha", {"x": 2})], replace=True)
        [record] = store.load(FP)
        assert record.payload == {"x": 2}

    def test_merge_record_resolves_collisions(self, tmp_path):
        store = _store(tmp_path)
        record = StoreRecord("alpha", "same-key", {"seen": 1})
        store.save(FP, [record])
        merged = store.save(
            FP,
            [StoreRecord("alpha", "same-key", {"seen": 5})],
            merge_record=lambda kind, old, new: {
                "seen": old["seen"] + new["seen"]
            },
        )
        assert merged == 1
        [out] = store.load(FP)
        assert out.payload == {"seen": 6}

    def test_merge_record_exception_keeps_incoming(self, tmp_path):
        store = _store(tmp_path)
        store.save(FP, [StoreRecord("alpha", "same-key", "bad-old")])

        def merge(kind, old, new):
            raise ValueError("undecodable existing payload")

        store.save(
            FP, [StoreRecord("alpha", "same-key", "good-new")], merge_record=merge
        )
        [out] = store.load(FP)
        assert out.payload == "good-new"

    def test_fingerprint_mismatch_save_is_cold_overwrite(self, tmp_path):
        store = _store(tmp_path)
        store.save(["other-config"], [_record("alpha", 1)])
        store.save(FP, [_record("alpha", 2)])
        [record] = store.load(FP)
        assert record.payload == 2


class TestInvalidation:
    def test_missing_dir_is_cold(self, tmp_path):
        assert _store(tmp_path / "nope").load(FP) == []

    def test_version_mismatch_is_cold(self, tmp_path):
        _store(tmp_path, version=7).save(FP, [_record("alpha", 1)])
        assert _store(tmp_path, version=8).load(FP) == []

    def test_fingerprint_mismatch_is_cold(self, tmp_path):
        store = _store(tmp_path)
        store.save(FP, [_record("alpha", 1)])
        assert store.load(["different"]) == []

    def test_corrupt_meta_is_cold(self, tmp_path):
        store = _store(tmp_path)
        store.save(FP, [_record("alpha", 1)])
        (tmp_path / "meta.json").write_text("][")
        assert store.load(FP) == []

    def test_corrupt_shard_loses_only_its_records(self, tmp_path):
        store = _store(tmp_path, shard_count=4)
        records = [_record("alpha", i) for i in range(16)]
        store.save(FP, records)
        shard_files = sorted(tmp_path.glob("shard-*.json"))
        assert len(shard_files) > 1
        lost = len(json.loads(shard_files[0].read_text()))
        shard_files[0].write_text("{ not json")
        assert len(store.load(FP)) == len(records) - lost

    def test_malformed_envelopes_are_skipped(self, tmp_path):
        store = _store(tmp_path, shard_count=1)
        store.save(FP, [_record("alpha", 1)])
        shard = tmp_path / "shard-00.json"
        envelopes = json.loads(shard.read_text())
        envelopes.extend(
            ["not-a-dict", {"k": "alpha"}, {"h": "key-only"}, {"k": 1, "h": "x", "d": 0}]
        )
        shard.write_text(json.dumps(envelopes))
        assert len(store.load(FP)) == 1


class TestOrphanedShards:
    def test_shrunk_shard_count_removes_stale_files(self, tmp_path):
        """Records re-sharded under a smaller count must not leave the old
        layout's files behind — a later wider layout would resurrect them."""
        wide = _store(tmp_path, shard_count=16)
        records = [_record("alpha", i) for i in range(64)]
        wide.save(FP, records)
        assert len(list(tmp_path.glob("shard-*.json"))) > 1

        narrow = _store(tmp_path, shard_count=1)
        narrow.save(FP, [_record("alpha", "extra")])
        assert sorted(p.name for p in tmp_path.glob("shard-*.json")) == [
            "shard-00.json"
        ]
        assert len(narrow.load(FP)) == len(records) + 1

    def test_regrowing_shard_count_sees_no_ghosts(self, tmp_path):
        wide = _store(tmp_path, shard_count=16)
        wide.save(FP, [_record("alpha", i) for i in range(64)])
        _store(tmp_path, shard_count=1).save(FP, [], replace=True)
        assert _store(tmp_path, shard_count=16).load(FP) == []


def _file_stamps(root):
    """``name -> (inode, mtime_ns)`` of every meta and shard file under ``root``."""
    return {
        path.name: (path.stat().st_ino, path.stat().st_mtime_ns)
        for path in sorted(root.glob("*.json"))
    }


class TestWriteOnlyWhatChanged:
    def test_identical_second_save_rewrites_no_file(self, tmp_path):
        records = [_record("alpha", i) for i in range(32)]
        _store(tmp_path, shard_count=4).save(FP, records)
        before = _file_stamps(tmp_path)
        assert "meta.json" in before and len(before) > 2
        # Same records from a fresh store object, as a later run would save.
        assert _store(tmp_path, shard_count=4).save(FP, records) == len(records)
        assert _file_stamps(tmp_path) == before
        assert len(_store(tmp_path, shard_count=4).load(FP)) == len(records)

    def test_one_new_record_rewrites_its_shard_and_meta(self, tmp_path):
        store = _store(tmp_path, shard_count=4)
        store.save(FP, [_record("alpha", i) for i in range(32)])
        before = _file_stamps(tmp_path)
        extra = _record("alpha", "extra")
        store.save(FP, [extra])
        after = _file_stamps(tmp_path)
        shard = f"shard-{store._shard_of(extra.key):02d}.json"
        changed = {name for name in after if after[name] != before.get(name)}
        assert changed == {shard, "meta.json"}
        assert store.read_meta()["entries"] == 33

    def test_one_changed_payload_rewrites_its_shard_and_meta(self, tmp_path):
        store = _store(tmp_path, shard_count=4)
        store.save(FP, [StoreRecord("alpha", f"key-{i}", 1) for i in range(16)])
        before = _file_stamps(tmp_path)
        store.save(
            FP,
            [StoreRecord("alpha", "key-3", 1)],
            merge_record=lambda kind, old, new: old + new,
        )
        after = _file_stamps(tmp_path)
        shard = f"shard-{store._shard_of('key-3'):02d}.json"
        changed = {name for name in after if after[name] != before.get(name)}
        # The entry count is unchanged, so meta.json's text is too.
        assert changed == {shard}
        payloads = {r.key: r.payload for r in store.load(FP)}
        assert payloads["key-3"] == 2

    def test_shrunk_shard_count_still_compacts(self, tmp_path):
        records = [_record("alpha", i) for i in range(64)]
        _store(tmp_path, shard_count=16).save(FP, records)
        narrow = _store(tmp_path, shard_count=1)
        narrow.save(FP, records)
        assert sorted(p.name for p in tmp_path.glob("shard-*.json")) == [
            "shard-00.json"
        ]
        assert narrow.read_meta()["shards"] == 1
        assert len(narrow.load(FP)) == len(records)

    def test_fingerprint_mismatch_still_overwrites(self, tmp_path):
        records = [_record("alpha", i) for i in range(8)]
        _store(tmp_path, shard_count=1).save(["other-config"], records)
        before = _file_stamps(tmp_path)
        store = _store(tmp_path, shard_count=1)
        store.save(FP, records)
        after = _file_stamps(tmp_path)
        # Same records, but written under a stale stamp: nothing is kept.
        assert all(after[name] != before[name] for name in before)
        assert store.read_meta()["fingerprint"] == FP
        assert len(store.load(FP)) == len(records)


class TestCleanLoad:
    """``load_checked`` reports clean only when a save adding nothing would
    rewrite no file; anything a save would heal makes it unclean."""

    def test_a_saved_store_loads_clean(self, tmp_path):
        records = [_record("alpha", i) for i in range(32)]
        _store(tmp_path, shard_count=4).save(FP, records)
        loaded, clean = _store(tmp_path, shard_count=4).load_checked(FP)
        assert clean and len(loaded) == len(records)

    def test_an_absent_store_is_not_clean(self, tmp_path):
        assert _store(tmp_path / "nope").load_checked(FP) == ([], False)

    @pytest.mark.parametrize(
        "damage",
        ["corrupt", "empty", "malformed", "missing", "orphan", "stamp", "layout"],
    )
    def test_damage_a_save_would_heal_is_not_clean(self, tmp_path, damage):
        records = [_record("alpha", i) for i in range(32)]
        _store(tmp_path, shard_count=4).save(FP, records)
        shard = sorted(tmp_path.glob("shard-*.json"))[0]
        shard_count = 4
        if damage == "corrupt":
            shard.write_text("{ not json")
        elif damage == "empty":
            shard.write_text("[]")
        elif damage == "malformed":
            envelopes = json.loads(shard.read_text())
            shard.write_text(json.dumps(envelopes + [{"k": 1}]))
        elif damage == "missing":
            shard.unlink()
        elif damage == "orphan":
            (tmp_path / "shard-09.json").write_text("[]")
        elif damage == "stamp":
            meta = json.loads((tmp_path / "meta.json").read_text())
            meta["fingerprint"] = ["other-config"]
            (tmp_path / "meta.json").write_text(json.dumps(meta))
        else:
            shard_count = 8
        _, clean = _store(tmp_path, shard_count=shard_count).load_checked(FP)
        assert not clean


class TestPrivateTempFiles:
    def test_failing_replace_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def failing_replace(source, target):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="replace failed"):
            _store(tmp_path).save(FP, [_record("alpha", 1)])
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == []

    def test_interleaved_writers_never_publish_unparsable_json(
        self, tmp_path, monkeypatch
    ):
        """A lock broken as stale may still have a live holder.  Here the
        second writer runs to completion between the first writer's open
        of its temp file and its write: with one shared temp name the
        first writer's text lands in the file the second just published,
        over the start of a longer text."""
        from repro.store import base

        path = str(tmp_path / "shard-00.json")
        short = [{"k": "alpha", "h": "a", "d": 1}]
        long = [{"k": "alpha", "h": f"key-{i}", "d": i} for i in range(50)]
        real_open = open
        opened = []

        def interleaving_open(file, *args, **kwargs):
            handle = real_open(file, *args, **kwargs)
            if not opened:
                opened.append(file)
                base._write_if_changed(path, long, {})
            return handle

        monkeypatch.setattr(base, "open", interleaving_open, raising=False)
        base._write_if_changed(path, short, {})
        monkeypatch.undo()
        assert json.loads((tmp_path / "shard-00.json").read_text()) == short
        assert sorted(p.name for p in tmp_path.iterdir()) == ["shard-00.json"]


class TestDirectoryLock:
    def test_exclusive_and_context_managed(self, tmp_path):
        path = str(tmp_path / ".lock")
        with DirectoryLock(path) as lock:
            assert lock.held
            assert os.path.exists(path)
            other = DirectoryLock(path, timeout=0.2, poll=0.01)
            acquired_late = []
            thread = threading.Thread(
                target=lambda: (other.acquire(), acquired_late.append(True))
            )
            thread.start()
            thread.join(timeout=0.05)
            assert not acquired_late  # still blocked on the holder
            lock.release()
            thread.join(timeout=5)
            assert acquired_late
            other.release()
        assert not os.path.exists(path)

    def test_release_is_idempotent(self, tmp_path):
        lock = DirectoryLock(str(tmp_path / ".lock"))
        lock.acquire()
        lock.release()
        lock.release()
        assert not lock.held

    def test_reacquire_while_held_raises(self, tmp_path):
        with DirectoryLock(str(tmp_path / ".lock")) as lock:
            with pytest.raises(RuntimeError):
                lock.acquire()

    def test_stale_lock_is_broken_after_timeout(self, tmp_path):
        path = tmp_path / ".lock"
        path.write_text("99999")  # a holder that died long ago
        lock = DirectoryLock(str(path), timeout=0.1, poll=0.01)
        lock.acquire()  # must not deadlock
        assert lock.held
        lock.release()

    def test_fresh_holder_resets_patience(self, tmp_path):
        """A lock whose identity changes belongs to a live writer; the
        waiting breaker must start its deadline over instead of breaking."""
        path = tmp_path / ".lock"
        stop = threading.Event()

        def churn():
            # Simulate a sequence of short-lived live holders.
            while not stop.is_set():
                holder = DirectoryLock(str(path), timeout=1.0, poll=0.001)
                holder.acquire()
                holder.release()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            waiter = DirectoryLock(str(path), timeout=0.3, poll=0.001)
            waiter.acquire()
            assert waiter.held
            waiter.release()
        finally:
            stop.set()
            thread.join(timeout=5)

    def test_default_timeout_is_finite(self):
        assert 0 < DEFAULT_TIMEOUT_SECONDS < 60


def _stress_writer(root, index, barrier):
    from repro.store import ArtifactStore, StoreRecord, content_key

    store = ArtifactStore(root, version=7, shard_count=4)
    records = [
        StoreRecord("alpha", content_key("alpha", [index, j]), [index, j])
        for j in range(5)
    ]
    barrier.wait()
    store.save(["stress"], records)


class TestConcurrentMergeOnSave:
    def test_parallel_processes_lose_no_records(self, tmp_path):
        """N processes save disjoint record sets through one directory at
        once; merge-on-save under the lock must preserve the union."""
        ctx = multiprocessing.get_context("spawn")
        writer_count = 4
        barrier = ctx.Barrier(writer_count)
        processes = [
            ctx.Process(
                target=_stress_writer, args=(str(tmp_path), i, barrier)
            )
            for i in range(writer_count)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
            assert process.exitcode == 0
        loaded = ArtifactStore(str(tmp_path), version=7, shard_count=4).load(
            ["stress"]
        )
        assert sorted(tuple(r.payload) for r in loaded) == sorted(
            (i, j) for i in range(writer_count) for j in range(5)
        )

    def test_parallel_threads_lose_no_records(self, tmp_path):
        signatures = list(range(12))

        def save_one(index):
            _store(tmp_path).save(FP, [_record("alpha", index)])

        threads = [
            threading.Thread(target=save_one, args=(i,)) for i in signatures
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(_store(tmp_path).load(FP)) == len(signatures)
