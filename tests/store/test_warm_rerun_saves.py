"""A warm rerun pays only for what changed.

A solver-cache save writes only the entries its load did not supply; with
nothing new after a clean load it takes no lock, re-reads nothing and
writes nothing.  Each interned term is encoded once per process, and the
encoding equals the plain tree encoding the store has always written.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.campaign import CampaignConfig, run_campaign
from repro.obs.metrics import counter_value
from repro.smt import builder as b
from repro.smt.cache import CachedVerdict, CanonicalSystem, SolverCache
from repro.smt.cachestore import (
    CacheStore,
    export_wire_entries,
    merge_wire_entries,
    term_from_wire,
    term_to_wire,
)
from repro.smt.evalmodel import Model
from repro.smt.solver import SolverConfig
from repro.smt.terms import TermKind
from repro.store import ArtifactStore
from repro.store.locking import DirectoryLock

APPS = ["vlc", "swfplay"]


def _config(tmp_path, backend="serial", apps=APPS, **overrides):
    return CampaignConfig(
        backend=backend,
        jobs=1 if backend == "serial" else 2,
        applications=apps,
        cache_dir=str(tmp_path / "cache"),
        corpus_dir=str(tmp_path / "corpus"),
        **overrides,
    )


def _file_states(directory):
    """``name -> (mtime_ns, bytes)`` of every file in ``directory``."""
    states = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            states[name] = (os.stat(path).st_mtime_ns, handle.read())
    return states


@pytest.fixture
def cache_writes(monkeypatch):
    """Record the root of every artifact-store save and every lock path."""
    saves, locks = [], []
    original_save = ArtifactStore.save
    original_acquire = DirectoryLock.acquire

    def save(self, *args, **kwargs):
        saves.append(self.root)
        return original_save(self, *args, **kwargs)

    def acquire(self):
        locks.append(os.path.dirname(self.path))
        return original_acquire(self)

    monkeypatch.setattr(ArtifactStore, "save", save)
    monkeypatch.setattr(DirectoryLock, "acquire", acquire)
    return saves, locks


def _synthetic(cache, fingerprint, value, reason="synthetic"):
    x = b.bv_var("v000", 16)
    return cache.merge_canonical(
        fingerprint,
        (b.eq(x, b.bv_const(value, 16)),),
        CachedVerdict(
            status="sat", canonical_model=Model({"v000": value}), reason=reason
        ),
    )


class TestUnchangedRerun:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_skip_known_rerun_writes_nothing(self, tmp_path, backend, cache_writes):
        saves, locks = cache_writes
        populate = run_campaign(_config(tmp_path, backend))
        cache_dir = str(tmp_path / "cache")
        assert saves.count(cache_dir) == 1
        before = _file_states(cache_dir)
        del saves[:], locks[:]

        rerun = run_campaign(_config(tmp_path, backend, skip_known=True))
        assert saves.count(cache_dir) == 0
        assert locks.count(cache_dir) == 0
        assert _file_states(cache_dir) == before
        assert rerun.cache_loaded > 0
        assert rerun.cache_saved == rerun.cache_loaded == populate.cache_saved
        assert counter_value(rerun.metrics, "store.saves_skipped") == 1
        assert rerun.classifications() == populate.classifications()

    def test_corrupt_shard_is_rewritten_by_the_next_rerun(self, tmp_path):
        populate = run_campaign(_config(tmp_path))
        cache_dir = tmp_path / "cache"
        before = _file_states(str(cache_dir))
        shard = sorted(cache_dir.glob("shard-*.json"))[0]
        shard.write_text("{ not json")

        rerun = run_campaign(_config(tmp_path))
        assert rerun.cache_loaded < populate.cache_saved
        assert rerun.cache_saved == populate.cache_saved
        # The shard's verdicts were re-solved and written back as before.
        after = _file_states(str(cache_dir))
        assert {name: text for name, (_, text) in after.items()} == {
            name: text for name, (_, text) in before.items()
        }
        json.loads(shard.read_text())

    @pytest.mark.parametrize("apps", [APPS, APPS + ["cwebp"]])
    def test_an_entry_saved_by_another_writer_meanwhile_survives(
        self, tmp_path, monkeypatch, apps
    ):
        """Between this campaign's load and its save another campaign adds
        a verdict.  Skipped or merged, this save keeps it."""
        run_campaign(_config(tmp_path))
        fingerprint = CampaignConfig().diode.solver_fingerprint()
        cache_dir = str(tmp_path / "cache")
        original_save = CacheStore.save

        def save_after_another_writer(self, cache, fp):
            other = SolverCache()
            _synthetic(other, fingerprint, 4242, reason="other writer")
            original_save(CacheStore(cache_dir), other, fingerprint)
            return original_save(self, cache, fp)

        monkeypatch.setattr(CacheStore, "save", save_after_another_writer)
        rerun = run_campaign(_config(tmp_path, apps=apps, skip_known=True))
        monkeypatch.undo()

        fresh = SolverCache()
        loaded = CacheStore(cache_dir).load(fresh, fingerprint)
        reasons = [verdict.reason for _, _, verdict in fresh.entries_snapshot()]
        assert "other writer" in reasons
        assert loaded >= rerun.cache_saved


class TestWhatASaveWrites:
    @pytest.fixture
    def loaded(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        seed = SolverCache()
        for value in range(8):
            _synthetic(seed, fingerprint, value)
        CacheStore(str(tmp_path)).save(seed, fingerprint)
        store = CacheStore(str(tmp_path))
        cache = SolverCache()
        assert store.load(cache, fingerprint) == 8
        return store, cache, fingerprint

    @pytest.fixture
    def written(self, monkeypatch):
        batches = []
        original = ArtifactStore.save

        def save(self, fingerprint_wire, records, *args, **kwargs):
            records = list(records)
            batches.append(records)
            return original(self, fingerprint_wire, records, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "save", save)
        return batches

    def test_nothing_new_after_a_clean_load_skips_the_save(self, loaded, written):
        store, cache, fingerprint = loaded
        assert store.save(cache, fingerprint) == 8
        assert written == []

    def test_a_worker_derived_entry_is_written(self, loaded, written):
        store, cache, fingerprint = loaded
        worker = SolverCache()
        _synthetic(worker, fingerprint, 99)
        wire, _ = export_wire_entries(worker)
        merge_wire_entries(cache, wire)
        assert store.save(cache, fingerprint) == 9
        (batch,) = written
        assert [record.payload["m"] for record in batch] == [{"v000": 99}]

    def test_a_re_solved_entry_is_written(self, loaded, written):
        store, cache, fingerprint = loaded
        key, conjuncts, verdict = cache.entries_snapshot()[3]
        system = CanonicalSystem(key=key, conjuncts=conjuncts, from_canonical=())
        cache.store(system, CachedVerdict(**vars(verdict)))
        assert store.save(cache, fingerprint) == 8
        (batch,) = written
        assert len(batch) == 1
        assert batch[0].payload["m"] == verdict.canonical_model.as_dict()

    def test_a_dropped_corrupt_shard_still_saves(self, tmp_path, written):
        fingerprint = SolverConfig().fingerprint()
        seed = SolverCache()
        for value in range(8):
            _synthetic(seed, fingerprint, value)
        CacheStore(str(tmp_path)).save(seed, fingerprint)
        written.clear()
        sorted(tmp_path.glob("shard-*.json"))[0].write_text("[{")
        store = CacheStore(str(tmp_path))
        cache = SolverCache()
        loaded = store.load(cache, fingerprint)
        assert loaded < 8
        assert store.save(cache, fingerprint) == loaded
        assert written == [[]]
        assert all(
            isinstance(json.loads(path.read_text()), list)
            for path in tmp_path.glob("shard-*.json")
        )


def _tree_wire(term):
    """The plain recursive list encoding the store format is defined by."""
    if term.kind is TermKind.BV_CONST:
        return ["c", term.width, term.value]
    if term.kind is TermKind.BOOL_CONST:
        return ["C", 1 if term.value else 0]
    if term.kind is TermKind.BV_VAR:
        return ["v", term.width, str(term.name)]
    if term.kind is TermKind.BOOL_VAR:
        return ["V", str(term.name)]
    return [
        term.kind.value,
        term.width,
        list(term.params),
        [_tree_wire(a) for a in term.args],
    ]


class TestTermWireMemo:
    def test_every_registry_entry_encodes_as_the_tree_and_round_trips(
        self, monkeypatch
    ):
        caches = []
        original = SolverCache.__init__

        def recording_init(self):
            original(self)
            caches.append(self)

        monkeypatch.setattr(SolverCache, "__init__", recording_init)
        run_campaign(CampaignConfig(backend="serial", jobs=1, triage=False))
        monkeypatch.undo()
        (cache,) = caches
        entries = cache.entries_snapshot()
        assert len(entries) == 63
        for _, conjuncts, _ in entries:
            for conjunct in conjuncts:
                wire = term_to_wire(conjunct)
                assert isinstance(wire, tuple)
                assert term_to_wire(conjunct) is wire
                assert json.dumps(wire) == json.dumps(_tree_wire(conjunct))
                assert term_from_wire(wire) is conjunct
                assert term_from_wire(json.loads(json.dumps(wire))) is conjunct
