"""Tests for the persistent solver-cache store (:mod:`repro.smt.cachestore`).

Contracts: the wire format re-interns terms exactly (hash-consing makes
round-tripped conjuncts the *same* objects); a saved store warm-starts a
fresh cache to identical verdicts; version and fingerprint mismatches
invalidate the whole store; corruption loses at most one shard.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import builder as b
from repro.smt.cache import CachedVerdict, SolverCache
from repro.smt.cachestore import (
    FORMAT_VERSION,
    CacheStore,
    entry_from_wire,
    entry_to_wire,
    export_wire_entries,
    fingerprint_from_wire,
    fingerprint_to_wire,
    merge_wire_entries,
    term_from_wire,
    term_to_wire,
)
from repro.smt.evalmodel import Model
from repro.smt.solver import PortfolioSolver, SolverConfig
from repro.store import content_key

WIDTH = 8
VALUE = st.integers(min_value=0, max_value=(1 << WIDTH) - 1)


def _leaf_terms(names=("x", "y", "z")):
    return st.one_of(
        VALUE.map(lambda v: b.bv_const(v, WIDTH)),
        st.sampled_from(names).map(lambda n: b.bv_var(n, WIDTH)),
    )


@st.composite
def bv_terms(draw, max_depth=3):
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    if depth == 0:
        return draw(_leaf_terms())
    op = draw(st.sampled_from([b.add, b.sub, b.mul, b.bvand, b.bvor, b.bvxor]))
    return op(
        draw(bv_terms(max_depth=depth - 1)), draw(bv_terms(max_depth=depth - 1))
    )


@st.composite
def constraint_systems(draw):
    comparisons = st.sampled_from([b.ult, b.ule, b.eq, b.ne, b.ugt, b.uge])
    count = draw(st.integers(min_value=1, max_value=3))
    return [
        draw(comparisons)(draw(bv_terms()), draw(bv_terms()))
        for _ in range(count)
    ]


class TestTermWireFormat:
    @given(term=bv_terms())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip_reinterns_the_identical_term(self, term):
        assert term_from_wire(term_to_wire(term)) is term

    @given(system=constraint_systems())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_survives_json(self, system):
        for constraint in system:
            wire = json.loads(json.dumps(term_to_wire(constraint)))
            assert term_from_wire(wire) is constraint

    def test_structural_leaves_roundtrip(self):
        for term in (
            b.bv_const(255, 8),
            b.bv_var("inp[3]", 32),
            b.TRUE,
            b.FALSE,
            b.bool_var("flag"),
            b.zext(b.bv_var("w", 16), 64),
            b.extract(b.bv_var("w", 32), 15, 8),
            b.ite(
                b.ult(b.bv_var("a", 8), b.bv_const(4, 8)),
                b.bv_var("a", 8),
                b.bv_const(0, 8),
            ),
        ):
            assert term_from_wire(json.loads(json.dumps(term_to_wire(term)))) is term


class TestFingerprintWire:
    def test_solver_fingerprint_survives_json(self):
        fingerprint = SolverConfig().fingerprint()
        wire = json.loads(json.dumps(fingerprint_to_wire(fingerprint)))
        assert fingerprint_from_wire(wire) == fingerprint

    def test_malformed_fingerprint_is_rejected(self):
        with pytest.raises(ValueError):
            fingerprint_from_wire("not-a-list")


class TestEntryWire:
    def test_sat_entry_roundtrip(self):
        x = b.bv_var("v000", 32)
        conjuncts = (b.ult(x, b.bv_const(10, 32)),)
        verdict = CachedVerdict(
            status="sat", canonical_model=Model({"v000": 3}), reason="sampling"
        )
        wire = json.loads(json.dumps(entry_to_wire(conjuncts, verdict)))
        back_conjuncts, back_verdict = entry_from_wire(wire)
        assert back_conjuncts == conjuncts
        assert back_verdict.status == "sat"
        assert back_verdict.canonical_model.as_dict() == {"v000": 3}
        assert back_verdict.reason == "sampling"

    def test_unsat_entry_roundtrip(self):
        conjuncts = (b.FALSE,)
        verdict = CachedVerdict(status="unsat", canonical_model=None, reason="x")
        _, back = entry_from_wire(entry_to_wire(conjuncts, verdict))
        assert back.status == "unsat"
        assert back.canonical_model is None


def _warmed_cache(systems):
    """Solve ``systems`` through a fresh cache; returns (cache, results)."""
    cache = SolverCache()
    solver = PortfolioSolver(cache=cache)
    return cache, [solver.check(system) for system in systems]


_SYSTEMS = [
    [b.ult(b.bv_var("x", 32), b.bv_var("y", 32))],
    [
        b.ugt(
            b.mul(b.zext(b.bv_var("w", 16), 32), b.zext(b.bv_var("h", 16), 32)),
            b.bv_const(0xFFFF, 32),
        )
    ],
    [b.eq(b.bv_var("n", 8), b.bv_const(7, 8))],
]


def _append_core_record(store_dir):
    """Append a v6-style canonical UNSAT-core record to the first shard."""
    x = b.bv_var("v000", 8)
    core_wire = [term_to_wire(b.ult(x, b.bv_const(3, 8)))]
    shard = sorted(store_dir.glob("shard-*.json"))[0]
    records = json.loads(shard.read_text())
    records.append(
        {
            "k": "core",
            "h": content_key("core", core_wire),
            "d": {"k": "u", "c": core_wire},
        }
    )
    shard.write_text(json.dumps(records))


class TestCacheStoreRoundTrip:
    def test_save_then_load_restores_every_entry(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS)
        store = CacheStore(str(tmp_path))
        saved = store.save(cache, fingerprint)
        assert saved == len(cache) > 0

        fresh = SolverCache()
        loaded = store.load(fresh, fingerprint)
        assert loaded == saved
        assert len(fresh) == len(cache)
        assert fresh.stats.merged == loaded

    def test_warm_started_cache_answers_from_cache(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache, cold_results = _warmed_cache(_SYSTEMS)
        CacheStore(str(tmp_path)).save(cache, fingerprint)

        fresh = SolverCache()
        CacheStore(str(tmp_path)).load(fresh, fingerprint)
        solver = PortfolioSolver(cache=fresh)
        for system, cold in zip(_SYSTEMS, cold_results):
            warm = solver.check(system)
            assert warm.status == cold.status
            assert warm.reason == "cache"
        assert fresh.stats.hits == len(_SYSTEMS)

    def test_save_filters_foreign_fingerprints(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS[:1])
        x = b.bv_var("v000", 8)
        cache.merge_canonical(
            ("other-config",),
            (b.ult(x, b.bv_const(3, 8)),),
            CachedVerdict(status="sat", canonical_model=Model({"v000": 0}), reason=""),
        )
        saved = CacheStore(str(tmp_path)).save(cache, fingerprint)
        assert saved == len(cache) - 1


    def test_saving_the_same_cache_twice_adds_no_records(self, tmp_path):
        """Records are content-addressed, so merge-on-save of an unchanged
        cache rewrites the same set instead of appending duplicates."""
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS)
        store = CacheStore(str(tmp_path))
        first = store.save(cache, fingerprint)
        assert store.save(cache, fingerprint) == first == len(cache)
        assert store.load(SolverCache(), fingerprint) == first


class TestStoreInvalidation:
    def test_fingerprint_mismatch_is_a_cold_start(self, tmp_path):
        cache, _ = _warmed_cache(_SYSTEMS[:1])
        store = CacheStore(str(tmp_path))
        store.save(cache, SolverConfig().fingerprint())
        other = SolverConfig(heuristic_max_checks=1).fingerprint()
        assert store.load(SolverCache(), other) == 0

    # 5: the last format holding connected-component ("c") records;
    # 6: the last holding canonical UNSAT-core ("core") records.
    @pytest.mark.parametrize("version", [FORMAT_VERSION + 1, 4, 5, 6])
    def test_version_mismatch_is_a_cold_start(self, tmp_path, version):
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS[:1])
        store = CacheStore(str(tmp_path))
        store.save(cache, fingerprint)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = version
        meta_path.write_text(json.dumps(meta))
        assert store.load(SolverCache(), fingerprint) == 0

    def test_missing_store_is_a_cold_start(self, tmp_path):
        assert CacheStore(str(tmp_path / "nope")).load(
            SolverCache(), SolverConfig().fingerprint()
        ) == 0

    def test_corrupt_shard_loses_only_that_shard(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS)
        store = CacheStore(str(tmp_path))
        saved = store.save(cache, fingerprint)
        shard_files = sorted(tmp_path.glob("shard-*.json"))
        assert shard_files
        clobbered = shard_files[0]
        lost = len(json.loads(clobbered.read_text()))
        clobbered.write_text("{ not json")
        loaded = store.load(SolverCache(), fingerprint)
        assert loaded == saved - lost

    def test_v6_store_with_core_records_cold_starts(self, tmp_path):
        """A store from the last format that persisted UNSAT cores loads
        nothing, and the next save rewrites it without the core record."""
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS)
        store = CacheStore(str(tmp_path))
        store.save(cache, fingerprint)
        _append_core_record(tmp_path)
        meta_path = tmp_path / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 6
        meta["kinds"]["core"] = 1
        meta_path.write_text(json.dumps(meta))
        assert store.load(SolverCache(), fingerprint) == 0

        assert store.save(cache, fingerprint) == len(cache)
        saved = [
            record
            for path in tmp_path.glob("shard-*.json")
            for record in json.loads(path.read_text())
        ]
        assert {record["k"] for record in saved} == {SolverCache.KIND_QUERY}
        meta = json.loads(meta_path.read_text())
        assert meta["version"] == FORMAT_VERSION
        assert meta["kinds"] == {SolverCache.KIND_QUERY: len(cache)}

    def test_stray_core_record_in_a_current_store_is_skipped(self, tmp_path):
        """A ``core`` record in a v7 store decodes to no verdict: the load
        skips it and keeps every query record."""
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS)
        store = CacheStore(str(tmp_path))
        saved = store.save(cache, fingerprint)
        _append_core_record(tmp_path)
        fresh = SolverCache()
        assert store.load(fresh, fingerprint) == saved == len(cache)
        assert len(fresh) == len(cache)

    def test_corrupt_meta_is_a_cold_start(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache, _ = _warmed_cache(_SYSTEMS[:1])
        store = CacheStore(str(tmp_path))
        store.save(cache, fingerprint)
        (tmp_path / "meta.json").write_text("][")
        assert store.load(SolverCache(), fingerprint) == 0


class TestWireEntryExchange:
    """The process backend's delta path: export from one cache, merge into
    another, excluding already-shipped keys."""

    def test_export_merge_roundtrip(self):
        fingerprint = SolverConfig().fingerprint()
        source, _ = _warmed_cache(_SYSTEMS)
        wire, keys = export_wire_entries(source)
        assert len(wire) == len(keys) == len(source)

        target = SolverCache()
        merged = merge_wire_entries(target, wire)
        assert sorted(map(str, merged)) == sorted(map(str, keys))
        assert len(target) == len(source)

    def test_exclude_skips_already_shipped_keys(self):
        source, _ = _warmed_cache(_SYSTEMS)
        _, keys = export_wire_entries(source)
        shipped = set(keys[:1])
        wire, rest = export_wire_entries(source, exclude=shipped)
        assert len(wire) == len(source) - 1
        assert not shipped.intersection(rest)

    def test_export_returns_the_plain_cache_keys(self):
        """Keys come back as the cache's own keys, one per entry."""
        source, _ = _warmed_cache(_SYSTEMS)
        _, keys = export_wire_entries(source)
        assert keys == [key for key, _c, _v in source.entries_snapshot()]

    def test_seeded_keys_are_not_exported_again(self):
        """The keys a merge returns are the ones an export reports, so a
        worker seeded from its parent ships none of the seed back."""
        source, _ = _warmed_cache(_SYSTEMS)
        wire, _ = export_wire_entries(source)
        target = SolverCache()
        seeded = set(merge_wire_entries(target, wire))
        assert export_wire_entries(target, exclude=seeded) == ([], [])

    def test_core_kind_wire_entry_is_skipped(self):
        """A kind-tagged UNSAT-core entry of the v6 delta format carries no
        verdict; merging it adopts nothing."""
        fingerprint = SolverConfig().fingerprint()
        x = b.bv_var("v000", 8)
        core_entry = {
            "k": "u",
            "f": fingerprint_to_wire(fingerprint),
            "c": [term_to_wire(b.ult(x, b.bv_const(3, 8)))],
        }
        target = SolverCache()
        assert merge_wire_entries(target, [core_entry]) == []
        assert len(target) == 0

    def test_malformed_wire_entries_are_skipped(self):
        target = SolverCache()
        good_source, _ = _warmed_cache(_SYSTEMS[:1])
        wire, _ = export_wire_entries(good_source)
        good = len(wire)
        wire.append({"f": [], "c": "garbage", "s": "sat"})
        merged = merge_wire_entries(target, wire)
        assert len(merged) == good


class TestConcurrentWriters:
    """The lost-update regression: saving is merge-on-save, so two writers
    sharing one store dir must both survive — the union of their
    (non-UNKNOWN) entries is what a fresh load sees."""

    def test_two_writers_saving_disjoint_entries_both_survive(self, tmp_path):
        fingerprint = SolverConfig().fingerprint()
        cache_a, _ = _warmed_cache(_SYSTEMS[:1])
        cache_b, _ = _warmed_cache(_SYSTEMS[1:])

        CacheStore(str(tmp_path)).save(cache_a, fingerprint)
        CacheStore(str(tmp_path)).save(cache_b, fingerprint)

        union = SolverCache()
        CacheStore(str(tmp_path)).load(union, fingerprint)
        assert len(union) >= max(len(cache_a), len(cache_b))
        for source in (cache_a, cache_b):
            for key, _conjuncts, _verdict in source.entries_snapshot():
                assert key in dict(
                    (k, v) for k, _c, v in union.entries_snapshot()
                ), "a writer's entries were clobbered by the later save"
        assert len(union) == len(
            {
                key
                for source in (cache_a, cache_b)
                for key, _c, _v in source.entries_snapshot()
            }
        )


class TestCampaignWarmStart:
    def test_second_campaign_run_warm_starts_from_the_first(self, tmp_path):
        from repro.core.campaign import CampaignConfig, run_campaign

        config = lambda: CampaignConfig(
            jobs=1, applications=["vlc"], cache_dir=str(tmp_path)
        )
        cold = run_campaign(config())
        warm = run_campaign(config())
        assert cold.cache_loaded == 0
        assert cold.cache_saved > 0
        assert warm.cache_loaded == cold.cache_saved
        assert warm.cache_stats.hit_rate() > cold.cache_stats.hit_rate()
        # The warm rerun derives no verdict: every lookup is a store hit.
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == warm.cache_stats.lookups
        assert warm.classifications() == cold.classifications()

    def test_registry_campaign_saves_one_record_per_verdict(
        self, tmp_path, monkeypatch
    ):
        """A full-registry save writes whole-query verdicts only: one
        ``query`` record per cache entry (63), no UNSAT-core and no
        connected-component record."""
        from repro.core.campaign import CampaignConfig, run_campaign

        saved_caches = []
        original_save = CacheStore.save

        def recording_save(self, cache, fingerprint):
            saved_caches.append(cache)
            return original_save(self, cache, fingerprint)

        monkeypatch.setattr(CacheStore, "save", recording_save)
        result = run_campaign(
            CampaignConfig(jobs=1, backend="serial", cache_dir=str(tmp_path))
        )
        (cache,) = saved_caches
        assert result.cache_saved == len(cache) == 63
        records = [
            record
            for shard in tmp_path.glob("shard-*.json")
            for record in json.loads(shard.read_text())
        ]
        assert len(records) == 63
        assert {record["k"] for record in records} == {"query"}
        assert not [r for r in records if "k" in r["d"]]

    def test_no_save_cache_leaves_the_store_untouched(self, tmp_path):
        from repro.core.campaign import CampaignConfig, run_campaign

        directory = str(tmp_path)
        run_campaign(
            CampaignConfig(jobs=1, applications=["vlc"], cache_dir=directory)
        )
        before = sorted(os.listdir(directory))
        stamp = (tmp_path / "meta.json").read_bytes()
        run_campaign(
            CampaignConfig(
                jobs=1,
                applications=["vlc"],
                cache_dir=directory,
                save_cache=False,
            )
        )
        assert sorted(os.listdir(directory)) == before
        assert (tmp_path / "meta.json").read_bytes() == stamp


def _synthetic_entries(cache, fingerprint, count, offset=0):
    """Populate ``cache`` with ``count`` distinct single-conjunct verdicts."""
    x = b.bv_var("v000", 16)
    for value in range(offset, offset + count):
        cache.merge_canonical(
            fingerprint,
            (b.eq(x, b.bv_const(value, 16)),),
            CachedVerdict(
                status="sat",
                canonical_model=Model({"v000": value}),
                reason="synthetic",
            ),
        )


class TestShardLayoutChanges:
    def test_shrinking_shard_count_removes_orphans(self, tmp_path):
        """shard-NN.json files beyond the new layout's count must go; a
        ghost shard would resurrect stale entries on a later wide load."""
        fingerprint = SolverConfig().fingerprint()
        cache = SolverCache()
        _synthetic_entries(cache, fingerprint, 48)
        CacheStore(str(tmp_path), shard_count=16).save(cache, fingerprint)
        assert len(list(tmp_path.glob("shard-*.json"))) > 1

        narrow_cache = SolverCache()
        _synthetic_entries(narrow_cache, fingerprint, 1, offset=48)
        narrow = CacheStore(str(tmp_path), shard_count=1)
        assert narrow.save(narrow_cache, fingerprint) == 49
        assert sorted(p.name for p in tmp_path.glob("shard-*.json")) == [
            "shard-00.json"
        ]
        fresh = SolverCache()
        assert narrow.load(fresh, fingerprint) == 49


def _mp_save_synthetic(cache_dir, index, barrier):
    from repro.smt.cache import SolverCache
    from repro.smt.cachestore import CacheStore
    from repro.smt.solver import SolverConfig
    import test_cachestore as this_module

    fingerprint = SolverConfig().fingerprint()
    cache = SolverCache()
    this_module._synthetic_entries(cache, fingerprint, 3, offset=index * 3)
    barrier.wait()
    CacheStore(str(cache_dir)).save(cache, fingerprint)


class TestConcurrentProcessWriters:
    def test_parallel_saves_lose_no_entries(self, tmp_path):
        """The stress form of the lost-update regression: real processes
        racing through one --cache-dir; the union must survive."""
        import multiprocessing

        ctx = multiprocessing.get_context("spawn")
        writer_count = 4
        barrier = ctx.Barrier(writer_count)
        processes = [
            ctx.Process(
                target=_mp_save_synthetic, args=(str(tmp_path), i, barrier)
            )
            for i in range(writer_count)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

        union = SolverCache()
        loaded = CacheStore(str(tmp_path)).load(
            union, SolverConfig().fingerprint()
        )
        assert loaded == len(union) == writer_count * 3
