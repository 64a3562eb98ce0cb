"""Tests for the campaign's witness-triage integration.

The contract: every discovered overflow is re-validated, minimized and
deduplicated; a persistent corpus accumulates witnesses across runs,
schedules and backends; and ``skip_known`` replays corpus witnesses
without changing any classification.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, CampaignEngine, run_campaign
from repro.triage.corpus import CorpusStore

APPS = ["dillo", "vlc"]


@pytest.fixture(scope="module")
def cold_result(tmp_path_factory):
    corpus_dir = str(tmp_path_factory.mktemp("corpus"))
    result = run_campaign(
        CampaignConfig(jobs=1, applications=APPS, corpus_dir=corpus_dir)
    )
    return corpus_dir, result


class TestTriagePass:
    def test_stats_cover_every_bug_report(self, cold_result):
        _, result = cold_result
        stats = result.triage_stats
        assert stats is not None
        assert stats.raw_reports == len(result.bug_reports())
        assert stats.validated == stats.raw_reports
        assert stats.validation_failures == 0

    def test_one_record_per_exposed_site(self, cold_result):
        _, result = cold_result
        exposed = result.table1_totals()["diode_exposes_overflow"]
        assert result.triage_stats.distinct == exposed
        assert len(result.witness_records) == exposed

    def test_witnesses_are_minimized(self, cold_result):
        _, result = cold_result
        assert all(record.minimized for record in result.witness_records)
        assert result.triage_stats.fields_after <= result.triage_stats.fields_before

    def test_triage_can_be_disabled(self):
        result = run_campaign(
            CampaignConfig(jobs=1, applications=["dillo"], triage=False)
        )
        assert result.triage_stats is None
        assert result.witness_records == []

    def test_no_minimize_keeps_fields(self):
        result = run_campaign(
            CampaignConfig(
                jobs=1, applications=["dillo"], minimize_witnesses=False
            )
        )
        assert result.triage_stats.minimized == 0
        assert result.triage_stats.distinct > 0


class TestCorpusPersistence:
    def test_cold_run_populates_the_corpus(self, cold_result):
        corpus_dir, result = cold_result
        assert result.corpus_loaded == 0
        assert result.corpus_saved == result.triage_stats.distinct
        assert len(CorpusStore(corpus_dir).load()) == result.corpus_saved

    def test_rerun_warm_starts_and_dedupes(self, cold_result):
        corpus_dir, cold = cold_result
        warm = run_campaign(
            CampaignConfig(jobs=1, applications=APPS, corpus_dir=corpus_dir)
        )
        assert warm.corpus_loaded == cold.corpus_saved
        # Rediscoveries collapse onto the stored signatures: same total.
        assert warm.corpus_saved == cold.corpus_saved
        records = CorpusStore(corpus_dir).load()
        assert all(record.times_seen >= 2 for record in records.values())

    def test_schedules_and_backends_converge(self, cold_result, tmp_path):
        """Different schedules into one fresh corpus: one deduped record set."""
        corpus_dir = str(tmp_path / "multi")
        serial = run_campaign(
            CampaignConfig(
                jobs=1, applications=APPS, backend="serial", corpus_dir=corpus_dir
            )
        )
        threaded = run_campaign(
            CampaignConfig(
                jobs=4, applications=APPS, backend="thread", corpus_dir=corpus_dir
            )
        )
        records = CorpusStore(corpus_dir).load()
        assert serial.triage_stats.distinct == threaded.triage_stats.distinct
        assert len(records) == serial.triage_stats.distinct

    def test_no_save_corpus(self, tmp_path):
        corpus_dir = str(tmp_path / "nosave")
        result = run_campaign(
            CampaignConfig(
                jobs=1,
                applications=["dillo"],
                corpus_dir=corpus_dir,
                save_corpus=False,
            )
        )
        assert result.triage_stats.distinct > 0
        assert CorpusStore(corpus_dir).load() == {}


class TestProcessBackendWitnessPayloads:
    def test_process_backend_ships_worker_triaged_witnesses(self, tmp_path):
        corpus_dir = str(tmp_path / "proc")
        result = run_campaign(
            CampaignConfig(
                jobs=2,
                applications=["dillo"],
                backend="process",
                corpus_dir=corpus_dir,
            )
        )
        assert result.triage_stats.distinct == 3
        assert all(record.minimized for record in result.witness_records)
        assert len(CorpusStore(corpus_dir).load()) == 3

    def test_process_backend_matches_thread_backend_records(self, tmp_path):
        process = run_campaign(
            CampaignConfig(jobs=2, applications=["dillo"], backend="process")
        )
        thread = run_campaign(
            CampaignConfig(jobs=2, applications=["dillo"], backend="thread")
        )
        assert {r.signature for r in process.witness_records} == {
            r.signature for r in thread.witness_records
        }


class TestSkipKnown:
    def test_skip_known_preserves_classifications(self, cold_result):
        corpus_dir, cold = cold_result
        warm = run_campaign(
            CampaignConfig(
                jobs=1, applications=APPS, corpus_dir=corpus_dir, skip_known=True
            )
        )
        assert warm.classifications() == cold.classifications()
        assert warm.skipped_known == cold.triage_stats.distinct
        assert warm.unit_count == (
            sum(r.total_target_sites for r in cold.application_results)
            - warm.skipped_known
        )

    def test_skipped_sites_keep_bug_reports(self, cold_result):
        corpus_dir, cold = cold_result
        warm = run_campaign(
            CampaignConfig(
                jobs=1, applications=APPS, corpus_dir=corpus_dir, skip_known=True
            )
        )
        assert {(r.application, r.target) for r in warm.bug_reports()} == {
            (r.application, r.target) for r in cold.bug_reports()
        }
        for report in warm.bug_reports():
            assert report.triggering_input is not None

    def test_skip_known_adopts_stored_records_without_re_minimizing(
        self, cold_result
    ):
        """Skipped sites reuse the corpus record; triage spends no ddmin
        budget re-deriving what the corpus already holds."""
        corpus_dir, cold = cold_result
        warm = run_campaign(
            CampaignConfig(
                jobs=1, applications=APPS, corpus_dir=corpus_dir, skip_known=True
            )
        )
        # Adopted records keep the discovery-time shape: same signatures,
        # same original-field accounting as the cold run that minted them.
        assert {r.signature for r in warm.witness_records} == {
            r.signature for r in cold.witness_records
        }
        assert (
            warm.triage_stats.fields_before == cold.triage_stats.fields_before
        )
        assert warm.triage_stats.fields_after == cold.triage_stats.fields_after
        assert warm.triage_stats.minimized == cold.triage_stats.minimized

    def test_stale_corpus_falls_back_to_full_analysis(self, tmp_path, cold_result):
        """A witness that no longer replays must not skip its site."""
        _, cold = cold_result
        corpus_dir = str(tmp_path / "stale")
        store = CorpusStore(corpus_dir)
        records = {}
        for record in cold.witness_records:
            stale = type(record).from_wire(record.to_wire())
            stale.field_values = {path: 1 for path in stale.field_values}
            stale.input_hex = None
            records[stale.signature] = stale
        store.save(records)
        warm = run_campaign(
            CampaignConfig(
                jobs=1, applications=APPS, corpus_dir=corpus_dir, skip_known=True
            )
        )
        assert warm.skipped_known == 0
        assert warm.classifications() == cold.classifications()

    def test_skip_known_requires_corpus_dir(self):
        with pytest.raises(ValueError):
            CampaignEngine(
                CampaignConfig(jobs=1, applications=["dillo"], skip_known=True)
            ).run()

    def test_cache_dir_requires_use_cache(self, tmp_path):
        """The store is not silently ignored when the cache is off."""
        with pytest.raises(ValueError, match="cache_dir requires use_cache"):
            CampaignEngine(
                CampaignConfig(
                    jobs=1,
                    applications=["dillo"],
                    use_cache=False,
                    cache_dir=str(tmp_path),
                )
            ).run()
        assert not any(tmp_path.iterdir())

    def test_corpus_dir_requires_triage(self, tmp_path):
        with pytest.raises(ValueError):
            CampaignEngine(
                CampaignConfig(
                    jobs=1,
                    applications=["dillo"],
                    corpus_dir=str(tmp_path),
                    triage=False,
                )
            ).run()
