"""Tests for the command-line interface."""

import argparse
import json
import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_application(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "unknown-app"])

    def test_accepts_known_applications(self):
        args = build_parser().parse_args(["analyze", "vlc"])
        assert args.application == "vlc"

    def test_bench_diff_is_not_a_subcommand(self, capsys):
        # perfbench is the one perf-regression harness.
        with pytest.raises(SystemExit) as info:
            main(["bench-diff"])
        assert info.value.code == 2
        assert "invalid choice: 'bench-diff'" in capsys.readouterr().err

    def test_module_docstring_lists_every_subcommand(self):
        import repro.cli

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        registered = set(subparsers.choices)
        doc = repro.cli.__doc__
        assert set(re.findall(r"python -m repro\.cli (\w+)", doc)) == registered
        numbers = ["one", "two", "three", "four", "five", "six", "seven", "eight"]
        count_word = re.search(r"(\w+) subcommands", doc).group(1).lower()
        assert numbers.index(count_word) + 1 == len(registered)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["trace", "--trace-dir", "t", "--top", "0"], "--top"),
            (["events", "--trace-dir", "t", "--tail", "0"], "--tail"),
        ],
    )
    def test_count_flags_reject_zero_under_their_own_name(self, capsys, argv, flag):
        """Every flag typed ``_positive_int`` reports its own name, not
        ``--jobs``."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be >= 1 (got 0)" in err
        assert "--jobs" not in err


class TestCommands:
    def test_analyze_text_output(self, capsys):
        assert main(["analyze", "vlc"]) == 0
        out = capsys.readouterr().out
        assert "VLC 0.8.6h" in out
        assert "diode_exposes_overflow" in out

    def test_analyze_json_output(self, capsys):
        assert main(["analyze", "cwebp", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table1"]["total_target_sites"] == 7
        assert len(payload["sites"]) == 7

    def test_site_command_shows_enforcement_steps(self, capsys):
        assert main(["site", "vlc", "dec.c@277"]) == 0
        out = capsys.readouterr().out
        assert "classification: diode_exposes_overflow" in out
        assert "iteration 0" in out

    def test_site_command_unknown_site(self, capsys):
        assert main(["site", "vlc", "nothere.c@1"]) == 2
        err = capsys.readouterr().err
        assert "available" in err


class TestCampaignCommand:
    def test_campaign_runs_the_whole_registry(self, capsys):
        assert main(["campaign", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "Total" in out
        assert "40" in out
        assert "solver cache:" in out

    def test_campaign_serial_fallback(self, capsys):
        assert main(["campaign", "--jobs", "1", "--apps", "vlc"]) == 0
        out = capsys.readouterr().out
        assert "1 worker(s)" in out

    def test_serial_backend_reports_one_worker(self, capsys):
        """``--jobs`` does not make the serial backend run more workers, so
        it reports the one it runs, in text and in ``--json``."""
        argv = ["campaign", "--backend", "serial", "--jobs", "2", "--apps", "vlc"]
        assert main(argv) == 0
        assert "with 1 worker(s) on the serial backend" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["jobs"], payload["backend"]) == (1, "serial")

    def test_campaign_no_cache_flag(self, capsys):
        assert main(["campaign", "--jobs", "1", "--no-cache", "--apps", "vlc"]) == 0
        out = capsys.readouterr().out
        assert "solver cache: disabled" in out

    def test_campaign_json_report(self, capsys):
        assert main(["campaign", "--jobs", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"] == 2
        assert payload["cache_enabled"] is True
        assert payload["unit_count"] == 40
        assert payload["table1_totals"]["total_target_sites"] == 40
        assert payload["cache_stats"]["hits"] > 0
        assert set(payload["classifications"]) == set(payload["table1"])

    def test_campaign_json_matches_serial_analyze(self, capsys):
        """The acceptance bar: campaign output == serial Diode.analyze."""
        assert main(["campaign", "--jobs", "4", "--json"]) == 0
        campaign = json.loads(capsys.readouterr().out)

        from repro.apps import all_applications
        from repro.core import Diode

        engine = Diode()
        for application in all_applications():
            result = engine.analyze(application)
            serial = {
                site.site.name: site.classification.value
                for site in result.site_results
            }
            assert campaign["classifications"][result.application] == serial

    def test_campaign_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--apps", "not-an-app"])

    def test_campaign_rejects_bad_jobs_value(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--jobs", "many"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_campaign_rejects_non_positive_jobs(self, capsys, jobs):
        """``--jobs`` below 1 fails parsing with a clear message instead of
        silently reaching the backend."""
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--jobs", jobs, "--apps", "vlc"])
        assert excinfo.value.code == 2
        assert f"argument --jobs: must be >= 1 (got {int(jobs)})" in (
            capsys.readouterr().err
        )

    def test_campaign_no_core_guidance_flag_keeps_classifications(self, capsys):
        """The UNSAT-core ablation reports identical classifications."""
        base = ["campaign", "--jobs", "1", "--apps", "vlc", "--json"]
        assert main(base) == 0
        guided = json.loads(capsys.readouterr().out)
        assert guided["core_guidance"] is True
        assert main(base + ["--no-core-guidance"]) == 0
        unguided = json.loads(capsys.readouterr().out)
        assert unguided["core_guidance"] is False
        assert unguided["classifications"] == guided["classifications"]

    def test_campaign_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--backend", "gpu"])

    def test_campaign_rejects_cache_dir_with_no_cache(self, capsys, tmp_path):
        code = main(
            [
                "campaign",
                "--no-cache",
                "--cache-dir",
                str(tmp_path / "store"),
                "--apps",
                "vlc",
            ]
        )
        assert code == 2
        assert "--no-cache" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    def test_campaign_process_backend_json(self, capsys):
        assert (
            main(
                [
                    "campaign",
                    "--backend",
                    "process",
                    "--jobs",
                    "2",
                    "--apps",
                    "vlc",
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["backend"] == "process"
        assert payload["version"]
        assert payload["table1_totals"]["total_target_sites"] == 4

    def test_campaign_cache_dir_warm_start(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "store")
        args = ["campaign", "--jobs", "1", "--apps", "vlc", "--cache-dir", cache_dir]
        assert main(args + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache_store"]["loaded"] == 0
        assert cold["cache_store"]["saved"] > 0

        assert main(args + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache_store"]["loaded"] == cold["cache_store"]["saved"]
        assert (
            warm["cache_stats"]["hit_rate"] > cold["cache_stats"]["hit_rate"]
        )
        assert warm["classifications"] == cold["classifications"]

    def test_campaign_json_store_block_counts_lock_events(self, capsys, tmp_path):
        from repro.obs.metrics import counter_value

        cache_dir = str(tmp_path / "store")
        args = ["campaign", "--jobs", "1", "--apps", "vlc", "--cache-dir", cache_dir]
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        store, metrics = payload["store"], payload["metrics"]
        assert set(store) == {
            "loads", "saves", "records_loaded", "records_saved",
            "lock_acquires", "lock_breaks", "lock_wait_seconds",
        }
        # Each save takes the directory lock once; loads read unlocked.
        assert store["lock_acquires"] == counter_value(
            metrics, "events.store.lock_wait"
        )
        assert store["lock_acquires"] == store["saves"] > 0
        assert store["lock_breaks"] == counter_value(
            metrics, "events.store.lock_break"
        ) == 0

    def test_warm_rerun_store_block_counts_the_loads_before_the_run(
        self, capsys, tmp_path
    ):
        args = [
            "campaign", "--jobs", "1", "--json",
            "--cache-dir", str(tmp_path / "cache"),
            "--corpus-dir", str(tmp_path / "corpus"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache_store"]["loaded"] == 63
        assert warm["corpus"]["loaded"] == 14
        # The cache and corpus loads before the run, plus the corpus
        # merge's re-read of the 14 witnesses before it saves.
        assert warm["store"]["loads"] == 3
        assert warm["store"]["records_loaded"] == 63 + 14 + 14

    def test_campaign_text_output_names_backend_and_store(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "store")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "vlc", "--cache-dir", cache_dir]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "on the serial backend" in out
        assert "cache store" in out


class TestCampaignTriageFlags:
    def test_campaign_json_reports_triage_stats(self, capsys):
        assert main(["campaign", "--jobs", "1", "--apps", "dillo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        triage = payload["triage"]
        assert triage["raw_reports"] == 3
        assert triage["distinct"] == 3
        assert triage["validation_failures"] == 0
        assert triage["dedup_ratio"] == 1.0
        assert triage["minimized"] == 3
        assert payload["corpus"] is None

    def test_campaign_corpus_dir_round_trip(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        args = ["campaign", "--jobs", "1", "--apps", "dillo", "--corpus-dir", corpus_dir]
        assert main(args + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["corpus"]["loaded"] == 0
        assert cold["corpus"]["saved"] == 3

        assert main(args + ["--skip-known", "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["corpus"]["loaded"] == 3
        assert warm["corpus"]["skipped_known"] == 3
        assert warm["classifications"] == cold["classifications"]

    def test_campaign_text_output_reports_triage(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--corpus-dir", corpus_dir]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "witness triage:" in out
        assert "witness corpus" in out

    def test_no_save_corpus_reports_not_saved(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        args = [
            "campaign", "--jobs", "1", "--apps", "dillo",
            "--corpus-dir", corpus_dir, "--no-save-corpus",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "not saved back" in out
        assert "now holds" not in out
        assert main(args + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["corpus"]["saved"] is None

    def test_skip_known_without_corpus_dir_is_rejected(self, capsys):
        assert main(["campaign", "--jobs", "1", "--skip-known"]) == 2
        assert "--corpus-dir" in capsys.readouterr().err

    def test_no_minimize_flag(self, capsys):
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--no-minimize", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["triage"]["minimized"] == 0
        assert payload["triage"]["distinct"] == 3


class TestReplayCommand:
    def test_replay_missing_corpus_fails(self, capsys, tmp_path):
        assert main(["replay", "--corpus-dir", str(tmp_path / "nope")]) == 2
        assert "no witness corpus" in capsys.readouterr().err

    def test_replay_round_trip(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--corpus-dir", corpus_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["replay", "--corpus-dir", corpus_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 3
        assert payload["counts"] == {"still-triggers": 3}
        assert all(
            entry["status"] == "still-triggers" for entry in payload["entries"]
        )

    def test_replay_strict_flags_regressions(self, capsys, tmp_path):
        from repro.triage.corpus import CorpusStore

        corpus_dir = str(tmp_path / "corpus")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--corpus-dir", corpus_dir]
            )
            == 0
        )
        capsys.readouterr()
        store = CorpusStore(corpus_dir)
        records = store.load()
        for record in records.values():
            record.field_values = {path: 1 for path in record.field_values}
            record.input_hex = None
        store.save(records, merge=False)
        assert main(["replay", "--corpus-dir", corpus_dir, "--strict"]) == 1
        out = capsys.readouterr().out
        assert "no-longer-triggers" in out
        # Replay wrote the statuses back to the corpus.
        assert all(
            record.status == "no-longer-triggers"
            for record in CorpusStore(corpus_dir).load().values()
        )

    def test_replay_app_filter(self, capsys, tmp_path):
        corpus_dir = str(tmp_path / "corpus")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--corpus-dir", corpus_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["replay", "--corpus-dir", corpus_dir, "--apps", "vlc"]) == 0
        out = capsys.readouterr().out
        assert "0 witness(es) replayed" in out


class TestVersionFlag:
    def test_version_flag_prints_the_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestEventFlags:
    @pytest.mark.parametrize(
        "flag", ["--progress", "--watchdog", "--no-events", "--no-cnf-skeletons"]
    )
    def test_live_telemetry_flag_is_gone(self, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "--apps", "dillo", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_campaign_text_reports_event_stream(self, capsys):
        assert main(["campaign", "--jobs", "1", "--apps", "dillo"]) == 0
        assert "event stream:" in capsys.readouterr().out

    def test_campaign_json_carries_event_counts(self, capsys):
        from repro.obs.metrics import counter_value

        assert main(["campaign", "--jobs", "1", "--apps", "dillo", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "events" not in payload
        metrics = payload["metrics"]
        assert counter_value(metrics, "events.unit.queued") == payload["unit_count"]
        assert counter_value(metrics, "events.unit.finished") == payload["unit_count"]
        assert counter_value(metrics, "events.unit.failed") == 0


class TestTraceCommandErrors:
    def test_missing_trace_dir_is_a_one_line_error(self, capsys):
        assert main(["trace", "--trace-dir", "/nonexistent/trace"]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err

    def test_empty_trace_dir_is_a_one_line_error(self, capsys, tmp_path):
        from repro.obs.trace import ensure_trace_dir

        trace_dir = str(tmp_path / "trace")
        ensure_trace_dir(trace_dir)  # meta.json only, no records
        assert main(["trace", "--trace-dir", trace_dir]) == 2
        assert "no trace records" in capsys.readouterr().err

    def test_mismatched_meta_version_is_a_one_line_error(self, capsys, tmp_path):
        trace_dir = tmp_path / "trace"
        trace_dir.mkdir()
        (trace_dir / "meta.json").write_text(
            json.dumps({"format": "repro-trace", "version": 999})
        )
        assert main(["trace", "--trace-dir", str(trace_dir)]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err


class TestEventsCommand:
    def _traced_campaign(self, tmp_path, capsys):
        trace_dir = str(tmp_path / "trace")
        assert (
            main(
                ["campaign", "--jobs", "1", "--apps", "dillo", "--trace-dir",
                 trace_dir]
            )
            == 0
        )
        capsys.readouterr()
        return trace_dir

    def test_summary_table(self, capsys, tmp_path):
        trace_dir = self._traced_campaign(tmp_path, capsys)
        assert main(["events", "--trace-dir", trace_dir]) == 0
        out = capsys.readouterr().out
        assert "unit.finished" in out
        assert "unit(s) finished" in out

    def test_tail_prints_formatted_lines(self, capsys, tmp_path):
        trace_dir = self._traced_campaign(tmp_path, capsys)
        assert main(["events", "--trace-dir", trace_dir, "--tail", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all("[" in line for line in lines)  # pid column

    def test_json_counts_close_over_lifecycle(self, capsys, tmp_path):
        trace_dir = self._traced_campaign(tmp_path, capsys)
        assert main(["events", "--trace-dir", trace_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invalid_records"] == 0
        counts = payload["counts"]
        assert counts["unit.started"] == counts["unit.finished"]

    def test_follow_mode_drains_and_exits_on_duration(self, capsys, tmp_path):
        trace_dir = self._traced_campaign(tmp_path, capsys)
        assert (
            main(
                ["events", "--trace-dir", trace_dir, "--follow",
                 "--duration", "0.2", "--poll", "0.05"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "unit.started" in out

    def test_follow_prints_each_record_once(self, capsys, tmp_path):
        """Every poll reloads the whole directory; ``(pid, id)`` keys keep
        a record from printing twice."""
        from repro.obs.report import load_trace_dir

        trace_dir = self._traced_campaign(tmp_path, capsys)
        assert (
            main(
                ["events", "--trace-dir", trace_dir, "--follow",
                 "--duration", "0.3", "--poll", "0.05"]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(load_trace_dir(trace_dir).events)

    def _assert_rejected(self, capsys, tmp_path, flag, options):
        with pytest.raises(SystemExit) as excinfo:
            main(["events", "--trace-dir", str(tmp_path), "--follow", *options])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0]

    def _assert_poll_rejected(self, capsys, tmp_path, poll):
        self._assert_rejected(
            capsys, tmp_path, "--poll", ["--duration", "0.1", "--poll", poll]
        )

    @pytest.mark.parametrize("poll", ["-1", "0"])
    def test_non_positive_poll_is_a_one_line_error(self, capsys, tmp_path, poll):
        """A negative poll used to crash in ``time.sleep``; zero busy-looped."""
        self._assert_poll_rejected(capsys, tmp_path, poll)

    @pytest.mark.parametrize("poll", ["nan", "inf", "-inf", "soon"])
    def test_non_finite_or_non_numeric_poll_is_a_one_line_error(
        self, capsys, tmp_path, poll
    ):
        """``nan`` would slip past a bare ``> 0`` check; ``inf`` never wakes."""
        self._assert_poll_rejected(capsys, tmp_path, poll)

    @pytest.mark.parametrize("duration", ["nan", "inf", "-inf", "-1", "soon"])
    def test_bad_duration_is_a_one_line_error(self, capsys, tmp_path, duration):
        """``nan`` never reached the deadline, so ``--follow`` never returned."""
        self._assert_rejected(capsys, tmp_path, "--duration", ["--duration", duration])

    def test_zero_duration_is_a_single_pass(self, capsys, tmp_path):
        missing = str(tmp_path / "not-yet")
        assert (
            main(["events", "--trace-dir", missing, "--follow", "--duration", "0"])
            == 0
        )
        assert capsys.readouterr().out == ""

    def test_missing_dir_is_a_one_line_error(self, capsys):
        assert main(["events", "--trace-dir", "/nonexistent/trace"]) == 2
        err = capsys.readouterr().err
        assert err.strip() and "Traceback" not in err

    def test_trace_without_events_leaves_nothing_to_report(self, capsys, tmp_path):
        from repro.obs.trace import JsonlSink, Tracer

        trace_dir = str(tmp_path / "trace")
        tracer = Tracer()
        sink = JsonlSink(trace_dir)
        tracer.add_sink(sink)
        with tracer.span("unit"):
            pass
        sink.close()
        assert main(["events", "--trace-dir", trace_dir]) == 2
        assert "no event records" in capsys.readouterr().err


class TestCorpusWarmStart:
    def test_full_registry_save_replay_and_skip_known(self, capsys, tmp_path):
        """Cold campaign → strict replay → warm ``--skip-known`` rerun.

        Exercises the witness interpreter's replay path end to end: every
        distinct witness the cold run saves still triggers on replay, and
        the warm start answers those sites from the corpus without
        changing a classification.
        """
        corpus_dir = str(tmp_path / "corpus")
        campaign = ["campaign", "--jobs", "2", "--corpus-dir", corpus_dir, "--json"]
        assert main(campaign) == 0
        cold = json.loads(capsys.readouterr().out)
        distinct = cold["triage"]["distinct"]
        assert distinct == 14
        assert cold["corpus"]["saved"] == distinct

        assert main(["replay", "--corpus-dir", corpus_dir, "--strict", "--json"]) == 0
        replay = json.loads(capsys.readouterr().out)
        assert replay["records"] == distinct
        assert replay["counts"] == {"still-triggers": distinct}

        assert main(campaign + ["--skip-known"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["corpus"]["loaded"] == distinct
        assert warm["corpus"]["skipped_known"] == distinct
        assert warm["classifications"] == cold["classifications"]


class TestObservabilitySmoke:
    def test_tracing_is_passive_and_the_trace_renders(self, capsys, tmp_path):
        """Serial and process campaigns, each plain and traced.

        Without the shared cache the workload is schedule-independent, so
        the process backend's wire-merged counters must equal serial's;
        every persisted record validates, and the rendered report covers
        the pipeline's stages.
        """
        from repro.obs.trace import validate_record

        base = ["campaign", "--apps", "dillo", "swfplay", "--no-cache", "--json"]
        backends = {"serial": [], "process": ["--backend", "process", "--jobs", "2"]}
        runs = {}
        for backend, options in backends.items():
            for traced in (False, True):
                trace_dir = str(tmp_path / f"trace-{backend}")
                argv = base + options + (["--trace-dir", trace_dir] if traced else [])
                assert main(argv) == 0
                runs[(backend, traced)] = json.loads(capsys.readouterr().out)

        reference = runs[("serial", False)]["classifications"]
        for key, run in runs.items():
            assert run["classifications"] == reference, key

        def counters(run):
            return {
                name: entry["value"]
                for name, entry in run["metrics"]["metrics"].items()
                if entry["k"] == "c"
            }

        assert counters(runs[("process", True)]) == counters(runs[("serial", True)])
        assert counters(runs[("process", False)]) == counters(runs[("serial", False)])

        total = 0
        for backend in backends:
            trace_dir = tmp_path / f"trace-{backend}"
            meta = json.loads((trace_dir / "meta.json").read_text())
            assert meta["format"] == "repro-trace", meta
            for path in sorted(trace_dir.glob("spans-*.jsonl")):
                for line in path.read_text().splitlines():
                    assert not validate_record(json.loads(line)), (path.name, line)
                    total += 1
        assert total > 0

        chrome = tmp_path / "chrome-trace.json"
        trace_dir = str(tmp_path / "trace-process")
        assert main(["trace", "--trace-dir", trace_dir]) == 0
        capsys.readouterr()
        assert (
            main(["trace", "--trace-dir", trace_dir, "--chrome", str(chrome), "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["invalid_records"] == 0
        assert report["units"] > 0 and report["spans"] > 0
        stages = {stage["name"] for stage in report["stages"]}
        assert {"campaign", "unit", "concolic", "enforce", "solve"} <= stages
        events = json.loads(chrome.read_text())
        assert isinstance(events, list) and events
