"""Command-line interface for the DIODE reproduction.

Seven subcommands cover the common workflows::

    python -m repro.cli analyze dillo            # full pipeline, Table-1 style row
    python -m repro.cli table1                   # all five applications, serially
    python -m repro.cli site dillo png.c@203     # one site, with enforcement steps
    python -m repro.cli campaign --jobs 4        # whole registry, campaign engine
    python -m repro.cli campaign --backend process --jobs 4 --cache-dir .diode-cache
    python -m repro.cli campaign --corpus-dir .diode-corpus --skip-known
    python -m repro.cli campaign --trace-dir .diode-trace  # structured run trace
    python -m repro.cli replay --corpus-dir .diode-corpus  # regression replay
    python -m repro.cli trace --trace-dir .diode-trace     # render the trace
    python -m repro.cli events --trace-dir .diode-trace    # event summary

The CLI is a thin layer over :class:`repro.core.engine.Diode`,
:class:`repro.core.campaign.CampaignEngine` and the witness-triage
subsystem (:mod:`repro.triage`); it exists so the reproduction can be
driven without writing Python.  Each subcommand imports what it runs:
``trace`` and ``events`` read a trace directory without loading the
analysis stack, and building the parser loads no application model.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING, Iterator, List, Optional

from repro import __version__
from repro.sched import available_backends

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.report import ApplicationResult


def _format_application_result(result: "ApplicationResult", as_json: bool) -> str:
    if as_json:
        payload = {
            "application": result.application,
            "analysis_seconds": round(result.analysis_seconds, 3),
            "table1": result.table1_row(),
            "sites": [
                {
                    "site": site.site.name,
                    "classification": site.classification.value,
                    "enforced_branches": (
                        site.bug_report.enforced_branches if site.bug_report else None
                    ),
                    "error_type": (
                        site.bug_report.error_type if site.bug_report else None
                    ),
                    "triggering_fields": (
                        site.bug_report.triggering_field_values if site.bug_report else None
                    ),
                }
                for site in result.site_results
            ],
        }
        return json.dumps(payload, indent=2)

    lines = [f"{result.application}: {result.total_target_sites} target sites"]
    for site in result.site_results:
        line = f"  {site.site.name:32s} {site.classification.value}"
        if site.bug_report is not None:
            line += (
                f"  enforced={site.bug_report.enforced_ratio()}"
                f"  error={site.bug_report.error_type}"
            )
        lines.append(line)
    row = result.table1_row()
    lines.append(
        "  -> exposes {diode_exposes_overflow}, unsatisfiable "
        "{target_constraint_unsatisfiable}, sanity-prevented "
        "{sanity_checks_prevent_overflow}".format(**row)
    )
    return "\n".join(lines)


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_application
    from repro.core.engine import Diode

    application = get_application(args.application)
    result = Diode().analyze(application)
    print(_format_application_result(result, args.json))
    return 0


def _print_table1(rows) -> None:
    """Print Table-1 rows plus a totals line (shared by table1/campaign)."""
    print(
        f"{'Application':20s} {'Sites':>6s} {'Exposed':>8s} "
        f"{'Unsat':>6s} {'Prevented':>10s}"
    )
    totals = {
        "total_target_sites": 0,
        "diode_exposes_overflow": 0,
        "target_constraint_unsatisfiable": 0,
        "sanity_checks_prevent_overflow": 0,
    }
    for name, row in rows:
        print(
            f"{name:20s} {row['total_target_sites']:>6d} "
            f"{row['diode_exposes_overflow']:>8d} "
            f"{row['target_constraint_unsatisfiable']:>6d} "
            f"{row['sanity_checks_prevent_overflow']:>10d}"
        )
        for key in totals:
            totals[key] += row[key]
    print(
        f"{'Total':20s} {totals['total_target_sites']:>6d} "
        f"{totals['diode_exposes_overflow']:>8d} "
        f"{totals['target_constraint_unsatisfiable']:>6d} "
        f"{totals['sanity_checks_prevent_overflow']:>10d}"
    )


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.apps.registry import all_applications
    from repro.core.engine import Diode

    engine = Diode()
    rows = []
    for application in all_applications():
        result = engine.analyze(application)
        rows.append((application.name, result.table1_row()))
    if args.json:
        print(json.dumps({name: row for name, row in rows}, indent=2))
        return 0
    _print_table1(rows)
    return 0


def _cmd_site(args: argparse.Namespace) -> int:
    from repro.apps.registry import get_application
    from repro.core.engine import Diode
    from repro.core.sites import identify_target_sites

    application = get_application(args.application)
    engine = Diode()

    sites = identify_target_sites(application.program, application.seed_input)
    matching = [s for s in sites if s.site_tag == args.site or s.name == args.site]
    if not matching:
        names = ", ".join(s.name for s in sites)
        print(f"no target site named {args.site!r}; available: {names}", file=sys.stderr)
        return 2
    site_result = engine.analyze_site(application, matching[0])
    print(f"{application.name} / {site_result.site.name}")
    print(f"  classification: {site_result.classification.value}")
    enforcement = site_result.enforcement
    if enforcement is not None:
        print(f"  relevant branches: {enforcement.relevant_branch_count}")
        for step in enforcement.steps:
            status = "overflow" if step.triggered else "no overflow"
            enforced = (
                f"enforced branch {step.enforced_label}"
                if step.enforced_label is not None
                else "target constraint only"
            )
            print(f"    iteration {step.iteration}: {enforced} -> {status}")
    if site_result.bug_report is not None:
        report = site_result.bug_report
        print(f"  error type: {report.error_type}")
        print(f"  triggering fields: {report.triggering_field_values}")
    return 0


class _ApplicationNames:
    """``choices`` of an application argument, read from the registry on use.

    argparse tests membership when it parses the argument and iterates when
    it prints usage, so only the subcommands that name an application load
    the application models.
    """

    def __iter__(self) -> Iterator[str]:
        from repro.apps.registry import application_names

        return iter(application_names())

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def _positive_int(value: str) -> int:
    """argparse type for ``--jobs``, ``--top`` and ``--tail``: an integer >= 1.

    argparse prefixes the error with the flag's name, so the message names
    none.
    """
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer")
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1 (got {number})")
    return number


def _positive_float(value: str) -> float:
    """argparse type for ``--poll``: a finite number of seconds > 0."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not math.isfinite(seconds) or seconds <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds (got {value})")
    return seconds


def _non_negative_float(value: str) -> float:
    """argparse type for ``--duration``: a finite number of seconds >= 0."""
    try:
        seconds = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number")
    if not math.isfinite(seconds) or seconds < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 seconds (got {value})")
    return seconds


def _store_block(metrics: Optional[dict]) -> dict:
    """The ``store`` summary of a campaign's metrics delta (lock visibility)."""
    from repro.obs.metrics import counter_value, histogram_stats

    _, lock_wait = histogram_stats(metrics or {}, "store.lock_wait_seconds")
    return {
        "loads": counter_value(metrics or {}, "store.loads"),
        "saves": counter_value(metrics or {}, "store.saves"),
        "records_loaded": counter_value(metrics or {}, "store.records_loaded"),
        "records_saved": counter_value(metrics or {}, "store.records_saved"),
        "lock_acquires": counter_value(metrics or {}, "events.store.lock_wait"),
        "lock_breaks": counter_value(metrics or {}, "events.store.lock_break"),
        "lock_wait_seconds": round(lock_wait, 6),
    }


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.no_cache and args.cache_dir:
        print(
            "--cache-dir needs the solver cache; drop --no-cache to use a "
            "persistent store",
            file=sys.stderr,
        )
        return 2
    if args.skip_known and not args.corpus_dir:
        print(
            "--skip-known replays witnesses from a persistent corpus; "
            "give it one with --corpus-dir",
            file=sys.stderr,
        )
        return 2
    from repro.core.campaign import CampaignConfig, CampaignEngine

    config = CampaignConfig(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        applications=args.apps or None,
        backend=args.backend,
        cache_dir=args.cache_dir,
        save_cache=not args.no_save_cache,
        corpus_dir=args.corpus_dir,
        save_corpus=not args.no_save_corpus,
        minimize_witnesses=not args.no_minimize,
        skip_known=args.skip_known,
        trace_dir=args.trace_dir,
    )
    if args.no_core_guidance:
        config.diode.solver.enable_unsat_cores = False
    result = CampaignEngine(config).run()

    if args.json:
        payload = {
            "version": __version__,
            "backend": result.backend,
            "jobs": result.jobs,
            "core_guidance": not args.no_core_guidance,
            "cache_enabled": result.cache_enabled,
            "unit_count": result.unit_count,
            "wall_seconds": round(result.wall_seconds, 3),
            "cache_stats": (
                result.cache_stats.as_dict() if result.cache_stats else None
            ),
            "metrics": result.metrics,
            "store": _store_block(result.metrics),
            "trace_dir": args.trace_dir,
            "cache_store": (
                {
                    "dir": args.cache_dir,
                    "loaded": result.cache_loaded,
                    "saved": result.cache_saved,
                }
                if args.cache_dir
                else None
            ),
            "triage": (
                result.triage_stats.as_dict() if result.triage_stats else None
            ),
            "corpus": (
                {
                    "dir": args.corpus_dir,
                    "loaded": result.corpus_loaded,
                    # null = not written back (--no-save-corpus), as opposed
                    # to an actually-empty corpus.
                    "saved": (
                        None if args.no_save_corpus else result.corpus_saved
                    ),
                    "skipped_known": result.skipped_known,
                }
                if args.corpus_dir
                else None
            ),
            "table1": {
                app.application: app.table1_row()
                for app in result.application_results
            },
            "table1_totals": result.table1_totals(),
            "table2": [
                {
                    "application": report.application,
                    "target": report.target,
                    "cve": report.cve,
                    "error_type": report.error_type,
                    "enforced": report.enforced_ratio(),
                }
                for report in result.bug_reports()
            ],
            "classifications": result.classifications(),
        }
        print(json.dumps(payload, indent=2))
        return 0

    _print_table1(
        [(app.application, app.table1_row()) for app in result.application_results]
    )

    reports = result.bug_reports()
    if reports:
        print(f"\n{'Application':20s} {'Target':28s} {'CVE':16s} {'Error':20s} {'Enforced':>8s}")
        for report in reports:
            print(
                f"{report.application:20s} {report.target:28s} "
                f"{report.cve:16s} {report.error_type:20s} "
                f"{report.enforced_ratio():>8s}"
            )

    line = (
        f"\n{result.unit_count} sites analyzed in {result.wall_seconds:.2f}s "
        f"with {result.jobs} worker(s) on the {result.backend} backend"
    )
    if result.cache_stats is not None:
        stats = result.cache_stats
        line += (
            f"; solver cache: {stats.hits} hits / {stats.lookups} lookups "
            f"({stats.hit_rate():.0%})"
        )
    else:
        line += "; solver cache: disabled"
    print(line)
    from repro.obs.metrics import counter_value

    def solver(name: str) -> int:
        return counter_value(result.metrics, f"solver.{name}")

    print(
        f"solver sessions: {solver('session_checks')} checks, "
        f"{solver('sessions_reused')} reused across observations; "
        f"unsat cores: {solver('cores_extracted')} accumulated, "
        f"{solver('core_pruned_candidates')} candidate queries pruned"
    )
    if args.cache_dir:
        print(
            f"cache store {args.cache_dir}: warm-started {result.cache_loaded} "
            f"entries, saved {result.cache_saved}"
        )
    store = _store_block(result.metrics)
    if store["lock_acquires"]:
        print(
            f"store locks: {store['lock_acquires']} acquired "
            f"({store['lock_wait_seconds']:.3f}s total wait), "
            f"{store['lock_breaks']} stale broken"
        )
    event_total = sum(
        entry["value"]
        for name, entry in result.metrics["metrics"].items()
        if name.startswith("events.")
    )
    print(
        f"event stream: {event_total} events "
        f"({counter_value(result.metrics, 'events.unit.finished')} units "
        f"finished, {counter_value(result.metrics, 'events.unit.failed')} "
        "failed)"
    )
    if args.trace_dir:
        print(
            f"trace written to {args.trace_dir} "
            f"(render with: python -m repro.cli trace --trace-dir {args.trace_dir})"
        )
    if result.triage_stats is not None:
        stats = result.triage_stats
        print(
            f"witness triage: {stats.distinct} distinct / {stats.raw_reports} "
            f"reports ({stats.dedup_ratio():.2f}x dedup), "
            f"{stats.minimized} minimized "
            f"({stats.shrink_ratio():.0%} of triggering fields dropped)"
        )
    if args.corpus_dir:
        line = (
            f"witness corpus {args.corpus_dir}: warm-started "
            f"{result.corpus_loaded} witnesses, "
        )
        if args.no_save_corpus:
            line += "not saved back (--no-save-corpus)"
        else:
            line += f"now holds {result.corpus_saved}"
        if args.skip_known:
            line += f"; {result.skipped_known} site(s) answered by replay"
        print(line)
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.apps.registry import build_applications
    from repro.triage.corpus import CorpusStore
    from repro.triage.engine import replay_corpus

    store = CorpusStore(args.corpus_dir)
    records = store.load()
    if not records:
        print(
            f"no witness corpus under {args.corpus_dir!r} (missing, empty, or "
            "written by an incompatible version)",
            file=sys.stderr,
        )
        return 2

    applications = build_applications(args.apps or None)
    report = replay_corpus(records, applications, mark_missing=args.apps is None)
    if not args.no_save:
        store.save(records, merge=False)

    if args.json:
        payload = {
            "version": __version__,
            "corpus_dir": args.corpus_dir,
            "records": len(records),
            "replayed": len(report.entries),
            "wall_seconds": round(report.wall_seconds, 3),
            "counts": report.counts(),
            "entries": [
                {
                    "signature": entry.signature,
                    "application": entry.application,
                    "site": entry.site_name,
                    "status": entry.status,
                    "requested_size": entry.requested_size,
                    "error_type": entry.error_type,
                }
                for entry in report.entries
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"{'Signature':26s} {'Application':20s} {'Site':28s} Status")
        for entry in report.entries:
            print(
                f"{entry.signature:26s} {entry.application:20s} "
                f"{entry.site_name:28s} {entry.status}"
            )
        counts = report.counts()
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(counts.items())
        )
        print(
            f"\n{len(report.entries)} witness(es) replayed in "
            f"{report.wall_seconds:.2f}s: {summary}"
        )
    return 1 if args.strict and report.regressions else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        chrome_trace_events,
        load_trace_dir,
        stage_summaries,
        unit_summaries,
    )

    data = load_trace_dir(args.trace_dir)
    if data.error:
        print(data.error, file=sys.stderr)
        return 2
    if not data.records:
        print(
            f"no trace records under {args.trace_dir!r} (the campaign wrote "
            "nothing, or every record was invalid)",
            file=sys.stderr,
        )
        return 2
    stages = stage_summaries(data)
    units = unit_summaries(data)

    if args.chrome:
        with open(args.chrome, "w", encoding="utf-8") as handle:
            json.dump(chrome_trace_events(data), handle)

    if args.json:
        payload = {
            "version": __version__,
            "trace_dir": data.trace_dir,
            "files": data.files,
            "records": len(data.records),
            "invalid_records": data.invalid_records,
            "spans": len(data.spans),
            "events": len(data.events),
            "units": len(units),
            "stages": [stage.as_dict() for stage in stages],
            "stragglers": [unit.as_dict() for unit in units[: args.top]],
            "chrome": args.chrome,
        }
        print(json.dumps(payload, indent=2))
        return 0

    line = (
        f"trace {data.trace_dir}: {len(data.records)} records "
        f"({len(data.spans)} spans, {len(data.events)} events) "
        f"from {data.files} file(s)"
    )
    if data.invalid_records:
        line += f"; {data.invalid_records} invalid record(s) skipped"
    print(line)

    if stages:
        print(
            f"\n{'Stage':24s} {'Count':>7s} {'Total':>9s} {'Mean':>9s} "
            f"{'Max':>9s} {'Props':>9s}"
        )
        for stage in stages:
            print(
                f"{stage.name:24s} {stage.count:>7d} "
                f"{stage.total_seconds:>8.3f}s {stage.mean_seconds():>8.4f}s "
                f"{stage.max_seconds:>8.4f}s {stage.propagations:>9d}"
            )

    stragglers = units[: args.top]
    if stragglers:
        print(f"\nslowest {len(stragglers)} of {len(units)} unit(s):")
        for unit in stragglers:
            breakdown = ", ".join(
                f"{name} {seconds:.3f}s"
                for name, seconds in sorted(
                    unit.stages.items(), key=lambda item: -item[1]
                )
            )
            print(
                f"  {unit.application:20s} {unit.site:28s} "
                f"{unit.duration_seconds:>8.3f}s [{unit.backend}]"
                + (f"  ({breakdown})" if breakdown else "")
            )

    if args.chrome:
        print(
            f"\nChrome trace written to {args.chrome} "
            "(open in chrome://tracing or https://ui.perfetto.dev)"
        )
    return 0


def _format_event_line(record: dict) -> str:
    import datetime

    stamp = datetime.datetime.fromtimestamp(
        float(record.get("wall", 0.0))
    ).strftime("%H:%M:%S.%f")[:-3]
    attrs = record.get("attrs") or {}
    subject = ""
    if "application" in attrs and "site" in attrs:
        subject = f" {attrs['application']}::{attrs['site']}"
    extras = " ".join(
        f"{key}={value}"
        for key, value in sorted(attrs.items())
        if key not in ("application", "site")
    )
    line = f"{stamp} [{record.get('pid')}] {record.get('name')}{subject}"
    return f"{line}  {extras}" if extras else line


def _cmd_events(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.report import event_summaries, load_trace_dir

    if args.follow:
        # Tail mode: poll the directory and print records not yet seen,
        # until --duration expires (or forever without one).  Records are
        # unique by (pid, id) — each process numbers its own.
        deadline = (
            None if args.duration is None else _time.monotonic() + args.duration
        )
        seen: set = set()
        printed_error = False
        while True:
            data = load_trace_dir(args.trace_dir)
            if data.error:
                # The campaign may not have created the directory yet;
                # keep waiting inside the duration window.
                if deadline is None and not printed_error:
                    print(f"waiting: {data.error}", file=sys.stderr)
                    printed_error = True
            else:
                for record in data.events:
                    key = (record.get("pid"), record.get("id"))
                    if key in seen:
                        continue
                    seen.add(key)
                    print(_format_event_line(record))
            if deadline is not None and _time.monotonic() >= deadline:
                return 0
            _time.sleep(args.poll)

    data = load_trace_dir(args.trace_dir)
    if data.error:
        print(data.error, file=sys.stderr)
        return 2
    events = data.events
    if not events:
        print(
            f"no event records under {args.trace_dir!r} (the campaign wrote "
            "nothing, or every record was invalid)",
            file=sys.stderr,
        )
        return 2
    summaries = event_summaries(data)

    if args.json:
        payload = {
            "version": __version__,
            "trace_dir": data.trace_dir,
            "files": data.files,
            "records": len(events),
            "invalid_records": data.invalid_records,
            "events": [summary.as_dict() for summary in summaries],
            "counts": {summary.name: summary.count for summary in summaries},
        }
        print(json.dumps(payload, indent=2))
        return 0

    if args.tail:
        for record in events[-args.tail :]:
            print(_format_event_line(record))
        return 0

    line = (
        f"events {data.trace_dir}: {len(events)} records "
        f"from {data.files} file(s)"
    )
    if data.invalid_records:
        line += f"; {data.invalid_records} invalid record(s) skipped"
    print(line)
    print(f"\n{'Event':20s} {'Count':>7s} {'Span':>9s}")
    for summary in summaries:
        span = summary.last_wall - summary.first_wall
        print(f"{summary.name:20s} {summary.count:>7d} {span:>8.3f}s")
    counts = {summary.name: summary.count for summary in summaries}
    print(
        f"\n{counts.get('unit.finished', 0)} unit(s) finished, "
        f"{counts.get('unit.failed', 0)} failed"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="DIODE reproduction: targeted integer overflow discovery.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="analyze one application model")
    # ``add_argument`` iterates a positional's choices to check its metavar,
    # so the application choices are attached to the returned action.
    analyze.add_argument("application").choices = _ApplicationNames()
    analyze.add_argument("--json", action="store_true", help="emit JSON")
    analyze.set_defaults(func=_cmd_analyze)

    table1 = subparsers.add_parser("table1", help="reproduce Table 1 for all applications")
    table1.add_argument("--json", action="store_true", help="emit JSON")
    table1.set_defaults(func=_cmd_table1)

    site = subparsers.add_parser("site", help="analyze a single target site")
    site.add_argument("application").choices = _ApplicationNames()
    site.add_argument("site", help="site tag, e.g. png.c@203")
    site.set_defaults(func=_cmd_site)

    campaign = subparsers.add_parser(
        "campaign",
        help="run the whole registry through the parallel campaign engine",
    )
    campaign.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "workers for the chosen backend, >= 1 (default: one per CPU; "
            "1 degrades the thread backend to the serial schedule)"
        ),
    )
    campaign.add_argument(
        "--backend",
        choices=available_backends(),
        default="thread",
        help=(
            "execution backend: serial (reference schedule), thread "
            "(shared-cache work queue), process (CPU parallelism; "
            "default: thread)"
        ),
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the shared solver-result cache",
    )
    campaign.add_argument(
        "--no-core-guidance",
        action="store_true",
        help=(
            "disable UNSAT-core branch guidance in the enforcement loop "
            "(cores prune candidate queries subsumed by an already-proved "
            "infeasible subset; classifications are identical either way — "
            "enforced by benchmarks/bench_enforcement.py)"
        ),
    )
    campaign.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persistent solver-cache store: warm-start from DIR before the "
            "run and save back after (created on first use)"
        ),
    )
    campaign.add_argument(
        "--no-save-cache",
        action="store_true",
        help="with --cache-dir: load the store but do not write it back",
    )
    campaign.add_argument(
        "--corpus-dir",
        metavar="DIR",
        default=None,
        help=(
            "persistent witness corpus: load known overflows from DIR before "
            "the run and merge this run's deduplicated, minimized witnesses "
            "back after (created on first use)"
        ),
    )
    campaign.add_argument(
        "--no-save-corpus",
        action="store_true",
        help="with --corpus-dir: load the corpus but do not write it back",
    )
    campaign.add_argument(
        "--no-minimize",
        action="store_true",
        help="store witnesses as discovered instead of ddmin-minimizing them",
    )
    campaign.add_argument(
        "--skip-known",
        action="store_true",
        help=(
            "replay a fresh corpus witness per site (one concrete run) "
            "instead of re-deriving it through enforcement; requires "
            "--corpus-dir, and falls back to full analysis for witnesses "
            "that no longer replay"
        ),
    )
    campaign.add_argument(
        "--apps",
        nargs="+",
        choices=_ApplicationNames(),
        metavar="APP",
        help="restrict the campaign to these applications",
    )
    campaign.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help=(
            "write a structured trace of the run to DIR (meta.json plus one "
            "spans-<pid>.jsonl per process, including process-backend "
            "workers); render afterwards with the trace subcommand"
        ),
    )
    campaign.add_argument("--json", action="store_true", help="emit JSON")
    campaign.set_defaults(func=_cmd_campaign)

    replay = subparsers.add_parser(
        "replay",
        help=(
            "re-validate every witness in a persistent corpus against the "
            "current application registry"
        ),
    )
    replay.add_argument(
        "--corpus-dir",
        metavar="DIR",
        required=True,
        help="the witness corpus to replay",
    )
    replay.add_argument(
        "--apps",
        nargs="+",
        choices=_ApplicationNames(),
        metavar="APP",
        help="replay only witnesses for these applications",
    )
    replay.add_argument(
        "--no-save",
        action="store_true",
        help="do not write replay statuses back to the corpus",
    )
    replay.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when any witness no longer triggers (for CI gates)",
    )
    replay.add_argument("--json", action="store_true", help="emit JSON")
    replay.set_defaults(func=_cmd_replay)

    trace = subparsers.add_parser(
        "trace",
        help=(
            "render a campaign trace directory: per-stage summary, "
            "straggler top-N, optional Chrome trace-event export"
        ),
    )
    trace.add_argument(
        "--trace-dir",
        metavar="DIR",
        required=True,
        help="the trace directory a campaign wrote with --trace-dir",
    )
    trace.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        metavar="N",
        help="how many straggler units to list (default: 5)",
    )
    trace.add_argument(
        "--chrome",
        metavar="FILE",
        default=None,
        help=(
            "also export the trace as Chrome trace-event JSON to FILE "
            "(chrome://tracing / Perfetto compatible)"
        ),
    )
    trace.add_argument("--json", action="store_true", help="emit JSON")
    trace.set_defaults(func=_cmd_trace)

    events = subparsers.add_parser(
        "events",
        help=(
            "summarize or tail a campaign's events (the event records of "
            "the spans-*.jsonl files under --trace-dir)"
        ),
    )
    events.add_argument(
        "--trace-dir",
        metavar="DIR",
        required=True,
        help="the trace directory a campaign wrote with --trace-dir",
    )
    events.add_argument(
        "--tail",
        type=_positive_int,
        default=None,
        metavar="N",
        help="print the last N event records instead of the summary",
    )
    events.add_argument(
        "--follow",
        action="store_true",
        help=(
            "stream new event records as they are written (poll loop; "
            "bound it with --duration for scripted use)"
        ),
    )
    events.add_argument(
        "--duration",
        type=_non_negative_float,
        default=None,
        metavar="SECONDS",
        help="with --follow: stop after this many seconds (0: one pass)",
    )
    events.add_argument(
        "--poll",
        type=_positive_float,
        default=0.5,
        metavar="SECONDS",
        help="with --follow: poll interval (default: 0.5)",
    )
    events.add_argument("--json", action="store_true", help="emit JSON")
    events.set_defaults(func=_cmd_events)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
