"""Process-wide sharing of programs and their compiled closures.

``Program.from_source`` hands out one immutable program per
``(source, name, entry)`` and the executor caches its compiled closures on
that program, so the registry's programs are parsed, lowered and compiled
once per process.  Sharing must never show in results: racing first
compiles are benign and every backend classifies identically.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import Counter

import pytest

import repro.exec.compiler as compiler
import repro.lang.program as program_module
from repro.apps.registry import get_application
from repro.apps.vlc import VLC_SOURCE
from repro.core.campaign import CampaignConfig, run_campaign
from repro.exec.compiler import compiled
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.concrete import ConcreteInterpreter
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.exec.taint import TaintInterpreter
from repro.lang.parser import parse_program
from repro.lang.program import Program

SUBSET = ["vlc", "cwebp"]


def _classifications(config: CampaignConfig) -> str:
    return json.dumps(run_campaign(config).classifications(), sort_keys=True)


def _fresh_vlc() -> Program:
    """A VLC program no other test has run (bypasses the memo)."""
    return Program.from_unit(parse_program(VLC_SOURCE, filename="vlc"), name="vlc")


class TestProgramSharing:
    def test_from_source_returns_one_program_per_key(self):
        source = "proc main() { x = input(0) + 1; buf = alloc(x); }"
        first = Program.from_source(source, name="shared")
        assert Program.from_source(source, name="shared") is first
        assert Program.from_source(source, name="shared", entry="main") is first
        assert Program.from_source(source, name="other") is not first

    def test_registry_builds_share_the_program(self):
        assert get_application("vlc").program is get_application("vlc").program

    def test_program_is_immutable(self):
        program = Program.from_source("proc main() { x = 1; }")
        with pytest.raises(AttributeError):
            program.name = "renamed"
        with pytest.raises(AttributeError):
            program.body = program.body

    def test_compiled_closures_are_cached_per_domain_and_width(self):
        program = _fresh_vlc()
        domain = TaintInterpreter.domain
        first = compiled(program, domain, 32)
        assert compiled(program, domain, 32) is first
        assert compiled(program, domain, 16) is not first
        assert compiled(program, ConcreteInterpreter.domain, 32) is not first
        assert compiled(program, OverflowWitnessInterpreter.domain, 32) is not first


class TestCompileOnce:
    def test_second_campaign_does_no_parse_lower_or_compile_work(self, monkeypatch):
        def config() -> CampaignConfig:
            return CampaignConfig(backend="serial", jobs=1, applications=SUBSET)

        first = _classifications(config())
        calls: Counter = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            program_module, "parse_program", counting("parse", program_module.parse_program)
        )
        monkeypatch.setattr(
            program_module, "lower_program", counting("lower", program_module.lower_program)
        )
        monkeypatch.setattr(
            compiler._Compiler, "__init__", counting("compile", compiler._Compiler.__init__)
        )
        assert _classifications(config()) == first
        assert calls == Counter()

    def test_concurrent_first_runs_compile_benignly(self):
        program = _fresh_vlc()
        seed = get_application("vlc").seed_input
        reference = _fresh_vlc()
        runs = {
            "taint": lambda p: TaintInterpreter(p).run_taint(seed),
            "witness": lambda p: OverflowWitnessInterpreter(p).run_witness(seed),
            "concolic": lambda p: ConcolicInterpreter(p).run_concolic(seed),
            "concrete": lambda p: ConcreteInterpreter(p).run(seed),
        }
        expected = {kind: run(reference) for kind, run in runs.items()}
        threads_per_kind = 3
        barrier = threading.Barrier(threads_per_kind * len(runs))
        results = []
        errors = []

        def worker(kind):
            try:
                barrier.wait(timeout=60)
                results.append((kind, runs[kind](program)))
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(kind,))
            for kind in runs
            for _ in range(threads_per_kind)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-compile
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == threads_per_kind * len(runs)
        for kind, report in results:
            assert report == expected[kind]
        # One kept compilation per domain, whoever won the race.
        assert len(program._compiled) == len(runs)

    def test_thread_backend_first_campaign_matches_serial(self, monkeypatch):
        serial = _classifications(
            CampaignConfig(backend="serial", jobs=1, applications=SUBSET, use_cache=False)
        )
        # An empty memo: every program is built and compiled under the pool.
        monkeypatch.setattr(program_module, "_FROM_SOURCE", {})
        threaded = _classifications(
            CampaignConfig(backend="thread", jobs=4, applications=SUBSET, use_cache=False)
        )
        assert threaded == serial


def test_backends_classify_byte_identically():
    outputs = {
        backend: _classifications(
            CampaignConfig(
                backend=backend, jobs=1 if backend == "serial" else 2, applications=SUBSET
            )
        )
        for backend in ("serial", "thread", "process")
    }
    assert outputs["thread"] == outputs["serial"]
    assert outputs["process"] == outputs["serial"]
