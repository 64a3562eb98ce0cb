"""Goal-directed witness minimization over the whole application registry.

Pins the 14 witnesses the concrete-bisection minimizer produced on the full
registry (signature, wrapped-op provenance, kept fields and, for the one
field whose symbolic shrink falls back to concrete bisection, the value it
reached) and checks the goal-directed minimizer against them:

* signatures, provenance and kept-field sets are unchanged;
* every minimized field is 1-minimal — one step toward the seed baseline
  loses the overflow, or loses a root operator kind from the provenance —
  except a fallback field, which is no further from baseline than before;
* every stored witness replays under a fresh :class:`ErrorDetector`;
* the campaign spends at most :data:`MAX_TRIAGE_WITNESS_RUNS` concrete runs
  on triage, identically on the serial, thread and process backends, which
  produce the same witness records;
* replacing the symbolic predicate by "always true" or "always false" keeps
  every witness sound, and "always false" reproduces the concrete-only
  minimizer exactly.
"""

from typing import List, Tuple

import pytest

from repro.apps import all_applications
from repro.core.campaign import CampaignConfig, CampaignEngine
from repro.core.detection import ErrorDetector
from repro.core.inputs import InputGenerator
from repro.triage import minimize as minimize_module
from repro.triage.engine import rebuild_witness_input
from repro.triage.minimize import MinimizationOutcome, WitnessMinimizer

#: signature -> (application, site, provenance, field values) as minimized
#: by concrete bisection alone.
PINNED = {
    "w1-1d2419981c64e15325f0": ("CWebP 0.3.1", "jpegdec.c@248", ("mul",), {"/sof/height": 16473, "/sof/width": 65535}),
    "w1-687c985b86d80d17d0ef": ("Dillo 2.1", "Image.cxx@741", ("mul",), {"/header/height": 65536, "/header/width": 65536}),
    "w1-cf5930841cb743e15d4a": ("Dillo 2.1", "fltkimagebuf.cc@39", ("mul",), {"/header/height": 65536, "/header/width": 65536}),
    "w1-ede7b2e19331ef8edced": ("Dillo 2.1", "png.c@203", ("mul",), {"/header/height": 65536, "/header/width": 65536}),
    "w1-8c0ebe5a9f5b72930f6c": ("ImageMagick 6.5.2", "cache.c@803", ("mul",), {"/header/pixmap_width": 67108926}),
    "w1-ce8f41bb19ec55153942": ("ImageMagick 6.5.2", "display.c@4393", ("mul",), {"/header/pixmap_height": 67108911}),
    "w1-f18e7fdccedc100be8ef": ("ImageMagick 6.5.2", "xwindow.c@5619", ("mul",), {"/header/window_width": 67108926}),
    "w1-07a7e08d9ce97bab4830": ("SwfPlay 0.5.5", "jpeg.c@192", ("mul",), {"/jpeg/height": 22684, "/jpeg/width": 63497}),
    "w1-dc1e735ca8d344df59e0": ("SwfPlay 0.5.5", "jpeg_rgb_decoder.c@253", ("mul",), {"/jpeg/height": 22684, "/jpeg/width": 63497}),
    "w1-ef79e666452981dd3ff2": ("SwfPlay 0.5.5", "jpeg_rgb_decoder.c@257", ("mul",), {"/jpeg/height": 16563, "/jpeg/width": 65535}),
    "w1-68265dbedfd925fadff7": ("VLC 0.8.6h", "block.c@54", ("mul",), {"/data/frame_size": 1073741871}),
    "w1-55399a4943b1a8a43aa4": ("VLC 0.8.6h", "dec.c@277", ("mul",), {"/data/frame_size": 132120576, "/fmt/bits_per_sample": 24, "/fmt/channels": 11}),
    "w1-dfa2e5ab282cb41c6b80": ("VLC 0.8.6h", "messages.c@355", ("mul",), {"/data/frame_count": 201326592}),
    "w1-b83c3c3a90aa0fbe8d00": ("VLC 0.8.6h", "wav.c@147", ("add",), {"/fmt/extra_size": 4294967295}),
}

#: Concrete runs the minimizer may spend on one registry campaign.
MAX_TRIAGE_WITNESS_RUNS = 40

APPLICATIONS = {app.name: app for app in all_applications()}

#: (application name, site label, enforcement passed?, outcome) per call.
Captured = List[Tuple[str, int, bool, MinimizationOutcome]]


def _spy(monkeypatch) -> Captured:
    """Record every minimization a campaign performs."""
    captured: Captured = []
    original = WitnessMinimizer.minimize

    def minimize(self, site_label, field_values, enforcement=None):
        outcome = original(self, site_label, field_values, enforcement)
        captured.append(
            (self.application.name, site_label, enforcement is not None, outcome)
        )
        return outcome

    monkeypatch.setattr(WitnessMinimizer, "minimize", minimize)
    return captured


def _campaign(**overrides):
    return CampaignEngine(CampaignConfig(**overrides)).run()


def _counter(result, name: str) -> int:
    return result.metrics["metrics"].get(name, {}).get("value", 0)


def _replays(records) -> bool:
    """Every record rebuilds and triggers under a fresh detector."""
    for record in records:
        application = APPLICATIONS[record.application]
        detector = ErrorDetector(application.program, application.seed_input)
        generator = InputGenerator(application.seed_input, application.format_spec)
        data = rebuild_witness_input(record, generator)
        if not detector.evaluate(data, record.site_label).triggers_overflow:
            return False
    return True


@pytest.fixture(scope="module")
def serial_run():
    monkeypatch = pytest.MonkeyPatch()
    try:
        captured = _spy(monkeypatch)
        result = _campaign(backend="serial", jobs=1)
    finally:
        monkeypatch.undo()
    return result, captured


class TestRegistryWitnesses:
    def test_signatures_and_provenance_are_unchanged(self, serial_run):
        result, _ = serial_run
        records = {r.signature: r for r in result.witness_records}
        assert set(records) == set(PINNED)
        for signature, (app, site, provenance, _) in PINNED.items():
            record = records[signature]
            assert (record.application, record.site_name) == (app, site)
            assert record.provenance == provenance

    def test_kept_field_sets_are_unchanged(self, serial_run):
        result, _ = serial_run
        for record in result.witness_records:
            assert set(record.field_values) == set(PINNED[record.signature][3])

    def test_every_field_is_one_minimal_or_a_no_worse_fallback(self, serial_run):
        result, captured = serial_run
        outcomes = {(app, label): outcome for app, label, _, outcome in captured}
        fallbacks = []
        for record in result.witness_records:
            application = APPLICATIONS[record.application]
            outcome = outcomes[(record.application, record.site_label)]
            assert outcome.field_values == record.field_values
            minimizer = WitnessMinimizer(application)
            generator = minimizer.generator
            for path, value in record.field_values.items():
                baseline = minimizer.baseline_value(path)
                if path in outcome.fallback_fields:
                    pinned = PINNED[record.signature][3][path]
                    assert abs(value - baseline) <= abs(pinned - baseline)
                    fallbacks.append((record.site_name, path))
                    continue
                step = value - 1 if value > baseline else value + 1
                data = generator.generate_from_fields(
                    {**record.field_values, path: step}
                ).data
                evaluation = minimizer.detector.evaluate(data, record.site_label)
                assert not evaluation.triggers_overflow or not set(
                    outcome.root_kinds
                ) <= set(evaluation.wrap_provenance), (record.site_name, path)
        assert fallbacks == [("messages.c@355", "/data/frame_count")]

    def test_every_record_replays_under_a_fresh_detector(self, serial_run):
        result, _ = serial_run
        assert _replays(result.witness_records)

    def test_every_minimization_was_goal_directed(self, serial_run):
        _, captured = serial_run
        assert len(captured) == len(PINNED)
        assert all(directed for _, _, directed, _ in captured)
        assert all(outcome.root_kinds for _, _, _, outcome in captured)

    def test_triage_witness_runs_are_bounded_and_backend_independent(
        self, serial_run
    ):
        serial, captured = serial_run
        runs = _counter(serial, "triage.witness_runs")
        assert runs == sum(outcome.attempts for _, _, _, outcome in captured)
        assert runs <= MAX_TRIAGE_WITNESS_RUNS
        # Triage runs inside the unit: in worker threads and processes too.
        for backend in ("thread", "process"):
            other = _campaign(backend=backend, jobs=2)
            assert other.witness_records == serial.witness_records, backend
            for name in ("triage.witness_runs", "triage.shrink.fallbacks"):
                assert _counter(other, name) == _counter(serial, name), (
                    backend,
                    name,
                )
        assert _counter(serial, "triage.shrink.fallbacks") == 1


class TestFallbackAndSoundness:
    def test_messages_site_takes_the_concrete_fallback_and_validates(
        self, serial_run
    ):
        result, captured = serial_run
        vlc = APPLICATIONS["VLC 0.8.6h"]
        label = vlc.program.label_of_tag("messages.c@355")
        (outcome,) = [
            o for app, site, _, o in captured if (app, site) == (vlc.name, label)
        ]
        assert outcome.validated
        assert outcome.fallback_fields == ("/data/frame_count",)
        assert outcome.evaluation.triggers_overflow
        (record,) = [
            r for r in result.witness_records if r.site_name == "messages.c@355"
        ]
        assert _replays([record])

    def test_acceptance_keeps_the_root_kinds_wrapping(self):
        """block.c@54 computes 16 + count * size: a candidate where only the
        addition wraps triggers, but is no witness for a ``mul`` root."""
        vlc = APPLICATIONS["VLC 0.8.6h"]
        label = vlc.program.label_of_tag("block.c@54")
        minimizer = WitnessMinimizer(vlc)
        count = minimizer.baseline_value("/data/frame_count")
        add_only = {"/data/frame_size": (2**32 - 8) // count}
        data = minimizer.generator.generate_from_fields(add_only).data
        assert minimizer.detector.evaluate(data, label).wrap_provenance == ("add",)
        assert minimizer._triggers(label, add_only)
        assert not minimizer._triggers(label, add_only, ("mul",))
        assert minimizer._attempts == 1  # the second check is a memo hit

    @pytest.mark.parametrize("verdict", [True, False], ids=["always-true", "always-false"])
    def test_a_wrong_predicate_never_admits_a_bogus_witness(
        self, monkeypatch, verdict
    ):
        monkeypatch.setattr(
            minimize_module._Goal, "holds", lambda self, values, kinds=None: verdict
        )
        captured = _spy(monkeypatch)
        result = _campaign(backend="serial", jobs=1)
        records = {r.signature: r for r in result.witness_records}
        assert set(records) == set(PINNED)
        assert _replays(result.witness_records)
        if verdict:
            return
        # A predicate false on the validated witness is discarded: every
        # witness is exactly what concrete bisection alone produced.
        for record in result.witness_records:
            _, _, provenance, values = PINNED[record.signature]
            assert record.field_values == values
            assert record.provenance == provenance
        assert all(
            outcome.root_kinds == () and outcome.fallback_fields == ()
            for _, _, _, outcome in captured
        )
