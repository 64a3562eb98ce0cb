"""Property-based tests across the pipeline layers (hypothesis).

Cross-layer invariants that must hold for *any* input field values:

* the symbolic target expression extracted by the concolic interpreter,
  evaluated under the input's field values, equals the concrete allocation
  size observed when running that input;
* the overflow-witness interpreter agrees with exact big-integer arithmetic
  about whether the Dillo image-data size computation wrapped;
* the input rewriter produces structurally valid files (magic preserved,
  CRCs correct) for arbitrary field values and the written values read back;
* compressed branch constraints are always satisfied by the very input the
  seed path was recorded from.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.apps import get_application
from repro.core.branches import compress_branches, extract_branch_constraints
from repro.core.fieldmap import FieldMapper
from repro.core.sites import identify_target_sites
from repro.core.target import extract_target_observations
from repro.core.inputs import InputGenerator
from repro.exec.concolic import ConcolicInterpreter
from repro.exec.overflow_witness import OverflowWitnessInterpreter
from repro.formats.png import PngFormat, build_png_seed
from repro.formats.rewriter import InputRewriter
from repro.smt.evalmodel import evaluate, satisfies

import zlib

import pytest


@pytest.fixture(scope="module")
def dillo():
    return get_application("dillo")


@pytest.fixture(scope="module")
def dillo_observation(dillo):
    sites = identify_target_sites(dillo.program, dillo.seed_input)
    site = next(s for s in sites if s.site_tag == "png.c@203")
    return extract_target_observations(
        dillo.program, dillo.seed_input, site, field_mapper=FieldMapper(dillo.format_spec)
    )[0]


WIDTHS = st.integers(min_value=1, max_value=999_999)
HEIGHTS = st.integers(min_value=1, max_value=999_999)
DEPTHS = st.integers(min_value=1, max_value=255)


class TestConcolicAgreesWithConcrete:
    @given(width=WIDTHS, height=HEIGHTS, depth=DEPTHS)
    @settings(max_examples=25, deadline=None)
    def test_target_expression_matches_concrete_size(
        self, dillo, dillo_observation, width, height, depth
    ):
        """evaluate(B, fields) == concrete allocation size, for inputs that
        reach the target site."""
        area = abs(
            (width * height) & 0xFFFFFFFF
            if (width * height) & 0xFFFFFFFF < 1 << 31
            else (width * height) & 0xFFFFFFFF - (1 << 32)
        )
        candidate = InputGenerator(dillo.seed_input, PngFormat).generate_from_fields(
            {"/header/width": width, "/header/height": height}
        ).data
        candidate = InputRewriter(PngFormat).rewrite_bytes(candidate, {24: depth})
        report = ConcolicInterpreter(
            dillo.program,
            relevant_bytes=set(dillo_observation.site.relevant_bytes),
            field_map=FieldMapper(dillo.format_spec).field_map(),
        ).run_concolic(candidate)
        records = report.allocations_at(dillo_observation.site.site_label)
        if not records:
            return  # rejected by a sanity check before the site — fine
        record = records[0]
        predicted = evaluate(
            dillo_observation.size_expression,
            {"/header/width": width, "/header/height": height, "/header/bit_depth": depth},
        )
        assert predicted == record.requested_size

    @given(width=WIDTHS, height=HEIGHTS, depth=DEPTHS)
    @settings(max_examples=25, deadline=None)
    def test_overflow_witness_matches_big_integer_arithmetic(
        self, dillo, width, height, depth
    ):
        candidate = InputGenerator(dillo.seed_input, PngFormat).generate_from_fields(
            {"/header/width": width, "/header/height": height}
        ).data
        candidate = InputRewriter(PngFormat).rewrite_bytes(candidate, {24: depth})
        report = OverflowWitnessInterpreter(dillo.program).run_witness(candidate)
        site_label = dillo.program.label_of_tag("png.c@203")
        executed = [
            a for a in report.execution.allocations if a.site_label == site_label
        ]
        if not executed:
            return
        rowbytes_exact = (width * (depth * 4)) >> 3
        size_exact = rowbytes_exact * height
        wrapped_somewhere = (
            width * (depth * 4) > 0xFFFFFFFF or size_exact > 0xFFFFFFFF
        )
        assert report.site_overflowed(site_label) == wrapped_somewhere


class TestRewriterProperties:
    @given(width=st.integers(0, 0xFFFFFFFF), height=st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=50, deadline=None)
    def test_rewritten_png_is_structurally_valid(self, width, height):
        data = InputGenerator(build_png_seed(), PngFormat).generate_from_fields(
            {"/header/width": width, "/header/height": height}
        ).data
        dissected = PngFormat.dissect(data)
        assert data[:8] == build_png_seed()[:8]
        assert dissected.value_of("/header/width") == width
        assert dissected.value_of("/header/height") == height
        crc_region = data[12 : 12 + 17]
        assert dissected.value_of("/ihdr/crc") == (zlib.crc32(crc_region) & 0xFFFFFFFF)

    @given(
        overrides=st.dictionaries(
            st.integers(min_value=0, max_value=72),
            st.integers(min_value=0, max_value=255),
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_rewrites_never_change_length_or_magic(self, overrides):
        rewriter = InputRewriter(PngFormat)
        seed = build_png_seed()
        data = rewriter.rewrite_bytes(seed, overrides)
        assert len(data) == len(seed)
        assert data[:8] == seed[:8]


class TestBranchConstraintProperties:
    def test_seed_path_constraints_satisfied_by_seed_itself(self, dillo, dillo_observation):
        """compress(φ) of the seed path must accept the seed input."""
        mapper = FieldMapper(dillo.format_spec)
        assignment = mapper.assignment_for_input(
            dillo.seed_input, range(len(dillo.seed_input))
        )
        compressed = compress_branches(
            extract_branch_constraints(dillo_observation.seed_path)
        )
        for constraint in compressed:
            assert constraint.satisfied_by(assignment), constraint.label

    @given(width=WIDTHS, height=HEIGHTS)
    @settings(max_examples=25, deadline=None)
    def test_compressed_constraints_track_concrete_path_agreement(
        self, dillo, dillo_observation, width, height
    ):
        """If an input satisfies every compressed relevant constraint, its
        concrete run takes the same direction as the seed at those branches."""
        mapper = FieldMapper(dillo.format_spec)
        candidate = InputGenerator(dillo.seed_input, PngFormat).generate_from_fields(
            {"/header/width": width, "/header/height": height}
        ).data
        assignment = mapper.assignment_for_input(candidate, range(len(candidate)))
        compressed = compress_branches(
            extract_branch_constraints(dillo_observation.seed_path)
        )
        if not all(c.satisfied_by(assignment) for c in compressed):
            return
        # All constraints hold -> the candidate follows the seed path through
        # every recorded conditional, so it must reach the target site and
        # allocate the same size as the seed only if width/bit-depth match;
        # at minimum it must reach the site without being halted.
        from repro.exec.concrete import ConcreteInterpreter

        report = ConcreteInterpreter(dillo.program).run(candidate)
        site_label = dillo.program.label_of_tag("png.c@203")
        assert any(a.site_label == site_label for a in report.allocations)
