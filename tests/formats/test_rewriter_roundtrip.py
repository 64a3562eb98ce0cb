"""Round-trip coverage for the input rewriter across every registry format.

For each benchmark application's format spec and seed input: rewrite the
mutable integer fields through the byte-level path the input generator
uses (:meth:`InputRewriter.rewrite_bytes` over the bytes
:meth:`FieldMapper.model_to_byte_values` expands them to), dissect the
result, and check that every value reads back exactly — and that derived
fields (checksums, lengths) were re-fixed and magic bytes left alone, so
the rewritten file is still structurally valid.  This is the Peach-role
contract the whole input-generation stage (and therefore every triage
witness rebuild) rests on.
"""

from __future__ import annotations

import pytest

from repro.apps import all_applications
from repro.core.fieldmap import FieldMapper
from repro.core.inputs import InputGenerator
from repro.exec.concolic import input_byte_name
from repro.formats.fields import Endianness, FieldKind
from repro.formats.rewriter import InputRewriter
from repro.smt.evalmodel import Model


def registry_cases():
    return [
        pytest.param(application, id=application.format_spec.name)
        for application in all_applications()
    ]


@pytest.mark.parametrize("application", registry_cases())
class TestRewriteParseRoundTrip:
    def _new_field_values(self, application):
        """Fresh, distinguishable values for every mutable UINT field."""
        values = {}
        for index, spec in enumerate(application.format_spec.mutable_fields()):
            if spec.kind is not FieldKind.UINT:
                continue
            width_mask = (1 << (8 * spec.size)) - 1
            current = spec.read(application.seed_input)
            values[spec.path] = (current + 0x1F2E + index * 977) & width_mask
        return values

    def _rewrite(self, application, values):
        """Rewrite the seed the way the input generator does."""
        spec = application.format_spec
        byte_values = FieldMapper(spec).model_to_byte_values(values)
        # Also aim at every immutable byte: the rewriter must leave magic
        # bytes alone and re-fix checksums and lengths after the rest.
        for field_spec in spec.fields:
            if not field_spec.mutable:
                for offset in range(field_spec.offset, field_spec.offset + field_spec.size):
                    byte_values[offset] = application.seed_input[offset] ^ 0x5A
        return InputRewriter(spec).rewrite_bytes(application.seed_input, byte_values)

    def test_every_mutable_field_round_trips(self, application):
        spec = application.format_spec
        values = self._new_field_values(application)
        assert values, f"{spec.name} declares no mutable integer fields"
        rewritten = self._rewrite(application, values)
        dissected = spec.dissect(rewritten)
        for path, value in values.items():
            assert dissected.value_of(path) == value, path

    def test_rewrite_preserves_size_and_magic(self, application):
        spec = application.format_spec
        rewritten = self._rewrite(application, self._new_field_values(application))
        assert len(rewritten) == len(application.seed_input)
        for field_spec in spec.fields:
            if field_spec.kind is FieldKind.MAGIC:
                assert (
                    field_spec.read_bytes(rewritten)
                    == field_spec.read_bytes(application.seed_input)
                ), field_spec.path

    def test_checksums_are_refixed_after_field_rewrites(self, application):
        spec = application.format_spec
        rewritten = self._rewrite(application, self._new_field_values(application))
        checked = 0
        for field_spec in spec.fields:
            if field_spec.kind is not FieldKind.CHECKSUM:
                continue
            if field_spec.covers is None or field_spec.compute is None:
                continue
            start, size = field_spec.covers
            end = len(rewritten) if size < 0 else start + size
            expected = field_spec.compute(rewritten[start:end])
            assert field_spec.read(rewritten) == expected, field_spec.path
            checked += 1
        if spec.name in ("png", "swf"):
            assert checked, f"{spec.name} is expected to declare checksums"

    def test_length_fields_are_refixed(self, application):
        spec = application.format_spec
        rewritten = self._rewrite(application, self._new_field_values(application))
        for field_spec in spec.fields:
            if field_spec.kind is not FieldKind.LENGTH:
                continue
            if field_spec.covers is None:
                continue
            start, size = field_spec.covers
            end = len(rewritten) if size < 0 else start + size
            assert field_spec.read(rewritten) == max(0, end - start), (
                field_spec.path
            )

    def test_byte_level_rewrite_matches_field_level(self, application):
        """A model over per-byte variables builds the same input as one
        over field variables carrying the same values."""
        spec = application.format_spec
        generator = InputGenerator(application.seed_input, spec)
        values = self._new_field_values(application)
        by_fields = generator.generate_from_fields(values).data
        byte_model = {}
        for path, value in values.items():
            field_spec = spec.field(path)
            order = "big" if field_spec.endianness is Endianness.BIG else "little"
            for index, byte in enumerate(value.to_bytes(field_spec.size, order)):
                byte_model[input_byte_name(field_spec.offset + index)] = byte
        by_bytes = generator.generate(Model(byte_model)).data
        assert by_bytes == by_fields
        assert by_fields != application.seed_input

    def test_model_value_for_immutable_field_is_dropped(self, application):
        """A model naming a magic, checksum, length or fixed header field
        expands to its bytes, and the rewriter leaves them all alone."""
        spec = application.format_spec
        immutable = [f for f in spec.fields if not f.mutable]
        assert immutable, f"{spec.name} declares no immutable fields"
        values = {
            f.path: f.read(application.seed_input) ^ ((1 << (8 * f.size)) - 1)
            for f in immutable
        }
        generated = InputGenerator(application.seed_input, spec).generate_from_fields(values)
        for field_spec in immutable:
            assert set(field_spec.byte_range()) <= set(generated.byte_values)
        assert generated.data == application.seed_input

    def test_seed_dissects_cleanly(self, application):
        """Sanity: the seed itself parses against its own spec."""
        dissected = application.format_spec.dissect(application.seed_input)
        assert dissected.field_values()
