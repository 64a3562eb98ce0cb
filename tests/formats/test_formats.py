"""Tests for the input-format substrate (fields, specs, rewriter, formats)."""

import zlib

import pytest

from repro.apps.registry import application_names, get_application
from repro.core.fieldmap import FieldMapper
from repro.formats import (
    PngFormat,
    SwfFormat,
    WavFormat,
    WebpFormat,
    XwdFormat,
    build_png_seed,
    build_swf_seed,
    build_wav_seed,
    build_webp_seed,
    build_xwd_seed,
)
from repro.formats.checksum import additive_checksum, crc32
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.rewriter import InputRewriter
from repro.formats.spec import DissectedInput, FormatError, FormatSpec
from repro.formats import png as png_layout
from repro.formats import wav as wav_layout


class TestFieldSpec:
    width_field = FieldSpec("/w", 4, 2, FieldKind.UINT, Endianness.BIG)

    def test_read_big_endian(self):
        data = bytes([0, 0, 0, 0, 0x01, 0x02])
        assert self.width_field.read(data) == 0x0102

    def test_read_little_endian(self):
        field = FieldSpec("/w", 0, 2, FieldKind.UINT, Endianness.LITTLE)
        assert field.read(bytes([0x01, 0x02])) == 0x0201

    def test_read_short_data_pads(self):
        assert self.width_field.read(bytes([0, 0, 0, 0, 0x01])) == 0x0100

    def test_encode_roundtrip(self):
        assert self.width_field.encode(0x0102) == bytes([0x01, 0x02])

    def test_encode_wraps_oversized_value(self):
        assert self.width_field.encode(0x12345) == bytes([0x23, 0x45])

    def test_byte_range(self):
        assert list(self.width_field.byte_range()) == [4, 5]


class TestFormatSpec:
    def _spec(self):
        return FormatSpec(
            "demo",
            [
                FieldSpec("/magic", 0, 2, FieldKind.MAGIC, mutable=False),
                FieldSpec("/len", 2, 2, FieldKind.UINT),
                FieldSpec("/payload", 4, 4, FieldKind.BYTES),
            ],
        )

    def test_field_lookup(self):
        assert self._spec().field("/len").offset == 2

    def test_unknown_field_raises(self):
        with pytest.raises(FormatError):
            self._spec().field("/missing")

    def test_duplicate_paths_rejected(self):
        with pytest.raises(FormatError):
            FormatSpec("bad", [FieldSpec("/a", 0, 1), FieldSpec("/a", 1, 1)])

    def test_field_at_offset(self):
        assert self._spec().field_at_offset(3).path == "/len"
        assert self._spec().field_at_offset(100) is None

    def test_field_at_offset_first_field_wins_and_negative_sizes_own_nothing(self):
        spec = FormatSpec(
            "overlap",
            [
                FieldSpec("/header", 0, 4, FieldKind.BYTES),
                FieldSpec("/len", 2, 2, FieldKind.UINT),
                FieldSpec("/tail", 6, -1, FieldKind.BYTES),
            ],
        )
        assert spec.field_at_offset(2).path == "/header"
        assert spec.field_at_offset(5) is None
        assert spec.field_at_offset(6) is None

    @pytest.mark.parametrize("name", application_names())
    def test_field_at_offset_matches_a_linear_scan(self, name):
        def scan(spec, offset):
            for field in spec.fields:
                if offset in field.byte_range():
                    return field
            return None

        spec = get_application(name).format_spec
        end = max(field.offset + max(field.size, 0) for field in spec.fields)
        for offset in range(-2, end + 5):
            assert spec.field_at_offset(offset) is scan(spec, offset)

    def test_minimum_size(self):
        assert self._spec().minimum_size() == 8

    def test_dissect_rejects_short_input(self):
        with pytest.raises(FormatError):
            self._spec().dissect(b"abc")

    def test_mutable_fields_exclude_magic(self):
        paths = [f.path for f in self._spec().mutable_fields()]
        assert "/magic" not in paths


class TestChecksums:
    def test_crc32_matches_zlib(self):
        assert crc32(b"IHDR1234") == zlib.crc32(b"IHDR1234") & 0xFFFFFFFF

    def test_additive_checksum(self):
        assert additive_checksum(bytes([1, 2, 3])) == 6


@pytest.mark.parametrize(
    "spec,builder",
    [
        (PngFormat, build_png_seed),
        (WavFormat, build_wav_seed),
        (SwfFormat, build_swf_seed),
        (WebpFormat, build_webp_seed),
        (XwdFormat, build_xwd_seed),
    ],
    ids=["png", "wav", "swf", "webp", "xwd"],
)
class TestSeedBuilders:
    def test_seed_large_enough(self, spec, builder):
        assert len(builder()) >= spec.minimum_size()

    def test_seed_dissects(self, spec, builder):
        dissected = spec.dissect(builder())
        assert isinstance(dissected, DissectedInput)
        assert dissected.field_values()

    def test_mutable_fields_have_distinct_ranges(self, spec, builder):
        seen = set()
        for field in spec.fields:
            for offset in field.byte_range():
                assert offset not in seen, f"overlap at {offset} in {spec.name}"
                seen.add(offset)


class TestPngSpecifics:
    def test_seed_field_values(self):
        dissected = PngFormat.dissect(build_png_seed(width=280, height=100, bit_depth=8))
        assert dissected.value_of("/header/width") == 280
        assert dissected.value_of("/header/height") == 100
        assert dissected.value_of("/header/bit_depth") == 8

    def test_seed_crc_is_valid(self):
        seed = build_png_seed()
        dissected = PngFormat.dissect(seed)
        start = png_layout.IHDR_TYPE_OFFSET
        expected = zlib.crc32(seed[start : start + 17]) & 0xFFFFFFFF
        assert dissected.value_of("/ihdr/crc") == expected

    def test_signature_preserved(self):
        assert build_png_seed()[:8] == png_layout.PNG_SIGNATURE


class TestWavSpecifics:
    def test_seed_field_values(self):
        dissected = WavFormat.dissect(build_wav_seed(channels=2, extra_size=8))
        assert dissected.value_of("/fmt/channels") == 2
        assert dissected.value_of("/fmt/extra_size") == 8

    def test_riff_size_matches_length_field(self):
        seed = build_wav_seed()
        dissected = WavFormat.dissect(seed)
        assert dissected.value_of("/riff/size") == len(seed) - wav_layout.WAVE_MAGIC_OFFSET


class TestRewriter:
    def test_field_values_rewrite_updates_values_and_checksum(self):
        rewriter = InputRewriter(PngFormat)
        seed = build_png_seed()
        byte_values = FieldMapper(PngFormat).model_to_byte_values({"/header/width": 966175})
        rewritten = rewriter.rewrite_bytes(seed, byte_values)
        dissected = PngFormat.dissect(rewritten)
        assert dissected.value_of("/header/width") == 966175
        start = png_layout.IHDR_TYPE_OFFSET
        assert dissected.value_of("/ihdr/crc") == (
            zlib.crc32(rewritten[start : start + 17]) & 0xFFFFFFFF
        )

    def test_rewrite_bytes_skips_immutable_fields(self):
        rewriter = InputRewriter(PngFormat)
        seed = build_png_seed()
        rewritten = rewriter.rewrite_bytes(seed, {0: 0xAA, png_layout.WIDTH_OFFSET: 0x7F})
        assert rewritten[0] == seed[0]  # signature byte untouched
        assert rewritten[png_layout.WIDTH_OFFSET] == 0x7F

    def test_rewrite_bytes_out_of_range_offsets_ignored(self):
        rewriter = InputRewriter(PngFormat)
        seed = build_png_seed()
        assert rewriter.rewrite_bytes(seed, {10_000: 1, -3: 2}) == seed

    def test_raw_byte_mode_without_spec(self):
        rewriter = InputRewriter(None)
        out = rewriter.rewrite_bytes(b"\x00\x01\x02", {1: 0xFF})
        assert out == b"\x00\xff\x02"

    def test_field_values_expand_to_big_endian_bytes(self):
        mapping = FieldMapper(PngFormat).model_to_byte_values({"/header/width": 0x01020304})
        assert mapping[png_layout.WIDTH_OFFSET] == 0x01
        assert mapping[png_layout.WIDTH_OFFSET + 3] == 0x04

    def test_wav_length_field_recomputed(self):
        rewriter = InputRewriter(WavFormat)
        seed = build_wav_seed()
        byte_values = FieldMapper(WavFormat).model_to_byte_values({"/data/frame_size": 4096})
        rewritten = rewriter.rewrite_bytes(seed, byte_values)
        dissected = WavFormat.dissect(rewritten)
        assert dissected.value_of("/data/frame_size") == 4096
        assert dissected.value_of("/riff/size") == len(rewritten) - wav_layout.WAVE_MAGIC_OFFSET
