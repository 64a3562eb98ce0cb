"""Input reconstruction: place new field/byte values into a seed file.

This is the Peach role in the paper (Section 4.4): given the seed input and
solver-chosen values for the relevant input bytes, produce a new input file
that is still structurally valid — magic bytes preserved, checksums
recomputed, derived length fields updated.  A *raw-byte mode* is also
provided for unknown formats, exactly as in the paper.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.formats.fields import FieldKind, FieldSpec
from repro.formats.spec import FormatSpec


class InputRewriter:
    """Rebuild input files around new byte values."""

    def __init__(self, spec: Optional[FormatSpec] = None) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Byte-level interface (solver models are assignments to individual
    # relevant input bytes; FieldMapper expands named fields into them).
    # ------------------------------------------------------------------
    def rewrite_bytes(self, seed: bytes, byte_values: Mapping[int, int]) -> bytes:
        """Return a copy of ``seed`` with the given byte offsets replaced.

        When a format spec is present, bytes that fall inside immutable
        fields (magic numbers, checksums, derived lengths) are left alone —
        the subsequent fix-up pass recomputes derived fields, and overwriting
        magic bytes would only produce an input the application rejects in
        its first sanity check.
        """
        data = bytearray(seed)
        for offset, value in byte_values.items():
            if offset < 0 or offset >= len(data):
                continue
            if self.spec is not None:
                field_spec = self.spec.field_at_offset(offset)
                if field_spec is not None and not field_spec.mutable:
                    continue
            data[offset] = value & 0xFF
        if self.spec is not None:
            self._fix_derived_fields(data)
        return bytes(data)

    # ------------------------------------------------------------------
    # Derived-field fix-up
    # ------------------------------------------------------------------
    def _fix_derived_fields(self, data: bytearray) -> None:
        assert self.spec is not None
        for field_spec in self.spec.fields:
            if field_spec.kind is FieldKind.CHECKSUM:
                self._fix_checksum(data, field_spec)
            elif field_spec.kind is FieldKind.LENGTH:
                self._fix_length(data, field_spec)

    def _fix_checksum(self, data: bytearray, field_spec: FieldSpec) -> None:
        if field_spec.covers is None or field_spec.compute is None:
            return
        start, size = field_spec.covers
        end = len(data) if size < 0 else start + size
        value = field_spec.compute(bytes(data[start:end]))
        data[field_spec.offset : field_spec.offset + field_spec.size] = (
            field_spec.encode(value)
        )

    def _fix_length(self, data: bytearray, field_spec: FieldSpec) -> None:
        if field_spec.covers is None:
            return
        start, size = field_spec.covers
        end = len(data) if size < 0 else start + size
        value = max(0, end - start)
        data[field_spec.offset : field_spec.offset + field_spec.size] = (
            field_spec.encode(value)
        )
