"""Format specifications and input dissection.

A :class:`FormatSpec` is an ordered collection of :class:`~repro.formats.fields.FieldSpec`
objects describing one input format (PNG-like, WAV-like, ...).  Dissecting an
input file against a spec yields a :class:`DissectedInput` that can answer
the two questions DIODE asks:

* which named field does a given byte offset belong to (for reporting which
  input fields influence a target site), and
* what are the current field values (for describing seed inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.formats.fields import FieldKind, FieldSpec, FieldValue


class FormatError(ValueError):
    """Raised for malformed format specifications or undersized inputs."""


class FormatSpec:
    """An ordered set of named fields describing one input format."""

    def __init__(self, name: str, fields: Sequence[FieldSpec]) -> None:
        self.name = name
        self.fields: List[FieldSpec] = list(fields)
        self._by_path: Dict[str, FieldSpec] = {}
        #: offset -> the first field in file order whose bytes hold it.
        self._by_offset: Dict[int, FieldSpec] = {}
        for spec in self.fields:
            if spec.path in self._by_path:
                raise FormatError(f"duplicate field path {spec.path!r}")
            self._by_path[spec.path] = spec
            for offset in spec.byte_range():
                self._by_offset.setdefault(offset, spec)

    # ------------------------------------------------------------------
    def field(self, path: str) -> FieldSpec:
        """Look up a field by path."""
        try:
            return self._by_path[path]
        except KeyError as error:
            raise FormatError(f"{self.name}: no field named {path!r}") from error

    def has_field(self, path: str) -> bool:
        """Whether the format defines a field with this path."""
        return path in self._by_path

    def mutable_fields(self) -> List[FieldSpec]:
        """Fields whose bytes DIODE may replace with solver values."""
        return [spec for spec in self.fields if spec.mutable]

    def field_at_offset(self, offset: int) -> Optional[FieldSpec]:
        """The field containing the given byte offset, if any."""
        return self._by_offset.get(offset)

    def minimum_size(self) -> int:
        """Smallest file size that contains every fixed field."""
        end = 0
        for spec in self.fields:
            if spec.size >= 0:
                end = max(end, spec.offset + spec.size)
        return end

    def dissect(self, data: bytes) -> "DissectedInput":
        """Dissect an input file against this spec."""
        if len(data) < self.minimum_size():
            raise FormatError(
                f"{self.name}: input is {len(data)} bytes, "
                f"need at least {self.minimum_size()}"
            )
        return DissectedInput(spec=self, data=bytes(data))

    def __repr__(self) -> str:
        return f"FormatSpec({self.name!r}, {len(self.fields)} fields)"


@dataclass
class DissectedInput:
    """An input file interpreted against a :class:`FormatSpec`."""

    spec: FormatSpec
    data: bytes

    def value_of(self, path: str) -> int:
        """Integer value of a UINT field."""
        field_spec = self.spec.field(path)
        if field_spec.kind is FieldKind.BYTES:
            raise FormatError(f"field {path!r} is a byte payload, not an integer")
        return field_spec.read(self.data)

    def field_values(self) -> List[FieldValue]:
        """All UINT field values in file order."""
        out: List[FieldValue] = []
        for field_spec in self.spec.fields:
            if field_spec.kind in (FieldKind.UINT, FieldKind.CHECKSUM, FieldKind.LENGTH):
                out.append(FieldValue(spec=field_spec, value=field_spec.read(self.data)))
        return out
