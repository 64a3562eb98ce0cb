"""Field descriptions: named byte ranges within an input file.

A :class:`FieldSpec` names a byte range and describes how to interpret it
(unsigned integer with an endianness, raw bytes, or a checksum computed over
another region).  This is the Hachoir role in the paper: turning raw byte
offsets into named input fields such as ``/header/width`` so that reports and
constraints can talk about fields rather than anonymous offsets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple


class Endianness(enum.Enum):
    """Byte order of an integer field."""

    BIG = "big"
    LITTLE = "little"


class FieldKind(enum.Enum):
    """What a byte range means."""

    UINT = "uint"          # unsigned integer, fixed width
    BYTES = "bytes"        # opaque payload bytes
    MAGIC = "magic"        # fixed signature bytes that must not change
    CHECKSUM = "checksum"  # derived from other bytes; recomputed on rewrite
    LENGTH = "length"      # derived length of another region; recomputed


@dataclass(frozen=True)
class FieldSpec:
    """A named field inside an input format.

    Attributes:
        path: hierarchical name, e.g. ``/header/width``.
        offset: byte offset of the field within the file.
        size: field size in bytes.
        kind: interpretation of the bytes.
        endianness: byte order for ``UINT`` fields.
        covers: for ``CHECKSUM``/``LENGTH`` fields, the (offset, size) region
            the derived value is computed over; ``size == -1`` means "to the
            end of the file".
        compute: for ``CHECKSUM`` fields, the function from covered bytes to
            the integer checksum value.
        mutable: whether DIODE may place solver-chosen values here (magic
            numbers and derived fields are not mutable).
    """

    path: str
    offset: int
    size: int
    kind: FieldKind = FieldKind.UINT
    endianness: Endianness = Endianness.BIG
    covers: Optional[Tuple[int, int]] = None
    compute: Optional[Callable[[bytes], int]] = field(default=None, compare=False)
    mutable: bool = True

    def byte_range(self) -> range:
        """The byte offsets occupied by this field."""
        return range(self.offset, self.offset + self.size)

    def read(self, data: bytes) -> int:
        """Read the field's integer value from ``data`` (UINT fields only)."""
        chunk = bytes(data[self.offset : self.offset + self.size])
        if len(chunk) < self.size:
            chunk = chunk + b"\x00" * (self.size - len(chunk))
        return int.from_bytes(chunk, self.endianness.value)

    def read_bytes(self, data: bytes) -> bytes:
        """Read the field's raw bytes from ``data``."""
        return bytes(data[self.offset : self.offset + self.size])

    def encode(self, value: int) -> bytes:
        """Encode an integer value into this field's byte representation."""
        return int(value & ((1 << (8 * self.size)) - 1)).to_bytes(
            self.size, self.endianness.value
        )


@dataclass(frozen=True)
class FieldValue:
    """A field paired with its current integer value."""

    spec: FieldSpec
    value: int
