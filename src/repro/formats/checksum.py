"""Checksum algorithms used by the input formats.

The rewriter recomputes these after placing solver-chosen field values into
an input file, which is the Peach role in the paper ("applying techniques
such as checksum recalculation").
"""

from __future__ import annotations

import zlib


def crc32(data: bytes) -> int:
    """The CRC-32 used by PNG chunks."""
    return zlib.crc32(bytes(data)) & 0xFFFFFFFF


def additive_checksum(data: bytes, width: int = 32) -> int:
    """A simple additive checksum (sum of bytes modulo 2^width)."""
    return sum(data) & ((1 << width) - 1)
