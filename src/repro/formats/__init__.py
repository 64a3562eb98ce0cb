"""Input-format substrate (the paper's Hachoir + Peach replacement).

The paper uses Hachoir to dissect seed input files into named fields (so a
byte range like 16–19 becomes ``/header/width``) and Hachoir + Peach to
rebuild a structurally valid input file around solver-chosen field values —
recomputing checksums and preserving required field ordering.

This package provides the same two services:

* :mod:`repro.formats.fields` / :mod:`repro.formats.spec` — declarative
  format specifications mapping byte ranges to named fields.
* :mod:`repro.formats.rewriter` — rebuild an input file with new byte or
  field values, fixing up checksums and length fields afterwards.
* :mod:`repro.formats.png`, :mod:`~repro.formats.wav`,
  :mod:`~repro.formats.swf`, :mod:`~repro.formats.webp`,
  :mod:`~repro.formats.xwd` — concrete format definitions and seed-file
  builders for the five benchmark application models.
"""

from repro.formats.fields import Endianness, FieldKind, FieldSpec, FieldValue
from repro.formats.spec import FormatSpec, DissectedInput, FormatError
from repro.formats.checksum import crc32, additive_checksum
from repro.formats.rewriter import InputRewriter
from repro.formats.png import PngFormat, build_png_seed
from repro.formats.wav import WavFormat, build_wav_seed
from repro.formats.swf import SwfFormat, build_swf_seed
from repro.formats.webp import WebpFormat, build_webp_seed
from repro.formats.xwd import XwdFormat, build_xwd_seed

__all__ = [
    "Endianness",
    "FieldKind",
    "FieldSpec",
    "FieldValue",
    "FormatSpec",
    "DissectedInput",
    "FormatError",
    "crc32",
    "additive_checksum",
    "InputRewriter",
    "PngFormat",
    "build_png_seed",
    "WavFormat",
    "build_wav_seed",
    "SwfFormat",
    "build_swf_seed",
    "WebpFormat",
    "build_webp_seed",
    "XwdFormat",
    "build_xwd_seed",
]
