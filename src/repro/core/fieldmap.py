"""Byte-range → input-field mapping (the Hachoir role inside DIODE).

The taint stage identifies *byte offsets* that influence a target value; the
solver and the reports want to talk about *fields* (``/header/width``).  The
:class:`FieldMapper` bridges the two:

* it builds the ``field_map`` the concolic interpreter uses to symbolise
  input bytes as slices of per-field bitvector variables;
* it converts solver models (assignments to field variables and raw byte
  variables) back into concrete byte values for the input rewriter;
* it produces the assignment describing an existing input file, which the
  enforcement loop uses to check which branch constraints a candidate input
  already satisfies.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.exec.concolic import input_byte_name, input_variable_offset
from repro.formats.fields import Endianness, FieldKind, FieldSpec
from repro.formats.spec import FormatSpec
from repro.smt import builder as smt
from repro.smt.evalmodel import Model
from repro.smt.terms import Term


class FieldMapper:
    """Map between byte offsets, field variables and solver models."""

    def __init__(self, spec: Optional[FormatSpec] = None) -> None:
        self.spec = spec

    # ------------------------------------------------------------------
    # Concolic-interpreter field map
    # ------------------------------------------------------------------
    def field_map(self) -> Dict[int, Tuple[str, int, int]]:
        """offset → (field variable name, field width bits, low bit of byte).

        Only mutable UINT fields are mapped; magic numbers, checksums and
        payload bytes keep per-byte symbolic variables (or none at all).
        """
        if self.spec is None:
            return {}
        mapping: Dict[int, Tuple[str, int, int]] = {}
        for field in self.spec.fields:
            if field.kind is not FieldKind.UINT or not field.mutable:
                continue
            width_bits = field.size * 8
            for index in range(field.size):
                offset = field.offset + index
                if field.endianness is Endianness.BIG:
                    low_bit = (field.size - 1 - index) * 8
                else:
                    low_bit = index * 8
                mapping[offset] = (field.path, width_bits, low_bit)
        return mapping

    def field_variable(self, path: str) -> Term:
        """The bitvector variable standing for a named field."""
        if self.spec is None:
            raise ValueError("field_variable requires a format spec")
        field = self.spec.field(path)
        return smt.bv_var(field.path, field.size * 8)

    # ------------------------------------------------------------------
    # Model ↔ bytes
    # ------------------------------------------------------------------
    def model_to_byte_values(self, model) -> Dict[int, int]:
        """Expand a solver model into per-byte values for the rewriter."""
        assignment = model.as_dict() if isinstance(model, Model) else dict(model)
        byte_values: Dict[int, int] = {}
        for name, value in assignment.items():
            offset = input_variable_offset(name)
            if offset is not None:
                byte_values[offset] = value & 0xFF
                continue
            if self.spec is not None and self.spec.has_field(name):
                field = self.spec.field(name)
                encoded = field.encode(value)
                for index, byte in enumerate(encoded):
                    byte_values[field.offset + index] = byte
        return byte_values

    def assignment_for_input(
        self, data: bytes, relevant_offsets: Iterable[int]
    ) -> Model:
        """Describe an input file as a model over field and byte variables.

        The assignment covers every relevant offset twice over when a field
        spans it: once through the per-byte variable and once through the
        field variable, so constraints phrased in either vocabulary can be
        evaluated against the input.
        """
        assignment: Dict[str, int] = {}
        for offset in sorted(set(relevant_offsets)):
            assignment[input_byte_name(offset)] = data[offset] if offset < len(data) else 0
            if self.spec is None:
                continue
            field = self.spec.field_at_offset(offset)
            if field is None or field.kind is not FieldKind.UINT:
                continue
            if field.path not in assignment:
                assignment[field.path] = field.read(data)
        return Model(assignment)

    def variable_offsets(self, terms: Iterable[Term]) -> Tuple[int, ...]:
        """Input offsets whose assignment covers every variable of ``terms``.

        A byte variable ``inp[i]`` needs offset ``i``; a field variable
        needs its field's first offset, which
        :meth:`assignment_for_input` expands to the whole field.
        """
        offsets = set()
        for term in terms:
            for variable in term.variables():
                name = str(variable.name)
                offset = input_variable_offset(name)
                if offset is not None:
                    offsets.add(offset)
                elif self.spec is not None and self.spec.has_field(name):
                    offsets.add(self.spec.field(name).offset)
        return tuple(sorted(offsets))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe_relevant_bytes(self, offsets: Iterable[int]) -> Dict[str, list]:
        """Group relevant byte offsets by field path for reports."""
        if self.spec is None:
            return {"<raw>": sorted(set(offsets))}
        grouped: Dict[str, list] = {}
        for offset in sorted(set(offsets)):
            field = self.spec.field_at_offset(offset)
            path = field.path if field is not None else "<raw>"
            grouped.setdefault(path, []).append(offset)
        return grouped
